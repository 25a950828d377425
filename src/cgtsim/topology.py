"""Ring weight matrices, their doubly stochastic check and their spectral data.

Every W is a ring's circulant stencil: agent i keeps ``self_weight`` and gives
``weight`` to agent (i + k) mod n for each offset k of the ring, so row i is
row 0 rolled by i.  A directed ring has the one offset 1, an undirected ring
the offsets 1 and n - 1 (one offset at n = 2).  The outdegree scheme's ``p``
and the Laplacian scheme's ``a`` are scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-12
_POWER_TOL = 1e-12  # spectral_norm stops when its estimate changes by less (relative)
_POWER_MAX_ITER = 100_000


class TopologyError(ValueError):
    """Raised for invalid rings, weights or spectral preconditions."""


@dataclass(frozen=True)
class Ring:
    """Ring on agents 0..n-1: i sends to (i+1) mod n, and to (i-1) mod n if undirected."""

    n: int
    directed: bool = True

    def __post_init__(self) -> None:
        if self.n < 2:
            raise TopologyError(f"ring needs n >= 2, got n={self.n}")

    @property
    def offsets(self) -> tuple[int, ...]:
        """The k with i -> (i+k) mod n an edge; the set makes n = 2 undirected one edge."""
        return (1,) if self.directed else tuple(sorted({1, self.n - 1}))


def build_ring(n: int, directed: bool = True) -> Ring:
    return Ring(n, directed)


@dataclass(frozen=True)
class WeightMatrix:
    """Nonnegative doubly stochastic circulant: ``self_weight`` on the diagonal and
    ``weight`` at (i, (i+k) mod n) for each offset k; ``matrix`` is its dense form."""

    n: int
    offsets: tuple[int, ...]
    self_weight: float
    weight: float
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.zeros((self.n, self.n))
        rows = np.arange(self.n)
        m[rows, rows] = self.self_weight
        for k in self.offsets:
            m[rows, (rows + k) % self.n] = self.weight
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        validate_doubly_stochastic(m)


def check_doubly_stochastic(m: np.ndarray) -> tuple[bool, str]:
    """Return (ok, detail); detail names the first offending row/column/entry."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False, f"matrix must be square, got shape {m.shape}"
    if not np.all(np.isfinite(m)):
        return False, "matrix has non-finite entries"
    neg = np.argwhere(m < 0)
    if neg.size:
        i, j = neg[0]
        return False, f"negative entry at ({i}, {j}): {m[i, j]!r}"
    rows = np.abs(m.sum(axis=1) - 1.0)
    if rows.max() > STOCHASTIC_TOL:
        i = int(rows.argmax())
        return False, f"row {i} sums to {m[i].sum()!r} (error {rows[i]:.3e} > {STOCHASTIC_TOL:g})"
    cols = np.abs(m.sum(axis=0) - 1.0)
    if cols.max() > STOCHASTIC_TOL:
        j = int(cols.argmax())
        return False, f"column {j} sums to {m[:, j].sum()!r} (error {cols[j]:.3e} > {STOCHASTIC_TOL:g})"
    return True, "ok"


def validate_doubly_stochastic(m: np.ndarray) -> None:
    ok, detail = check_doubly_stochastic(m)
    if not ok:
        raise TopologyError(f"not doubly stochastic: {detail}")


def build_weights_outdegree(ring: Ring, p: float) -> WeightMatrix:
    """Weights w_ij = p for each j agent i sends to, 1 - Deg_out*p on the diagonal."""
    if np.ndim(p) != 0:
        raise TopologyError(f"weight p must be a scalar, got an array of shape {np.shape(p)}")
    p = float(p)
    if not math.isfinite(p):
        raise TopologyError(f"per-agent weights p_i must be finite, got p={p!r}")
    if p <= 0:
        raise TopologyError("per-agent weights p_i must be positive")
    deg = len(ring.offsets)
    diag = 1.0 - deg * p
    if diag <= 0:
        raise TopologyError(f"agent 0: 1 - Deg_out*p = {diag!r} <= 0 (Deg_out={deg}, p={p!r})")
    return WeightMatrix(ring.n, ring.offsets, diag, p)


def build_weights_laplacian(ring: Ring, a: float) -> WeightMatrix:
    """W = I - a*L for the ring's Laplacian L; rejects ``a`` that yields negative entries."""
    if not 0 < a < math.inf:
        raise TopologyError(f"tuning parameter a must be positive and finite, got {a!r}")
    deg = len(ring.offsets)
    diag = 1.0 - a * deg
    if diag < 0:
        raise TopologyError(f"a={a!r} makes a diagonal entry negative; need a <= {1.0 / deg!r}")
    return WeightMatrix(ring.n, ring.offsets, diag, a)


@dataclass(frozen=True)
class SpectralInfo:
    """Spectral quantities of a doubly stochastic W used by the convergence analysis.

    rho_w is the spectral norm of W - (1/n) 1 1^T, s = 1 - rho_w is the gap,
    and norm_IminusW is the spectral norm of I - W.
    """

    rho_w: float
    s: float
    norm_IminusW: float


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value by power iteration on M^T M.

    Deterministic: the start vector comes from a fixed-seed generator, so
    repeated calls are bit-identical.  Each step does one product ``b @ v``:
    it gives the Rayleigh quotient of this step and the iterate of the next,
    so the result is bit-identical to computing the same product twice.
    """
    m = np.asarray(m, dtype=float)
    b = m.T @ m
    n = b.shape[0]
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w = b @ v
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        nw = math.sqrt(w @ w)  # np.linalg.norm's formula for a real vector
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = b @ v
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= _POWER_TOL * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


def spectral_info(w: WeightMatrix | np.ndarray) -> SpectralInfo:
    """Compute (rho_w, s, ||I-W||) for a doubly stochastic matrix."""
    m = w.matrix if isinstance(w, WeightMatrix) else np.asarray(w, dtype=float)
    validate_doubly_stochastic(m)
    n = m.shape[0]
    dev = m - np.full((n, n), 1.0 / n)
    rho_w = spectral_norm(dev)
    norm_iw = spectral_norm(np.eye(n) - m)
    return SpectralInfo(rho_w=rho_w, s=1.0 - rho_w, norm_IminusW=norm_iw)
