"""Ring weight matrices, their doubly stochastic check and their spectral data.

Every W is a ring's circulant stencil: agent i keeps ``self_weight`` and gives
``weight`` to agent (i + k) mod n for each offset k of the ring, so row i is
row 0 rolled by i.  A directed ring has the one offset 1, an undirected ring
the offsets 1 and n - 1 (one offset at n = 2).  :func:`build_weights_outdegree`
is the one builder: a scalar ``p`` on each edge and a positive self weight
1 - Deg_out*p.  The Laplacian scheme I - aL is that stencil with p = a.

A :class:`WeightMatrix` holds only that stencil, a few scalars at any n, and is
checked on it, so making one takes O(1) time and memory.  Its dense forms
``matrix`` and ``i_minus_w`` (8 n^2 bytes each) are built on each access and
belong to the caller, so an n = 1000 run holds the one operand its form
multiplies by for as long as the run, not for as long as the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import _is_int

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
        if not _is_int(self.n):
            raise TopologyError(f"ring size n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise TopologyError(f"ring needs n >= 2, got n={self.n}")

    @property
    def offsets(self) -> tuple[int, ...]:
        """The k with i -> (i+k) mod n an edge; the set makes n = 2 undirected one edge."""
        return (1,) if self.directed else tuple(sorted({1, self.n - 1}))


def build_ring(n: int, directed: bool = True) -> Ring:
    return Ring(n, directed)


def _circulant(n: int, offsets: tuple[int, ...], diag: float, off: float) -> np.ndarray:
    """Read-only n x n array: ``diag`` on the diagonal, ``off`` at (i, (i+k) mod n)
    for each offset k, +0.0 elsewhere.  Refused by name when it cannot be allocated."""
    try:
        m = np.zeros((n, n))
    except MemoryError as exc:
        raise TopologyError(f"topology: the dense n x n form of the ring's weights at n={n} "
                            f"cannot be allocated: {exc}") from None
    rows = np.arange(n)
    m[rows, rows] = diag
    for k in offsets:
        m[rows, (rows + k) % n] = off
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class WeightMatrix:
    """Nonnegative doubly stochastic circulant: ``self_weight`` on the diagonal and
    ``weight`` at (i, (i+k) mod n) for each offset k, the offsets distinct mod n
    and none a multiple of n.

    The record holds no array.  ``matrix`` and ``i_minus_w`` build a fresh
    read-only dense form on each access, so a caller reads one once and keeps it
    as long as it needs it.  Every row and column of the circulant holds the self
    weight and one weight per offset, so the check of row 0 when the record is
    made is :func:`check_doubly_stochastic`'s check of the dense W, in its words.
    """

    n: int
    offsets: tuple[int, ...]
    self_weight: float
    weight: float

    def __post_init__(self) -> None:
        n = self.n
        if not _is_int(n) or n < 1:
            raise TopologyError(f"weight matrix needs an integer n >= 1, got n={n!r}")
        # an offset k = 0 mod n would overwrite the diagonal, and two offsets equal mod n
        # would write one entry twice, so the dense W would not be the stencil
        cols = [k % n for k in self.offsets]
        if 0 in cols:
            raise TopologyError(f"offsets must not be multiples of n={n}, got {self.offsets}")
        if len(set(cols)) < len(cols):
            raise TopologyError(f"offsets must be distinct mod n={n}, got {self.offsets}")
        detail = _stencil_fault(float(self.self_weight), float(self.weight), cols)
        if detail is not None:
            raise TopologyError(f"not doubly stochastic: {detail}")

    @property
    def matrix(self) -> np.ndarray:
        """The dense W, built on each access."""
        return _circulant(self.n, self.offsets, self.self_weight, self.weight)

    @property
    def i_minus_w(self) -> np.ndarray:
        """The dense I - W, built on each access: bit for bit ``np.eye(n) - matrix``,
        +0.0 where W is 0."""
        return _circulant(self.n, self.offsets, 1.0 - self.self_weight, 0.0 - self.weight)


def _stencil_fault(self_weight: float, weight: float, cols: list[int]) -> str | None:
    """The fault :func:`check_doubly_stochastic` names in a row 0 of ``self_weight`` at
    column 0 and ``weight`` at each of ``cols``, or None; the row sum is rounded once."""
    entries = [self_weight] + [weight] * len(cols)
    if not all(map(math.isfinite, entries)):
        return "matrix has non-finite entries"
    if self_weight < 0:
        return f"negative entry at (0, 0): {self_weight!r}"
    if weight < 0 and cols:
        return f"negative entry at (0, {min(cols)}): {weight!r}"
    try:
        total = math.fsum(entries)
    except OverflowError:  # nonnegative finite entries whose sum exceeds the largest float
        total = math.inf
    err = abs(total - 1.0)
    if err > STOCHASTIC_TOL:
        return f"row 0 sums to {total!r} (error {err:.3e} > {STOCHASTIC_TOL:g})"
    return None


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
    repeated calls are bit-identical.  Each step is four BLAS calls on two
    vectors made once: ``w.dot(w)`` and ``v.dot(w)`` are the ddot that
    ``w @ w`` and ``v @ w`` call, ``b.dot(v, out=w)`` is the dgemv that
    ``b @ v`` calls on the C-ordered b, and ``np.divide(w, nw, out=v)`` makes
    the IEEE division of each entry that ``w / nw`` makes.  So every iterate
    has the bits of the loop that allocates ``w / nw`` and ``b @ v`` each step.
    One product per step gives the Rayleigh quotient of this step and the
    iterate of the next.

    Raises :class:`TopologyError` rather than return an unresolved number:
    when ``||M^T M||_F^2`` is not finite (a non-finite M, or one so large
    that a step's ``w . w`` could overflow and zero the iterate), and when
    ``_POWER_MAX_ITER`` steps leave the estimate moving by more than
    ``_POWER_TOL``.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
        b = m.T @ m
        flat = b.reshape(-1)
        gram = float(flat.dot(flat))
    if not gram < math.inf:
        raise TopologyError(f"spectral norm needs a finite matrix with ||M^T M||_F^2 finite, "
                            f"got ||M^T M||_F^2 = {gram!r}")
    n = b.shape[0]
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w = b @ v
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        nw = math.sqrt(w.dot(w))  # np.linalg.norm's formula for a real vector
        if nw == 0.0:
            return 0.0
        np.divide(w, nw, out=v)
        b.dot(v, out=w)
        lam_new = float(v.dot(w))
        if abs(lam_new - lam) <= _POWER_TOL * max(1.0, abs(lam_new)):
            return math.sqrt(max(lam_new, 0.0))
        lam = lam_new
    raise TopologyError(f"spectral norm's power iteration did not converge in {_POWER_MAX_ITER} "
                        f"steps: its estimate {lam!r} of ||M||^2 still moved by more than "
                        f"{_POWER_TOL:g} (relative)")


def spectral_info(w: WeightMatrix) -> SpectralInfo:
    """Compute (rho_w, s, ||I-W||) for a ring's W, checked doubly stochastic when built."""
    n = w.n
    rho_w = spectral_norm(w.matrix - 1.0 / n)
    norm_iw = spectral_norm(w.i_minus_w)
    return SpectralInfo(rho_w=rho_w, s=1.0 - rho_w, norm_IminusW=norm_iw)
