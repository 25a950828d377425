"""Communication graphs, doubly stochastic weight matrices and their spectral data."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-12
_POWER_TOL = 1e-12  # spectral_norm stops when its estimate changes by less (relative)
_POWER_MAX_ITER = 100_000


class TopologyError(ValueError):
    """Raised for invalid graphs, weights or spectral preconditions."""


@dataclass(frozen=True)
class Graph:
    """Directed communication graph on agents 0..n-1.

    An edge (i, j) means agent i can send to agent j.  Self-loops are not
    stored; the self-weight lives on the diagonal of the weight matrix.
    The graph must be strongly connected.
    """

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    directed: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TopologyError(f"need at least one agent, got n={self.n}")
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise TopologyError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise TopologyError(f"self-loop ({i}, {i}) not allowed")
        if not self.directed:
            for i, j in self.edges:
                if (j, i) not in self.edges:
                    raise TopologyError(f"undirected graph missing reverse edge ({j}, {i})")
        if not self._strongly_connected():
            raise TopologyError("graph is not strongly connected")

    def _strongly_connected(self) -> bool:
        if self.n == 1:
            return True
        fwd: list[list[int]] = [[] for _ in range(self.n)]
        bwd: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            fwd[i].append(j)
            bwd[j].append(i)
        return _reaches_all(fwd, self.n) and _reaches_all(bwd, self.n)


def _reaches_all(adj: list[list[int]], n: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(senders, receivers) of every edge of g as integer arrays, in one pass."""
    e = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2)
    return e[:, 0], e[:, 1]


def build_ring(n: int, directed: bool = True) -> Graph:
    """Ring on n agents: i -> (i+1) mod n, plus reverse edges if undirected."""
    if n < 2:
        raise TopologyError(f"ring needs n >= 2, got n={n}")
    edges = {(i, (i + 1) % n) for i in range(n)}
    if not directed:
        edges |= {(j, i) for (i, j) in edges}
    return Graph(n=n, edges=frozenset(edges), directed=directed)


@dataclass(frozen=True)
class WeightMatrix:
    """Nonnegative doubly stochastic mixing matrix supported on a graph."""

    graph: Graph
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        validate_doubly_stochastic(m)

    @property
    def n(self) -> int:
        return self.graph.n


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


def build_weights_outdegree(g: Graph, p: float | np.ndarray) -> WeightMatrix:
    """Weights w_ij = p_i for j in i's out-neighborhood, remainder on the diagonal.

    ``p`` is a shared scalar or a per-agent vector.  The construction is only
    doubly stochastic on balanced graphs; the result is validated rather than
    assumed, and a failed validation names the offending row or column.
    """
    p_vec = np.broadcast_to(np.asarray(p, dtype=float), (g.n,)).copy()
    if not np.all(np.isfinite(p_vec)):
        raise TopologyError(f"per-agent weights p_i must be finite, got p={p!r}")
    if np.any(p_vec <= 0):
        raise TopologyError("per-agent weights p_i must be positive")
    src, dst = _edge_arrays(g)
    deg = np.bincount(src, minlength=g.n)
    diag = 1.0 - deg * p_vec
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        i = bad[0]
        raise TopologyError(
            f"agent {i}: 1 - Deg_out*p = {float(diag[i])!r} <= 0 "
            f"(Deg_out={deg[i]}, p={float(p_vec[i])!r})"
        )
    w = np.diag(diag)
    w[src, dst] = p_vec[src]
    return WeightMatrix(graph=g, matrix=w)


def build_weights_laplacian(g: Graph, a: float) -> WeightMatrix:
    """W = I - a*L for balanced graphs; rejects ``a`` that yields negative entries."""
    if not 0 < a < math.inf:
        raise TopologyError(f"tuning parameter a must be positive and finite, got {a!r}")
    src, dst = _edge_arrays(g)
    degs = np.bincount(src, minlength=g.n).astype(float)
    if not np.array_equal(degs, np.bincount(dst, minlength=g.n)):
        raise TopologyError("Laplacian construction needs in-degree == out-degree per agent")
    adj = np.zeros((g.n, g.n))
    adj[src, dst] = 1.0
    lap = np.diag(degs) - adj
    w = np.eye(g.n) - a * lap
    if np.any(np.diag(w) < 0):
        a_max = float(1.0 / degs.max())
        raise TopologyError(f"a={a!r} makes a diagonal entry negative; need a <= {a_max!r}")
    return WeightMatrix(graph=g, matrix=w)


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
