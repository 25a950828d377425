"""Exact rational oracle: communication-efficient C-GT in ``fractions.Fraction``.

Test code, not part of the library.  It runs the per-agent updates of
compressed gradient tracking (Liao et al., arXiv 2103.13748, the
communication-efficient form) from the paper's equations, agent by agent, and
shares no code with ``cgtsim.algorithms``:

    q_i     = C(z_i - h_i)                    for z = x and z = y
    zhat_i  = h_i + q_i
    h_i    <- (1 - alpha) h_i + alpha zhat_i
    zhatw_i = hw_i + sum_j w_ij q_j
    hw_i   <- (1 - alpha) hw_i + alpha zhatw_i
    x_i    <- x_i - gamma (xhat_i - xhatw_i) - eta y_i
    y_i    <- y_i - gamma (yhat_i - yhatw_i) + grad f_i(x_i new) - grad f_i(x_i old)

Every float input (U, v, rho, W's entries, gamma, eta, alpha) is taken as its
exact rational, and so is every keyed uniform, an integer times 2**-53 drawn
from splitmix64 written here on Python ints.  Each arithmetic step is exact,
so the returned trace is the algorithm's true trajectory on those inputs.
Kinds: ``"identity"``, ``"top1"`` (largest |entry|, ties to the lowest index)
and ``"rand1"`` (the entry of the smallest uniform).
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15

# the stream tags of the x and y differences and of the uniform start: the keys are
# (seed, agent, iteration, tag)
TAG_X = 1
TAG_Y = 2
TAG_INIT = 5

TRACE_FIELDS = ("k", "residual", "opt_error", "consensus_error", "tracking_error",
                "compress_error_x", "compress_error_y", "ef_error_x", "ef_error_y",
                "bits_sent")


def _mix(z: int) -> int:
    # the splitmix64 finalizer on an int in [0, 2**64); each product is reduced mod 2**64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def uniform_ints(m: int, *words: int) -> list[int]:
    """The m 53-bit integers of the key: uniform j is ``uniform_ints(...)[j] * 2**-53``.

    The key is the chain ``h = mix(h ^ (word + phi))`` from h = 0 over the
    words, each taken mod 2**64; integer j is the top 53 bits of
    ``mix(h + (j + 1) phi)``.
    """
    h = 0
    for word in words:
        h = _mix(h ^ (((int(word) & _MASK) + _PHI) & _MASK))
    return [_mix((h + (j + 1) * _PHI) & _MASK) >> 11 for j in range(m)]


def uniforms(m: int, *words: int) -> list[Fraction]:
    return [Fraction(i, 1 << 53) for i in uniform_ints(m, *words)]


def _sq(v) -> Fraction:
    return sum((a * a for a in v), Fraction(0))


def _sub(a, b) -> list[Fraction]:
    return [s - t for s, t in zip(a, b)]


def _compress(kind: str, d: list[Fraction], key: tuple) -> tuple[list[Fraction], int | None]:
    """The payload of d and its decision: the kept index, or None for the identity."""
    if kind == "identity":
        return list(d), None
    if kind == "top1":
        keep = max(range(len(d)), key=lambda j: (abs(d[j]), -j))
    elif kind == "rand1":
        u = uniform_ints(len(d), *key)
        keep = min(range(len(d)), key=lambda j: (u[j], j))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return [d[j] if j == keep else Fraction(0) for j in range(len(d))], keep


def _bits(kind: str, p: int) -> int:
    # 64-bit floats; a kept entry also sends its index
    return 64 * p if kind == "identity" else 64 + (p - 1).bit_length()


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """The exact solution of a x = b by Gauss-Jordan elimination (a nonsingular)."""
    p = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(p):
        piv = next(r for r in range(c, p) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for r in range(p):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [s - f * t for s, t in zip(m[r], m[c])]
    return [m[r][p] / m[r][r] for r in range(p)]


def run_cgt_efficient(U, v, rho, W, gamma, eta, kind, K, seed, alpha=1.0, init="zeros"):
    """The exact trace and decisions of K iterations from the ``init`` start.

    ``init`` is ``"zeros"`` or ``"uniform"``, whose x_i is the p uniforms of
    the key (seed, i, 0, TAG_INIT).

    ``U`` is (n, p), ``v`` (n,), ``W`` (n, n), each given as nested floats or
    arrays.  Returns ``(trace, decisions)``: ``trace`` is a list of K + 1
    dicts keyed by ``TRACE_FIELDS``, with Fraction values (ints for ``k`` and
    ``bits_sent``); ``decisions[k]`` is the ((x, y) per agent) kept indices of
    iteration k, the one that makes point k + 1.
    """
    F = Fraction
    U = [[F(float(a)) for a in row] for row in U]
    v = [F(float(a)) for a in v]
    W = [[F(float(a)) for a in row] for row in W]
    rho, gamma, eta, alpha = F(float(rho)), F(float(gamma)), F(float(eta)), F(float(alpha))
    n, p = len(U), len(U[0])

    def grad(i, x):
        r = 2 * (sum((a * b for a, b in zip(U[i], x)), F(0)) - v[i])
        return [r * a + 2 * rho * b for a, b in zip(U[i], x)]

    # x* = (sum_i u_i u_i^T + n rho I)^-1 sum_i u_i v_i
    a = [[sum((U[i][r] * U[i][c] for i in range(n)), F(0)) + (n * rho if r == c else 0)
          for c in range(p)] for r in range(p)]
    x_star = _solve(a, [sum((U[i][r] * v[i] for i in range(n)), F(0)) for r in range(p)])

    if init == "zeros":
        x = [[F(0)] * p for _ in range(n)]
    elif init == "uniform":
        x = [uniforms(p, seed, i, 0, TAG_INIT) for i in range(n)]
    else:
        raise ValueError(f"unknown init {init!r}")
    y = [grad(i, x[i]) for i in range(n)]
    zero = [[F(0)] * p for _ in range(n)]
    h = {"x": [r[:] for r in zero], "y": [r[:] for r in zero]}
    hw = {"x": [r[:] for r in zero], "y": [r[:] for r in zero]}
    denom = sum((_sq(_sub(x[i], x_star)) for i in range(n)), F(0)) or F(1)
    bits_per_iter = n * 2 * _bits(kind, p)

    def point(k):
        mean = {c: [sum((z[i][j] for i in range(n)), F(0)) / n for j in range(p)]
                for c, z in (("x", x), ("y", y))}
        return {
            "k": k,
            "residual": sum((_sq(_sub(x[i], x_star)) for i in range(n)), F(0)) / denom,
            "opt_error": _sq(_sub(mean["x"], x_star)),
            "consensus_error": sum((_sq(_sub(x[i], mean["x"])) for i in range(n)), F(0)),
            "tracking_error": sum((_sq(_sub(y[i], mean["y"])) for i in range(n)), F(0)),
            "compress_error_x": sum((_sq(_sub(x[i], h["x"][i])) for i in range(n)), F(0)),
            "compress_error_y": sum((_sq(_sub(y[i], h["y"][i])) for i in range(n)), F(0)),
            "ef_error_x": F(0),
            "ef_error_y": F(0),
            "bits_sent": k * bits_per_iter,
        }

    trace, decisions = [point(0)], []
    for k in range(K):
        zhat, zhatw, decided = {}, {}, []
        for c, z, tag in (("x", x, TAG_X), ("y", y, TAG_Y)):
            qs = []
            for i in range(n):
                q, keep = _compress(kind, _sub(z[i], h[c][i]), (seed, i, k, tag))
                qs.append(q)
                decided.append(keep)
            zhat[c] = [[hj + qj for hj, qj in zip(h[c][i], qs[i])] for i in range(n)]
            zhatw[c] = [[hw[c][i][j] + sum((W[i][l] * qs[l][j] for l in range(n)), F(0))
                         for j in range(p)] for i in range(n)]
            h[c] = [[(1 - alpha) * a + alpha * b for a, b in zip(h[c][i], zhat[c][i])]
                    for i in range(n)]
            hw[c] = [[(1 - alpha) * a + alpha * b for a, b in zip(hw[c][i], zhatw[c][i])]
                     for i in range(n)]
        # decisions in the order x of agents 0..n-1, then y of agents 0..n-1
        decisions.append(tuple(decided))
        x_new = [[x[i][j] - gamma * (zhat["x"][i][j] - zhatw["x"][i][j]) - eta * y[i][j]
                  for j in range(p)] for i in range(n)]
        y = [[y[i][j] - gamma * (zhat["y"][i][j] - zhatw["y"][i][j]) + gn - go
              for j, (gn, go) in enumerate(zip(grad(i, x_new[i]), grad(i, x[i])))]
             for i in range(n)]
        x = x_new
        trace.append(point(k + 1))
    return trace, decisions
