"""Synthetic ridge-regression instances, gradient oracles and problem constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ProblemError(ValueError):
    """Raised for invalid problem parameters or agent indices."""


def _const(c: float) -> np.ndarray:
    """``c`` as a read-only 0-d array."""
    a = np.array(c)
    a.setflags(write=False)
    return a


_TWO = _const(2.0)


@dataclass(frozen=True)
class RidgeProblem:
    """One (u_i, v_i) sample per agent with an L2 penalty.

    Local objective: f_i(x) = (u_i^T x - v_i)^2 + rho * ||x||^2, and the
    network minimizes their average.
    """

    U: np.ndarray  # (n, p) features, one row per agent
    v: np.ndarray  # (n,) observations
    rho: float

    def __post_init__(self) -> None:
        u = np.asarray(self.U, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 2 or v.shape != (u.shape[0],):
            raise ProblemError(f"inconsistent shapes U{u.shape}, v{v.shape}")
        if self.rho <= 0:
            raise ProblemError(f"penalty rho must be positive, got {self.rho!r}")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ProblemError("features U and observations v must be finite")
        # the gradient takes 2*rho, the Hessian of the sum n*rho
        if not math.isfinite(max(2, u.shape[0]) * self.rho):
            raise ProblemError(f"penalty terms 2*rho and n*rho must be finite, got "
                               f"rho={self.rho!r} at n={u.shape[0]}")
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "_two_rho", _const(2.0 * self.rho))

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def dim(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class ProblemConstants:
    mu: float
    L: float

    @property
    def kappa(self) -> float:
        return self.L / self.mu


def _is_int(x: object) -> bool:
    # a seed is an int (a bool is one) or a NumPy integer: a float is refused, not truncated
    return isinstance(x, (int, np.integer))


def generate_ridge(n: int, p: int, rho: float, noise_std: float, seed: int) -> RidgeProblem:
    """Draw u_i uniform on [-1, 1]^p and v_i = u_i^T x~_i + noise.

    The generating parameters x~_i are constant vectors at evenly spaced
    levels i/(n-1) in [0, 1] (level 0.5 for a single agent).  :class:`RidgeProblem`
    refuses a penalty rho <= 0.
    """
    if n < 1 or p < 1:
        raise ProblemError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if not _is_int(seed):
        raise ProblemError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:  # the keyed compressor streams reduce seeds mod 2**64
        raise ProblemError(f"seed must be in [0, 2**64), got {seed!r}")
    if not (math.isfinite(rho) and math.isfinite(noise_std)):
        raise ProblemError(f"rho and noise_std must be finite, got rho={rho!r}, "
                           f"noise_std={noise_std!r}")
    if noise_std < 0:
        raise ProblemError(f"noise_std must be nonnegative, got {noise_std!r}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(n, p))
    levels = np.full(n, 0.5) if n == 1 else np.arange(n) / (n - 1)
    x_tilde = np.repeat(levels[:, None], p, axis=1)
    with np.errstate(over="ignore"):  # RidgeProblem refuses a v that overflowed
        v = np.einsum("ij,ij->i", u, x_tilde) + noise_std * rng.standard_normal(n)
    return RidgeProblem(U=u, v=v, rho=rho)


def local_gradient(pb: RidgeProblem, i: int, x: np.ndarray) -> np.ndarray:
    """grad f_i(x) = 2 (u_i^T x - v_i) u_i + 2 rho x."""
    if not 0 <= i < pb.n:
        raise ProblemError(f"agent index {i} out of range for n={pb.n}")
    x = np.asarray(x, dtype=float)
    return 2.0 * (pb.U[i] @ x - pb.v[i]) * pb.U[i] + 2.0 * pb.rho * x


def gradient_matrix(pb: RidgeProblem, X: np.ndarray) -> np.ndarray:
    """Stacked local gradients: row i is grad f_i(X[i])."""
    # np.add.reduce is the reduction .sum(axis=1) runs, without its Python-level wrapper.
    # 2 and 2*rho are 0-d arrays, 2*rho built once per problem: numpy converts a Python-float
    # operand on every call, and the products are the same binary64 ones
    res = np.add.reduce(pb.U * X, axis=1) - pb.v
    return (_TWO * res)[:, None] * pb.U + pb._two_rho * X


def optimal_solution(pb: RidgeProblem) -> np.ndarray:
    """The minimizer x* = (sum u_i u_i^T + n rho I)^-1 sum u_i v_i, in closed form.

    Solved once per problem, on first use: the read-only result is kept on the
    frozen problem, whose U, v and rho are read-only too, and every later call
    returns that same array.
    """
    x_star = pb.__dict__.get("_x_star")
    if x_star is None:
        a = pb.U.T @ pb.U + pb.n * pb.rho * np.eye(pb.dim)
        x_star = np.linalg.solve(a, pb.U.T @ pb.v)
        x_star.setflags(write=False)
        object.__setattr__(pb, "_x_star", x_star)
    return x_star


def constants(pb: RidgeProblem) -> ProblemConstants:
    """Strong convexity mu of the average objective and the largest per-agent smoothness L."""
    hess = (2.0 / pb.n) * (pb.U.T @ pb.U) + 2.0 * pb.rho * np.eye(pb.dim)
    mu = float(np.linalg.eigvalsh(hess)[0])
    l_i = 2.0 * np.einsum("ij,ij->i", pb.U, pb.U) + 2.0 * pb.rho
    return ProblemConstants(mu=mu, L=float(l_i.max()))
