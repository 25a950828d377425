"""Gradient tracking with communication compression over synthetic networks.

Four runners share one engine: the reference and communication-efficient
forms of compressed gradient tracking, and their error-feedback variants.
Plain gradient tracking is the identity-compressor special case of the
reference form, so the two are bit-identical by construction.

All randomness is keyed by (seed, agent, iteration, tag), which makes every
run deterministic and lets the reference/efficient pair consume identical
draws.  The updates follow a synchronous-rounds contract: within one
iteration every agent reads only previous-round state, so results are
independent of intra-round scheduling; single-threaded execution is the
reference mode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .compression import (
    TAG_INIT,
    TAG_X_DIFF,
    TAG_X_EF,
    TAG_Y_DIFF,
    TAG_Y_EF,
    CompressorKind,
    Identity,
    analytic_profile,
    bit_cost,
    compress_rows_multi,
    compressor_label,
    _key_states,
    _state_uniform,
)
from .problems import RidgeProblem, gradient_matrix, optimal_solution
from .topology import WeightMatrix

DIVERGENCE_LIMIT = 1e12


class AlgorithmError(ValueError):
    """Raised for invalid hyperparameters or run configuration."""


class DivergenceError(RuntimeError):
    """Run aborted because the residual exceeded the divergence guard."""

    def __init__(self, message: str, partial: "RunResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class HyperParams:
    """Step sizes and scaling parameters shared by all algorithm variants.

    ``eta`` may be a scalar or a per-agent vector (uncoordinated step sizes).
    ``beta_x``/``beta_y`` damp the error-feedback accumulators; 1 recovers the
    plain error-feedback updates.
    """

    eta: float | np.ndarray
    gamma: float = 1.0
    alpha_x: float = 1.0
    alpha_y: float = 1.0
    beta_x: float = 1.0
    beta_y: float = 1.0

    def __post_init__(self) -> None:
        eta = np.asarray(self.eta, dtype=float)
        if not np.all((eta > 0) & np.isfinite(eta)):
            raise AlgorithmError(f"step-size eta must be positive and finite, got {self.eta!r}")
        if not 0 < self.gamma <= 1:
            raise AlgorithmError(f"consensus step-size gamma must be in (0, 1], got {self.gamma!r}")
        for name in ("alpha_x", "alpha_y", "beta_x", "beta_y"):
            val = getattr(self, name)
            if not 0 < val <= 1:
                raise AlgorithmError(f"{name} must be in (0, 1], got {val!r}")

    def eta_rows(self, n: int) -> np.ndarray:
        """eta broadcast to an (n, 1) column for per-agent updates."""
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim == 0:
            return np.full((n, 1), float(eta))
        if eta.shape != (n,):
            raise AlgorithmError(f"per-agent eta must have shape ({n},), got {eta.shape}")
        return eta[:, None].copy()


@dataclass
class NetworkState:
    """Stacked per-agent iterates; row i belongs to agent i."""

    X: np.ndarray
    Y: np.ndarray
    H_x: np.ndarray
    H_y: np.ndarray
    H_xw: np.ndarray | None = None
    H_yw: np.ndarray | None = None
    E_x: np.ndarray | None = None
    E_y: np.ndarray | None = None
    grad: np.ndarray | None = None


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration error metrics and cumulative communication cost."""

    k: int
    residual: float
    opt_error: float
    consensus_error: float
    tracking_error: float
    compress_error_x: float
    compress_error_y: float
    ef_error_x: float
    ef_error_y: float
    bits_sent: int


@dataclass
class RunResult:
    """Trace plus final state and echoes of everything that determined the run."""

    trace: list[TraceRecord]
    final: NetworkState
    hyper: HyperParams
    compressor: str
    seed: int
    algorithm: str
    max_tracking_violation: float = 0.0
    max_mean_drift: float = 0.0
    x_star: np.ndarray | None = None
    states_x: np.ndarray | None = None  # (K+1, n, p) when recorded
    states_y: np.ndarray | None = None

    @property
    def residuals(self) -> np.ndarray:
        return np.array([t.residual for t in self.trace])

    @property
    def ks(self) -> np.ndarray:
        return np.array([t.k for t in self.trace])


def _sq(m: np.ndarray) -> float:
    return float(np.sum(m * m))


def metrics(state: NetworkState, pb: RidgeProblem, x_star: np.ndarray, *,
            k: int = 0, residual_denom: float = 1.0, bits_sent: int = 0) -> TraceRecord:
    """All trace fields for one snapshot; residual uses the supplied denominator."""
    x_bar = state.X.mean(axis=0)
    y_bar = state.Y.mean(axis=0)
    zero = 0.0
    return TraceRecord(
        k=k,
        residual=_sq(state.X - x_star[None, :]) / residual_denom,
        opt_error=_sq(x_bar - x_star),
        consensus_error=_sq(state.X - x_bar[None, :]),
        tracking_error=_sq(state.Y - y_bar[None, :]),
        compress_error_x=_sq(state.X - state.H_x),
        compress_error_y=_sq(state.Y - state.H_y),
        ef_error_x=_sq(state.E_x) if state.E_x is not None else zero,
        ef_error_y=_sq(state.E_y) if state.E_y is not None else zero,
        bits_sent=bits_sent,
    )


def default_x0(pb: RidgeProblem, seed: int, init: str = "zeros") -> np.ndarray:
    """Initial decision variables: zeros, or uniform [0, 1]^p keyed by the seed."""
    if init == "zeros":
        return np.zeros((pb.n, pb.dim))
    if init == "uniform":
        return _state_uniform(_key_states(seed, np.arange(pb.n), 0, TAG_INIT), pb.dim)
    raise AlgorithmError(f"unknown init {init!r} (expected 'zeros' or 'uniform')")


def _warn_alpha_range(kind: CompressorKind, p: int, hp: HyperParams) -> None:
    prof = analytic_profile(kind, p)
    if prof is None or prof.r <= 1:
        return
    limit = 1.0 / prof.r
    if hp.alpha_x > limit * (1 + 1e-12) or hp.alpha_y > limit * (1 + 1e-12):
        warnings.warn(
            f"alpha exceeds the theoretical range (0, 1/r] = (0, {limit:g}] for "
            f"{compressor_label(kind)}; convergence is no longer guaranteed",
            stacklevel=3,
        )


def _simulate(pb: RidgeProblem, W: WeightMatrix, hp: HyperParams, kind: CompressorKind,
              K: int, seed: int, *, efficient: bool, error_feedback: bool,
              algorithm: str, x0: np.ndarray | None = None, init: str = "zeros",
              trace_every: int = 1, record_states: bool = False) -> RunResult:
    if W.n != pb.n:
        raise AlgorithmError(f"topology has n={W.n} agents but problem has n={pb.n}")
    if K < 0:
        raise AlgorithmError(f"iteration count K must be nonnegative, got {K}")
    if trace_every < 1:
        raise AlgorithmError(f"trace_every must be >= 1, got {trace_every}")
    _warn_alpha_range(kind, pb.dim, hp)

    n, p = pb.n, pb.dim
    w = W.matrix
    i_minus_w = np.eye(n) - w
    gamma = hp.gamma
    ax, ay = hp.alpha_x, hp.alpha_y
    eta = hp.eta_rows(n)

    X = default_x0(pb, seed, init) if x0 is None else np.array(x0, dtype=float)
    if X.shape != (n, p):
        raise AlgorithmError(f"x0 must have shape ({n}, {p}), got {X.shape}")
    grad = gradient_matrix(pb, X)
    Y = grad.copy()
    H_x = np.zeros((n, p))
    H_y = np.zeros((n, p))
    H_xw = w @ H_x if efficient else None
    H_yw = w @ H_y if efficient else None
    E_x = np.zeros((n, p)) if error_feedback else None
    E_y = np.zeros((n, p)) if error_feedback else None

    sol = optimal_solution(pb)
    x_star = sol.x_star
    denom = _sq(X - x_star[None, :])
    if denom == 0.0:
        denom = 1.0

    vectors_per_agent = 4 if error_feedback else 2
    bits_per_iter = n * vectors_per_agent * bit_cost(kind, p)
    bits = 0

    def snapshot() -> NetworkState:
        return NetworkState(X=X, Y=Y, H_x=H_x, H_y=H_y, H_xw=H_xw, H_yw=H_yw,
                            E_x=E_x, E_y=E_y, grad=grad)

    trace = [metrics(snapshot(), pb, x_star, k=0, residual_denom=denom, bits_sent=0)]
    max_track = 0.0
    max_drift = 0.0
    steps_done = 0
    xs = ys = None
    if record_states:
        xs = np.empty((K + 1, n, p))
        ys = np.empty((K + 1, n, p))
        xs[0], ys[0] = X, Y

    def result() -> RunResult:
        return RunResult(trace=trace, final=snapshot(), hyper=hp,
                         compressor=compressor_label(kind), seed=seed,
                         algorithm=algorithm, max_tracking_violation=max_track,
                         max_mean_drift=max_drift, x_star=x_star,
                         states_x=None if xs is None else xs[: steps_done + 1],
                         states_y=None if ys is None else ys[: steps_done + 1])

    cs_x = X.sum(axis=0)
    cs_y = Y.sum(axis=0)

    for k in range(K):
        if not error_feedback:
            Q_x, Q_y = compress_rows_multi(kind, [X - H_x, Y - H_y],
                                           [TAG_X_DIFF, TAG_Y_DIFF], seed, k)
            X_hat = H_x + Q_x
            H_x = X_hat if ax == 1.0 else (1 - ax) * H_x + ax * X_hat
            Y_hat = H_y + Q_y
            H_y = Y_hat if ay == 1.0 else (1 - ay) * H_y + ay * Y_hat
            if efficient:
                X_hat_w = H_xw + w @ Q_x
                H_xw = X_hat_w if ax == 1.0 else (1 - ax) * H_xw + ax * X_hat_w
                Y_hat_w = H_yw + w @ Q_y
                H_yw = Y_hat_w if ay == 1.0 else (1 - ay) * H_yw + ay * Y_hat_w
        else:
            D_x = X - H_x
            D_y = Y - H_y
            DE_x = hp.beta_x * E_x + D_x
            DE_y = hp.beta_y * E_y + D_y
            Q_x, Qh_x, Q_y, Qh_y = compress_rows_multi(
                kind, [D_x, DE_x, D_y, DE_y],
                [TAG_X_DIFF, TAG_X_EF, TAG_Y_DIFF, TAG_Y_EF], seed, k)
            E_x = DE_x - Qh_x
            X_hat = H_x + Qh_x
            H_x = H_x + ax * Q_x
            E_y = DE_y - Qh_y
            Y_hat = H_y + Qh_y
            H_y = H_y + ay * Q_y
            if efficient:
                X_hat_w = H_xw + w @ Qh_x
                H_xw = H_xw + ax * (w @ Q_x)
                Y_hat_w = H_yw + w @ Qh_y
                H_yw = H_yw + ay * (w @ Q_y)

        step = eta * Y
        if efficient:
            X_new = X - gamma * (X_hat - X_hat_w) - step
        else:
            X_new = X - gamma * (i_minus_w @ X_hat) - step
        grad_new = gradient_matrix(pb, X_new)
        if efficient:
            Y_new = Y - gamma * (Y_hat - Y_hat_w) + grad_new - grad
        else:
            Y_new = Y - gamma * (i_minus_w @ Y_hat) + grad_new - grad

        # mean-dynamics identity: the network average follows exact gradient descent
        cs_x_new = X_new.sum(axis=0)
        cs_y_new = Y_new.sum(axis=0)
        diff = cs_x_new - cs_x + step.sum(axis=0)
        drift = float(np.sqrt(diff @ diff)) / n
        nx_bar = float(np.sqrt(cs_x @ cs_x)) / n
        max_drift = max(max_drift, drift / (1.0 + nx_bar))

        X, Y, grad = X_new, Y_new, grad_new
        cs_x, cs_y = cs_x_new, cs_y_new

        # gradient-tracking identity: column sums of Y and of the gradients agree
        gdiff = cs_y - grad.sum(axis=0)
        viol = float(np.max(np.abs(gdiff)))
        g_flat = grad.ravel()
        max_track = max(max_track, viol / (1.0 + float(np.sqrt(g_flat @ g_flat))))

        bits += bits_per_iter
        steps_done = k + 1
        if record_states:
            xs[k + 1], ys[k + 1] = X, Y

        r_flat = (X - x_star[None, :]).ravel()
        residual = float(r_flat @ r_flat) / denom
        record_now = ((k + 1) % trace_every == 0) or (k + 1 == K)
        if record_now:
            trace.append(metrics(snapshot(), pb, x_star, k=k + 1,
                                 residual_denom=denom, bits_sent=bits))
        if not np.isfinite(residual) or residual > DIVERGENCE_LIMIT:
            if not record_now:
                trace.append(metrics(snapshot(), pb, x_star, k=k + 1,
                                     residual_denom=denom, bits_sent=bits))
            raise DivergenceError(
                f"{algorithm} diverged at iteration {k + 1}: residual {residual:.3e} "
                f"exceeds {DIVERGENCE_LIMIT:.0e}",
                partial=result(),
            )

    return result()


def run_gt(pb: RidgeProblem, W: WeightMatrix, hp: HyperParams, K: int, seed: int = 0,
           **kwargs) -> RunResult:
    """Gradient tracking without compression.

    Executes X <- ((1-gamma) I + gamma W) X - eta Y and the matching tracker
    update, realized as compressed gradient tracking with the identity
    operator so the two coincide bit for bit.
    """
    return _simulate(pb, W, hp, Identity(), K, seed, efficient=False,
                     error_feedback=False, algorithm="gt", **kwargs)


def run_cgt_reference(pb: RidgeProblem, W: WeightMatrix, hp: HyperParams,
                      kind: CompressorKind, K: int, seed: int = 0, **kwargs) -> RunResult:
    """Compressed gradient tracking, reference form (mixes the full estimates)."""
    return _simulate(pb, W, hp, kind, K, seed, efficient=False,
                     error_feedback=False, algorithm="cgt-ref", **kwargs)


def run_cgt_efficient(pb: RidgeProblem, W: WeightMatrix, hp: HyperParams,
                      kind: CompressorKind, K: int, seed: int = 0, **kwargs) -> RunResult:
    """Compressed gradient tracking, communication-efficient form.

    Maintains the neighbor-mixed reference states H_xw = W H_x and
    H_yw = W H_y so only compressed payloads ever cross the network.
    """
    return _simulate(pb, W, hp, kind, K, seed, efficient=True,
                     error_feedback=False, algorithm="cgt", **kwargs)


def run_efcgt_reference(pb: RidgeProblem, W: WeightMatrix, hp: HyperParams,
                        kind: CompressorKind, K: int, seed: int = 0, **kwargs) -> RunResult:
    """Error-feedback compressed gradient tracking, reference form."""
    return _simulate(pb, W, hp, kind, K, seed, efficient=False,
                     error_feedback=True, algorithm="efcgt-ref", **kwargs)


def run_efcgt_efficient(pb: RidgeProblem, W: WeightMatrix, hp: HyperParams,
                        kind: CompressorKind, K: int, seed: int = 0, **kwargs) -> RunResult:
    """Error-feedback compressed gradient tracking, communication-efficient form."""
    return _simulate(pb, W, hp, kind, K, seed, efficient=True,
                     error_feedback=True, algorithm="efcgt", **kwargs)
