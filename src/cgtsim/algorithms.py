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

The engine state Z, the reference states H and H_w = W H and the
error-feedback accumulator E are (2, n, p) arrays: channel 0 is the decision
x, channel 1 the tracker y, row i belongs to agent i.  ``NetworkState`` holds
them in this layout from the update loop to the trace.  alpha and beta are
Python floats when the x and y values agree and (2, 1, 1) columns otherwise,
so each update, and each ``metrics`` reduction, is written once for both.
A coefficient that is a scalar 1 (alpha, beta or gamma) multiplies nothing:
``x * 1.0`` is ``x`` bit for bit for every double, ±0, ±inf and NaN included,
and most presets run at alpha = beta = 1.  ``keep * H``, with keep = 1 - alpha,
stays even at keep = 0: adding its ``0.0 * h`` turns a -0.0 into +0 where h is
positive, and is NaN where h is infinite, so dropping the term is not exact.

The update loop only steps the state; ``_simulate`` checks it in blocks of c =
max(1, _BLOCK_BYTES // (8 * floats kept per iteration)) iterations.  A block
starts with one draw of every uniform its iterations compress with: none for a
deterministic kind, else 2 or, with error feedback, 4 n*p per iteration, keyed
as one draw per iteration would key them.  Each iteration's Z, H, H_w, E,
gradient and step are kept by reference, not copied.  After c
iterations, and once more at the end, the block is stacked and reduced in one
call per quantity: the residuals of the divergence guard, the mean-dynamics
drift and the tracking violation.  Each is reduced by numpy's own sums, never
by BLAS, so the checks give the same bits at every BLAS thread count: the
guard's residual is the trace's, ``_sum_sq``, and the two invariants' norms are
``compression._row_norms``.  The first iteration whose residual is not
finite or exceeds ``DIVERGENCE_LIMIT`` ends the run: the block is cut there,
so the iterations the loop ran past it leave no trace, no state and no
maximum.  The maxima fold that block's values up to the cut, and its trace
points become records in one ``metrics`` call.  Every residual, maximum,
record and state is bit for bit that of a check after each iteration.  This
rests on an invariant of the engine: every iteration builds fresh arrays, and
an array that reached a block (or ``states_x``/``states_y``) is never updated
in place.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
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
    UnbiasedQuantize,
    alpha_in_range,
    analytic_profile,
    bit_cost,
    compress_rows_multi,
    compressor_label,
    profile_for,
    _draw_block,
    _row_norms,
    _uniforms,
)
from .problems import RidgeProblem, gradient_matrix, optimal_solution
from .topology import WeightMatrix

DIVERGENCE_LIMIT = 1e12

# iterations per checked block: c = max(1, _BLOCK_BYTES // (8 * floats kept per iteration)),
# where an iteration keeps Z, H, H_w, E (2*n*p each), the gradient and the step (n*p each);
# so a block's kept arrays take about 512 KB: c = 32-54 at n = 10, p = 20 and 1 at n = 1000.
# A stochastic kind's block also holds its uniforms, 2 (with error feedback 4) n*p per
# iteration: at most half the kept arrays
_BLOCK_BYTES = 2**19


class AlgorithmError(ValueError):
    """Raised for invalid hyperparameters or run configuration.

    ``field`` names the ``HyperParams`` field at fault, when there is one.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DivergenceError(RuntimeError):
    """Run aborted because the residual exceeded the divergence guard."""

    def __init__(self, message: str, partial: "RunResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class HyperParams:
    """Step sizes and scaling parameters shared by all algorithm variants.

    ``eta`` is one step size for every agent.  ``beta_x``/``beta_y`` damp the
    error-feedback accumulators; 1 recovers the plain error-feedback updates.
    """

    eta: float
    gamma: float = 1.0
    alpha_x: float = 1.0
    alpha_y: float = 1.0
    beta_x: float = 1.0
    beta_y: float = 1.0

    def __post_init__(self) -> None:
        if np.ndim(self.eta) != 0:
            raise AlgorithmError(f"step-size eta must be a scalar, got an array of shape "
                                 f"{np.shape(self.eta)}", "eta")
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise AlgorithmError(f"step-size eta must be positive and finite, got {self.eta!r}",
                                 "eta")
        object.__setattr__(self, "eta", float(self.eta))
        if not 0 < self.gamma <= 1:
            raise AlgorithmError(f"consensus step-size gamma must be in (0, 1], got {self.gamma!r}",
                                 "gamma")
        for name in ("alpha_x", "alpha_y", "beta_x", "beta_y"):
            val = getattr(self, name)
            if not 0 < val <= 1:
                raise AlgorithmError(f"{name} must be in (0, 1], got {val!r}", name)


@dataclass
class NetworkState:
    """The engine's arrays in the channel layout of the module docstring.

    ``H_w`` is set in the communication-efficient forms only and ``E`` with
    error feedback only.  A run's ``final`` state is (2, n, p); a block of c
    snapshots, as ``metrics`` reads it, carries a leading block axis,
    (c, 2, n, p).  ``X`` and ``Y`` are views of the two channels of ``Z``.
    """

    Z: np.ndarray
    H: np.ndarray
    H_w: np.ndarray | None = None
    E: np.ndarray | None = None

    @property
    def X(self) -> np.ndarray:
        return self.Z[..., 0, :, :]

    @property
    def Y(self) -> np.ndarray:
        return self.Z[..., 1, :, :]


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
    """Trace, final state and invariant maxima of a run, with its algorithm and compressor.

    ``max_tracking_violation`` and ``max_mean_drift`` are the largest relative
    violations of the two invariants over the iterations run (to the
    divergence guard's, for a diverged run).  Each reads nan when the run's
    state overflowed, so that an identity compared inf with inf.
    """

    trace: list[TraceRecord]
    final: NetworkState
    compressor: str
    algorithm: str
    max_tracking_violation: float = 0.0
    max_mean_drift: float = 0.0
    states_x: np.ndarray | None = None  # (K+1, n, p) when recorded
    states_y: np.ndarray | None = None


def _sum_sq(m: np.ndarray) -> np.ndarray:
    # one reduce per (n, p) slice in its memory order: the same pairwise sum as np.sum(m * m)
    # over that slice, without its dispatch
    return np.add.reduce(m * m, axis=(-2, -1))


def metrics(state: NetworkState, x_star: np.ndarray, *, k: Sequence[int],
            residual_denom: float = 1.0, bits_sent: Sequence[int]) -> list[TraceRecord]:
    """All trace fields for a block of c snapshots; residual uses the supplied denominator.

    Each array of ``state`` has shape (c, 2, n, p); ``k`` and ``bits_sent``
    hold one value per snapshot.  A single snapshot is a block of one: pass
    ``a[None]`` views.  When each (n, p) slice is C- or F-contiguous, every
    record is bit for bit the one its snapshot gives alone: each sum runs over
    its slice in memory order.
    """
    Z = state.Z
    # np.mean(axis=-2) is this reduce divided by n
    z_bar = np.add.reduce(Z, axis=-2) / Z.shape[-2]
    opt = z_bar[:, 0] - x_star
    residual = (_sum_sq(state.X - x_star) / residual_denom).tolist()
    opt_error = np.add.reduce(opt * opt, axis=-1).tolist()
    # each an (x, y) pair of per-snapshot lists: consensus and tracking, compression,
    # error feedback
    spread = _sum_sq(Z - z_bar[:, :, None, :]).T.tolist()
    comp = _sum_sq(Z - state.H).T.tolist()
    ef = _sum_sq(state.E).T.tolist() if state.E is not None else [[0.0] * len(k)] * 2
    return list(map(TraceRecord, k, residual, opt_error, *spread, *comp, *ef, bits_sent))


def default_x0(pb: RidgeProblem, seed: int, init: str = "zeros") -> np.ndarray:
    """Initial decision variables: zeros, or uniform [0, 1]^p keyed by the seed."""
    if init == "zeros":
        return np.zeros((pb.n, pb.dim))
    if init == "uniform":
        return _uniforms(pb.dim, seed, np.arange(pb.n), 0, TAG_INIT)
    raise AlgorithmError(f"unknown init {init!r} (expected 'zeros' or 'uniform')")


def _warn_alpha_range(kind: CompressorKind, p: int, hp: HyperParams) -> None:
    prof = analytic_profile(kind, p)
    if prof is None and isinstance(kind, UnbiasedQuantize):
        # the quantizer's r is estimated, once per (kind, p), as certify estimates it
        prof = profile_for(kind, p)
    if prof is None or prof.r <= 1:
        return
    if not (alpha_in_range(hp.alpha_x, prof.r) and alpha_in_range(hp.alpha_y, prof.r)):
        warnings.warn(
            f"alpha exceeds the theoretical range (0, 1/r] = (0, {1.0 / prof.r:g}] for "
            f"{compressor_label(kind)}; convergence is no longer guaranteed",
            stacklevel=4,  # past _simulate and the run_* runner, to the runner's caller
        )


def _channels(vx: float, vy: float) -> float | np.ndarray:
    """A per-channel coefficient: a float when x and y agree (no broadcast), else a column."""
    return float(vx) if vx == vy else np.array([vx, vy], dtype=float)[:, None, None]


def _times(c: float | np.ndarray, a: np.ndarray) -> np.ndarray:
    # c * a, or a itself when c is a scalar 1: x * 1.0 is x bit for bit for every double
    return a if not isinstance(c, np.ndarray) and c == 1 else c * a


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    # the bytes of np.stack, from one concatenate; a block of one iteration (n = 1000) is a
    # view, not a copy
    if len(arrays) == 1:
        return arrays[0][None]
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def _stack_points(points: list[tuple], error_feedback: bool) -> NetworkState:
    """The Z, H and E of a block's trace points, stacked as ``metrics`` reads them."""
    E = _stack([pt[3] for pt in points]) if error_feedback else None
    return NetworkState(_stack([pt[0] for pt in points]), _stack([pt[1] for pt in points]),
                        E=E)


def _check_block(kept: list[tuple], cs_x: np.ndarray, x_star: np.ndarray,
                 denom: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Residual, mean drift and tracking violation of each of a block's m iterations.

    ``kept`` holds (Z, H, H_w, E, grad, step) after each iteration and
    ``cs_x`` the column sums of X before the first.  Returns the three (m,)
    arrays and the column sums of X after the last iteration.  Each value is
    bit for bit the one the iteration's own arrays give: the residual is
    ``metrics``' ``_sum_sq``, and the norms are ``compression._row_norms``'
    pairwise sums, so no value depends on the BLAS thread count.
    """
    m = len(kept)
    if m == 0:  # a run of K = 0 iterations
        return np.empty(0), np.empty(0), np.empty(0), cs_x
    Zs = _stack([pt[0] for pt in kept])
    grads = _stack([pt[4] for pt in kept])
    cs = Zs.sum(axis=2)
    cs_prev = np.concatenate([cs_x[None], cs[:-1, 0]])
    # mean-dynamics identity: the network average follows exact gradient descent
    diff = cs[:, 0] - cs_prev + _stack([pt[5] for pt in kept]).sum(axis=1)
    n = Zs.shape[-2]
    drift = _row_norms(diff, 2) / n / (1.0 + _row_norms(cs_prev, 2) / n)
    # gradient-tracking identity: column sums of Y and of the gradients agree
    viol = np.abs(cs[:, 1] - grads.sum(axis=1)).max(axis=-1)
    track = viol / (1.0 + _row_norms(grads.reshape(m, -1), 2))
    return _sum_sq(Zs[:, 0] - x_star) / denom, drift, track, cs[-1, 0]


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

    # a diverging run overflows before the guard sees it; the guard reports that, so
    # numpy does not warn about it as well
    with np.errstate(over="ignore", invalid="ignore"):
        n, p = pb.n, pb.dim
        w = W.matrix
        i_minus_w = None if efficient else np.eye(n) - w
        alpha = _channels(hp.alpha_x, hp.alpha_y)
        keep = 1 - alpha
        beta = _channels(hp.beta_x, hp.beta_y)
        tags = [TAG_X_DIFF, TAG_Y_DIFF] + ([TAG_X_EF, TAG_Y_EF] if error_feedback else [])

        X = default_x0(pb, seed, init) if x0 is None else np.array(x0, dtype=float)
        if X.shape != (n, p):
            raise AlgorithmError(f"x0 must have shape ({n}, {p}), got {X.shape}")
        grad = gradient_matrix(pb, X)
        Z = np.stack([X, grad])
        H = np.zeros((2, n, p))
        # H is zero, so H_w = W H is exactly +0
        H_w = np.zeros((2, n, p)) if efficient else None
        E = np.zeros((2, n, p)) if error_feedback else None

        x_star = optimal_solution(pb)
        denom = float(_sum_sq(X - x_star))
        # every residual is divided by denom: an inf one makes each of them inf/inf = nan
        if not np.isfinite(denom):
            raise AlgorithmError(
                f"the squared distance to the optimum ||X0 - 1x*'||^2 overflows to {denom} "
                f"(largest |x*| entry {np.abs(x_star).max():.3e}); rescale the problem")
        if denom == 0.0:
            denom = 1.0

        bits_per_iter = n * len(tags) * bit_cost(kind, p)

        # floats one iteration keeps: Z, H and, when present, H_w and E, the gradient and the step
        kept_floats = (2 * (2 + efficient + error_feedback) + 2) * n * p
        block = max(1, _BLOCK_BYTES // (8 * kept_floats))

        trace: list[TraceRecord] = []
        max_track = max_drift = 0.0
        zs = [Z] if record_states else None
        cs_x = X.sum(axis=0)
        done = 0  # iterations checked
        # entry j is (Z, H, H_w, E, grad, step) after iteration done + j, by reference; the
        # block's start, entry 0, is kept only in the first block, as the k = 0 trace point
        kept = [(Z, H, H_w, E, grad, None)]
        while True:
            # one draw of the block's uniforms, one entry per iteration
            for u in _draw_block(kind, seed, n, p, tags, done, min(done + block, K)):
                if not error_feedback:
                    Q = compress_rows_multi(kind, Z - H, u)
                    Z_hat = H + Q
                    H = keep * H + _times(alpha, Z_hat)
                    if efficient:
                        Z_hat_w = H_w + w @ Q
                        H_w = keep * H_w + _times(alpha, Z_hat_w)
                else:
                    D = Z - H
                    DE = _times(beta, E) + D
                    out = compress_rows_multi(kind, np.concatenate([D, DE]), u)
                    Q, Qh = out.reshape(2, 2, n, p)
                    E = DE - Qh
                    Z_hat = H + Qh
                    H = H + _times(alpha, Q)
                    if efficient:
                        Z_hat_w = H_w + w @ Qh
                        H_w = H_w + _times(alpha, w @ Q)

                mix = Z_hat - Z_hat_w if efficient else i_minus_w @ Z_hat
                step = hp.eta * Z[1]
                Z = Z - _times(hp.gamma, mix)
                X, Y = Z[0], Z[1]
                X -= step
                grad_new = gradient_matrix(pb, X)
                Y += grad_new
                Y -= grad
                grad = grad_new
                kept.append((Z, H, H_w, E, grad, step))

            residual, drift, track, cs_x = _check_block(kept[1:], cs_x, x_star, denom)
            bad = np.flatnonzero(~np.isfinite(residual) | (residual > DIVERGENCE_LIMIT))
            diverged = bad.size > 0
            # the block is cut after its first bad iteration
            m = int(bad[0]) + 1 if diverged else len(residual)
            max_drift = float(np.max(drift[:m], initial=max_drift))
            max_track = float(np.max(track[:m], initial=max_track))
            end = done + m
            ks = [i for i in range(done + 1 if done else 0, end + 1)
                  if i % trace_every == 0 or i == K or (diverged and i == end)]
            if ks:
                # no name holds the stacked points, so they are freed before the next block
                trace.extend(metrics(_stack_points([kept[i - done] for i in ks], error_feedback),
                                     x_star, k=ks, residual_denom=denom,
                                     bits_sent=[i * bits_per_iter for i in ks]))
            if zs is not None:
                zs.extend(pt[0] for pt in kept[1:m + 1])
            Z, H, H_w, E, grad, _ = kept[m]
            done = end
            if diverged or done == K:
                break
            kept = [None]
    states_x, states_y = (None, None) if zs is None else np.stack(zs, axis=1)
    res = RunResult(trace=trace, final=NetworkState(Z, H, H_w, E),
                    compressor=compressor_label(kind), algorithm=algorithm,
                    max_tracking_violation=max_track, max_mean_drift=max_drift,
                    states_x=states_x, states_y=states_y)
    if diverged:
        raise DivergenceError(
            f"{algorithm} diverged at iteration {done}: residual {residual[m - 1]:.3e} "
            f"exceeds {DIVERGENCE_LIMIT:.0e}",
            partial=res,
        )
    return res


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

    Maintains the neighbor-mixed reference states H_w = W H so only
    compressed payloads ever cross the network.
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
