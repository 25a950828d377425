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
them in this layout from the update loop to the trace.  alpha, beta and
keep = 1 - alpha are 0-d float64 arrays when the x and y values agree and
(2, 1, 1) columns otherwise, so each update, and each ``metrics`` reduction,
is written once for both.  eta and gamma are 0-d arrays too, each built once
per run: numpy converts a Python-float operand on every call, and a 0-d array
it uses as it is, while the product or quotient is the same binary64
operation.  A coefficient that is exactly 1 (alpha, beta, gamma or keep) is
None and multiplies nothing: ``x * 1.0`` is ``x`` bit for bit for every double,
±0, ±inf and NaN included, and most presets run at alpha = beta = 1.
``keep * H`` stays even at keep = 0: adding its ``0.0 * h`` turns a -0.0 into
+0 where h is positive, and is NaN where h is infinite, so dropping the term is
not exact.

Mixing, the communication step, is one ``_mix(op, Q)`` call per iteration on a
(b, n, p) stack.  ``op`` is the one dense operand a run builds: W in the
communication-efficient forms, which mix W Q (b = 2) or, with error feedback,
W Q and W Q-hat as one stack (b = 4), and I - W in the reference forms, which
mix (I - W) Z-hat (b = 2).  Where each channel's own product runs OpenBLAS's
blocked kernel (p >= 2 and n*n*p > 10**6), ``_mix`` multiplies the stack as one
dgemm; elsewhere it is numpy's ``op @ Q``.  Its bytes are those of ``op @ Q``.

The update loop only steps the state; ``_simulate`` checks it in blocks of c =
max(1, _BLOCK_BYTES // (8 * floats kept per iteration)) iterations.  The start
is the k = 0 record, written once at set-up from the normaliser's own sum over
itself and one reduce for its column sums; a block holds only its own
iterations.  A block starts with one draw of every uniform its iterations
compress with: none for a deterministic kind, else 2 or, with error feedback, 4
n*p per iteration, keyed as one draw per iteration would key them.  Each
iteration's Z, H, H_w, E, gradient and step are kept by reference, not copied.
After c iterations, and once more at the end, the block is stacked and reduced
in one call per quantity: the residuals of the divergence guard, the column
sums of X and Y, the mean-dynamics drift and the tracking violation.  Each is
reduced by numpy's own sums, never by BLAS, so the checks give the same bits at
every BLAS thread count; the two invariants' norms are
``compression._row_norms``.  The first iteration whose residual is not finite
or exceeds ``DIVERGENCE_LIMIT`` ends the run: the block is cut there, so the
iterations the loop ran past it leave no trace, no state and no maximum.  The
maxima fold that block's values up to the cut, and its trace points become
records in one ``metrics`` call, which takes each point's residual and its
column sums of X and Y (the mean, over n) from the block check: the guard's
residual array is the trace's, and no sum is taken twice.  The block's Z is
stacked once, by the check: the trace points and the recorded states read
rows of that stack.  Every residual, maximum, record and state is bit for bit
that of a check after each iteration.  This rests on an invariant of the
engine: every iteration builds fresh arrays, and an array that reached a
block (or ``states_x``/``states_y``) is never updated in place.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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


class TraceRecord(NamedTuple):
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
            bits_sent: Sequence[int], residual: np.ndarray, z_sum: np.ndarray
            ) -> list[TraceRecord]:
    """All trace fields for a block of c snapshots, from their residuals and column sums.

    Each array of ``state`` has shape (c, 2, n, p); ``k`` and ``bits_sent``
    hold one value per snapshot.  A single snapshot is a block of one: pass
    ``a[None]`` views.  ``residual`` (c,) and ``z_sum`` (c, 2, p), the column
    sums of X and Y, are the block check's values for the same snapshots, or
    the start's from set-up, so no sum is taken twice.  When each (n, p) slice
    is C- or F-contiguous, every record is bit for bit the one its snapshot
    gives alone: each sum runs over its slice in memory order.
    """
    Z = state.Z
    # np.mean(axis=-2) is the column sum divided by n
    z_bar = z_sum / Z.shape[-2]
    opt = z_bar[:, 0] - x_star
    opt_error = np.add.reduce(opt * opt, axis=-1).tolist()
    # each an (x, y) pair of per-snapshot lists: consensus and tracking, compression,
    # error feedback
    spread = _sum_sq(Z - z_bar[:, :, None, :]).T.tolist()
    comp = _sum_sq(Z - state.H).T.tolist()
    ef = _sum_sq(state.E).T.tolist() if state.E is not None else [[0.0] * len(k)] * 2
    return list(map(TraceRecord, k, residual.tolist(), opt_error, *spread, *comp, *ef,
                    bits_sent))


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


def _channels(vx: float, vy: float) -> np.ndarray | None:
    """A per-channel coefficient, built once per run.

    None when x and y agree on exactly 1, a 0-d float64 array when they agree
    otherwise (no broadcast), else a (2, 1, 1) column.  numpy converts a
    Python-float operand on every call; a 0-d array gives the same binary64
    products without that cost.
    """
    if vx == vy:
        return None if vx == 1 else np.array(vx, dtype=float)
    return np.array([vx, vy], dtype=float)[:, None, None]


def _times(c: np.ndarray | None, a: np.ndarray) -> np.ndarray:
    # c * a, or a itself when c is None, an exact 1: x * 1.0 is x bit for bit for every double
    return a if c is None else c * a


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    # the bytes of np.stack, from one concatenate; a block of one iteration (n = 1000) is a
    # view, not a copy
    if len(arrays) == 1:
        return arrays[0][None]
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def _check_block(kept: list[tuple], cs_x: np.ndarray, x_star: np.ndarray, denom: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Residual, mean drift and tracking violation of each of a block's m iterations.

    ``kept`` holds (Z, H, H_w, E, grad, step) after each of the block's m >= 1
    iterations and ``cs_x`` the column sums of X before the first.  Returns the
    three (m,) arrays, the (m, 2, p) column sums of X and Y after each
    iteration and the block's C-ordered (m, 2, n, p) Z stack, which the trace
    and the recorded states read too.  Each value is bit for bit the one the
    iteration's own arrays give: the residual is ``_sum_sq``, as the start's
    is, and the norms are ``compression._row_norms``' pairwise sums, so no
    value depends on the BLAS thread count.
    """
    m = len(kept)
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
    return _sum_sq(Zs[:, 0] - x_star) / denom, drift, track, cs, Zs


# the per-channel size n*n*p above which _mix multiplies a stack in one product; see _mix
_MIX_MERGE_SIZE = 10**6


def _mix(op: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``op @ Q`` for a C-ordered (b, n, p) stack, as a C-ordered (b, n, p) array.

    numpy multiplies each (n, p) channel by its own dgemm, and OpenBLAS packs
    the n x n ``op`` anew in each; above the bound the stack is one (n, b*p)
    dgemm, which packs it once.  The bytes are those of ``op @ Q`` either way.
    """
    b, n, p = Q.shape
    # Merged only where each channel's own product already runs OpenBLAS's blocked
    # kernel, whose sum for an entry does not depend on the product's width.  Below
    # the bound the two differ: at p = 1 numpy calls gemv, not gemm, and at
    # n*n*p <= 10**6 OpenBLAS's small-matrix kernel (SkylakeX) orders each sum by the
    # width, from n = 16 up.  Measured at n = 10-1600, p = 1-50, b = 2 and 4, at 1 and 2
    # BLAS threads; tests/test_mix.py fails if a numpy or OpenBLAS upgrade moves the bound.
    if p < 2 or n * n * p <= _MIX_MERGE_SIZE:
        return op @ Q
    out = op @ Q.transpose(1, 0, 2).reshape(n, b * p)
    return np.ascontiguousarray(out.reshape(n, b, p).transpose(1, 0, 2))


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
        # the one dense operand this form mixes by, W or I - W, built here and dropped at the end
        op = W.matrix if efficient else W.i_minus_w
        alpha = _channels(hp.alpha_x, hp.alpha_y)
        # keep = 1 - alpha per channel; None where alpha is so small that 1 - alpha rounds to 1
        keep = _channels(1 - hp.alpha_x, 1 - hp.alpha_y)
        beta = _channels(hp.beta_x, hp.beta_y)
        gamma = _channels(hp.gamma, hp.gamma)
        eta = np.array(hp.eta)
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
        # over the stacked, C-ordered start: x0's memory order does not change a sum
        sq0 = _sum_sq(Z[0] - x_star)
        denom = float(sq0)
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

        # the start is the k = 0 record: its residual is the normaliser's own sum over denom,
        # and its column sums one reduce
        cs = np.add.reduce(Z, axis=1)[None]
        trace = metrics(NetworkState(Z[None], H[None], E=None if E is None else E[None]),
                        x_star, k=[0], bits_sent=[0], residual=(sq0 / denom)[None], z_sum=cs)
        max_track = max_drift = 0.0
        zs = [Z[None]] if record_states else None
        done = 0  # iterations checked
        diverged = False
        while done < K:
            # entry j is (Z, H, H_w, E, grad, step) after iteration done + j + 1, by reference
            kept = []
            # one draw of the block's uniforms, one entry per iteration
            for u in _draw_block(kind, seed, n, p, tags, done, min(done + block, K)):
                if not error_feedback:
                    Q = compress_rows_multi(kind, Z - H, u)
                    Z_hat = H + Q
                    H = _times(keep, H) + _times(alpha, Z_hat)
                    if efficient:
                        Z_hat_w = H_w + _mix(op, Q)
                        H_w = _times(keep, H_w) + _times(alpha, Z_hat_w)
                else:
                    D = Z - H
                    DE = _times(beta, E) + D
                    out = compress_rows_multi(kind, np.concatenate([D, DE]), u)
                    Q, Qh = out.reshape(2, 2, n, p)
                    E = DE - Qh
                    Z_hat = H + Qh
                    H = H + _times(alpha, Q)
                    if efficient:
                        # W Q and W Q-hat, mixed as one 4-channel stack
                        WQ, WQh = _mix(op, out).reshape(2, 2, n, p)
                        Z_hat_w = H_w + WQh
                        H_w = H_w + _times(alpha, WQ)

                mix = Z_hat - Z_hat_w if efficient else _mix(op, Z_hat)
                step = eta * Z[1]
                Z = Z - _times(gamma, mix)
                X, Y = Z[0], Z[1]
                X -= step
                grad_new = gradient_matrix(pb, X)
                Y += grad_new
                Y -= grad
                grad = grad_new
                kept.append((Z, H, H_w, E, grad, step))

            residual, drift, track, cs, Zs = _check_block(kept, cs[-1, 0], x_star, denom)
            bad = np.flatnonzero(~np.isfinite(residual) | (residual > DIVERGENCE_LIMIT))
            diverged = bad.size > 0
            # the block is cut after its first bad iteration
            m = int(bad[0]) + 1 if diverged else len(residual)
            max_drift = float(np.max(drift[:m], initial=max_drift))
            max_track = float(np.max(track[:m], initial=max_track))
            end = done + m
            ks = [i for i in range(done + 1, end + 1)
                  if i % trace_every == 0 or i == K or (diverged and i == end)]
            if ks:
                at = [i - done - 1 for i in ks]
                # no name holds the points' H and E stacks, so they are freed before the next block
                trace.extend(metrics(
                    NetworkState(Zs[at], _stack([kept[j][1] for j in at]),
                                 E=_stack([kept[j][3] for j in at]) if error_feedback else None),
                    x_star, k=ks, bits_sent=[i * bits_per_iter for i in ks],
                    residual=residual[at], z_sum=cs[at]))
            if zs is not None:
                zs.append(Zs[:m])
            Z, H, H_w, E, grad, _ = kept[m - 1]
            done = end
            if diverged:
                break
    # per channel, so that numpy lays out each (K+1, n, p) result in C order
    states_x, states_y = (None, None) if zs is None else (
        np.concatenate([z[:, c] for z in zs]) for c in (0, 1))
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
