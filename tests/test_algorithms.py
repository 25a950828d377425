import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from cgtsim import algorithms
from cgtsim.algorithms import (
    AlgorithmError,
    DivergenceError,
    HyperParams,
    NetworkState,
    TraceRecord,
    default_x0,
    metrics,
    run_cgt_efficient,
    run_cgt_reference,
    run_efcgt_efficient,
    run_efcgt_reference,
    run_gt,
)
from cgtsim.compression import (
    TAG_INIT,
    Identity,
    NormSign,
    RandK,
    RngStream,
    TopK,
    UnbiasedQuantize,
)
from cgtsim.problems import RidgeProblem, generate_ridge, gradient_matrix, optimal_solution
from cgtsim.topology import build_ring, build_weights_outdegree

SEED = 1
QUANT = UnbiasedQuantize(bits=2, q=math.inf)


@pytest.fixture(scope="module")
def pb():
    return generate_ridge(10, 20, 0.01, 5.0, seed=SEED)


@pytest.fixture(scope="module")
def W_und():
    return build_weights_outdegree(build_ring(10, directed=False), 0.1)


@pytest.fixture(scope="module")
def W_dir():
    return build_weights_outdegree(build_ring(10, directed=True), 0.1)


def test_hyperparams_validation():
    with pytest.raises(AlgorithmError):
        HyperParams(eta=0.0)
    with pytest.raises(AlgorithmError):
        HyperParams(eta=0.1, gamma=1.5)
    with pytest.raises(AlgorithmError):
        HyperParams(eta=0.1, alpha_x=0.0)
    with pytest.raises(AlgorithmError):
        HyperParams(eta=0.1, beta_y=2.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(AlgorithmError, match="finite"):
            HyperParams(eta=bad)
    with pytest.raises(AlgorithmError, match="a scalar"):
        HyperParams(eta=np.array([0.1, float("nan")]))


def test_hyperparams_compare_and_hash():
    a = HyperParams(eta=0.1, alpha_x=0.5)
    same = HyperParams(eta=np.float64(0.1), alpha_x=0.5)
    other = HyperParams(eta=0.2, alpha_x=0.5)
    assert a == same and hash(a) == hash(same)
    assert a != other and isinstance(hash(other), int)
    assert len({a, same, other}) == 2


def test_hyperparams_refuse_two_dimensional_eta():
    # one step size for every agent: a vector or a matrix of them is refused by name
    for bad in (np.array([0.1, 0.2]), np.full((2, 3), 0.1)):
        with pytest.raises(AlgorithmError, match=re.escape(
                f"step-size eta must be a scalar, got an array of shape {bad.shape}")) as info:
            HyperParams(eta=bad)
        assert info.value.field == "eta"
    # what is accepted is stored as a float
    assert type(HyperParams(eta=np.float64(0.1)).eta) is float


def test_single_agent_gt_is_centralized_gradient_descent():
    pb1 = RidgeProblem(U=np.array([[0.5, -1.0, 0.25]]), v=np.array([1.5]), rho=0.05)
    from cgtsim.topology import WeightMatrix
    W1 = WeightMatrix(n=1, offsets=(), self_weight=1.0, weight=0.0)
    eta = 0.05
    res = run_gt(pb1, W1, HyperParams(eta=eta), 50, seed=0, x0=np.zeros((1, 3)),
                 record_states=True)
    x = np.zeros(3)
    for k in range(50):
        x = x - eta * gradient_matrix(pb1, x[None, :])[0]
        assert np.allclose(res.states_x[k + 1][0], x, rtol=1e-12, atol=1e-14)


def test_consensus_start_at_optimum_is_mean_fixed_point(pb, W_und):
    x_star = optimal_solution(pb)
    x0 = np.tile(x_star, (pb.n, 1))
    res = run_gt(pb, W_und, HyperParams(eta=0.05), 1500, seed=0, x0=x0,
                 record_states=True)
    # tracker columns start at the local gradients, whose average vanishes at
    # the optimum, so the first mean update is exactly zero
    y0 = res.states_y[0]
    assert np.allclose(y0, gradient_matrix(pb, x0), atol=1e-14)
    assert np.linalg.norm(y0.mean(axis=0)) <= 1e-12 * (1 + np.linalg.norm(x_star))
    x_bar_1 = res.states_x[1].mean(axis=0)
    assert np.linalg.norm(x_bar_1 - x_star) <= 1e-12 * (1 + np.linalg.norm(x_star))
    # later iterates wander transiently (the stacked state is not the fixed
    # point) but the run returns toward the optimum
    excursion = max(np.linalg.norm(res.states_x[k].mean(axis=0) - x_star)
                    for k in range(2, 50))
    final_bar = res.states_x[-1].mean(axis=0)
    assert np.linalg.norm(final_bar - x_star) <= max(0.05 * excursion, 1e-6)


def test_gt_paper_setup_converges_log_linearly(pb, W_und):
    from cgtsim.analysis import empirical_rate
    res = run_gt(pb, W_und, HyperParams(eta=0.09, gamma=1.0), 3000, seed=SEED)
    fit = empirical_rate([t for t in res.trace if 200 <= t.k <= 3000])
    assert fit.rate < 1.0
    assert fit.r_squared >= 0.99


def test_identity_collapse_bit_for_bit(pb, W_und):
    hp = HyperParams(eta=0.05, gamma=0.8, alpha_x=0.7, alpha_y=0.9)
    gt = run_gt(pb, W_und, hp, 300, seed=4, record_states=True)
    ident = run_cgt_reference(pb, W_und, hp, Identity(), 300, seed=4, record_states=True)
    assert np.array_equal(gt.states_x, ident.states_x)
    assert np.array_equal(gt.states_y, ident.states_y)
    assert np.array_equal(gt.final.X, ident.final.X)
    assert [t.residual for t in gt.trace] == [t.residual for t in ident.trace]


@pytest.mark.parametrize("kind,hp", [
    (Identity(), HyperParams(eta=0.09)),
    (QUANT, HyperParams(eta=0.09)),
    (TopK(k=1), HyperParams(eta=0.11, gamma=0.6)),
    (RandK(k=1), HyperParams(eta=0.11, gamma=0.1)),
    (NormSign(q=math.inf), HyperParams(eta=0.01, alpha_x=0.05, alpha_y=0.05)),
])
def test_tracking_and_mean_identities_reference(pb, W_und, kind, hp):
    res = run_cgt_reference(pb, W_und, hp, kind, 400, seed=SEED)
    assert res.max_tracking_violation <= 1e-9
    assert res.max_mean_drift <= 1e-12


@pytest.mark.parametrize("runner", [run_efcgt_reference, run_efcgt_efficient])
def test_tracking_identity_error_feedback(pb, W_und, runner):
    res = runner(pb, W_und, HyperParams(eta=0.11, gamma=0.6), TopK(k=1), 400, seed=SEED)
    assert res.max_tracking_violation <= 1e-9
    assert res.max_mean_drift <= 1e-12


@pytest.mark.parametrize("kind", [Identity(), TopK(k=1), RandK(k=2)])
def test_reference_efficient_equivalence_cgt(pb, W_und, kind):
    hp = HyperParams(eta=0.05, gamma=0.6)
    ref = run_cgt_reference(pb, W_und, hp, kind, 500, seed=SEED, record_states=True)
    eff = run_cgt_efficient(pb, W_und, hp, kind, 500, seed=SEED, record_states=True)
    for k in range(501):
        dev = np.linalg.norm(eff.states_x[k] - ref.states_x[k])
        assert dev <= 1e-6 * (1 + np.linalg.norm(ref.states_x[k]))


@pytest.mark.parametrize("kind", [RandK(k=3), TopK(k=1)])
def test_reference_efficient_equivalence_efcgt(pb, W_und, kind):
    hp = HyperParams(eta=0.05, gamma=0.6)
    ref = run_efcgt_reference(pb, W_und, hp, kind, 500, seed=SEED, record_states=True)
    eff = run_efcgt_efficient(pb, W_und, hp, kind, 500, seed=SEED, record_states=True)
    for k in range(501):
        dev = np.linalg.norm(eff.states_x[k] - ref.states_x[k])
        assert dev <= 1e-6 * (1 + np.linalg.norm(ref.states_x[k]))


def test_quantizer_equivalence_is_floor_limited(pb, W_und):
    # the dithered quantizer's floor makes twin trajectories split once an
    # ulp-level difference crosses a quantization boundary, so the pair only
    # tracks loosely; the deviation stays bounded and both runs converge
    hp = HyperParams(eta=0.09, gamma=1.0)
    ref = run_cgt_reference(pb, W_und, hp, QUANT, 500, seed=SEED, record_states=True)
    eff = run_cgt_efficient(pb, W_und, hp, QUANT, 500, seed=SEED, record_states=True)
    devs = [np.linalg.norm(eff.states_x[k] - ref.states_x[k])
            / (1 + np.linalg.norm(ref.states_x[k])) for k in range(501)]
    assert max(devs) <= 1e-2
    assert ref.trace[-1].residual < 0.1 * ref.trace[0].residual
    assert eff.trace[-1].residual < 0.1 * eff.trace[0].residual


def test_efficient_maintains_mixed_reference_states(pb, W_und):
    hp = HyperParams(eta=0.05, gamma=0.6, alpha_x=0.8, alpha_y=0.8)
    w = W_und.matrix
    for res in (run_cgt_efficient(pb, W_und, hp, QUANT, 300, seed=SEED),
                run_efcgt_efficient(pb, W_und, hp, TopK(k=1), 300, seed=SEED)):
        assert res.final.H_w.shape == res.final.H.shape == (2, pb.n, pb.dim)
        for c in (0, 1):  # x, then y
            assert np.linalg.norm(res.final.H_w[c] - w @ res.final.H[c]) <= 1e-9


def test_error_feedback_identity_stays_zero(pb, W_und):
    res = run_efcgt_reference(pb, W_und, HyperParams(eta=0.05), Identity(), 200,
                              seed=SEED, trace_every=1)
    assert all(t.ef_error_x == 0.0 and t.ef_error_y == 0.0 for t in res.trace)
    eff = run_efcgt_efficient(pb, W_und, HyperParams(eta=0.05), Identity(), 200,
                              seed=SEED, trace_every=1)
    assert all(t.ef_error_x == 0.0 and t.ef_error_y == 0.0 for t in eff.trace)


def test_efcgt_identity_matches_cgt_identity(pb, W_und):
    hp = HyperParams(eta=0.05, gamma=0.7)
    a = run_efcgt_reference(pb, W_und, hp, Identity(), 200, seed=3, record_states=True)
    b = run_cgt_reference(pb, W_und, hp, Identity(), 200, seed=3, record_states=True)
    # identity compression kills the error-feedback terms but the H update
    # differs in floating point (H + alpha*Q versus convex blend), so the
    # trajectories agree numerically rather than bitwise
    for k in range(201):
        assert np.allclose(a.states_x[k], b.states_x[k], rtol=1e-10, atol=1e-12)
    a = run_efcgt_efficient(pb, W_und, hp, Identity(), 200, seed=3, record_states=True)
    b = run_cgt_efficient(pb, W_und, hp, Identity(), 200, seed=3, record_states=True)
    for k in range(201):
        assert np.allclose(a.states_x[k], b.states_x[k], rtol=1e-10, atol=1e-12)


def test_bits_accounting_quant(pb, W_und):
    res = run_cgt_efficient(pb, W_und, HyperParams(eta=0.05), QUANT, 10, seed=SEED,
                            trace_every=1)
    per_iter = 10 * 2 * 124  # n agents, two vectors, 124 bits each
    assert per_iter == 2480
    for t in res.trace:
        assert t.bits_sent == per_iter * t.k


def test_bits_accounting_error_feedback_doubles(pb, W_und):
    plain = run_cgt_efficient(pb, W_und, HyperParams(eta=0.05), TopK(k=1), 5,
                              seed=SEED, trace_every=1)
    ef = run_efcgt_efficient(pb, W_und, HyperParams(eta=0.05), TopK(k=1), 5,
                             seed=SEED, trace_every=1)
    assert ef.trace[-1].bits_sent == 2 * plain.trace[-1].bits_sent


def test_determinism_same_seed_identical(pb, W_dir):
    hp = HyperParams(eta=0.001, gamma=0.5)
    a = run_cgt_efficient(pb, W_dir, hp, RandK(k=1), 100, seed=9, record_states=True)
    b = run_cgt_efficient(pb, W_dir, hp, RandK(k=1), 100, seed=9, record_states=True)
    assert np.array_equal(a.states_x, b.states_x)
    assert [t.residual for t in a.trace] == [t.residual for t in b.trace]


def test_different_seeds_differ(pb, W_dir):
    hp = HyperParams(eta=0.001, gamma=0.5)
    a = run_cgt_efficient(pb, W_dir, hp, RandK(k=1), 50, seed=9)
    b = run_cgt_efficient(pb, W_dir, hp, RandK(k=1), 50, seed=10)
    assert not np.array_equal(a.final.X, b.final.X)


def test_divergence_guard_raises_with_partial_trace(pb, W_dir):
    with pytest.raises(DivergenceError) as exc:
        run_cgt_efficient(pb, W_dir, HyperParams(eta=5.0, gamma=0.5), TopK(k=1),
                          5000, seed=SEED, trace_every=1)
    partial = exc.value.partial
    assert partial.trace[-1].residual > 1e12 or not np.isfinite(partial.trace[-1].residual)
    assert len(partial.trace) >= 2


BLOCK_RUNNERS = {
    "gt": lambda pb, W, hp, kind, K, **kw: run_gt(pb, W, hp, K, SEED, **kw),
    "cgt-ref": lambda pb, W, hp, kind, K, **kw: run_cgt_reference(pb, W, hp, kind, K, SEED, **kw),
    "cgt": lambda pb, W, hp, kind, K, **kw: run_cgt_efficient(pb, W, hp, kind, K, SEED, **kw),
    "efcgt-ref": lambda pb, W, hp, kind, K, **kw: run_efcgt_reference(pb, W, hp, kind, K, SEED,
                                                                       **kw),
    "efcgt": lambda pb, W, hp, kind, K, **kw: run_efcgt_efficient(pb, W, hp, kind, K, SEED, **kw),
}


def _fingerprint(res):
    """Everything a run returns, as exact text and bytes (repr keeps -0.0 and nan)."""
    arrays = [a for a in vars(res.final).values() if a is not None]
    if res.states_x is not None:
        arrays += [res.states_x, res.states_y]
    return (repr(res.trace), [a.tobytes() for a in arrays],
            repr((res.max_tracking_violation, res.max_mean_drift)))


def _run_or_partial(run):
    """(divergence message or None, fingerprint) of one run, from the partial if it diverged."""
    try:
        return None, _fingerprint(run())
    except DivergenceError as exc:
        return str(exc), _fingerprint(exc.partial)


# floats one iteration keeps, in units of n*p: Z and H (2 each), H_w (2, efficient forms),
# E (2, error feedback), the gradient and the step
KEPT = {"gt": 6, "cgt-ref": 6, "cgt": 8, "efcgt-ref": 8, "efcgt": 10}


def _block_bytes(pb, name, c):
    """The ``_BLOCK_BYTES`` at which the engine checks ``name``'s runs c iterations at a time."""
    return c * 8 * KEPT[name] * pb.n * pb.dim


def _default_block(pb, name):
    return algorithms._BLOCK_BYTES // _block_bytes(pb, name, 1)


@pytest.mark.parametrize("name", list(BLOCK_RUNNERS))
@pytest.mark.parametrize("trace_every", [1, 7])
def test_trace_blocks_do_not_change_results(pb, W_und, W_dir, monkeypatch, name, trace_every):
    # K = 47 is a multiple of no c * trace_every below; at the default block size
    # (c = 32-54 at n = 10) each 47-iteration run is one or two blocks
    runner = BLOCK_RUNNERS[name]
    cases = [
        lambda: runner(pb, W_und, HyperParams(eta=0.05, gamma=0.6), RandK(k=2), 47,
                       trace_every=trace_every),
        lambda: runner(pb, W_und, HyperParams(eta=0.09), QUANT, 47, trace_every=trace_every,
                       record_states=True),
        # diverges: the partial result is cut inside a block
        lambda: runner(pb, W_dir, HyperParams(eta=5.0, gamma=0.5), TopK(k=1), 5000,
                       trace_every=trace_every),
    ]
    calls = []
    block_metrics = algorithms.metrics

    def counted(state, x_star, **kw):
        calls.append(list(kw["k"]))
        return block_metrics(state, x_star, **kw)

    def run_in_blocks(run, c):
        # each metrics call holds exactly the trace points of one c-iteration block,
        # iterations j*c + 1 .. (j + 1)*c, the first block with the k = 0 point
        calls.clear()
        out = _run_or_partial(run)
        ks = [k for call in calls for k in call]
        assert calls == [list(g) for _, g in groupby(ks, key=lambda k: max(k - 1, 0) // c)]
        return out

    monkeypatch.setattr(algorithms, "metrics", counted)
    want = [run_in_blocks(run, _default_block(pb, name)) for run in cases]
    assert [msg is not None for msg, _ in want] == [False, False, True]
    for c in (1, 2, 3):
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", _block_bytes(pb, name, c))
        for run, expected in zip(cases, want):
            assert run_in_blocks(run, c) == expected, c


# sha256 of repr(outcomes) in the test below, recorded with the per-iteration guard the
# engine had before it checked in blocks, and re-recorded when the checks moved from BLAS
# dots to pairwise sums: every message, trace and state stayed, and the maxima moved by
# one ulp
DIVERGENCE_DIGESTS = {
    "gt":
        "b580afea687ad99e2e2f4398015abd87b72f124952a19b4ed542a0cd41737afe",
    "cgt-ref":
        "0ed582f32f0621cba5b17fa73ecdb4b43fb4ee63847935f4376de11e3d0a6c45",
    "cgt":
        "5af38cd7868ed876aa2556a70a1b839c14e2428f3c84d703d36e0532fc105874",
    "efcgt-ref":
        "cd190e67cd751d81120b5e23a3b5dcc03be7bc102c2ee5b282d383cd66085790",
    "efcgt":
        "182f58b46ca54f77a86974b59806b1822a1a9bba457c0be39a8e49f50c583584",
}


@pytest.mark.parametrize("name", list(BLOCK_RUNNERS))
def test_divergence_at_every_block_position(pb, W_dir, monkeypatch, name):
    runner = BLOCK_RUNNERS[name]
    default_c = _default_block(pb, name)

    def run(trace_every=2):
        return runner(pb, W_dir, HyperParams(eta=0.2, gamma=0.5), TopK(k=1), 100,
                      trace_every=trace_every, record_states=True)

    # at eta = 0.2 the residual rises at every iteration until it passes 1e12 at iteration
    # 22 or 23, so a limit between r_{d-1} and r_d makes d the first bad iteration
    with pytest.raises(DivergenceError) as exc:
        run(trace_every=1)
    rs = [t.residual for t in exc.value.partial.trace]
    assert all(a < b for a, b in zip(rs, rs[1:])) and len(rs) > 20
    # d = 1..7 puts the divergence at every position of a block for c = 1, 2 and 3, in the
    # first block and in later ones; the last case is the run's own divergence
    limits = [(a + b) / 2 for a, b in zip(rs[:7], rs[1:8])] + [algorithms.DIVERGENCE_LIMIT]
    outcomes = []
    for d, limit in enumerate(limits, start=1):
        monkeypatch.setattr(algorithms, "DIVERGENCE_LIMIT", limit)
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", _block_bytes(pb, name, 1))
        want = _run_or_partial(run)
        assert want[0].startswith(f"{name} diverged at iteration {d if d < 8 else len(rs) - 1}:")
        for c in (2, 3, default_c):
            monkeypatch.setattr(algorithms, "_BLOCK_BYTES", _block_bytes(pb, name, c))
            assert _run_or_partial(run) == want, (d, c)
        outcomes.append(want)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == DIVERGENCE_DIGESTS[name]


@pytest.mark.parametrize("runner", [run_cgt_efficient, run_efcgt_reference])
def test_overflowed_invariants_read_nan(pb, W_und, runner):
    # at eta = 1e308 the first step overflows X to inf, so each identity compares inf with
    # inf; the maxima read nan, not the 0.0 a NaN-dropping maximum kept
    with pytest.raises(DivergenceError) as exc:
        runner(pb, W_und, HyperParams(eta=1e308), TopK(k=1), 10, seed=SEED)
    partial = exc.value.partial
    assert [t.k for t in partial.trace] == [0, 1]
    assert math.isnan(partial.max_tracking_violation) and math.isnan(partial.max_mean_drift)
    # at eta = 1e300 the first step stays finite and both identities hold exactly
    with pytest.raises(DivergenceError) as exc:
        runner(pb, W_und, HyperParams(eta=1e300), TopK(k=1), 10, seed=SEED)
    partial = exc.value.partial
    assert (partial.max_tracking_violation, partial.max_mean_drift) == (0.0, 0.0)


@pytest.mark.parametrize("n", [1, 10, 1000])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_block_checks_equal_per_iteration_checks(n, m):
    # the block's stacked sums and row norms against each iteration's own reductions, as a
    # per-iteration guard computes them: numpy's pairwise sum of each vector of squares
    p, denom = 20, 3.0
    rng = np.random.default_rng(n * m)
    eta = rng.uniform(0.01, 1.0, (n, 1))
    x_star = rng.standard_normal(p)
    Zs = [rng.standard_normal((2, n, p)) * 10.0 ** rng.integers(-3, 4) for _ in range(m + 1)]
    grads = [rng.standard_normal((n, p)) for _ in range(m)]
    steps = [eta * Z[1] for Z in Zs[:-1]]
    its = [(Zs[j + 1], None, None, None, grads[j], steps[j]) for j in range(m)]
    residual, drift, track, cs_x = algorithms._check_block(its, Zs[0][0].sum(axis=0), x_star,
                                                           denom)
    for j in range(m):
        cs, cs_new = Zs[j].sum(axis=1), Zs[j + 1].sum(axis=1)
        diff = cs_new[0] - cs[0] + steps[j].sum(axis=0)
        want = math.sqrt(np.sum(diff * diff)) / n / (1.0 + math.sqrt(np.sum(cs[0] * cs[0])) / n)
        assert drift[j] == want
        g = grads[j]
        viol = float(np.abs(cs_new[1] - grads[j].sum(axis=0)).max())
        assert track[j] == viol / (1.0 + math.sqrt(np.sum(g * g)))
        r = Zs[j + 1][0] - x_star[None, :]
        assert residual[j] == float(np.sum(r * r)) / denom
    assert cs_x.tobytes() == Zs[m].sum(axis=1)[0].tobytes()


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_guard_residual_is_the_trace_residual(n):
    # the divergence guard stops on the number the trace records: on the same snapshots,
    # _check_block's residual and metrics' residual agree bit for bit
    p, m, denom = 20, 16, 3.0
    rng = np.random.default_rng(n)
    x_star = rng.standard_normal(p)
    Zs = rng.standard_normal((m, 2, n, p)) * 10.0 ** rng.integers(-3, 4, (m, 1, 1, 1))
    its = [(Z, None, None, None, Z[1], Z[1]) for Z in Zs]
    residual, _, _, _ = algorithms._check_block(its, np.zeros(p), x_star, denom)
    records = metrics(NetworkState(Zs, Zs), x_star, k=range(m), residual_denom=denom,
                      bits_sent=[0] * m)
    assert residual.tolist() == [t.residual for t in records]


_CHECK_BLOCK_BYTES = """
import hashlib
import numpy as np
from cgtsim import algorithms
rng = np.random.default_rng({seed})
n, p = 1000, 20
Z0, Z1 = rng.standard_normal((2, 2, n, p))
grad, step = rng.standard_normal((2, n, p))
out = algorithms._check_block([(Z1, None, None, None, grad, step)], Z0[0].sum(axis=0),
                              rng.standard_normal(p), 7.0)
print(hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest())
"""


@pytest.mark.parametrize("seed", [1, 2])
def test_block_checks_do_not_depend_on_the_blas_thread_count(seed):
    # n * p = 20000 floats is where a BLAS dot starts to split across threads; the checks
    # sum without BLAS, so a one-iteration block at n = 1000 gives the same bytes at one
    # and at two threads (the thread variables are read when numpy loads)
    src = str(Path(algorithms.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _CHECK_BLOCK_BYTES.format(seed=seed)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_invariants_read_past_an_overflowed_dot():
    # at scale 1e200 each squared norm overflows while every norm is finite; a planted
    # mean drift and tracking error of 1e190 must read as such, not as 0 or nan
    n, p, scale = 10, 20, 1e200
    rng = np.random.default_rng(8)
    X0, Y0, grad = rng.standard_normal((3, n, p)) * scale
    step = 0.5 * Y0
    X1 = X0 - step
    X1[0, 0] += 1e190
    Y1 = grad.copy()
    Y1[3, 5] -= 1e190
    its = [(np.stack([X1, Y1]), None, None, None, grad, step)]
    # as in the engine, the overflowing sums of squares raise no warning
    with np.errstate(over="ignore"):
        _, drift, track, _ = algorithms._check_block(its, X0.sum(axis=0), np.zeros(p), 1.0)
    diff = X1.sum(axis=0) - X0.sum(axis=0) + step.sum(axis=0)
    want = math.hypot(*diff) / n / (1.0 + math.hypot(*X0.sum(axis=0)) / n)
    assert 0 < drift[0] < math.inf and drift[0] == pytest.approx(want, rel=1e-12)
    viol = float(np.abs(Y1.sum(axis=0) - grad.sum(axis=0)).max())
    want = viol / (1.0 + math.hypot(*grad.ravel()))
    assert 0 < track[0] < math.inf and track[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", list(BLOCK_RUNNERS))
def test_final_state_is_the_engine_stack(pb, W_und, name):
    res = BLOCK_RUNNERS[name](pb, W_und, HyperParams(eta=0.05, gamma=0.6), TopK(k=2), 20,
                              record_states=True)
    final = res.final
    assert final.Z.shape == final.H.shape == (2, pb.n, pb.dim)
    # X and Y are views of the engine's Z, not copies
    assert final.X.base is final.Z and final.Y.base is final.Z
    assert np.array_equal(final.X, res.states_x[-1]) and np.array_equal(final.Y, res.states_y[-1])
    assert (final.H_w is not None) == (name in ("cgt", "efcgt"))
    assert (final.E is not None) == name.startswith("efcgt")
    if final.E is not None:
        assert final.E.shape == (2, pb.n, pb.dim)


def test_trace_length_and_cadence(pb, W_und):
    res = run_gt(pb, W_und, HyperParams(eta=0.05), 100, seed=SEED, trace_every=1)
    assert len(res.trace) == 101
    assert [t.k for t in res.trace] == list(range(101))
    res = run_gt(pb, W_und, HyperParams(eta=0.05), 100, seed=SEED, trace_every=7)
    ks = [t.k for t in res.trace]
    assert ks[0] == 0 and ks[-1] == 100
    assert all(k % 7 == 0 for k in ks[:-1])


def _one(state):
    """``state`` as a block of one: ``a[None]`` views of its arrays."""
    return NetworkState(*(None if a is None else a[None] for a in vars(state).values()))


def test_metrics_fixed_points(pb):
    x_star = optimal_solution(pb)
    n, p = pb.n, pb.dim
    X = np.tile(x_star, (n, 1))
    state = NetworkState(Z=np.stack([X, np.zeros((n, p))]), H=np.stack([X, np.zeros((n, p))]))
    rec = metrics(_one(state), x_star, k=[5], residual_denom=2.0, bits_sent=[7])[0]
    assert rec.residual == 0.0
    # the row mean of identical rows can differ from the row by an ulp
    assert rec.consensus_error <= 1e-25
    assert rec.tracking_error == 0.0
    assert rec.opt_error <= 1e-25
    assert rec.compress_error_x == 0.0
    rng = np.random.default_rng(0)
    state = NetworkState(Z=rng.standard_normal((2, n, p)), H=rng.standard_normal((2, n, p)))
    rec = metrics(_one(state), x_star, k=[0], bits_sent=[0])[0]
    for field in ("residual", "opt_error", "consensus_error", "tracking_error",
                  "compress_error_x", "compress_error_y"):
        val = getattr(rec, field)
        assert np.isfinite(val) and val >= 0


def _metrics_reference(state, x_star, *, k=0, residual_denom=1.0, bits_sent=0):
    """The np.mean / np.sum form of ``metrics``, kept as the oracle for its reductions."""
    def sq(m):
        return float(np.sum(m * m))

    x_bar = state.X.mean(axis=0)
    y_bar = state.Y.mean(axis=0)
    zero = 0.0
    return TraceRecord(
        k=k,
        residual=sq(state.X - x_star[None, :]) / residual_denom,
        opt_error=sq(x_bar - x_star),
        consensus_error=sq(state.X - x_bar[None, :]),
        tracking_error=sq(state.Y - y_bar[None, :]),
        compress_error_x=sq(state.X - state.H[0]),
        compress_error_y=sq(state.Y - state.H[1]),
        ef_error_x=sq(state.E[0]) if state.E is not None else zero,
        ef_error_y=sq(state.E[1]) if state.E is not None else zero,
        bits_sent=bits_sent,
    )


@pytest.mark.parametrize("shape", [(1, 1), (1, 20), (10, 1), (10, 20), (37, 5), (60, 300)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_metrics_equal_mean_and_sum_reference(shape, order):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    n, p = shape
    for trial in range(20):
        def draw():
            # the x and y channels, each (n, p) slice contiguous in `order`
            m = np.empty((2, n, p)) if order == "C" else np.empty((2, p, n)).transpose(0, 2, 1)
            m[...] = rng.standard_normal((2, n, p)) * 10.0 ** rng.uniform(-8, 8, (2, n, p))
            return m
        with_ef = trial % 2 == 1
        state = NetworkState(Z=draw(), H=draw(), E=draw() if with_ef else None)
        x_star = rng.standard_normal(p)
        kw = dict(k=trial, residual_denom=float(rng.uniform(0.5, 2.0)), bits_sent=3 * trial)
        got = metrics(_one(state), x_star, k=[kw["k"]], residual_denom=kw["residual_denom"],
                      bits_sent=[kw["bits_sent"]])[0]
        want = _metrics_reference(state, x_star, **kw)
        for field in dataclasses.fields(TraceRecord):
            assert getattr(got, field.name) == getattr(want, field.name), field.name


@pytest.mark.parametrize("shape", [(1, 1), (1, 20), (10, 20), (37, 5), (60, 300), (1000, 20)])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("with_ef", [False, True])
def test_metrics_block_equals_blocks_of_one(shape, order, with_ef):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    n, p = shape
    c = 3

    def draw():
        # c snapshots of both channels, each (n, p) slice contiguous in `order`
        block = (np.empty((c, 2, n, p)) if order == "C"
                 else np.empty((c, 2, p, n)).transpose(0, 1, 3, 2))
        block[...] = rng.standard_normal((c, 2, n, p)) * 10.0 ** rng.uniform(-8, 8, (c, 2, n, p))
        return block

    state = NetworkState(Z=draw(), H=draw(), E=draw() if with_ef else None)
    x_star = rng.standard_normal(p)
    ks, bits = [0, 7, 9], [0, 70, 90]
    got = metrics(state, x_star, k=ks, residual_denom=1.5, bits_sent=bits)
    for i in range(c):
        snap = NetworkState(*(None if a is None else a[i] for a in vars(state).values()))
        one = metrics(_one(snap), x_star, k=[ks[i]], residual_denom=1.5, bits_sent=[bits[i]])
        assert repr(one) == repr(got[i:i + 1]), i


def test_default_x0_modes(pb):
    z = default_x0(pb, seed=5, init="zeros")
    assert np.array_equal(z, np.zeros((10, 20)))
    u = default_x0(pb, seed=5, init="uniform")
    assert u.shape == (10, 20)
    assert np.all((0 <= u) & (u < 1))
    assert np.array_equal(u, default_x0(pb, seed=5, init="uniform"))
    # row i is agent i's public stream at iteration 0 with the init tag
    for i in range(pb.n):
        assert np.array_equal(u[i], RngStream(5, i, 0, TAG_INIT).uniform(pb.dim))
    with pytest.raises(AlgorithmError):
        default_x0(pb, seed=5, init="gaussian")


def test_alpha_above_theory_warns(pb, W_dir):
    with pytest.warns(UserWarning, match="alpha exceeds") as caught:
        run_cgt_reference(pb, W_dir, HyperParams(eta=0.001, alpha_x=1.0),
                          NormSign(q=math.inf), 5, seed=SEED)
    # the warning names the runner's caller, so each call site is reported once
    assert [w.filename for w in caught] == [__file__]


def test_topology_problem_size_mismatch(pb):
    W5 = build_weights_outdegree(build_ring(5, directed=True), 0.1)
    with pytest.raises(AlgorithmError, match="n=5"):
        run_gt(pb, W5, HyperParams(eta=0.05), 10, seed=SEED)
