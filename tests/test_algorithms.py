import hashlib
import inspect
import math
import os
import pickle
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
    CompressionError,
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
        assert np.allclose(res.states[k + 1, 0][0], x, rtol=1e-12, atol=1e-14)


def test_consensus_start_at_optimum_is_mean_fixed_point(pb, W_und):
    x_star = optimal_solution(pb)
    x0 = np.tile(x_star, (pb.n, 1))
    res = run_gt(pb, W_und, HyperParams(eta=0.05), 1500, seed=0, x0=x0,
                 record_states=True)
    # tracker columns start at the local gradients, whose average vanishes at
    # the optimum, so the first mean update is exactly zero
    y0 = res.states[0, 1]
    assert np.allclose(y0, gradient_matrix(pb, x0), atol=1e-14)
    assert np.linalg.norm(y0.mean(axis=0)) <= 1e-12 * (1 + np.linalg.norm(x_star))
    x_bar_1 = res.states[1, 0].mean(axis=0)
    assert np.linalg.norm(x_bar_1 - x_star) <= 1e-12 * (1 + np.linalg.norm(x_star))
    # later iterates wander transiently (the stacked state is not the fixed
    # point) but the run returns toward the optimum
    excursion = max(np.linalg.norm(res.states[k, 0].mean(axis=0) - x_star)
                    for k in range(2, 50))
    final_bar = res.states[-1, 0].mean(axis=0)
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
    assert np.array_equal(gt.states[:, 0], ident.states[:, 0])
    assert np.array_equal(gt.states[:, 1], ident.states[:, 1])
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
        dev = np.linalg.norm(eff.states[k, 0] - ref.states[k, 0])
        assert dev <= 1e-6 * (1 + np.linalg.norm(ref.states[k, 0]))


@pytest.mark.parametrize("kind", [RandK(k=3), TopK(k=1)])
def test_reference_efficient_equivalence_efcgt(pb, W_und, kind):
    hp = HyperParams(eta=0.05, gamma=0.6)
    ref = run_efcgt_reference(pb, W_und, hp, kind, 500, seed=SEED, record_states=True)
    eff = run_efcgt_efficient(pb, W_und, hp, kind, 500, seed=SEED, record_states=True)
    for k in range(501):
        dev = np.linalg.norm(eff.states[k, 0] - ref.states[k, 0])
        assert dev <= 1e-6 * (1 + np.linalg.norm(ref.states[k, 0]))


def test_quantizer_equivalence_is_floor_limited(pb, W_und):
    # the dithered quantizer's floor makes twin trajectories split once an
    # ulp-level difference crosses a quantization boundary, so the pair only
    # tracks loosely; the deviation stays bounded and both runs converge
    hp = HyperParams(eta=0.09, gamma=1.0)
    ref = run_cgt_reference(pb, W_und, hp, QUANT, 500, seed=SEED, record_states=True)
    eff = run_cgt_efficient(pb, W_und, hp, QUANT, 500, seed=SEED, record_states=True)
    devs = [np.linalg.norm(eff.states[k, 0] - ref.states[k, 0])
            / (1 + np.linalg.norm(ref.states[k, 0])) for k in range(501)]
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
        assert np.allclose(a.states[k, 0], b.states[k, 0], rtol=1e-10, atol=1e-12)
    a = run_efcgt_efficient(pb, W_und, hp, Identity(), 200, seed=3, record_states=True)
    b = run_cgt_efficient(pb, W_und, hp, Identity(), 200, seed=3, record_states=True)
    for k in range(201):
        assert np.allclose(a.states[k, 0], b.states[k, 0], rtol=1e-10, atol=1e-12)


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
    assert np.array_equal(a.states[:, 0], b.states[:, 0])
    assert [t.residual for t in a.trace] == [t.residual for t in b.trace]


def test_a_float_seed_is_refused_by_a_stochastic_run(pb, W_dir):
    # the keyed streams refuse a float seed: it does not give the trace of its floor
    hp = HyperParams(eta=0.001, gamma=0.5)
    with pytest.raises(CompressionError, match=r"^key words must be integers, got 1\.5$"):
        run_cgt_efficient(pb, W_dir, hp, RandK(k=1), 5, seed=1.5)
    # a bool is an int: True keys as 1
    assert (run_cgt_efficient(pb, W_dir, hp, RandK(k=1), 5, seed=True).trace
            == run_cgt_efficient(pb, W_dir, hp, RandK(k=1), 5, seed=1).trace)


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
    if res.states is not None:
        arrays += [res.states[:, 0], res.states[:, 1]]
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

    def counted(*args, **kw):
        calls.append(list(kw["k"]))
        return block_metrics(*args, **kw)

    def run_in_blocks(run, c):
        # the k = 0 point is the start's own call; each later metrics call holds exactly
        # the trace points of one c-iteration block, iterations j*c + 1 .. (j + 1)*c
        calls.clear()
        out = _run_or_partial(run)
        ks = [k for call in calls[1:] for k in call]
        assert calls[0] == [0]
        assert calls[1:] == [list(g) for _, g in groupby(ks, key=lambda k: (k - 1) // c)]
        return out

    monkeypatch.setattr(algorithms, "metrics", counted)
    want = [run_in_blocks(run, _default_block(pb, name)) for run in cases]
    assert [msg is not None for msg, _ in want] == [False, False, True]
    for c in (1, 2, 3):
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", _block_bytes(pb, name, c))
        for run, expected in zip(cases, want):
            assert run_in_blocks(run, c) == expected, c


@pytest.mark.parametrize("name", list(BLOCK_RUNNERS))
def test_a_checked_block_stacks_its_z_once(pb, W_und, monkeypatch, name):
    # at trace_every = 1 every iteration is a trace point and a recorded state; the block
    # check stacks each block's Z, and the trace and the states read that one stack
    kept_z, stacks = [], []  # both hold their arrays, so no id is reused during a run
    real_stack, real_check = algorithms._stack, algorithms._check_block

    def stack(arrays):
        stacks.append(list(arrays))
        return real_stack(arrays)

    def check(kept, *args):
        kept_z.extend(pt[0] for pt in kept)
        return real_check(kept, *args)

    monkeypatch.setattr(algorithms, "_stack", stack)
    monkeypatch.setattr(algorithms, "_check_block", check)
    K = 10
    for c in (1, 3, _default_block(pb, name)):
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", _block_bytes(pb, name, c))
        kept_z.clear()
        stacks.clear()
        res = BLOCK_RUNNERS[name](pb, W_und, HyperParams(eta=0.05, gamma=0.6), QUANT, K,
                                  trace_every=1, record_states=True)
        ids = {id(z) for z in kept_z}
        z_stacks = [len(s) for s in stacks if any(id(a) in ids for a in s)]
        assert z_stacks == [min(c, K - done) for done in range(0, K, c)], c
        assert [t.k for t in res.trace] == list(range(K + 1))
        assert res.states.shape == (K + 1, 2, pb.n, pb.dim) and res.states.flags.c_contiguous


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
    residual, drift, track, cs_block, Z_block = algorithms._check_block(
        its, Zs[0][0].sum(axis=0), x_star, denom)
    assert cs_block.shape == (m, 2, p)
    # the returned stack is the kept Z, byte for byte, in C order
    assert Z_block.shape == (m, 2, n, p) and Z_block.flags.c_contiguous
    assert Z_block.tobytes() == b"".join(Z.tobytes() for Z in Zs[1:])
    for j in range(m):
        cs, cs_new = Zs[j].sum(axis=1), Zs[j + 1].sum(axis=1)
        assert cs_block[j].tobytes() == cs_new.tobytes()
        diff = cs_new[0] - cs[0] + steps[j].sum(axis=0)
        want = math.sqrt(np.sum(diff * diff)) / n / (1.0 + math.sqrt(np.sum(cs[0] * cs[0])) / n)
        assert drift[j] == want
        g = grads[j]
        viol = float(np.abs(cs_new[1] - grads[j].sum(axis=0)).max())
        assert track[j] == viol / (1.0 + math.sqrt(np.sum(g * g)))
        r = Zs[j + 1][0] - x_star[None, :]
        assert residual[j] == float(np.sum(r * r)) / denom
    assert cs_block[-1, 0].tobytes() == Zs[m].sum(axis=1)[0].tobytes()


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_guard_residual_is_the_trace_residual(n):
    # the divergence guard stops on the number the trace records: on the same snapshots,
    # _check_block's residual is the reference's trace residual bit for bit
    p, m, denom = 20, 16, 3.0
    rng = np.random.default_rng(n)
    x_star = rng.standard_normal(p)
    Zs = rng.standard_normal((m, 2, n, p)) * 10.0 ** rng.integers(-3, 4, (m, 1, 1, 1))
    its = [(Z, None, None, None, Z[1], Z[1]) for Z in Zs]
    residual, _, _, _, _ = algorithms._check_block(its, np.zeros(p), x_star, denom)
    assert residual.tolist() == [_metrics_reference(NetworkState(Z, Z), x_star,
                                                    residual_denom=denom).residual for Z in Zs]


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
        _, drift, track, _, _ = algorithms._check_block(its, X0.sum(axis=0), np.zeros(p), 1.0)
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
    assert np.array_equal(final.Z, res.states[-1])
    assert (final.H_w is not None) == (name in ("cgt", "efcgt"))
    assert (final.E is not None) == name.startswith("efcgt")
    if final.E is not None:
        assert final.E.shape == (2, pb.n, pb.dim)


@pytest.mark.parametrize("name", list(BLOCK_RUNNERS))
def test_recorded_states_are_one_c_ordered_stack(pb, W_und, W_dir, name):
    # one (K+1, 2, n, p) array, x then y per iteration, for a finished run and for the
    # partial result of a run the guard cut inside a block
    res = BLOCK_RUNNERS[name](pb, W_und, HyperParams(eta=0.05, gamma=0.6), QUANT, 47,
                              trace_every=7, record_states=True)
    with pytest.raises(DivergenceError) as exc:
        BLOCK_RUNNERS[name](pb, W_dir, HyperParams(eta=5.0, gamma=0.5), TopK(k=1), 5000,
                            trace_every=7, record_states=True)
    stop = int(re.search(r"diverged at iteration (\d+):", str(exc.value))[1])
    for run, K in ((res, 47), (exc.value.partial, stop)):
        assert run.states.shape == (K + 1, 2, pb.n, pb.dim)
        assert run.states.flags.c_contiguous
        assert run.states[-1].tobytes() == run.final.Z.tobytes()
    assert BLOCK_RUNNERS[name](pb, W_und, HyperParams(eta=0.05), QUANT, 5).states is None


def test_trace_length_and_cadence(pb, W_und):
    res = run_gt(pb, W_und, HyperParams(eta=0.05), 100, seed=SEED, trace_every=1)
    assert len(res.trace) == 101
    assert [t.k for t in res.trace] == list(range(101))
    res = run_gt(pb, W_und, HyperParams(eta=0.05), 100, seed=SEED, trace_every=7)
    ks = [t.k for t in res.trace]
    assert ks[0] == 0 and ks[-1] == 100
    assert all(k % 7 == 0 for k in ks[:-1])


def _one(state):
    """``state``'s Z, H and E as blocks of one: ``a[None]`` views."""
    return tuple(None if a is None else a[None] for a in (state.Z, state.H, state.E))


def _snapshot(block, i):
    """Snapshot i of a block (Z, H, E) of snapshots, as a state."""
    Z, H, E = block
    return NetworkState(Z[i], H[i], E=None if E is None else E[i])


def test_metrics_fixed_points(pb):
    x_star = optimal_solution(pb)
    n, p = pb.n, pb.dim
    X = np.tile(x_star, (n, 1))
    state = NetworkState(Z=np.stack([X, np.zeros((n, p))]), H=np.stack([X, np.zeros((n, p))]))
    rec = metrics(*_one(state), x_star, k=[5], bits_sent=[7],
                  **_reference_sums(_one(state), x_star, 2.0))[0]
    assert rec.residual == 0.0
    # the row mean of identical rows can differ from the row by an ulp
    assert rec.consensus_error <= 1e-25
    assert rec.tracking_error == 0.0
    assert rec.opt_error <= 1e-25
    assert rec.compress_error_x == 0.0
    rng = np.random.default_rng(0)
    state = NetworkState(Z=rng.standard_normal((2, n, p)), H=rng.standard_normal((2, n, p)))
    rec = metrics(*_one(state), x_star, k=[0], bits_sent=[0],
                  **_reference_sums(_one(state), x_star))[0]
    for field in ("residual", "opt_error", "consensus_error", "tracking_error",
                  "compress_error_x", "compress_error_y"):
        val = getattr(rec, field)
        assert np.isfinite(val) and val >= 0


def _sq(m):
    return float(np.sum(m * m))


def _reference_sums(block, x_star, residual_denom=1.0):
    """The residuals and column sums of X and Y that ``metrics`` takes for a block (Z, H, E),
    as the reference below forms them: its np.sum over each snapshot, and np.mean's column
    sums."""
    Z = block[0]
    return dict(residual=np.array([_sq(X - x_star[None, :]) / residual_denom
                                   for X in Z[:, 0]]),
                z_sum=Z.sum(axis=-2))


def _metrics_reference(state, x_star, *, k=0, residual_denom=1.0, bits_sent=0):
    """The np.mean / np.sum form of ``metrics``, kept as the oracle for its reductions."""
    x_bar = state.X.mean(axis=0)
    y_bar = state.Y.mean(axis=0)
    zero = 0.0
    return TraceRecord(
        k=k,
        residual=_sq(state.X - x_star[None, :]) / residual_denom,
        opt_error=_sq(x_bar - x_star),
        consensus_error=_sq(state.X - x_bar[None, :]),
        tracking_error=_sq(state.Y - y_bar[None, :]),
        compress_error_x=_sq(state.X - state.H[0]),
        compress_error_y=_sq(state.Y - state.H[1]),
        ef_error_x=_sq(state.E[0]) if state.E is not None else zero,
        ef_error_y=_sq(state.E[1]) if state.E is not None else zero,
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
        got = metrics(*_one(state), x_star, k=[kw["k"]], bits_sent=[kw["bits_sent"]],
                      **_reference_sums(_one(state), x_star, kw["residual_denom"]))[0]
        want = _metrics_reference(state, x_star, **kw)
        for field in TraceRecord._fields:
            assert getattr(got, field) == getattr(want, field), field


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

    block = (draw(), draw(), draw() if with_ef else None)
    x_star = rng.standard_normal(p)
    ks, bits = [0, 7, 9], [0, 70, 90]
    got = metrics(*block, x_star, k=ks, bits_sent=bits, **_reference_sums(block, x_star, 1.5))
    for i in range(c):
        snap = _snapshot(block, i)
        one = metrics(*_one(snap), x_star, k=[ks[i]], bits_sent=[bits[i]],
                      **_reference_sums(_one(snap), x_star, 1.5))
        assert repr(one) == repr(got[i:i + 1]), i


def _records_bytes(records):
    """Every field of every record, as the bytes of one float64 array."""
    return np.array([[getattr(r, f) for f in TraceRecord._fields]
                     for r in records], dtype=float).tobytes()


@pytest.mark.parametrize("p", [1, 2, 20])
def test_trace_from_the_check_sums_equals_metrics_own(monkeypatch, p):
    # the engine hands metrics the block check's residuals and column sums, and the start's
    # from set-up; every record must be the bytes of the np.mean / np.sum reference on the
    # snapshot it is made from, which is the recorded state of its iteration, at every block
    # of every runner: the k = 0 point, K = 0, trace_every 1, 3 and K, blocks of 3 and the
    # default size, and a block cut by divergence
    pb = generate_ridge(10, p, 0.01, 5.0, seed=SEED)
    W_und = build_weights_outdegree(build_ring(10, directed=False), 0.1)
    W_dir = build_weights_outdegree(build_ring(10, directed=True), 0.1)
    x_star = optimal_solution(pb)
    block_metrics = algorithms.metrics
    snaps = []

    def recorded(Z, H, E, x_star, **kw):
        got = block_metrics(Z, H, E, x_star, **kw)
        assert [r.k for r in got] == list(kw["k"])
        snaps.extend(zip(got, (_snapshot((Z, H, E), i) for i in range(len(got)))))
        return got

    def check(res, denom):
        assert [rec for rec, _ in snaps] == res.trace
        for rec, snap in snaps:
            want = _metrics_reference(snap, x_star, k=rec.k, residual_denom=denom,
                                      bits_sent=rec.bits_sent)
            assert _records_bytes([rec]) == _records_bytes([want]), rec.k
            assert snap.X.tobytes() == res.states[rec.k, 0].tobytes()
            assert snap.Y.tobytes() == res.states[rec.k, 1].tobytes()

    monkeypatch.setattr(algorithms, "metrics", recorded)
    kind = QUANT if p > 1 else UnbiasedQuantize(bits=2, q=2)
    denom = _sq(default_x0(pb, SEED, "uniform") - x_star)
    for name, runner in BLOCK_RUNNERS.items():
        for block_bytes in (_block_bytes(pb, name, 3), algorithms._BLOCK_BYTES):
            monkeypatch.setattr(algorithms, "_BLOCK_BYTES", block_bytes)
            for K, trace_every in ((0, 1), (10, 1), (10, 3), (10, 10)):
                snaps.clear()
                res = runner(pb, W_und, HyperParams(eta=0.05, gamma=0.6), kind, K,
                             trace_every=trace_every, init="uniform", record_states=True)
                assert res.trace[0].k == 0 and res.trace[-1].k == K
                check(res, denom)
            snaps.clear()
            with pytest.raises(DivergenceError) as exc:
                runner(pb, W_dir, HyperParams(eta=5.0, gamma=0.5), TopK(k=1), 5000,
                       trace_every=3, record_states=True)
            check(exc.value.partial, _sq(default_x0(pb, SEED) - x_star))


@pytest.mark.parametrize("name", list(BLOCK_RUNNERS))
def test_a_run_of_no_iterations_is_its_start(pb, W_und, name):
    # K = 0 checks no block: the run returns the start's record and the start state
    res = BLOCK_RUNNERS[name](pb, W_und, HyperParams(eta=0.05), QUANT, 0,
                              init="uniform", record_states=True)
    X0 = default_x0(pb, SEED, "uniform")
    x_star = optimal_solution(pb)
    zeros = np.zeros((2, pb.n, pb.dim))
    start = NetworkState(np.stack([X0, gradient_matrix(pb, X0)]), zeros,
                         zeros if name in ("cgt", "efcgt") else None,
                         zeros if name.startswith("efcgt") else None)
    want = _metrics_reference(start, x_star, residual_denom=_sq(X0 - x_star[None, :]))
    assert _records_bytes(res.trace) == _records_bytes([want]) and len(res.trace) == 1
    for got, a in zip(vars(res.final).values(), vars(start).values()):
        assert (got is None and a is None) or got.tobytes() == a.tobytes()
    assert res.states[:, 0].tobytes() == X0[None].tobytes()
    assert (res.max_tracking_violation, res.max_mean_drift) == (0.0, 0.0)


def test_x0_memory_order_does_not_change_a_run(pb, W_und):
    # the normaliser, the start's trace point and the first mean drift all sum the
    # stacked, C-ordered start, so a Fortran-ordered x0 gives the bytes of its C copy
    # the start's residual differed at x0 seeds 4 and 5, and the drift maximum at seed 6,
    # when the sums ran in x0's memory order
    for x0_seed in range(3, 9):
        x0 = np.random.default_rng(x0_seed).standard_normal((pb.n, pb.dim)) * 3
        for runner in (run_cgt_efficient, run_efcgt_reference):
            runs = [_fingerprint(runner(pb, W_und, HyperParams(eta=0.02, gamma=0.5), TopK(k=3),
                                        30, seed=SEED, x0=x))
                    for x in (x0, np.asfortranarray(x0))]
            assert runs[0] == runs[1], x0_seed


def test_trace_record_signature_is_its_ten_fields():
    names = list(TraceRecord._fields)
    assert len(names) == 10
    params = inspect.signature(TraceRecord).parameters
    assert list(params) == names
    assert all(p.default is inspect.Parameter.empty and p.kind is p.POSITIONAL_OR_KEYWORD
               for p in params.values())
    rec = TraceRecord(*range(10))
    assert [getattr(rec, n) for n in names] == list(range(10))
    assert TraceRecord(**dict(zip(names, range(10)))) == rec


def test_trace_record_is_a_frozen_value():
    def record(k):
        return TraceRecord(k, 0.5, 0.25, 0.0, -0.0, 1e-300, 2.0, 0.0, 0.0, 64 * k)

    rec = record(3)
    assert rec == record(3) and hash(rec) == hash(record(3)) and rec != record(4)
    assert rec._replace(k=4, bits_sent=256) == record(4)
    assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(AttributeError):
        rec.k = 5


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
