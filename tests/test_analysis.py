import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cgtsim import analysis as an
from cgtsim import harness
from cgtsim.algorithms import (
    HyperParams,
    TraceRecord,
    run_cgt_efficient,
    run_cgt_reference,
    run_efcgt_efficient,
    run_efcgt_reference,
)
from cgtsim.compression import (
    CompressorProfile,
    Identity,
    RandK,
    RescaledNormSign,
    TopK,
    analytic_profile,
    parse_compressor,
)
from cgtsim.problems import constants, generate_ridge
from cgtsim.topology import build_ring, build_weights_outdegree, spectral_info


@pytest.fixture(scope="module")
def setup():
    pb = generate_ridge(10, 20, 0.01, 5.0, seed=1)
    W = build_weights_outdegree(build_ring(10, directed=False), 0.1)
    return pb, constants(pb), spectral_info(W)


def _rec(k, residual):
    return TraceRecord(k=k, residual=residual, opt_error=0, consensus_error=0,
                       tracking_error=0, compress_error_x=0, compress_error_y=0,
                       ef_error_x=0, ef_error_y=0, bits_sent=0)


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_diagonal():
    assert an.spectral_radius(np.diag([0.5, 0.3])) == pytest.approx(0.5, abs=1e-12)


def test_spectral_radius_symmetric_pair():
    m = np.array([[0.5, 0.1], [0.1, 0.5]])
    assert an.spectral_radius(m) == pytest.approx(0.6, abs=1e-12)


def test_spectral_radius_nilpotent_and_zero():
    assert an.spectral_radius(np.zeros((3, 3))) == 0.0
    assert an.spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


def test_spectral_radius_matches_eigensolve_on_random_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.uniform(0, 1, (6, 6))
        ref = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert an.spectral_radius(m) == pytest.approx(ref, abs=1e-10, rel=1e-10)


def test_spectral_radius_rejects_negative():
    with pytest.raises(an.AnalysisError):
        an.spectral_radius(np.array([[0.1, -0.2], [0.0, 0.1]]))


def _allocating_spectral_radius(m):
    """The squaring loop as written before it reused two buffers: ``np.linalg.norm``
    and a fresh ``cur / nrm`` and ``cur @ cur`` each squaring."""
    m = np.asarray(m, dtype=float)
    acc = 0.0
    est = math.inf
    cur = m.copy()
    for j in range(an._MAX_SQUARINGS):
        nrm = float(np.linalg.norm(cur))
        if nrm == 0.0:
            return 0.0
        acc += math.log(nrm) / (2.0 ** j)
        new_est = math.exp(acc)
        if j > 0 and abs(new_est - est) <= an._RADIUS_TOL * max(1.0, new_est):
            return new_est
        est = new_est
        cur = cur / nrm
        cur = cur @ cur
    return est


@pytest.mark.parametrize("size", [2, 5, 7, 20])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_spectral_radius_equals_the_allocating_loop_bytes(size, scale):
    rng = np.random.default_rng(size)
    for k in range(5):
        m = rng.uniform(0, 1, (size, size)) * scale
        if k == 4:
            m[rng.uniform(size=m.shape) < 0.5] = 0.0
        for mm in (m, np.asfortranarray(m), m.T):
            assert an.spectral_radius(mm).hex() == _allocating_spectral_radius(mm).hex()


def test_spectral_radius_of_both_chains_equals_the_allocating_loop_bytes(setup):
    pb, consts, spec = setup
    for chain in (an.sufficient_params, an.sufficient_params_ef):
        for kind in (Identity(), TopK(k=1)):
            sp = chain(consts, spec, analytic_profile(kind, pb.dim), 1.0, 1.0, n=pb.n)
            want = _allocating_spectral_radius(sp.certificate.M)
            assert sp.certificate.rho_M.hex() == want.hex()


@pytest.mark.parametrize("m", [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 0.5]]),
                               np.array([[0.5, np.nan], [0.0, 0.5]]), 1e200 * np.eye(2)])
def test_spectral_radius_refuses_a_matrix_without_a_finite_norm(m):
    # NaN input returned nan and inf input nan with a divide warning; at 1e200 I the
    # norm overflowed, the iterate was divided to 0 and the radius read 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(an.AnalysisError, match=r"^spectral radius needs a finite matrix"):
            an.spectral_radius(m)


def test_spectral_radius_refuses_an_unconverged_estimate(monkeypatch):
    m = np.array([[0.5, 0.1], [0.1, 0.5]])
    assert an.spectral_radius(m) == pytest.approx(0.6, abs=1e-12)  # the default budget resolves it
    monkeypatch.setattr(an, "_MAX_SQUARINGS", 3)
    with pytest.raises(an.AnalysisError, match=r"^spectral radius did not converge in 3 "
                                               r"squarings: the estimate "):
        an.spectral_radius(m)


# ---------------------------------------------------------------------------
# certify


def test_certify_trivial_diagonal():
    system = an.ErrorSystem(M=np.diag([0.5, 0.3]), epsilon=np.ones(2), theta=0.5,
                            gamma=1.0, eta=0.1)
    cert = an.certify(system)
    assert cert.rho_M == pytest.approx(0.5, abs=1e-12)
    assert cert.componentwise_ok


def test_certify_componentwise_boundary():
    system = an.ErrorSystem(M=np.array([[0.5, 0.1], [0.1, 0.5]]), epsilon=np.ones(2),
                            theta=0.6, gamma=1.0, eta=0.1)
    cert = an.certify(system)
    assert cert.componentwise_ok
    assert cert.rho_M == pytest.approx(0.6, abs=1e-12)


def test_certify_rejects_nonpositive_test_vector():
    system = an.ErrorSystem(M=np.eye(2) * 0.5, epsilon=np.array([1.0, 0.0]), theta=0.9,
                            gamma=1.0, eta=0.1)
    with pytest.raises(an.AnalysisError):
        an.certify(system)


def test_certify_consistency_componentwise_implies_radius():
    # Collatz-Wielandt style consistency on random certified systems
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.uniform(0, 0.2, (5, 5))
        eps = rng.uniform(0.5, 2.0, 5)
        theta = float(np.max((m @ eps) / eps)) * (1 + 1e-9)
        cert = an.certify(an.ErrorSystem(M=m, epsilon=eps, theta=theta, gamma=1, eta=0.1))
        assert cert.componentwise_ok
        assert cert.rho_M <= theta + 1e-10


# ---------------------------------------------------------------------------
# transition matrices


def test_build_A_small_eta_limit(setup):
    pb, consts, spec = setup
    profile = analytic_profile(TopK(k=1), pb.dim)
    eta = 1e-12
    c = an.cgt_constants(consts, spec, profile, 1.0, 1.0, n=pb.n)
    system = an.build_A(c, 0.5, eta, np.ones(5))
    m = system.M
    rt2 = (1 - 0.5 * spec.s) ** 2
    # first row tends to (1, 0, 0, 0, 0); diagonals to the displayed limits
    assert m[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert m[0, 1] == pytest.approx(3 * eta * consts.L**2 / (consts.mu * pb.n), rel=1e-12)
    assert np.allclose(m[0, 2:], 0.0)
    assert m[1, 1] == pytest.approx((1 + rt2) / 2, rel=1e-10)
    assert m[2, 2] == pytest.approx((1 + rt2) / 2, rel=1e-6)
    assert m[3, 3] == pytest.approx(c.c_x + c.c6 * 0.5**2, rel=1e-12)
    assert m[4, 4] == pytest.approx(c.c_y + c.c7 * 0.5**2, rel=1e-12)


def test_build_A_nonnegative_for_valid_inputs(setup):
    pb, consts, spec = setup
    rng = np.random.default_rng(5)
    for _ in range(20):
        profile = CompressorProfile(C=float(rng.uniform(0, 30)),
                                    delta=float(rng.uniform(0.01, 1.0)), r=1.0)
        gamma = float(rng.uniform(0.01, 1.0))
        eta = float(rng.uniform(1e-8, 1e-3))
        c = an.cgt_constants(consts, spec, profile, 1.0, 1.0, n=pb.n)
        assert np.all(an.build_A(c, gamma, eta, np.ones(5)).M >= 0)


def test_build_A_rejects_large_eta(setup):
    pb, consts, spec = setup
    profile = analytic_profile(Identity(), pb.dim)
    c = an.cgt_constants(consts, spec, profile, 1.0, 1.0, n=pb.n)
    with pytest.raises(an.AnalysisError, match="eta"):
        an.build_A(c, 1.0, 1.0 / consts.mu, np.ones(5))


def test_build_A_monotone_in_compression_constant(setup):
    pb, consts, spec = setup
    gamma, eta = 0.5, 1e-5
    prev = None
    for cval in [0.0, 0.5, 2.0, 10.0]:
        profile = CompressorProfile(C=cval, delta=0.5, r=1.0)
        c = an.cgt_constants(consts, spec, profile, 1.0, 1.0, n=pb.n)
        m = an.build_A(c, gamma, eta, np.ones(5)).M
        if prev is not None:
            assert np.all(m >= prev - 1e-15)
        prev = m


def test_build_B_delta_one_error_feedback_rows(setup):
    pb, consts, spec = setup
    profile = analytic_profile(Identity(), pb.dim)
    c = an.efcgt_constants(consts, spec, profile, 1.0, 1.0, n=pb.n)
    m = an.build_B(c, 0.5, 1e-6, np.ones(7)).M
    assert np.allclose(m[5], [0, 0, 0, 0, 0, 0.5, 0])
    assert np.allclose(m[6], [0, 0, 0, 0, 0, 0, 0.5])
    assert np.all(m >= 0)


@pytest.mark.parametrize("kind", [TopK(k=1), RandK(k=2), RescaledNormSign(q=math.inf, r=20.0),
                                  Identity()])
def test_efcgt_constants_are_the_plain_ones_at_the_ef_profile(setup, kind):
    pb, consts, spec = setup
    profile = analytic_profile(kind, pb.dim)
    ef = CompressorProfile(C=1.0, delta=an.contractive_delta(profile), r=1.0)
    got = an.efcgt_constants(consts, spec, profile, 0.9, 0.7, n=pb.n)
    want = an.cgt_constants(consts, spec, ef, 0.9, 0.7, n=pb.n)
    for f in dataclasses.fields(an.ErrorConstants):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_efcgt_constants_monotone_in_delta(setup):
    pb, consts, spec = setup
    prev_dx = prev_dy = None
    for delta in [0.1, 0.3, 0.6, 1.0]:
        profile = CompressorProfile(C=1 - delta if delta < 1 else 0.0, delta=delta, r=1.0)
        c = an.efcgt_constants(consts, spec, profile, 1.0, 1.0, n=pb.n)
        if prev_dx is not None:
            assert c.c_x <= prev_dx + 1e-15
            assert c.c_y <= prev_dy + 1e-15
        prev_dx, prev_dy = c.c_x, c.c_y


# ---------------------------------------------------------------------------
# sufficient parameters


@pytest.mark.parametrize("kind", [Identity(), TopK(k=1)])
def test_sufficient_params_certifies(setup, kind):
    pb, consts, spec = setup
    profile = analytic_profile(kind, pb.dim)
    sp = an.sufficient_params(consts, spec, profile, 1.0, 1.0, n=pb.n)
    assert sp.certificate.gamma > 0 and sp.certificate.eta > 0 and np.all(sp.epsilon > 0)
    assert sp.certificate.componentwise_ok
    eig = float(np.max(np.abs(np.linalg.eigvals(sp.certificate.M))))
    assert sp.certificate.rho_M == pytest.approx(eig, abs=1e-9)
    assert sp.certificate.rho_M <= sp.certificate.theta + 1e-10


@pytest.mark.parametrize("kind", [Identity(), TopK(k=1)])
def test_sufficient_params_ef_certifies(setup, kind):
    pb, consts, spec = setup
    profile = analytic_profile(kind, pb.dim)
    sp = an.sufficient_params_ef(consts, spec, profile, 1.0, 1.0, n=pb.n)
    assert sp.certificate.componentwise_ok
    assert len(sp.epsilon) == 7
    eig = float(np.max(np.abs(np.linalg.eigvals(sp.certificate.M))))
    assert sp.certificate.rho_M == pytest.approx(eig, abs=1e-9)
    assert sp.certificate.rho_M <= sp.certificate.theta + 1e-10


@pytest.mark.parametrize("chain", [an.sufficient_params, an.sufficient_params_ef])
def test_a_chain_that_fails_its_own_certificate_is_refused(setup, monkeypatch, chain):
    # the chain checks the verdict of the certificate it builds: a system that fails its
    # componentwise test raises, and no SufficientParams carries a failed verdict
    pb, consts, spec = setup
    certify = an.certify

    def failing(system):
        return dataclasses.replace(certify(system), componentwise_ok=False)

    monkeypatch.setattr(an, "certify", failing)
    with pytest.raises(an.AnalysisError,
                       match="^sufficient-parameter chain failed its own certificate$"):
        chain(consts, spec, analytic_profile(TopK(k=1), pb.dim), 1.0, 1.0, n=pb.n)


def test_analysis_records_compare_and_hash_by_identity():
    # each record holds arrays, so == is identity: equal-valued results compare unequal
    # without raising, and each hashes
    cfg = harness.preset("fig3a-cgt")
    pb, W = harness.make_problem(cfg.problem), harness.make_topology(cfg.topology)
    args = (constants(pb), spectral_info(W), analytic_profile(TopK(k=1), pb.dim),
            cfg.hyper.alpha_x, cfg.hyper.alpha_y, pb.n)
    a, b = an.sufficient_params(*args), an.sufficient_params(*args)
    assert harness.chain_text(a) == harness.chain_text(b)
    cert, c = a.certificate, an.cgt_constants(*args)
    systems = [an.build_A(c, cert.gamma, cert.eta, cert.epsilon) for _ in range(2)]
    for x, y in ((a, b), (cert, b.certificate), systems):
        assert x == x and x != y
        assert len({x, y, x}) == 2
    moved = dataclasses.replace(cert, theta=0.5)
    assert moved.theta == 0.5 and moved.M is cert.M and moved != cert


def test_sufficient_params_infeasible_tiny_delta(setup):
    pb, consts, spec = setup
    # 1 - delta rounds to 1, so no slack tau > 1 exists
    profile = CompressorProfile(C=1.0, delta=1e-17, r=1.0)
    with pytest.raises(an.AnalysisError, match="tau must exceed 1"):
        an.sufficient_params(consts, spec, profile, 1.0, 1.0, n=pb.n)
    with pytest.raises(an.AnalysisError, match="tau must exceed 1"):
        an.sufficient_params_ef(consts, spec, profile, 1.0, 1.0, n=pb.n)


def test_sufficient_params_rejects_alpha_outside_theory(setup):
    pb, consts, spec = setup
    profile = CompressorProfile(C=19.0, delta=1 / 400, r=20.0)
    with pytest.raises(an.AnalysisError, match="alpha"):
        an.sufficient_params(consts, spec, profile, 1.0, 1.0, n=pb.n)


def test_contractive_delta_conversion():
    assert an.contractive_delta(CompressorProfile(C=0.4, delta=0.6, r=1.0)) == 0.6
    assert an.contractive_delta(CompressorProfile(C=0.5, delta=1 / 1.5, r=1.5)) == pytest.approx(0.5)
    with pytest.raises(an.AnalysisError):
        an.contractive_delta(CompressorProfile(C=19.0, delta=1 / 400, r=20.0))


# ---------------------------------------------------------------------------
# one-step bound of the simulated error vector (deterministic compressor)


def test_one_step_error_recursion_top1(setup):
    pb, consts, spec = setup
    W = build_weights_outdegree(build_ring(10, directed=False), 0.1)
    profile = analytic_profile(TopK(k=1), pb.dim)
    sp = an.sufficient_params(consts, spec, profile, 1.0, 1.0, n=pb.n)
    c = an.cgt_constants(consts, spec, profile, 1.0, 1.0, n=pb.n)
    m = an.build_A(c, sp.certificate.gamma, sp.certificate.eta, np.ones(5)).M
    hp = HyperParams(eta=sp.certificate.eta, gamma=sp.certificate.gamma)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(0, 1, (pb.n, pb.dim))
    res = run_cgt_reference(pb, W, hp, TopK(k=1), 40, seed=0, x0=x0, trace_every=1)
    w_vec = lambda t: np.array([t.opt_error, t.consensus_error, t.tracking_error,
                                t.compress_error_x, t.compress_error_y])
    for k in range(1, 40):
        w_now = w_vec(res.trace[k])
        w_next = w_vec(res.trace[k + 1])
        bound = m @ w_now
        assert np.all(w_next <= bound * (1 + 1e-12) + 1e-300)


# ---------------------------------------------------------------------------
# empirical rate


def test_certified_run_rate_within_theorem_envelope(setup):
    # the theorem guarantees the asymptotic rate; 0.05 is finite-horizon slack
    pb, consts, spec = setup
    W = build_weights_outdegree(build_ring(10, directed=False), 0.1)
    profile = analytic_profile(TopK(k=1), pb.dim)
    sp = an.sufficient_params(consts, spec, profile, 1.0, 1.0, n=pb.n)
    hp = HyperParams(eta=sp.certificate.eta, gamma=sp.certificate.gamma)
    rng = np.random.default_rng(2)
    x0 = rng.uniform(0, 1, (pb.n, pb.dim))
    res = run_cgt_reference(pb, W, hp, TopK(k=1), 400, seed=0, x0=x0, trace_every=1)
    fit = an.empirical_rate(res.trace)
    assert fit.rate <= sp.certificate.theta + 0.05


def test_empirical_rate_exact_geometric():
    trace = [_rec(k, 0.9**k) for k in range(101)]
    fit = an.empirical_rate(trace)
    assert fit.rate == pytest.approx(0.9, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def _fit_window(trace, burn_frac=0.1):
    """The iteration indices and log residuals empirical_rate fits (no zero residual)."""
    start = math.ceil(burn_frac * len(trace))
    return (np.array([t.k for t in trace[start:]], dtype=float),
            np.log([t.residual for t in trace[start:]]))


def _exact_slope(ks, ys):
    """The least-squares slope of ys on ks, in exact rationals."""
    ks, ys = [Fraction(k) for k in ks.tolist()], [Fraction(y) for y in ys.tolist()]
    k_bar, y_bar = sum(ks) / len(ks), sum(ys) / len(ys)
    return (sum((k - k_bar) * (y - y_bar) for k, y in zip(ks, ys))
            / sum((k - k_bar) ** 2 for k in ks))


def _preset_trace(name, K=300):
    cfg = harness.preset(name, K=K)
    runner = {"cgt": run_cgt_efficient, "cgt-ref": run_cgt_reference,
              "efcgt": run_efcgt_efficient, "efcgt-ref": run_efcgt_reference}[cfg.algorithm]
    return runner(harness.make_problem(cfg.problem), harness.make_topology(cfg.topology),
                  cfg.hyper, parse_compressor(cfg.compressor), cfg.K, cfg.problem.seed,
                  trace_every=cfg.trace_every, init=cfg.init).trace


@pytest.mark.parametrize("source", ["geometric", "fig1-cgt", "fig3a-efcgt", "fig5-cgt-rescaled"])
def test_empirical_rate_slope_is_the_exact_fit_rounded_once(source):
    if source == "geometric":
        trace = [_rec(k, 0.9**k * (1 + 0.01 * math.sin(k))) for k in range(101)]
    else:
        trace = _preset_trace(source)
    ks, ys = _fit_window(trace)
    exact = _exact_slope(ks, ys)
    slope = an._ls_slope(ks, ys)
    # the nearest double to the exact slope, so within half an ulp: below 1.2e-16 relative
    assert slope == float(exact)
    assert abs(Fraction(slope) - exact) <= abs(exact) * Fraction(1, 2**53)
    assert an.empirical_rate(trace).rate == float(np.exp(slope))


def test_empirical_rate_constant_residual():
    trace = [_rec(k, 0.123) for k in range(50)]
    fit = an.empirical_rate(trace)
    assert fit.rate == pytest.approx(1.0, abs=1e-12)


def test_empirical_rate_truncates_at_zero():
    trace = [_rec(k, 0.5**k if k < 30 else 0.0) for k in range(60)]
    fit = an.empirical_rate(trace)
    assert fit.rate == pytest.approx(0.5, rel=1e-6)


def test_empirical_rate_needs_points():
    with pytest.raises(an.AnalysisError):
        an.empirical_rate([_rec(0, 1.0), _rec(1, 0.9)])


def test_empirical_rate_refuses_an_inf_residual_in_the_fit_window():
    # it gave RateFit(nan, nan) and numpy's "invalid value encountered in subtract"
    trace = [_rec(k, r) for k, r in enumerate([1.0, 0.5, 0.25, math.inf, 0.1])]
    with pytest.raises(an.AnalysisError, match="inf residual"):
        an.empirical_rate(trace, burn_frac=0.0)
    # an inf outside the window is not fitted: burned off, or past the first zero
    halving = [_rec(k, 0.5**k) for k in range(1, 6)]
    for window, burn_frac in (([_rec(0, math.inf)] + halving, 0.1),
                              (halving + [_rec(6, 0.0), _rec(7, math.inf)], 0.0)):
        fit = an.empirical_rate(window, burn_frac=burn_frac)
        assert fit.rate == pytest.approx(0.5, abs=1e-12)


def test_empirical_rate_refuses_a_nan_residual_in_the_fit_window():
    # it cut the window at the nan and gave RateFit(0.5, 1.0) from the first two points
    trace = [_rec(k, r) for k, r in enumerate([1.0, 0.5, math.nan, 0.25, 0.125, 0.0625])]
    with pytest.raises(an.AnalysisError, match="nan residual"):
        an.empirical_rate(trace, burn_frac=0.0)
    # a nan outside the window is not fitted: burned off, or past the first zero
    halving = [_rec(k, 0.5**k) for k in range(1, 6)]
    for window, burn_frac in (([_rec(0, math.nan)] + halving, 0.1),
                              (halving + [_rec(6, 0.0), _rec(7, math.nan)], 0.0)):
        fit = an.empirical_rate(window, burn_frac=burn_frac)
        assert fit.rate == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("burn_frac", [-0.8, -1e-300, 1.0, 1.5, math.inf, -math.inf, math.nan])
def test_empirical_rate_refuses_burn_frac_outside_zero_one(burn_frac):
    # -0.8 fitted the window of 0.2, sliced from the end, and nan raised a bare ValueError
    trace = [_rec(k, 0.9**k) for k in range(20)]
    with pytest.raises(an.AnalysisError, match="burn_frac"):
        an.empirical_rate(trace, burn_frac=burn_frac)
    assert an.empirical_rate(trace, burn_frac=0.0).rate == pytest.approx(0.9, abs=1e-12)


def test_certificate_text_round_trip_fields(setup):
    pb, consts, spec = setup
    sp = an.sufficient_params(consts, spec, analytic_profile(Identity(), pb.dim),
                              1.0, 1.0, n=pb.n)
    text = harness.chain_text(sp)
    assert "verdict = certified" in text
    assert "epsilon-chain" in text
    assert f"{sp.certificate.gamma:.17g}" in text
