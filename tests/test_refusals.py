"""One test for each refusal that the module tests do not reach.

Each asserts the exception type and the field or value its message names, so a
refusal that goes, or starts naming the wrong thing, fails here.
"""

import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest

from cgtsim import cli, compression, harness
from cgtsim import analysis as an
from cgtsim.algorithms import AlgorithmError, HyperParams, TraceRecord, run_cgt_efficient
from cgtsim.compression import (
    CompressionError,
    CompressorProfile,
    Identity,
    NormSign,
    RandK,
    RescaledNormSign,
    TopK,
)
from cgtsim.harness import ConfigError
from cgtsim.problems import ProblemError, RidgeProblem, constants, generate_ridge
from cgtsim.topology import (
    TopologyError,
    build_ring,
    build_weights_outdegree,
    check_doubly_stochastic,
    spectral_info,
)


@pytest.fixture(scope="module")
def small():
    pb = generate_ridge(4, 3, 0.05, 1.0, seed=2)
    W = build_weights_outdegree(build_ring(4, directed=False), 0.1)
    return pb, W


@pytest.fixture(scope="module")
def consts():
    pb = generate_ridge(6, 4, 0.05, 1.0, seed=3)
    W = build_weights_outdegree(build_ring(6, directed=False), 0.1)
    prob, spec = constants(pb), spectral_info(W)
    cgt = an.cgt_constants(prob, spec, compression.analytic_profile(TopK(k=1), 4), 1.0, 1.0, 6)
    ef = an.efcgt_constants(prob, spec, compression.analytic_profile(TopK(k=1), 4), 1.0, 1.0, 6)
    return prob, spec, cgt, ef


def _eta(c):
    # a step size well inside min(2/(mu+L), 1/(3 mu))
    return 1e-3 * an._step_bound(c.mu, c.L)[0]


# ---------------------------------------------------------------------------
# algorithms._simulate


def test_simulate_refuses_a_negative_K(small):
    pb, W = small
    with pytest.raises(AlgorithmError, match=r"iteration count K must be nonnegative, got -1$"):
        run_cgt_efficient(pb, W, HyperParams(eta=0.01), Identity(), -1)


def test_simulate_refuses_trace_every_below_1(small):
    pb, W = small
    with pytest.raises(AlgorithmError, match=r"trace_every must be >= 1, got 0$"):
        run_cgt_efficient(pb, W, HyperParams(eta=0.01), Identity(), 5, trace_every=0)


@pytest.mark.parametrize("K,trace_every", [(2.5, 1), (np.float64(3.0), 1), (6, 2.5), (True, 1),
                                           (6, False)])
def test_simulate_refuses_a_count_that_is_not_an_integer(small, K, trace_every):
    # K = 2.5 raised numpy's TypeError for top-k and a key-word error for rand-k, and
    # trace_every = 2.5 traced k = 0, 5, 6 without a word
    pb, W = small
    for kind in (TopK(k=1), RandK(k=1)):
        with pytest.raises(AlgorithmError, match=re.escape(
                f"K and trace_every must be integers, got K={K!r}, trace_every={trace_every!r}")):
            run_cgt_efficient(pb, W, HyperParams(eta=0.01), kind, K, trace_every=trace_every)


def test_simulate_refuses_an_x0_of_the_wrong_shape(small):
    pb, W = small
    with pytest.raises(AlgorithmError, match=re.escape("x0 must have shape (4, 3), got (4, 2)")):
        run_cgt_efficient(pb, W, HyperParams(eta=0.01), Identity(), 5, x0=np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# analysis


@pytest.mark.parametrize("build", [an.build_A, an.build_B])
@pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5, math.nan])
def test_error_system_refuses_gamma_outside_0_1(consts, build, gamma):
    c = consts[2] if build is an.build_A else consts[3]
    eps = np.ones(5 if build is an.build_A else 7)
    with pytest.raises(an.AnalysisError, match=re.escape(f"gamma must be in (0, 1], got {gamma!r}")):
        build(c, gamma, _eta(c), eps)


@pytest.mark.parametrize("build", [an.build_A, an.build_B])
@pytest.mark.parametrize("eta", [0.0, -1e-3])
def test_error_system_refuses_eta_not_positive(consts, build, eta):
    c = consts[2] if build is an.build_A else consts[3]
    eps = np.ones(5 if build is an.build_A else 7)
    with pytest.raises(an.AnalysisError, match=re.escape(f"eta must be positive, got {eta!r}")):
        build(c, 0.5, eta, eps)


@pytest.mark.parametrize("build", [an.build_A, an.build_B])
@pytest.mark.parametrize("c2", [-1.0, math.inf, math.nan])
def test_error_system_refuses_a_negative_or_non_finite_entry(consts, build, c2):
    # c2 multiplies gamma in row 2 of both systems
    c = dataclasses.replace(consts[2] if build is an.build_A else consts[3], c2=c2)
    eps = np.ones(5 if build is an.build_A else 7)
    with pytest.raises(an.AnalysisError, match="transition matrix has negative or non-finite"):
        build(c, 0.5, _eta(c), eps)


@pytest.mark.parametrize("delta", [0.0, -0.25, 1.5])
def test_build_B_refuses_delta_outside_0_1(consts, delta):
    c = dataclasses.replace(consts[3], delta=delta)
    with pytest.raises(an.AnalysisError, match=re.escape(f"delta must be in (0, 1], got {delta!r}")):
        an.build_B(c, 0.5, _eta(c), np.ones(7))


def test_constants_refuse_a_slack_c_x_that_rounds_to_1(consts):
    # at alpha = 2**-52 (r = delta = 1) tau = 1/sqrt(1 - 2**-52) rounds above 1, and
    # c_x = tau * (1 - 2**-52) rounds to exactly 1
    prob, spec = consts[:2]
    alpha = 2.0**-52
    with pytest.raises(an.AnalysisError, match=r"infeasible: c_x=1\.0, c_y=1\.0 must be < 1"):
        an.cgt_constants(prob, spec, compression.analytic_profile(Identity(), 4), alpha, alpha, 6)


@pytest.mark.parametrize("alpha", [1.5, 0.0])
def test_efcgt_constants_refuse_alpha_outside_0_1_by_the_plain_range(consts, alpha):
    # HyperParams refuses an alpha outside (0, 1], so only the Python API reaches this; the
    # error-feedback constants are the plain ones at r = 1, and so is the message
    prob, spec = consts[:2]
    profile = compression.analytic_profile(TopK(k=1), 4)
    with pytest.raises(an.AnalysisError,
                       match=re.escape(f"alpha_x={alpha!r} outside (0, 1/r] for r=1.0")):
        an.efcgt_constants(prob, spec, profile, alpha, 1.0, 6)


def _trace(residuals):
    return [TraceRecord(k, r, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0) for k, r in
            enumerate(residuals)]


def test_empirical_rate_refuses_fewer_than_2_residuals_after_the_cut():
    # the cut at the first residual <= 1e-300 leaves one point
    with pytest.raises(an.AnalysisError, match="not enough positive residuals"):
        an.empirical_rate(_trace([1.0, 0.0, 0.5, 0.25]), burn_frac=0.0)


def test_empirical_rate_of_a_flat_window_is_rate_1_with_r_squared_1():
    # log(1.0) = 0 exactly, so every deviation from the mean is 0: ss_tot == 0
    fit = an.empirical_rate(_trace([1.0] * 20), burn_frac=0.0)
    assert fit.rate == 1.0 and fit.r_squared == 1.0


# ---------------------------------------------------------------------------
# compression


@pytest.mark.parametrize("cls, name", [(TopK, "top-k"), (RandK, "random-k")])
@pytest.mark.parametrize("k", [0, -2])
def test_sparsifier_refuses_k_below_1(cls, name, k):
    with pytest.raises(CompressionError, match=rf"{name} needs k >= 1, got {k}$"):
        cls(k=k)


@pytest.mark.parametrize("make,name,value", [
    (lambda v: compression.UnbiasedQuantize(bits=v, q=math.inf), "quantizer bits", 2.5),
    (lambda v: compression.UnbiasedQuantize(bits=v, q=math.inf), "quantizer bits", True),
    (lambda v: TopK(k=v), "top-k's k", 2.0),
    (lambda v: TopK(k=v), "top-k's k", True),
    (lambda v: RandK(k=v), "random-k's k", 2.0),
    (lambda v: RandK(k=v), "random-k's k", np.float64(1.0)),
])
def test_a_kind_refuses_a_count_that_is_not_an_integer(make, name, value):
    # bits = 2.5 ran and labelled itself quant:b=2.5,q=inf, and k = True topk:k=True, which
    # parse_compressor refuses; k = 2.0 raised numpy's TypeError on the first compress
    with pytest.raises(CompressionError, match=re.escape(f"{name} must be an integer, "
                                                         f"got {value!r}")):
        make(value)


def test_parse_compressor_refuses_an_argument_without_equals():
    with pytest.raises(CompressionError, match=r"malformed compressor argument 'k' in 'topk:k'"):
        compression.parse_compressor("topk:k")


class _Unknown:
    def __repr__(self):
        return "Unknown()"


@pytest.mark.parametrize("call", [
    lambda kind: compression.compressor_label(kind),
    lambda kind: compression._apply_rows(kind, np.ones((2, 3)), None),
    lambda kind: compression.bit_cost(kind, 3),
    lambda kind: compression.analytic_profile(kind, 3),
], ids=["compressor_label", "_apply_rows", "bit_cost", "analytic_profile"])
def test_an_unknown_kind_is_refused(call):
    with pytest.raises(CompressionError, match=r"unknown kind Unknown\(\)"):
        call(_Unknown())


@pytest.mark.parametrize("x, shape", [(np.ones((2, 2)), "(2, 2)"), (np.ones(0), "(0,)"),
                                      (np.float64(1.0), "()")])
def test_compress_refuses_a_non_vector(x, shape):
    with pytest.raises(CompressionError, match=re.escape(f"nonempty vector, got shape {shape}")):
        compression.compress(Identity(), x)


@pytest.mark.parametrize("p", [0, -1])
def test_check_dimension_refuses_p_below_1(p):
    with pytest.raises(CompressionError, match=rf"dimension must be positive, got {p}$"):
        compression.check_dimension(Identity(), p)


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_profile_and_contraction_refuse_r_not_positive(r):
    with pytest.raises(CompressionError, match=re.escape(f"r must be positive, got {r!r}")):
        CompressorProfile(C=0.0, delta=1.0, r=r)
    # the estimator measures C(x)/r as the kind RescaledNormSign(q, r), which refuses the scale
    with pytest.raises(CompressionError, match=re.escape(f"scale r must be positive and finite, "
                                                         f"got {r!r}")):
        RescaledNormSign(q=2, r=r)


def test_empirical_profile_refuses_a_biased_kind_with_C_at_least_1():
    with pytest.raises(CompressionError, match=r"biased kind normsign:q=inf with C >= 1"):
        compression.empirical_profile(NormSign(q=math.inf), 20, trials=1000)


# ---------------------------------------------------------------------------
# harness


def test_parse_config_refuses_text_configparser_cannot_read():
    with pytest.raises(ConfigError, match=r"^malformed config: File contains no section headers"):
        harness.parse_config("[topology\nn = 6\n")


@pytest.mark.parametrize("field", ["K", "trace_every"])
def test_config_refuses_a_count_that_is_not_an_integer(field):
    # config text parses both as int, so only the Python API reaches this
    with pytest.raises(ConfigError, match=re.escape(f"algorithm.{field}: must be an integer, "
                                                    "got 2.5")):
        dataclasses.replace(harness.preset("fig1-cgt"), **{field: 2.5})


@pytest.mark.parametrize("field", ["K", "trace_every"])
def test_config_refuses_a_bool_count(field):
    # K = True ran as K = 1, but config_text wrote K = True, which parse_config refuses
    with pytest.raises(ConfigError, match=re.escape(f"algorithm.{field}: must be an integer, "
                                                    "got True")):
        dataclasses.replace(harness.preset("fig1-cgt"), **{field: True})


def test_compare_refuses_no_configs():
    with pytest.raises(ConfigError, match="compare needs at least one config"):
        harness.compare([])


@pytest.mark.parametrize("field, value", [("K", 40), ("trace_every", 5)])
def test_compare_refuses_configs_whose_K_or_trace_every_differ(tmp_path, field, value):
    base = dataclasses.replace(harness.preset("fig1-cgt"), K=20)
    other = dataclasses.replace(base, **{field: value})
    with pytest.raises(ConfigError, match="K/trace_every differ"):
        harness.compare([base, other], out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# problems and topology


@pytest.mark.parametrize("n,p", [(10.0, 20), (10, np.float64(20.0)), (True, 20), (10, True)])
def test_generate_ridge_refuses_a_size_that_is_not_an_integer(n, p):
    with pytest.raises(ProblemError, match=re.escape(f"n and p must be integers, got n={n!r}, "
                                                     f"p={p!r}")):
        generate_ridge(n, p, 0.01, 5.0, seed=1)


def test_build_ring_refuses_a_size_that_is_not_an_integer():
    with pytest.raises(TopologyError, match=re.escape("ring size n must be an integer, got 10.0")):
        build_ring(10.0)


def test_a_bool_seed_or_ring_size_is_refused():
    # each ran as the int 1 or read n >= 2 as its error, and no config text reads one back
    with pytest.raises(ProblemError, match=r"^seed must be an integer, got True$"):
        generate_ridge(10, 20, 0.01, 5.0, seed=True)
    with pytest.raises(TopologyError, match=r"^ring size n must be an integer, got True$"):
        build_ring(True)


def test_ridge_problem_refuses_U_and_v_of_mismatched_lengths():
    with pytest.raises(ProblemError, match=re.escape("inconsistent shapes U(3, 2), v(2,)")):
        RidgeProblem(U=np.ones((3, 2)), v=np.ones(2), rho=0.1)


@pytest.mark.parametrize("m, head, value, tail", [
    (np.full((2, 3), 0.5), "matrix must be square, got shape (2, 3)", None, ""),
    (np.array([[0.5, np.nan], [0.5, 0.5]]), "matrix has non-finite entries", None, ""),
    (np.array([[1.5, -0.5], [-0.5, 1.5]]), "negative entry at (0, 1): ", -0.5, ""),
    (np.array([[0.5, 0.25], [0.5, 0.75]]), "row 0 sums to ", 0.75, " (error 2.500e-01 > 1e-12)"),
    (np.array([[0.5, 0.5], [1.0, 0.0]]), "column 0 sums to ", 1.5, " (error 5.000e-01 > 1e-12)"),
])
def test_check_doubly_stochastic_names_the_first_fault(m, head, value, tail):
    # the value is written as its repr, which numpy 2 gives as np.float64(...)
    want = {head} if value is None else {f"{head}{value!r}{tail}",
                                         f"{head}np.float64({value!r}){tail}"}
    ok, got = check_doubly_stochastic(m)
    assert not ok and got in want, got


@pytest.mark.parametrize("p", [0.0, -0.1])
def test_outdegree_weights_refuse_p_not_positive(p):
    with pytest.raises(TopologyError, match="per-agent weights p_i must be positive"):
        build_weights_outdegree(build_ring(5), p)


# ---------------------------------------------------------------------------
# cli


def test_cli_prints_a_warning_in_process_as_one_line(tmp_path, capsys, monkeypatch):
    # a one-bit quantizer at alpha = 1 warns.  The stand-in for showwarning writes
    # formatwarning's text to stderr, as the interpreter's own does outside pytest
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    one_bit = dataclasses.replace(harness.preset("fig1-cgt"), compressor="quant:b=1,q=inf",
                                  K=2)
    cfg = tmp_path / "quant1.cfg"
    cfg.write_text(harness.config_text(one_bit))
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        monkeypatch.setattr(warnings, "showwarning", show)
        rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_OK
    assert err.splitlines() == [
        "warning: alpha exceeds the theoretical range (0, 1/r] = (0, 0.38693] for "
        "quant:b=1,q=inf; convergence is no longer guaranteed"]
    assert ".py" not in err


def test_cli_run_with_certify_prints_the_certificate_path(tmp_path, capsys):
    cfg = tmp_path / "cert.cfg"
    cfg.write_text(harness.config_text(
        dataclasses.replace(harness.preset("fig1-cgt"), K=20, certify=True)))
    rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    path = tmp_path / "out" / "fig1-cgt.cert.txt"
    assert f"certificate: {path}\n" in out
    assert "verdict = certified\n" in path.read_text()
