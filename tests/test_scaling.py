"""Exact power-of-two scaling of a run: a metamorphic relation with no recorded value.

Multiplying the observations v and the start x0 by 2**s multiplies x*, every
state, gradient, compressor input and output by exactly 2**s: each operation of
the engine is homogeneous, and a power of two scales a double exactly while it
stays normal.  So a run of the scaled problem must give the same residuals,
bits and divergence, every squared error times 4**s and every final state times
2**s, byte for byte.
"""

import warnings

import numpy as np
import pytest

from cgtsim.algorithms import (
    DivergenceError,
    HyperParams,
    default_x0,
    run_cgt_efficient,
    run_cgt_reference,
    run_efcgt_efficient,
    run_efcgt_reference,
    run_gt,
)
from cgtsim.compression import parse_compressor
from cgtsim.problems import RidgeProblem, generate_ridge
from cgtsim.topology import build_ring, build_weights_outdegree

SCALES = (-40, 7, 300)
K = 100
KINDS = (["identity"]
         + [f"quant:b={b},q={q}" for b in (1, 2, 8) for q in ("1", "2", "inf")]
         + [f"topk:k={k}" for k in (1, 3)] + [f"randk:k={k}" for k in (1, 3)]
         + [f"normsign:q={q}" for q in ("1", "2", "inf")]
         + [f"normsign-rescaled:q={q},r=3" for q in ("1", "2", "inf")])
FORMS = {"cgt-ref": run_cgt_reference, "cgt": run_cgt_efficient,
         "efcgt-ref": run_efcgt_reference, "efcgt": run_efcgt_efficient}
# the fields that are sums of squares of scaled quantities
SQUARED = ("opt_error", "consensus_error", "tracking_error", "compress_error_x",
           "compress_error_y", "ef_error_x", "ef_error_y")
CONVERGING = HyperParams(eta=0.05, gamma=0.5, alpha_x=0.5, alpha_y=0.5)
DIVERGING = HyperParams(eta=3.0, gamma=0.5, alpha_x=0.5, alpha_y=0.5)


def _outcome(run):
    """(divergence message or None, result) of one run, the partial one if it diverged."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # alpha above 1/r for a norm-sign kind
        try:
            return None, run()
        except DivergenceError as exc:
            return str(exc), exc.partial


def _column(trace, field, scale=1.0):
    return (np.array([getattr(t, field) for t in trace], dtype=float) * scale).tobytes()


def _check_scaled(base, scaled, s):
    (msg, res), (msg_s, res_s) = base, scaled
    assert msg_s == msg
    assert [t.k for t in res_s.trace] == [t.k for t in res.trace]
    assert [t.bits_sent for t in res_s.trace] == [t.bits_sent for t in res.trace]
    assert _column(res_s.trace, "residual") == _column(res.trace, "residual")
    for field in SQUARED:
        assert _column(res_s.trace, field) == _column(res.trace, field, 4.0**s), field
    for name in ("X", "Y", "H", "H_w", "E"):
        a, b = getattr(res.final, name), getattr(res_s.final, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert b.tobytes() == (a * 2.0**s).tobytes(), name


@pytest.fixture(scope="module")
def setting():
    pb = generate_ridge(6, 5, 0.01, 5.0, seed=3)
    W = build_weights_outdegree(build_ring(6, directed=False), 0.1)
    return pb, W, default_x0(pb, 11, "uniform")


def _scaled_problem(pb, s):
    return RidgeProblem(U=pb.U, v=pb.v * 2.0**s, rho=pb.rho)


@pytest.mark.parametrize("form", ["gt", *FORMS])
def test_power_of_two_scaling_is_exact(setting, form):
    pb, W, x0 = setting
    if form == "gt":
        cases = [(CONVERGING, None), (DIVERGING, None)]
    else:
        cases = [(CONVERGING, k) for k in KINDS] + [(DIVERGING, "quant:b=2,q=2")]
    diverged = 0
    for hp, text in cases:
        def run(problem, start):
            if form == "gt":
                return run_gt(problem, W, hp, K, 5, x0=start)
            return FORMS[form](problem, W, hp, parse_compressor(text), K, 5, x0=start)

        base = _outcome(lambda: run(pb, x0))
        diverged += base[0] is not None
        for s in SCALES:
            _check_scaled(base, _outcome(lambda: run(_scaled_problem(pb, s), x0 * 2.0**s)), s)
    assert diverged >= 1
