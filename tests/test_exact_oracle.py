"""The engine's efficient C-GT against the exact rational oracle in ``exact_oracle``.

The oracle shares no code with the engine or the keyed streams, so these tests
say how far each float trace field is from the algorithm's exact trajectory on
the same double inputs, and check the keyed uniforms against an independent
splitmix64.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

import exact_oracle as oracle
from cgtsim import algorithms, compression
from cgtsim.algorithms import HyperParams, run_cgt_efficient
from cgtsim.compression import Identity, RandK, TopK
from cgtsim.problems import generate_ridge
from cgtsim.topology import build_ring, build_weights_outdegree

N, P, K, SEED = 3, 2, 40, 17
GAMMA, ETA = 0.6, 0.11
KINDS = {"identity": Identity(), "top1": TopK(k=1), "rand1": RandK(k=1)}
REL = Fraction(1, 10**9)


@functools.cache
def _instance():
    pb = generate_ridge(N, P, 0.05, 1.0, seed=SEED)
    W = build_weights_outdegree(build_ring(N, directed=False), 0.1)
    return pb, W


@functools.cache
def _exact_run(kind_name, init):
    """The oracle's trace and decisions, computed once per module."""
    pb, W = _instance()
    return oracle.run_cgt_efficient(pb.U, pb.v, pb.rho, W.matrix, GAMMA, ETA, kind_name, K,
                                    SEED, init=init)


def test_oracle_tags_are_the_engine_tags():
    assert ((oracle.TAG_X, oracle.TAG_Y, oracle.TAG_INIT)
            == (compression.TAG_X_DIFF, compression.TAG_Y_DIFF, compression.TAG_INIT))


def _exact(u: float, i: int) -> bool:
    # the double is the oracle's integer times 2**-53, bit for bit
    return Fraction(u) == Fraction(i, 1 << 53)


def test_uniforms_equal_the_oracle_splitmix64_on_every_key_a_run_draws():
    # all-scalar keys, as RngStream draws them, and the engine's block draw, whose seed
    # word is a scalar and whose agent, iteration and tag words are arrays
    block = compression._draw_block(RandK(k=1), SEED, N, P, [oracle.TAG_X, oracle.TAG_Y], 0, K)
    for k, (t, tag), i in itertools.product(range(K), enumerate((oracle.TAG_X, oracle.TAG_Y)),
                                            range(N)):
        want = oracle.uniform_ints(P, SEED, i, k, tag)
        scalar = compression._uniforms(P, SEED, i, k, tag)
        assert scalar.shape == (1, P)
        assert all(map(_exact, scalar[0], want))
        assert all(map(_exact, block[k][t * N + i], want))


@pytest.mark.parametrize("words", [
    (), (0,), (2**63,), (2**64 - 1, 2**63 + 1), (-1, -(2**63)), (2**64 + 5, 3),
    (np.int64(-3), np.uint64(2**64 - 1), np.int32(7), np.uint8(200)), (405, 0, 0, 1),
])
def test_uniforms_equal_the_oracle_splitmix64_on_edge_words(words):
    got = compression._uniforms(20, *words)
    assert got.shape == (1, 20)
    assert all(map(_exact, got[0], oracle.uniform_ints(20, *words)))


def _float_decisions(monkeypatch, kind_name):
    """Record the engine's kept index per compressed row, one tuple per iteration."""
    seen = []
    compress = algorithms.compress_rows_multi

    def recording(kind, blocks, u):
        rows = np.asarray(blocks).reshape(-1, P)
        if kind_name == "top1":
            seen.append(tuple(np.abs(rows).argmax(axis=1).tolist()))
        elif kind_name == "rand1":
            seen.append(tuple(u.argmin(axis=1).tolist()))
        else:
            seen.append((None,) * len(rows))
        return compress(kind, blocks, u)

    monkeypatch.setattr(algorithms, "compress_rows_multi", recording)
    return seen


def _assert_within_1e9_up_to_a_flip(monkeypatch, kind_name, init="zeros"):
    pb, W = _instance()
    float_decisions = _float_decisions(monkeypatch, kind_name)
    run = run_cgt_efficient(pb, W, HyperParams(eta=ETA, gamma=GAMMA), KINDS[kind_name], K,
                            seed=SEED, trace_every=1, init=init)
    exact, decisions = _exact_run(kind_name, init)
    assert len(float_decisions) == len(decisions) == K
    # the decision of iteration k makes point k + 1: points up to the first flip agree
    flips = [k for k in range(K) if float_decisions[k] != decisions[k]]
    last = flips[0] if flips else K
    # a state-independent kind makes no decision a rounding can flip
    assert kind_name == "top1" or not flips
    assert len(run.trace) == len(exact) == K + 1
    for rec, want in zip(run.trace[:last + 1], exact):
        assert rec.k == want["k"] and rec.bits_sent == want["bits_sent"]
        for field in oracle.TRACE_FIELDS[1:-1]:
            got, true = getattr(rec, field), want[field]
            if true == 0:
                assert got == 0.0, (rec.k, field)
            else:
                assert abs(Fraction(got) - true) <= REL * abs(true), (rec.k, field, got,
                                                                      float(true))


@pytest.mark.parametrize("kind_name", list(KINDS))
def test_float_trace_is_within_1e9_of_the_exact_one_up_to_a_flip(monkeypatch, kind_name):
    _assert_within_1e9_up_to_a_flip(monkeypatch, kind_name)


# the bytes of one checked iteration of efficient C-GT: Z, H and H_w (2*N*P floats each),
# the gradient and the step (N*P each)
_ITERATION_BYTES = 8 * 8 * N * P


@pytest.mark.parametrize("kind_name,init,c",
                         [(name, "zeros", c) for name in KINDS for c in (1, 3)]
                         + [("top1", "uniform", c) for c in (None, 1, 3)])
def test_float_trace_across_blocks_and_from_a_uniform_start_is_within_1e9(monkeypatch,
                                                                          kind_name, init, c):
    # the default block (c = None) at N = 3, P = 2 is 1365 iterations, so a K = 40 run is
    # one block; blocks of 1 and 3 put the trace across 40 and 14 block boundaries
    if c is not None:
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", c * _ITERATION_BYTES)
    _assert_within_1e9_up_to_a_flip(monkeypatch, kind_name, init)
