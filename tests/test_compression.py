import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cgtsim import compression
from cgtsim.compression import (
    CompressionError,
    CompressorProfile,
    Identity,
    NormSign,
    RandK,
    RescaledNormSign,
    RngStream,
    TopK,
    UnbiasedQuantize,
    analytic_profile,
    bit_cost,
    compress,
    compress_rows,
    compress_rows_multi,
    compressor_label,
    empirical_profile,
    estimate_contraction,
    parse_compressor,
)
from cgtsim.compression import (
    _INNER_REPS,
    _apply_rows,
    _draw_block,
    _keep_rows,
    _quantize_rows,
    _test_inputs,
)


def rng_for(agent=0, k=0, tag=0, seed=123):
    return RngStream(seed=seed, agent=agent, iteration=k, tag=tag)


# ---------------------------------------------------------------------------
# operator outputs


def test_top1_keeps_largest_absolute_value():
    out = compress(TopK(k=1), np.array([3.0, -5.0, 1.0]))
    assert np.array_equal(out, [0.0, -5.0, 0.0])


def test_topk_tie_goes_to_lowest_index():
    out = compress(TopK(k=1), np.array([2.0, -2.0, 1.0]))
    assert np.array_equal(out, [2.0, 0.0, 0.0])


# rows with tied magnitudes, with +-inf and all zero, then two Gaussian rows
_SPARSIFIER_ROWS = np.vstack([
    [2.0, -2.0, 2.0, 1.0, -1.0],
    [1.0, np.inf, -np.inf, 3.0, -3.0],
    [-np.inf, 0.0, np.inf, -np.inf, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, -1.5, 0.0, 1.5, 0.0],
    np.random.default_rng(8).standard_normal((2, 5)),
])


@pytest.mark.parametrize("cls", [TopK, RandK])
@pytest.mark.parametrize("k", [1, 2, 4, 5])
def test_sparsifier_keeps_the_k_entries_a_per_row_loop_picks(cls, k):
    m = _SPARSIFIER_ROWS
    u = np.random.default_rng(k).random(m.shape)
    want = np.zeros_like(m)
    for i, row in enumerate(m):
        # top-k: largest magnitude first, ties to the lowest index; rand-k: smallest uniform
        key = (lambda j: (-abs(row[j]), j)) if cls is TopK else (lambda j: u[i, j])
        for j in sorted(range(m.shape[1]), key=key)[:k]:
            want[i, j] = row[j]
    assert np.array_equal(_apply_rows(cls(k), m, u), want)


@pytest.mark.parametrize("k,want", [
    (1, [0, np.nan, 0, 0, 0]),
    (2, [0, np.nan, 0, np.inf, 0]),
    (5, [1.0, np.nan, -3.0, np.inf, 2.0]),
], ids=["k=1", "k=2", "k=p"])
def test_topk_keeps_nan_first_at_every_k(k, want):
    # NaN ranks first, then |m| descending; ties go to the lowest index in both
    x = np.array([[1.0, np.nan, -3.0, np.inf, 2.0]])
    np.testing.assert_array_equal(_apply_rows(TopK(k), x, None), [want])


def test_topk_keeps_nans_in_index_order_before_any_number():
    x = np.array([[-np.inf, np.nan, 5.0, np.nan, np.inf]])
    np.testing.assert_array_equal(_apply_rows(TopK(1), x, None), [[0, np.nan, 0, 0, 0]])
    np.testing.assert_array_equal(_apply_rows(TopK(2), x, None), [[0, np.nan, 0, np.nan, 0]])
    np.testing.assert_array_equal(_apply_rows(TopK(3), x, None),
                                  [[-np.inf, np.nan, 0, np.nan, 0]])


def test_normsign_inf():
    out = compress(NormSign(q=math.inf), np.array([2.0, -1.0]))
    assert np.array_equal(out, [2.0, -2.0])


def test_rescaled_normsign():
    out = compress(RescaledNormSign(q=math.inf, r=2.0), np.array([2.0, -1.0]))
    assert np.array_equal(out, [1.0, -1.0])


def test_quantizer_with_zero_dither_recovers_exactly_representable():
    # scale 1/2, floor(2*|x|/1) = (2, 1), so (1/2)*(2, -1) = (1, -0.5)
    out = _apply_rows(UnbiasedQuantize(bits=2, q=math.inf),
                      np.array([[1.0, -0.5]]), np.zeros((1, 2)))
    assert np.array_equal(out[0], [1.0, -0.5])


def _exact_level(t, u):
    # floor(t + u) entry by entry in exact rational arithmetic; inf and NaN pass through
    return np.array([math.floor(Fraction(a) + Fraction(b)) if math.isfinite(a) else a
                     for a, b in zip(t.ravel().tolist(), u.ravel().tolist())],
                    dtype=float).reshape(t.shape)


def _quantize_rows_as_recorded(m, kind, u, level=lambda t, u: np.floor(t + u)):
    # the quantizer's formula as first written: a check of every later rewrite, bit for bit.
    # Its float floor(t + u) rounds the sum first; ``level`` replaces that step
    scale = 2.0 ** (kind.bits - 1)
    if kind.q == math.inf:
        norms = np.abs(m).max(axis=1)
    elif kind.q == 1:
        norms = np.abs(m).sum(axis=1)
    else:
        norms = np.sqrt((m * m).sum(axis=1))
    safe = np.where(norms > 0, norms, 1.0)[:, None]
    out = (safe / scale) * np.sign(m) * level(scale * np.abs(m) / safe, u)
    out[norms == 0] = 0.0
    return out


# all-zero rows, -0.0 entries alone and among numbers, rows of +-1e-200 (whose squared
# 2-norm underflows to 0, so the reset turns their -0.0 outputs into +0.0), +-inf, NaN,
# then Gaussian rows, the last four spanning 1e-310 to 1e150, so that an entry's ratio
# to its row's norm can be subnormal
_QUANT_ROWS = np.vstack([
    np.zeros(6),
    np.full(6, -0.0),
    [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
    [-0.0, 1.0, -0.0, -2.5, 0.0, 0.25],
    [1e-200, -1e-200, -1e-200, 1e-200, -0.0, 1e-200],
    np.full(6, -1e-200),
    [1.0, -np.inf, 2.0, 0.0, -0.0, 3.0],
    [1.0, np.nan, -2.0, 0.0, -0.0, 3.0],
    np.random.default_rng(5).standard_normal((4, 6)),
    np.random.default_rng(6).standard_normal((4, 6))
    * 10.0 ** np.random.default_rng(7).integers(-310, 151, (4, 6)),
])


@pytest.mark.parametrize("q", [1, 2, math.inf])
@pytest.mark.parametrize("bits", [1, 2, 8, 53])
def test_quantize_rows_matches_the_recorded_formula_bit_for_bit(q, bits):
    kind = UnbiasedQuantize(bits=bits, q=q)
    m = _QUANT_ROWS
    # at 53 bits the recorded float floor(t + u) rounds t + u, so the oracle takes the exact level
    level = {"level": _exact_level} if bits == 53 else {}
    with np.errstate(invalid="ignore"):
        for u in (np.random.default_rng(bits).random(m.shape), np.zeros(m.shape)):
            got, want = _quantize_rows(m, kind, u), _quantize_rows_as_recorded(m, kind, u, **level)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", [40, 52, 53])
def test_quantize_rows_level_is_the_exact_floor_of_t_plus_u(bits):
    # the row [1, 0.3] has inf-norm 1, so t = 2**(bits-1) * |x| and the output is level / 2**(b-1);
    # half the dithers lie within 2**-33 of 1, where t + u rounds up to the next integer
    rng = np.random.default_rng(bits)
    u = np.concatenate([rng.random(4000), 1.0 - rng.integers(1, 2**20, 4000) * 2.0**-53])
    u = u.reshape(-1, 2)
    m = np.tile([1.0, 0.3], (len(u), 1))
    scale = 2.0 ** (bits - 1)
    out = _quantize_rows(m, UnbiasedQuantize(bits=bits, q=math.inf), u)
    assert np.all(np.abs(out) <= 1.0)
    assert (out * scale).tobytes() == _exact_level(scale * m, u).tobytes()


def _keep_rows_two_index(m, keep):
    # the scatter by row and column indexes: the reference for _keep_rows' flat-index one
    out = np.zeros(m.shape)
    rows = np.arange(m.shape[0])
    if keep.ndim == 2:
        rows = rows[:, None]
    out[rows, keep] = m[rows, keep]
    return out


@pytest.mark.parametrize("rows", [20, 4000])
@pytest.mark.parametrize("k", [1, 3, 20])
def test_keep_rows_equals_the_two_index_scatter_bit_for_bit(rows, k):
    p = 20
    rng = np.random.default_rng(rows + k)
    m = rng.standard_normal((rows, p))
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
    hit = rng.random(m.shape) < 0.3
    m[hit] = rng.choice(special, size=hit.sum())
    cols = np.argsort(rng.random(m.shape), axis=1)[:, :k]
    for keep in ([cols[:, 0], cols] if k == 1 else [cols]):
        assert _keep_rows(m, keep).tobytes() == _keep_rows_two_index(m, keep).tobytes()
        # a strided input too, which the engine never passes
        wide = np.repeat(m, 2, axis=1)[:, ::2]
        assert _keep_rows(wide, keep).tobytes() == _keep_rows_two_index(m, keep).tobytes()


# arrays of every kind of double: +-0, +-inf, NaN, subnormals, +-1e308 and ordinary values
_EDGE_DOUBLES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                          -1e-310, 1e308, -1e308, 1.0, -3.5, 0.1, 7e-200, -123456.789])


@pytest.mark.parametrize("c", [0.0, 0.05, 0.6, 5e-324, 1e-300, 1e308])
def test_a_zero_d_coefficient_gives_the_python_float_bits(c):
    # the engine and the compressors multiply and divide by 0-d float64 arrays built once,
    # not by Python floats: the same binary64 operation in either operand order
    x = np.concatenate([_EDGE_DOUBLES, np.random.default_rng(1).standard_normal(64)])
    x = np.stack([x, -x[::-1]])
    a = np.array(c)
    with np.errstate(all="ignore"):
        assert (x * a).tobytes() == (c * x).tobytes()
        assert (a * x).tobytes() == (c * x).tobytes()
        assert (x / a).tobytes() == (x / c).tobytes()
        assert (a / x).tobytes() == (c / x).tobytes()


@pytest.mark.parametrize("kind", [
    Identity(), UnbiasedQuantize(bits=2, q=math.inf), UnbiasedQuantize(bits=1, q=2),
    UnbiasedQuantize(bits=3, q=1), TopK(k=1), TopK(k=3), RandK(k=1), RandK(k=3),
    NormSign(q=2), NormSign(q=math.inf), RescaledNormSign(q=1, r=3.0),
])
def test_an_empty_block_compresses_to_an_empty_block(kind):
    out = _apply_rows(kind, np.zeros((0, 5)), np.zeros((0, 5)))
    assert out.shape == (0, 5) and out.dtype == np.float64


def test_quantizer_resets_an_underflowing_row_to_positive_zero():
    # the squared 2-norm of +-1e-200 rounds to 0, so the row maps to +0.0 everywhere,
    # whatever the dither
    m = np.array([[1e-200, -1e-200, -1e-200]])
    out = _quantize_rows(m, UnbiasedQuantize(bits=2, q=2), np.full((1, 3), 0.9))
    assert out.tobytes() == np.zeros((1, 3)).tobytes()


def test_two_norm_past_the_square_overflow_is_the_max_scaled_norm():
    # (1e200)^2 overflows, the 2-norm 1.063e200 does not; a row whose squares stay
    # finite keeps the plain sum's bits
    x = np.array([1e200, -3e199, 2e199])
    small = np.array([3.0, -4.0, 12.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signs = _apply_rows(NormSign(q=2), np.vstack([x, small]), None)
        rescaled = compress(RescaledNormSign(q=2, r=4.0), x)
        quant = compress(UnbiasedQuantize(bits=2, q=2), x, rng_for())
    norm = math.hypot(*x)
    np.testing.assert_allclose(signs[0], norm * np.sign(x), rtol=1e-15)
    assert signs[1].tobytes() == (np.sqrt((small * small).sum()) * np.sign(small)).tobytes()
    np.testing.assert_allclose(rescaled, norm / 4.0 * np.sign(x), rtol=1e-15)
    # each quantized entry is sign(x) times a level in {0, 1, 2} of norm/2
    levels = quant / (norm / 2) * np.sign(x)
    np.testing.assert_allclose(levels, np.round(levels), atol=1e-12)
    assert np.isin(np.round(levels), [0, 1, 2]).all()


def test_quantizer_entries_past_dbl_max_over_the_scale_are_exact():
    # 2 * 9e307 and 2**52 * 1e293 overflow; the quotient by the norm does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two = compress(UnbiasedQuantize(bits=2, q=math.inf), np.array([9e307, 1.0]), rng_for())
        many = compress(UnbiasedQuantize(bits=53, q=math.inf), np.array([1e293, 3e292]),
                        rng_for())
    assert two.tobytes() == np.array([9e307, 0.0]).tobytes()
    # each b = 53 entry is finite and within one level, 1e293 / 2**52, of its input
    assert np.abs(many - [1e293, 3e292]).max() <= 1e293 * 2.0**-52


def test_a_row_whose_norm_passes_dbl_max_compresses_at_a_power_of_two_scale():
    # the 1-norm of twenty 1e307 is 2e308, past DBL_MAX, while every output is finite:
    # each quantized entry is a level in {0, 1} of 1e308, and the rescaled norm-sign 1e307
    huge = np.full(20, 1e307)
    small = np.random.default_rng(3).standard_normal(20)
    kind = UnbiasedQuantize(bits=2, q=1)
    u = _draw_block(kind, 7, 2, 20, [0], 0, 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quant = _quantize_rows(np.vstack([huge, small]), kind, u)
        rescaled = compress(RescaledNormSign(q=1, r=20.0), huge)
        signs = compress(NormSign(q=1), np.array([1e308, 1e308, 0.0, -1.0]))
        two_norm = _quantize_rows(np.full((1, 2), 1.5e308), UnbiasedQuantize(bits=2, q=2),
                                  np.array([[0.0, 0.9]]))[0]
    assert np.isfinite(quant[0]).all() and quant[0].any()
    assert quant[0][quant[0] != 0] == pytest.approx(1e308, rel=1e-15)
    # the other row keeps its bits
    assert quant[1].tobytes() == _quantize_rows(small[None], kind, u[1:]).tobytes()
    assert rescaled == pytest.approx(np.full(20, 1e307), rel=1e-15)
    # the exact norm-sign is +-inf, and 0 at a zero entry
    assert signs.tobytes() == np.array([np.inf, np.inf, 0.0, -np.inf]).tobytes()
    # levels 1 and 2 of half the 2-norm, 1.06e308: the second passes DBL_MAX
    assert two_norm[0] == pytest.approx(1.5e308 / math.sqrt(2), rel=1e-15)
    assert two_norm[1] == math.inf


def _scale_huge_rows_reference(m, norms, q):
    # the overflow scale as it was before its early return: the finite-row mask over the
    # whole block, on every call
    if q == math.inf:
        return None
    huge = np.isinf(norms) & np.isfinite(m).all(axis=1)
    if not huge.any():
        return None
    e = m.shape[1].bit_length()
    norms[huge] = compression._row_norms(np.ldexp(m[huge], -e), q)
    return huge, e


@pytest.mark.parametrize("q", [1, 2])
def test_rows_that_overflow_among_others_keep_their_bytes(monkeypatch, q):
    # rows 1 and 4 have a q-norm past DBL_MAX and row 3 an inf entry, among ordinary rows
    # and a zero row; the early return for a block with no inf norm changes no byte
    rng = np.random.default_rng(q)
    m = rng.standard_normal((7, 20))
    m[1] = 1e307 * np.sign(m[1])
    m[4, ::2] = 1.7e308
    m[3, 5] = -np.inf
    m[6] = 0.0
    kinds = [UnbiasedQuantize(bits=2, q=q), UnbiasedQuantize(bits=8, q=q), NormSign(q=q),
             RescaledNormSign(q=q, r=3.0)]
    u = _draw_block(kinds[0], 11, 7, 20, [0], 0, 1)[0]

    def outputs(rows):
        with np.errstate(over="ignore", invalid="ignore"):
            return [_apply_rows(kind, m[rows], u[rows]).tobytes() for kind in kinds]

    # the whole block, and its ordinary rows alone
    got = [outputs(slice(None)), outputs([0, 2, 5])]
    monkeypatch.setattr(compression, "_scale_huge_rows", _scale_huge_rows_reference)
    assert got == [outputs(slice(None)), outputs([0, 2, 5])]
    # the overflowing rows are quantized at the power-of-two scale: no NaN, not all zero
    quant = np.frombuffer(got[0][0]).reshape(7, 20)
    assert not np.isnan(quant[[1, 4]]).any() and quant[[1, 4]].any()


def _mix64_reference(z):
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _uniforms_reference(m, *words):
    # the key fold on uint64 arrays for every word, scalar or not
    phi = np.uint64(0x9E3779B97F4A7C15)
    h = np.zeros(1, dtype=np.uint64)
    for word in words:
        w = (np.atleast_1d(word).astype(np.uint64) if isinstance(word, np.ndarray)
             else np.asarray([int(word) & (2**64 - 1)], dtype=np.uint64))
        h = _mix64_reference(h ^ (w + phi))
    z = _mix64_reference(h[..., None] + np.arange(1, m + 1, dtype=np.uint64) * phi)
    z >>= np.uint64(11)
    return z * 2.0 ** -53


_KEY_WORDS = [
    (), (0,), (5,), (2**64 - 1,), (2**64 + 7,), (-1,), (-(2**63),),
    (123, 4, 56, 2), (np.int64(-3), np.uint64(2**64 - 1), np.int32(7), np.uint8(200)),
    (2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1), (True, 3),
    (np.array(9), 1, 2), (4, np.array(2**63), 5), (4, 5, np.array(-2)),
    (np.arange(3), 1, 2, 3), (1, np.arange(4), 2, 3), (1, 2, np.arange(5)[:, None, None], 3),
    (1, 2, 3, np.arange(3)), (2**64 - 1, np.arange(4), np.arange(3)[:, None], 2**64 - 1),
    (7, np.array([2**64 - 1, 0], dtype=np.uint64), np.array([-1, 1]), 0),
]


@pytest.mark.parametrize("words", _KEY_WORDS)
@pytest.mark.parametrize("m", [1, 20])
def test_scalar_first_key_fold_equals_the_array_fold(words, m):
    got = compression._uniforms(m, *words)
    want = _uniforms_reference(m, *words)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_identity_returns_input_and_full_bit_cost():
    x = np.array([1.0, 2.0, -3.0])
    assert np.array_equal(compress(Identity(), x), x)
    assert bit_cost(Identity(), x.size) == 64 * 3


@pytest.mark.parametrize("kind", [
    Identity(), TopK(k=2), RandK(k=2), NormSign(q=2),
    RescaledNormSign(q=2, r=4.0), UnbiasedQuantize(bits=3, q=1),
])
def test_zero_vector_maps_to_zero(kind):
    out = compress(kind, np.zeros(4), rng_for())
    assert np.array_equal(out, np.zeros(4))


def test_compress_rejects_bad_inputs():
    with pytest.raises(CompressionError):
        compress(TopK(k=5), np.ones(3))
    with pytest.raises(CompressionError):
        compress(Identity(), np.array([1.0, np.nan]))
    with pytest.raises(CompressionError):
        compress(Identity(), np.array([np.inf, 1.0]))
    with pytest.raises(CompressionError):
        UnbiasedQuantize(bits=0, q=2)
    with pytest.raises(CompressionError):
        UnbiasedQuantize(bits=54, q=2)
    with pytest.raises(CompressionError):
        compress(RandK(k=1), np.ones(3))  # stochastic kind without a stream


# ---------------------------------------------------------------------------
# keyed streams


def test_stream_identical_keys_identical_sequences():
    a = RngStream(seed=9, agent=4, iteration=100, tag=2)
    b = RngStream(seed=9, agent=4, iteration=100, tag=2)
    assert np.array_equal(a.uniform(32), b.uniform(32))


def test_stream_distinct_keys_differ():
    base = RngStream(seed=9, agent=4, iteration=100, tag=2).uniform(32)
    for other in [RngStream(10, 4, 100, 2), RngStream(9, 5, 100, 2),
                  RngStream(9, 4, 101, 2), RngStream(9, 4, 100, 3)]:
        assert not np.array_equal(base, other.uniform(32))


@pytest.mark.parametrize("word", [np.int64(1), np.uint64(1), np.int32(1)])
def test_stream_numpy_integer_words_fold_as_python_ints(word):
    # each key word, a NumPy integer or the equal Python int, gives the same stream
    want = RngStream(11, 0, 0, 1).uniform(3)
    assert RngStream(11, 0, 0, word).uniform(3).tobytes() == want.tobytes()
    assert RngStream(np.int64(11), np.int64(0), np.uint64(0), word).uniform(3).tobytes() == \
        want.tobytes()
    negative = RngStream(11, 0, 0, np.int64(-3)).uniform(3)
    assert negative.tobytes() == RngStream(11, 0, 0, -3).uniform(3).tobytes()


def test_stream_uniform_statistics():
    u = RngStream(seed=77).uniform(200_000)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_stream_subset_is_uniform_over_pairs():
    # the support random-2 keeps out of 4 entries: every index equally often,
    # and every one of the 6 pairs equally often
    x = np.array([1.0, 2.0, 3.0, 4.0])
    counts = np.zeros(4)
    pairs: dict[tuple[int, ...], int] = {}
    for it in range(4000):
        kept = tuple(np.flatnonzero(compress(RandK(k=2), x, RngStream(seed=5, iteration=it))))
        assert len(kept) == 2
        counts[list(kept)] += 1
        pairs[kept] = pairs.get(kept, 0) + 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.25) < 0.02)
    assert len(pairs) == 6
    assert all(abs(c / 4000 - 1 / 6) < 0.03 for c in pairs.values())


def test_compressed_message_determinism_byte_for_byte():
    x = np.linspace(-1, 1, 20)
    kind = UnbiasedQuantize(bits=2, q=math.inf)
    a = compress(kind, x, rng_for(agent=1, k=7, tag=1))
    b = compress(kind, x, rng_for(agent=1, k=7, tag=1))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", [
    UnbiasedQuantize(bits=2, q=math.inf), RandK(k=3), TopK(k=3), NormSign(q=1),
])
def test_compress_rows_matches_per_vector(kind):
    m = np.random.default_rng(2).standard_normal((6, 11))
    rows = compress_rows(kind, m, seed=4, iteration=9, tag=2)
    for i in range(6):
        one = compress(kind, m[i], RngStream(4, i, 9, 2))
        assert np.array_equal(rows[i], one)


def test_compress_rows_multi_matches_single_tag_calls():
    m1 = np.random.default_rng(3).standard_normal((5, 8))
    m2 = np.random.default_rng(4).standard_normal((5, 8))
    kind = UnbiasedQuantize(bits=2, q=2)
    a1, a2 = compress_rows_multi(kind, [m1, m2], _draw_block(kind, 6, 5, 8, [1, 3], 2, 3)[0])
    assert np.array_equal(a1, compress_rows(kind, m1, 6, 2, 1))
    assert np.array_equal(a2, compress_rows(kind, m2, 6, 2, 3))


@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("b", [1, 2, 4])
@pytest.mark.parametrize("kind", [UnbiasedQuantize(bits=2, q=math.inf), RandK(k=2)])
def test_block_drawn_uniforms_equal_per_iteration_draws(kind, b, n):
    # iteration ranges of the engine's blocks that start and end anywhere, out of order
    p, seed = 20, 11
    tags = [1, 2, 3, 4][:b]
    rng = np.random.default_rng(b * n)
    for start, stop in ((7, 8), (0, 3), (19, 22), (500, 501), (3, 3)):
        u = _draw_block(kind, seed, n, p, tags, start, stop)
        assert u.shape == (stop - start, b * n, p)
        # row t*n + i of entry j is the public stream of agent i, iteration start + j, tag t
        for j, k in enumerate(range(start, stop)):
            want = [RngStream(seed, i, k, t).uniform(p) for t in tags for i in range(n)]
            assert np.array_equal(u[j], want)
            m = rng.standard_normal((b, n, p))
            got = compress_rows_multi(kind, m, u[j])
            want = _apply_rows(kind, m.reshape(b * n, p), u[j])
            assert np.array_equal(got, want.reshape(b, n, p))


@pytest.mark.parametrize("kind", [Identity(), TopK(k=2), NormSign(q=1)])
def test_deterministic_kinds_draw_nothing(kind):
    assert _draw_block(kind, 11, 10, 20, [1, 2], 4, 7) == [None] * 3


# ---------------------------------------------------------------------------
# bit accounting


@pytest.mark.parametrize("kind,p,expected", [
    (Identity(), 20, 1280),
    (UnbiasedQuantize(bits=2, q=math.inf), 20, 64 + 20 + 40),
    (TopK(k=1), 20, 64 + 5),
    (RandK(k=3), 20, 3 * (64 + 5)),
    (NormSign(q=2), 20, 64 + 20),
    (RescaledNormSign(q=2, r=20), 20, 64 + 20),
])
def test_bit_costs(kind, p, expected):
    assert bit_cost(kind, p) == expected


# ---------------------------------------------------------------------------
# profiles and bounds


def test_analytic_profiles_table_values():
    p = 20
    prof = analytic_profile(NormSign(q=2), p)
    assert (prof.C, prof.delta, prof.r) == (19.0, 1 / 20, 20.0)
    prof = analytic_profile(NormSign(q=math.inf), p)
    assert (prof.C, prof.delta, prof.r) == (19.0, 1 / 400, 20.0)
    prof = analytic_profile(NormSign(q=1), p)
    assert (prof.C, prof.delta, prof.r) == (361.0, 1 / 20, 20.0)
    prof = analytic_profile(TopK(k=1), p)
    assert (prof.C, prof.delta, prof.r) == (0.95, 0.05, 1.0)
    prof = analytic_profile(Identity(), p)
    assert (prof.C, prof.delta, prof.r) == (0.0, 1.0, 1.0)
    assert analytic_profile(UnbiasedQuantize(bits=2, q=math.inf), p) is None


def test_estimate_variance_identity_and_full_topk_are_zero():
    assert estimate_contraction(Identity(), 1.0, 6, trials=1000) == 0.0
    assert estimate_contraction(TopK(k=6), 1.0, 6, trials=1000) == 0.0
    assert estimate_contraction(RandK(k=6), 1.0, 6, trials=1000) == 0.0


@pytest.mark.parametrize("q", [1, 2, math.inf])
@pytest.mark.parametrize("p", [2, 5, 20])
def test_normsign_bounds_hold_empirically(q, p):
    prof = analytic_profile(NormSign(q=q), p)
    ratio = estimate_contraction(NormSign(q=q), 1.0, p, trials=2000, rng=0)
    assert ratio <= prof.C * (1 + 1e-12)
    contr = estimate_contraction(NormSign(q=q), prof.r, p, trials=2000, rng=0)
    assert contr <= (1 - prof.delta) * (1 + 1e-12)


def test_topk_contraction_per_input():
    rng = np.random.default_rng(8)
    p, k = 12, 3
    for _ in range(200):
        x = rng.standard_normal(p)
        q = compress(TopK(k=k), x)
        assert np.sum((q - x) ** 2) <= (1 - k / p) * np.sum(x**2) * (1 + 1e-9)


def test_randk_exact_expectation_from_drop_probability():
    # each coordinate is dropped with probability 1 - k/p, so the expected
    # squared error is exactly (1 - k/p) ||x||^2
    p, k = 10, 3
    x = np.random.default_rng(1).standard_normal(p)
    reps = 4000
    total = 0.0
    for rep in range(reps):
        q = compress(RandK(k=k), x, RngStream(seed=2, iteration=rep))
        total += float(np.sum((q - x) ** 2))
    expect = (1 - k / p) * float(np.sum(x**2))
    assert total / reps == pytest.approx(expect, rel=0.05)


def test_quantizer_unbiasedness():
    kind = UnbiasedQuantize(bits=2, q=math.inf)
    x = np.linspace(-1.0, 1.0, 10)
    reps = 20_000
    acc = np.zeros_like(x)
    acc_sq = np.zeros_like(x)
    for rep in range(reps):
        qv = compress(kind, x, RngStream(seed=3, iteration=rep))
        acc += qv
        acc_sq += qv**2
    mean = acc / reps
    se = np.sqrt(np.maximum(acc_sq / reps - mean**2, 0) / reps)
    assert np.all(np.abs(mean - x) <= 5 * se + 1e-12)


def test_empirical_profile_quantizer_is_contractive_here():
    prof = empirical_profile(UnbiasedQuantize(bits=2, q=math.inf), 20, trials=2000)
    assert prof.provenance == "empirical"
    assert prof.C < 1.0
    assert prof.delta == pytest.approx(1.0 - prof.C)
    assert prof.r == 1.0


def test_estimate_requires_enough_trials():
    with pytest.raises(CompressionError):
        estimate_contraction(Identity(), 1.0, 4, trials=10)


def test_profile_validation():
    with pytest.raises(CompressionError):
        CompressorProfile(C=1.0, delta=0.0, r=1.0)
    with pytest.raises(CompressionError):
        CompressorProfile(C=-0.1, delta=0.5, r=1.0)


# ---------------------------------------------------------------------------
# config strings


@pytest.mark.parametrize("text,kind", [
    ("identity", Identity()),
    ("quant:b=2,q=inf", UnbiasedQuantize(bits=2, q=math.inf)),
    ("topk:k=1", TopK(k=1)),
    ("randk:k=4", RandK(k=4)),
    ("normsign:q=inf", NormSign(q=math.inf)),
    ("normsign-rescaled:q=inf,r=20", RescaledNormSign(q=math.inf, r=20.0)),
])
def test_parse_compressor_round_trip(text, kind):
    assert parse_compressor(text) == kind
    assert parse_compressor(compressor_label(kind)) == kind


def test_parse_compressor_errors():
    with pytest.raises(CompressionError):
        parse_compressor("huffman")
    with pytest.raises(CompressionError):
        parse_compressor("topk")  # missing k
    with pytest.raises(CompressionError):
        parse_compressor("quant:b=2,q=3")
    # malformed numbers are compressor errors too, never a bare ValueError
    for text in ("quant:b=x,q=inf", "topk:k=1.5", "quant:b=2,q=abc",
                 "normsign-rescaled:q=inf,r=zz", "normsign-rescaled:q=inf,r=nan"):
        with pytest.raises(CompressionError, match="compressor|scale"):
            parse_compressor(text)


_norm_index = st.sampled_from([1, 2, math.inf])


@given(st.one_of(
    st.just(Identity()),
    st.builds(UnbiasedQuantize, bits=st.integers(1, 53), q=_norm_index),
    st.builds(TopK, k=st.integers(min_value=1)),
    st.builds(RandK, k=st.integers(min_value=1)),
    st.builds(NormSign, q=_norm_index),
    st.builds(RescaledNormSign, q=_norm_index,
              r=st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
))
@example(RescaledNormSign(q=math.inf, r=1234567.0))  # 1.23457e+06 at 6 digits
@settings(max_examples=300, deadline=None)
def test_compressor_label_round_trips(kind):
    assert parse_compressor(compressor_label(kind)) == kind


# ---------------------------------------------------------------------------
# property tests


# magnitudes bounded away from the subnormal range: scaling by c must not
# underflow entries to zero, or the support genuinely changes
_entries = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 1e-150 else v)


@given(st.lists(_entries, min_size=1, max_size=16),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_topk_support_invariant_under_positive_scaling(values, c):
    x = np.asarray(values)
    # rounding c*x can close a gap of an ulp or two between the largest magnitude
    # and the next smaller one (e.g. 999999.9999999999 vs 1e6), which moves top-1
    # to the tie-break, also when the largest magnitude itself is tied
    top = np.sort(np.abs(x))[::-1]
    below = top[top < top[0]]
    assume(below.size == 0 or top[0] - below[0] > 2 * np.spacing(top[0]))
    a = compress(TopK(k=1), x)
    b = compress(TopK(k=1), c * x)
    assert np.array_equal(a != 0, b != 0)
    assert np.array_equal(np.sign(a), np.sign(b))


@given(st.lists(_entries, min_size=2, max_size=16),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_normsign_sign_pattern_invariant_under_positive_scaling(values, c):
    x = np.asarray(values)
    a = compress(NormSign(q=math.inf), x)
    b = compress(NormSign(q=math.inf), c * x)
    assert np.array_equal(np.sign(a), np.sign(b))


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=64),
       st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_stream_determinism_property(seed, agent, k, tag):
    s1 = RngStream(seed=seed, agent=agent, iteration=k, tag=tag)
    s2 = RngStream(seed=seed, agent=agent, iteration=k, tag=tag)
    assert np.array_equal(s1.uniform(5), s2.uniform(5))


# ---------------------------------------------------------------------------
# golden draws: exact outputs of the keyed streams, pinned so that any change
# to the key hash or the kernels shows up as a failure


def test_golden_compress_rows_multi():
    m1 = np.array([[1.0, -0.5, 0.25, 0.75], [0.0, 2.0, -1.0, 0.5]])
    m2 = np.array([[-3.0, 1.5, 0.0, 0.75], [0.125, 0.25, -0.5, 1.0]])
    quant = UnbiasedQuantize(bits=2, q=math.inf)
    q = compress_rows_multi(quant, [m1, m2], _draw_block(quant, 6, 2, 4, [1, 3], 2, 3)[0])
    assert [a.tolist() for a in q] == [[[1.0, -0.5, 0.0, 1.0], [0.0, 2.0, -1.0, 1.0]],
                                       [[-3.0, 1.5, 0.0, 1.5], [0.0, 0.0, -0.5, 1.0]]]
    randk = RandK(k=2)
    r = compress_rows_multi(randk, [m1, m2], _draw_block(randk, 6, 2, 4, [1, 3], 2, 3)[0])
    assert [a.tolist() for a in r] == [[[0.0, -0.5, 0.25, 0.0], [0.0, 0.0, -1.0, 0.0]],
                                       [[-3.0, 1.5, 0.0, 0.0], [0.0, 0.0, -0.5, 1.0]]]


def test_golden_compress_with_stream():
    x = np.array([1.0, -0.5, 0.25, 0.75, -2.0, 0.0])
    q = compress(UnbiasedQuantize(bits=2, q=2), x, RngStream(seed=11, agent=3, iteration=5, tag=2))
    assert q.tolist() == [0.0, -0.0, 0.0, 1.2119199643540823, -2.4238399287081647, 0.0]
    q = compress(RandK(k=3), x, RngStream(seed=11, agent=3, iteration=5, tag=4))
    assert q.tolist() == [1.0, 0.0, 0.25, 0.0, 0.0, 0.0]
    u = RngStream(seed=9, agent=4, iteration=100, tag=2).uniform(3)
    assert [v.hex() for v in u.tolist()] == [
        "0x1.a4373b6246b30p-1", "0x1.90a8b46727cc6p-1", "0x1.7b5a80ace23e4p-1"]


def test_golden_default_x0_uniform():
    from cgtsim.algorithms import default_x0
    from cgtsim.problems import generate_ridge

    u = default_x0(generate_ridge(3, 4, 0.01, 1.0, seed=0), seed=5, init="uniform")
    assert [[v.hex() for v in row] for row in u[:, :2].tolist()] == [
        ["0x1.255cfbf9913d3p-1", "0x1.613b78788b85ep-2"],
        ["0x1.787313cfb7140p-7", "0x1.8c04350b3de83p-1"],
        ["0x1.f334622d70266p-2", "0x1.3c141475dc942p-2"],
    ]


def test_golden_estimate_contraction_quantizer():
    est = estimate_contraction(UnbiasedQuantize(bits=2, q=math.inf), 1.0, 20,
                               trials=10_000, rng=0)
    assert est.hex() == "0x1.e6ceab685fa3bp-2"  # 0.4753977568106255


def reference_contraction(kind, r, p, trials, rng):
    """Per-draw reference for estimate_contraction: one compress call per repetition.

    Input t is compressed with the stream keyed by (seed_t, t, rep, 0), seed_t
    drawn from the same generator right after the inputs.
    """
    gen = np.random.default_rng(rng)
    inner = _INNER_REPS if isinstance(kind, (UnbiasedQuantize, RandK)) else 1
    count = max(1, trials // inner)
    xs = _test_inputs(p, count, gen)
    worst = 0.0
    for t in range(count):
        seed = int(gen.integers(2**32))
        errs = np.array([
            float(np.sum((compress(kind, xs[t], RngStream(seed=seed, agent=t, iteration=rep)) / r
                          - xs[t]) ** 2))
            for rep in range(inner)
        ])
        worst = max(worst, float(errs.mean()))
    return worst


@pytest.mark.parametrize("kind,r", [
    (UnbiasedQuantize(bits=2, q=math.inf), 1.0),
    (NormSign(q=2), 7.0),
])
def test_estimate_contraction_equals_per_draw_reference(kind, r):
    # 2600 trials leave a partial last block for both kinds
    est = estimate_contraction(kind, r, 7, trials=2600, rng=4)
    assert est == reference_contraction(kind, r, 7, trials=2600, rng=4)
