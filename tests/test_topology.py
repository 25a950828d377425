import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cgtsim import topology
from cgtsim.harness import TopologySpec, make_topology
from cgtsim.topology import (
    TopologyError,
    WeightMatrix,
    build_ring,
    build_weights_outdegree,
    check_doubly_stochastic,
    spectral_info,
    spectral_norm,
)


def _support(W):
    return {(int(i), int(j)) for i, j in np.argwhere(W.matrix != 0) if i != j}


def test_ring_directed_edges():
    ring = build_ring(3, directed=True)
    assert ring.offsets == (1,)
    assert _support(build_weights_outdegree(ring, 0.1)) == {(0, 1), (1, 2), (2, 0)}


def test_ring_undirected_has_both_directions():
    ring = build_ring(3, directed=False)
    assert ring.offsets == (1, 2)
    edges = _support(build_weights_outdegree(ring, 0.1))
    assert len(edges) == 6
    for i, j in edges:
        assert (j, i) in edges
    # at n = 2 both directions are the one edge 0 <-> 1
    pair = build_ring(2, directed=False)
    assert pair.offsets == (1,)
    assert _support(build_weights_outdegree(pair, 0.1)) == {(0, 1), (1, 0)}


def test_ring_strongly_connected_out_degree_one():
    W = build_weights_outdegree(build_ring(10, directed=True), 0.1)
    senders = sorted(i for i, _ in _support(W))
    assert senders == list(range(10))  # every agent sends along exactly one edge
    # with self-weights, W^(n-1) is positive exactly when the ring is strongly connected
    assert np.all(np.linalg.matrix_power(W.matrix, 9) > 0)


def test_ring_rejects_small_n():
    with pytest.raises(TopologyError, match=r"^ring needs n >= 2, got n=1$"):
        build_ring(1, directed=True)


def _ring_oracle(n, directed, value):
    """W of either scheme by explicit loops over the ring's edge set: ``value`` (p or a)
    on each edge, 1 - deg*value on the diagonal."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    if not directed:
        edges |= {(j, i) for i, j in edges}
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = 1.0 - sum(1 for s, _ in edges if s == i) * value
    for i, j in edges:
        m[i, j] = value
    return m


@pytest.mark.parametrize("n", [2, 3, 4, 10, 1000])
@pytest.mark.parametrize("directed", [True, False])
def test_ring_weights_equal_loop_oracle_bytes(n, directed):
    # byte for byte, so a signed zero or a last-bit difference counts; the Laplacian
    # spelling builds the same stencil with p = a
    for weights, value in (("outdegree", 0.1), ("outdegree", 1 / 3),
                           ("laplacian", 0.25), ("laplacian", 0.3)):
        spec = TopologySpec(n=n, directed=directed, weights=weights, p=value, a=value)
        m = make_topology(spec).matrix
        assert m.tobytes() == _ring_oracle(n, directed, value).tobytes(), (weights, value)
        assert not m.flags.writeable


def test_outdegree_weights_directed_ring():
    W = build_weights_outdegree(build_ring(10, directed=True), 0.1)
    m = W.matrix
    assert np.allclose(np.diag(m), 0.9)
    for i in range(10):
        assert m[i, (i + 1) % 10] == pytest.approx(0.1)


def test_outdegree_weights_undirected_ring_sums():
    W = build_weights_outdegree(build_ring(10, directed=False), 0.1)
    m = W.matrix
    assert np.allclose(np.diag(m), 0.8)
    # direct summation oracle
    for i in range(10):
        assert abs(sum(m[i, j] for j in range(10)) - 1.0) < 1e-12
        assert abs(sum(m[j, i] for j in range(10)) - 1.0) < 1e-12


def test_outdegree_weights_rejects_oversized_p():
    g = build_ring(4, directed=False)  # out-degree 2
    with pytest.raises(TopologyError, match="1 - Deg_out"):
        build_weights_outdegree(g, 0.5)


def test_outdegree_weights_refuse_vector_p():
    # on a ring only a constant per-agent p is doubly stochastic, and a scalar says that
    g = build_ring(5, directed=True)
    message = r"^weight p must be a scalar, got an array of shape \(5,\)$"
    for p in (np.array([0.1, 0.2, 0.1, 0.2, 0.1]), np.full(5, 0.3)):
        with pytest.raises(TopologyError, match=message):
            build_weights_outdegree(g, p)


def _laplacian(n, directed, a):
    return make_topology(TopologySpec(n=n, directed=directed, weights="laplacian", a=a))


def test_laplacian_weights_ring():
    W = _laplacian(4, False, 0.25)
    m = W.matrix
    assert np.allclose(np.diag(m), 0.5)
    assert m[0, 1] == pytest.approx(0.25)
    assert m[0, 3] == pytest.approx(0.25)
    assert m[0, 2] == 0.0


def test_laplacian_rejects_large_a():
    # a = 1/deg leaves a zero self weight: a periodic ring with no spectral gap
    for a, diag in ((0.6, "-0.19999999999999996"), (0.5, "0.0")):
        message = rf"^agent 0: 1 - Deg_out\*p = {diag} <= 0 \(Deg_out=2, p={a}\)$"
        with pytest.raises(TopologyError, match=message):
            _laplacian(4, False, a)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_parameter_refused_by_name(value):
    g = build_ring(4, directed=False)
    # refused before any arithmetic, so numpy has nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TopologyError, match=r"^per-agent weights p_i must be finite, got p="):
            build_weights_outdegree(g, value)
        with pytest.raises(TopologyError, match=r"^weight p must be a scalar"):
            build_weights_outdegree(g, np.array([0.1, value, 0.1, 0.1]))
        with pytest.raises(TopologyError, match=r"^per-agent weights p_i must be finite, got p="):
            _laplacian(4, False, value)


def test_check_doubly_stochastic_names_offender():
    m = build_weights_outdegree(build_ring(5, directed=True), 0.1).matrix.copy()
    m[2, 3] += 1e-6
    ok, detail = check_doubly_stochastic(m)
    assert not ok
    assert "2" in detail or "3" in detail


def test_spectral_info_uniform_averaging():
    # the complete graph on 6 agents as a circulant: weight 1/6 at every offset
    info = spectral_info(WeightMatrix(n=6, offsets=(1, 2, 3, 4, 5), self_weight=1 / 6, weight=1 / 6))
    assert info.rho_w == pytest.approx(0.0, abs=1e-12)
    assert info.s == pytest.approx(1.0)


def test_spectral_info_identity_disconnected_limit():
    info = spectral_info(WeightMatrix(n=7, offsets=(), self_weight=1.0, weight=0.0))
    assert info.rho_w == pytest.approx(1.0, abs=1e-10)


def test_spectral_info_matches_svd_oracle():
    W = build_weights_outdegree(build_ring(10, directed=True), 0.1)
    info = spectral_info(W)
    dev = W.matrix - np.full((10, 10), 0.1)
    sv = np.linalg.svd(dev, compute_uv=False)[0]
    assert info.rho_w == pytest.approx(sv, abs=1e-9)
    sv_iw = np.linalg.svd(np.eye(10) - W.matrix, compute_uv=False)[0]
    assert info.norm_IminusW == pytest.approx(sv_iw, abs=1e-8)
    assert 0 <= info.rho_w < 1


def test_spectral_info_deterministic_bit_identical():
    W = build_weights_outdegree(build_ring(8, directed=False), 0.1)
    a = spectral_info(W)
    b = spectral_info(W)
    assert (a.rho_w, a.s, a.norm_IminusW) == (b.rho_w, b.s, b.norm_IminusW)


def test_spectral_norm_against_oracle_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((7, 7))
        assert spectral_norm(m) == pytest.approx(
            np.linalg.svd(m, compute_uv=False)[0], rel=1e-9)


# float.hex of (rho_w, s, norm_IminusW) as the power iteration gave them when it
# computed b @ v twice per step; the certificates print these, so a faster loop
# must reproduce them bit for bit
_SPECTRAL_GOLDEN = {
    (10, True): ("0x1.f71f5ed75aaf1p-1", "0x1.1c142514aa1e0p-6", "0x1.9999999942017p-3"),
    (10, False): ("0x1.ec717ebeb14f4p-1", "0x1.38e81414eb0c0p-5", "0x1.9999999991627p-2"),
    (37, True): ("0x1.ff56355964b18p-1", "0x1.53954d369d000p-10", "0x1.993b1ea59ffa7p-3"),
    (37, False): ("0x1.fe86ee0206281p-1", "0x1.7911fdf9d7f00p-9", "0x1.98dcb982212a2p-2"),
    (100, True): ("0x1.ffe8b861ddc96p-1", "0x1.7479e2236a000p-13", "0x1.9999996e28fd3p-3"),
    (100, False): ("0x1.ffcc45985a2acp-1", "0x1.9dd33d2eaa000p-12", "0x1.9999999430a1ep-2"),
}


@pytest.mark.parametrize("n,directed", sorted(_SPECTRAL_GOLDEN))
def test_spectral_info_golden_outdegree_rings(n, directed):
    info = spectral_info(build_weights_outdegree(build_ring(n, directed=directed), 0.1))
    assert (info.rho_w.hex(), info.s.hex(), info.norm_IminusW.hex()) == _SPECTRAL_GOLDEN[n, directed]


def test_spectral_golden_laplacian_random_and_zero():
    info = spectral_info(build_weights_outdegree(build_ring(12, directed=False), 0.25))
    assert (info.rho_w.hex(), info.s.hex(), info.norm_IminusW.hex()) == (
        "0x1.ddb3d742c1945p-1", "0x1.126145e9f35d8p-4", "0x1.fffffffffd048p-1")
    rng = np.random.default_rng(7)
    norms = [spectral_norm(rng.standard_normal((7, 7))).hex() for _ in range(3)]
    assert norms == ["0x1.04edcf284f429p+2", "0x1.a4b0c2c804dbdp+1", "0x1.1bbcd39607e3cp+2"]
    assert spectral_norm(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("directed", [True, False])
def test_mixing_contraction_lemma(directed):
    W = build_weights_outdegree(build_ring(10, directed=directed), 0.1)
    info = spectral_info(W)
    rng = np.random.default_rng(11)
    for _ in range(100):
        omega = rng.standard_normal((10, 5))
        bar = omega.mean(axis=0)
        lhs = np.linalg.norm(W.matrix @ omega - bar)
        rhs = info.rho_w * np.linalg.norm(omega - bar)
        assert lhs <= rhs + 1e-9


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
def test_lazy_mixing_contraction(gamma):
    W = build_weights_outdegree(build_ring(10, directed=True), 0.1)
    info = spectral_info(W)
    w_tilde = (1 - gamma) * np.eye(10) + gamma * W.matrix
    rng = np.random.default_rng(13)
    rho = 1 - gamma * info.s  # contraction factor of the lazy mixing on mean-zero matrices
    assert info.rho_w <= rho < 1
    for _ in range(100):
        omega = rng.standard_normal((10, 4))
        bar = omega.mean(axis=0)
        lhs = np.linalg.norm(w_tilde @ omega - bar)
        assert lhs <= rho * np.linalg.norm(omega - bar) + 1e-9


def test_weight_matrix_rejects_non_stochastic():
    with pytest.raises(TopologyError, match="not doubly stochastic"):
        WeightMatrix(n=3, offsets=(1,), self_weight=0.8, weight=0.3)


def _parent_dense(W):
    """W and I - W as the record built them when it held its dense form: the stencil
    written into zeros, and np.eye(n) minus that."""
    n = W.n
    m = np.zeros((n, n))
    rows = np.arange(n)
    m[rows, rows] = W.self_weight
    for k in W.offsets:
        m[rows, (rows + k) % n] = W.weight
    return m, np.eye(n) - m


@pytest.mark.parametrize("n", [2, 3, 4, 10, 37, 1000])
@pytest.mark.parametrize("directed", [True, False])
def test_dense_forms_equal_the_held_matrix_bytes(n, directed):
    # byte for byte, so the +0.0 of I - W where W is 0 and each last bit count
    ring = build_ring(n, directed=directed)
    for W in [build_weights_outdegree(ring, p) for p in (0.1, 0.25, 1e-300)] + [
            WeightMatrix(n, ring.offsets, 1.0, 0.0)]:
        want_m, want_iw = _parent_dense(W)
        for got, want in ((W.matrix, want_m), (W.i_minus_w, want_iw)):
            assert not got.flags.writeable
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), W


def test_weight_matrix_holds_no_array():
    for W in (build_weights_outdegree(build_ring(10, directed=False), 0.1),
              WeightMatrix(n=6, offsets=(1, 2, 3, 4, 5), self_weight=1 / 6, weight=1 / 6)):
        held = list(vars(W).values())  # every field and any attribute set on the record
        assert not any(isinstance(v, np.ndarray) for v in held), held
        assert W.matrix is not W.matrix  # built on each access, never cached


def test_weight_matrix_at_n_2000_leaves_no_dense_form():
    ring = build_ring(2000, directed=False)
    tracemalloc.start()
    try:
        W = build_weights_outdegree(ring, 0.1)  # its check builds a 30.5 MiB W and drops it
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.n == 2000
    assert held < 0.1 * 2**20


@pytest.mark.parametrize("offsets,self_weight,weight", [((0,), 0.0, 1.0), ((3,), 0.0, 1.0),
                                                        ((1, 6), 0.5, 0.5)])
def test_weight_matrix_refuses_an_offset_onto_the_diagonal(offsets, self_weight, weight):
    # an offset 0 mod n overwrites the diagonal: each of these passed the doubly
    # stochastic check, but I - W was not the stencil of 1 - self_weight and -weight
    with pytest.raises(TopologyError, match=r"^offsets must not be multiples of n=3"):
        WeightMatrix(n=3, offsets=offsets, self_weight=self_weight, weight=weight)


def _allocating_spectral_norm(m):
    """The power iteration as written before its steps reused two vectors: a fresh
    ``w / nw`` and ``b @ v`` each step, and the estimate returned once it settles."""
    m = np.asarray(m, dtype=float)
    b = m.T @ m
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(b.shape[0])
    v /= np.linalg.norm(v)
    w = b @ v
    lam = 0.0
    for _ in range(topology._POWER_MAX_ITER):
        nw = math.sqrt(w @ w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = b @ v
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= topology._POWER_TOL * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


@pytest.mark.parametrize("n", [2, 3, 10, 37, 100])
@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("p", [0.1, 0.2, 1e-300])
def test_spectral_info_equals_the_allocating_loop_bytes(n, directed, p):
    W = build_weights_outdegree(build_ring(n, directed=directed), p)
    info = spectral_info(W)
    rho_w = _allocating_spectral_norm(W.matrix - np.full((n, n), 1.0 / n))
    want = (rho_w, 1.0 - rho_w, _allocating_spectral_norm(np.eye(n) - W.matrix))
    assert [x.hex() for x in (info.rho_w, info.s, info.norm_IminusW)] == [x.hex() for x in want]


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 5), (7, 7), (20, 20), (64, 64), (257, 257),
                                   (9, 4), (4, 9), (100, 30), (30, 100)])
def test_spectral_norm_equals_the_allocating_loop_bytes(shape):
    rng = np.random.default_rng(2029)
    for _ in range(2):
        m = rng.standard_normal(shape)
        for mm in (m, np.asfortranarray(m), m * 1e-8, m * 1e8, m[::-1, ::2]):
            assert spectral_norm(mm).hex() == _allocating_spectral_norm(mm).hex()


@pytest.mark.parametrize("m", [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]]),
                               np.array([[1.0, -np.inf], [0.0, 1.0]]), 1e200 * np.eye(2),
                               1e80 * np.eye(3)])
def test_spectral_norm_refuses_a_matrix_it_cannot_iterate_on(m):
    # a NaN matrix ran the whole step budget and returned nan; at 1e80 I every step's
    # w . w overflowed, zeroed the iterate and returned 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TopologyError, match=r"^spectral norm needs a finite matrix"):
            spectral_norm(m)


def test_spectral_norm_refuses_an_unconverged_estimate(monkeypatch):
    W = build_weights_outdegree(build_ring(10, directed=True), 0.1)
    assert spectral_info(W).s > 0  # the default budget resolves it
    monkeypatch.setattr(topology, "_POWER_MAX_ITER", 20)
    with pytest.raises(TopologyError, match=r"^spectral norm's power iteration did not "
                                            r"converge in 20 steps: its estimate "):
        spectral_info(W)
