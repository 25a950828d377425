import warnings

import numpy as np
import pytest

from cgtsim.topology import (
    Graph,
    TopologyError,
    build_ring,
    build_weights_laplacian,
    build_weights_outdegree,
    check_doubly_stochastic,
    spectral_info,
    spectral_norm,
)


def test_ring_directed_edges():
    g = build_ring(3, directed=True)
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 0)})


def test_ring_undirected_has_both_directions():
    g = build_ring(3, directed=False)
    assert len(g.edges) == 6
    for i, j in g.edges:
        assert (j, i) in g.edges


def test_ring_strongly_connected_out_degree_one():
    g = build_ring(10, directed=True)
    senders = sorted(i for i, _ in g.edges)
    assert senders == list(range(10))  # every agent sends along exactly one edge


def test_ring_rejects_small_n():
    with pytest.raises(TopologyError):
        build_ring(1, directed=True)


def test_graph_rejects_self_loop():
    with pytest.raises(TopologyError, match="self-loop"):
        Graph(n=2, edges=frozenset({(0, 0), (0, 1), (1, 0)}))


def test_graph_rejects_disconnected():
    with pytest.raises(TopologyError, match="strongly connected"):
        Graph(n=3, edges=frozenset({(0, 1), (1, 0)}))


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


def test_outdegree_weights_asymmetric_p_fails_validation():
    # the out-neighbor construction is only doubly stochastic when the
    # per-agent weights balance; validation catches the broken column
    g = build_ring(5, directed=True)
    with pytest.raises(TopologyError, match="column"):
        build_weights_outdegree(g, np.array([0.1, 0.2, 0.1, 0.2, 0.1]))


def test_outdegree_weights_constant_vector_p_accepted():
    W = build_weights_outdegree(build_ring(5, directed=True), np.full(5, 0.3))
    assert W.matrix[0, 1] == pytest.approx(0.3)


def test_laplacian_weights_ring():
    W = build_weights_laplacian(build_ring(4, directed=False), 0.25)
    m = W.matrix
    assert np.allclose(np.diag(m), 0.5)
    assert m[0, 1] == pytest.approx(0.25)
    assert m[0, 3] == pytest.approx(0.25)
    assert m[0, 2] == 0.0


def test_laplacian_complete_graph_gives_uniform_averaging():
    n = 5
    edges = frozenset((i, j) for i in range(n) for j in range(n) if i != j)
    g = Graph(n=n, edges=edges, directed=False)
    W = build_weights_laplacian(g, 1.0 / n)
    assert np.allclose(W.matrix, np.full((n, n), 1.0 / n))


def test_laplacian_rejects_large_a():
    with pytest.raises(TopologyError, match="need a <="):
        build_weights_laplacian(build_ring(4, directed=False), 0.6)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_parameter_refused_by_name(value):
    g = build_ring(4, directed=False)
    # refused before any arithmetic, so numpy has nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TopologyError, match=r"^per-agent weights p_i must be finite, got p="):
            build_weights_outdegree(g, value)
        with pytest.raises(TopologyError, match=r"^per-agent weights p_i must be finite"):
            build_weights_outdegree(g, np.array([0.1, value, 0.1, 0.1]))
        with pytest.raises(TopologyError, match=r"^tuning parameter a must be positive and finite"):
            build_weights_laplacian(g, value)


def test_check_doubly_stochastic_names_offender():
    m = build_weights_outdegree(build_ring(5, directed=True), 0.1).matrix.copy()
    m[2, 3] += 1e-6
    ok, detail = check_doubly_stochastic(m)
    assert not ok
    assert "2" in detail or "3" in detail


def test_spectral_info_uniform_averaging():
    n = 6
    info = spectral_info(np.full((n, n), 1.0 / n))
    assert info.rho_w == pytest.approx(0.0, abs=1e-12)
    assert info.s == pytest.approx(1.0)


def test_spectral_info_identity_disconnected_limit():
    info = spectral_info(np.eye(7))
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
    info = spectral_info(build_weights_laplacian(build_ring(12, directed=False), 0.25))
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
    g = build_ring(3, directed=True)
    with pytest.raises(TopologyError, match="not doubly stochastic"):
        spectral_info(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5]]))
    # also via the WeightMatrix constructor path
    from cgtsim.topology import WeightMatrix
    bad = np.array([[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.1, 0.7]])
    with pytest.raises(TopologyError):
        WeightMatrix(graph=g, matrix=bad)
