import warnings

import numpy as np
import pytest

from cgtsim.problems import (
    ProblemError,
    RidgeProblem,
    constants,
    generate_ridge,
    gradient_matrix,
    local_gradient,
    optimal_solution,
)


@pytest.fixture(scope="module")
def paper_instance():
    return generate_ridge(10, 20, 0.01, 5.0, seed=1)


def test_generate_dimensions_match_experiment(paper_instance):
    pb = paper_instance
    assert pb.n == 10 and pb.dim == 20
    assert pb.U.shape == (10, 20)
    assert np.all(np.abs(pb.U) <= 1.0)


def test_generate_deterministic():
    a = generate_ridge(5, 7, 0.1, 2.0, seed=42)
    b = generate_ridge(5, 7, 0.1, 2.0, seed=42)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.v, b.v)


def test_generate_levels_evenly_spaced():
    # noiseless draws: agent i observes u_i^T x~_i with x~_i the constant vector at level i/4
    pb = generate_ridge(5, 3, 0.1, 0.0, seed=0)
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(pb.v, levels * pb.U.sum(axis=1), rtol=1e-14, atol=1e-15)


def test_noiseless_single_agent_observation_exact():
    # a single agent's generating vector is the constant 0.5
    pb = generate_ridge(1, 6, 0.5, 0.0, seed=3)
    assert pb.v[0] == pytest.approx(0.5 * float(pb.U[0].sum()), abs=1e-15)


def test_local_gradient_hand_example():
    pb = RidgeProblem(U=np.array([[1.0, 0.0]]), v=np.array([2.0]), rho=1.0)
    g = local_gradient(pb, 0, np.array([1.0, 0.0]))
    # 2(1-2)(1,0) + 2(1,0) = (0,0)
    assert np.array_equal(g, [0.0, 0.0])


def test_local_gradient_zero_residual_no_penalty_limit():
    # with matching observation and tiny penalty the gradient shrinks to 2 rho x
    pb = RidgeProblem(U=np.array([[1.0, 1.0]]), v=np.array([2.0]), rho=1e-12)
    g = local_gradient(pb, 0, np.array([1.0, 1.0]))
    assert np.linalg.norm(g) <= 1e-11


def test_local_gradient_index_out_of_range(paper_instance):
    with pytest.raises(ProblemError):
        local_gradient(paper_instance, 10, np.zeros(20))


def test_gradient_matches_finite_differences(paper_instance):
    pb = paper_instance
    rng = np.random.default_rng(0)
    h = 1e-5

    def f_i(i, x):
        return float((pb.U[i] @ x - pb.v[i]) ** 2 + pb.rho * x @ x)

    for _ in range(100):
        i = int(rng.integers(pb.n))
        x = rng.standard_normal(pb.dim)
        g = local_gradient(pb, i, x)
        fd = np.empty_like(x)
        for j in range(pb.dim):
            e = np.zeros(pb.dim)
            e[j] = h
            fd[j] = (f_i(i, x + e) - f_i(i, x - e)) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))


def test_gradient_matrix_rows_equal_local_gradients(paper_instance):
    pb = paper_instance
    X = np.random.default_rng(5).standard_normal((pb.n, pb.dim))
    G = gradient_matrix(pb, X)
    for i in range(pb.n):
        assert np.allclose(G[i], local_gradient(pb, i, X[i]), atol=1e-14)


def test_optimal_solution_hand_example():
    pb = RidgeProblem(U=np.array([[1.0, 0.0]]), v=np.array([2.0]), rho=1.0)
    assert np.allclose(optimal_solution(pb), [1.0, 0.0])


def test_problem_refuses_non_finite_data_and_overflowing_penalty():
    u, v = np.array([[1.0, -0.5], [0.2, 0.9]]), np.array([3.0, -1.0])
    for bad_u, bad_v in ((np.array([[np.inf, 0.0], [0.2, 0.9]]), v), (u, np.array([np.nan, 1.0]))):
        with pytest.raises(ProblemError, match="U and observations v must be finite"):
            RidgeProblem(U=bad_u, v=bad_v, rho=0.1)
    # 2*rho overflows at rho = 1e308, n*rho first once n > 2, and a nan rho is no number
    for n, rho in ((2, 1e308), (10, 2e307), (1, float("nan"))):
        with pytest.raises(ProblemError, match=r"2\*rho and n\*rho must be finite"):
            RidgeProblem(U=np.ones((n, 2)), v=np.ones(n), rho=rho)
    assert RidgeProblem(U=np.ones((2, 2)), v=np.ones(2), rho=2e307).rho == 2e307
    # a noise draw that overflows v is refused, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProblemError, match="must be finite"):
            generate_ridge(10, 20, 0.01, 1e308, seed=405)


def test_optimal_solution_is_solved_once_and_read_only():
    pb = generate_ridge(10, 20, 0.01, 5.0, seed=7)
    x_star = optimal_solution(pb)
    fresh = np.linalg.solve(pb.U.T @ pb.U + pb.n * pb.rho * np.eye(pb.dim), pb.U.T @ pb.v)
    assert x_star.tobytes() == fresh.tobytes()
    assert not x_star.flags.writeable
    with pytest.raises(ValueError):
        x_star[0] = 1.0
    # a repeat call returns the kept array; an equal problem object solves its own
    assert optimal_solution(pb) is x_star
    other = RidgeProblem(U=pb.U.copy(), v=pb.v.copy(), rho=pb.rho)
    assert optimal_solution(other) is not x_star
    assert optimal_solution(other).tobytes() == fresh.tobytes()


def test_optimal_solution_large_penalty_shrinks_to_zero():
    pb = RidgeProblem(U=np.array([[1.0, -0.5], [0.2, 0.9]]), v=np.array([3.0, -1.0]), rho=1e9)
    x_star = optimal_solution(pb)
    bound = np.linalg.norm(pb.U.T @ pb.v) / (pb.n * pb.rho)
    assert np.linalg.norm(x_star) <= bound + 1e-15
    assert np.all(np.abs(x_star) < 1e-8)


def test_optimal_solution_stationarity(paper_instance):
    pb = paper_instance
    x_star = optimal_solution(pb)
    g = gradient_matrix(pb, np.tile(x_star, (pb.n, 1))).mean(axis=0)
    assert np.linalg.norm(g) <= 1e-10 * (1 + np.linalg.norm(x_star))


def test_optimal_solution_is_a_minimum(paper_instance):
    pb = paper_instance
    x_star = optimal_solution(pb)

    def f(x):  # the network objective (1/n) sum_i f_i(x)
        return float(np.mean((pb.U @ x - pb.v) ** 2) + pb.rho * x @ x)

    rng = np.random.default_rng(9)
    for _ in range(100):
        h = rng.standard_normal(pb.dim)
        h *= 1e-3 / np.linalg.norm(h)
        assert f(x_star + h) >= f(x_star)


def test_constants_hand_example():
    pb = RidgeProblem(U=np.array([[1.0, 0.0]]), v=np.array([0.0]), rho=1.0)
    c = constants(pb)
    # Hessian diag(4, 2)
    assert c.mu == pytest.approx(2.0)
    assert c.L == pytest.approx(4.0)
    assert c.kappa == pytest.approx(2.0)


def test_constants_pure_penalty():
    pb = RidgeProblem(U=np.zeros((3, 4)), v=np.zeros(3), rho=0.5)
    c = constants(pb)
    assert c.mu == pytest.approx(1.0)
    assert c.L == pytest.approx(1.0)
    assert c.kappa == pytest.approx(1.0)


def test_constants_paper_instance_mu_at_least_twice_rho(paper_instance):
    c = constants(paper_instance)
    assert c.mu >= 2 * paper_instance.rho - 1e-12
    assert c.mu <= c.L


def test_strong_convexity_witnessed(paper_instance):
    pb = paper_instance
    c = constants(pb)
    rng = np.random.default_rng(21)

    def grad_f(x):
        return gradient_matrix(pb, np.tile(x, (pb.n, 1))).mean(axis=0)

    for _ in range(100):
        x, y = rng.standard_normal((2, pb.dim))
        lhs = float((grad_f(x) - grad_f(y)) @ (x - y))
        assert lhs >= c.mu * float((x - y) @ (x - y)) - 1e-9


def test_smoothness_witnessed(paper_instance):
    pb = paper_instance
    c = constants(pb)
    # f_i's Hessian is 2 u_i u_i^T + 2 rho I, whose norm is 2 ||u_i||^2 + 2 rho
    l_i = 2 * np.sum(pb.U**2, axis=1) + 2 * pb.rho
    assert c.L == pytest.approx(l_i.max(), rel=1e-15)
    rng = np.random.default_rng(22)
    for _ in range(100):
        i = int(rng.integers(pb.n))
        x, y = rng.standard_normal((2, pb.dim))
        lhs = np.linalg.norm(local_gradient(pb, i, x) - local_gradient(pb, i, y))
        assert lhs <= l_i[i] * np.linalg.norm(x - y) + 1e-9


def test_generate_rejects_bad_parameters():
    with pytest.raises(ProblemError):
        generate_ridge(0, 5, 0.1, 1.0, seed=0)
    with pytest.raises(ProblemError):
        generate_ridge(5, 5, 0.0, 1.0, seed=0)
    with pytest.raises(ProblemError):
        generate_ridge(5, 5, 0.1, -1.0, seed=0)
    with pytest.raises(ProblemError):
        generate_ridge(5, 5, 0.1, 1.0, seed=-1)
    with pytest.raises(ProblemError):
        generate_ridge(5, 5, 0.1, 1.0, seed=2**64)
    for seed in (2.5, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(ProblemError, match="^seed must be an integer, got "):
            generate_ridge(5, 5, 0.1, 1.0, seed=seed)
    with pytest.raises(ProblemError):
        generate_ridge(5, 5, float("inf"), 1.0, seed=0)
    with pytest.raises(ProblemError):
        generate_ridge(5, 5, 0.1, float("nan"), seed=0)

