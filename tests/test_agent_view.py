"""Peer-to-peer oracle: a literal per-agent round simulation must match the
matrix engine.

Each agent holds its own vectors, compresses with its own keyed stream, sends
only the compressed payloads along graph edges, and mixes what it received
with its in-neighbor weights.  Agreement with the stacked-matrix engine
confirms that the efficient variants never need a neighbor's full-precision
state.
"""

import numpy as np
import pytest

from cgtsim.algorithms import HyperParams, run_cgt_efficient, run_efcgt_efficient
from cgtsim.compression import (
    TAG_X_DIFF,
    TAG_X_EF,
    TAG_Y_DIFF,
    TAG_Y_EF,
    RngStream,
    TopK,
    UnbiasedQuantize,
    compress,
)
from cgtsim.problems import generate_ridge, local_gradient
from cgtsim.topology import build_ring, build_weights_outdegree

SEED = 9


def in_weights(W, i):
    """Nonzero mixing weights agent i applies to received payloads."""
    m = W.matrix  # built on each access
    return [(j, m[i, j]) for j in range(W.n) if m[i, j] != 0.0]


def run_agent_view_cgt(pb, W, hp, kind, K, seed):
    n, p = pb.n, pb.dim
    x = [np.zeros(p) for _ in range(n)]
    y = [local_gradient(pb, i, x[i]) for i in range(n)]
    h_x = [np.zeros(p) for _ in range(n)]
    h_y = [np.zeros(p) for _ in range(n)]
    h_xw = [sum(wij * h_x[j] for j, wij in in_weights(W, i)) for i in range(n)]
    h_yw = [sum(wij * h_y[j] for j, wij in in_weights(W, i)) for i in range(n)]
    ax, ay, g = hp.alpha_x, hp.alpha_y, hp.gamma
    eta = float(hp.eta)
    for k in range(K):
        q_x = [compress(kind, x[i] - h_x[i], RngStream(seed, i, k, TAG_X_DIFF))
               for i in range(n)]
        q_y = [compress(kind, y[i] - h_y[i], RngStream(seed, i, k, TAG_Y_DIFF))
               for i in range(n)]
        # "communication": each agent can read q_x[j], q_y[j] of in-neighbors only
        x_hat = [h_x[i] + q_x[i] for i in range(n)]
        y_hat = [h_y[i] + q_y[i] for i in range(n)]
        x_hat_w = [h_xw[i] + sum(wij * q_x[j] for j, wij in in_weights(W, i))
                   for i in range(n)]
        y_hat_w = [h_yw[i] + sum(wij * q_y[j] for j, wij in in_weights(W, i))
                   for i in range(n)]
        h_x = [(1 - ax) * h_x[i] + ax * x_hat[i] for i in range(n)]
        h_xw = [(1 - ax) * h_xw[i] + ax * x_hat_w[i] for i in range(n)]
        h_y = [(1 - ay) * h_y[i] + ay * y_hat[i] for i in range(n)]
        h_yw = [(1 - ay) * h_yw[i] + ay * y_hat_w[i] for i in range(n)]
        x_new = [x[i] - g * (x_hat[i] - x_hat_w[i]) - eta * y[i] for i in range(n)]
        y = [y[i] - g * (y_hat[i] - y_hat_w[i])
             + local_gradient(pb, i, x_new[i]) - local_gradient(pb, i, x[i])
             for i in range(n)]
        x = x_new
    return np.stack(x), np.stack(y)


def run_agent_view_efcgt(pb, W, hp, kind, K, seed):
    n, p = pb.n, pb.dim
    x = [np.zeros(p) for _ in range(n)]
    y = [local_gradient(pb, i, x[i]) for i in range(n)]
    h_x = [np.zeros(p) for _ in range(n)]
    h_y = [np.zeros(p) for _ in range(n)]
    e_x = [np.zeros(p) for _ in range(n)]
    e_y = [np.zeros(p) for _ in range(n)]
    h_xw = [sum(wij * h_x[j] for j, wij in in_weights(W, i)) for i in range(n)]
    h_yw = [sum(wij * h_y[j] for j, wij in in_weights(W, i)) for i in range(n)]
    ax, ay, g = hp.alpha_x, hp.alpha_y, hp.gamma
    bx, by = hp.beta_x, hp.beta_y
    eta = float(hp.eta)
    for k in range(K):
        q_x, qh_x, q_y, qh_y = [], [], [], []
        for i in range(n):
            d_x = x[i] - h_x[i]
            q_x.append(compress(kind, d_x, RngStream(seed, i, k, TAG_X_DIFF)))
            de_x = bx * e_x[i] + d_x
            qh_x.append(compress(kind, de_x, RngStream(seed, i, k, TAG_X_EF)))
            e_x[i] = de_x - qh_x[i]
            d_y = y[i] - h_y[i]
            q_y.append(compress(kind, d_y, RngStream(seed, i, k, TAG_Y_DIFF)))
            de_y = by * e_y[i] + d_y
            qh_y.append(compress(kind, de_y, RngStream(seed, i, k, TAG_Y_EF)))
            e_y[i] = de_y - qh_y[i]
        # both payload kinds travel; mixing uses in-neighbor weights only
        x_hat = [h_x[i] + qh_x[i] for i in range(n)]
        y_hat = [h_y[i] + qh_y[i] for i in range(n)]
        x_hat_w = [h_xw[i] + sum(wij * qh_x[j] for j, wij in in_weights(W, i))
                   for i in range(n)]
        y_hat_w = [h_yw[i] + sum(wij * qh_y[j] for j, wij in in_weights(W, i))
                   for i in range(n)]
        h_x = [h_x[i] + ax * q_x[i] for i in range(n)]
        h_y = [h_y[i] + ay * q_y[i] for i in range(n)]
        h_xw = [h_xw[i] + ax * sum(wij * q_x[j] for j, wij in in_weights(W, i))
                for i in range(n)]
        h_yw = [h_yw[i] + ay * sum(wij * q_y[j] for j, wij in in_weights(W, i))
                for i in range(n)]
        x_new = [x[i] - g * (x_hat[i] - x_hat_w[i]) - eta * y[i] for i in range(n)]
        y = [y[i] - g * (y_hat[i] - y_hat_w[i])
             + local_gradient(pb, i, x_new[i]) - local_gradient(pb, i, x[i])
             for i in range(n)]
        x = x_new
    return np.stack(x), np.stack(y)


@pytest.fixture(scope="module")
def setup():
    pb = generate_ridge(8, 6, 0.05, 1.0, seed=SEED)
    W = build_weights_outdegree(build_ring(8, directed=True), 0.12)
    return pb, W


@pytest.mark.parametrize("kind", [TopK(k=2), UnbiasedQuantize(bits=2, q=2)])
def test_agent_view_matches_engine_cgt(setup, kind):
    pb, W = setup
    hp = HyperParams(eta=0.01, gamma=0.7, alpha_x=0.8, alpha_y=0.9)
    xa, ya = run_agent_view_cgt(pb, W, hp, kind, 30, SEED)
    res = run_cgt_efficient(pb, W, hp, kind, 30, SEED)
    assert np.allclose(xa, res.final.X, rtol=1e-12, atol=1e-13)
    assert np.allclose(ya, res.final.Y, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("kind", [TopK(k=2), UnbiasedQuantize(bits=2, q=2)])
def test_agent_view_matches_engine_efcgt(setup, kind):
    pb, W = setup
    hp = HyperParams(eta=0.01, gamma=0.7, alpha_x=0.8, alpha_y=0.9,
                     beta_x=0.5, beta_y=0.5)
    xa, ya = run_agent_view_efcgt(pb, W, hp, kind, 30, SEED)
    res = run_efcgt_efficient(pb, W, hp, kind, 30, SEED)
    assert np.allclose(xa, res.final.X, rtol=1e-12, atol=1e-13)
    assert np.allclose(ya, res.final.Y, rtol=1e-12, atol=1e-13)
