"""Closed-form reference values for the constants a certificate rests on.

A certificate is only as sound as its inputs: the spectral gap ``s`` and
``||I - W||`` of the mixing matrix, and the compressor's variance bound ``C``.
An overestimated ``s``, an underestimated ``||I - W||`` or an underestimated
``C`` makes the certified step sizes optimistic.  This module computes the
exact values for the rings the benchmark uses, independently of the library.

Ring weights ``w_ii = 1 - Deg_out p`` and ``w_ij = p`` on out-edges make W a
circulant matrix.  Circulant matrices are normal, so their singular values
are the moduli of their eigenvalues ``lambda_k``, k = 0..n-1:

* directed ring:   ``lambda_k = (1 - p) + p w^k``, with ``w = exp(2 pi i / n)``
* undirected ring: ``lambda_k = 1 - 2p + 2p cos(2 pi k / n)``

``lambda_0 = 1`` belongs to the consensus direction, so
``rho_w = max_{k>0} |lambda_k|`` and ``||I - W|| = max_k |1 - lambda_k|``.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)


def ring_eigenvalues(n: int, p: float, directed: bool) -> np.ndarray:
    k = np.arange(n)
    if directed:
        return (1.0 - p) + p * np.exp(2j * np.pi * k / n)
    return (1.0 - 2.0 * p) + 2.0 * p * np.cos(2.0 * np.pi * k / n) + 0j


def ring_spectrum(n: int, p: float, directed: bool) -> tuple[float, float]:
    """Exact (rho_w, ||I - W||) of the out-degree-weighted ring."""
    lam = ring_eigenvalues(n, p, directed)
    return float(np.abs(lam[1:]).max()), float(np.abs(1.0 - lam).max())


def norm_tolerance(n: int) -> float:
    """Absolute error allowed on a computed spectral norm of an n x n matrix.

    A backward-stable SVD is accurate to a small multiple of n * eps * ||M||,
    and every matrix here has norm at most 2; this is that bound with margin.
    """
    return 16.0 * n * EPS


def quant_variance_witness(p: int, bits: int) -> float:
    """Lower bound on sup_x E||Q(x) - x||^2 / ||x||^2 for the b-bit inf-norm quantizer.

    With ``scale = 2^(b-1)``, the dithered quantizer rounds each ``scale |x_i| /
    ||x||_inf`` to a neighbouring integer, so a coordinate with fractional
    level ``f`` contributes variance ``f (1 - f) (||x||_inf / scale)^2``.  The
    input ``x = (1, f/scale, ..., f/scale)`` attains

        ratio(f) = a f (1 - f) / (1 + a f^2),   a = (p - 1) / scale^2,

    maximized at ``f = (sqrt(1 + a) - 1) / a``.  Any valid ``C`` must be at least
    this value (0.699 at p = 20, b = 2).
    """
    scale = 2.0 ** (bits - 1)
    a = (p - 1) / scale**2
    if a == 0:
        return 0.0
    f = (math.sqrt(1.0 + a) - 1.0) / a
    return a * f * (1.0 - f) / (1.0 + a * f * f)


def ring_findings(n: int, p: float, directed: bool, s: float, norm_i_minus_w: float) -> dict:
    """Compare a certificate's mixing constants with the closed form."""
    rho, niw = ring_spectrum(n, p, directed)
    s_true = 1.0 - rho
    tol = norm_tolerance(n)
    return {
        "s_relerr": (s - s_true) / s_true,
        "s_optimistic": s - s_true > tol,
        "niw_optimistic": niw - norm_i_minus_w > tol,
    }


def quant_c_optimistic(c: float, p: int, bits: int) -> bool:
    return c < quant_variance_witness(p, bits)
