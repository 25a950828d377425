"""Linear-convergence certificates for the compressed gradient tracking runs.

The per-iteration errors (optimization, consensus, tracking, compression and,
with error feedback, the accumulator norms) obey a componentwise linear
recursion w^{k+1} <= M w^k with a nonnegative transition matrix M: 5x5 for
the plain algorithm, 7x7 with error feedback.  A spectral radius below
1 - eta*mu/2 certifies geometric convergence, and a positive test vector
with M eps <= theta eps witnesses it componentwise.

Both systems read one :class:`ErrorConstants` record, free of (gamma, eta):
:func:`cgt_constants` builds it from the profile's (C, delta, r) and
:func:`efcgt_constants` at C = 1, r = 1 with :func:`contractive_delta`, where
the paper's d1, d2, d3, d4, d_x, d_y are c1, c2, c5, c8, c_x, c_y.
:func:`build_A` and :func:`build_B` take (gamma, eta) and assemble M.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .compression import CompressorProfile, alpha_in_range
from .problems import ProblemConstants
from .topology import SpectralInfo

_RADIUS_TOL = 1e-12  # spectral_radius stops when its estimate changes by less (relative)
_MAX_SQUARINGS = 60
_CERT_SLACK = 1e-12  # absolute slack of certify's componentwise test


class AnalysisError(ValueError):
    """Raised for violated preconditions or infeasible parameter chains."""


def _slack(alpha_x: float, alpha_y: float, r: float, delta: float) -> list[tuple[float, float]]:
    """Per channel (x, y) of contraction alpha*r*delta: (tau*(1-contr), 3 tau/(tau-1)), tau > 1.

    tau is the geometric midpoint of (1, 1/(1-contr)), or 2 when the
    contraction reaches 1.
    """
    pairs = []
    for name, alpha in (("alpha_x", alpha_x), ("alpha_y", alpha_y)):
        contr = alpha * r * delta
        tau = 2.0 if contr >= 1.0 else 1.0 / math.sqrt(1.0 - contr)
        # 1 - contr rounds to 1 for a contraction below machine epsilon
        if tau <= 1:
            raise AnalysisError(f"slack parameters tau must exceed 1, but at {name}={alpha!r} "
                                f"1 - {name}*r*delta = 1 - {contr!r} rounds to 1")
        pairs.append((tau * (1.0 - contr), 3.0 * tau / (tau - 1.0)))
    return pairs


@dataclass(frozen=True)
class ErrorConstants:
    """Constants of the 5x5 and 7x7 error systems; none depends on (gamma, eta)."""

    n: int
    mu: float
    L: float
    s: float
    delta: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c_x: float
    c_y: float
    t_x: float
    t_y: float


def _constants(prob: ProblemConstants, spec: SpectralInfo, alpha_x: float, alpha_y: float,
               n: int, C: float, delta: float, r: float, span: str) -> ErrorConstants:
    """Constants for variance bound C, contraction delta, scale r; ``span`` names alpha's range."""
    # an eigensolve can round a tiny mu to or below zero; every bound below divides by it
    if not prob.mu > 0:
        raise AnalysisError(f"strong convexity mu must be positive, got mu={prob.mu!r}")
    if not spec.s > 0:  # c1..c4 divide by the spectral gap
        raise AnalysisError(f"spectral gap s must be positive, got s={spec.s!r}")
    for name, alpha in (("alpha_x", alpha_x), ("alpha_y", alpha_y)):
        if not alpha_in_range(alpha, r):
            raise AnalysisError(f"{name}={alpha!r} outside {span}")
    s, niw = spec.s, spec.norm_IminusW
    (c_x, t_x), (c_y, t_y) = _slack(alpha_x, alpha_y, r, delta)
    if c_x >= 1.0 or c_y >= 1.0:
        raise AnalysisError(
            f"infeasible: c_x={c_x!r}, c_y={c_y!r} must be < 1 "
            "(compression too weak for the chosen alpha)"
        )
    return ErrorConstants(
        n=n, mu=prob.mu, L=prob.L, s=s, delta=delta,
        c1=2.0 / s,
        c2=2.0 * C / s * niw**2,
        c3=12.0 * prob.L**2 / s,
        c4=6.0 * niw**2 / s,
        c5=t_x * niw**2,
        c6=t_x * C * niw**2,
        c7=t_y * C * niw**2,
        c8=t_y * niw**2,
        c_x=c_x, c_y=c_y, t_x=t_x, t_y=t_y,
    )


def cgt_constants(prob: ProblemConstants, spec: SpectralInfo, profile: CompressorProfile,
                  alpha_x: float, alpha_y: float, n: int) -> ErrorConstants:
    """Assemble the error-system constants for given mixing rates."""
    return _constants(prob, spec, alpha_x, alpha_y, n, profile.C, profile.delta, profile.r,
                      f"(0, 1/r] for r={profile.r!r}")


def contractive_delta(profile: CompressorProfile) -> float:
    """Contraction coefficient of the un-scaled operator, required by error feedback.

    Profiles with r = 1 are already contractive; otherwise C < 1 implies
    delta = 1 - C.  Anything else is outside the error-feedback theory.
    """
    if profile.r == 1.0:
        return profile.delta
    if profile.C < 1.0:
        return 1.0 - profile.C
    raise AnalysisError(
        f"error-feedback certification needs a contractive compressor; "
        f"got C={profile.C!r} with r={profile.r!r}"
    )


def efcgt_constants(prob: ProblemConstants, spec: SpectralInfo, profile: CompressorProfile,
                    alpha_x: float, alpha_y: float, n: int) -> ErrorConstants:
    """The error-feedback constants: the plain ones at C = 1, r = 1 and the contractive delta."""
    return _constants(prob, spec, alpha_x, alpha_y, n, 1.0, contractive_delta(profile), 1.0,
                      "(0, 1]")


@dataclass(frozen=True, eq=False)
class ErrorSystem:
    """Nonnegative transition matrix with its test vector and contraction target."""

    M: np.ndarray
    epsilon: np.ndarray
    theta: float
    gamma: float
    eta: float


def _step_bound(mu: float, L: float) -> tuple[float, str]:
    """The step-size bound min(2/(mu+L), 1/(3 mu)) and the term that attains it."""
    a, b = 2.0 / (mu + L), 1.0 / (3.0 * mu)
    return (a, "2/(mu+L)") if a <= b else (b, "1/(3 mu)")


def _check_eta_gamma(mu: float, L: float, gamma: float, eta: float) -> None:
    if not 0 < gamma <= 1:
        raise AnalysisError(f"gamma must be in (0, 1], got {gamma!r}")
    if eta <= 0:
        raise AnalysisError(f"eta must be positive, got {eta!r}")
    bound, which = _step_bound(mu, L)
    if eta >= bound:
        raise AnalysisError(f"eta={eta!r} violates eta < {which} = {bound!r}")


def _system(rows: list[list[float]], c: ErrorConstants, gamma: float, eta: float,
            epsilon: np.ndarray) -> ErrorSystem:
    """Check the rows of M and pair them with the test vector and theta."""
    m = np.array(rows)
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise AnalysisError("transition matrix has negative or non-finite entries")
    return ErrorSystem(M=m, epsilon=np.asarray(epsilon, dtype=float),
                       theta=1.0 - 0.5 * eta * c.mu, gamma=gamma, eta=eta)


def build_A(c: ErrorConstants, gamma: float, eta: float, epsilon: np.ndarray) -> ErrorSystem:
    """5x5 transition matrix for plain compressed gradient tracking at (gamma, eta).

    Row/column order: optimization, consensus, tracking, x-compression,
    y-compression errors.
    """
    _check_eta_gamma(c.mu, c.L, gamma, eta)
    g, e, L, n = gamma, eta, c.L, c.n
    rt2 = (1.0 - gamma * c.s)**2
    return _system([
        [1.0 - 1.5 * e * c.mu, 3.0 * e * L**2 / (c.mu * n), 0.0, 0.0, 0.0],
        [0.0, (1.0 + rt2) / 2.0, c.c1 * e**2 / g, c.c2 * g, 0.0],
        [n * c.c3 * L**2 * e**2 / g, c.c3 * L**2 * e**2 / g + c.c4 * L**2 * g,
         (1.0 + rt2) / 2.0 + 0.5 * c.c3 * e**2 / g, 3.0 * c.c2 * L**2 * g, c.c2 * g],
        [2.0 * n * c.t_x * L**2 * e**2, c.c5 * g**2 + 2.0 * c.t_x * L**2 * e**2,
         c.t_x * e**2, c.c_x + c.c6 * g**2, 0.0],
        [6.0 * n * c.t_y * L**4 * e**2, 3.0 * c.c8 * L**2 * g**2 + 6.0 * c.t_y * L**4 * e**2,
         3.0 * c.t_y * L**2 * e**2 + c.c8 * g**2, 3.0 * c.c7 * L**2 * g**2,
         c.c_y + c.c7 * g**2],
    ], c, gamma, eta, epsilon)


def build_B(c: ErrorConstants, gamma: float, eta: float, epsilon: np.ndarray) -> ErrorSystem:
    """7x7 transition matrix with error feedback at (gamma, eta).

    Rows 1-5 as in :func:`build_A`; rows 6-7 are the x/y error-feedback
    accumulators with self-coupling 1 - delta/2.  ``c`` comes from
    :func:`efcgt_constants`.
    """
    _check_eta_gamma(c.mu, c.L, gamma, eta)
    if not 0 < c.delta <= 1:
        raise AnalysisError(f"delta must be in (0, 1], got {c.delta!r}")
    g, e, L, n, dl = gamma, eta, c.L, c.n, c.delta
    d1, d2, d3, d4 = c.c1, c.c2, c.c5, c.c8
    rt2 = (1.0 - gamma * c.s)**2
    return _system([
        [1.0 - 1.5 * e * c.mu, 3.0 * e * L**2 / (c.mu * n), 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, (1.0 + rt2) / 2.0, d1 * e**2 / g, d2 * g, 0.0,
         6.0 * d2 / dl * g, 0.0],
        [6.0 * n * d1 * L**4 * e**2 / g, 3.0 * d2 * L**2 * g + 6.0 * d1 * L**4 * e**2 / g,
         (1.0 + rt2) / 2.0 + 3.0 * d1 * L**2 * e**2 / g, 3.0 * d2 * L**2 * g, d2 * g,
         18.0 * d2 / dl * L**2 * g, 6.0 * d2 / dl * g],
        [2.0 * n * c.t_x * L**2 * e**2, d3 * g**2 + 2.0 * c.t_x * L**2 * e**2,
         c.t_x * e**2, c.c_x + d3 * g**2, 0.0, 6.0 * d3 / dl * g**2, 0.0],
        [6.0 * n * c.t_y * L**4 * e**2, 3.0 * c.t_y * L**2 * g**2 + 6.0 * c.t_y * L**4 * e**2,
         3.0 * c.t_y * L**2 * e**2 + d4 * g**2, 3.0 * d4 * L**2 * g**2,
         c.c_y + d4 * g**2, 18.0 * d4 / dl * L**2 * g**2, 6.0 * d4 / dl * g**2],
        [0.0, 0.0, 0.0, 2.0 * (1.0 - dl) / dl, 0.0, 1.0 - dl / 2.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 2.0 * (1.0 - dl) / dl, 0.0, 1.0 - dl / 2.0],
    ], c, gamma, eta, epsilon)


@dataclass(frozen=True, eq=False)
class Certificate(ErrorSystem):
    """The error system with its spectral radius and the verdict of M eps <= theta eps."""

    rho_M: float
    componentwise_ok: bool

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"verdict = {'certified' if self.componentwise_ok else 'not-certified'}\n")
        out.write(f"rho = {self.rho_M:.17g}\n")
        out.write(f"theta = {self.theta:.17g}\n")
        out.write(f"gamma = {self.gamma:.17g}\n")
        out.write(f"eta = {self.eta:.17g}\n")
        out.write("epsilon = " + " ".join(f"{x:.17g}" for x in self.epsilon) + "\n")
        return out.getvalue()


def spectral_radius(m: np.ndarray) -> float:
    """Spectral radius of a nonnegative matrix via norm growth of matrix powers.

    Repeated squaring with norm scaling evaluates ||M^(2^j)||^(1/2^j), which
    converges to the radius from above.  Plain vector power iteration stalls
    on these transition matrices: their leading eigenvalues cluster within
    ~eta*mu of each other and the matrices are far from normal, so the
    iterate's norm ratio overshoots the radius for any practical iteration
    budget.  The norm-growth form resolves the radius to near machine
    precision because the 2^j-th root washes out the transient.

    Each squaring's norm is ``math.sqrt(flat.dot(flat))`` on a flat view of
    the C-ordered iterate: the ddot and square root ``np.linalg.norm`` computes
    for a real array, without its wrapper.  The iterate is divided in place, the
    IEEE division of each entry that ``cur / nrm`` makes, and squared into a
    second buffer made once, the dgemm ``cur @ cur`` calls.  So every estimate
    has the bits of the loop that calls ``np.linalg.norm`` and allocates the
    quotient and the square.

    Raises :class:`AnalysisError` for a negative entry, for a matrix that is
    not finite or whose Frobenius norm overflows, and when ``_MAX_SQUARINGS``
    squarings leave the estimate moving by more than ``_RADIUS_TOL``.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise AnalysisError("spectral radius routine expects a nonnegative matrix")
    cur = m.copy()  # C-ordered, as is its square buffer
    nxt = np.empty_like(cur)
    flat = cur.reshape(-1)
    # each later iterate has norm at most 1, so only the input's own norm can be nan or inf
    with np.errstate(over="ignore"):
        nrm = math.sqrt(flat.dot(flat))
    if not nrm < math.inf:
        raise AnalysisError(f"spectral radius needs a finite matrix with a finite norm, "
                            f"got ||M||_F = {nrm!r}")
    acc = 0.0
    est = math.inf
    for j in range(_MAX_SQUARINGS):
        if nrm == 0.0:
            return 0.0
        acc += math.log(nrm) / (2.0 ** j)
        new_est = math.exp(acc)
        if j > 0 and abs(new_est - est) <= _RADIUS_TOL * max(1.0, new_est):
            return new_est
        est = new_est
        np.divide(cur, nrm, out=cur)
        np.matmul(cur, cur, out=nxt)
        cur, nxt = nxt, cur
        flat = cur.reshape(-1)
        nrm = math.sqrt(flat.dot(flat))
    raise AnalysisError(f"spectral radius did not converge in {_MAX_SQUARINGS} squarings: the "
                        f"estimate {est!r} still moved by more than {_RADIUS_TOL:g} (relative)")


def certify(system: ErrorSystem) -> Certificate:
    """Spectral radius plus the componentwise test M eps <= theta eps."""
    eps = system.epsilon
    if np.any(eps <= 0):
        raise AnalysisError("test vector must be strictly positive")
    lhs = system.M @ eps
    rhs = system.theta * eps
    ok = bool(np.all(lhs <= rhs + _CERT_SLACK * (1.0 + eps)))
    return Certificate(system.M, eps, system.theta, system.gamma, system.eta,
                       spectral_radius(system.M), ok)


# ---------------------------------------------------------------------------
# sufficient parameter chains

_SLACK = 1.01


@dataclass(frozen=True, eq=False)
class SufficientParams:
    """A chain's raw test vector and the certificate of the system its (gamma, eta) build."""

    epsilon: np.ndarray  # raw chain values; certificate.epsilon adds the L^2 weights
    certificate: Certificate

    def to_text(self) -> str:
        out = io.StringIO()
        out.write("epsilon-chain = " + " ".join(f"{x:.17g}" for x in self.epsilon) + "\n")
        out.write(self.certificate.to_text())
        return out.getvalue()


def _certified(eps: np.ndarray, system: ErrorSystem) -> SufficientParams:
    """Certify a chain's system; the chain must pass its own componentwise test."""
    cert = certify(system)
    if not cert.componentwise_ok:
        raise AnalysisError("sufficient-parameter chain failed its own certificate")
    return SufficientParams(epsilon=eps, certificate=cert)


def sufficient_params(prob: ProblemConstants, spec: SpectralInfo, profile: CompressorProfile,
                      alpha_x: float, alpha_y: float, n: int) -> SufficientParams:
    """Forward-substitute a positive test vector, then gamma and eta, and certify.

    The chain fixes the two compression components to 1, bounds the consensus
    component from the compression coupling, the tracking component from the
    mixing terms, and the optimization component from the condition number;
    each lower bound is inflated by 1% so every inequality holds strictly.
    """
    c = cgt_constants(prob, spec, profile, alpha_x, alpha_y, n=n)
    kappa = prob.kappa
    s = c.s
    e4 = 1.0
    e5 = 1.0
    e2 = _SLACK * max(2.0 * c.c1 * c.c2 * e4, e4)
    m2 = c.c4 * e2 + c.c2 * (3.0 * e4 + e5)
    e3 = max(_SLACK * 4.0 * m2 / s, e4)  # floor keeps the test vector positive
    e1 = _SLACK * 3.0 * kappa**2 * e2 / n
    m3 = c.t_x * (2 * n * e1 + 2 * e2 + e3) + c.c5 * e2 + c.c6 * e4 + e4 / (2 * kappa)
    m4 = (3 * c.t_y * (2 * n * e1 + 2 * e2 + e3) + 3 * c.c8 * e2 + c.c8 * e3
          + 3 * c.c7 * e4 + c.c7 * e5 + e5 / (2 * kappa))
    gamma = min(1.0, (1.0 - c.c_x) / m3 * e4, (1.0 - c.c_y) / m4 * e5)
    eta = min(s * e2 / (4 * kappa * e3),
              s * e3 / (12 * kappa * (2 * n * e1 + 2 * e2 + e3))) * gamma / prob.L
    eta = min(eta, 0.99 * _step_bound(prob.mu, prob.L)[0])
    test_vec = np.array([e1, e2, prob.L**2 * e3, e4, prob.L**2 * e5])
    return _certified(np.array([e1, e2, e3, e4, e5]), build_A(c, gamma, eta, test_vec))


def sufficient_params_ef(prob: ProblemConstants, spec: SpectralInfo, profile: CompressorProfile,
                         alpha_x: float, alpha_y: float, n: int) -> SufficientParams:
    """Error-feedback analogue of :func:`sufficient_params` with a 7-component chain."""
    c = efcgt_constants(prob, spec, profile, alpha_x, alpha_y, n=n)
    kappa = prob.kappa
    s, dl = c.s, c.delta
    d1, d2, d3, d4 = c.c1, c.c2, c.c5, c.c8
    e4 = 1.0
    e5 = 1.0
    e6 = max(_SLACK * 8.0 * (1.0 - dl) * e4 / dl**2, 1e-2 * e4)
    e7 = max(_SLACK * 8.0 * (1.0 - dl) * e5 / dl**2, 1e-2 * e5)
    e2 = _SLACK * max(4.0 * d1 * d2 * e4, 24.0 * d1 * d2 * e6 / dl, e4)
    m2 = (3 * d2 * e2 + 3 * d2 * e4 + d2 * e5
          + 18 * d2 / dl * e6 + 6 * d2 / dl * e7)
    e3 = max(_SLACK * 4.0 * m2 / s, e4)
    e1 = _SLACK * 3.0 * kappa**2 * e2 / n
    m3 = (2 * n * c.t_x * e1 + 2 * c.t_x * e2 + c.t_x * e3
          + d3 * e2 + d3 * e4 + 6 * d3 / dl * e6 + e4 / (2 * kappa))
    m4 = (6 * n * c.t_y * e1 + 6 * c.t_y * e2 + 3 * c.t_y * e3
          + 3 * c.t_y * e2 + d4 * e3 + 3 * d4 * e4 + d4 * e5
          + 18 * d4 / dl * e6 + 6 * d4 / dl * e7 + e5 / (2 * kappa))
    gamma = min(1.0, (1.0 - c.c_x) / m3 * e4, (1.0 - c.c_y) / m4 * e5)
    eta = min(s * e3 / (6 * kappa * (2 * n * e1 + 2 * e2 + e3)) * gamma / prob.L,
              s * e2 / (4 * kappa * e3) * gamma / prob.L,
              dl / (2 * prob.mu))
    eta = min(eta, 0.99 * _step_bound(prob.mu, prob.L)[0])
    L2 = prob.L**2
    test_vec = np.array([e1, e2, L2 * e3, e4, L2 * e5, e6, L2 * e7])
    return _certified(np.array([e1, e2, e3, e4, e5, e6, e7]), build_B(c, gamma, eta, test_vec))


# ---------------------------------------------------------------------------
# empirical rate fitting

@dataclass(frozen=True)
class RateFit:
    rate: float
    r_squared: float


def _integers(xs: np.ndarray) -> tuple[list[int], int]:
    """Python integers I and an exponent e with xs == I * 2**e exactly, for finite xs."""
    # x = m * 2**ex with |m| in [0.5, 1), so m * 2**53 is an integer, exact in int64
    m, ex = np.frexp(xs)
    lo = ex.min()
    mant = (m * 2.0**53).astype(np.int64).tolist()
    return [a << s for a, s in zip(mant, (ex - lo).tolist())], int(lo) - 53


def _ls_slope(ks: np.ndarray, ys: np.ndarray) -> float:
    """The least-squares slope of ys on ks, exact and then rounded once to the nearest double.

    The ys are finite: ``empirical_rate`` refuses an inf residual.

    The centred closed form sum((k - k_bar)(y - y_bar)) / sum((k - k_bar)**2)
    equals (n sum(k y) - sum(k) sum(y)) / (n sum(k**2) - sum(k)**2); on the
    inputs written as integers times powers of two that is a quotient of
    Python integers, and integer true division rounds correctly.
    """
    k, ek = _integers(ks)
    y, ey = _integers(ys)
    n, sk = len(k), sum(k)
    num = n * sum(map(int.__mul__, k, y)) - sk * sum(y)
    den = n * sum(map(int.__mul__, k, k)) - sk * sk
    # slope = num / den * 2**(ey - ek)
    return (num << (ey - ek)) / den if ey >= ek else num / (den << (ek - ey))


def empirical_rate(trace, burn_frac: float = 0.1) -> RateFit:
    """Per-iteration contraction factor from a log-linear fit of the residuals.

    Discards the first ``burn_frac`` of the trace, truncates before the first
    residual at or below 1e-300 (zero or denormal), and fits log(residual)
    against the iteration index by least squares in the centred closed form
    ``slope = sum((k - k_bar)(y - y_bar)) / sum((k - k_bar)**2)``, ``fitted =
    slope (k - k_bar) + y_bar``.
    The slope is computed exactly from the float inputs and rounded once
    (``_ls_slope``), so no double is closer to the exact fit.  On the 14
    presets at K = 2000, ``np.polyfit``'s scaled-Vandermonde SVD solve was up
    to 7.0e-16 relative off the exact slope, and the same closed form in
    floating point up to 1.8e-16.

    Refused with ``AnalysisError``: a ``burn_frac`` outside [0, 1), NaN
    included, and an inf or NaN residual in the fit window, the residuals kept
    by that burn-in and that truncation.
    """
    if not 0.0 <= burn_frac < 1.0:
        raise AnalysisError(f"burn_frac must be in [0, 1), got {burn_frac}")
    ks = np.array([t.k for t in trace], dtype=float)
    rs = np.array([t.residual for t in trace], dtype=float)
    if ks.size < 3:
        raise AnalysisError("need at least 3 trace points to fit a rate")
    start = int(math.ceil(burn_frac * ks.size))
    ks, rs = ks[start:], rs[start:]
    tiny = rs <= 1e-300  # False at NaN, so a NaN does not cut the window
    if tiny.any():
        cut = int(np.argmax(tiny))  # first nonpositive/denormal entry
        ks, rs = ks[:cut], rs[:cut]
    if np.isnan(rs).any():
        raise AnalysisError("nan residual in the fit window")
    if ks.size < 2:
        raise AnalysisError("not enough positive residuals in the fit window")
    if np.isinf(rs).any():
        raise AnalysisError("inf residual in the fit window")
    logs = np.log(rs)
    slope = _ls_slope(ks, logs)
    # np.mean is this reduce over the size, and np.sum this reduce
    dy = logs - np.add.reduce(logs) / logs.size
    res = dy - slope * (ks - np.add.reduce(ks) / ks.size)
    ss_res = float(np.add.reduce(res * res))
    ss_tot = float(np.add.reduce(dy * dy))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(rate=float(np.exp(slope)), r_squared=r2)
