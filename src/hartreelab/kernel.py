"""The kernel oracle: k_beta and the cylinder kernel Khat, sampled by quadrature.

No solver samples either kernel (every convolution multiplies by the
closed-form symbol ``riesz._khat_fourier``); the ``kernel`` command
cross-checks two independent quadratures of them here, in the one module
that imports scipy.  The tau-integral of k_beta (see ``riesz``) carries
the Gauss-Jacobi weight (1-tau^2)^((n-3)/2) plus an algebraic
near-singularity at tau = 1 whose strength is set by

    d = (r - s)^2 / (2 r s) = cosh t - 1,   t = ln(r/s),

the distance of the integrand's branch point 1 + d from the interval;
Khat(t) = (r s)^((n-beta)/2) k_beta(r, s) is the same integral in t.
``angular_kernel`` evaluates it by one precomputed composite rule per (n,
beta): a Gauss-Jacobi block on [-1, 0], dyadically graded Gauss-Legendre
panels accumulating at tau = 1, and a Gauss-Jacobi tip panel whose weight
exponent switches to the combined (n-3)/2 + (beta-n)/2 on the diagonal r
= s, all in the stable variable 1 - tau so that r ~ s costs no
significant digits.  The rule is graded past the closest distinct radii
and checked once against the QUADPACK reference ``_kernel_quad``, by which
``kernel_hat`` samples Khat.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .constants import omega
from .errors import AccuracyError, IntegrabilityError, ParameterRangeError, SamplingError
from .params import CACHE_SIZE, ProblemParams
from .riesz import AngularKernelSpec

_ASYMPTOTIC_T = 25.0  # beyond this the two-term tail of Khat is exact to 1e-21


def _build_rule(n: int, beta: float, depth: int):
    """(omt, w, tip_omt, tip_w, tip_diag): the composite tau-rule graded to 2^-depth."""
    from scipy.special import roots_jacobi, roots_legendre
    a = (n - 3) / 2.0
    q = (beta - n) / 2.0

    # [-1, 0]: Gauss-Jacobi in (1 + tau); the (1 - tau)^a factor is smooth here
    xj, wj = roots_jacobi(20, 0.0, a)
    omt_left = (3.0 - xj) / 2.0
    w_left = wj * omt_left ** (a + q) * 2.0 ** (-a - 1.0)

    # dyadic panels [1 - 2^-j, 1 - 2^-(j+1)] in omt coordinates: [2^-(j+1), 2^-j],
    # that is 2^-(j+1) unit with unit in [1, 2]; the panel's half-width and its
    # nodes' omt^(a+q) combine into one power of two
    xg, wg = roots_legendre(16)
    unit = 1.5 + 0.5 * xg
    scale = 2.0 ** -np.arange(1.0, depth + 1.0)[:, None]
    omt = scale * unit
    w = 0.5 * wg * unit ** (a + q) * scale ** (a + q + 1.0) * (2.0 - omt) ** a
    omt, w = np.concatenate([omt_left, omt.ravel()]), np.concatenate([w_left, w.ravel()])

    # tip [1 - 2^-depth, 1]: Gauss-Jacobi absorbing (1 - tau)^a ...
    eps = 2.0 ** (-depth)
    xj, wj = roots_jacobi(16, a, 0.0)
    tip_omt = eps * (1.0 - xj) / 2.0
    tip_w = wj * (eps / 2.0) ** (a + q + 1.0) * (1.0 - xj) ** q * (2.0 - tip_omt) ** a

    # ... and its diagonal variant with the combined exponent a + q, where the
    # integrand collapses to (2 r s)^q times a constant
    if a + q > -1.0:
        xd, wd = roots_jacobi(16, a + q, 0.0)
        omt_d = eps * (1.0 - xd) / 2.0
        tip_diag = float(np.sum(wd * (eps / 2.0) ** (a + q + 1.0) * (2.0 - omt_d) ** a))
    else:
        tip_diag = math.inf  # non-integrable diagonal (beta <= 1)

    return omt, w, tip_omt, tip_w, tip_diag


class _KernelRule:
    """The composite tau-rule of one (n, beta), checked once against QUADPACK.

    Stored in the variable omt = 1 - tau.  The kernel value is

      omega(n-2) * [ sum_i W_i (2 r s + (r-s)^2 / omt_i)^q  (main + generic tip)
                     or  ... + (2 r s)^q * tip_diag          (diagonal tip)   ]

    with q = (beta - n)/2.  Each weight W_i carries its node's omt_i^q,
    formed as one scaled product, so no power of a tiny omt (which would
    overflow) meets a tiny weight (which would underflow).  The generic tip
    serves d >= d_min = 2^-depth; the diagonal tip covers d < d_min at an
    error bounded by the tip panel's mass, which the depth makes negligible.
    """

    def __init__(self, n: int, beta: float):
        self.beta = beta
        self.q = (beta - n) / 2.0
        self.front = omega(n - 2)
        # distinct doubles r, s have d >= 2^-107, so with panels down to 2^-110
        # only d = 0 ever uses the diagonal tip: exact, or refused for beta <= 1
        depth = min(max(int(math.ceil(93.0 / (beta - 1.0))), 64), 110) if beta > 1.0 else 110
        self.omt, self.w, self.tip_omt, self.tip_w, self.tip_diag = _build_rule(n, beta, depth)
        self.d_min = 2.0 ** (-depth)
        checks = [16.0, 1.0, 1e-2, 1e-6]
        if beta > 1.0:
            checks.append(0.0)
        for d in checks:
            # r s = 1/2 so gap2 = d and b = 1
            got = self._eval_rule(np.array([d]), np.array([1.0]))[0]
            want, err = _kernel_quad(n, beta, d)
            if not 0.0 < want < math.inf:
                raise ParameterRangeError(
                    f"the QUADPACK reference of the angular kernel for (n, beta)=({n}, "
                    f"{beta}) left the floating-point range at d={d}: {want}")
            achieved = abs(got - want) / abs(want)
            # written so that a NaN anywhere fails
            if not achieved <= max(1e-10, 5.0 * abs(err / want)):
                raise AccuracyError(
                    f"angular kernel rule for (n, beta)=({n}, {beta}) failed its "
                    f"build-time self check at d={d}", achieved=achieved)

    def evaluate(self, r, s):
        """k_beta at broadcast arrays r, s (elementwise), r, s >= 0, not both 0."""
        r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
        if np.any((r == 0.0) & (s == 0.0)):
            raise SamplingError("angular kernel undefined at r = s = 0")
        gap2, b = ((r - s) ** 2).ravel(), (2.0 * r * s).ravel()
        out = np.empty(gap2.size)
        chunk = max(1, 2 ** 17 // self.omt.size)   # rows of about 1 MB of temporaries
        for i in range(0, gap2.size, chunk):
            out[i:i + chunk] = self._eval_rule(gap2[i:i + chunk], b[i:i + chunk])
        return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)

    def _eval_rule(self, gap2, b):
        vals = (b[:, None] + gap2[:, None] / self.omt) ** self.q @ self.w
        tip = (b[:, None] + gap2[:, None] / self.tip_omt) ** self.q @ self.tip_w
        with np.errstate(divide="ignore", invalid="ignore"):
            diag = np.where(b > 0.0, gap2 / b, np.inf) < self.d_min
        if np.any(diag):
            if not np.isfinite(self.tip_diag):
                raise IntegrabilityError(
                    f"angular kernel with beta={self.beta} <= 1 diverges on the diagonal; "
                    "evaluate at separated radii only")
            tip[diag] = b[diag] ** self.q * self.tip_diag
        return self.front * (vals + tip)


def _kernel_quad(n: int, beta: float, d: float):
    """(value, error bound) of k_beta at 2 r s = 1 by adaptive QUADPACK.

    The value is omega(n-2) int_{-1}^{1} (1 - tau^2)^((n-3)/2)
    (1 + d - tau)^q dtau with q = (beta-n)/2, so k_beta(r, s) = (2 r s)^q
    times it at d = (r - s)^2 / (2 r s), and the cylinder kernel is
    Khat(t) = 2^q times it at d = cosh t - 1.  This is the independent
    reference for the Gauss-Jacobi rule.  The split is at tau = 0; on
    [0, 1] the variable w = 1 - tau puts the endpoint factor w^((n-3)/2) at
    the origin, where QUADPACK's weighted rules hold it exactly and the
    abscissae stay O(1) however large d gets.  For d < 1 that weighted
    piece stops at w = d, and [d, 1] is taken in u = ln w, where the
    near-singularity (d + w)^q, spread over every scale between d and 1,
    is smooth.  At d = 0 the combined endpoint exponent (beta - 3)/2 must
    exceed -1, i.e. beta > 1.  An integrand past the double range raises
    ParameterRangeError.
    """
    from scipy.integrate import IntegrationWarning, quad
    a = (n - 3) / 2.0
    q = (beta - n) / 2.0
    if d == 0.0 and beta <= 1.0:
        raise IntegrabilityError(
            f"the kernel with beta={beta} <= 1 diverges on the diagonal (r = s, t = 0)")
    c = 1.0 + d
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            if d == 0.0:
                val, err = quad(lambda x: 1.0, -1.0, 1.0, weight="alg", wvar=(a, a + q),
                                limit=200, epsabs=0.0, epsrel=1e-12)
            else:
                val1, err1 = quad(lambda x: (1.0 - x) ** a * (c - x) ** q, -1.0, 0.0,
                                  weight="alg", wvar=(a, 0.0), limit=200,
                                  epsabs=0.0, epsrel=1e-12)
                lo = min(d, 1.0)
                val2, err2 = quad(lambda w: (2.0 - w) ** a * (d + w) ** q, 0.0, lo,
                                  weight="alg", wvar=(a, 0.0), limit=400,
                                  epsabs=0.0, epsrel=1e-12)
                val, err = val1 + val2, err1 + err2
                if lo < 1.0:
                    val3, err3 = quad(lambda u: math.exp((a + 1.0) * u) * (2.0 - math.exp(u)) ** a
                                      * (d + math.exp(u)) ** q, math.log(lo), 0.0, limit=400,
                                      epsabs=0.0, epsrel=1e-12)
                    val, err = val + val3, err + err3
    except OverflowError:   # (d + w)^q past the double range
        raise ParameterRangeError(f"the angular kernel's integrand for (n, beta)=({n}, "
                                  f"{beta}) left the floating-point range at d={d}") from None
    front = omega(n - 2)
    return front * val, front * err


@lru_cache(maxsize=CACHE_SIZE)
def _kernel_rule(spec: AngularKernelSpec) -> _KernelRule:
    return _KernelRule(spec.n, spec.beta)


def angular_kernel(spec: AngularKernelSpec, r, s):
    """The angular kernel k_beta(r, s); vectorized over broadcast r, s.

    The one rule per (n, beta) is checked against the QUADPACK reference
    once, when it is built.  On the diagonal r = s the kernel is finite only
    for beta > 1; beta <= 1 raises IntegrabilityError there.
    """
    return _kernel_rule(spec).evaluate(r, s)


def _khat_asymptotic(n: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """omega(n-1) (2 cosh t)^((alpha-n)/2), overflow-safe; exact for large |t|."""
    q = (alpha - n) / 2.0
    at = np.abs(np.asarray(t, dtype=float))
    log2c = at + np.log1p(np.exp(-2.0 * at))
    return omega(n - 1) * np.exp(q * log2c)


def kernel_hat(params: ProblemParams, t):
    """The cylinder kernel Khat at t (scalar or array), to relative 1e-10.

    The shared QUADPACK reference at d = cosh t - 1 for |t| < 25, the
    exact exponential tail beyond; independent of ``angular_kernel``'s
    Gauss-Jacobi rule.  Raises an accuracy error if QUADPACK cannot
    certify 1e-10, an integrability error at t = 0 when alpha <= 1, and a
    range error where a sample underflows to 0.
    """
    n, alpha = params.n, params.alpha
    arr = np.asarray(t, dtype=float)
    flat = np.abs(arr).ravel()
    out = _khat_asymptotic(n, alpha, flat)
    for i in np.flatnonzero(flat < _ASYMPTOTIC_T):
        # cosh t - 1, computed stably
        val, err = _kernel_quad(n, alpha, 2.0 * math.sinh(flat[i] / 2.0) ** 2)
        if abs(err) > 1e-10 * val:
            raise AccuracyError(
                f"kernel_hat at t={flat[i]} certified only {abs(err) / val:.2e}",
                achieved=abs(err) / val)
        out[i] = 2.0 ** ((alpha - n) / 2.0) * val
    if np.any(out == 0.0):   # out >= 0, so argmin is the first zero
        raise ParameterRangeError(f"kernel_hat for (n, alpha)=({n}, {alpha}) left the "
                                  f"floating-point range at t={arr.ravel()[np.argmin(out)]}")
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
