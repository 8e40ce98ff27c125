"""Radial Riesz convolutions and residuals of the critical Hartree equation.

For radial g the convolution with the Riesz kernel |x|^(beta-n) reduces to
a one-dimensional integral against the angular kernel

    k_beta(r, s) = omega(n-2) * int_{-1}^{1} (1 - tau^2)^((n-3)/2)
                                  (r^2 + s^2 - 2 r s tau)^((beta-n)/2) dtau,

so that (R_beta * g)(r) = int_0^inf g(s) s^(n-1) k_beta(r, s) ds.  The
convolution never samples k_beta (the ``kernel`` module's quadratures do,
as the ``kernel`` command's oracle).  In t = ln r the kernel
(r s)^((n-beta)/2) k_beta(r, s) depends on t - ln s only, so the
potential is a convolution on the line (the Mellin convolution theorem;
Titchmarsh, Introduction to the Theory of Fourier Integrals, 1937) whose
symbol is a closed-form Gamma ratio, rational in w for even beta and in
w and tanh(pi w / 2) for odd beta with n - beta even.  On a
grid uniform in log r it is a padded real FFT of the tilted source against
that symbol, one tilt per half of the grid, a trapezoidal rule that
converges exponentially for sources analytic in a strip (Trefethen &
Weideman, SIAM Review 56, 2014).

Residual bookkeeping for -Lap u = (R_alpha * F(u)) f(u) lives here too:
the differential form by the symbols of d/dt on one mid-tilt window, the
integral form via the Green convolution u = c2 R_2 * rhs.  F carries the
closed-form c_f of ``sharp_constants``; ``calibrate_cf`` fits c_f on the
bubble, so its distance from that closed form measures the pipeline.  Relative
residuals are normalized by the pointwise *term* scale (|u''| and
|(n-2)u'|/r^2 separately, not their nearly-cancelling sum) because at
large r the equation's sides are exponentially smaller than the terms
that build them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from numpy.fft import irfft, rfft

from .constants import newton_constant, newton_constant_alt, omega, sharp_constants
from .errors import (AccuracyError, GridError, IntegrabilityError,
                     ParameterDomainError, SamplingError)
from .fields import RadialGrid, RadialProfile, make_bubble, make_hls_extremal
from .params import ProblemParams

# ============================================================
# specs
# ============================================================


@dataclass(frozen=True)
class AngularKernelSpec:
    """Selects the angular kernel k_beta in dimension n."""

    n: int        # ambient dimension, >= 3
    beta: float   # kernel order, 0 < beta < n

    def __post_init__(self):
        if self.n < 3:
            raise ParameterDomainError(f"angular kernels need n >= 3, got {self.n}")
        if not (0.0 < self.beta < self.n):
            raise ParameterDomainError(
                f"kernel order must lie in (0, n), got beta={self.beta}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power nonlinearity pair f(xi) = |xi|^(p-2) xi, F(xi) = c_f |xi|^p.

    The amplitude convention of the explicit bubble and the normalization
    of F cannot both be taken at face value; c_f is the single constant that
    absorbs the mismatch.  Its closed form is ``SharpConstants.c_f``, which
    :func:`nonlinearity_for` passes to every solver; :func:`calibrate_cf`
    measures it on the bubble as a check.
    """

    p: float
    c_f: float

    def f(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.abs(xi) ** (self.p - 2.0) * xi

    def f_prime(self, xi):
        xi = np.asarray(xi, dtype=float)
        return (self.p - 1.0) * np.abs(xi) ** (self.p - 2.0)

    def F(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.c_f * np.abs(xi) ** self.p

    def F_prime(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.c_f * self.p * np.abs(xi) ** (self.p - 1.0) * np.sign(xi)


# ============================================================
# the radial Riesz convolution
# ============================================================

_DIGITS = math.log(1e17)          # e-folds after which a contribution is dropped
_MAX_REACH = math.log(1e100)      # farthest the source window reaches past the grid
_TINY = np.finfo(float).tiny      # the least normal double


_SHIFT = 8   # the symbol's Gamma arguments are raised past this by recurrence
# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series for log Gamma (DLMF 5.11.1),
# whose first omitted term is below 1e-15 for |x| >= _SHIFT
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n, a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 2^k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _log_gamma_ratio(p, q, d: float):
    """(Re, Im) of log Gamma(x) - log Gamma(x + d) at x = p + i q, p >= _SHIFT, d > 0.

    Stirling's series with its leading terms paired as (x - 1/2) log x -
    (x + d - 1/2) log(x + d) = -d log x - (x + d - 1/2) log1p(d/x), so the
    large x log x never cancel; log1p(d/x) is taken in real arithmetic, where
    its real part keeps its digits however small d/x is.
    """
    r2 = p * p + q * q
    re_l = 0.5 * np.log1p(d * (2.0 * p + d) / r2)
    im_l = -np.arctan(d * q / (r2 + d * p))
    x = p + 1j * q
    xs = np.stack([x, x + d])
    u = 1.0 / (xs * xs)
    acc = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        acc = acc * u + c
    tail = acc[0] / xs[0] - acc[1] / xs[1]
    e = p + (d - 0.5)
    re = d - 0.5 * d * np.log(r2) - (e * re_l - q * im_l) + tail.real
    im = -d * np.arctan2(q, p) - (e * im_l + q * re_l) + tail.imag
    return re, im


def _khat_fourier(n: int, beta: float, w):
    """int Khat(t) e^{-i w t} dt for the log-radius kernel Khat(t) = (r s)^c k_beta(r, s).

    Here t = ln(r/s) and c = (n-beta)/2.  Radial powers map to radial
    powers, so the symbol is a Gamma ratio: with A = c/2, B = (n+beta)/4,
    z = i w/2, it is pi^(n/2) Gamma(beta/2) / Gamma(c) Gamma(A+z) Gamma(A-z)
    / (Gamma(B+z) Gamma(B-z)), analytic for |Im w| < c, where it transforms
    e^{(Im w) t} Khat(t).  For real w it is real, the L1 norm of Khat at
    w = 0, and strictly decreasing in |w|, by |Gamma(x + i y)|^2 =
    Gamma(x)^2 prod_k (1 + y^2/(x+k)^2)^-1.

    Each Gamma is raised by _SHIFT through Gamma(x) = Gamma(x + N) /
    prod_j (x + j) (DLMF 5.5.1), which folds each pair into prod_j ((B+j)^2 -
    z^2) / ((A+j)^2 - z^2), then taken by :func:`_log_gamma_ratio` with d =
    B - A = beta/2.  Gamma(A - z) is the conjugate of Gamma at A + N -
    conj(z), so real w needs one evaluation and twice its real part.

    For even beta, d = beta/2 is an integer and the same recurrence
    telescopes exactly: the symbol is the rational function pi^(n/2)
    Gamma(d) / Gamma(c) / prod_{j<d} ((A+j)^2 - z^2), one expression for
    real and tilted w, and no factor vanishes inside the strip |Im w| < c.

    For odd beta with n - beta even, 2A and 2B are integers, and reflection
    (DLMF 5.5.3) gives Gamma(e+z) Gamma(e-z) = pi prod_{j=1}^{2e-1} (j-e-z) /
    sin pi(e+z) for e = A, B.  Callers pass real w or w - i gamma, one gamma
    (else ValueError), so z = x + i y with one x: sin pi(e+z) / cosh(pi y) =
    sin pi(e+x) + i cos pi(e+x) tanh(pi y), reduced exactly about the nearest
    zero x = m - e.  Each zero in the strip cancels its factor m - e - z; where
    x lands on one, their ratio is taken as tanh(pi y) / y, pi at y = 0.
    """
    q = 0.5 * np.asarray(w)
    s = q * q   # -z^2
    a, b, d = 0.25 * (n - beta), 0.25 * (n + beta), 0.5 * beta
    front = math.exp(0.5 * n * math.log(math.pi) + math.lgamma(0.5 * beta)
                     - math.lgamma(0.5 * (n - beta)))
    if d.is_integer():
        return front / math.prod((a + j) ** 2 + s for j in range(int(d)))
    if (2.0 * a).is_integer() and (2.0 * d).is_integer():
        x = -float(q.imag.flat[0]) if np.iscomplexobj(q) and q.size else 0.0
        if np.any(q.imag != -x):
            raise ValueError("the odd-beta symbol takes real w or w - i gamma, one gamma")
        y, th, parts = q.real, np.tanh(math.pi * q.real), []
        for e in (a, b):
            m = math.floor(x + e + 0.5)
            r = x - (m - e)   # exact near the zero x = m - e, by Sterbenz
            sn, cs = (-1.0) ** m * math.sin(math.pi * r), (-1.0) ** m * math.cos(math.pi * r)
            hit = m if r == 0.0 and 0 < m < 2.0 * e else 0
            poly = math.prod((j - e - x) - 1j * y for j in range(1, round(2 * e)) if j != hit)
            sine = (-cs * np.divide(th, y, out=np.full(y.shape, math.pi), where=y != 0.0)
                    if hit else sn + 1j * cs * th)   # over m - e - z = -i y if hit
            parts.append((sine, poly))
        (sine_a, poly_a), (sine_b, poly_b) = parts
        out = front * (sine_b * poly_a) / (poly_b * sine_a)
        return out.real if np.isrealobj(q) else out
    shift = 1.0
    # one factor at a time: (_SHIFT, len(w)) complex temporaries at a thousand
    # bins are fresh pages from the allocator on every call
    for j in range(_SHIFT):
        shift = shift * (((b + j) ** 2 + s) / ((a + j) ** 2 + s))
    p = a + _SHIFT
    if np.isrealobj(q):
        re, _ = _log_gamma_ratio(p, q, d)
        return front * shift * np.exp(2.0 * re)
    # A + N + z and A + N - conj(z) in one call
    re, im = _log_gamma_ratio(p + np.stack([-q.imag, q.imag]), q.real, d)
    return front * shift * np.exp((re[0] + re[1]) + 1j * (im[0] - im[1]))


def _khat_convolve(G: np.ndarray, tau: np.ndarray, h: float, n: int, beta: float,
                   gamma: float = 0.0, keep=slice(None)) -> np.ndarray:
    """(Khat_gamma * G)(tau[keep]) for G sampled at the uniform nodes tau, zero beyond.

    Khat_gamma(t) = e^{-gamma t} Khat(t) is the log-radius kernel Khat(t) =
    (r s)^c k_beta(r, s), t = ln(r/s), c = (n-beta)/2, tilted by |gamma| < c;
    h is the node spacing.  G's padded rfft is multiplied by the symbol
    :func:`_khat_fourier` at w - i gamma, a trapezoidal/FFT rule that
    converges exponentially for G analytic in a strip (Trefethen and
    Weideman, SIAM Review 56, 2014), the kernel's cusp at t = 0
    notwithstanding: the symbol is exact.  The periodic images of the tilted
    kernel's tails omega(n-1) e^{-(c+gamma) t} and omega(n-1) e^{(c-gamma) t}
    are summed in closed form and subtracted, so the zero pad only has to
    outlast the remainder, O(e^{-(c+2)|t|}).
    """
    c = (n - beta) / 2.0
    k_right, k_left = c + gamma, c - gamma   # the tilted kernel's tail rates
    pad = math.ceil(_DIGITS / (2.0 + min(k_right, k_left)) / h)
    size = _next_fast_len(G.size + pad)
    period = size * h
    w = (2.0 * math.pi / period) * np.arange(size // 2 + 1)
    H = irfft(rfft(G, size) * _khat_fourier(n, beta, w - 1j * gamma if gamma else w), size)
    tt = tau[keep]
    # less the periodic images of the tails om e^{-k_right t}, om e^{k_left t}
    right = h * np.dot(G, np.exp(k_right * (tau - tau[-1]))) / -math.expm1(-k_right * period)
    left = h * np.dot(G, np.exp(k_left * (tau[0] - tau))) / -math.expm1(-k_left * period)
    images = (right * np.exp(k_right * (tau[-1] - period - tt))
              + left * np.exp(k_left * (tt - tau[0] - period)))
    return H[:G.size][keep] - omega(n - 1) * images


def _tilted_windows(g, grid: RadialGrid, e_in: float, e_out: float, s: float,
                    bound: float, halves: bool = True):
    """(tau, h, windows): G(tau) = e^{s tau} g(e^tau) on a log-uniform grid and past it.

    ``g`` is a callable or a profile's grid values, continued as r^e_in and
    r^e_out.  A window is (gamma, a half's grid nodes, their window nodes,
    e^{-gamma tau} G), gamma a quarter of the tilt interval (max(-bound, s +
    e_out), min(bound, s + e_in)) in from its top for the left half and from
    its bottom for the right, which keeps a convolution's relative accuracy
    at both grid ends.  ``halves=False`` gives one window over the whole grid
    at the interval's middle, enough for a derivative, which is local.  Each
    tilted G falls by 1e-17 before the window ends, so neither end is a jump
    for an FFT to ring on.
    """
    t = grid.log_r
    m = t.size
    h = (t[-1] - t[0]) / (m - 1)
    if np.max(np.abs(t - (t[0] + h * np.arange(m)))) > 1e-14 * (1.0 + np.max(np.abs(t))):
        raise GridError(
            "transforms need a grid uniform in log r, such as default_grid or "
            "RadialGrid.geometric (or a [::k] subsample of one)")
    lo, hi = max(-bound, s + e_out), min(bound, s + e_in)
    if not lo < hi:
        raise AccuracyError(f"outer tail s^({e_out}) decays no faster than the inner "
                            f"s^({e_in}): no tilt tames both", achieved=math.inf)
    gammas = (hi - (hi - lo) / 4.0, lo + (hi - lo) / 4.0) if halves else (0.5 * (lo + hi),)
    reach_lo, reach_hi = _DIGITS / (s + e_in - gammas[0]), _DIGITS / (gammas[-1] - s - e_out)
    if max(reach_lo, reach_hi) > _MAX_REACH:
        raise AccuracyError(
            f"tails s^({e_in}), s^({e_out}) need a source window "
            f"{max(reach_lo, reach_hi) / math.log(10.0):.0f} decades past the grid, "
            "beyond the 100 the FFT rule allows", achieved=math.inf)
    j_lo, j_hi = math.ceil(reach_lo / h), math.ceil(reach_hi / h)
    tau = t[0] + h * np.arange(-j_lo, m + j_hi)
    if callable(g):
        G0 = np.exp(s * tau) * np.asarray(g(np.exp(tau)), dtype=float)
    else:
        G0 = np.concatenate([
            g[0] * np.exp((s + e_in) * tau[:j_lo] - e_in * t[0]),
            np.exp(s * tau[j_lo:j_lo + m]) * g,
            g[-1] * np.exp((s + e_out) * tau[j_lo + m:] - e_out * t[-1])])
    windows = []
    cuts = (0, m // 2, m) if halves else (0, m)
    for gamma, start, stop in zip(gammas, cuts, cuts[1:]):
        G = np.exp(-gamma * tau) * G0
        if not np.all(np.isfinite(G)):
            raise SamplingError(f"g(r) r^({s - gamma}) is not finite on the source window "
                                f"[{math.exp(tau[0]):.1e}, {math.exp(tau[-1]):.1e}]")
        windows.append((gamma, slice(start, stop), slice(j_lo + start, j_lo + stop), G))
    return tau, h, windows


def riesz_convolve(g, spec: AngularKernelSpec, *, grid: Optional[RadialGrid] = None,
                   inner_exponent: Optional[float] = None,
                   outer_exponent: Optional[float] = None) -> RadialProfile:
    """(R_beta * g)(r) = int_0^inf g(s) s^(n-1) k_beta(r, s) ds for radial g.

    ``g`` is a RadialProfile (its grid values, continued by its declared
    exponents outside the grid; it carries its own grid and exponents, so
    passing any of the three keywords with it is a ValueError) or a plain
    callable, in which case ``grid`` and both exponents must be supplied; it
    is evaluated on the whole source window below, where r^s g(r) must be
    finite, else SamplingError.  No normalizing constant is applied.

    Preconditions (checked): e_in + n > 0 and e_out + beta < 0, otherwise the
    integral diverges (IntegrabilityError); a grid uniform in log r
    (``default_grid``, ``RadialGrid.geometric``, or a ``[::k]`` subsample of
    one), else GridError; with c = (n-beta)/2 and s = (n+beta)/2, a
    non-empty tilt interval (max(-c, s + e_out), min(c, s + e_in)), i.e.
    e_out < e_in, and a source window reaching at most 100 decades past the
    grid, which holds when the interval is at least 4 ln(1e17)/ln(1e100) ~
    0.68 wide, else AccuracyError.

    The Mellin convolution theorem (Titchmarsh, Introduction to the Theory
    of Fourier Integrals, 1937) gives (R_beta * g)(e^t) = e^{-c t}
    (Khat * G)(t), G(tau) = e^{s tau} g(e^tau), and Khat * G = e^{gamma t}
    (Khat_gamma * e^{-gamma tau} G) for every tilt gamma, one
    :func:`_khat_convolve` per window of :func:`_tilted_windows`.  Output
    lands on the source grid, tails set by the kernel's mapping properties.
    """
    n, beta = spec.n, spec.beta
    if isinstance(g, RadialProfile):
        if grid is not None or inner_exponent is not None or outer_exponent is not None:
            raise ValueError("a RadialProfile source carries its own grid and exponents; "
                             "pass none of grid=, inner_exponent=, outer_exponent=")
        if g.inner_exponent is None or g.outer_exponent is None:
            raise IntegrabilityError(
                "riesz_convolve needs declared tail exponents; estimate_exponents "
                "or declare them explicitly")
        grid, e_in, e_out, g = g.grid, g.inner_exponent, g.outer_exponent, g.values
    else:
        if grid is None or inner_exponent is None or outer_exponent is None:
            raise ValueError("callable g needs grid=, inner_exponent=, outer_exponent=")
        e_in, e_out = inner_exponent, outer_exponent

    if e_in + n <= 0.0:
        raise IntegrabilityError(
            f"inner tail s^({e_in}) s^(n-1) is not integrable at 0 (need e_in + n > 0)")
    if e_out + beta >= 0.0:
        raise IntegrabilityError(
            f"outer tail decays like s^({e_out}); need e_out + beta < 0 for the "
            "convolution to converge")

    c, s = (n - beta) / 2.0, (n + beta) / 2.0
    tau, h, windows = _tilted_windows(g, grid, e_in, e_out, s, c)
    out = np.empty(grid.r.size)
    for gamma, part, rows, G in windows:
        H = _khat_convolve(G, tau, h, n, beta, gamma, rows)
        out[part] = np.exp((gamma - c) * tau[rows]) * H

    # mapping of tails: finite limit at 0 when g s^(beta-1) is integrable there,
    # potential decay r^(beta-n) at infinity when g has finite mass
    v_e_in = 0.0 if e_in + beta > 0.0 else e_in + beta
    v_e_out = beta - n if e_out + n < 0.0 else e_out + beta
    return RadialProfile(grid, out, v_e_in, v_e_out)


# ============================================================
# laplacian, rhs, calibration
# ============================================================


def default_grid(per_decade: int = 96) -> RadialGrid:
    """The workhorse grid for residual studies: 1e-4 .. 1e4."""
    return RadialGrid.geometric(1e-4, 1e4, per_decade)


@dataclass(frozen=True)
class CfCalibration:
    c_f: float              # fitted normalization of F
    residual_norm: float    # relative L2 residual of the bubble at the fit
    rhs: RadialProfile = field(compare=False)     # the bubble's rhs at the fitted c_f
    bubble: RadialProfile = field(compare=False)  # the bubble fitted on, with its exact tails


def calibrate_cf(params: ProblemParams, *, window=(0.05, 20.0),
                 per_decade: int = 96) -> CfCalibration:
    """Measure c_f on the explicit bubble: a check of the radial pipeline.

    The bubble residual is linear in c_f, so the least-squares optimum over
    the window is a single ratio of weighted inner products between the
    bubble's exact (closed-form) Laplacian and the convolution side
    evaluated at c_f = 1.  The fitted value and the leftover residual are
    both reported, to be held against ``SharpConstants.c_f``, the closed
    form every solver uses.  The convolution side, rescaled to the fitted
    c_f, is kept as ``rhs`` for :func:`residual`, and the bubble it was
    computed from as ``bubble``.
    """
    n = params.n
    amp = sharp_constants(params).c_n
    grid = default_grid(per_decade)
    r = grid.r
    mask, wq = _window_weights(r, window, n)

    u_exact = make_bubble(params).radial_fn
    neglap = amp * n * (n - 2.0) * (1.0 + r ** 2) ** (-(n + 2.0) / 2.0)

    # the bubble with its exact tails: bounded at 0, r^(2-n) at infinity
    bubble = RadialProfile(grid, u_exact(r), inner_exponent=0.0,
                           outer_exponent=-(n - 2.0))
    unit_rhs = hartree_rhs(bubble, params, NonlinearitySpec(p=params.p, c_f=1.0),
                           u_exact=u_exact)

    b, m = neglap[mask], unit_rhs.values[mask]
    c_f = float(np.dot(wq * b, m) / np.dot(wq * m, m))
    res = b - c_f * m
    rel = float(math.sqrt(np.dot(wq, res ** 2) / np.dot(wq, b ** 2)))

    return CfCalibration(c_f=c_f, residual_norm=rel,
                         rhs=replace(unit_rhs, values=c_f * unit_rhs.values), bubble=bubble)


def nonlinearity_for(params: ProblemParams) -> NonlinearitySpec:
    """The problem's nonlinearity at the closed-form ``SharpConstants.c_f``."""
    return NonlinearitySpec(p=params.p, c_f=sharp_constants(params).c_f)


def hartree_potential(u: RadialProfile, params: ProblemParams, nl: NonlinearitySpec,
                      u_exact: Optional[Callable] = None) -> RadialProfile:
    """v = R_alpha * F(u) on u's grid.

    F(u) enters as the profile of its grid values with u's tails to the
    power p or, given ``u_exact`` (a radial callable), sampled from that
    closed form, beyond the grid too.
    """
    if u.inner_exponent is None or u.outer_exponent is None:
        raise IntegrabilityError("u needs declared tail exponents for the Hartree right side")
    e_in, e_out = nl.p * u.inner_exponent, nl.p * u.outer_exponent
    if e_out + params.n >= 0.0:
        raise IntegrabilityError(
            f"F(u) decays like s^({e_out}); finite Riesz mass needs e_out + n < 0")
    spec = AngularKernelSpec(params.n, params.alpha)
    if u_exact is None:
        return riesz_convolve(RadialProfile(u.grid, nl.F(u.values), e_in, e_out), spec)
    return riesz_convolve(lambda s: nl.F(u_exact(s)), spec, grid=u.grid,
                          inner_exponent=e_in, outer_exponent=e_out)


def hartree_rhs(u: RadialProfile, params: ProblemParams, nl: NonlinearitySpec,
                u_exact: Optional[Callable] = None) -> RadialProfile:
    """(R_alpha * F(u)) f(u) on u's grid, with v = :func:`hartree_potential`."""
    v = hartree_potential(u, params, nl, u_exact=u_exact)
    uu = u.values if u_exact is None else np.asarray(u_exact(u.grid.r), dtype=float)
    return RadialProfile(u.grid, v.values * nl.f(uu),
                         inner_exponent=(v.inner_exponent or 0.0)
                         + (nl.p - 1.0) * u.inner_exponent,
                         outer_exponent=v.outer_exponent + (nl.p - 1.0) * u.outer_exponent)


# ============================================================
# residual bookkeeping
# ============================================================


@dataclass(frozen=True)
class ResidualReport:
    form: str                    # "differential" or "integral"
    n: int
    alpha: float
    c_f: float
    window: tuple
    rel_norm: float              # weighted relative L2 over the window
    rel_max: float               # max pointwise term-relative residual in the window
    residual: RadialProfile
    scale: RadialProfile         # pointwise term scale used for normalization
    c2: Optional[float] = None            # Green constant used by the integral form
    c2_alt_ratio: Optional[float] = None  # (n-2)/(n-1), the competing convention

    def summary(self) -> dict:
        doc = {
            "form": self.form,
            "n": self.n,
            "alpha": self.alpha,
            "c_f": self.c_f,
            "window": list(self.window),
            "rel_norm": self.rel_norm,
            "rel_max": self.rel_max,
        }
        if self.c2 is not None:
            doc["green_constant"] = self.c2
            doc["green_constant_alt_ratio"] = self.c2_alt_ratio
        return doc


def _window_weights(r: np.ndarray, window, n: int):
    """(mask, weights): the window's grid nodes and their measure r^n dlog r."""
    mask = (r >= window[0]) & (r <= window[1])
    if np.count_nonzero(mask) < 2:
        raise SamplingError(f"window {tuple(window)} holds fewer than 2 grid nodes")
    return mask, r[mask] ** n * np.gradient(np.log(r[mask]))


def _window_norms(mask: np.ndarray, wq: np.ndarray, res: np.ndarray, scale: np.ndarray):
    rel_norm = math.sqrt(float(np.dot(wq, res[mask] ** 2))
                         / float(np.dot(wq, scale[mask] ** 2)))
    rel_max = float(np.max(np.abs(res[mask]) / scale[mask]))
    return rel_norm, rel_max


def residual(u: RadialProfile, rhs: RadialProfile, params: ProblemParams,
             window=(0.05, 20.0), *, c_f: float) -> tuple:
    """(differential, integral, forms_gap) of -Lap u = rhs for the given rhs.

    differential: -Lap u - rhs = -(u_tt + (n-2) u_t) / r^2 - rhs in t = ln r;
                  scale (|u_tt| + (n-2) |u_t|) / r^2 + |rhs|.
    integral:     u - c2 R_2 * rhs with c2 the Green normalization of
                  :func:`newton_constant`; scale |u| + |c2 R_2 * rhs|.

    ``rhs`` is (R_alpha * F(u)) f(u) on u's grid, e.g. ``calibrate_cf(...).rhs``
    with ``c_f`` the normalization it was built at.  Relative norms are
    weighted L2 over the window with the volume measure r^n dlog r.  u_t
    and u_tt come from one window of :func:`_tilted_windows` (s = 0, u's
    declared tails) at the middle tilt gamma = (e_in + e_out)/2: one rfft of
    e^{-gamma t} u, times the symbols (i w + gamma) and (i w + gamma)^2; a
    derivative is local, so it needs no tilt per grid end and no image is
    subtracted.

    For decaying u the Green convolution intertwines the two forms exactly:
    u - c2 R_2 * rhs = c2 R_2 * (-Lap u - rhs).  The forms gap is the
    weighted relative L2 distance of the two sides, normalized by |u|, over
    the window; rounding and the tails' fit to u are all that should remain.
    """
    if not np.array_equal(rhs.grid.r, u.grid.r):
        raise GridError("the rhs must live on u's grid")
    n = params.n
    window = tuple(window)
    green = AngularKernelSpec(n, 2.0)
    c2 = newton_constant(n)

    def report(form, res, scale, **green_consts):
        rel_norm, rel_max = _window_norms(mask, wq, res, scale)
        return ResidualReport(form=form, n=n, alpha=params.alpha, c_f=c_f,
                              window=window, rel_norm=rel_norm, rel_max=rel_max,
                              residual=RadialProfile(u.grid, res),
                              scale=RadialProfile(u.grid, scale), **green_consts)

    if u.inner_exponent is None or u.outer_exponent is None:
        raise IntegrabilityError("the residual continues u by its declared tail exponents")
    mask, wq = _window_weights(u.grid.r, window, n)
    tau, h, windows = _tilted_windows(u.values, u.grid, u.inner_exponent,
                                      u.outer_exponent, 0.0, math.inf, halves=False)
    [(gamma, _, rows, V)] = windows
    size = _next_fast_len(V.size)
    d = 1j * (2.0 * math.pi / (size * h)) * np.arange(size // 2 + 1) + gamma
    ut, utt = np.exp(gamma * tau[rows]) * irfft(np.stack([d, d * d]) * rfft(V, size),
                                                size)[:, rows]
    r2 = u.grid.r ** 2
    res_d = -(utt + (n - 2.0) * ut) / r2 - rhs.values
    term_scale = (np.abs(utt) + (n - 2.0) * np.abs(ut)) / r2
    differential = report("differential", res_d, term_scale + np.abs(rhs.values))

    conv = c2 * riesz_convolve(rhs, green).values
    res_i = u.values - conv
    integral = report("integral", res_i, np.abs(u.values) + np.abs(conv),
                      c2=float(c2), c2_alt_ratio=newton_constant_alt(n) / c2)

    # the differential residual decays like the rhs tail; declare that for the map
    mapped = riesz_convolve(RadialProfile(u.grid, res_d, 0.0, -(n + 2.0)), green)
    gap, _ = _window_norms(mask, wq, res_i - c2 * mapped.values, np.abs(u.values))
    return differential, integral, gap


# ============================================================
# integral checks: Riesz bilinear form at its extremal
# ============================================================


def _radial_integral(w: np.ndarray, h: float, n: int) -> float:
    """int_0^inf g(x) x^(n-1) dx from w = g x^n on a grid uniform in t = ln x, step h.

    The trapezoid rule in t on the whole line, its grid continued by
    g ~ x^0 below and g ~ x^(-2n) above: both continuations of g x^n fall
    like e^(-n|t|), so each sums in closed form to w_end / (e^(nh) - 1).
    For integrands analytic in a strip the rule converges exponentially
    (Trefethen and Weideman, SIAM Review 56, 2014).
    """
    return h * float(np.sum(w) + (w[0] + w[-1]) / math.expm1(n * h))


@dataclass(frozen=True)
class BilinearCheck:
    n: int
    alpha: float
    double_integral: float   # D = int f (R_alpha * f)
    sharp_bound: float       # h_n * |f|_q^2, q = 2n/(n+alpha)
    ratio: float             # D / bound; 1 at the extremal

    def summary(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "double_integral": self.double_integral,
            "sharp_bound": self.sharp_bound,
            "ratio": self.ratio,
        }


def hls_ratio(params: ProblemParams, mu: float = 1.0,
              per_decade: int = 96) -> BilinearCheck:
    """Saturation ratio of the sharp Riesz bilinear inequality at its extremal.

    D(f, f) = int int f(x) |x-y|^(alpha-n) f(y) dx dy is computed by the
    radial convolution pipeline, the bound is h_n |f|_q^2 with
    q = 2n/(n+alpha), and the extremal f(r) = (mu/(mu^2+r^2))^((n+alpha)/2)
    attains equality, so the ratio doubles as an end-to-end quadrature
    check.  D and |f|_q^q are integrated on the potential's own grid
    (:func:`_radial_integral`).  A mu whose extremal leaves the double range
    on that grid raises SamplingError, and so does one where a sample of f,
    v or either integrand is zero or subnormal, since those carry fewer
    digits than the check certifies.
    """
    n, a = params.n, params.alpha
    f = make_hls_extremal(params, mu=mu).radial_fn
    grid = RadialGrid.geometric(1e-4 * mu, 1e4 * mu, per_decade)
    q = 2.0 * n / (n + a)
    try:
        with np.errstate(over="raise", invalid="raise"):
            v = riesz_convolve(f, AngularKernelSpec(n, a), grid=grid,
                               inner_exponent=0.0, outer_exponent=-(n + a))
            # D = int f (R_a * f) and |f|_q^q in x = r/mu, so no power of r overflows
            fr, xn = f(grid.r), (grid.r / mu) ** n
            samples = (fr, v.values, fr * v.values * xn, fr ** q * xn)
            if not all(np.all(np.abs(y) >= _TINY) for y in samples):
                raise SamplingError(f"the extremal at mu={mu:g} leaves the normal "
                                    "double range on its grid")
            t, scale = grid.log_r, omega(n - 1) * mu ** n
            h = (t[-1] - t[0]) / (t.size - 1)
            D = scale * _radial_integral(samples[2], h, n)
            norm_q = scale * _radial_integral(samples[3], h, n)
    except (FloatingPointError, OverflowError) as exc:
        raise SamplingError(f"the extremal at mu={mu:g} leaves the double range: {exc}")
    if not (0.0 < D < math.inf and 0.0 < norm_q < math.inf):
        raise SamplingError(f"the extremal at mu={mu:g} leaves the double range")
    bound = sharp_constants(params).h_n * norm_q ** (2.0 / q)
    return BilinearCheck(n=n, alpha=a, double_integral=D, sharp_bound=bound,
                         ratio=D / bound)
