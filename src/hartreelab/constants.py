"""Sharp constants attached to the critical Hartree equation.

All gamma-function work is routed through ``math.lgamma`` in log space so
that large dimensions cannot overflow intermediate factors; only the final
``exp`` can leave the floating range, and when it does the offending
subexpression is named in the raised error.

Conventions
-----------
omega(k) is the k-dimensional surface measure of the unit sphere
S^k embedded in R^(k+1):

    omega(k) = 2 pi^((k+1)/2) / Gamma((k+1)/2),

so omega(1) = 2 pi, omega(2) = 4 pi. The volume of the unit ball in R^n
is the separate quantity omega(n-1)/n.  Under this convention the
Sobolev constant below is exactly the best constant of the embedding
D^{1,2}(R^n) -> L^{2n/(n-2)}(R^n), i.e. the Talenti bubble attains
quotient |grad u|_2^2 / |u|_{2*}^2 = s_n^{-2}; this calibration is
checked numerically in the test suite.

The stored quantities, for p = (n + alpha)/(n - 2):

    h_n : sharp constant of the bilinear Riesz (convolution) inequality,
          pi^((n-a)/2) Gamma(a/2) Gamma((n+a)/2)^-1
          * Gamma(n)^(1-(n-a)/n) Gamma(n/2)^((n-a)/n - 1)
    s_n : (4 / (n (n-2) omega(n)^(2/n)))^(1/2)
    k_n : s_n * h_n^((2-n)/(n+alpha))      (definitional identity)
    c_n : bubble amplitude,
          s_n^((n-a)(2-n)/(4(n-a+2))) k_n^((2-n)/(2(n-a+2))) (n(n-2))^((n-2)/4)
    c_f : the F = c_f |u|^p under which the bubble solves the equation,
          n(n-2) / (c_n^(2p-2) C), C = pi^(n/2) Gamma(a/2) / Gamma((n+a)/2)
          the conformal constant: R_a * (1+r^2)^(-(n+a)/2) = C (1+r^2)^(-(n-a)/2);
          every solver uses this c_f, and the bubble check measures it
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterRangeError
from .params import ProblemParams

# ============================================================
# sphere measures
# ============================================================


def omega(k: int) -> float:
    """Surface measure of the unit k-sphere S^k in R^(k+1)."""
    if k < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {k}")
    try:
        return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)
    except OverflowError:
        raise ParameterRangeError(
            f"Gamma((k+1)/2) in omega({k}) left the floating-point range") from None


def newton_constant(n: int) -> float:
    """Normalization c2 with c2 |x|^(2-n) the fundamental solution of -Lap in R^n.

    Convolving -Lap u with c2 |x|^(2-n) returns u for decaying u, so this is
    the constant the integral form of the equation must carry.  An alternative
    normalization 1/((n-1) omega(n-1)) circulates in parts of the literature;
    the two differ by the factor (n-2)/(n-1) and the ratio is reported by the
    residual bookkeeping rather than silently absorbed.
    """
    return 1.0 / ((n - 2) * omega(n - 1))


def newton_constant_alt(n: int) -> float:
    """The (n-1)-normalized variant of :func:`newton_constant`, kept for reporting."""
    return 1.0 / ((n - 1) * omega(n - 1))


# ============================================================
# sharp constants
# ============================================================


@dataclass(frozen=True)
class SharpConstants:
    s_n: float             # Sobolev constant, quotient calibration s_n^(-2)
    h_n: float             # sharp Riesz/convolution constant
    k_n: float             # s_n * h_n^((2-n)/(n+alpha))
    c_n: float             # bubble amplitude
    c_f: float             # F-normalization that makes the bubble an exact solution


def _exp_checked(log_value: float, name: str) -> float:
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if value == 0.0 or not math.isfinite(value):
        raise ParameterRangeError(
            f"exp({name}) left the floating-point range (log value {log_value:.3g})")
    return value


def sharp_constants(params: ProblemParams) -> SharpConstants:
    """Evaluate the sharp-constant family for the given (n, alpha).

    Everything is assembled in log space from ``math.lgamma``; relative
    accuracy is a few ulps, comfortably below the 1e-12 demanded of it.
    """
    n, a = params.n, params.alpha

    log_h = ((n - a) / 2.0 * math.log(math.pi)
             + math.lgamma(a / 2.0)
             - math.lgamma((n + a) / 2.0)
             + (1.0 - (n - a) / n) * math.lgamma(n)
             + ((n - a) / n - 1.0) * math.lgamma(n / 2.0))
    h_n = _exp_checked(log_h, "log h_n")

    # omega(n), the measure of S^n, in log space
    log_omega_n = math.log(2.0) + (n + 1) / 2.0 * math.log(math.pi) - math.lgamma((n + 1) / 2.0)
    log_s = 0.5 * (math.log(4.0) - math.log(n) - math.log(n - 2.0)
                   - (2.0 / n) * log_omega_n)
    s_n = _exp_checked(log_s, "log s_n")

    log_k = log_s + (2.0 - n) / (n + a) * log_h
    k_n = _exp_checked(log_k, "log k_n")

    log_c = ((n - a) * (2.0 - n) / (4.0 * (n - a + 2.0)) * log_s
             + (2.0 - n) / (2.0 * (n - a + 2.0)) * log_k
             + (n - 2.0) / 4.0 * (math.log(n) + math.log(n - 2.0)))
    c_n = _exp_checked(log_c, "log c_n")

    log_conformal = n / 2.0 * math.log(math.pi) + math.lgamma(a / 2.0) - math.lgamma((n + a) / 2.0)
    log_cf = math.log(n * (n - 2.0)) - 2.0 * params.p_minus_1 * log_c - log_conformal

    return SharpConstants(
        s_n=s_n,
        h_n=h_n,
        k_n=k_n,
        c_n=c_n,
        c_f=_exp_checked(log_cf, "log c_f"),
    )


def k_identity_defect(consts: SharpConstants, params: ProblemParams) -> float:
    """Relative defect of k_n = s_n h_n^((2-n)/(n+alpha)); zero up to round-off."""
    n, a = params.n, params.alpha
    recomputed = consts.s_n * consts.h_n ** ((2.0 - n) / (n + a))
    return abs(consts.k_n - recomputed) / consts.k_n
