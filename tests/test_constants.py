"""Sharp constants against the committed multi-precision oracle.

The fixture is produced by make_constants_oracle.py (mpmath at 40 digits);
everything here compares the package's lgamma-based doubles against those
values, plus the closed-form identities the constants must satisfy among
themselves.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hartreelab import ProblemParams, sharp_constants
from hartreelab.constants import (k_identity_defect, newton_constant,
                                  newton_constant_alt, omega)
from hartreelab.errors import ParameterDomainError, ParameterRangeError

FIXTURE = Path(__file__).parent / "fixtures" / "sharp_constants_oracle.json"
ORACLE = json.loads(FIXTURE.read_text())["cases"]
FIELDS = ("s_n", "h_n", "k_n", "c_n")


@pytest.mark.parametrize("case", ORACLE, ids=lambda c: f"n{c['n']}a{c['alpha']:g}")
def test_constants_match_oracle(case):
    n, params = case["n"], ProblemParams(case["n"], case["alpha"])
    sc = sharp_constants(params)
    got = {key: getattr(sc, key) for key in FIELDS}
    got.update(p=params.p, omega=omega(n - 1), omega_n=omega(n), omega_n_minus_2=omega(n - 2))
    for key, value in got.items():
        assert value == pytest.approx(float(case[key]), rel=1e-12), key


def test_sphere_measures():
    assert omega(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert omega(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert omega(3) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    with pytest.raises(ValueError):
        omega(-1)


def test_exponents():
    P = ProblemParams(3, 2.0)
    assert P.p == 5.0
    assert P.p_minus_1 == 4.0
    assert P.nu == 0.5


@pytest.mark.parametrize("n,alpha", [(3, 1.0), (3, 2.0), (4, 2.0), (5, 3.0)])
def test_k_identity_holds_to_roundoff(n, alpha):
    P = ProblemParams(n, alpha)
    assert k_identity_defect(sharp_constants(P), P) < 1e-14


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [242, 250, 300, 400, 455])
def test_constants_past_the_double_range_are_refused(n, alpha):
    # a log-space constant whose exp overflows is named, not a bare OverflowError
    with pytest.raises(ParameterRangeError, match=r"exp\(log \w+\) left the floating-point"):
        sharp_constants(ProblemParams(n, alpha))


def test_omega_past_the_double_range_is_refused():
    # Gamma((k+1)/2) overflows from k = 343; below that omega keeps its formula
    assert omega(342) == 2.0 * math.pi ** 171.5 / math.gamma(171.5)
    with pytest.raises(ParameterRangeError, match=r"omega\(343\) left the floating-point"):
        omega(343)


def test_newton_constant_conventions():
    assert newton_constant(3) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
    for n in (3, 4, 5):
        ratio = newton_constant_alt(n) / newton_constant(n)
        assert ratio == pytest.approx((n - 2.0) / (n - 1.0), rel=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sobolev_quotient_calibration(n):
    # the profile (1 + r^2)^(-(n-2)/2) attains |grad u|_2^2 / |u|_{2*}^2 = s_n^{-2}
    sc = sharp_constants(ProblemParams(n, 2.0))
    nu = (n - 2.0) / 2.0
    du = lambda r: -2.0 * nu * r * (1.0 + r * r) ** (-nu - 1.0)
    u = lambda r: (1.0 + r * r) ** (-nu)
    two_star = 2.0 * n / (n - 2.0)
    om = omega(n - 1)
    grad2 = om * quad(lambda r: du(r) ** 2 * r ** (n - 1), 0.0, np.inf)[0]
    norm2 = (om * quad(lambda r: u(r) ** two_star * r ** (n - 1), 0.0, np.inf)[0]) \
        ** (2.0 / two_star)
    assert grad2 / norm2 == pytest.approx(sc.s_n ** -2, rel=1e-12)


def test_invalid_parameters_are_refused():
    with pytest.raises(ParameterDomainError):
        ProblemParams(2, 1.0)
    with pytest.raises(ParameterDomainError):
        ProblemParams(3, 0.0)
    with pytest.raises(ParameterDomainError):
        ProblemParams(3, 3.0)
    with pytest.raises(ParameterDomainError):
        ProblemParams(4, -1.0)
