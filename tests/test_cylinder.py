"""Log-cylinder reduction: kernel, convolution, ODE residual, periodic orbits.

The (n, alpha) = (3, 2) closed forms drive most checks:

    Khat(t)   = 4 pi e^{-|t|/2}
    |Khat|_1  = 16 pi
    Khat^(w)  = 16 pi / (1 + 4 w^2)
    D(w)      = w^2 + (1/4) (2 - 5 - 5/(1 + 4 w^2)),  root w_0 = 1, L_0 = 2 pi
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hartreelab import (AccuracyError, AngularKernelSpec, CylinderProfile,
                        GridError, IntegrabilityError, NonlinearitySpec,
                        ParameterRangeError, ProblemParams, RadialGrid,
                        RadialProfile, SamplingError,
                        angular_kernel, constant_solution,
                        cylinder_convolution, dispersion_function,
                        dispersion_root, find_delaunay, hls_ratio,
                        kernel_hat, kernel_table, make_bubble, nonlinearity_for,
                        ode_residual, sharp_constants, to_cylinder)
from hartreelab import cylinder, kernel, riesz
from hartreelab.constants import omega
from hartreelab.cylinder import _HalfGridSystem

P32 = ProblemParams(3, 2.0)
NL32 = nonlinearity_for(P32)
NORM32 = float(cylinder._khat_fourier(3, 2.0, 0.0))   # |Khat|_1 at (3, 2)

# k_beta(1, s) and Khat(ln(1/s)) at 40 digits, from make_kernel_oracle.py
KERNEL_ORACLE = json.loads((Path(__file__).parent / "fixtures"
                            / "kernel_oracle.json").read_text())["cases"]


@pytest.fixture
def fresh_trace():
    """An empty coarse-trace cache, emptied again at the end, so that a
    trace run under a patched solver serves no later call."""
    cylinder._coarse_landing.cache_clear()
    yield
    cylinder._coarse_landing.cache_clear()


# ============================================================
# the kernel
# ============================================================


def test_kernel_hat_closed_form():
    t = np.linspace(-10.0, 10.0, 81)
    got = kernel_hat(P32, t)
    want = 4.0 * np.pi * np.exp(-np.abs(t) / 2.0)
    assert np.max(np.abs(got / want - 1.0)) < 1e-12


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("t", [1e-8, 1e-6, 1e-3])
def test_kernel_hat_near_the_diagonal(n, t):
    # at alpha = 2, Khat(t) = omega(n-1) e^{-(n-2)|t|/2}; QUADPACK certifies it
    # with a positive error estimate however close t comes to 0
    P = ProblemParams(n, 2.0)
    want = omega(n - 1) * math.exp(-(n - 2) * t / 2.0)
    assert abs(kernel_hat(P, t) / want - 1.0) < 1e-13
    _, err = kernel._kernel_quad(n, 2.0, 2.0 * math.sinh(t / 2.0) ** 2)
    assert 0.0 < err


def test_kernel_hat_parity_and_tail():
    for ti in (0.3, 2.0, 17.0, 30.0):
        assert kernel_hat(P32, ti) == kernel_hat(P32, -ti)
    # far samples switch to the exact asymptotic branch and stay smooth
    near, far = kernel_hat(P32, 24.99), kernel_hat(P32, 25.01)
    assert near / far == pytest.approx(math.exp(0.02 / 2.0), rel=1e-9)


def test_kernel_hat_guards():
    P31 = ProblemParams(3, 1.0)
    assert kernel_hat(P31, 0.5) > 0.0          # integrable off t = 0
    with pytest.raises(IntegrabilityError):
        kernel_hat(P31, 0.0)


@pytest.mark.parametrize("n, t, first", [(200, [-6.0, 0.0, 3.0, 6.0], "-6.0"),
                                         (268, 3.0, "3.0")])
def test_kernel_hat_refuses_a_sample_that_underflows(n, t, first):
    # a zero is not a sample of a positive kernel
    with pytest.raises(ParameterRangeError, match=f"floating-point range at t={first}$"):
        kernel_hat(ProblemParams(n, 2.0), t)


def test_kernel_hat_certifies_the_error_magnitude(monkeypatch):
    # QUADPACK's error estimate is a magnitude; a negative one certifies nothing
    monkeypatch.setattr(kernel, "_kernel_quad", lambda n, beta, d: (1.0, -1e-3))
    with pytest.raises(AccuracyError):
        kernel_hat(P32, 1.0)


@pytest.mark.parametrize("n,a", [(3, 2.0), (4, 2.0), (5, 3.0)])
def test_kernel_identity_against_angular_route(n, a):
    P = ProblemParams(n, a)
    spec = AngularKernelSpec(n, a)
    rng = np.random.default_rng(11)
    r = np.exp(rng.uniform(-2.0, 2.0, 12))
    s = np.exp(rng.uniform(-2.0, 2.0, 12))
    lhs = (r * s) ** ((n - a) / 2.0) * angular_kernel(spec, r, s)
    rhs = kernel_hat(P, np.log(r / s))
    assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-9


@pytest.mark.parametrize("case", KERNEL_ORACLE,
                         ids=lambda c: f"n{c['n']}b{c['beta']:g}s{c['s']}")
def test_kernels_match_multiprecision_oracle(case):
    n, beta = case["n"], case["beta"]
    s, t = float(case["s"]), float(case["t"])
    near_diagonal = s - 1.0 < 1e-5
    # Gauss-Jacobi rules: a few ulp everywhere, beta <= 1 near the diagonal too
    got = angular_kernel(AngularKernelSpec(n, beta), 1.0, s)
    assert abs(got / float(case["k"]) - 1.0) < 1e-14
    # QUADPACK: a few ulp, up to 5e-14 at s - 1 = 1e-6 for n >= 4
    got = kernel_hat(ProblemParams(n, beta), t)
    assert abs(got / float(case["khat"]) - 1.0) < (2e-13 if near_diagonal else 1e-14)


def test_kernel_table_invariants():
    # Khat's closed forms, and on kernel_hat the shape they rest on:
    # positive, nonincreasing in |t|, settling on omega(n-1)
    assert NORM32 == pytest.approx(16.0 * math.pi, rel=1e-12)
    assert omega(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    for w in (0.0, 0.5, 1.0, 2.0):
        assert float(cylinder._khat_fourier(3, 2.0, w)) == pytest.approx(
            16.0 * math.pi / (1.0 + 4.0 * w * w), rel=1e-10)
    for n, alpha in [(3, 0.5), (3, 1.05), (3, 2.0), (4, 1.5), (5, 3.0), (5, 4.5)]:
        P = ProblemParams(n, alpha)
        t = np.concatenate([[0.0] if alpha > 1.0 else [], np.geomspace(1e-4, 0.1, 24),
                            np.arange(0.15, 25.0 + 1e-9, 0.05)])
        v = kernel_hat(P, t)
        assert np.all(v > 0.0), P
        assert np.all(np.diff(v) <= 0.0), P
        tail = t >= 0.9 * t[-1]
        ratio = v[tail] * np.exp((n - alpha) / 2.0 * t[tail]) / omega(n - 1)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-6, P


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_newton_symbol_closed_form(n):
    # at alpha = 2, Khat(t) = omega(n-1) e^{-nu|t|} transforms to a Lorentzian
    nu = (n - 2) / 2.0
    w = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    want = 2.0 * omega(n - 1) * nu / (nu * nu + w * w)
    got = cylinder._khat_fourier(n, 2.0, w).real
    assert np.max(np.abs(got / want - 1.0)) <= 2e-15


@pytest.mark.parametrize("alpha", [1.05, 1.5])
@pytest.mark.parametrize("w", [0.0, 1.0])
def test_kernel_table_symbol_matches_quadrature(alpha, w):
    # 2 int_0^inf Khat(t) cos(w t) dt from kernel_hat in pieces, the exact
    # exponential tail summed beyond t = 25
    P = ProblemParams(3, alpha)
    breaks = [0.0, 1e-3, 1e-2, 0.1, 1.0, 3.0, 8.0, 15.0, 25.0]
    core = sum(quad(lambda t: float(kernel_hat(P, t)) * math.cos(w * t), lo, hi,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(breaks[:-1], breaks[1:]))
    z = complex((3.0 - alpha) / 2.0, w)
    want = 2.0 * (core + omega(2) * (np.exp(-25.0 * z) / z).real)
    assert abs(float(cylinder._khat_fourier(3, alpha, w)) / want - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha,stirling", [(3.0, False), (0.7, True)])
def test_odd_alpha_symbol_takes_no_stirling_series(monkeypatch, fresh_trace, alpha, stirling):
    # a call count, not a timing: at (5, 3) the reflected symbol serves both
    # the Riesz bilinear check and a bordered Delaunay system
    P = ProblemParams(5, alpha)
    nl = nonlinearity_for(P)
    calls = []
    log_gamma_ratio = riesz._log_gamma_ratio
    monkeypatch.setattr(riesz, "_log_gamma_ratio",
                        lambda *args: calls.append(1) or log_gamma_ratio(*args))
    hls_ratio(P, per_decade=16)
    assert bool(calls) == stirling
    calls.clear()
    _HalfGridSystem(P, nl, 2.0 * math.pi, 64, bordered=True)
    assert bool(calls) == stirling


def test_symbol_strictly_decreases():
    # 200 draws from one Philox stream, and the two corners of the ranges
    rng = np.random.Generator(np.random.Philox(11))
    draws = zip(rng.integers(3, 7, 200, endpoint=True).tolist(),
                rng.uniform(0.01, 0.99, 200), rng.uniform(0.0, 100.0, 200),
                rng.uniform(1e-3, 10.0, 200))
    failed = []
    for n, frac, w, step in [(3, 0.01, 0.0, 1e-3), (7, 0.99, 100.0, 10.0), *draws]:
        lo, hi = cylinder._khat_fourier(n, frac * n, np.array([w, w + step * (1.0 + w)])).real
        if not hi < lo:
            failed.append((n, frac, w, step))
    assert not failed


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_kernel_table_serves_unbounded_kernels(alpha):
    # Khat(0) is infinite for alpha <= 1, but Khat is integrable and its
    # closed forms exist; only the pointwise value at t = 0 is refused
    P = ProblemParams(3, alpha)
    norm = float(cylinder._khat_fourier(3, alpha, 0.0))
    assert math.isfinite(norm) and norm > float(cylinder._khat_fourier(3, alpha, 1.0)) > 0.0
    with pytest.raises(IntegrabilityError):
        kernel_hat(P, 0.0)


# ============================================================
# profiles and the coordinate map
# ============================================================


def test_cylinder_profile_contracts():
    t = np.linspace(-1.0, 1.0, 64)
    smooth = 1e-9 * np.exp(-t * t)
    with pytest.raises(GridError):
        CylinderProfile(t[:4], smooth[:4])                       # too few nodes
    with pytest.raises(GridError):
        CylinderProfile(t, smooth[:32])                          # shape mismatch
    with pytest.raises(GridError):
        CylinderProfile(np.geomspace(0.1, 1.0, 64), smooth)      # nonuniform
    with pytest.raises(GridError):
        CylinderProfile(t, np.exp(-t * t))                       # ends too large
    span = t[1] - t[0]
    per = CylinderProfile(t, np.cos(2.0 * np.pi * t / (64 * span)), periodic=True)
    # periodic evaluation wraps around
    assert per(t[0] + 64 * span + 0.1) == pytest.approx(per(t[0] + 0.1), rel=1e-9)
    # a scalar query returns a float on every kind of profile, an array an array
    for prof in (per, CylinderProfile(t, smooth)):
        assert type(prof(0.1)) is float
        assert prof(np.array([0.1, 0.2])).shape == (2,)


def test_to_cylinder_maps_bubble_to_sech_power():
    bub = make_bubble(P32)
    U = to_cylinder(bub, P32)
    cn = sharp_constants(P32).c_n
    want = cn * (2.0 * np.cosh(U.t)) ** -0.5
    assert np.max(np.abs(U.values / want - 1.0)) < 1e-13
    assert not U.periodic
    assert abs(U.values[0]) <= 1e-8 and abs(U.values[-1]) <= 1e-8


def test_to_cylinder_bubble_reads_between_its_nodes():
    # the trigonometric interpolant over the span N h; a cubic spline misses
    # by 2e-8 c_n at this spacing
    U = to_cylinder(make_bubble(P32), P32, spacing=0.05)
    cn = sharp_constants(P32).c_n
    tq = U.t[:-1] + 0.025
    tq = tq[np.abs(tq) <= 20.0]
    assert np.max(np.abs(U(tq) - cn * (2.0 * np.cosh(tq)) ** -0.5)) <= 1e-11 * cn
    # and reads 0 beyond the grid
    assert U(U.t[0] - 0.025) == 0.0 and U(U.t[-1] + 0.025) == 0.0


@pytest.mark.parametrize("spacing", [0.0, -0.01, math.nan, math.inf])
def test_to_cylinder_refuses_a_spacing_that_makes_no_grid(spacing):
    with pytest.raises(GridError):
        to_cylinder(make_bubble(P32), P32, spacing=spacing)


def test_to_cylinder_rejects_off_center_fields():
    with pytest.raises(SamplingError):
        to_cylinder(make_bubble(P32, center=[1.0, 0.0, 0.0]), P32)
    with pytest.raises(SamplingError):
        to_cylinder(3.14, P32)
    # a profile has no values between its nodes to resample
    grid = RadialGrid.geometric(1e-3, 1e3, 16)
    with pytest.raises(SamplingError):
        to_cylinder(RadialProfile(grid, (1.0 + grid.r ** 2) ** -0.5, 0.0, -1.0), P32)


# ============================================================
# convolution and the ODE residual
# ============================================================


def test_periodized_weights_mass():
    # the periodic rule's weights sum to the zero mode of Khat's symbol,
    # which is |Khat|_1 itself
    for N in (64, 65, 512):
        conv = cylinder_convolution(np.ones(N), P32, 6.6 / N, periodic=True)
        assert np.max(np.abs(conv / NORM32 - 1.0)) <= 1e-14


@pytest.mark.parametrize("N", [64, 65, 512])
@pytest.mark.parametrize("L", [0.5, 6.6, 30.0])
def test_periodized_weights_closed_form(N, L):
    # the periodic rule multiplies by the closed-form symbol of
    # Khat = 4 pi e^{-|t|/2}: Khat * cos(w t) = 16 pi / (1 + 4 w^2) cos(w t)
    # for every mode the grid carries, up to its Nyquist mode
    t = 0.3 + L / N * np.arange(N)
    for k in (1, 3, N // 2 - 1, N // 2):
        w = 2.0 * np.pi * k / L
        got = cylinder_convolution(np.cos(w * t), P32, L / N, periodic=True)
        want = 16.0 * np.pi / (1.0 + 4.0 * w * w) * np.cos(w * t)
        assert np.max(np.abs(got - want)) <= 1e-14 * NORM32


def test_periodic_convolution_of_an_even_profile_is_even():
    N = 512
    t = 6.6 / N * np.arange(N)
    g = 1.0 + 0.3 * np.cos(2.0 * np.pi * t / 6.6) + 0.1 * np.sin(np.pi * t / 6.6) ** 4
    g[N // 2 + 1:] = g[N // 2 - 1:0:-1]
    conv = cylinder_convolution(g, P32, 6.6 / N, periodic=True)
    assert np.max(np.abs(conv[1:] - conv[:0:-1])) <= 1e-15 * np.max(np.abs(conv))


@pytest.mark.parametrize("h", [0.05, 0.01])
@pytest.mark.parametrize("n,alpha", [(3, 2.0), (3, 1.05), (3, 1.5), (4, 1.5),
                                     (5, 3.0), (5, 4.5)])
def test_line_convolution_closed_form(n, alpha, h):
    # the conformal identity R_alpha * (1 + r^2)^(-(n+alpha)/2) = const
    # (1 + r^2)^(-(n-alpha)/2), mapped by t = ln r:
    # Khat * (2 cosh t)^(-s) = omega(n-1) Gamma(alpha/2) Gamma(n/2) / (2 Gamma(s))
    # (2 cosh t)^(-(n-alpha)/2), s = (n+alpha)/2; the source is below 1e-17
    # at the grid ends
    s = (n + alpha) / 2.0
    m = math.ceil((40.0 / s + 5.0) / h)
    t = h * np.arange(-m, m + 1)
    const = (omega(n - 1) * math.gamma(alpha / 2.0) * math.gamma(n / 2.0)
             / (2.0 * math.gamma(s)))
    want = const * (2.0 * np.cosh(t)) ** (-(n - alpha) / 2.0)
    got = cylinder_convolution((2.0 * np.cosh(t)) ** -s, ProblemParams(n, alpha),
                               h, periodic=False)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def test_ode_residual_on_cylinder_bubble():
    U = to_cylinder(make_bubble(P32), P32)
    res, rel = ode_residual(U, P32, NL32)
    assert rel < 1e-3
    assert res.shape == U.t.shape


@pytest.mark.parametrize("h", [0.05, 0.01])
@pytest.mark.parametrize("n,alpha", [(3, 2.0), (4, 1.5), (5, 3.0)])
def test_ode_residual_of_the_cylinder_bubble_is_rounding(n, alpha, h):
    # U'' is the symbol -w^2 on the line window, as the convolution beside it
    # is Khat's symbol: both are exact for the analytic (2 cosh t)^(-nu)
    params = ProblemParams(n, alpha)
    U = to_cylinder(make_bubble(params), params, spacing=h)
    _, rel = ode_residual(U, params, nonlinearity_for(params))
    assert rel <= 1e-10, rel


def test_ode_residual_on_constant_solution():
    uc = constant_solution(P32, NL32)
    L = 2.0 * math.pi
    N = 256
    t = L / N * np.arange(N)
    U = CylinderProfile(t, np.full(N, uc), periodic=True)
    _, rel = ode_residual(U, P32, NL32)
    assert rel < 1e-13


# ============================================================
# dispersion and the periodic branch
# ============================================================


def test_dispersion_closed_form():
    for w in (0.3, 1.0, 2.4):
        want = w * w + 0.25 * (2.0 - 5.0 - 5.0 / (1.0 + 4.0 * w * w))
        assert dispersion_function(P32, NL32, w) == pytest.approx(
            want, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_bifurcation_period_at_alpha_two_in_closed_form(n):
    # Khat^(w)/|Khat|_1 = nu^2/(nu^2 + w^2) makes D(w) (nu^2 + w^2) the quadratic
    # (w^2 - nu^2 (p - 1)) (w^2 + 2 nu^2) in w^2, so w_0 = nu sqrt(p - 1)
    P = ProblemParams(n, 2.0)
    nl = nonlinearity_for(P)
    want = 2.0 * math.pi / (P.nu * math.sqrt(nl.p - 1.0))
    assert abs(dispersion_root(P, nl)[1] / want - 1.0) <= 1e-15


def test_dispersion_root_is_two_pi():
    uc, l0 = dispersion_root(P32, NL32)
    assert l0 == pytest.approx(2.0 * math.pi, abs=1e-10)
    # the balance equation pins U_c
    want = (0.25 / (NL32.c_f * NORM32)) ** 0.125
    assert uc == pytest.approx(want, rel=1e-14)


def test_find_delaunay_guards():
    uc = constant_solution(P32, NL32)
    with pytest.raises(ParameterRangeError):
        find_delaunay(P32, NL32, 0.5 * uc, -1.0)
    with pytest.raises(ParameterRangeError):
        find_delaunay(P32, NL32, 2.0 * uc, 6.6)
    with pytest.raises(ParameterRangeError):
        find_delaunay(P32, NL32, 0.5 * uc, 6.6, 0)
    for nodes in (255, 4, 0, -2):
        with pytest.raises(GridError):
            find_delaunay(P32, NL32, 0.5 * uc, 6.6, n_nodes=nodes)
    with pytest.raises(ParameterRangeError):
        find_delaunay(P32, NL32, 0.5 * uc, 6.6, n_nodes=4096)


def test_a_mismatched_kernel_table_is_refused():
    # params alone fix (n, alpha): a table of another pair is a wrong call,
    # refused before any work and before either cache is read
    uc, l0 = dispersion_root(P32, NL32)
    assert dispersion_root(P32, NL32, kernel_table(P32)) == (uc, l0)
    other = kernel_table(ProblemParams(5, 3.0))
    caches = (cylinder._coarse_landing.cache_info, cylinder._bifurcation_frequency.cache_info)
    before = [info() for info in caches]
    with pytest.raises(ValueError):
        dispersion_root(P32, NL32, other)
    with pytest.raises(ValueError):
        find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, kt=other, n_nodes=128)
    assert [info() for info in caches] == before


@pytest.mark.parametrize("L, target", [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5),
                                       (6.6, math.nan), (6.6, -math.inf)],
                         ids=["L-nan", "L-inf", "L-minus-inf", "target-nan", "target-minus-inf"])
def test_find_delaunay_refuses_non_finite_inputs(L, target):
    # a NaN or infinite period once ran the whole trace and died as a
    # GridError, and a NaN target returned converged=True
    uc = constant_solution(P32, NL32)
    info = cylinder._coarse_landing.cache_info()
    with pytest.raises(ParameterRangeError):
        find_delaunay(P32, NL32, target * uc, L, n_nodes=64)
    assert cylinder._coarse_landing.cache_info() == info


@pytest.mark.parametrize("steps", [2.5, True, 30.0], ids=["half", "bool", "float"])
def test_find_delaunay_refuses_a_non_integer_step_count(steps):
    # 2.5 used to die in range() with a bare TypeError, after the guards
    uc = constant_solution(P32, NL32)
    info = cylinder._coarse_landing.cache_info()
    with pytest.raises(ParameterRangeError, match="whole number of continuation steps"):
        find_delaunay(P32, NL32, 0.5 * uc, 6.6, steps, n_nodes=64)
    assert cylinder._coarse_landing.cache_info() == info


def test_an_integer_period_is_the_float_period():
    uc, _ = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 7.0, n_nodes=128)
    info = cylinder._coarse_landing.cache_info()
    again = find_delaunay(P32, NL32, 0.5 * uc, 7, n_nodes=128)
    assert cylinder._coarse_landing.cache_info().hits == info.hits + 1
    assert type(again.period) is type(again.steps[-1]["period"]) is float
    assert again.steps == sol.steps
    assert np.array_equal(again.profile.values, sol.profile.values)


def test_find_delaunay_constant_branch():
    uc = constant_solution(P32, NL32)
    sol = find_delaunay(P32, NL32, uc, 6.6, n_nodes=64)
    assert sol.converged and not sol.nontrivial and not sol.partial_result
    assert sol.epsilon == pytest.approx(uc, rel=1e-12)
    assert sol.amplitude == 0.0


def test_find_delaunay_nontrivial_orbit():
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=256)
    assert sol.converged and sol.nontrivial
    assert sol.residual_norm < 1e-6
    v = sol.profile.values
    # even about the neck, which sits at node 0
    assert v[0] == v.min()
    assert np.max(np.abs(v[1:] - v[:0:-1])) == 0.0
    assert v.min() > 0.0
    assert 0.0 < sol.epsilon < uc
    # fixed L pins the branch's neck above this target: partial by design
    assert sol.partial_result
    assert sol.steps, "continuation log should not be empty"


@pytest.mark.parametrize("factor, nodes, neck", [
    (1.05, 128, 0.805765460742),
    (1.05, 256, 0.805765460742),
    (1.05, 512, 0.805765460742),
    (1.01, 512, 0.917855431768),
    (1.3, 512, 0.494791019020),
])
def test_find_delaunay_necks(factor, nodes, neck):
    # each within 1e-9 of the Richardson extrapolation of the second-order
    # product-integration scheme this solver replaced, from 1024 and 2048
    # nodes: 0.8057654611, 0.9178554323 and 0.4947910192
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, factor * l0, n_nodes=nodes)
    assert sol.converged and sol.nontrivial
    assert abs(sol.epsilon / uc - neck) <= 1e-9
    assert sol.profile.values[0] == sol.profile.values.min()


@pytest.mark.parametrize("n,alpha", [(3, 2.0), (3, 1.5), (3, 1.05), (5, 3.0)])
def test_find_delaunay_necks_do_not_depend_on_the_node_count(n, alpha):
    # the symbols resolve these orbits to rounding on the 64-node trace grid
    P = ProblemParams(n, alpha)
    nl = nonlinearity_for(P)
    uc, l0 = dispersion_root(P, nl)
    necks = [find_delaunay(P, nl, 0.5 * uc, 1.05 * l0, n_nodes=N).epsilon
             for N in (64, 512, 1024, 2048)]
    assert max(necks) - min(necks) <= 1e-12 * uc


@pytest.mark.parametrize("factor", [1.05, 2.0])
@pytest.mark.parametrize("n,alpha", [(3, 2.0), (5, 3.0), (3, 0.5)])
def test_orbits_read_between_their_nodes_as_the_finer_orbit(n, alpha, factor):
    # the half-nodes of N <= 512 nodes are nodes of the 1024-node orbit
    P = ProblemParams(n, alpha)
    nl = nonlinearity_for(P)
    uc, l0 = dispersion_root(P, nl)
    truth = find_delaunay(P, nl, 0.5 * uc, factor * l0, n_nodes=1024).profile.values
    for N in (64, 128, 256, 512):
        U = find_delaunay(P, nl, 0.5 * uc, factor * l0, n_nodes=N).profile
        k = 1024 // N
        err = np.max(np.abs(U(U.t + 0.5 * U.spacing) - truth[k // 2::k]))
        assert err <= 1e-11 * uc, (N, err / uc)


@pytest.mark.parametrize("n,alpha", [(3, 2.0), (3, 0.5)])
def test_long_period_necks_follow_the_bubble_chain(n, alpha):
    # as L grows the orbit becomes a chain of cylinder bubbles c_n (2 cosh
    # t)^(-nu), neighbours meeting at the neck, so eps(L) = 2 c_n e^{-nu L/2}
    # (1 + o(1)); c_n is the closed-form constant, independent of the solver
    P = ProblemParams(n, alpha)
    nl = nonlinearity_for(P)
    uc, l0 = dispersion_root(P, nl)
    sol = find_delaunay(P, nl, 0.5 * uc, 8.0 * l0, n_nodes=512)
    law = 2.0 * sharp_constants(P).c_n * math.exp(-P.nu * 4.0 * l0)
    assert sol.converged
    assert abs(sol.epsilon / law - 1.0) <= 1e-9


@pytest.mark.parametrize("nodes", [128, 512])
def test_find_delaunay_lands_only_positive_orbits(nodes):
    # at 12 L_0 the neck is 2.4e-8 U_c; 128 nodes land it at -1.7e-7 U_c
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 12.0 * l0, n_nodes=nodes)
    positive = nodes == 512
    assert bool(sol.profile.values.min() > 0.0) is positive
    assert sol.converged is positive


def test_find_delaunay_orbit_solves_its_own_check():
    # ode_residual applies the symbols the solver inverted
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=512)
    assert sol.residual_norm <= 1e-11
    # the log counts every Newton iteration: correctors, then the polishes,
    # the last of them at the requested node count
    polishes = [s for s in sol.steps if "polish_iterations" in s]
    assert all("pinned_iterations" in s for s in sol.steps[:-len(polishes)])
    assert [s["nodes"] for s in polishes] == [64, 512]
    assert sol.steps[-1]["period"] == sol.period
    assert 1 <= sol.steps[-1]["polish_iterations"] <= 2


def test_find_delaunay_polishes_the_fine_grid_without_a_matrix(monkeypatch, fresh_trace):
    sizes, folded = [], []

    def counted(a, b):
        sizes.append(a.shape[0])
        return np.linalg.solve(a, b)

    fold = _HalfGridSystem._fold

    def recorded(self, symbol):
        folded.append(self.N)
        return fold(self, symbol)

    monkeypatch.setattr(cylinder, "solve", counted)
    monkeypatch.setattr(_HalfGridSystem, "_fold", recorded)
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=1024)
    assert sol.converged
    # only the coarse bordered system, 33 values and L, is ever factored
    assert max(sizes) <= 34
    assert set(folded) == {64}


@pytest.mark.parametrize("nodes", [8, 16, 32, 64])
@pytest.mark.parametrize("n,alpha", [(3, 2.0), (5, 3.0), (3, 0.5)])
def test_cosine_fold_is_the_folded_circulant(n, alpha, nodes):
    # the definition: C[i, j] = c[(i - j) % N] + c[(i + j) % N], c = irfft(s),
    # where columns 0 and m, which have no mirror node, keep only the first term
    P = ProblemParams(n, alpha)
    nl = nonlinearity_for(P)
    system = _HalfGridSystem(P, nl, 1.05 * dispersion_root(P, nl)[1], nodes)
    m = system.m
    i, j = np.arange(m + 1)[:, None], np.arange(m + 1)[None, :]
    for symbol in (system.a_hat, system.c_hat):
        c = np.fft.irfft(symbol, nodes)
        want = c[(i - j) % nodes] + np.where((j == 0) | (j == m), 0.0, c[(i + j) % nodes])
        got = system._fold(symbol)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the cached basis is shared by every system of this size: read-only
    with pytest.raises(ValueError):
        cylinder._cosine_basis(m)[0, 0] = 0.0


@pytest.mark.parametrize("factor", [1.05, 2.0])
@pytest.mark.parametrize("n,alpha", [(3, 2.0), (5, 3.0), (3, 0.5)])
def test_bordered_column_is_the_period_derivative_of_the_residual(n, alpha, factor):
    # R_L by the symbols' forward differences, against a central difference
    # of two residuals, at the coarse landing
    P = ProblemParams(n, alpha)
    nl = nonlinearity_for(P)
    uc, l0 = dispersion_root(P, nl)
    L = factor * l0
    x = find_delaunay(P, nl, 0.5 * uc, L, n_nodes=64).profile.values[:33]
    column = _HalfGridSystem(P, nl, L, 64, bordered=True).residual_l(x)
    ends = [_HalfGridSystem(P, nl, (1.0 + e) * L, 64).residual(x)[0] for e in (1e-4, -1e-4)]
    central = (ends[0] - ends[1]) / (2e-4 * L)
    assert np.max(np.abs(column - central)) <= 1e-6 * np.max(np.abs(central))


def test_corrector_iteration_counts_stay_quadratic():
    # two correctors of 2 iterations, one of 3, then the coarse and fine polishes
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=512)
    its = [s.get("pinned_iterations", s.get("polish_iterations")) for s in sol.steps]
    assert its == [2, 2, 3, 4, 1]


def _fine_landing(P, factor, nodes):
    """The fine system at factor L_0, its coarse Jacobian set, at the prolonged landing."""
    nl = nonlinearity_for(P)
    uc, l0 = dispersion_root(P, nl)
    x = find_delaunay(P, nl, 0.5 * uc, factor * l0, n_nodes=64).profile.values[:33]
    coarse = _HalfGridSystem(P, nl, factor * l0, 64)
    system = _HalfGridSystem(P, nl, factor * l0, nodes)
    system.coarse = coarse.jacobian(x, coarse.residual(x)[1])
    return system, cylinder._prolong(x, nodes)


@pytest.mark.parametrize("nodes", [512, 2048])
@pytest.mark.parametrize("factor", [1.05, 4.0])
@pytest.mark.parametrize("n,alpha", [(3, 2.0), (3, 0.5), (5, 3.0)])
def test_two_grid_step_is_the_dense_newton_step(n, alpha, factor, nodes):
    system, x = _fine_landing(ProblemParams(n, alpha), factor, nodes)
    g, conv = system.residual(x)
    J = system.jacobian(x, conv)
    step = system.step(x, conv, g)
    # the sweeps stop at max|g - J d| <= 1e-6 max|g|, by the dense J too
    assert np.max(np.abs(g - J @ step)) <= 1e-6 * np.max(np.abs(g))
    dense = np.linalg.solve(J, g)
    assert np.max(np.abs(step - dense)) <= 1e-6 * np.max(np.abs(dense))


@pytest.mark.parametrize("factor", [4.0, 16.0])
def test_fine_polish_lands_where_the_dense_polish_does(monkeypatch, fresh_trace, factor):
    # at 16 L_0 a sweep contracts by only 0.2-0.5, so a step takes up to 12
    uc, l0 = dispersion_root(P32, NL32)

    def polish():
        sol = find_delaunay(P32, NL32, 0.5 * uc, factor * l0, n_nodes=512)
        return sol.converged, sol.epsilon, sol.steps[-1]["polish_iterations"]

    swept = polish()
    # every step by the dense Jacobian, as on the trace grid
    monkeypatch.setattr(_HalfGridSystem, "step", lambda self, x, conv, g:
                        np.linalg.solve(self.jacobian(x, conv), g))
    dense = polish()
    assert swept[0] and dense[0] and swept[2] == dense[2]
    assert abs(swept[1] - dense[1]) <= 1e-13 * uc


def test_non_contracting_two_grid_sweeps_leave_newton_unconverged(monkeypatch, fresh_trace):
    system, x = _fine_landing(P32, 4.0, 512)
    system.coarse = np.eye(33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, converged, norm, its = cylinder._newton(
            lambda Lq: system, x, system.h * system.N, 1e-12)
    assert not converged and its == 0 and norm > 0.0
    assert np.array_equal(got, x)
    # through the finder: sweeps against twice the Jacobian stall at -1
    apply = _HalfGridSystem._apply
    monkeypatch.setattr(_HalfGridSystem, "_apply",
                        lambda self, x, conv, v: 2.0 * apply(self, x, conv, v))
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=512)
    assert not sol.converged
    assert sol.steps[-1] == {"period": sol.period, "nodes": 512, "neck": sol.epsilon,
                             "polish_iterations": 0, "converged": False}


def _result_bits(sol):
    """Everything a find_delaunay result holds, exactly."""
    return (sol.profile.values.tobytes(), sol.profile.t.tobytes(),
            repr((sol.summary(), sol.residual_norm, sol.residual_inf, sol.steps)))


@pytest.mark.parametrize("n,alpha", [(3, 2.0), (3, 0.5), (4, 1.0), (5, 3.0), (3, 1.0)])
def test_cached_traces_land_as_fresh_ones(n, alpha):
    # below, near and past the bifurcation; node counts on and above the trace grid
    P = ProblemParams(n, alpha)
    nl = nonlinearity_for(P)
    uc, l0 = dispersion_root(P, nl)
    for factor in (0.9, 1.05, 1.5, 2.0):
        cold = []
        for N in (16, 64, 128, 512, 2048):
            cylinder._coarse_landing.cache_clear()
            cold.append(_result_bits(find_delaunay(P, nl, 0.5 * uc, factor * l0,
                                                   n_nodes=N)))
        info = cylinder._coarse_landing.cache_info()
        warm = [_result_bits(find_delaunay(P, nl, 0.5 * uc, factor * l0, n_nodes=N))
                for N in (16, 64, 128, 512, 2048)]
        # 16 nodes trace on their own grid, the rest share the 64-node trace
        assert cylinder._coarse_landing.cache_info().hits == info.hits + 4
        assert warm == cold


def test_one_trace_serves_every_node_count_of_a_period(fresh_trace):
    uc, l0 = dispersion_root(P32, NL32)
    info = cylinder._coarse_landing.cache_info
    find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=512)
    before = info()
    find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=1024)
    assert (info().hits, info().misses) == (before.hits + 1, before.misses)
    # a new period, c_f or step budget is a new trace
    other = NonlinearitySpec(p=P32.p, c_f=2.0 * NL32.c_f)
    for call in (lambda: find_delaunay(P32, NL32, 0.5 * uc, 1.06 * l0),
                 lambda: find_delaunay(P32, other, 0.1 * uc, 1.05 * l0),
                 lambda: find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, 39)):
        before = info()
        call()
        assert (info().hits, info().misses) == (before.hits, before.misses + 1)


def test_a_returned_log_is_the_callers_own():
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=512)
    want = [dict(s) for s in sol.steps]
    sol.steps[0]["neck"] = -1.0
    sol.steps.clear()
    assert find_delaunay(P32, NL32, 0.5 * uc, 1.05 * l0, n_nodes=512).steps == want


def test_the_cached_landing_is_read_only():
    uc, l0 = dispersion_root(P32, NL32)
    landing, steps = cylinder._coarse_landing(P32, NL32, 1.05 * l0, 64, 40)
    x, ok, _, jc = landing
    assert ok and isinstance(steps, tuple)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        jc[0, 0] = 0.0


def test_find_delaunay_reads_the_cached_bifurcation_frequency(fresh_trace):
    P = ProblemParams(4, 1.7)
    nl = nonlinearity_for(P)
    uc, l0 = dispersion_root(P, nl)
    info = cylinder._bifurcation_frequency.cache_info
    find_delaunay(P, nl, 0.5 * uc, 1.05 * l0, n_nodes=64)
    before = info()
    # a second period: its trace is not cached, so it reads the frequency
    find_delaunay(P, nl, 0.5 * uc, 1.1 * l0, n_nodes=128)
    after = info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1


def test_find_delaunay_traces_far_from_the_bifurcation():
    uc, l0 = dispersion_root(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 2.0 * l0, n_nodes=128)
    assert sol.converged and sol.nontrivial and not sol.partial_result
    assert sol.epsilon / uc == pytest.approx(0.161, abs=1e-3)


def test_find_delaunay_below_the_bifurcation_returns_the_constant():
    uc = constant_solution(P32, NL32)
    sol = find_delaunay(P32, NL32, 0.5 * uc, 5.0, 8, n_nodes=64)
    assert not sol.converged and sol.partial_result and not sol.nontrivial
    assert sol.epsilon == uc
    # the pinned first point shows the branch leaving L_0 = 2 pi upwards
    assert len(sol.steps) == 1 and sol.steps[0]["period"] > 2.0 * math.pi


def test_newton_returns_unconverged_on_a_singular_jacobian(monkeypatch, fresh_trace):
    def singular(self, x, conv, out=None):
        J = np.empty((self.m + 1, self.m + 1)) if out is None else out
        J[...] = 0.0
        return J

    monkeypatch.setattr(cylinder._HalfGridSystem, "jacobian", singular)
    uc, l0 = dispersion_root(P32, NL32)
    # bordered: the L-free case reads its symbols' differences for R_L
    system = cylinder._HalfGridSystem(P32, NL32, 1.05 * l0, 64, bordered=True)
    x = uc * (1.0 - 0.1 * np.cos(np.pi * np.arange(33) / 32))
    pin = np.append(np.ones(33), 0.0)
    # at fixed L and bordered with L free; no LinAlgWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for border in (None, (pin, float(x.sum()))):
            got, L, converged, norm, its = cylinder._newton(
                lambda Lq: system, x, 1.05 * l0, 1e-10, border)
            assert not converged and its == 0 and norm > 0.0
            assert np.array_equal(got, x) and L == 1.05 * l0


@pytest.mark.parametrize("n,alpha", [(3, 2.0), (3, 1.5), (5, 3.0)])
def test_discrete_bifurcation_is_the_dispersion_root(n, alpha):
    # the folded operator at U_c acts on cos(2 pi t / L) by D(2 pi / L) on any
    # grid, so 16 nodes, where the dense Jacobian rounds least, show it
    P = ProblemParams(n, alpha)
    nl = nonlinearity_for(P)
    uc, l0 = dispersion_root(P, nl)
    system = _HalfGridSystem(P, nl, l0, 16)
    x = np.full(system.m + 1, uc)
    _, conv = system.residual(x)
    cos1 = np.cos(np.pi * np.arange(system.m + 1) / system.m)
    assert np.max(np.abs(system.jacobian(x, conv) @ cos1)) <= 1e-13 * P.nu ** 2
