"""End-to-end acceptance checks for the toolkit's headline guarantees.

Each test pins one advertised behavior at its stated tolerance and asserts
a wall-clock budget alongside, so a regression in accuracy and a regression
in cost both fail loudly.  Everything here goes through the public API the
way a downstream user would; unit-level edge cases live in the per-module
test files.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from hartreelab import (
    Field,
    ProblemParams,
    SphereInversion,
    bubble_image,
    comparison_deficit,
    critical_radius,
    dispersion_function,
    dispersion_root,
    equality_fit,
    fd_laplacian,
    find_delaunay,
    kelvin_transform,
    kernel_hat,
    make_bubble,
    make_singular_power,
    nonlinearity_for,
    profile_fit,
    sample_radial,
    sharp_constants,
    symmetry_ratio,
    to_cylinder,
    upper_bound_scan,
)
from hartreelab import cli, riesz
from hartreelab.asymptotics import default_radii
from hartreelab.cylinder import ode_residual
from hartreelab.constants import k_identity_defect, omega
from hartreelab.spheres import TestSetSpec
from hartreelab.kernel import angular_kernel
from hartreelab.riesz import AngularKernelSpec

ORACLE = Path(__file__).parent / "fixtures" / "sharp_constants_oracle.json"

PAIRS = (ProblemParams(3, 2.0), ProblemParams(4, 2.0), ProblemParams(5, 3.0))


def _label(params):
    return f"n{params.n}a{params.alpha:g}"


# ============================================================
# sharp constants
# ============================================================


def test_sharp_constants_match_multiprecision_oracle():
    t0 = time.perf_counter()
    cases = json.loads(ORACLE.read_text())["cases"]
    assert {(c["n"], c["alpha"]) for c in cases} \
        == {(3, 1.0), (3, 2.0), (4, 2.0), (5, 3.0)}
    for case in cases:
        params = ProblemParams(case["n"], case["alpha"])
        sc = sharp_constants(params)
        got = {name: getattr(sc, name) for name in ("s_n", "h_n", "k_n", "c_n")}
        got["p"] = params.p
        for name, value in got.items():
            want = float(case[name])
            assert abs(value - want) <= 1e-12 * abs(want), \
                f"{name} at (n, alpha) = ({params.n}, {params.alpha})"
        # the product identity tying k_n to s_n and h_n is definitional
        assert k_identity_defect(sc, params) < 1e-14
    assert time.perf_counter() - t0 < 1.0


# ============================================================
# the bubble solves the equation, in both forms
# ============================================================


@pytest.mark.parametrize("params", PAIRS, ids=_label)
def test_bubble_residuals_small_in_both_equation_forms(params):
    t0 = time.perf_counter()
    window = (0.05, 20.0)
    cal = riesz.calibrate_cf(params, window=window, per_decade=96)
    # the bubble with its exact tails: bounded at 0, r^(2-n) at infinity
    prof = sample_radial(make_bubble(params),
                         riesz.default_grid(96)).with_exponents(0.0, 2.0 - params.n)
    *reports, gap = riesz.residual(prof, cal.rhs, params, window, c_f=cal.c_f)
    norms = {rep.form: rep.rel_norm for rep in reports}
    for form, rel_norm in norms.items():
        assert rel_norm <= 1e-9, (form, rel_norm)
    assert gap <= 1e-9, (norms, gap)
    assert time.perf_counter() - t0 < 120.0


# ============================================================
# projection kernel identities
# ============================================================


def test_kernel_identities_parity_and_decay():
    t0 = time.perf_counter()

    # closed form in the classical three-dimensional case
    t = np.linspace(-10.0, 10.0, 321)
    khat = kernel_hat(ProblemParams(3, 2.0), t)
    assert np.max(np.abs(khat / (4.0 * np.pi * np.exp(-np.abs(t) / 2.0)) - 1.0)) \
        <= 1e-8

    for params in PAIRS:
        # bipolar kernel and cylinder kernel agree through the log change
        rng = np.random.Generator(np.random.Philox(20240817))
        r = np.exp(rng.uniform(-3.0, 3.0, 100))
        s = np.exp(rng.uniform(-3.0, 3.0, 100))
        spec = AngularKernelSpec(params.n, params.alpha)
        lhs = (r * s) ** ((params.n - params.alpha) / 2.0) \
            * angular_kernel(spec, r, s)
        rhs = kernel_hat(params, np.log(r / s))
        assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-8, params

        # evenness in t
        tt = np.linspace(0.1, 20.0, 40)
        even_gap = np.abs(kernel_hat(params, tt) / kernel_hat(params, -tt) - 1.0)
        assert np.max(even_gap) <= 1e-6, params

        # exponential tail with the decay constant omega(n-1)
        rate = (params.n - params.alpha) / 2.0
        tail = float(kernel_hat(params, 20.0)) * np.exp(rate * 20.0)
        assert abs(tail / omega(params.n - 1) - 1.0) <= 1e-6, params

    assert time.perf_counter() - t0 < 30.0


# ============================================================
# Emden-Fowler cylinder consistency
# ============================================================


@pytest.mark.parametrize("params", PAIRS, ids=_label)
def test_bubble_maps_to_the_cosh_profile_and_solves_the_ode(params):
    t0 = time.perf_counter()
    bub = make_bubble(params)
    prof = to_cylinder(bub, params)
    cn = sharp_constants(params).c_n
    want = cn * (2.0 * np.cosh(prof.t)) ** (-params.nu)
    assert np.max(np.abs(prof.values / want - 1.0)) <= 1e-10

    _, rel = ode_residual(prof, params, nonlinearity_for(params))
    assert rel <= 1e-10, rel
    assert time.perf_counter() - t0 < 60.0


# ============================================================
# Kelvin invariance
# ============================================================


def test_kelvin_transform_preserves_bubbles_and_the_equation():
    t0 = time.perf_counter()
    params = ProblemParams(3, 2.0)
    bub = make_bubble(params)
    cn = sharp_constants(params).c_n
    nu = params.nu

    # about the unit sphere the origin bubble is a fixed point
    unit = SphereInversion(np.zeros(3), 1.0)
    fixed = kelvin_transform(bub, unit, params.n - 2.0)
    rng = np.random.Generator(np.random.Philox(7))
    pts = rng.normal(size=(200, 3)) * 2.0
    assert np.max(np.abs(fixed(pts) / bub(pts) - 1.0)) <= 1e-12

    # about (x, mu) = (0.5 e1, 0.2) the image is the predicted bubble, and
    # a finite-difference Laplacian matches the convolution right-hand side
    x = np.array([0.5, 0.0, 0.0])
    inv = SphereInversion(x, 0.2)
    moved = kelvin_transform(bub, inv, params.n - 2.0)
    img = bubble_image(params, inv)
    amp = cn * img.amplitude_scale

    def img_radial(rho):
        return amp * (1.0 + (img.mu * np.asarray(rho)) ** 2) ** (-nu)

    grid = riesz.default_grid(48)
    nl = nonlinearity_for(params)
    prof = sample_radial(Field.radial(3, img_radial, singular_center=False), grid)
    rhs = riesz.hartree_rhs(prof, params, nl, u_exact=img_radial)

    keep = (grid.r > 0.02) & (grid.r < 5.0)
    rho = grid.r[keep]
    rhs_vals = rhs.values[keep]
    dirs = rng.normal(size=(rho.size, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = img.center[None, :] + rho[:, None] * dirs
    away = np.linalg.norm(pts - x[None, :], axis=1) > 0.05
    lap = fd_laplacian(moved, pts[away], h=2e-3)
    rel = np.abs(-lap - rhs_vals[away]) / np.abs(rhs_vals[away])
    assert np.max(rel) <= 1e-2, np.max(rel)
    assert time.perf_counter() - t0 < 120.0


# ============================================================
# moving spheres on the singular profile and the bubble
# ============================================================


def test_moving_spheres_invariance_critical_radius_and_equality_case():
    t0 = time.perf_counter()
    params = ProblemParams(3, 2.0)
    spec = TestSetSpec()
    u_inf = make_singular_power(params)

    # |y|^(-(n-2)/2) is invariant under every inversion about its axis point
    origin = np.zeros(3)
    for mu in (0.3, 1.0, 2.7):
        rep = comparison_deficit(u_inf, origin, mu, spec, alpha=params.alpha)
        assert rep.ok
        assert np.max(np.abs(rep.deficits) / rep.scales) <= 1e-10, mu

    # probed off-axis, positivity first fails at the distance to the axis
    x = np.array([0.5, 0.0, 0.0])
    mu_bar = critical_radius(u_inf, x, spec, alpha=params.alpha)
    assert abs(mu_bar - 0.5) <= 1e-3
    assert not mu_bar.unbounded

    # the equality case pins down the bubble parameters from samples alone
    center = np.array([0.3, -0.1, 0.2])
    bub = make_bubble(params, center=center, mu=2.2)
    rng = np.random.Generator(np.random.Philox(5))
    cloud = center[None, :] + rng.normal(size=(400, 3)) * 1.5
    fit = equality_fit(bub, cloud)
    assert fit.note == "bubble"
    assert abs(fit.mu_bar / 2.2 - 1.0) <= 1e-2
    assert np.max(np.abs(fit.x0 - center)) <= 1e-2
    assert fit.fit_error <= 1e-6
    assert time.perf_counter() - t0 < 120.0


# ============================================================
# asymptotic predicates
# ============================================================


def test_asymptotic_scans_classify_rates_symmetry_and_profiles():
    t0 = time.perf_counter()
    radii = default_radii(1e-4, 1.0)
    for params in PAIRS:
        n = params.n
        scan = upper_bound_scan(make_singular_power(params), radii)
        assert np.max(np.abs(scan.s_values - 1.0)) <= 1e-10
        assert not scan.divergence

        violator = Field.radial(n, lambda r, n=n: r ** (-(n - 2.0)),
                                singular_center=True)
        assert upper_bound_scan(violator, radii).divergence, n

    # oscillation of an off-center bubble decays at the linear rate
    params = ProblemParams(3, 2.0)
    off = make_bubble(params, center=np.array([0.05, 0.0, 0.0]))
    sym = symmetry_ratio(off, default_radii(1e-4, 1e-2))
    assert sym.certified
    assert abs(sym.slope - 1.0) <= 0.2

    # a (1 + r) perturbation of the bubble still matches its profile at the
    # small-radius end, where the perturbation dies
    bub = make_bubble(params)
    u = Field(n=3, fn=lambda pts: (1.0 + np.linalg.norm(pts, axis=1)) * bub(pts))
    fit = profile_fit(u, "cylinder_bubble", default_radii(1e-3, 2.0), params)
    assert not fit.rejected
    assert fit.error_smallest <= 1e-2, fit.error_smallest
    assert time.perf_counter() - t0 < 120.0


# ============================================================
# periodic branch off the constant solution
# ============================================================


def test_delaunay_branch_bifurcates_where_the_dispersion_says():
    t0 = time.perf_counter()
    params = ProblemParams(3, 2.0)
    nl = nonlinearity_for(params)
    u_c, l_0 = dispersion_root(params, nl)
    assert l_0 is not None

    # independent bracket: raw sign scan of D(w), then Brent to the root
    ws = np.linspace(1e-3, 3.0, 1501)
    dvals = np.array([dispersion_function(params, nl, w) for w in ws])
    sign_flip = np.nonzero((dvals[:-1] < 0.0) & (dvals[1:] >= 0.0))[0]
    assert sign_flip.size >= 1
    i = sign_flip[0]
    w0 = brentq(lambda w: dispersion_function(params, nl, w),
                ws[i], ws[i + 1], xtol=1e-12)
    assert abs(2.0 * np.pi / w0 - l_0) <= 1e-6

    sol = find_delaunay(params, nl, 0.5 * u_c, 1.05 * l_0, n_nodes=512)
    v = sol.profile.values
    assert sol.converged
    assert sol.nontrivial
    assert sol.residual_norm <= 1e-6
    assert np.min(v) > 0.0
    assert v.max() - v.min() > 1e-3 * u_c
    # even about the neck node, up to round-off
    assert np.max(np.abs(v[1:] - v[:0:-1])) <= 1e-12 * v.max()
    assert time.perf_counter() - t0 < 600.0


# ============================================================
# sharp bilinear inequality saturates at its extremal
# ============================================================


def test_hls_extremal_saturates_the_sharp_bound():
    t0 = time.perf_counter()
    check = riesz.hls_ratio(ProblemParams(3, 2.0), mu=1.0, per_decade=96)
    assert abs(check.ratio - 1.0) <= 1e-3, check.ratio
    assert time.perf_counter() - t0 < 300.0


# ============================================================
# CLI reproducibility
# ============================================================


def _artifact_bytes(out: Path) -> dict:
    docs = {}
    for f in sorted(out.iterdir()):
        if f.name == "config.json":
            doc = json.loads(f.read_text())
            doc.pop("out")
            docs[f.name] = doc
        else:
            docs[f.name] = f.read_bytes()
    return docs


@pytest.mark.parametrize("argv", [
    ["constants", "--n", "4"],
    ["kernel", "--points", "101", "--pairs", "40", "--plot"],
    ["asymptotics", "--r-min", "1e-2", "--plot"],
], ids=lambda a: a[0])
def test_cli_rerun_from_recorded_config_is_byte_identical(argv, tmp_path):
    d1, d2 = tmp_path / "first", tmp_path / "second"
    assert cli.main([*argv, "--out", str(d1)]) == 0
    assert cli.main([argv[0], "--config", str(d1 / "config.json"),
                     "--out", str(d2)]) == 0
    a, b = _artifact_bytes(d1), _artifact_bytes(d2)
    assert set(a) == set(b) and len(a) > 1
    for name in a:
        assert a[name] == b[name], name
