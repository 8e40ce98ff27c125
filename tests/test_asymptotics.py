"""Singularity predicates: bound scans, symmetry ratios, profile fits.

The anchors are fields whose asymptotics are known in closed form: powers
r^e (the scan scales them exactly), bubbles (radial, bounded, and equal to
the cylinder-limit profile after one log translation), and synthetic
periodic profiles pushed back to radial coordinates.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from hartreelab import (CylinderProfile, Field, GridError,
                        ParameterDomainError, ParameterRangeError,
                        ProblemParams, asymptotics_report, blowup_rescale,
                        critical_radius, default_radii, dispersion_root,
                        find_delaunay, make_bubble, make_singular_power,
                        nonlinearity_for, profile_fit, sharp_constants,
                        spherical_average, symmetry_ratio, upper_bound_scan)
from hartreelab import asymptotics, cli
from hartreelab.fields import _radial_about

P32 = ProblemParams(3, 2.0)


# ============================================================
# radii ladders
# ============================================================


def test_default_radii_ladder():
    r = default_radii(1e-3, 1.0)
    assert r[0] == 1.0
    assert np.all(np.diff(r) < 0)
    np.testing.assert_allclose(r[:-1] / r[1:], 2.0 ** 0.25, rtol=1e-12)
    assert r[-1] >= 1e-3 / 2.0 ** 0.25
    # the ladder clips itself to four decades however deep r_min goes
    deep = default_radii(1e-12, 1.0)
    assert deep[-1] >= 1e-4
    with pytest.raises(ParameterRangeError):
        default_radii(0.0, 1.0)
    with pytest.raises(ParameterRangeError):
        default_radii(2.0, 1.0)


def test_scans_reject_bad_ladders():
    u = make_bubble(P32)
    with pytest.raises(ParameterRangeError):
        upper_bound_scan(u, [0.1, 0.2, 0.3])     # increasing
    with pytest.raises(ParameterRangeError):
        symmetry_ratio(u, [0.5])                 # single radius
    with pytest.raises(ParameterRangeError):
        upper_bound_scan(u, [0.5, 0.0])          # nonpositive


@pytest.mark.parametrize("radii", [[1.0, math.nan, 0.1], [math.inf, 1.0, 0.1],
                                   [1.0, 0.1, math.nan], [math.nan, math.nan]],
                         ids=["nan-mid", "inf-top", "nan-end", "all-nan"])
def test_scans_reject_non_finite_radii(radii):
    # a NaN passes "<= 0" and "diff >= 0" alike; every scan must refuse it
    u = make_bubble(P32)
    for scan in (upper_bound_scan, symmetry_ratio,
                 lambda u, r: profile_fit(u, "cylinder_bubble", r, P32)):
        with pytest.raises(ParameterRangeError):
            scan(u, radii)
    with pytest.raises(ParameterRangeError):
        default_radii(1e-3, math.inf)


@pytest.mark.parametrize("r", [default_radii(1e-3, 1.0), default_radii(1e-3, 2.0),
                               default_radii(1e-12, 1.0), default_radii(0.3, 1.0),
                               default_radii(0.05, 0.1), np.array([1.0, 1e-2, 1e-4])],
                         ids=["3dec", "3dec2", "clipped", "short", "halfdec", "sparse"])
def test_smallest_decade_matches_the_scans_masks(r):
    # the two ways the probes spelled the mask: by r, and by t = -ln r
    by_r = r <= r[-1] * 10.0
    t = -np.log(r)
    by_t = t >= t[-1] - math.log(10.0)
    for old in (by_r, by_t):
        if np.count_nonzero(old) < 2:
            old[:] = False
            old[-2:] = True
        assert np.array_equal(asymptotics._smallest_decade(r), old)


# ============================================================
# upper bound scan
# ============================================================


def test_scan_is_exactly_flat_on_the_critical_power():
    # r^nu |x|^(-nu) = 1 identically, the borderline the flag must not trip
    u = make_singular_power(P32)
    scan = upper_bound_scan(u, default_radii(1e-4, 1.0))
    np.testing.assert_allclose(scan.s_values, 1.0, rtol=1e-13)
    assert scan.sup == pytest.approx(1.0, rel=1e-13)
    assert not scan.divergence


@pytest.mark.parametrize("n,a", [(3, 2.0), (4, 2.0), (5, 3.0)])
def test_scan_flags_the_critical_rate_violator(n, a):
    # |x|^-(n-2) turns s into r^(-(n-2)/2); in low dimension that grows
    # under 10x per decade, so the flag needs the whole-scan clause
    P = ProblemParams(n, a)
    u = Field.radial(n, lambda r: r ** -(n - 2.0))
    scan = upper_bound_scan(u, default_radii(1e-5, 1.0))
    assert scan.divergence
    assert scan.slope_last_decade == pytest.approx(-(n - 2.0) / 2.0, abs=1e-6)


def test_scan_keeps_bounded_fields_unflagged():
    scan = upper_bound_scan(make_bubble(P32), default_radii(1e-4, 1.0))
    assert not scan.divergence
    assert scan.growth_last_decade < 1.0
    assert scan.running_sup[-1] == scan.sup


# ============================================================
# symmetry ratio
# ============================================================


def test_symmetry_ratio_certifies_radial_fields():
    sym = symmetry_ratio(make_bubble(P32), default_radii(1e-4, 1.0))
    assert sym.slope is None
    assert sym.certified
    assert "radial" in sym.note
    assert np.max(sym.ratios) < 1e-13


def test_symmetry_ratio_fits_the_linear_rate():
    # probing an off-center bubble about the origin: the oscillation on
    # |x| = r is driven by the gradient, hence O(r) with slope 1
    u = make_bubble(P32, center=[0.05, 0.0, 0.0])
    sym = symmetry_ratio(u, default_radii(1e-4, 0.01))
    assert sym.slope == pytest.approx(1.0, abs=0.05)
    assert sym.certified


def test_symmetry_ratio_needs_positive_fields():
    u = Field(n=3, fn=lambda p: p[:, 0])
    with pytest.raises(ParameterDomainError):
        symmetry_ratio(u, default_radii(0.01, 1.0))


# ============================================================
# blow-up frames
# ============================================================


def test_blowup_frame_normalizes_to_one():
    frame = blowup_rescale(make_bubble(P32), [0.2, 0.0, 0.0])
    assert frame.w(np.zeros(3)) == pytest.approx(1.0, abs=1e-14)
    assert frame.value == pytest.approx(make_bubble(P32)([0.2, 0.0, 0.0]))
    assert frame.scale == pytest.approx(frame.value ** -2.0)   # 2/(2-n), n=3
    with pytest.raises(ParameterDomainError):
        blowup_rescale(Field(n=3, fn=lambda p: -np.ones(p.shape[0])), np.zeros(3))


def test_blowup_frame_maps_singular_points():
    u = make_singular_power(P32)
    x = np.array([0.5, 0.0, 0.0])
    frame = blowup_rescale(u, x)
    img = np.asarray(frame.w.singular_points[0])
    np.testing.assert_allclose(img, -x / frame.scale, rtol=1e-12)


# ============================================================
# profile fits
# ============================================================


def test_profile_fit_matches_the_bubble_limit():
    fit = profile_fit(make_bubble(P32), "cylinder_bubble",
                      default_radii(1e-4, 1.0), P32)
    assert fit.candidate == "cylinder_bubble"
    assert abs(fit.tau) <= 1e-15
    assert fit.error_smallest <= 2e-15
    assert not fit.rejected
    assert fit.multistart_spread is None


def test_profile_fit_probes_an_off_center_radial_field_about_the_origin():
    # the radial shortcut serves only a field centered at the origin; off
    # center the fit must see what the pointwise field shows along e_1
    u = make_bubble(P32, center=[0.5, 0.0, 0.0])
    radii = default_radii(1e-3, 2.0)
    fit = profile_fit(u, "cylinder_bubble", radii, P32)
    want = profile_fit(Field(n=3, fn=u.fn), "cylinder_bubble", radii, P32)
    assert fit.tau == want.tau and fit.error_smallest == want.error_smallest
    assert fit.tau == pytest.approx(0.22, abs=0.01)


def test_profile_fit_finds_the_dilation_translation():
    # mu^nu c_n (1 + mu^2 r^2)^(-nu) is the dilated solution; on the
    # cylinder that is the same profile translated by -ln mu
    mu = 3.0
    bub = make_bubble(P32, mu=mu)
    u = Field.radial(3, lambda r: mu ** 0.5 * bub.radial_fn(r), singular_center=False)
    fit = profile_fit(u, "cylinder_bubble", default_radii(1e-4, 1.0), P32)
    assert fit.tau == pytest.approx(-math.log(mu), abs=2e-15)
    assert fit.error_smallest <= 5e-15
    assert not fit.rejected


def test_profile_fit_recovers_periodic_translation():
    L = 3.0
    tau_true = 0.8
    tgrid = L / 128 * np.arange(128)
    W = CylinderProfile(tgrid, 0.7 + 0.1 * np.cos(2.0 * np.pi * tgrid / L), periodic=True)
    u = Field.radial(3, lambda r: r ** -0.5 * W(-np.log(r) + tau_true),
                     singular_center=True)
    fit = profile_fit(u, W, default_radii(1e-4, 1.0), P32)
    assert fit.candidate == "cylinder_profile"
    k = round((fit.tau - tau_true) / L)
    assert fit.tau - k * L == pytest.approx(tau_true, abs=1e-4)
    assert fit.error_smallest < 1e-6
    assert not fit.rejected
    assert fit.multistart_spread is not None and fit.multistart_spread >= 0.0


DELAUNAY_PAIRS = (P32, ProblemParams(5, 3.0), ProblemParams(3, 0.5))


def _label(params):
    return f"n{params.n}a{params.alpha:g}"


def _delaunay_field(params, factor, nodes):
    """The orbit at factor L_0, and u = r^-nu U(-ln r), singular at the origin."""
    nl = nonlinearity_for(params)
    uc, l0 = dispersion_root(params, nl)
    sol = find_delaunay(params, nl, 0.5 * uc, factor * l0, n_nodes=nodes)
    return sol, Field.radial(params.n, lambda r: r ** -params.nu * sol.profile(-np.log(r)),
                             singular_center=True)


def _perturbed_bubble(params):
    """(1 + r) times the bubble: the benchmark's and the acceptance test's field."""
    bub = make_bubble(params)
    return Field(n=params.n, fn=lambda pts: (1.0 + np.linalg.norm(pts, axis=1)) * bub(pts))


def _scaled_bubble(params):
    bub = make_bubble(params)
    return Field.radial(params.n, lambda r: 3.0 * bub.radial_fn(r), singular_center=False)


def _lsq_minimizer(u, radii, params, tau0):
    """The bubble fit's exact least-squares tau on profile_fit's own float samples.

    The stationary condition sum_j (log W(t_j + tau) - want_j) tanh(t_j + tau)
    = 0 of the mean square log error, with log W = log c_n - nu log(2 cosh),
    solved at 40 digits next to tau0.
    """
    r = np.asarray(radii)
    uvals = u.radial_fn(r) if _radial_about(u, np.zeros(u.n)) else u(r[:, None] * np.eye(u.n)[0])
    small = asymptotics._smallest_decade(r)
    t, want = -np.log(r)[small], (np.log(uvals) + params.nu * np.log(r))[small]
    with mp.workdps(40):
        log_cn, nu = mp.log(mp.mpf(sharp_constants(params).c_n)), mp.mpf(params.nu)
        pts = [(mp.mpf(float(a)), mp.mpf(float(b))) for a, b in zip(t, want)]

        def g(tau):
            return mp.fsum((log_cn - nu * mp.log(2 * mp.cosh(a + tau)) - b) * mp.tanh(a + tau)
                           for a, b in pts)

        return float(mp.findroot(g, mp.mpf(tau0)))


@pytest.mark.parametrize("make, params, radii", [
    (_perturbed_bubble, P32, default_radii(1e-3, 2.0)),
    (_perturbed_bubble, ProblemParams(5, 3.0), default_radii(1e-3, 2.0)),
    (lambda p: make_bubble(p, center=[0.5, 0.0, 0.0]), P32, default_radii(1e-3, 2.0)),
    (_scaled_bubble, P32, default_radii(1e-4, 1.0)),
], ids=["perturbed-n3a2", "perturbed-n5a3", "off-center", "scaled"])
def test_profile_fit_lands_the_least_squares_minimum(make, params, radii):
    u = make(params)
    fit = profile_fit(u, "cylinder_bubble", radii, params)
    assert abs(fit.tau - _lsq_minimizer(u, radii, params, fit.tau)) <= 1e-12


def test_profile_fit_calls_its_candidate_at_most_twelve_times(monkeypatch):
    # a lattice call, a few Newton steps and the errors at tau: a work count
    # that no timing noise moves (a golden-section search to 1e-10 made 55)
    calls = []
    real = asymptotics._candidate_profile

    def counting(candidate, params):
        name, w_fun, period = real(candidate, params)
        return name, lambda t: calls.append(np.size(t)) or w_fun(t), period

    monkeypatch.setattr(asymptotics, "_candidate_profile", counting)
    sol, orbit = _delaunay_field(P32, 1.05, 128)
    for u, candidate, r_max in ((_perturbed_bubble(P32), "cylinder_bubble", 2.0),
                                (orbit, sol, 1.0)):
        calls.clear()
        assert not profile_fit(u, candidate, default_radii(1e-3, r_max), P32).rejected
        assert 3 <= len(calls) <= 12, calls


def test_profile_fit_accepts_delaunay_candidates():
    for params in DELAUNAY_PAIRS:
        sol, u = _delaunay_field(params, 1.05, 128)
        fit = profile_fit(u, sol, default_radii(1e-3, 1.0), params)
        assert fit.candidate == "delaunay"
        assert fit.error_smallest < 1e-8, params
        assert not fit.rejected
        # its own orbit, untranslated: tau is reported in [-L/2, L/2)
        assert abs(fit.tau) <= 1e-9, (params, fit.tau)


@pytest.mark.parametrize("params", DELAUNAY_PAIRS, ids=_label)
def test_delaunay_fields_are_radial_about_their_singularity(params):
    # spheres about x stay comparable until they reach the singularity, so
    # the critical radius of a singular radial solution is |x|
    _, u = _delaunay_field(params, 2.0, 256)
    for x in (0.5, 2.0):
        point = np.zeros(params.n)
        point[0] = x
        assert abs(float(critical_radius(u, point)) - x) <= 2e-4
    # radial about the probe center, so every n is read by its profile alone
    rep = asymptotics_report(u, default_radii(1e-3, 1.0), params)
    assert not rep.upper.divergence and rep.symmetry.certified


def test_profile_fit_rejects_wrong_shapes():
    # a decaying candidate that does not cover the probed t-range
    t = np.linspace(-5.0, 5.0, 200)
    shallow = CylinderProfile(t, 1e-6 * np.exp(-t * t))
    with pytest.raises(GridError):
        profile_fit(make_bubble(P32), shallow, default_radii(1e-4, 1.0), P32)
    with pytest.raises(ParameterDomainError):
        profile_fit(make_bubble(P32), "sech_squared", default_radii(1e-4, 1.0), P32)


def test_profile_fit_flags_genuinely_different_fields():
    # the critical power is constant on the cylinder, so no translation of
    # the decaying bubble profile can track it across a whole decade
    u = make_singular_power(P32)
    fit = profile_fit(u, "cylinder_bubble", default_radii(1e-4, 1.0), P32)
    assert fit.rejected
    assert fit.error_smallest > 1e-2


def test_profile_fit_absorbs_scalings_into_the_tail_translation():
    # on a decaying tail a translation IS a rescaling (W ~ e^(-nu t)), so
    # a 3x-scaled bubble still fits, just at a shifted tau
    bub = make_bubble(P32)
    u = Field.radial(3, lambda r: 3.0 * bub.radial_fn(r), singular_center=False)
    fit = profile_fit(u, "cylinder_bubble", default_radii(1e-4, 1.0), P32)
    assert not fit.rejected
    assert fit.tau == pytest.approx(-2.0 * math.log(3.0), rel=1e-2)


# ============================================================
# the report
# ============================================================


def test_asymptotics_report_summary_and_files():
    rep = asymptotics_report(make_bubble(P32), default_radii(1e-3, 1.0), P32)
    doc = rep.summary()
    assert set(doc) == {"n", "alpha", "sup_scaled_average", "divergence",
                        "growth_last_decade", "symmetry_slope",
                        "symmetry_certified", "fits"}
    assert doc["n"] == 3 and not doc["divergence"] and doc["symmetry_certified"]
    assert doc["fits"][0]["candidate"] == "cylinder_bubble"
    assert not doc["fits"][0]["rejected"]
    assert doc["symmetry_slope"] is None


def test_asymptotics_report_fits_the_profile_about_its_center():
    # every part of the report reads the field about the one center: a
    # bubble centered there is exactly the cylinder bubble, untranslated
    c = np.array([0.5, 0.0, 0.0])
    u = make_bubble(P32, center=c)
    rep = asymptotics_report(u, default_radii(1e-3, 2.0), P32, center=c)
    fit = rep.fits[0]
    assert abs(fit.tau) < 1e-6
    assert fit.error_smallest <= 1e-10
    assert not fit.rejected
    # off the shortcut, the pointwise field probed about c agrees
    pointwise = profile_fit(Field(n=3, fn=u.fn), "cylinder_bubble",
                            default_radii(1e-3, 2.0), P32, center=c)
    assert abs(pointwise.tau) < 1e-6 and pointwise.error_smallest <= 1e-10


# ============================================================
# the sphere sampler
# ============================================================


@pytest.mark.parametrize("params", [P32, ProblemParams(4, 2.0)], ids=_label)
@pytest.mark.parametrize("kind", ["bubble", "perturbed_bubble"])
def test_scan_is_the_spherical_average_bit_for_bit(params, kind):
    # the scan and the paper's spherical mean read the field by one route
    u = cli._make_field(cli.resolve_config("asymptotics", None, {"field": kind}), params)
    radii = default_radii(1e-3, 2.0)
    want = [r ** ((params.n - 2.0) / 2.0) * spherical_average(u, r) for r in radii]
    assert np.array_equal(upper_bound_scan(u, radii).s_values, want)


def _counted(u):
    """u whose pointwise evaluations are logged, and the log."""
    calls = []

    def fn(pts):
        calls.append(len(pts))
        return u.fn(pts)

    return dataclasses.replace(u, fn=fn), calls


@pytest.mark.parametrize("params", [P32, ProblemParams(5, 3.0)], ids=_label)
def test_a_radial_field_about_the_center_is_read_by_its_profile_alone(params):
    u, calls = _counted(make_bubble(params))
    rep = asymptotics_report(u, default_radii(1e-3, 2.0), params)
    assert calls == [] and np.all(rep.symmetry.ratios == 0.0)
    if params.n == 3:   # about another center, the same field is evaluated at points
        asymptotics_report(u, default_radii(1e-3, 2.0), params, center=[0.1, 0.0, 0.0])
        assert calls
