"""Inversions, Kelvin transforms, comparison deficits, and bubble detection.

Exact anchors: the singular power |y|^(-(n-2)/2) is invariant under every
inversion centered at the origin, the unit bubble is its own Kelvin image
about the unit sphere, and bubbles map to bubbles with explicitly
computable image parameters.
"""

import math

import numpy as np
import pytest

from hartreelab import spheres
from hartreelab import (Field, ParameterDomainError, ParameterRangeError,
                        ProblemParams, SamplingError, SphereInversion,
                        TestSetSpec, bubble_image, comparison_deficit,
                        comparison_kernel, critical_radius, equality_fit, fd_laplacian, invert_point,
                        kelvin_transform, make_bubble, make_singular_power,
                        sharp_constants)

P32 = ProblemParams(3, 2.0)


# ============================================================
# inversions
# ============================================================


def test_inversion_is_an_involution():
    inv = SphereInversion(np.array([0.5, -0.2, 0.1]), 0.7)
    rng = np.random.default_rng(3)
    z = inv.center + rng.normal(size=(40, 3))
    back = invert_point(inv, invert_point(inv, z))
    assert np.max(np.abs(back - z)) < 1e-13
    d = np.linalg.norm(z - inv.center, axis=1)
    di = np.linalg.norm(invert_point(inv, z) - inv.center, axis=1)
    assert np.max(np.abs(d * di - 0.49)) < 1e-14


def test_inversion_guards():
    inv = SphereInversion(np.zeros(3), 1.0)
    with pytest.raises(ParameterDomainError):
        invert_point(inv, np.zeros(3))
    with pytest.raises(ParameterRangeError):
        SphereInversion(np.zeros(3), 0.0)
    with pytest.raises(ParameterRangeError):
        SphereInversion(np.zeros(3), float("inf"))
    with pytest.raises(ParameterDomainError):
        SphereInversion(np.zeros((2, 3)), 1.0)


def test_kelvin_transform_is_self_inverse():
    u = make_bubble(P32)
    inv = SphereInversion(np.array([0.3, -0.2, 0.1]), 1.3)
    twice = kelvin_transform(kelvin_transform(u, inv, 1.0), inv, 1.0)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 3)) * 2.0
    assert np.max(np.abs(twice(pts) / u(pts) - 1.0)) < 1e-13
    with pytest.raises(ParameterRangeError):
        kelvin_transform(u, inv, 0.0)


def test_kelvin_transform_is_an_involution():
    # the same inversion and exponent twice give u back, away from the
    # center; 100 cases from one Philox stream, directions of norm > 0.1
    rng = np.random.Generator(np.random.Philox(13))
    u = make_bubble(P32, center=[0.4, -0.3, 0.2], mu=0.8)
    cases, failed = 0, []
    while cases < 100:
        center, log_mu = rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0)
        exponent, d = rng.uniform(0.1, 6.0), rng.uniform(-1.0, 1.0, 3)
        log_dist = rng.uniform(-2.0, 2.0)
        if np.linalg.norm(d) <= 0.1:
            continue
        inv = SphereInversion(center, 10.0 ** log_mu)
        y = inv.center + 10.0 ** log_dist * inv.radius * d / np.linalg.norm(d)
        twice = kelvin_transform(kelvin_transform(u, inv, exponent), inv, exponent)
        if not abs(twice(y) / u(y) - 1.0) <= 1e-12:
            failed.append((center, log_mu, exponent, d, log_dist))
        cases += 1
    assert not failed


def test_kelvin_transforms_about_one_center_compose_to_a_dilation():
    # radii mu1 then mu2 about x: (mu1/mu2)^e u(x + (mu1/mu2)^2 (y - x)).
    # The second point's first image lies 2e-5 from x, where the absolute
    # point x + w would keep w only to about 1e-11
    u = make_bubble(P32, center=[0.4, -0.3, 0.2], mu=0.8)
    x, e = np.array([1.5, -1.2, 0.9]), 2.7
    y = x + np.array([[0.3, 0.4, 1.2], [-2e5, 5e4, 1e4]])
    s = 0.5 / 2.0
    both = kelvin_transform(kelvin_transform(u, SphereInversion(x, 0.5), e),
                            SphereInversion(x, 2.0), e)
    want = s ** e * u(x + s ** 2 * (y - x))
    assert np.max(np.abs(both(y) / want - 1.0)) <= 1e-14


def test_kelvin_image_singularities_are_tracked():
    u = make_singular_power(P32)          # singular at the origin
    inv = SphereInversion(np.array([2.0, 0.0, 0.0]), 1.0)
    ku = kelvin_transform(u, inv, 1.0)
    sing = np.array(ku.singular_points)
    assert sing.shape == (2, 3)
    np.testing.assert_allclose(sing[0], inv.center)
    np.testing.assert_allclose(sing[1], invert_point(inv, np.zeros(3)))
    with pytest.raises(SamplingError):
        ku(inv.center)


# ============================================================
# bubbles map to bubbles
# ============================================================


def test_bubble_image_matches_direct_transform():
    c = np.array([0.2, 0.0, -0.4])
    m = 1.7
    u = make_bubble(P32, center=c, mu=m)
    inv = SphereInversion(np.array([0.5, 0.3, 0.0]), 0.9)
    img = bubble_image(P32, inv, bubble_center=c, bubble_mu=m)
    ku = kelvin_transform(u, inv, 1.0)
    amp = sharp_constants(P32).c_n * img.amplitude_scale
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(60, 3)) * 3.0
    want = amp * (1.0 + img.mu ** 2
                  * np.sum((pts - img.center) ** 2, axis=1)) ** -0.5
    assert np.max(np.abs(ku(pts) / want - 1.0)) < 1e-12


def test_unit_bubble_is_its_own_kelvin_image():
    img = bubble_image(P32, SphereInversion(np.zeros(3), 1.0))
    np.testing.assert_allclose(img.center, np.zeros(3), atol=1e-15)
    assert img.mu == 1.0 and img.amplitude_scale == 1.0
    u = make_bubble(P32)
    ku = kelvin_transform(u, SphereInversion(np.zeros(3), 1.0), 1.0)
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(40, 3))
    assert np.max(np.abs(ku(pts) / u(pts) - 1.0)) < 1e-13
    with pytest.raises(ParameterRangeError):
        bubble_image(P32, SphereInversion(np.zeros(3), 1.0), bubble_mu=0.0)


# ============================================================
# comparison kernels
# ============================================================


def test_comparison_kernel_sign_and_boundary():
    inv = SphereInversion(np.zeros(3), 1.0)
    z = np.array([[2.0, 0.0, 0.0]])
    outside = np.array([[0.0, 1.5, 0.0]])
    on_sphere = np.array([[0.0, 1.0, 0.0]])
    assert comparison_kernel(inv, z, outside, 1.0) > 0.0
    assert comparison_kernel(inv, z, on_sphere, 1.0) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(23)
    y = rng.normal(size=(200, 3))
    y = inv.center + y / np.linalg.norm(y, axis=1)[:, None] \
        * (1.0 + 10.0 ** rng.uniform(-6, 1, 200))[:, None]
    assert np.min(comparison_kernel(inv, z, y, 1.0)) > 0.0


# ============================================================
# deficits
# ============================================================


def _test_points(x, mu, spec=TestSetSpec()):
    """The deficit test set of the sphere (x, mu), as comparison_deficit reports it."""
    return comparison_deficit(make_bubble(P32), x, mu, spec, alpha=2.0).test_points


def test_deficit_test_set_is_admissible_and_reproducible():
    x = np.array([0.5, 0.0, 0.0])
    pts = _test_points(x, 0.5)
    assert pts.shape[1] == 3
    assert pts.shape[0] <= spheres._N_SHELLS * spheres._PER_SHELL + spheres._RAY_POINTS
    dist = np.linalg.norm(pts - x, axis=1)
    assert np.min(dist) >= 0.5
    assert np.min(np.linalg.norm(pts, axis=1)) > 1e-9
    np.testing.assert_array_equal(pts, _test_points(x, 0.5))
    # a different seed moves the shell directions
    assert not np.array_equal(pts, _test_points(x, 0.5, TestSetSpec(seed=1)))


def _fresh_test_set(n, x, mu, spec):
    # the set drawn from scratch: x + mu U for the unit test set U, whose
    # shells are (1 + g) dirs and whose ray is +-(1 + g_ray) along x
    rng = np.random.Generator(np.random.Philox(spec.seed))
    dirs = rng.normal(size=(spheres._N_SHELLS, spheres._PER_SHELL, n))
    dirs /= np.linalg.norm(dirs, axis=2)[:, :, None]
    shells = (1.0 + np.geomspace(1e-6, spheres._SHELL_SPAN - 1.0,
                                 spheres._N_SHELLS))[:, None, None] * dirs
    axis = x / np.linalg.norm(x)
    ray = (1.0 + np.geomspace(1e-7, spheres._RAY_SPAN - 1.0,
                              spheres._RAY_POINTS // 2))[:, None] * axis
    out = x + mu * np.vstack([shells.reshape(-1, n), -ray, ray])
    return out[np.linalg.norm(out, axis=1) > 1e-9]


def test_deficit_test_set_draws_its_directions_once():
    x, spec = np.array([0.5, 0.0, 0.0]), TestSetSpec(seed=77)
    for mu in (0.1, 0.5, 3.3):
        assert np.array_equal(_test_points(x, mu, spec), _fresh_test_set(3, x, mu, spec))
    info = spheres._shell_directions.cache_info()
    _test_points(x, 1.7, spec)
    assert spheres._shell_directions.cache_info().hits == info.hits + 1
    # the cached directions cannot be written through
    with pytest.raises(ValueError):
        spheres._shell_directions(77, 3)[0, 0, 0] = 0.0


@pytest.mark.parametrize("mu", [0.3, 1.0, 2.7])
def test_singular_power_is_inversion_invariant(mu):
    # (mu/|y|)^(n-2) |mu^2 y/|y|^2|^(-nu) = |y|^(-nu) for nu = (n-2)/2:
    # every origin-centered sphere leaves the power invariant, so the
    # deficit vanishes identically and only round-off remains
    u = make_singular_power(P32)
    rep = comparison_deficit(u, np.zeros(3), mu, alpha=2.0)
    assert rep.ok
    assert rep.min_normalized > -1e-12
    assert rep.kernel_checks["k2_min"] > 0.0
    assert rep.kernel_checks["kalpha_min"] > 0.0
    assert rep.kernel_checks["k2_boundary_max"] < 1e-12
    assert rep.summary()["violations"] == 0


def test_comparison_deficit_runs_the_critical_radius_probe(monkeypatch):
    # the report at mu is the bisection's predicate at mu: the same points,
    # images and Kelvin weights, bit for bit, so the report at the returned
    # radius holds as the probe there did
    calls = []
    deficits = spheres._deficits

    def record(u, pts, images, weights):
        calls.append((pts, images, weights))
        return deficits(u, pts, images, weights)

    monkeypatch.setattr(spheres, "_deficits", record)
    u, x = make_singular_power(P32), np.array([0.5, 0.0, 0.0])
    cr = critical_radius(u, x, alpha=2.0)
    probes = calls[:]
    assert len(probes) == cr.probes
    rep = comparison_deficit(u, x, float(cr), alpha=2.0)
    (pts, images, weights), = calls[len(probes):]
    np.testing.assert_array_equal(pts, rep.test_points)
    same = [k for k, probe in enumerate(probes) if np.array_equal(probe[0], pts)]
    assert len(same) == 1
    np.testing.assert_array_equal(images, probes[same[0]][1])
    np.testing.assert_array_equal(weights, probes[same[0]][2])
    assert rep.ok


# ============================================================
# critical radius
# ============================================================


def test_critical_radius_of_off_center_singular_power():
    # the power is singular at 0, so spheres about x stay comparable
    # exactly until they reach the singularity: mu_crit = |x|
    u = make_singular_power(P32)
    cr = critical_radius(u, [0.5, 0.0, 0.0])
    assert abs(float(cr) - 0.5) < 2e-4
    assert not cr.unbounded
    assert cr.note == "bisection bracket"
    assert cr.probes > 10


def test_critical_radius_probes_evaluate_deficits_only(monkeypatch):
    # the bisection reads only whether a deficit is violated; the kernel
    # spot-checks are comparison_deficit's report, not the probes' work
    def refuse(*args, **kwargs):
        raise AssertionError("a probe ran the kernel spot-checks")

    monkeypatch.setattr(spheres, "_kernel_positivity_check", refuse)
    cr = critical_radius(make_singular_power(P32), [0.5, 0.0, 0.0], alpha=2.0)
    assert abs(float(cr) - 0.5) < 2e-4


def test_critical_radius_of_unit_bubble():
    cr = critical_radius(make_bubble(P32), np.zeros(3))
    assert abs(float(cr) - 1.0) < 2e-4
    assert not cr.unbounded


def test_critical_radius_constant_field_hits_ceiling():
    const = Field(n=3, fn=lambda p: np.ones(p.shape[0]))
    cr = critical_radius(const, np.zeros(3))
    assert float(cr) == 8.0
    assert cr.unbounded
    assert "ceiling" in cr.note


def test_critical_radius_failure_at_the_floor():
    # the singularity sits inside even the smallest probe sphere, so the
    # mirrored values blow up and the predicate fails immediately
    u = make_singular_power(P32)
    cr = critical_radius(u, [1e-4, 0.0, 0.0])
    assert float(cr) == 0.0
    assert cr.probes == 1
    assert "already negative" in cr.note


_X = np.array([0.5, 0.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda u: critical_radius(u, np.array([math.nan, 0.0, 0.0])),
    lambda u: critical_radius(u, np.array([0.5, math.inf, 0.0])),
    lambda u: critical_radius(u, _X, xtol=math.nan),
    lambda u: critical_radius(u, _X, xtol=math.inf),
    lambda u: critical_radius(u, _X, mu_hi=math.nan),
    lambda u: critical_radius(u, _X, mu_hi=math.inf),
    lambda u: critical_radius(u, _X, mu_hi=1e-3),
    lambda u: SphereInversion(np.array([math.nan, 0.0, 0.0]), 0.4),
    lambda u: comparison_deficit(u, np.array([math.inf, 0.0, 0.0]), 0.4, alpha=2.0),
    lambda u: comparison_deficit(u, _X, math.nan, alpha=2.0),
    lambda u: kelvin_transform(u, SphereInversion(np.zeros(3), 1.0), math.nan),
], ids=["radius-x-nan", "radius-x-inf", "xtol-nan", "xtol-inf", "mu_hi-nan", "mu_hi-inf",
        "mu_hi-floor", "inversion-nan", "test-set-x-inf", "test-set-mu-nan", "kelvin-nan"])
def test_sphere_probes_refuse_non_finite_inputs_and_empty_brackets(call):
    # a NaN center once read as "unbounded at 8", a NaN ceiling as radius NaN,
    # a NaN test set as empty; xtol <= 0, which never ended, is run by the
    # CLI tests in a child process
    with pytest.raises(ParameterRangeError):
        call(make_singular_power(P32))


def test_critical_radius_drops_the_points_at_the_origin():
    # at x = mu_lo (1 + s_0) e_1, with s_0 the first ray offset, the first
    # probe's ray runs through the origin; the points it puts within 1e-9
    # of 0 are dropped, never evaluated
    x = np.array([spheres._MU_LO * (1.0 + 1e-7), 0.0, 0.0])
    full = spheres._N_SHELLS * spheres._PER_SHELL + spheres._RAY_POINTS
    assert _test_points(x, spheres._MU_LO).shape[0] == full - 15
    cr = critical_radius(make_singular_power(P32), x, xtol=1e-4)
    assert abs(float(cr) - np.linalg.norm(x)) <= 1e-4
    assert cr.probes == 19
    assert abs(float(critical_radius(make_bubble(P32), x)) - 1.0) < 2e-4


# ============================================================
# equality case
# ============================================================


@pytest.fixture(scope="module")
def sample_cloud():
    rng = np.random.default_rng(5)
    c = np.array([0.3, -0.1, 0.2])
    return c, np.vstack([c + rng.normal(size=(300, 3)),
                         c + 10.0 * rng.normal(size=(100, 3))])


def test_equality_fit_recovers_exact_bubble(sample_cloud):
    c, cloud = sample_cloud
    fit = equality_fit(make_bubble(P32, center=c, mu=2.2), cloud)
    assert fit.note == "bubble" and fit.converged
    assert fit.fit_error < 1e-10
    assert np.max(np.abs(fit.x0 - c)) < 1e-8
    assert fit.mu_bar == pytest.approx(2.2, abs=1e-8)
    assert fit.amplitude == pytest.approx(sharp_constants(P32).c_n, rel=1e-8)


def test_equality_fit_flags_perturbed_field(sample_cloud):
    c, cloud = sample_cloud
    bub = make_bubble(P32, center=c, mu=2.2)
    u = Field.radial(3, lambda r: bub.radial_fn(r) + 0.05, center=c, singular_center=False)
    fit = equality_fit(u, cloud)
    assert fit.note == "non-bubble"
    assert fit.fit_error > 1e-3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_equality_fit_refuses_non_finite_sample_points(sample_cloud, capfd, bad):
    # a NaN point once reached LAPACK, which printed DLASCL errors to stderr
    # and raised LinAlgError
    c, cloud = sample_cloud
    cloud = cloud.copy()
    cloud[7, 1] = bad
    with pytest.raises(SamplingError):
        equality_fit(make_bubble(P32, center=c, mu=2.2), cloud)
    assert capfd.readouterr().err == ""


def test_equality_fit_constant_short_circuit(sample_cloud):
    _, cloud = sample_cloud
    fit = equality_fit(Field(n=3, fn=lambda p: np.full(p.shape[0], 0.37)), cloud)
    assert fit.note == "constant field"
    assert fit.mu_bar == 0.0
    assert fit.amplitude == pytest.approx(0.37, rel=1e-12)
    # flat to 5e-10 over the cloud: a bubble too wide to tell from a constant
    fit = equality_fit(make_bubble(P32, mu=1e-6), cloud)
    assert fit.note == "constant field" and fit.converged
    assert fit.mu_bar == 0.0 and fit.fit_error < 1e-9


def test_equality_fit_rejects_nonpositive_samples(sample_cloud):
    _, cloud = sample_cloud
    with pytest.raises(ParameterDomainError):
        equality_fit(Field.radial(3, lambda r: make_bubble(P32).radial_fn(r) - 0.1,
                                  singular_center=False), cloud)


# ============================================================
# finite differences
# ============================================================


def test_fd_laplacian_on_polynomials():
    quad = Field(n=3, fn=lambda p: np.sum(p * p, axis=1))
    affine = Field(n=3, fn=lambda p: 1.0 + p[:, 0] - 2.0 * p[:, 2])
    pts = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [3.0, 3.0, 3.0]])
    np.testing.assert_allclose(fd_laplacian(quad, pts), 6.0, rtol=1e-8)
    np.testing.assert_allclose(fd_laplacian(affine, pts), 0.0, atol=1e-9)
