"""Grids, radial profiles, fields, and the sphere quadrature."""

import json
import math

import numpy as np
import pytest

from hartreelab import (Field, ProblemParams, RadialGrid, RadialProfile,
                        artifacts, make_bubble, make_hls_extremal,
                        make_singular_power, sample_radial, sharp_constants,
                        spherical_average, sphere_quadrature)
from hartreelab import fields
from hartreelab.constants import omega
from hartreelab.errors import (GridError, SamplingError,
                               UnsupportedDimensionError)
from hartreelab.spheres import fd_laplacian

P32 = ProblemParams(3, 2.0)


# ============================================================
# grids and profiles
# ============================================================


def test_grid_contracts():
    with pytest.raises(GridError):
        RadialGrid(np.array([1.0, 0.5, 2.0]))       # not increasing
    with pytest.raises(GridError):
        RadialGrid(np.array([-1.0, 1.0]))           # not positive
    with pytest.raises(GridError):
        RadialGrid.geometric(1e-2, 1e2, per_decade=8)   # too coarse
    with pytest.raises(GridError):
        RadialGrid.geometric(2.0, 1.0)
    g = RadialGrid.geometric(1e-2, 1e2, 32)
    assert g.r[0] == pytest.approx(1e-2) and g.r[-1] == pytest.approx(1e2)
    assert len(g) == 4 * 32 + 1


def test_profile_exponent_estimation():
    grid = RadialGrid.geometric(1e-3, 1e3, 64)
    vals = 2.0 * grid.r ** -0.5 / (1.0 + grid.r ** 2)
    prof = RadialProfile(grid, vals)
    e_in, e_out = prof.estimate_exponents()
    assert e_in == pytest.approx(-0.5, abs=1e-3)
    assert e_out == pytest.approx(-2.5, abs=1e-3)


def test_profile_shape_mismatch():
    grid = RadialGrid.geometric(0.1, 10.0, 48)
    with pytest.raises(GridError):
        RadialProfile(grid, np.ones(3))
    with pytest.raises(GridError):
        RadialProfile(grid, np.full(len(grid), np.nan))


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def _profile_table():
    """60 profiles from one Philox stream: grids at 16-64 per decade, values
    of either sign across 10^+-300 with 0.0, -0.0, 5e-324 and +-max mixed
    in, tail exponents None or drawn across 10^+-300."""
    rng = np.random.Generator(np.random.Philox(60))
    big = np.finfo(float).max
    extremes = [0.0, -0.0, 5e-324, big, -big]

    def draw(size=None):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)

    table = []
    for _ in range(60):
        r_min = 10.0 ** rng.uniform(-6.0, 2.0)
        grid = RadialGrid.geometric(r_min, r_min * 10.0 ** rng.uniform(0.5, 3.0),
                                    int(rng.integers(16, 65)))
        values = draw(len(grid))
        values[rng.choice(len(grid), len(extremes), replace=False)] = extremes
        inner, outer = (None if rng.random() < 0.3 else float(draw()) for _ in range(2))
        table.append(RadialProfile(grid, values, inner, outer))
    return table


def test_profile_csv_json_roundtrip(tmp_path):
    grid = RadialGrid.geometric(0.1, 10.0, 24)
    table = [RadialProfile(grid, np.exp(-grid.r), inner_exponent=0.0,
                           outer_exponent=None), *_profile_table()]
    for prof in table:
        tails = {"inner_exponent": prof.inner_exponent, "outer_exponent": prof.outer_exponent}
        artifacts.write_csv(tmp_path / "p.csv", {"r": prof.grid.r, "value": prof.values},
                            [f"{k}={artifacts.format_float(v)}" for k, v in tails.items()
                             if v is not None])
        artifacts.write_json(tmp_path / "p.json", {**tails, "r": prof.grid.r,
                                                   "value": prof.values})
        lines = (tmp_path / "p.csv").read_text().splitlines()
        head = dict(line[2:].split("=") for line in lines if line.startswith("# "))
        assert lines[len(head)] == "r,value"
        rows = [[float(cell) for cell in line.split(",")] for line in lines[len(head) + 1:]]
        from_csv = (*zip(*rows), *(float(head[k]) if k in head else None for k in tails))
        doc = json.loads((tmp_path / "p.json").read_text())
        from_json = (doc["r"], doc["value"], doc["inner_exponent"], doc["outer_exponent"])
        for r, value, inner, outer in (from_csv, from_json):
            # bit for bit, the sign of every zero included
            assert _bits(r) == _bits(prof.grid.r)
            assert _bits(value) == _bits(prof.values)
            assert _bits(inner) == _bits(prof.inner_exponent)
            assert _bits(outer) == _bits(prof.outer_exponent)
        # the JSON artifact is the canonical writer's output
        text = (tmp_path / "p.json").read_text()
        assert text == artifacts.dumps_json(json.loads(text))


# ============================================================
# fields
# ============================================================


def test_field_evaluation_shapes():
    u = make_bubble(P32)
    single = u(np.array([1.0, 0.0, 0.0]))
    assert isinstance(single, float)
    batch = u(np.zeros((5, 3)))
    assert batch.shape == (5,)
    with pytest.raises(SamplingError):
        u(np.zeros((5, 4)))             # wrong ambient dimension


@pytest.mark.parametrize("n", range(3, 8))
def test_row_norm_has_the_bits_of_the_row_reductions(n):
    # a fixed Philox table across 1e-200..1e200, where squares underflow to
    # subnormals or 0 and overflow to inf, with rows of zeros, signed zeros,
    # subnormals, +-1e200 and the center itself; both memory orders
    rng = np.random.Generator(np.random.Philox(n))
    pts = rng.normal(size=(300, n)) * 10.0 ** rng.uniform(-200.0, 200.0, (300, 1))
    centers = [None, rng.normal(size=n), 1e150 * rng.normal(size=n)]
    pts[:8] = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200, 1e-200, 0.0])[:, None]
    pts[7, ::2] = -0.0
    pts[8:10] = centers[1:]
    with np.errstate(over="ignore", under="ignore"):
        for c in centers:
            for a in (pts, np.asfortranarray(pts)):
                d = a if c is None else a - c
                assert _bits(fields._row_norm(a, c)) == _bits(np.linalg.norm(d, axis=1))
                assert (_bits(fields._row_norm(a, c, squared=True))
                        == _bits(np.sum(d ** 2, axis=1)))


def test_singular_points_are_refused():
    u = make_singular_power(P32)
    with pytest.raises(SamplingError):
        u(np.zeros(3))
    assert u(np.array([2.0, 0.0, 0.0])) == pytest.approx(2.0 ** -0.5)


def test_bubble_values_and_scaling():
    sc = sharp_constants(P32)
    u = make_bubble(P32, mu=2.0)
    assert u(np.zeros(3)) == pytest.approx(sc.c_n)
    r = 1.3
    assert u(np.array([r, 0.0, 0.0])) == pytest.approx(
        sc.c_n * (1.0 + (2.0 * r) ** 2) ** -0.5, rel=1e-14)
    shifted = make_bubble(P32, center=[1.0, 0.0, 0.0])
    assert shifted(np.array([1.0, 0.0, 0.0])) == pytest.approx(sc.c_n)
    with pytest.raises(SamplingError):
        make_bubble(P32, mu=-1.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_talenti_bubble_solves_local_equation(n):
    # -Lap u = mu^2 u^((n+2)/(n-2)) at the amplitude (n(n-2))^((n-2)/4)
    P = ProblemParams(n, 2.0)
    mu = 1.7
    talenti = (n * (n - 2.0)) ** ((n - 2.0) / 4.0)
    bub, k = make_bubble(P, mu=mu), talenti / sharp_constants(P).c_n
    u = Field.radial(n, lambda r: k * bub.radial_fn(r), singular_center=False)
    pts = np.array([[0.3] + [0.1] * (n - 1), [1.0] + [0.0] * (n - 1)])
    lap = fd_laplacian(u, pts, h=1e-3)
    want = mu ** 2 * u(pts) ** ((n + 2.0) / (n - 2.0))
    # the bound is the h^2 stencil error, not the identity itself
    assert np.max(np.abs(-lap / want - 1.0)) < 1e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_scales_radii_and_grid_ends_are_positive_and_finite(bad):
    with pytest.raises(GridError):
        RadialGrid.geometric(1e-3, bad)
    with pytest.raises(SamplingError):
        make_bubble(P32, mu=bad)
    with pytest.raises(SamplingError):
        make_hls_extremal(P32, mu=bad)
    with pytest.raises(SamplingError):
        spherical_average(make_bubble(P32), bad)


def test_sample_radial_uses_exact_callable():
    u = make_bubble(P32)
    grid = RadialGrid.geometric(1e-3, 1e3, 48)
    prof = sample_radial(u, grid)
    want = u.radial_fn(grid.r)
    np.testing.assert_allclose(prof.values, want, rtol=1e-15)
    # bubble tails: flat inside, r^-(n-2) outside
    assert prof.inner_exponent == pytest.approx(0.0, abs=1e-3)
    assert prof.outer_exponent == pytest.approx(-1.0, abs=1e-3)
    # a field with no radial callable has no profile to sample
    with pytest.raises(SamplingError):
        sample_radial(Field(n=3, fn=lambda pts: np.ones(len(pts))), grid)
    # nor has one radial about another point: a profile is radial about 0
    with pytest.raises(SamplingError, match="about the origin"):
        sample_radial(make_bubble(P32, center=[5.0, 0.0, 0.0]), grid)


def test_hls_extremal_shape():
    u = make_hls_extremal(P32, mu=2.0)
    assert u(np.zeros(3)) == pytest.approx((1.0 / 2.0) ** 2.5)
    with pytest.raises(SamplingError):
        make_hls_extremal(P32, mu=0.0)


# ============================================================
# sphere quadrature
# ============================================================


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sphere_rule_moments(n):
    nodes, weights = sphere_quadrature(n)
    om = omega(n - 1)
    assert np.sum(weights) == pytest.approx(om, rel=1e-13)
    assert np.abs(np.dot(weights, nodes[:, 0])) < 1e-13 * om
    # int y_1^2 = omega/n, int y_1^2 y_2^2 = omega/(n(n+2))
    assert np.dot(weights, nodes[:, 0] ** 2) == pytest.approx(om / n, rel=1e-12)
    assert np.dot(weights, nodes[:, 0] ** 2 * nodes[:, 1] ** 2) == pytest.approx(
        om / (n * (n + 2.0)), rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("order", [14, 20])   # the recursion at two orders; 20 is the rule
def test_sphere_rule_matches_scipy_gauss_jacobi(n, order):
    from scipy.special import roots_jacobi
    m, a = (order + 2) // 2, (n - 3) / 2.0
    t, w = fields._gauss_jacobi(m, a)
    t_ref, w_ref = roots_jacobi(m, a, a)
    assert np.max(np.abs(t - t_ref)) <= 1e-15
    assert np.max(np.abs(w - w_ref)) <= 1e-14
    # the product rule's polar coordinate runs over exactly these nodes
    nodes, _ = fields._sphere_rule(n, order)
    np.testing.assert_array_equal(np.unique(nodes[:, 0]), np.unique(t))


def test_sphere_rule_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        sphere_quadrature(6)


def test_sphere_values_reads_a_radial_field_about_its_center_by_its_profile():
    c = np.array([0.2, 0.0, 0.0])
    u, (nodes, _) = make_bubble(P32, center=c), sphere_quadrature(3)
    r = np.array([0.5, 0.1])
    exact = fields.sphere_values(u, r, c, nodes)
    assert exact.shape == (2, len(nodes))
    assert np.array_equal(exact, np.broadcast_to(u.radial_fn(r)[:, None], exact.shape))
    # about any other center the field is evaluated at the points
    about_0 = fields.sphere_values(u, r, None, nodes)
    assert np.array_equal(about_0, u((r[:, None, None] * nodes).reshape(-1, 3)).reshape(2, -1))


def test_spherical_average():
    u = make_bubble(P32)
    assert spherical_average(u, 0.7) == pytest.approx(u.radial_fn(0.7), rel=1e-13)
    # harmonic (affine) functions average to their center value
    lin = Field(n=3, fn=lambda pts: 1.0 + pts[:, 0] - 2.0 * pts[:, 2])
    c = np.array([0.3, 0.1, -0.2])
    want = 1.0 + c[0] - 2.0 * c[2]
    assert spherical_average(lin, 1.7, center=c) == pytest.approx(want, rel=1e-13)
    with pytest.raises(SamplingError):
        spherical_average(u, 0.0)
