"""Sphere inversions, Kelvin transforms, comparison deficits, bubble detection.

The moving-spheres machinery compares a field u against its Kelvin
transform about a sphere (x, mu),

    u_{x,mu}(y) = (mu / |y-x|)^(n-2) u(I_{x,mu}(y)),
    I_{x,mu}(y) = x + mu^2 (y-x) / |y-x|^2,

on the exterior |y-x| >= mu.  Positivity of the deficit u - u_{x,mu} for
every mu below a critical radius is the engine behind radial-symmetry
proofs; this module evaluates deficits directly, locates the critical
radius by bisection, spot-checks the positivity of the comparison kernels
that power the arguments, and recognizes the equality case (an exact
bubble) by least-squares fit.  One probe serves both deficit paths: the
sphere (x, mu) is tested at x + mu U against x + mu U/|U|^2 with weight
|U|^-(n-2), for one unit test set U, so ``comparison_deficit``'s report at
mu is the bisection's predicate at mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (ConvergenceError, ParameterDomainError,
                     ParameterRangeError, SamplingError)
from .fields import Field, _row_norm
from .params import CACHE_SIZE, ProblemParams

_DEFICIT_TOL = 1e-8   # a deficit below -_DEFICIT_TOL (|u| + |u_{x,mu}|) is a violation
_MU_LO = 1e-3         # the critical radius's bisection floor
_PAIRS = 64           # random pairs per kernel positivity spot-check

# shape of the deficit test set, radii in units of mu
_N_SHELLS = 20        # concentric shells just outside the sphere
_PER_SHELL = 120      # random directions per shell
_RAY_POINTS = 240     # points along the +/- ray, split evenly
_SHELL_SPAN = 40.0    # outermost shell radius
_RAY_SPAN = 60.0      # farthest ray offset from x

# ============================================================
# inversions and Kelvin transforms
# ============================================================


@dataclass(frozen=True)
class SphereInversion:
    """The sphere |z - center| = radius, as the map z -> I_{x,mu}(z)."""

    center: np.ndarray   # x
    radius: float        # mu > 0

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1:
            raise ParameterDomainError("inversion center must be a single point")
        if not np.all(np.isfinite(c)):
            raise ParameterRangeError(f"inversion center must be finite, got {c}")
        object.__setattr__(self, "center", c)
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise ParameterRangeError(f"inversion radius must be positive, got {self.radius}")


def invert_point(inv: SphereInversion, z):
    """I_{x,mu}(z); an involution on R^n minus the center."""
    pts = np.asarray(z, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    d = pts - inv.center[None, :]
    r2 = _row_norm(d, squared=True)
    if np.any(r2 == 0.0):
        raise ParameterDomainError("inversion is undefined at its own center")
    out = inv.center[None, :] + inv.radius ** 2 * d / r2[:, None]
    return out[0] if single else out


def kelvin_transform(u: Field, inv: SphereInversion, exponent: float) -> Field:
    """The Kelvin transform y -> (mu/|y-x|)^exponent u(I_{x,mu}(y)).

    Exponent n-2 transforms solutions of the equation; exponent n-alpha is
    the matching transform for their potentials.  The returned field is
    singular at the inversion center and at the images of u's own singular
    points.
    """
    if not (exponent > 0.0):
        raise ParameterRangeError(f"kelvin exponent must be positive, got {exponent}")
    x = inv.center
    mu = inv.radius

    def at(d):
        # the image is x + w; a field about x takes w itself, since near x
        # the point x + w keeps only eps |x| / |w| of w
        dist2 = _row_norm(d, squared=True)
        w = mu ** 2 * d / dist2[:, None]
        same = u.about is not None and np.array_equal(u.about[0], x)
        vals = u.about[1](w) if same else u(x[None, :] + w)
        return (mu ** 2 / dist2) ** (exponent / 2.0) * vals

    singular = [tuple(x)]
    for s in u.singular_points:
        s = np.asarray(s, dtype=float)
        if np.linalg.norm(s - x) > 0.0:
            singular.append(tuple(invert_point(inv, s)))
    return Field(n=u.n, fn=lambda pts: at(pts - x[None, :]),
                 singular_points=tuple(singular), about=(x, at))


@dataclass(frozen=True)
class BubbleImage:
    """Exact parameters of a bubble's Kelvin image (bubbles map to bubbles)."""

    center: np.ndarray     # image bubble center
    mu: float              # image shape parameter
    amplitude_scale: float  # image amplitude / source amplitude


def bubble_image(params: ProblemParams, inv: SphereInversion, *,
                 bubble_center=None, bubble_mu: float = 1.0) -> BubbleImage:
    """Where the Kelvin transform (exponent n-2) sends a bubble.

    For the profile A (1 + m^2 |w-c|^2)^(-(n-2)/2) the image about (x, mu)
    is the same shape with

        B  = 1 + m^2 |c-x|^2,
        c' = x + m^2 mu^2 (c-x) / B,
        m' = B / (m mu^2),
        A' = A (m'/m)^((n-2)/2),

    so the unit bubble about the unit sphere is its own image.
    """
    x = inv.center
    c = np.zeros(params.n) if bubble_center is None else np.asarray(bubble_center, dtype=float)
    m = float(bubble_mu)
    if m <= 0.0:
        raise ParameterRangeError("bubble shape parameter must be positive")
    d = c - x
    big_b = 1.0 + m ** 2 * float(d @ d)
    center = x + m ** 2 * inv.radius ** 2 * d / big_b
    mu_img = big_b / (m * inv.radius ** 2)
    return BubbleImage(center=center, mu=mu_img,
                       amplitude_scale=(mu_img / m) ** params.nu)


# ============================================================
# comparison kernels
# ============================================================


def comparison_kernel(inv: SphereInversion, z, y, exponent: float) -> np.ndarray:
    """K(x,mu;z,y) = |y-z|^(-e) - (mu/|y-x|)^e |I(y)-z|^(-e).

    With e = n-2 this is the kernel carrying the deficit u - u_{x,mu}; with
    e = n-alpha, the one carrying the potential deficit.  Positive whenever
    both z and y lie strictly outside the sphere, and identically zero on
    |y-x| = mu.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    dy = _row_norm(y, inv.center)
    yi = invert_point(inv, y)
    direct = _row_norm(y - z) ** (-exponent)
    mirror = (inv.radius / dy) ** exponent * _row_norm(yi - z) ** (-exponent)
    return direct - mirror


def _kernel_positivity_check(n: int, inv: SphereInversion, rng: np.random.Generator,
                             *, alpha: float) -> dict:
    """Spot-check kernel positivity on random admissible pairs.

    Radii are drawn log-uniformly in (mu, 40 mu]; a companion batch puts y
    exactly on the sphere, where both kernels must vanish.
    """
    def draw(radius_lo):
        dirs = rng.normal(size=(_PAIRS, n))
        dirs /= _row_norm(dirs)[:, None]
        radii = inv.radius * np.exp(rng.uniform(math.log(radius_lo), math.log(40.0), _PAIRS))
        return inv.center[None, :] + radii[:, None] * dirs

    z = draw(1.0 + 1e-6)
    y = draw(1.0 + 1e-6)
    out = {"k2_min": float(np.min(comparison_kernel(inv, z, y, n - 2.0))),
           "kalpha_min": float(np.min(comparison_kernel(inv, z, y, n - float(alpha))))}
    dirs = rng.normal(size=(_PAIRS, n))
    dirs /= _row_norm(dirs)[:, None]
    y_b = inv.center[None, :] + inv.radius * dirs
    scale = _row_norm(y_b - z) ** (-(n - 2.0))
    out["k2_boundary_max"] = float(np.max(np.abs(comparison_kernel(inv, z, y_b, n - 2.0)) / scale))
    return out


# ============================================================
# deficits
# ============================================================


@dataclass(frozen=True)
class TestSetSpec:
    """The deficit test set's Philox stream for its shell directions."""

    __test__ = False            # keeps pytest from collecting the Test* name

    seed: int = 20240817


def _unit_probe(n: int, x: np.ndarray, spec: TestSetSpec):
    """The unit test set U about the unit sphere at 0, its images U/|U|^2 and weights |U|^-(n-2).

    Shells concentrate geometrically toward the sphere, where the deficit
    degenerates; the ray through the origin and x (e_1 when x = 0) catches
    image singularities emerging on the far side.
    """
    shells = (1.0 + np.geomspace(1e-6, _SHELL_SPAN - 1.0, _N_SHELLS))[:, None, None] \
        * _shell_directions(spec.seed, n)
    axis = np.zeros(n)
    if np.linalg.norm(x) > 0.0:
        axis[:] = x / np.linalg.norm(x)
    else:
        axis[0] = 1.0
    ray = (1.0 + np.geomspace(1e-7, _RAY_SPAN - 1.0, _RAY_POINTS // 2))[:, None] * axis
    unit = np.vstack([shells.reshape(-1, n), -ray, ray])
    norm2 = _row_norm(unit, squared=True)
    return unit, unit / norm2[:, None], norm2 ** (-(n - 2.0) / 2.0)


def _probe(x: np.ndarray, mu: float, unit, image, weights):
    """The sphere (x, mu)'s test points x + mu U, their images x + mu U/|U|^2 and weights.

    Points within 1e-9 of the origin are dropped; the arrays are copied
    only then.
    """
    pts, images = x + mu * unit, x + mu * image
    keep = _row_norm(pts) > 1e-9
    if keep.all():
        return pts, images, weights
    return pts[keep], images[keep], weights[keep]


@lru_cache(maxsize=CACHE_SIZE)
def _shell_directions(seed: int, n: int) -> np.ndarray:
    """Unit directions of the test-set shells, drawn once per stream; read-only."""
    rng = np.random.Generator(np.random.Philox(seed))
    dirs = rng.normal(size=(_N_SHELLS, _PER_SHELL, n))
    dirs /= _row_norm(dirs.reshape(-1, n)).reshape(_N_SHELLS, _PER_SHELL, 1)
    dirs.flags.writeable = False
    return dirs


@dataclass(frozen=True)
class ComparisonReport:
    """Deficits u - u_{x,mu} over a test set, with kernel spot-checks."""

    inversion: SphereInversion
    test_points: np.ndarray
    deficits: np.ndarray
    scales: np.ndarray            # |u| + |u_{x,mu}| per point, the tolerance unit
    min_deficit: float
    min_normalized: float         # min of deficit / scale
    violations: np.ndarray        # points with deficit < -1e-8 * scale
    violation_deficits: np.ndarray
    kernel_checks: dict

    @property
    def ok(self) -> bool:
        return self.violations.shape[0] == 0

    def summary(self) -> dict:
        return {
            "center": [float(c) for c in self.inversion.center],
            "radius": self.inversion.radius,
            "points": int(self.test_points.shape[0]),
            "min_deficit": self.min_deficit,
            "min_normalized": self.min_normalized,
            "violations": int(self.violations.shape[0]),
            "kernel_checks": self.kernel_checks,
        }


def comparison_deficit(u: Field, x, mu: float, spec: TestSetSpec = TestSetSpec(),
                       *, alpha: float) -> ComparisonReport:
    """Evaluate u - u_{x,mu} pointwise over the deficit test set of the sphere (x, mu).

    The test points, images and Kelvin weights are those of the probe that
    ``critical_radius`` bisects on, so the report at mu is that probe's
    arithmetic.  Deficits come from direct field evaluation, never from the
    kernel integral identity; the kernels enter only as positivity
    spot-checks.
    """
    inv = SphereInversion(x, mu)
    pts, images, weights = _probe(inv.center, inv.radius, *_unit_probe(u.n, inv.center, spec))
    deficits, scales, bad = _deficits(u, pts, images, weights)
    rng = np.random.Generator(np.random.Philox(987654321))
    return ComparisonReport(
        inversion=inv, test_points=pts, deficits=deficits, scales=scales,
        min_deficit=float(np.min(deficits)),
        min_normalized=float(np.min(deficits / np.maximum(scales, 1e-300))),
        violations=pts[bad], violation_deficits=deficits[bad],
        kernel_checks=_kernel_positivity_check(u.n, inv, rng, alpha=alpha))


def _deficits(u: Field, pts: np.ndarray, images: np.ndarray, weights: np.ndarray):
    """(u - u_{x,mu}, |u| + |u_{x,mu}|, violated) from pts, their images and Kelvin factors."""
    u_at = u(pts)
    u_mirror = weights * u(images)
    deficits, scales = u_at - u_mirror, np.abs(u_at) + np.abs(u_mirror)
    return deficits, scales, deficits < -_DEFICIT_TOL * scales


# ============================================================
# critical radius
# ============================================================


class CriticalRadiusValue(float):
    """A float with the search diagnostics riding along."""

    def __new__(cls, value, note="", unbounded=False, probes=0):
        obj = super().__new__(cls, value)
        obj.note = note
        obj.unbounded = unbounded
        obj.probes = probes
        return obj


def critical_radius(u: Field, x, spec: TestSetSpec = TestSetSpec(), *,
                    mu_hi: float = 8.0, xtol: float = 1e-4,
                    alpha: Optional[float] = None) -> CriticalRadiusValue:
    """Largest verified mu with nonnegative deficit over the sampled test set.

    Bisection between 1e-3 and mu_hi on the predicate "no deficit
    violations".  A predicate that already fails at 1e-3 returns 0 with a
    note; one that still holds at mu_hi returns the ceiling flagged
    unbounded (the constant-field branch of the dichotomy).  A probe
    evaluates the deficits only; ``alpha``, which only the kernel spot-checks
    of ``comparison_deficit`` read, does not change the radius.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParameterRangeError(f"sphere center must be finite, got {x}")
    if not (0.0 < xtol < math.inf and _MU_LO < mu_hi < math.inf):
        raise ParameterRangeError(
            f"need 0 < xtol < inf and {_MU_LO} < mu_hi < inf, got {xtol} and {mu_hi}")
    probes = 0
    unit_probe = _unit_probe(u.n, x, spec)

    def holds(mu):
        nonlocal probes
        probes += 1
        return not np.any(_deficits(u, *_probe(x, mu, *unit_probe))[2])

    if not holds(_MU_LO):
        return CriticalRadiusValue(0.0, note=f"deficit already negative at mu={_MU_LO}",
                                   probes=probes)
    if holds(mu_hi):
        return CriticalRadiusValue(mu_hi, note="deficit nonnegative up to the probe ceiling",
                                   unbounded=True, probes=probes)
    lo, hi = _MU_LO, mu_hi
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):     # the bracket is one float wide
            break
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return CriticalRadiusValue(lo, note="bisection bracket", probes=probes)


# ============================================================
# equality case: bubble detection
# ============================================================


@dataclass(frozen=True)
class EqualityFit:
    """Result of fitting A (1 + m^2 |y-x0|^2)^(-(n-2)/2) to sampled values."""

    x0: np.ndarray
    mu_bar: float
    amplitude: float
    fit_error: float    # relative RMS over the samples
    note: str           # "bubble", "non-bubble", or "constant field"
    converged: bool


def equality_fit(u: Field, sample_points) -> EqualityFit:
    """Fit the bubble ansatz to u over the sampled points, in log space.

    The dichotomy behind the fit: a positive field either matches a bubble
    (fit_error at round-off) or it does not; a relative spread below 1e-9
    short-circuits to the constant-field branch with mu_bar = 0.  A
    bubble's u^(-1/nu) is the paraboloid c |y|^2 + b.y + d, so one linear
    least-squares solve starts the fit at x0 = -b/(2c), A^(-1/nu) = d -
    |b|^2/(4c) (the apex), m^2 = c A^(1/nu); without a positive c and apex,
    at the largest sample.  Damped Gauss-Newton (Levenberg-Marquardt) steps
    then reach the log-space optimum, or raise ConvergenceError.
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise SamplingError("equality_fit wants finite sample points")
    vals = u(pts)
    if np.any(vals <= 0.0):
        raise ParameterDomainError("equality_fit wants a positive field on its samples")
    nu = (u.n - 2.0) / 2.0
    spread = float(vals.max() / vals.min() - 1.0)
    if spread < 1e-9:
        return EqualityFit(x0=pts.mean(axis=0), mu_bar=0.0,
                           amplitude=float(vals.mean()), fit_error=spread,
                           note="constant field", converged=True)

    logv = np.log(vals)
    design = np.column_stack([_row_norm(pts, squared=True), pts, np.ones(len(pts))])
    coef = np.linalg.lstsq(design, vals ** (-1.0 / nu), rcond=None)[0]
    c, b = coef[0], coef[1:-1]
    apex = coef[-1] - b @ b / (4.0 * c) if c > 0.0 else 0.0
    if apex > 0.0:
        theta = np.concatenate([[-nu * math.log(apex), 0.5 * math.log(c / apex)],
                                -b / (2.0 * c)])
    else:
        x0 = pts[int(np.argmax(vals))]
        r_scale = float(np.median(_row_norm(pts, x0)))
        theta = np.concatenate([[float(logv.max()), -math.log(max(r_scale, 1e-12))], x0])

    def resid(theta):
        """Log residual and its Jacobian in (log A, log m, x0)."""
        d = pts - theta[None, 2:]
        m2 = math.exp(2.0 * theta[1])
        q = m2 * _row_norm(d, squared=True)
        jac = np.empty((len(pts), theta.size))
        jac[:, 0] = 1.0
        jac[:, 1] = -2.0 * nu * q / (1.0 + q)
        jac[:, 2:] = (2.0 * nu * m2 / (1.0 + q))[:, None] * d
        return theta[0] - nu * np.log1p(q) - logv, jac

    r, jac = resid(theta)
    cost, lam = float(r @ r), 1e-3
    for _ in range(100):
        hess = jac.T @ jac
        step = -np.linalg.lstsq(hess + lam * np.diag(np.diag(hess)), jac.T @ r,
                                rcond=None)[0]
        r_new, jac_new = resid(theta + step)
        cost_new = float(r_new @ r_new)
        done = np.linalg.norm(step) <= 1e-12 * (1.0 + np.linalg.norm(theta))
        if cost_new < cost:
            done = done or cost - cost_new <= 1e-14 * cost
            theta, r, jac, cost, lam = theta + step, r_new, jac_new, cost_new, 0.1 * lam
        else:
            lam *= 10.0
        if done:
            break
    else:
        raise ConvergenceError(f"bubble fit did not converge; last iterate {theta}")
    err = float(np.sqrt(np.mean(np.expm1(r) ** 2)))
    note = "bubble" if err <= 1e-3 else "non-bubble"
    return EqualityFit(x0=theta[2:], mu_bar=float(np.exp(theta[1])),
                       amplitude=float(np.exp(theta[0])), fit_error=err,
                       note=note, converged=True)


# ============================================================
# pointwise PDE residual support
# ============================================================


def fd_laplacian(u: Field, points, h: float = 2e-3) -> np.ndarray:
    """Second-order central-difference Laplacian of a field at the given points.

    One batched evaluation of (2n + 1) stencil copies; accuracy is
    O(h^2 |u''''|) against round-off O(eps/h^2), so h near 1e-3..1e-2 suits
    fields with order-one derivatives.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = pts.shape
    stack = [pts]
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        stack.append(pts + e)
        stack.append(pts - e)
    vals = u(np.vstack(stack)).reshape(2 * n + 1, m)
    return (vals[1:].sum(axis=0) - 2.0 * n * vals[0]) / h ** 2
