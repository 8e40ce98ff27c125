"""Numerical predicates for the behavior of fields near an isolated singularity.

Four probes, all read-only over a Field:

  * upper_bound_scan   -- is r^((n-2)/2) u bounded as r -> 0?
  * symmetry_ratio     -- does the spherical oscillation decay like O(r)?
  * blowup_rescale     -- the frame w(y) = u(x)^{-1} u(x + y u(x)^{2/(2-n)})
  * profile_fit        -- does u approach a given cylinder-limit profile
                          (bubble-in-cylinder or a Delaunay orbit) after one
                          free log-radial translation?

The probes never solve anything; they measure closed-form or constructed
fields against the shapes singular solutions are proved to take, and the
report bundles the measurements with machine-readable flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constants import omega, sharp_constants
from .cylinder import CylinderProfile, DelaunaySolution
from .errors import GridError, ParameterDomainError, ParameterRangeError
from .fields import Field, sphere_quadrature, sphere_values
from .params import ProblemParams

_SLOPE_FLOOR = 0.8   # the least symmetry-ratio slope certified as the O(r) rate
_LATTICE, _STEP = 33, 1e-4   # profile fit: points per window, d/dtau difference step
_REACH = 1e-4   # default_radii's ladder stops at r_max * _REACH: four decades


def default_radii(r_min: float, r_max: float) -> np.ndarray:
    """Descending geometric ladder, ratio 2^(1/4), clipped to four decades."""
    if not (0.0 < r_min < r_max < math.inf):
        raise ParameterRangeError("need 0 < r_min < r_max < inf")
    r_min = max(r_min, r_max * _REACH)
    count = int(math.floor(math.log(r_max / r_min) / math.log(2.0 ** 0.25))) + 1
    return r_max * (2.0 ** -0.25) ** np.arange(count)


def _check_radii(radii) -> np.ndarray:
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ParameterRangeError("need at least two probe radii")
    if not (np.all(r > 0.0) and np.all(np.diff(r) < 0.0) and math.isfinite(r[0])):
        raise ParameterRangeError(
            "probe radii must be positive, finite and strictly decreasing")
    return r


def _smallest_decade(r: np.ndarray) -> np.ndarray:
    """Mask of the descending radii within a decade of r_min, else the last two."""
    last = r <= r[-1] * 10.0
    last[-2:] = True
    return last


def _sphere_sample(u: Field, radii, center):
    """(radii, u on the sphere rule's nodes about center, a row per radius)."""
    r = _check_radii(radii)
    return r, sphere_values(u, r, center, sphere_quadrature(u.n)[0])


# ============================================================
# upper bound scan
# ============================================================


@dataclass(frozen=True)
class UpperBoundScan:
    """s(r) = r^((n-2)/2) * spherical average of u, scanned toward r_min."""

    radii: np.ndarray
    s_values: np.ndarray
    running_sup: np.ndarray
    sup: float
    growth_last_decade: float   # s(r_min) / s(10 r_min), by nearest probes
    slope_last_decade: float    # log-log slope of s over the last decade
    divergence: bool

    def rows(self) -> dict:
        return {"r": self.radii, "s": self.s_values, "running_sup": self.running_sup}


def upper_bound_scan(u: Field, radii, center=None) -> UpperBoundScan:
    """Scan r^((n-2)/2) ubar(r) over a descending radii ladder.

    The divergence flag is raised when s grows by more than 10x over the
    last probed decade, or when it grows past 10x over the whole scan with
    a clearly negative log-log slope at the small end; the second clause
    exists because the critical-rate violator r^-(n-2) only grows by
    10^((n-2)/2) per decade, which stays under 10x in low dimension.
    """
    return _upper_bound(u.n, *_sphere_sample(u, radii, center))


def _upper_bound(n: int, r: np.ndarray, table: np.ndarray) -> UpperBoundScan:
    nu, (_, weights) = (n - 2.0) / 2.0, sphere_quadrature(n)
    # each sphere's own dot and scalar r^nu: the bits of spherical_average
    s = np.array([ri ** nu * float(np.dot(weights, row) / omega(n - 1))
                  for ri, row in zip(r, table)])
    sup = np.maximum.accumulate(s)
    last = _smallest_decade(r)
    growth = float(s[-1] / max(np.abs(s[last][0]), 1e-300))
    slope = float(np.polyfit(np.log(r[last]), np.log(np.maximum(np.abs(s[last]), 1e-300)), 1)[0])
    total_growth = float(s[-1] / max(np.abs(s[0]), 1e-300))
    diverging = growth > 10.0 or (total_growth > 10.0 and slope < -0.2)
    return UpperBoundScan(radii=r, s_values=s, running_sup=sup, sup=float(sup[-1]),
                          growth_last_decade=growth, slope_last_decade=slope,
                          divergence=bool(diverging))


# ============================================================
# symmetry ratio
# ============================================================


@dataclass(frozen=True)
class SymmetryRatio:
    """Spherical oscillation max/min - 1 per radius, with its decay rate."""

    radii: np.ndarray
    ratios: np.ndarray
    slope: Optional[float]   # log-log slope over the smallest decade; None if flat zero
    certified: bool          # slope >= 0.8, the O(r) rate within tolerance
    note: str

    def rows(self) -> dict:
        return {"r": self.radii, "ratio": self.ratios}


def symmetry_ratio(u: Field, radii, center=None) -> SymmetryRatio:
    """Measure max u / min u − 1 on spheres and fit its decay toward r_min.

    A fitted slope of 1 is the O(|x|) symmetry rate; radial fields come out
    identically zero and are certified with slope None.
    """
    return _symmetry(*_sphere_sample(u, radii, center))


def _symmetry(r: np.ndarray, table: np.ndarray) -> SymmetryRatio:
    lo = table.min(axis=1)
    bad = np.flatnonzero(lo <= 0.0)
    if bad.size:
        raise ParameterDomainError(
            f"symmetry ratio needs a positive field; min {float(lo[bad[0]])} on |x|={r[bad[0]]}")
    ratios = table.max(axis=1) / lo - 1.0
    last = _smallest_decade(r)
    positive = ratios[last] > 1e-14
    slope, certified, note = None, True, "oscillation at round-off; field is radial here"
    if np.all(positive):
        slope = float(np.polyfit(np.log(r[last]), np.log(ratios[last]), 1)[0])
        certified, note = bool(slope >= _SLOPE_FLOOR), "slope fitted over the smallest decade"
    elif np.any(positive):
        certified, note = False, "oscillation straddles round-off; no stable slope"
    return SymmetryRatio(radii=r, ratios=ratios, slope=slope, certified=certified, note=note)


# ============================================================
# blow-up frames
# ============================================================


@dataclass(frozen=True)
class BlowupFrame:
    """w(y) = u(x)^{-1} u(x + y u(x)^{2/(2-n)}), so w(0) = 1 by construction."""

    base_point: np.ndarray
    value: float    # u at the base point
    scale: float    # u(x)^{2/(2-n)}
    w: Field

    def __post_init__(self):
        w0 = self.w(np.zeros(self.w.n))
        if abs(w0 - 1.0) > 1e-12:
            raise ParameterDomainError(f"blow-up frame has w(0) = {w0}, not 1")


def blowup_rescale(u: Field, x_bar) -> BlowupFrame:
    """The standard blow-up frame at x_bar; w evaluates lazily through u."""
    x_bar = np.asarray(x_bar, dtype=float)
    val = u(x_bar)
    if not (val > 0.0):
        raise ParameterDomainError(f"blow-up rescaling needs u(x_bar) > 0, got {val}")
    scale = val ** (2.0 / (2.0 - u.n))

    def fn(pts):
        return u(x_bar[None, :] + pts * scale) / val

    singular = tuple(tuple((np.asarray(s) - x_bar) / scale) for s in u.singular_points)
    return BlowupFrame(base_point=x_bar, value=val, scale=scale,
                       w=Field(n=u.n, fn=fn, singular_points=singular))


# ============================================================
# profile fit
# ============================================================


@dataclass(frozen=True)
class ProfileFit:
    """Relative errors |u/u_inf - 1| against one cylinder-limit candidate."""

    candidate: str
    radii: np.ndarray
    errors: np.ndarray
    tau: float                     # fitted log-radial translation
    error_smallest: float
    monotone_decreasing: bool      # over the smallest decade, toward r_min
    rejected: bool                 # smallest-decade errors bounded away from 0
    multistart_spread: Optional[float]   # periodic candidates: agreement of minima

    def rows(self) -> dict:
        return {"r": self.radii, "rel_error": self.errors}


def _candidate_profile(candidate, params: ProblemParams):
    """(name, W(t) callable on all of R, period or None)."""
    if candidate == "cylinder_bubble":
        cn, nv = sharp_constants(params).c_n, params.nu
        return "cylinder_bubble", lambda t: cn * (2.0 * np.cosh(t)) ** (-nv), None
    if isinstance(candidate, DelaunaySolution):
        return "delaunay", candidate.profile, candidate.period
    if isinstance(candidate, CylinderProfile):
        if candidate.periodic:
            return "cylinder_profile", candidate, candidate.span

        def w_fun(t, prof=candidate):
            t = np.asarray(t, dtype=float)
            if np.any(t < prof.t[0]) or np.any(t > prof.t[-1]):
                raise GridError("candidate profile does not cover the probed radii")
            return prof(t)

        return "cylinder_profile", w_fun, None
    raise ParameterDomainError(f"unknown profile-fit candidate {candidate!r}")


def profile_fit(u: Field, candidate, radii, params: ProblemParams,
                center=None) -> ProfileFit:
    """Fit one t-translation and report per-radius errors against the candidate.

    The translation (a radial dilation of the candidate) is optimized by
    RMS log-error over the smallest probed decade, where the asymptotics
    live; the errors at every radius are then reported at that single tau.
    Seven windows of width 8 about tau = -3..3 (periodic candidates: six
    starts across the period, windows half a period wide, and tau reported
    in [-L/2, L/2)) are searched together.  One candidate call samples each
    at 33 lattice points; Newton's method on the stationary condition, by
    central differences of step 1e-4 in log W and one call a step, then
    polishes every window's best point inside the lattice cells beside it.
    For periodic candidates the spread of the minima doubles as a
    uniqueness check.  Like the other scans it probes u about ``center``
    (the origin by default): along e_1, or by the exact profile for a
    radial field centered there.
    """
    r = _check_radii(radii)
    name, w_fun, period = _candidate_profile(candidate, params)
    nu, t = params.nu, -np.log(r)
    uvals = sphere_values(u, r, center, np.eye(u.n)[:1])[:, 0]   # along e_1
    if np.any(uvals <= 0.0):
        raise ParameterDomainError("profile fit needs positive samples")
    target = np.log(uvals) + nu * np.log(r)   # log of r^nu u = log W(t + tau) wanted
    small = _smallest_decade(r)
    t_small, want = t[small], target[small]

    def residual(taus):   # log W(t_j + tau) - want_j on a new last axis, +inf where W <= 0
        w = np.asarray(w_fun(t_small + taus[..., None]), dtype=float)
        return np.log(np.where(w > 0.0, w, np.inf)) - want

    starts, span = ((np.linspace(-3.0, 3.0, 7), 4.0) if period is None
                    else (period * np.arange(6) / 6.0, period / 4.0))
    cell = 2.0 * span / (_LATTICE - 1)   # the lattice: _LATTICE points across each window
    lattice = (starts - span)[:, None] + cell * np.arange(_LATTICE)
    k = np.argmin(np.square(residual(lattice)).sum(axis=-1), axis=1)
    taus = starts - span + cell * k
    reach = cell * ((k > 0) & (k < _LATTICE - 1))   # a best end point stays
    lo, hi = taus - reach, taus + reach
    with np.errstate(divide="ignore", invalid="ignore"):   # W <= 0 or flat: tau stays
        for _ in range(8):   # Newton on g = mean(residual * d_tau log W) = 0
            lm, l0, lp = residual(np.add.outer([-_STEP, 0.0, _STEP], taus))
            d1, d2 = (lp - lm) / (2.0 * _STEP), (lp - 2.0 * l0 + lm) / _STEP ** 2
            step = -(l0 * d1).sum(axis=1) / np.abs((d1 * d1 + l0 * d2).sum(axis=1))
            taus, old = np.clip(np.where(np.isnan(step), taus, taus + step), lo, hi), taus
            if np.max(np.abs(taus - old)) <= 1e-9:   # what is left is about its square
                break
    minima = np.square(l0).mean(axis=1)   # at the last stencil's center, within 1e-9
    best = int(np.argmin(minima))
    best_cost, tau = float(minima[best]), float(taus[best])
    spread = None
    if period is not None:
        tau -= period * math.floor(tau / period + 0.5)   # the copy in [-L/2, L/2)
        good = minima[minima <= best_cost * (1.0 + 1e-6) + 1e-14]
        spread = float(good.max() - best_cost)

    w_all = np.asarray(w_fun(t + tau), dtype=float)
    errors = np.abs(uvals / (r ** (-nu) * w_all) - 1.0)
    err_small = errors[small]
    monotone = bool(np.all(np.diff(err_small) <= 1e-12 + 0.05 * err_small[:-1]))
    return ProfileFit(candidate=name, radii=r, errors=errors, tau=tau,
                      error_smallest=float(errors[-1]),
                      monotone_decreasing=monotone,
                      rejected=bool(np.min(err_small) > 1e-2),
                      multistart_spread=spread)


# ============================================================
# the assembled report
# ============================================================


@dataclass(frozen=True)
class AsymptoticsReport:
    """Everything the scans produced, ready for serialization."""

    n: int
    alpha: float
    upper: UpperBoundScan
    symmetry: SymmetryRatio
    fits: tuple

    def summary(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "sup_scaled_average": self.upper.sup,
            "divergence": self.upper.divergence,
            "growth_last_decade": self.upper.growth_last_decade,
            "symmetry_slope": self.symmetry.slope,
            "symmetry_certified": self.symmetry.certified,
            "fits": [{k: getattr(f, k) for k in ("candidate", "tau", "error_smallest",
                                                 "monotone_decreasing", "rejected",
                                                 "multistart_spread")} for f in self.fits],
        }


def asymptotics_report(u: Field, radii, params: ProblemParams,
                       candidates: Sequence = ("cylinder_bubble",),
                       center=None) -> AsymptoticsReport:
    """Run the three scans and the profile fits in one deterministic pass."""
    fits = tuple(profile_fit(u, c, radii, params, center=center) for c in candidates)
    sample = _sphere_sample(u, radii, center)   # one sample feeds both sphere scans
    return AsymptoticsReport(n=params.n, alpha=params.alpha, upper=_upper_bound(u.n, *sample),
                             symmetry=_symmetry(*sample), fits=fits)
