"""Log-cylindrical (Emden-Fowler) reduction and the periodic-solution finder.

Radial profiles map to the cylinder by t = -ln r, U(t) = r^((n-2)/2) u(r),
under which -Lap u = (R_alpha * F(u)) f(u) becomes the autonomous nonlocal
ODE

    -U'' + nu^2 U = (Khat * F(U)) f(U),      nu = (n-2)/2,

where Khat is the Riesz kernel in log coordinates,

    Khat(t) = 2^((alpha-n)/2) omega(n-2)
              int_{-1}^{1} (1 - tau^2)^((n-3)/2) (cosh t - tau)^((alpha-n)/2) dtau,

an even, positive, monotonically decaying kernel with Khat(t) ~
omega(n-1) e^{-(n-alpha)|t|/2}.  The explicit bubble becomes
C_n(alpha) (2 cosh t)^{-(n-2)/2}; bounded oscillating solutions on the
cylinder (Delaunay-type) correspond to singular solutions of the PDE.

Khat is the radial angular kernel in log coordinates: cosh t - 1 =
(r - s)^2 / (2 r s) for t = ln(r/s), so Khat(t) = (r s)^((n-alpha)/2)
k_alpha(r, s).  ``kernel_hat`` and the disk-cacheable ``KernelTable``
evaluate it with the shared QUADPACK reference of the radial module; the
Gauss-Jacobi rules there stay the independent discretization, so the two
routes cross-check each other.  This module owns the discrete convolution
and ODE residual on uniform t-grids, the constant solution and its
dispersion relation, and a Newton/continuation finder for even periodic
solutions at fixed period.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import artifacts
from .constants import omega
from .errors import (AccuracyError, GridError, IntegrabilityError,
                     ParameterRangeError, SamplingError)
from .fields import Field, RadialGrid, RadialProfile
from .params import ProblemParams
from .riesz import NonlinearitySpec, _kernel_quad

_ASYMPTOTIC_T = 25.0  # beyond this the two-term tail of Khat is exact to 1e-21

# ============================================================
# cylinder profiles
# ============================================================


@dataclass(frozen=True)
class CylinderProfile:
    """Values on a uniform t-grid: decaying on the line, L-periodic, or data.

    Decaying profiles promise |U| <= 1e-8 at both grid ends (so that
    zero-extension beyond the grid is harmless in convolutions); periodic
    profiles cover exactly one period, nodes at t_0 + j h for j = 0..N-1
    with N h = L.  Data profiles (residuals of decaying profiles, say)
    promise nothing about their ends.
    """

    t: np.ndarray
    values: np.ndarray
    boundary: str = "decaying"       # "decaying", "periodic" or "data"
    period: Optional[float] = None   # required iff periodic

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.size < 8:
            raise GridError("cylinder grids need at least 8 nodes")
        if v.shape != t.shape:
            raise GridError("t and values must have matching shapes")
        dt = np.diff(t)
        h = dt[0]
        if h <= 0 or not np.allclose(dt, h, rtol=1e-9, atol=0.0):
            raise GridError("cylinder grids must be uniformly spaced")
        if self.boundary == "periodic":
            if self.period is None or self.period <= 0:
                raise GridError("periodic profiles need a positive period")
            if not math.isclose(t.size * h, self.period, rel_tol=1e-9):
                raise GridError(
                    f"periodic span {t.size * h:.6g} (N h) must equal the period "
                    f"{self.period:.6g}")
        elif self.boundary in ("decaying", "data"):
            if self.period is not None:
                raise GridError(f"{self.boundary} profiles take no period")
            end = max(abs(v[0]), abs(v[-1]))
            if self.boundary == "decaying" and end > 1e-8:
                raise GridError(
                    f"decaying profiles must be below 1e-8 at the grid ends, got {end:.3e}; "
                    "widen the t-range")
        else:
            raise GridError(f"unknown boundary {self.boundary!r}")

    @property
    def spacing(self) -> float:
        return float(self.t[1] - self.t[0])

    def __call__(self, tq):
        """Cubic-spline evaluation (periodic-aware for periodic profiles)."""
        tq = np.asarray(tq, dtype=float)
        if self.boundary == "periodic":
            L = self.period
            tc = np.append(self.t, self.t[0] + L)
            vc = np.append(self.values, self.values[0])
            cs = CubicSpline(tc, vc, bc_type="periodic")
            return cs((tq - self.t[0]) % L + self.t[0])
        cs = CubicSpline(self.t, self.values)
        out = np.where((tq >= self.t[0]) & (tq <= self.t[-1]), cs(tq), 0.0)
        return out if out.ndim else float(out)


def to_cylinder(u, params: ProblemParams, *, spacing: float = 0.01,
                t_max: Optional[float] = None) -> CylinderProfile:
    """U(t) = r^((n-2)/2) u(r) at r = e^{-t}, resampled to a uniform t-grid.

    ``u`` may be a positive RadialProfile (interpolated, tails continued by
    its declared exponents) or a radial Field about the origin, in which
    case the exact callable is used.  The default t-range is chosen so the
    decaying-end contract (|U| <= 1e-8) holds; pass t_max to override.
    """
    nu = params.nu
    if isinstance(u, Field):
        if not u.is_radial or u.radial_fn is None or np.any(u.center != 0.0):
            raise SamplingError("to_cylinder wants a radial field about the origin")
        ufun = lambda r: np.asarray(u.radial_fn(r), dtype=float)
        amp = float(ufun(np.array([1.0]))[0])
    elif isinstance(u, RadialProfile):
        if not u.is_positive:
            raise SamplingError("to_cylinder is defined for positive profiles")
        ufun = lambda r: u(r, extrapolate=True)
        amp = float(ufun(np.array([1.0]))[0])
    else:
        raise SamplingError(f"cannot map {type(u).__name__} to the cylinder")

    if t_max is None:
        # U ~ amp 2^nu e^{-nu|t|} for bubble-like decay: pad to reach 1e-9
        t_max = (math.log(max(amp, 1e-3)) + 9.5 * math.log(10.0)) / nu + 2.0
        t_max = min(max(t_max, 12.0), 300.0)
    m = int(math.ceil(t_max / spacing))
    t = np.arange(-m, m + 1, dtype=float) * spacing
    r = np.exp(-t)
    vals = r ** nu * ufun(r)
    return CylinderProfile(t, vals, boundary="decaying")


def from_cylinder(U: CylinderProfile, params: ProblemParams) -> RadialProfile:
    """u(r) = r^{-(n-2)/2} U(-ln r) on the geometric grid matching U's nodes."""
    nu = params.nu
    r = np.exp(-U.t[::-1])
    vals = r ** (-nu) * U.values[::-1]
    prof = RadialProfile(RadialGrid(r), vals)
    est = prof.estimate_exponents()
    if est is not None:
        prof = prof.with_exponents(*est)
    return prof


# ============================================================
# the log-cylindrical kernel
# ============================================================


def _khat_asymptotic(n: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """omega(n-1) (2 cosh t)^((alpha-n)/2), overflow-safe; exact for large |t|."""
    q = (alpha - n) / 2.0
    at = np.abs(np.asarray(t, dtype=float))
    log2c = at + np.log1p(np.exp(-2.0 * at))
    return omega(n - 1) * np.exp(q * log2c)


def kernel_hat(params: ProblemParams, t, tol: float = 1e-10):
    """The cylinder kernel Khat at t (scalar or array), to tolerance tol.

    The shared QUADPACK reference at d = cosh t - 1 for |t| < 25, the
    exact exponential tail beyond; independent of the Gauss-Jacobi rules
    in the radial module.  Raises an accuracy error if QUADPACK cannot
    certify tol, and an integrability error at t = 0 when alpha <= 1.
    """
    if tol <= 0:
        raise ParameterRangeError("kernel_hat needs tol > 0")
    n, alpha = params.n, params.alpha
    arr = np.asarray(t, dtype=float)
    flat = np.abs(arr).ravel()
    out = _khat_asymptotic(n, alpha, flat)
    for i in np.flatnonzero(flat < _ASYMPTOTIC_T):
        # cosh t - 1, computed stably
        val, err = _kernel_quad(n, alpha, 2.0 * math.sinh(flat[i] / 2.0) ** 2)
        if err > tol * val:
            raise AccuracyError(
                f"kernel_hat at t={flat[i]} certified only {err / val:.2e}",
                achieved=err / val)
        out[i] = 2.0 ** ((alpha - n) / 2.0) * val
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ============================================================
# kernel table
# ============================================================


@dataclass(frozen=True)
class KernelTable:
    """Khat sampled on [0, t_cut] (even continuation implied) plus metadata.

    Behind the samples sits a cubic spline of log Khat, exact exponential
    asymptotics beyond t_cut, the kernel's L1 norm, and its decay constant
    omega(n-1) = lim Khat(t) e^{(n-alpha)|t|/2}.  Built once per
    (n, alpha, tol) and cacheable to CSV.
    """

    n: int
    alpha: float
    tol: float
    t_samples: np.ndarray
    values: np.ndarray
    decay_constant: float
    norm_l1: float
    _spline: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        v = self.values
        if np.any(v <= 0.0):
            raise AccuracyError("kernel table values must be strictly positive")
        if np.any(np.diff(v) > 0.0):
            raise AccuracyError("kernel table must be nonincreasing in |t|")
        # decay-constant convergence over the last decade of the sampled range
        lam = (self.n - self.alpha) / 2.0
        tail = self.t_samples >= 0.9 * self.t_samples[-1]
        ratio = v[tail] * np.exp(lam * self.t_samples[tail]) / self.decay_constant
        if np.max(np.abs(ratio - 1.0)) > 1e-6:
            raise AccuracyError("kernel tail does not settle on its decay constant")
        if self._spline is None:
            object.__setattr__(self, "_spline",
                               CubicSpline(self.t_samples, np.log(v)))

    # ---------- construction ----------

    @classmethod
    def build(cls, params: ProblemParams, tol: float = 1e-10,
              cache_dir=None) -> "KernelTable":
        if params.alpha <= 1.0:
            raise IntegrabilityError(
                "the cylinder pipeline needs a bounded kernel, i.e. alpha > 1")
        if cache_dir is not None:
            cached = cls._load(params, tol, cache_dir)
            if cached is not None:
                return cached
        t = np.concatenate([[0.0],
                            np.geomspace(1e-4, 0.1, 72),
                            np.arange(0.11, _ASYMPTOTIC_T + 1e-9, 0.01)])
        vals = kernel_hat(params, t, tol)
        lam = (params.n - params.alpha) / 2.0
        spline = CubicSpline(t, np.log(vals))
        core, _ = quad(lambda s: np.exp(spline(s)), 0.0, _ASYMPTOTIC_T,
                       limit=400, points=[0.01, 0.1, 1.0])
        tail = omega(params.n - 1) * math.exp(-lam * _ASYMPTOTIC_T) / lam
        table = cls(n=params.n, alpha=params.alpha, tol=tol, t_samples=t,
                    values=vals, decay_constant=omega(params.n - 1),
                    norm_l1=2.0 * (core + tail), _spline=spline)
        if cache_dir is not None:
            table._save(params, tol, cache_dir)
        return table

    @staticmethod
    def _cache_path(params, tol, cache_dir) -> Path:
        # repr keys: label() rounds alpha, and nearby alphas must not share a file
        name = f"kernel_hat_n{params.n}a{float(params.alpha)!r}_tol{float(tol)!r}.csv"
        return Path(cache_dir) / name

    def _save(self, params, tol, cache_dir) -> None:
        path = self._cache_path(params, tol, cache_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        artifacts.write_csv(path, {"t": self.t_samples, "khat": self.values}, [
            "hartreelab kernel table v1",
            f"n={self.n}",
            f"alpha={artifacts.format_float(self.alpha)}",
            f"tol={artifacts.format_float(self.tol)}",
            f"decay_constant={artifacts.format_float(self.decay_constant)}",
            f"norm_l1={artifacts.format_float(self.norm_l1)}",
        ])

    @classmethod
    def _load(cls, params, tol, cache_dir) -> Optional["KernelTable"]:
        path = cls._cache_path(params, tol, cache_dir)
        if not path.exists():
            return None
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "# hartreelab kernel table v1":
            return None
        meta = {}
        body = []
        for ln in lines[1:]:
            if ln.startswith("# "):
                k, _, v = ln[2:].partition("=")
                meta[k] = v
            elif ln and not ln.startswith("t,"):
                body.append(tuple(float(x) for x in ln.split(",")))
        if (int(meta["n"]), float(meta["alpha"]), float(meta["tol"])) \
                != (params.n, float(params.alpha), float(tol)):
            return None     # a table for another request: rebuild
        data = np.array(body)
        return cls(n=int(meta["n"]), alpha=float(meta["alpha"]),
                   tol=float(meta["tol"]), t_samples=data[:, 0], values=data[:, 1],
                   decay_constant=float(meta["decay_constant"]),
                   norm_l1=float(meta["norm_l1"]))

    # ---------- evaluation ----------

    @property
    def t_cut(self) -> float:
        return float(self.t_samples[-1])

    def values_at(self, t) -> np.ndarray:
        t = np.abs(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        near = t <= self.t_cut
        if np.any(near):
            out[near] = np.exp(self._spline(t[near]))
        if np.any(~near):
            out[~near] = _khat_asymptotic(self.n, self.alpha, t[~near])
        return out

    def central_moments(self, h: float):
        """(M0, M1): exact integrals of Khat over [-h/2, h/2] and [h/2, 3h/2].

        The kernel's cusp at t = 0 makes plain trapezoid weights lose an
        order there; these two cells are integrated through the spline so
        the discrete convolution stays second-order.
        """
        m0_half, _ = quad(lambda s: np.exp(self._spline(s)), 0.0, h / 2.0, limit=100)
        m1, _ = quad(lambda s: np.exp(self._spline(s)), h / 2.0, 1.5 * h, limit=100)
        return 2.0 * m0_half, m1

    def fourier(self, w: float) -> float:
        """Khat's Fourier transform 2 int_0^inf Khat(t) cos(w t) dt (even in w)."""
        lam = (self.n - self.alpha) / 2.0
        w = abs(float(w))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            core, _ = quad(lambda s: np.exp(self._spline(s)), 0.0, self.t_cut,
                           weight="cos", wvar=w, limit=800)
        zt = complex(lam, w)
        tail = self.decay_constant * (np.exp(-zt * self.t_cut) / zt).real
        return 2.0 * (core + tail)


_TABLE_CACHE: dict = {}


def kernel_table(params: ProblemParams, tol: float = 1e-10,
                 cache_dir=None) -> KernelTable:
    """Process-cached KernelTable.build."""
    key = (params.n, params.alpha, tol)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = KernelTable.build(params, tol, cache_dir=cache_dir)
    return _TABLE_CACHE[key]


# ============================================================
# discrete convolution and the ODE residual
# ============================================================


def _line_weights(kt: KernelTable, h: float, m: int) -> np.ndarray:
    """Product-integration weights c_k, k = 0..m-1, for the line convolution."""
    c = h * kt.values_at(h * np.arange(m, dtype=float))
    c[0], c[1] = kt.central_moments(h)
    return c


def periodized_weights(kt: KernelTable, h: float, n_nodes: int,
                       trunc_tol: float = 1e-15) -> np.ndarray:
    """Weights of the L-periodized kernel, L = n_nodes h, offsets 0..n_nodes-1.

    Images are accumulated until a whole round adds less than trunc_tol of
    the running total, then the remaining geometric tail of the exponential
    asymptotics is added in closed form.
    """
    N = n_nodes
    L = N * h
    lam = (kt.n - kt.alpha) / 2.0
    c = _line_weights(kt, h, N)
    k = np.arange(N, dtype=float)
    total = c.copy()
    total[1:] += h * kt.values_at(h * (N - k[1:]))   # the mirrored first image
    j = 1
    while True:
        add = h * (kt.values_at(h * (k + j * N)) + kt.values_at(h * (j * N + N - k)))
        add[0] = 2.0 * h * kt.values_at(h * j * N)
        total += add
        if np.max(add) <= trunc_tol * np.max(total):
            break
        j += 1
        if j > 100000:
            raise AccuracyError("periodized kernel sum failed to converge")
    # closed-form remainder of the asymptotic tail, both directions
    decay = math.exp(-lam * L)
    rem = h * kt.decay_constant * (np.exp(-lam * h * (k + (j + 1) * N))
                                   + np.exp(-lam * h * ((j + 1) * N + N - k)))
    total += rem / (1.0 - decay)
    return total


def _second_difference(v: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    d2 = np.empty_like(v)
    d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    if periodic:
        d2[0] = (v[1] - 2.0 * v[0] + v[-1]) / h ** 2
        d2[-1] = (v[0] - 2.0 * v[-1] + v[-2]) / h ** 2
    else:
        # one-sided second-order stencils at the line ends
        d2[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
        d2[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
    return d2


def cylinder_convolution(g: np.ndarray, kt: KernelTable, h: float,
                         boundary: str, n_nodes: Optional[int] = None) -> np.ndarray:
    """(Khat * g) on the uniform grid carrying g.

    Line mode zero-extends beyond the grid (callers owe the decaying-end
    contract); periodic mode convolves against the periodized kernel.
    """
    m = g.size
    if boundary == "periodic":
        c = periodized_weights(kt, h, m if n_nodes is None else n_nodes)
        return np.real(np.fft.ifft(np.fft.fft(c) * np.fft.fft(g)))
    c = _line_weights(kt, h, m)
    full = np.concatenate([c[:0:-1], c])
    # a linear convolution padded past 3m - 2, keeping its centred m samples
    size = next_fast_len(3 * m - 2, True)
    return irfft(rfft(g, size) * rfft(full, size), size)[m - 1:2 * m - 1]


def ode_residual(U: CylinderProfile, nl: NonlinearitySpec, kt: KernelTable):
    """Residual of -U'' + nu^2 U = (Khat * F(U)) f(U) and its relative L2 norm.

    Both equation sides cancel exponentially where U decays, so the norm is
    normalized by the pointwise term scale |U''| + nu^2 |U| + |rhs| rather
    than by the residual's own operands; the return is
    (residual CylinderProfile, relative L2 norm over the grid).
    """
    nu2 = ((kt.n - 2) / 2.0) ** 2
    h = U.spacing
    v = U.values
    conv = cylinder_convolution(nl.F(v), kt, h, U.boundary)
    rhs = conv * nl.f(v)
    d2 = _second_difference(v, h, U.boundary == "periodic")
    res = -d2 + nu2 * v - rhs
    scale = np.abs(d2) + nu2 * np.abs(v) + np.abs(rhs)
    rel = math.sqrt(float(np.sum(res ** 2)) / float(np.sum(scale ** 2)))
    if U.boundary == "periodic":
        return CylinderProfile(U.t, res, boundary="periodic", period=U.period), rel
    # the residual of a decaying profile need not be below 1e-8 at the ends
    return CylinderProfile(U.t, res, boundary="data"), rel


# ============================================================
# constant solution and dispersion
# ============================================================


def constant_solution(params: ProblemParams, nl: NonlinearitySpec,
                      kt: KernelTable) -> float:
    """U_c solving nu^2 U = c_f |Khat|_1 U^{2p-1} (the balance equation)."""
    nu2 = params.nu ** 2
    return (nu2 / (nl.c_f * kt.norm_l1)) ** (1.0 / (2.0 * nl.p - 2.0))


def dispersion_function(params: ProblemParams, nl: NonlinearitySpec,
                        kt: KernelTable, w: float) -> float:
    """D(w): the linearization of the ODE at U_c acting on e^{i w t}.

    D(w) = w^2 + nu^2 [2 - p - p Khat^(w)/|Khat|_1]; negative at w = 0
    (the balance equation makes the zero mode dominate), positive for large
    w, and its smallest positive root w_0 marks the local bifurcation with
    period 2 pi / w_0.  Independent of c_f: the constant solution absorbs it.
    """
    nu2 = params.nu ** 2
    p = nl.p
    kappa = kt.fourier(w) / kt.norm_l1
    return w * w + nu2 * (2.0 - p - p * kappa)


def dispersion_root(params: ProblemParams, nl: NonlinearitySpec, kt: KernelTable):
    """(U_c, L_0): the constant solution and its bifurcation period.

    L_0 = 2 pi / w_0 with w_0 the smallest positive zero of the dispersion
    function, bracketed by a scan and polished by Brent.  Returns
    (U_c, None) when no positive root exists (no local bifurcation).
    """
    uc = constant_solution(params, nl, kt)
    p = nl.p
    nu = params.nu
    w_hi = nu * math.sqrt(max(2.0 * p - 2.0, 1.0)) + 2.0
    scan = np.linspace(1e-6, w_hi, 241)
    vals = [dispersion_function(params, nl, kt, w) for w in scan]
    for k in range(len(scan) - 1):
        if vals[k] < 0.0 <= vals[k + 1]:
            w0 = brentq(lambda w: dispersion_function(params, nl, kt, w),
                        scan[k], scan[k + 1], xtol=1e-13, rtol=1e-14)
            return uc, 2.0 * math.pi / w0
    return uc, None


# ============================================================
# the Delaunay finder
# ============================================================


@dataclass(frozen=True)
class DelaunaySolution:
    """An even periodic candidate orbit of the cylinder ODE, with provenance."""

    n: int
    alpha: float
    c_f: float
    period: float
    epsilon: float            # actual neck value U(0)
    u_c: float                # constant solution at these parameters
    profile: CylinderProfile  # one full period, node 0 at the neck
    residual_norm: float      # relative L2 of ode_residual on the profile
    residual_inf: float       # max-norm of the discrete Newton system
    amplitude: float          # max U - min U over the period
    converged: bool
    nontrivial: bool
    partial_result: bool      # epsilon_target not reached before stagnation
    solver_tol: float
    steps: list = field(default_factory=list)   # continuation log

    def summary(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "c_f": self.c_f,
            "period": self.period,
            "epsilon": self.epsilon,
            "u_c": self.u_c,
            "residual_norm": self.residual_norm,
            "residual_inf": self.residual_inf,
            "amplitude": self.amplitude,
            "converged": self.converged,
            "nontrivial": self.nontrivial,
            "partial_result": self.partial_result,
            "solver_tol": self.solver_tol,
        }

    def to_json(self, path, metadata: Optional[dict] = None) -> None:
        doc = dict(metadata or {})
        doc.update(self.summary())
        doc["steps"] = self.steps
        doc["t"] = [float(x) for x in self.profile.t]
        doc["U"] = [float(x) for x in self.profile.values]
        artifacts.write_json(path, doc)


class _HalfGridSystem:
    """The even-about-0 discretization on half a period, folded dense operators."""

    def __init__(self, params, nl, kt, L, n_nodes):
        if n_nodes % 2:
            raise GridError("find_delaunay wants an even node count")
        if n_nodes > 2048:
            raise ParameterRangeError("collocation is dense linear algebra; "
                                      "2048 nodes is the ceiling")
        self.nl = nl
        self.N = n_nodes
        self.m = n_nodes // 2
        self.h = L / n_nodes
        self.L = L
        nu2 = params.nu ** 2
        N, m, h = self.N, self.m, self.h

        fold = np.minimum(np.arange(N), N - np.arange(N))
        E = np.zeros((N, m + 1))
        E[np.arange(N), fold] = 1.0

        offsets = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
        offsets = np.minimum(offsets, N - offsets)
        cper = periodized_weights(kt, h, N)
        C_full = cper[offsets]

        A_full = np.zeros((N, N))
        idx = np.arange(N)
        A_full[idx, idx] = 2.0 / h ** 2 + nu2
        A_full[idx, (idx + 1) % N] = -1.0 / h ** 2
        A_full[idx, (idx - 1) % N] = -1.0 / h ** 2

        self.A = A_full[: m + 1] @ E
        self.C = C_full[: m + 1] @ E
        self.t_half = h * np.arange(m + 1)

    def residual(self, x):
        conv = self.C @ self.nl.F(x)
        return self.A @ x - self.nl.f(x) * conv, conv

    def jacobian(self, x, conv):
        return (self.A
                - (self.nl.f(x)[:, None] * self.C) * self.nl.F_prime(x)[None, :]
                - np.diag(conv * self.nl.f_prime(x)))

    def full_values(self, x):
        fold = np.minimum(np.arange(self.N), self.N - np.arange(self.N))
        return x[fold]


def _newton(system, x0, tol, max_iter=50, pin_eps: Optional[float] = None):
    """Damped Newton on the folded system; optionally pins U(0) = pin_eps.

    Returns (x, converged, final_norm, iterations).  Steps that fail to
    reduce the residual norm after 6 halvings end the iteration early.
    """
    x = x0.copy()
    g, conv = system.residual(x)
    if pin_eps is not None:
        g = g.copy()
        g[0] = x[0] - pin_eps
    norm = float(np.max(np.abs(g)))
    for it in range(max_iter):
        if norm <= tol:
            return x, True, norm, it
        J = system.jacobian(x, conv)
        if pin_eps is not None:
            J = J.copy()
            J[0, :] = 0.0
            J[0, 0] = 1.0
        try:
            step = np.linalg.solve(J, g)
        except np.linalg.LinAlgError:
            return x, False, norm, it
        lam = 1.0
        for _ in range(7):
            x_try = x - lam * step
            g_try, conv_try = system.residual(x_try)
            if pin_eps is not None:
                g_try = g_try.copy()
                g_try[0] = x_try[0] - pin_eps
            norm_try = float(np.max(np.abs(g_try)))
            if norm_try < norm or norm_try <= tol:
                x, g, conv, norm = x_try, g_try, conv_try, norm_try
                break
            lam /= 2.0
        else:
            return x, False, norm, it + 1
    return x, norm <= tol, norm, max_iter


def find_delaunay(params: ProblemParams, nl: NonlinearitySpec,
                  epsilon_target: float, L: float, continuation_steps: int = 40,
                  *, kt: Optional[KernelTable] = None, n_nodes: int = 512,
                  newton_tol_factor: float = 1e-12) -> DelaunaySolution:
    """Seek an even, L-periodic, positive cylinder orbit with neck near epsilon_target.

    Continuation starts just below the constant solution U_c with a cosine
    seed, marches the pinned neck value downward (secant predictor,
    step-halving on failure), and free-polishes every pinned solve; at
    fixed L the polished orbits settle onto the branch's own neck value,
    so the march is declared stagnant once the polished neck stops moving,
    and the partial-result flag records whether epsilon_target was reached.
    The returned solution is the last converged polish (the constant
    solution when the target is U_c itself or nothing nontrivial exists).
    """
    if L <= 0:
        raise ParameterRangeError("the period must be positive")
    if continuation_steps < 1:
        raise ParameterRangeError("need at least one continuation step")
    if kt is None:
        kt = kernel_table(params)
    uc = constant_solution(params, nl, kt)
    if epsilon_target > uc * (1.0 + 1e-9):
        raise ParameterRangeError(
            f"epsilon_target {epsilon_target} exceeds the constant solution {uc}")

    system = _HalfGridSystem(params, nl, kt, L, n_nodes)
    tol = newton_tol_factor * (4.0 / system.h ** 2) * max(1.0, uc)
    const = np.full(system.m + 1, uc)

    def make_solution(x, converged, norm_inf, steps, partial):
        full = system.full_values(x)
        prof = CylinderProfile(system.h * np.arange(system.N), full,
                               boundary="periodic", period=L)
        _, rel = ode_residual(prof, nl, kt)
        amp = float(full.max() - full.min())
        return DelaunaySolution(
            n=params.n, alpha=params.alpha, c_f=nl.c_f, period=L,
            epsilon=float(x[0]), u_c=uc, profile=prof, residual_norm=rel,
            residual_inf=norm_inf, amplitude=amp, converged=converged,
            nontrivial=bool(amp > 1e-5 * uc), partial_result=partial,
            solver_tol=tol, steps=steps)

    if epsilon_target >= uc * (1.0 - 1e-9):
        return make_solution(const, True, 0.0, [], False)

    # pinned-neck ladder, geometric refinement leaving the constant branch
    gaps = np.geomspace(0.02 * uc, uc - epsilon_target, continuation_steps)
    steps: list = []
    found = []   # (x, norm) of accepted nontrivial polishes
    x_prev = None
    eps_prev = None

    for gap in gaps:
        eps = uc - gap
        if x_prev is None:
            seed = uc + (eps - uc) * np.cos(2.0 * np.pi * system.t_half / L)
        elif len(found) >= 2 and eps_prev is not None:
            # secant predictor along the pinned family
            x_a, _ = found[-2][0], None
            x_b = found[-1][0]
            seed = x_b + (x_b - x_a) * ((eps - x_b[0]) / (x_b[0] - x_a[0] + 1e-300))
        else:
            seed = x_prev + (eps - x_prev[0])
        x_pin, ok_pin, norm_pin, it_pin = _newton(system, seed, tol, pin_eps=eps)
        entry = {"eps_request": float(eps), "pinned_converged": bool(ok_pin),
                 "pinned_norm": float(norm_pin), "pinned_iterations": int(it_pin)}
        if not ok_pin:
            entry["polish"] = "skipped"
            steps.append(entry)
            break
        x_prev, eps_prev = x_pin, eps
        x_pol, ok_pol, norm_pol, it_pol = _newton(system, x_pin, tol)
        if x_pol[0] > x_pol[-1]:
            # reversal on the half grid translates by L/2; keep the neck at t=0
            x_pol = x_pol[::-1].copy()
        amp = float(x_pol.max() - x_pol.min())
        entry.update({"polish_converged": bool(ok_pol), "polish_norm": float(norm_pol),
                      "polish_iterations": int(it_pol),
                      "actual_eps": float(x_pol[0]), "amplitude": amp})
        accepted = (ok_pol and amp > 1e-5 * uc and float(x_pol.min()) > 0.0)
        entry["accepted"] = bool(accepted)
        steps.append(entry)
        if accepted:
            found.append((x_pol, norm_pol))
            if x_pol[0] <= epsilon_target * (1.0 + 1e-6):
                return make_solution(x_pol, True, norm_pol, steps, False)
            if len(found) >= 2 and abs(found[-1][0][0] - found[-2][0][0]) \
                    < 1e-9 * uc:
                # fixed L pins the branch's neck; the march cannot progress
                return make_solution(x_pol, True, norm_pol, steps, True)

    if found:
        x_best, norm_best = found[-1]
        return make_solution(x_best, True, norm_best, steps,
                             x_best[0] > epsilon_target * (1.0 + 1e-6))
    # nothing nontrivial: report the constant branch, flag the shortfall
    return make_solution(const, False, float("nan"), steps, True)
