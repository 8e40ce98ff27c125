"""Radial grids, radial profiles, and point fields on R^n \\ {0}.

Positive radial quantities in this problem live across many decades and
decay like powers at both ends, so the native representation is a
geometric radial grid together with declared power-law exponents for the
two tails; the transforms accept only grids uniform in log r.  A profile
is those samples and tails and nothing between: the transforms continue it
past its grid by the declared exponents, and nothing evaluates it off its
nodes.

Fields are lightweight wrappers around closed-form callables.  No global
n-dimensional grid is ever built: pointwise evaluation, radial sampling
along rays, and product Gauss quadrature over spheres are the only
access paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .constants import omega, sharp_constants
from .errors import GridError, SamplingError, UnsupportedDimensionError
from .params import CACHE_SIZE, ProblemParams

_LOG10 = math.log(10.0)
_MAX_LOG_SPACING = _LOG10 / 16.0   # grid contract: at least 16 nodes per decade


# ============================================================
# radial grids
# ============================================================


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing positive radii, at least 16 per decade.

    Transforms need the log-uniform grids of ``geometric`` (or a ``[::k]``
    subsample of one); other radii serve sampling and serialization only.
    """

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 1 or r.size < 2:
            raise GridError("grid needs a 1-d array with at least two radii")
        if r[0] <= 0.0 or not np.all(np.isfinite(r)):
            raise GridError("grid radii must be positive and finite")
        dlog = np.diff(np.log(r))
        if np.any(dlog <= 0.0):
            raise GridError("grid radii must be strictly increasing")
        if np.max(dlog) > _MAX_LOG_SPACING * (1 + 1e-9):
            raise GridError(
                f"grid too coarse: {_LOG10 / np.max(dlog):.1f} nodes/decade "
                "where at least 16 are required")

    @classmethod
    def geometric(cls, r_min: float, r_max: float, per_decade: int = 96) -> "RadialGrid":
        """The log-uniform grid from r_min to r_max, per_decade nodes per decade."""
        if not (0.0 < r_min < r_max < math.inf):
            raise GridError(f"need 0 < r_min < r_max < inf, got ({r_min}, {r_max})")
        if not (per_decade >= 16):
            raise GridError(f"per_decade must be >= 16, got {per_decade}")
        decades = math.log10(r_max / r_min)
        num = int(math.ceil(decades * per_decade)) + 1
        return cls(np.geomspace(r_min, r_max, num))

    @property
    def log_r(self) -> np.ndarray:
        return np.log(self.r)

    def __len__(self) -> int:
        return self.r.size


# ============================================================
# radial profiles
# ============================================================


@dataclass(frozen=True)
class RadialProfile:
    """Values on a radial grid with declared power-law tail exponents.

    ``inner_exponent`` / ``outer_exponent`` describe u ~ c r^e below r_min
    and above r_max.  They are declarations (the transforms continue the
    profile past its grid by them), not measurements;
    ``estimate_exponents`` measures.
    """

    grid: RadialGrid
    values: np.ndarray
    inner_exponent: Optional[float] = None
    outer_exponent: Optional[float] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.r.shape:
            raise GridError(f"values shape {v.shape} does not match grid {self.grid.r.shape}")
        if not np.all(np.isfinite(v)):
            raise GridError("profile values must be finite")

    def with_exponents(self, inner: Optional[float], outer: Optional[float]) -> "RadialProfile":
        return replace(self, inner_exponent=inner, outer_exponent=outer)

    # ---------- exponents ----------

    def estimate_exponents(self):
        """Log-log regression slopes over the first and last decade of the grid.

        Returns (inner, outer); an end containing non-positive values yields
        None there (the slope is undefined).
        """
        r, v = self.grid.r, self.values

        def slope(mask):
            if np.count_nonzero(mask) < 3 or np.any(v[mask] <= 0.0):
                return None
            return float(np.polyfit(np.log(r[mask]), np.log(v[mask]), 1)[0])

        lo = r <= r[0] * 10.0
        hi = r >= r[-1] * 0.1
        return slope(lo), slope(hi)


# ============================================================
# fields
# ============================================================


def _row_norm(pts: np.ndarray, center=None, squared: bool = False) -> np.ndarray:
    """|y - center| for each row y of an (m, n) array, or its square.

    Summed a column at a time, which gives the bits of ``np.linalg.norm(pts
    - center, axis=1)`` and ``np.sum((pts - center) ** 2, axis=1)`` at a
    fraction of their cost: those reduce each short row in turn.
    """
    acc = np.zeros(pts.shape[0])
    for k in range(pts.shape[1]):
        d = pts[:, k] if center is None else pts[:, k] - center[k]
        acc += d * d
    return acc if squared else np.sqrt(acc)


@dataclass(frozen=True)
class Field:
    """A scalar field on R^n \\ {singular point}, evaluated pointwise.

    ``fn`` maps an (m, n) array of points to m values.  Radial fields
    carry their center and a 1-d radial callable ``radial_fn`` (None on
    any other field) so samplers can take the exact route instead of ray
    evaluation.  A radial field's ``fn`` refuses its singular center from
    its own distances; other fields' singular points are checked here.
    """

    n: int
    fn: Callable[[np.ndarray], np.ndarray]
    center: Optional[np.ndarray] = None
    radial_fn: Optional[Callable] = None
    singular_points: tuple = field(default_factory=tuple)  # points where evaluation is refused
    about: Optional[tuple] = None   # (x, g): g(d) = fn(x + d), without rounding x + d

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.n:
            raise SamplingError(f"points have dimension {pts.shape[1]}, field has n={self.n}")
        for s in self.singular_points if self.radial_fn is None else ():
            if np.any(_row_norm(pts, s, squared=True) == 0.0):
                raise SamplingError(f"field evaluated at its singular point {np.asarray(s)}")
        vals = np.asarray(self.fn(pts), dtype=float)
        return float(vals[0]) if single else vals

    @classmethod
    def radial(cls, n: int, radial_fn: Callable, center=None,
               singular_center: bool = True) -> "Field":
        c = np.zeros(n) if center is None else np.asarray(center, dtype=float)

        def fn(pts):
            r = _row_norm(pts, c)
            if singular_center and np.any(r == 0.0):
                raise SamplingError(f"field evaluated at its singular point {c}")
            return radial_fn(r)

        sing = (tuple(c),) if singular_center else ()
        return cls(n=n, fn=fn, center=c, radial_fn=radial_fn, singular_points=sing)


# ============================================================
# canonical fields
# ============================================================


def make_bubble(params: ProblemParams, center=None, mu: float = 1.0) -> Field:
    """The explicit bubble c_n (1 + mu^2 |x - x0|^2)^(-(n-2)/2).

    The amplitude is the sharp-constant c_n(alpha) of ``sharp_constants``.
    """
    if not (0.0 < mu < math.inf):
        raise SamplingError(f"bubble scale mu must be positive and finite, got {mu}")
    nu = params.nu
    amp = sharp_constants(params).c_n

    def radial_fn(r):
        return amp * (1.0 + (mu * np.asarray(r)) ** 2) ** (-nu)

    return Field.radial(params.n, radial_fn, center=center, singular_center=False)


def make_hls_extremal(params: ProblemParams, mu: float = 1.0) -> Field:
    """Extremal (mu/(mu^2 + |x|^2))^((n+alpha)/2) of the Riesz bilinear inequality."""
    if not (0.0 < mu < math.inf):
        raise SamplingError(f"extremal scale mu must be positive and finite, got {mu}")
    expo = (params.n + params.alpha) / 2.0

    def radial_fn(r):
        # mu / (mu^2 + r^2), with no mu^2 to overflow
        return (1.0 / (mu * (1.0 + (np.asarray(r) / mu) ** 2))) ** expo

    return Field.radial(params.n, radial_fn, singular_center=False)


def make_singular_power(params: ProblemParams) -> Field:
    """The singular power field |x|^e, e = -(n-2)/2 (the cylinder constant's shadow)."""
    e = -params.nu

    def radial_fn(r):
        return np.asarray(r, dtype=float) ** e

    return Field.radial(params.n, radial_fn, center=None, singular_center=True)


# ============================================================
# sampling
# ============================================================


def sample_radial(field: Field, grid: RadialGrid) -> RadialProfile:
    """A radial field's exact radial callable on grid, as a RadialProfile.

    A field not radial about the origin is refused: a profile is radial
    about 0.  Tail exponents are estimated from the sampled end decades.
    """
    if not _radial_about(field, np.zeros(field.n)):
        raise SamplingError("sample_radial wants a radial field about the origin")
    prof = RadialProfile(grid, np.asarray(field.radial_fn(grid.r), dtype=float))
    return prof.with_exponents(*prof.estimate_exponents())


# ============================================================
# sphere quadrature (n = 3, 4, 5)
# ============================================================

def sphere_quadrature(n: int):
    """Product Gauss nodes and weights on the unit sphere S^(n-1) in R^n.

    Exact for polynomials of total degree <= 20.  Weights sum to
    omega(n-1).  Supported for n in {3, 4, 5}; anything larger is outside
    this toolkit's scope by design and raises.
    """
    if n not in (3, 4, 5):
        raise UnsupportedDimensionError(
            f"sphere quadrature implemented for n in {{3, 4, 5}}, got n={n}")
    return _sphere_rule(n, 20)


def _gauss_jacobi(m: int, a: float):
    """The m-point Gauss rule for the weight (1 - t^2)^a on [-1, 1], symmetrized.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix, off-diagonal sqrt(k (k + 2a) / ((2k + 2a)^2 - 1)),
    each weight mu_0 times the squared first component of its eigenvector.
    """
    k = np.arange(1.0, m)
    off = np.sqrt(k * (k + 2.0 * a) / ((2.0 * k + 2.0 * a) ** 2 - 1.0))
    t, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (2.0 * a + 1.0) * math.gamma(a + 1.0) ** 2 / math.gamma(2.0 * a + 2.0)
    w = mu0 * vec[0] ** 2
    return 0.5 * (t - t[::-1]), 0.5 * (w + w[::-1])


@lru_cache(maxsize=CACHE_SIZE)
def _sphere_rule(n: int, order: int):
    if n == 2:
        m = max(order + 1, 4)
        phi = 2.0 * np.pi * np.arange(m) / m
        return np.column_stack([np.cos(phi), np.sin(phi)]), np.full(m, 2.0 * np.pi / m)
    m_t = max((order + 2) // 2, 2)
    a = (n - 3) / 2.0
    t, w_t = _gauss_jacobi(m_t, a)
    sub_nodes, sub_w = _sphere_rule(n - 1, order)
    s = np.sqrt(1.0 - t ** 2)
    nodes = np.empty((m_t * len(sub_nodes), n))
    weights = np.empty(m_t * len(sub_nodes))
    for i in range(m_t):
        block = slice(i * len(sub_nodes), (i + 1) * len(sub_nodes))
        nodes[block, 0] = t[i]
        nodes[block, 1:] = s[i] * sub_nodes
        weights[block] = w_t[i] * sub_w
    return nodes, weights


def _radial_about(field: Field, c: np.ndarray) -> bool:
    """Whether field is radial about the point c, so that its radial_fn serves there."""
    return field.radial_fn is not None and np.array_equal(field.center, c)


def sphere_values(field: Field, radii, center, nodes) -> np.ndarray:
    """The field at center + r_i nodes, a row per radius: every sphere scan's one route.

    A field radial about center (the origin by default) broadcasts its exact
    radial_fn(r_i) across row i; any other is evaluated, one call per chunk of about 1 MB.
    """
    r = np.asarray(radii, dtype=float)
    c = np.zeros(field.n) if center is None else np.asarray(center, dtype=float)
    if _radial_about(field, c):
        return np.broadcast_to(np.asarray(field.radial_fn(r), dtype=float)[:, None],
                               (r.size, len(nodes)))
    chunk = max(1, 2 ** 17 // nodes.size)   # 2^17 coordinates of 8 bytes
    return np.concatenate([field((c + r[i:i + chunk, None, None] * nodes).reshape(-1, field.n))
                           for i in range(0, r.size, chunk)]).reshape(r.size, -1)


def spherical_average(field: Field, r: float, center=None) -> float:
    """Mean of the field over the sphere of radius r about `center`.

    Product Gauss quadrature, exact for polynomial integrands of degree
    <= 20; the mean is the integral divided by omega(n-1).
    """
    if not (0.0 < r < math.inf):
        raise SamplingError(f"sphere radius must be positive and finite, got {r}")
    nodes, weights = sphere_quadrature(field.n)
    return float(np.dot(weights, sphere_values(field, [r], center, nodes)[0]) / omega(field.n - 1))
