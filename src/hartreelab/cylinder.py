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

Khat is the radial angular kernel in log coordinates, Khat(t) =
(r s)^((n-alpha)/2) k_alpha(r, s) at t = ln(r/s), and the ``kernel``
module samples both by quadrature.  No solver does: Khat's Fourier
transform, and with it the L1 norm, is a closed-form Gamma ratio, the same
symbol the radial module's Riesz convolution multiplies by.

On uniform t-grids this module owns the discrete convolution and the ODE
residual, both by Fourier symbols, Khat^(w) and -w^2: on a period at w =
2 pi k / L; on the line by the radial module's padded FFT convolution,
untilted, and a window continued by e^{-nu|t|}.  Both are spectrally
accurate for analytic profiles (Trefethen and Weideman, SIAM Review 56,
2014).  It
also owns the constant solution, its dispersion relation, and a finder
that traces the even periodic (Delaunay) branch on a coarse grid with dense
Jacobians, then polishes the prolonged orbit on the fine one matrix-free.
A profile is its own spectrum: between its nodes it is the trigonometric
interpolant that these symbols act on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.fft import irfft, rfft
from numpy.linalg import LinAlgError, solve

from .errors import GridError, ParameterRangeError, SamplingError
from .fields import Field, _radial_about
from .params import CACHE_SIZE, ProblemParams
from .riesz import _DIGITS, NonlinearitySpec, _khat_convolve, _khat_fourier, _next_fast_len

_COARSE_NODES = 64   # the Delaunay branch is traced here; finer grids only polish
_NEWTON_ITERATIONS = 8   # a Newton solve not done by then ends unconverged

# ============================================================
# cylinder profiles
# ============================================================


@dataclass(frozen=True)
class CylinderProfile:
    """Values on a uniform t-grid: decaying on the line, or periodic.

    Decaying profiles promise |U| <= 1e-8 at both grid ends (so that
    zero-extension beyond the grid is harmless in convolutions); a periodic
    profile covers one period, nodes at t_0 + j h for j = 0..N-1, and its
    period is its span N h.  Between its nodes a profile is its
    trigonometric interpolant over the span N h: periodic, or reading 0
    beyond the grid for a decaying one.
    """

    t: np.ndarray
    values: np.ndarray
    periodic: bool = False

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
        if not self.periodic:
            end = max(abs(v[0]), abs(v[-1]))
            if end > 1e-8:
                raise GridError(
                    f"decaying profiles must be below 1e-8 at the grid ends, got {end:.3e}; "
                    "widen the t-range")

    @property
    def spacing(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def span(self) -> float:
        """N h: the period of a periodic profile."""
        return self.t.size * self.spacing

    def __call__(self, tq):
        """The trigonometric interpolant of the nodes, by Horner in e^{2 pi i (t - t_0)/span}."""
        tq = np.asarray(tq, dtype=float)
        c = _spectrum(self.values) / self.t.size
        z = np.exp(2j * math.pi / self.span * (tq - self.t[0]))
        # real nodes: U = c_0 + 2 Re sum_{k >= 1} c_k z^k
        out = 2.0 * np.polyval(c[::-1], z).real - c[0].real
        if not self.periodic:
            out = np.where((tq >= self.t[0]) & (tq <= self.t[-1]), out, 0.0)
        return out if out.ndim else float(out)


def _spectrum(values: np.ndarray) -> np.ndarray:
    """The trigonometric interpolant's rfft: an even count's Nyquist bin holds +-N/2, half each."""
    spectrum = rfft(values)
    if values.size % 2 == 0:
        spectrum[-1] *= 0.5
    return spectrum


def to_cylinder(u: Field, params: ProblemParams, *, spacing: float = 0.01) -> CylinderProfile:
    """U(t) = r^((n-2)/2) u(r) at r = e^{-t}, sampled on a uniform t-grid.

    ``u`` is a radial Field about the origin, whose exact radial callable
    is sampled; a RadialProfile has no values between its nodes, so it is
    refused.  The t-range is chosen so the decaying-end contract (|U| <=
    1e-8) holds.
    """
    nu = params.nu
    if not (0.0 < spacing < math.inf):
        raise GridError(f"cylinder spacing must be positive and finite, got {spacing}")
    if not isinstance(u, Field):
        raise SamplingError(f"cannot map {type(u).__name__} to the cylinder")
    if not _radial_about(u, np.zeros(u.n)):
        raise SamplingError("to_cylinder wants a radial field about the origin")
    ufun = lambda r: np.asarray(u.radial_fn(r), dtype=float)
    amp = float(ufun(np.array([1.0]))[0])

    # U ~ amp 2^nu e^{-nu|t|} for bubble-like decay: pad to reach 1e-9
    t_max = (math.log(max(amp, 1e-3)) + 9.5 * math.log(10.0)) / nu + 2.0
    t_max = min(max(t_max, 12.0), 300.0)
    m = int(math.ceil(t_max / spacing))
    t = np.arange(-m, m + 1, dtype=float) * spacing
    r = np.exp(-t)
    vals = r ** nu * ufun(r)
    return CylinderProfile(t, vals)


# ============================================================
# kernel table
# ============================================================


@dataclass(frozen=True)
class KernelTable:
    """The (n, alpha) of a kernel, as ``dispersion_root`` and ``find_delaunay`` accept it.

    Those two read Khat from their params and only check that a table
    passed with them carries the same pair.
    """

    n: int
    alpha: float


def kernel_table(params: ProblemParams) -> KernelTable:
    """The table of params' (n, alpha)."""
    return KernelTable(params.n, params.alpha)


def _check_table(params: ProblemParams, table) -> None:
    """Refuse a kernel table whose (n, alpha) is not params'."""
    if table is not None and (table.n, table.alpha) != (params.n, params.alpha):
        raise ValueError(f"{table} does not match {params}")


# ============================================================
# discrete convolution and the ODE residual
# ============================================================


def _frequencies(L: float, n_nodes: int) -> np.ndarray:
    """The rfft frequencies w_k = 2 pi k / L, k = 0..n_nodes // 2, of an L-periodic grid."""
    return 2.0 * math.pi / L * np.arange(n_nodes // 2 + 1)


def cylinder_convolution(g: np.ndarray, params: ProblemParams, h: float,
                         periodic: bool) -> np.ndarray:
    """(Khat * g) on the uniform grid carrying g, on the line or periodic.

    Both multiply an rfft of g by Khat's closed-form symbol.  On the line
    g is zero-extended beyond the grid (callers owe the decaying-end
    contract): it is the padded FFT convolution ``riesz_convolve`` runs per
    tilt, here untilted.  Periodic g is one period, L = g.size h, and takes
    the symbol at w = 2 pi k / L.
    """
    m = g.size
    if periodic:
        symbol = _khat_fourier(params.n, params.alpha, _frequencies(m * h, m))
        return irfft(symbol * rfft(g), m)
    return _khat_convolve(g, h * np.arange(m), h, params.n, params.alpha)


def ode_residual(U: CylinderProfile, params: ProblemParams, nl: NonlinearitySpec):
    """Residual of -U'' + nu^2 U = (Khat * F(U)) f(U) and its relative L2 norm.

    U'' is the symbol -w^2 by one rfft pair, on the period itself (the
    operator the Delaunay finder solves with) or, for a decaying profile,
    on a line window continuing U from its end values by e^{-nu|t|}, the
    decay of the linear part, until it has fallen by another 1e-17.  Both
    equation sides cancel exponentially where U decays, so the norm is
    normalized by the pointwise term scale |U''| + nu^2 |U| + |rhs|; the
    return is (residual values at U's nodes, relative L2 norm over the grid).
    """
    nu = params.nu
    h, v = U.spacing, U.values
    size = v.size if U.periodic else _next_fast_len(v.size + 2 * math.ceil(_DIGITS / nu / h))
    left = (size - v.size) // 2
    decay = np.exp(-nu * h * np.arange(1, size - v.size - left + 1))
    window = np.concatenate([v[0] * decay[:left][::-1], v, v[-1] * decay])
    # as in _HalfGridSystem.residual, the mean skips the FFT
    d2 = irfft(-_frequencies(size * h, size) ** 2 * rfft(window - window.mean()),
               size)[left:left + v.size]
    rhs = cylinder_convolution(nl.F(v), params, h, U.periodic) * nl.f(v)
    res = -d2 + nu * nu * v - rhs
    scale = np.abs(d2) + nu * nu * np.abs(v) + np.abs(rhs)
    return res, math.sqrt(float(np.sum(res ** 2)) / float(np.sum(scale ** 2)))


# ============================================================
# constant solution and dispersion
# ============================================================


def constant_solution(params: ProblemParams, nl: NonlinearitySpec) -> float:
    """U_c solving nu^2 U = c_f |Khat|_1 U^{2p-1} (the balance equation)."""
    nu2 = params.nu ** 2
    norm_l1 = float(_khat_fourier(params.n, params.alpha, 0.0))
    return (nu2 / (nl.c_f * norm_l1)) ** (1.0 / (2.0 * nl.p - 2.0))


def dispersion_function(params: ProblemParams, nl: NonlinearitySpec, w):
    """D(w): the linearization of the ODE at U_c acting on e^{i w t}, for scalar or array w.

    D(w) = w^2 + nu^2 [2 - p - p Khat^(w)/|Khat|_1], with Khat^ in closed
    form.  Khat^ strictly decreases in |w|, so D strictly increases from
    D(0) = 2 nu^2 (1 - p) < 0 (the balance equation makes the zero mode
    dominate) and D(w) >= w^2 - 2 nu^2 (p - 1); its one positive root w_0
    marks the local bifurcation with period 2 pi / w_0.  Independent of
    c_f: the constant solution absorbs it.
    """
    nu2 = params.nu ** 2
    p = nl.p
    n, alpha = params.n, params.alpha
    norm_l1 = float(_khat_fourier(n, alpha, 0.0))
    return w * w + nu2 * (2.0 - p - p * _khat_fourier(n, alpha, w) / norm_l1)


def dispersion_root(params: ProblemParams, nl: NonlinearitySpec,
                    kt: Optional[KernelTable] = None):
    """(U_c, L_0): the constant solution and its bifurcation period 2 pi / w_0.

    A kernel table whose (n, alpha) is not params' raises ValueError.
    """
    _check_table(params, kt)
    return (constant_solution(params, nl),
            2.0 * math.pi / _bifurcation_frequency(params, nl))


@lru_cache(maxsize=CACHE_SIZE)
def _bifurcation_frequency(params: ProblemParams, nl: NonlinearitySpec) -> float:
    """w_0, the one positive zero of ``dispersion_function``.

    D changes sign on [0, nu sqrt(2 (p - 1))] and strictly increases, so
    each round evaluates it at 33 points of the bracket with one symbol
    call and keeps the cell where it turns positive, until the cell is a
    few ulp wide.
    """
    nu2 = params.nu ** 2
    lo, hi = 0.0, math.sqrt(nu2 * (2.0 * nl.p - 2.0))
    while hi - lo > 1e-15 * hi:
        w = np.linspace(lo, hi, 33)
        d = dispersion_function(params, nl, w)
        k = min(max(int(np.count_nonzero(d <= 0.0)), 1), 32)
        lo, hi = float(w[k - 1]), float(w[k])
    return 0.5 * (lo + hi)


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
    partial_result: bool      # the neck stayed above epsilon_target
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


class _HalfGridSystem:
    """The even-about-0 spectral discretization of one period L, on its half grid.

    The unknowns are U(j h), j = 0..m, with h = L/N and m = N/2; the full
    period is their even reflection.  On the full period -d^2/dt^2 + nu^2
    and Khat * are circulant with the symbols a^_k = w_k^2 + nu^2 and c^_k =
    Khat^(w_k), w_k = 2 pi k / L, so the residual and the Jacobian action
    apply each by one rfft/irfft pair.  A Newton step on the trace grid
    solves the dense Jacobian: the circulant with first column c =
    irfft(c^) folds onto the half grid as C[i, j] = c[(i - j) % N] + c[(i +
    j) % N], where columns 0 and m, which have no mirror node, keep only the
    first term; A folds from a^ alike.  The fold is built by the cached
    cosine basis of that identity, (Phi g c^ / N) @ Phi g.  A bordered system
    also holds the symbols' forward differences in L, from the same Khat^
    call, for R_L.  Once ``coarse`` holds the trace grid's folded Jacobian at
    the coarse landing, a step is matrix-free: two-grid sweeps (Hackbusch
    1985) invert a^ on the modes the trace grid cannot carry, coarse the rest.
    """

    coarse = None   # jc, the trace grid's folded Jacobian at the coarse landing

    def __init__(self, params, nl, L, n_nodes, bordered=False):
        if n_nodes % 2:
            raise GridError("find_delaunay wants an even node count")
        if n_nodes < 8:
            raise GridError("find_delaunay needs at least 8 nodes per period")
        if n_nodes > 2048:
            raise ParameterRangeError("the orbits are resolved to rounding far below "
                                      "2048 nodes; 2048 is the ceiling")
        self.nl = nl
        self.N = n_nodes
        self.m = n_nodes // 2
        self.h = L / n_nodes
        w = _frequencies(L, n_nodes)
        self.a_hat = w * w + params.nu ** 2
        if bordered:   # R_L's symbol differences: Khat^ at L + dL in the same call
            dL = 1e-7 * L
            wd = _frequencies(L + dL, n_nodes)
            symbols = _khat_fourier(params.n, params.alpha, np.concatenate([w, wd]))
            self.c_hat, c_next = symbols.reshape(2, -1)
            self.da_hat, self.dc_hat = (wd * wd - w * w) / dL, (c_next - self.c_hat) / dL
        else:
            self.c_hat = _khat_fourier(params.n, params.alpha, w)

    def _fold(self, symbol) -> np.ndarray:
        phi_g = _cosine_basis(self.m)
        return (phi_g * (symbol / self.N)) @ phi_g

    @cached_property
    def A(self) -> np.ndarray:
        """The folded -d^2/dt^2 + nu^2; only the dense Jacobian needs it."""
        return self._fold(self.a_hat)

    @cached_property
    def C(self) -> np.ndarray:
        """The folded convolution matrix; only the dense Jacobian needs it."""
        return self._fold(self.c_hat)

    def _circulant(self, symbol, x):
        """The full-period circulant with this symbol, applied to the even x."""
        return irfft(symbol * rfft(self.full_values(x)), self.N)[:self.m + 1]

    def residual(self, x):
        """(A x - f(x) conv, conv), conv = Khat * F(U) by ode_residual's operator."""
        conv = self._circulant(self.c_hat, self.nl.F(x))
        # the mean goes past the FFT, whose rounding then scales with the
        # oscillation, not the level, before a^ amplifies it by up to (pi/h)^2
        mean = self.full_values(x).mean()
        ax = self._circulant(self.a_hat, x - mean) + self.a_hat[0] * mean
        return ax - self.nl.f(x) * conv, conv

    def residual_l(self, x):
        """R_L by the symbols' differences (bordered only); a^_0 = nu^2 needs no mean split."""
        return (self._circulant(self.da_hat, x)
                - self.nl.f(x) * self._circulant(self.dc_hat, self.nl.F(x)))

    def jacobian(self, x, conv, out=None):
        """A - diag(f(x)) C diag(F'(x)) - diag(f'(x) conv), written into out."""
        J = np.multiply(self.C, -self.nl.f(x)[:, None], out=out)
        J *= self.nl.F_prime(x)
        J += self.A
        J[np.diag_indices(self.m + 1)] -= self.nl.f_prime(x) * conv
        return J

    def _apply(self, x, conv, v):
        """The Jacobian's action on v, by the symbols."""
        return (self._circulant(self.a_hat, v) - self.nl.f_prime(x) * conv * v
                - self.nl.f(x) * self._circulant(self.c_hat, self.nl.F_prime(x) * v))

    def step(self, x, conv, g):
        """The Newton step J^-1 g: dense, or two-grid sweeps once coarse is set."""
        if self.coarse is None:
            return solve(self.jacobian(x, conv), g)
        jc = self.coarse
        k = jc.shape[0] - 1   # the trace grid's m; it has 2k nodes
        # a^ inverts the modes k >= M/2, half the bin at M/2; the coarse
        # Jacobian inverts what they leave on modes 0..M/2
        high_part = np.clip(np.arange(self.m + 1) - k + 0.5, 0.0, 1.0) / self.a_hat
        d, r = 0.0, g
        for _ in range(32):
            high = irfft(high_part * rfft(self.full_values(r)), self.N)[:self.m + 1]
            low = rfft(self.full_values(r - self._apply(x, conv, high)))[:k + 1]
            low[k] = 2.0 * low[k].real   # the modes +-M/2 alias to one coarse bin
            low *= 2 * k / self.N
            d = d + high + _prolong(solve(jc, irfft(low, 2 * k)[:k + 1]), self.N)
            r = g - self._apply(x, conv, d)
            if np.max(np.abs(r)) <= 1e-6 * np.max(np.abs(g)):
                return d
        raise LinAlgError("the two-grid sweeps do not contract")

    def polish(self, x, L, tol, steps):
        """Newton at fixed L from x to max|R| <= tol, logged to steps: (x, converged, max|R|)."""
        x, _, ok, norm, its = _newton(lambda Lq: self, x, L, tol)
        steps.append({"period": L, "nodes": self.N, "neck": float(x[0]),
                      "polish_iterations": its, "converged": ok})
        return x, ok, norm

    def full_values(self, x):
        return np.concatenate([x, x[-2:0:-1]])


@lru_cache(maxsize=CACHE_SIZE)
def _cosine_basis(m: int) -> np.ndarray:
    """Phi g, read-only: Phi[i, k] = cos(pi k i / m), g the rfft weights (1 at k = 0 and m,
    else 2); the even circulant with symbol s folds onto the half grid as (Phi g s / 2m) @ Phi g.
    """
    phi_g = np.cos(np.pi / m * (np.outer(np.arange(m + 1), np.arange(m + 1)) % (2 * m)))
    phi_g[:, 1:m] *= 2.0
    phi_g.flags.writeable = False
    return phi_g


def _prolong(x: np.ndarray, n_nodes: int) -> np.ndarray:
    """The trigonometric interpolant of the even half-grid orbit x, on n_nodes nodes."""
    coarse = np.concatenate([x, x[-2:0:-1]])
    return irfft(_spectrum(coarse), n_nodes)[:n_nodes // 2 + 1] * (n_nodes / coarse.size)


def _newton(build, x, L, tol, border=None):
    """Newton on the folded system R(x, L) = 0 from (x, L).

    At fixed L (border None) the unknowns are x, and the iteration ends one
    full step past max|R| <= tol, so the orbit returned does not depend on
    its seed.  With border = (row, target) L is unknown too, the system is
    closed by row . (x, L) = target, R_L by the symbols' forward differences,
    from the system's own build, and the iteration ends at max|R| <= tol.
    A residual that fails to fall ends it unconverged.  Returns (x, L,
    converged, the last max|R| evaluated, iterations).
    """
    last = math.inf
    for it in range(_NEWTON_ITERATIONS):
        system = build(L)
        g, conv = system.residual(x)
        norm = float(np.max(np.abs(g)))
        if not norm < last or (border is not None and norm <= tol):
            return x, L, norm <= tol, norm, it
        m1 = system.m + 1
        if border is not None:
            row, target = border
            J = np.empty((m1 + 1, m1 + 1))
            system.jacobian(x, conv, out=J[:m1, :m1])
            J[:m1, m1] = system.residual_l(x)
            J[m1] = row
            g = np.append(g, row[:m1] @ x + row[m1] * L - target)
        try:
            step = system.step(x, conv, g) if border is None else solve(J, g)
        except LinAlgError:   # a zero pivot, or sweeps that do not contract
            return x, L, False, norm, it
        x = x - step[:m1]
        if border is not None:
            L = L - step[m1]
        elif norm <= tol:
            g, _ = system.residual(x)
            return x, L, True, float(np.max(np.abs(g))), it + 1
        last = norm
    return x, L, False, last, _NEWTON_ITERATIONS


@lru_cache(maxsize=CACHE_SIZE)
def _coarse_landing(params, nl, L, M, continuation_steps):
    """The even branch traced on M nodes to period L and polished there: (landing, steps).

    U_c loses stability at L_0, where the dispersion function vanishes.  The
    first point is pinned at cosine amplitude -0.06 U_c with L free, which
    fixes the side of L_0 the branch takes; then pseudo-arclength steps
    (Keller 1977) on the secant tangent in (x / U_c, L / L_0), ds grown 1.5x
    after a corrector of at most 2 iterations and halved after a failed one,
    each corrector stopped at max|R| <= 1e-4 max(1, U_c).  The secant point at
    L is polished at fixed L.  landing is (orbit, converged, max|R|, folded
    Jacobian), arrays read-only, or None if L is not reached; steps a tuple.
    """
    uc, Lc = dispersion_root(params, nl)
    coarse = _HalfGridSystem(params, nl, L, M)
    steps: list = []
    m = coarse.m
    # the x part as an RMS, so that ds does not grow with the node count
    scale = np.append(np.full(m + 1, 1.0 / (uc * math.sqrt(m + 1))), 1.0 / Lc)
    cos1 = np.cos(np.pi * np.arange(m + 1) / m)
    pin = np.append(cos1 * (2.0 / m), 0.0)   # trapezoid cosine coefficient
    pin[[0, m]] /= 2.0
    prev, cur = np.append(np.full(m + 1, uc), Lc), None
    ds = 0.0
    for _ in range(continuation_steps):
        if cur is None:
            seed, border = np.append(uc - 0.06 * uc * cos1, Lc), (pin, -0.06 * uc)
        else:
            tangent = (cur - prev) * scale
            tangent /= np.linalg.norm(tangent)
            seed = cur + ds * tangent / scale
            border = (tangent * scale, float(tangent @ (seed * scale)))
        x, Lx, ok, _, its = _newton(
            lambda Lq: _HalfGridSystem(params, nl, Lq, M, bordered=True),
            seed[:-1], seed[-1], 1e-4 * max(1.0, uc), border)
        pinned = ok and cur is None
        if pinned:
            cur = np.append(x, Lx)
            ds = float(np.linalg.norm((cur - prev) * scale))
        elif ok:
            prev, cur = cur, np.append(x, Lx)
        steps.append({"period": float(Lx), "neck": float(x[0]), "ds": ds,
                      "pinned_iterations": its, "converged": ok})
        # no branch, or one that leaves L_0 away from L
        if cur is None or (pinned and (Lx - Lc) * (L - Lc) < 0.0):
            break
        if not ok:
            ds /= 2.0
            continue
        if its <= 2:
            ds *= 1.5
        if (prev[-1] - L) * (cur[-1] - L) <= 0.0:
            w = (L - prev[-1]) / (cur[-1] - prev[-1])
            tol = 1e-12 * (4.0 / coarse.h ** 2) * max(1.0, uc)
            x, ok, norm = coarse.polish(prev[:-1] + w * (cur[:-1] - prev[:-1]), L, tol, steps)
            jc = coarse.jacobian(x, coarse.residual(x)[1])
            x.flags.writeable = jc.flags.writeable = False
            return (x, ok, norm, jc), tuple(steps)
    return None, tuple(steps)


def find_delaunay(params: ProblemParams, nl: NonlinearitySpec,
                  epsilon_target: float, L: float, continuation_steps: int = 40,
                  *, kt: Optional[KernelTable] = None,
                  n_nodes: int = 512) -> DelaunaySolution:
    """Trace the even periodic branch from its bifurcation to period L.

    ``_coarse_landing`` lands it on M = min(n_nodes, _COARSE_NODES) nodes once
    per (params, nl, L, M, continuation_steps); each call prolongs that
    orbit to n_nodes and polishes it there matrix-free, to max|R| <= 1e-12
    (4 / h^2) max(1, U_c).  converged needs min U > 0; epsilon_target only
    sets partial_result (the neck stayed above it).  With no orbit at L the
    constant is returned, converged=False and partial_result=True.  A kernel
    table whose (n, alpha) is not params' raises ValueError before any work.
    """
    _check_table(params, kt)
    L = float(L)
    if not 0.0 < L < math.inf:
        raise ParameterRangeError(f"the period must be positive and finite, got {L}")
    if not math.isfinite(epsilon_target):
        raise ParameterRangeError(f"epsilon_target must be finite, got {epsilon_target}")
    steps_ok = isinstance(continuation_steps, (int, np.integer)) and continuation_steps >= 1
    if not steps_ok or isinstance(continuation_steps, bool):
        raise ParameterRangeError(
            f"need a whole number of continuation steps, at least one; got {continuation_steps!r}")
    uc = constant_solution(params, nl)
    if epsilon_target > uc * (1.0 + 1e-9):
        raise ParameterRangeError(
            f"epsilon_target {epsilon_target} exceeds the constant solution {uc}")

    system = _HalfGridSystem(params, nl, L, n_nodes)
    tol = 1e-12 * (4.0 / system.h ** 2) * max(1.0, uc)

    def make_solution(x, converged, norm_inf, steps, partial):
        full = system.full_values(x)
        prof = CylinderProfile(system.h * np.arange(system.N), full, periodic=True)
        _, rel = ode_residual(prof, params, nl)
        amp = float(full.max() - full.min())
        return DelaunaySolution(
            n=params.n, alpha=params.alpha, c_f=nl.c_f, period=L,
            epsilon=float(x[0]), u_c=uc, profile=prof, residual_norm=rel,
            residual_inf=norm_inf, amplitude=amp,
            converged=converged and bool(full.min() > 0.0),
            nontrivial=bool(amp > 1e-5 * uc), partial_result=partial,
            solver_tol=tol, steps=steps)

    const = np.full(system.m + 1, uc)
    if epsilon_target >= uc * (1.0 - 1e-9):
        return make_solution(const, True, 0.0, [], False)
    M = min(n_nodes, _COARSE_NODES)
    landing, trace_steps = _coarse_landing(params, nl, L, M, continuation_steps)
    steps = [dict(s) for s in trace_steps]
    if landing is None:   # no orbit at L: report the constant, flag the shortfall
        return make_solution(const, False, float("nan"), steps, True)
    x, ok, norm, system.coarse = landing
    if M < n_nodes:
        x, ok, norm = system.polish(_prolong(x, n_nodes), L, tol, steps)
    return make_solution(x, ok, norm, steps, bool(x[0] > epsilon_target * (1.0 + 1e-6)))
