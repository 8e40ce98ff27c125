"""Numerical toolkit for the explicit objects of a critical Hartree-type equation.

The library computes and cross-checks everything that is explicit about

    -Lap u = (|x|^(alpha-n) * F(u)) f(u)   on R^n,   0 < alpha < n,

at the critical exponent p = (n + alpha)/(n - 2): sharp constants, the
bubble solutions and their residuals, radial Riesz convolutions, the
log-cylindrical (Emden-Fowler) reduction with its nonlocal kernel and
Delaunay-type periodic orbits, Kelvin transforms and moving-spheres
comparisons, and asymptotic predicates near an isolated singularity.
The `hartreelab` console script fronts the same functionality.

The package import is lazy (PEP 562): ``hartreelab.X`` imports X's home
module on first use, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": ("AsymptoticsReport", "BlowupFrame", "ProfileFit",
                    "SymmetryRatio", "UpperBoundScan", "asymptotics_report",
                    "blowup_rescale", "default_radii", "profile_fit",
                    "symmetry_ratio", "upper_bound_scan"),
    "constants": ("SharpConstants", "k_identity_defect", "newton_constant",
                  "omega", "sharp_constants"),
    "cylinder": ("CylinderProfile", "DelaunaySolution", "KernelTable",
                 "constant_solution", "cylinder_convolution",
                 "dispersion_function", "dispersion_root", "find_delaunay",
                 "kernel_table", "ode_residual", "to_cylinder"),
    "errors": ("AccuracyError", "ConvergenceError", "GridError",
               "HartreelabError", "IntegrabilityError", "ParameterDomainError",
               "ParameterRangeError", "SamplingError",
               "UnsupportedDimensionError"),
    "fields": ("Field", "RadialGrid", "RadialProfile", "make_bubble",
               "make_hls_extremal", "make_singular_power", "sample_radial",
               "sphere_quadrature", "spherical_average"),
    "kernel": ("angular_kernel", "kernel_hat"),
    "params": ("ProblemParams",),
    "riesz": ("AngularKernelSpec", "BilinearCheck", "CfCalibration",
              "NonlinearitySpec", "ResidualReport", "calibrate_cf",
              "default_grid", "hartree_potential", "hartree_rhs", "hls_ratio",
              "nonlinearity_for", "residual", "riesz_convolve"),
    "spheres": ("BubbleImage", "ComparisonReport", "CriticalRadiusValue",
                "EqualityFit", "SphereInversion", "TestSetSpec", "bubble_image",
                "comparison_deficit", "comparison_kernel", "critical_radius",
                "equality_fit", "fd_laplacian", "invert_point", "kelvin_transform"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # looked up on every access, never stored in globals(): a name rebound in
    # its home module (a tracer's wrapper, say) reads the same here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
