"""Numerical toolkit for the explicit objects of a critical Hartree-type equation.

The library computes and cross-checks everything that is explicit about

    -Lap u = (|x|^(alpha-n) * F(u)) f(u)   on R^n,   0 < alpha < n,

at the critical exponent p = (n + alpha)/(n - 2): sharp constants, the
bubble solutions and their residuals, radial Riesz convolutions, the
log-cylindrical (Emden-Fowler) reduction with its nonlocal kernel and
Delaunay-type periodic orbits, Kelvin transforms and moving-spheres
comparisons, and asymptotic predicates near an isolated singularity.
The `hartreelab` console script fronts the same functionality.
"""

from .asymptotics import (AsymptoticsReport, BlowupFrame, ProfileFit,
                          SymmetryRatio, UpperBoundScan, asymptotics_report,
                          blowup_rescale, default_radii, profile_fit,
                          symmetry_ratio, upper_bound_scan)
from .constants import (SharpConstants, k_identity_defect, newton_constant,
                        omega, sharp_constants, unit_ball_volume)
from .cylinder import (CylinderProfile, DelaunaySolution, KernelTable,
                       constant_solution, cylinder_convolution,
                       dispersion_function, dispersion_root, find_delaunay,
                       from_cylinder, kernel_hat, kernel_table, ode_residual,
                       to_cylinder)
from .errors import (AccuracyError, ConvergenceError, GridError,
                     HartreelabError, IntegrabilityError, ParameterDomainError,
                     ParameterRangeError, SamplingError,
                     UnsupportedDimensionError)
from .fields import (Field, RadialGrid, RadialProfile, make_bubble,
                     make_hls_extremal, make_singular_power, sample_radial,
                     sphere_quadrature, spherical_average)
from .params import ProblemParams
from .riesz import (AngularKernelSpec, BilinearCheck, CfCalibration,
                    NonlinearitySpec, ResidualReport, angular_kernel,
                    calibrate_cf, default_grid, hartree_potential, hartree_rhs,
                    hls_ratio, nonlinearity_for, residual, riesz_convolve)
from .spheres import (BubbleImage, ComparisonReport, CriticalRadiusValue,
                      EqualityFit, SphereInversion, TestSetSpec, bubble_image,
                      comparison_deficit, comparison_kernel, critical_radius,
                      deficit_test_set, equality_fit, fd_laplacian,
                      invert_point, kelvin_transform, kernel_k2, kernel_kalpha)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "AngularKernelSpec", "AsymptoticsReport", "BilinearCheck",
    "BlowupFrame", "BubbleImage", "CfCalibration", "ComparisonReport",
    "ConvergenceError", "CriticalRadiusValue", "CylinderProfile",
    "DelaunaySolution", "EqualityFit", "Field", "GridError", "HartreelabError",
    "IntegrabilityError", "KernelTable", "NonlinearitySpec",
    "ParameterDomainError", "ParameterRangeError", "ProblemParams",
    "ProfileFit", "RadialGrid", "RadialProfile", "ResidualReport",
    "SamplingError", "SharpConstants", "SphereInversion", "SymmetryRatio",
    "TestSetSpec", "UnsupportedDimensionError", "UpperBoundScan",
    "angular_kernel", "asymptotics_report", "blowup_rescale", "bubble_image",
    "calibrate_cf", "comparison_deficit", "comparison_kernel",
    "constant_solution", "critical_radius",
    "cylinder_convolution", "default_grid", "default_radii",
    "deficit_test_set", "dispersion_function", "dispersion_root",
    "equality_fit", "fd_laplacian", "find_delaunay", "from_cylinder",
    "hartree_potential", "hartree_rhs", "hls_ratio", "invert_point",
    "k_identity_defect", "kelvin_transform", "kernel_hat", "kernel_k2",
    "kernel_kalpha", "kernel_table", "make_bubble", "make_hls_extremal",
    "make_singular_power", "newton_constant", "nonlinearity_for",
    "ode_residual", "omega", "profile_fit", "residual", "riesz_convolve",
    "sample_radial",
    "sharp_constants", "sphere_quadrature", "spherical_average",
    "symmetry_ratio", "to_cylinder", "unit_ball_volume", "upper_bound_scan",
]
