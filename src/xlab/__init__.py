"""Christoffel functions on curves with jump-discontinuous weights.

The package computes lambda_n(mu, z) for measures on intervals, circles,
ellipses and polynomial lemniscates, together with the equilibrium-measure
densities that enter the asymptotic law n lambda_n -> jump_factor / density
at a jump point of the weight.
"""

from .christoffel import (ChristoffelValue, OrthoBasis, christoffel_lambda,
                          extremal_polynomial_values, kernel_prefix,
                          orthonormalize)
from .equilibrium import density_profile, equilibrium_density, green_potential
from .errors import (CapabilityError, DegeneracyError, DomainError,
                     GeometryError, InputError, MeasureFormatError,
                     NumericError, SymmetryError, TracingError,
                     XlabError)
from .geometry import (ArcParametrization, ComplexPolynomial, SupportSpec,
                       arc_length, parametrize, preimages,
                       project_to_support, trace_lemniscate)
from .measures import (JumpWeight, MeasureSpec, SmoothFactor,
                       circle_jump_measure, density_at, ellipse_jump_measure,
                       format_measure, interval_jump_measure, jump_limits,
                       lemniscate_pullback_measure, load_measure_file,
                       parse_measure_text, pullback_to_lemniscate,
                       save_measure_file, symmetrize_to_interval,
                       uniform_circle_measure, weight_at)
from .quadrature import QuadratureRule, build_rule, integrate
from .suites import (SUITE_NAMES, CheckResult, SuiteReport,
                     standard_jump_measures, verify)
from .sweep import (SWEEP_CSV_HEADER, FitModel, SweepResult, SweepRow,
                    extrapolate, format_sweep_csv, geometric_schedule,
                    jump_factor, predicted_limit, run_sweep, write_sweep_csv)

__version__ = "0.1.0"

__all__ = [
    "ArcParametrization", "CapabilityError", "CheckResult",
    "ChristoffelValue", "ComplexPolynomial", "DegeneracyError",
    "DomainError", "FitModel", "GeometryError", "InputError", "JumpWeight",
    "MeasureFormatError", "MeasureSpec",
    "NumericError", "OrthoBasis", "QuadratureRule", "SUITE_NAMES",
    "SWEEP_CSV_HEADER", "SmoothFactor", "SuiteReport", "SupportSpec",
    "SweepResult", "SweepRow", "SymmetryError", "TracingError",
    "XlabError", "arc_length", "build_rule", "christoffel_lambda",
    "circle_jump_measure", "density_at", "density_profile",
    "ellipse_jump_measure", "equilibrium_density", "extrapolate",
    "extremal_polynomial_values", "format_measure", "format_sweep_csv",
    "geometric_schedule", "green_potential", "integrate",
    "interval_jump_measure", "jump_factor", "jump_limits", "kernel_prefix",
    "lemniscate_pullback_measure", "load_measure_file", "orthonormalize",
    "parametrize", "parse_measure_text",
    "predicted_limit", "preimages", "project_to_support",
    "pullback_to_lemniscate", "run_sweep", "save_measure_file",
    "standard_jump_measures", "symmetrize_to_interval", "trace_lemniscate",
    "uniform_circle_measure", "verify", "weight_at", "write_sweep_csv",
]
