"""Operator roots of an analytically continued Schur complement.

A 2x2 block operator matrix couples multiplication by the independent
variable on a vector-valued interval space to a finite Hermitian matrix.
This package continues the Schur complement of the multiplication block
through the interval along a contour, solves the fixed-point equation for
the operator root on each unphysical sheet, classifies the resulting
spectrum (real points, resonances, genuine complex eigenvalues),
constructs the angular operators solving the associated Riccati equation,
and cross-checks every operator identity by independent quadrature.
"""

from ._kernels import backend_name
from .contour import (AdmissibilityReport, Contour, admissibility,
                      admissibility_at, distance_to_sigma1, make_contour,
                      optimize_r0, variation)
from .errors import (AdmissibilityError, ConfigError, ModelError,
                     NumericsError, SchurRootsError)
from .friedrichs import FriedrichsParams, closed_m1, oracle_solution, solve_y
from .model import (MatrixPolynomial, SpectralModel, build_model,
                    check_semibounded_density, kprime_of)
from .riccati import (OmegaOperator, OneInSpectrumVerdict, RiccatiSolution,
                      check_ZAY, check_one_in_spectrum, compute_Omega,
                      compute_Y, factor_F1, j_orthogonality,
                      omega_by_deformation, rational_trials,
                      reconstruct_from_contour, riccati_residual, ysn_integral)
from .rootsolver import (ClassifiedEigenvalue, RootSolution,
                         SpectrumClassification, classify, homotopy_path,
                         solve_basic, transformator)
from .schur import (m1_continued, m1_continued_many, m1_physical, sheets_value,
                    w1_boundary, w1_physical)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "AdmissibilityReport", "ClassifiedEigenvalue",
    "ConfigError", "Contour", "FriedrichsParams", "MatrixPolynomial",
    "ModelError", "NumericsError", "OmegaOperator", "OneInSpectrumVerdict",
    "RiccatiSolution", "RootSolution", "SchurRootsError", "SpectralModel",
    "SpectrumClassification", "admissibility", "admissibility_at",
    "backend_name", "build_model",
    "check_ZAY", "check_one_in_spectrum", "check_semibounded_density",
    "classify", "closed_m1", "compute_Omega", "compute_Y",
    "distance_to_sigma1", "factor_F1", "homotopy_path", "j_orthogonality",
    "kprime_of", "m1_continued", "m1_continued_many", "m1_physical",
    "make_contour", "omega_by_deformation", "optimize_r0", "oracle_solution",
    "rational_trials", "reconstruct_from_contour", "riccati_residual",
    "sheets_value", "solve_basic", "solve_y", "transformator", "variation",
    "w1_boundary", "w1_physical", "ysn_integral",
]
