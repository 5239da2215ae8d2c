"""Exact q-series arithmetic, Wronskians of modular forms, symmetric-power
differential operators, and supersingular polynomials."""

import types

from .qseries import QSeries, first_mismatch, DEFAULT_PREC, LATTICE_CAP
from .poly import Poly
from .etaprod import ProductSpec, eta, named_series, product_series
from .modpoly import (DivisorData, MFPoly, E4, E6, DELTA, G4, G6, bernoulli,
                      decompose, dim_modular, divisor_polynomial, eisenstein,
                      identify, InsufficientPrecision, NotIdentifiable,
                      theta_derivation, theta_h, to_qseries)
from .wronskian import (VanishingReport, echelonize, identify_quotient,
                        normalize, quotient_form, vanishing_check, wronskian,
                        wronskian_derived, wronskians)
from .symmpow import (SymWronskianMismatch, SymWronskianReport, apply,
                      d_operator, kz_coeff, r12_vanishing_roots, r_recursion,
                      sym_basis, sym_quotient_closed_form, sym_wronskian_check)
from .ssing import (CongruenceReport, SupersingularReport,
                    congruence_constant_check, epsilon_factors, hasse_oracle,
                    legendre_symbol, linear_quadratic_split, ss_poly_deligne,
                    ss_poly_wronskian, ss_tilde, supersingular_report)
from .partitions import (ColorSpec, RecurrenceReport, colored_count,
                         pab_count, verify_recurrences)
from .cli import VerificationReport, run_all, verify

__version__ = "0.1.0"

# every name imported above except the submodules, and the version
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__.append("__version__")
