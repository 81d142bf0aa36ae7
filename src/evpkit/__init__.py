"""Finite vector-optimization instances over polyhedral cones: order tests,
a constructive minimal-point engine, certified variational-principle
solvers, Gerstewitz scalarization, and Pareto minima."""

from .errors import (EvpkitError, HypothesisError, InputError,
                     LinearProgramError, PremiseError)
from .geometry import (DEFAULT_TOL, LinearFunctional, PolyhedralCone,
                       Polytope, cone, cone_contains, lp_feasible,
                       minkowski_member, orthant, polytope_contains,
                       singleton, strictly_positive_functional)
from .scalarize import (GerstewitzFn, ShiftedGerstewitz, gz_bisect_oracle,
                        gz_value)
from .instances import (EvpParams, ExtensionalFamily, FiniteInstance,
                        MetricSpace, OpenPolytopeFamily, PolytopeDirection,
                        QuasiMetric, QuasiMetricDirection, SetValuedMap,
                        SingletonDirection, check_assumptions,
                        d_bounded_certificate, epi_closed_probe,
                        eps_h_efficient, metric_from_coordinates, preceq,
                        relation_matrix, slm_probe, ti_check)
from .engine import EngineTrace, PreorderOracle, solve
from .solvers import (Certificate, Conclusion, EvpCertificate,
                      solve_evp_approx, solve_evp_direction,
                      solve_evp_general, solve_evp_quasimetric,
                      solve_evp_set_direction)
from .product import (FMap, ProductCertificate, ProductInstance,
                      domination_check, fmap_from_rate, pareto_min, prec_f,
                      prec_fstar, solve_minimal_point, solve_pareto_evp,
                      solve_strict_minimal, strict_pareto_min, validate_fmap,
                      zeta)
from .io import InstanceBundle, Report, builtin, generate, load_validate

__version__ = "0.1.0"
