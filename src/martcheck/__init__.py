"""Exact and Monte Carlo verification of martingale moment inequalities.

Three layers:

* ptree / ineq: finite filtered probability trees with an exact L^p
  calculus, plus the discrete inequality evaluators built on it.
* wiener_mc: seeded Monte Carlo for the continuous (stochastic integral)
  counterparts, with confidence-interval verdicts.
* sharpness: parametric searches that probe how tight the constants are.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError, DomainError, InvalidTreeError, LevelRangeError, MartcheckError,
    PreconditionError, QuadratureError, ResourceLimitError, TreeStructureError,
)
from .ptree import (
    Forest, ProbTree, ValidationResult, Violation, increment_lp_sum, lp_norm, moments,
    quadratic_sum_norm, random_forest, random_tree, sup_lp_norm, symmetric_walk,
)
from .ineq import (
    DISCRETE_EVAL_IDS,
    ConstantComparison,
    ContinuousId,
    InequalityId,
    InequalityReport,
    ReportTable,
    TaylorBound,
    adaptive_panel_quadrature,
    compare_constants,
    eval_discrete,
    eval_rio_step,
    eval_tree,
    sweep_random_trees,
    taylor_pointwise,
)
from .sharpness import (
    FamilySpec,
    SearchConfig,
    SearchResult,
    asym_two_point_gain,
    asymptotic_gain_probe,
    family_ratio,
    rio_gain,
    search,
)
from .wiener_mc import (
    IntegrandSpec,
    Rule,
    RuleEntry,
    WienerBatch,
    constant_integrand,
    eval_continuous,
    gaussian_abs_moment,
    simulate,
)
from .formats import (
    csv_row,
    integrand_to_obj,
    parse_integrand,
    parse_search,
    parse_tree,
    report_row,
    search_result_to_obj,
    search_to_obj,
    table_text,
    tree_to_obj,
)

__all__ = [
    "__version__",
    "MartcheckError", "DomainError", "TreeStructureError", "InvalidTreeError",
    "LevelRangeError", "PreconditionError", "QuadratureError",
    "ResourceLimitError", "ConfigError",
    "ProbTree", "Forest", "Violation",
    "ValidationResult", "moments",
    "lp_norm", "sup_lp_norm", "quadratic_sum_norm",
    "increment_lp_sum", "random_tree", "random_forest", "symmetric_walk",
    "InequalityId", "DISCRETE_EVAL_IDS", "InequalityReport", "ReportTable",
    "TaylorBound",
    "ConstantComparison", "eval_discrete", "eval_tree", "eval_rio_step",
    "taylor_pointwise", "adaptive_panel_quadrature",
    "compare_constants", "sweep_random_trees",
    "FamilySpec", "SearchConfig", "SearchResult", "rio_gain",
    "asym_two_point_gain", "asymptotic_gain_probe", "family_ratio", "search",
    "ContinuousId", "IntegrandSpec", "Rule", "RuleEntry", "WienerBatch",
    "constant_integrand", "simulate", "eval_continuous", "gaussian_abs_moment",
    "parse_tree", "tree_to_obj", "parse_integrand", "integrand_to_obj",
    "parse_search", "search_to_obj", "search_result_to_obj",
    "report_row", "csv_row", "table_text",
]
