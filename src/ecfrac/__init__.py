"""Certified computation with Engel continued fractions.

Exact digit expansions, counting and enumeration of admissible digit
words, Lebesgue-measure laws of the digit sequence, pressure and rate
functions for the digit growth with certified Legendre transforms, and
reproducible Monte Carlo experiments whose per-trial digits are certified
enclosures.
"""

from .numerics import (ExtendedReal, OutwardInterval, default_precision,
                       interval_exp, interval_log, interval_pow,
                       interval_sqrt)
from .expansion import (CertifiedExpansion, continuants, cylinder_endpoints,
                        expand_interval, expand_rational, is_admissible,
                        reconstruct)
from .words import (BudgetError, DEFAULT_BUDGET, WordFamily, count_words,
                    enumerate_words)
from .measure import (MarginalTable, ProbInterval, binet_q,
                      conditional_given_last, conditional_probability,
                      cylinder_measure, marginal_exact, marginal_interval_dp,
                      moment_interval, prob_digit_one, transition_bounds)
from .deviations import (GrowthTable, MdpTable, RateFunctionId,
                         exponential_bound_check, legendre_numeric, mdp_curve,
                         moment_growth_rate, moment_limit, pressure, rate,
                         xi_b)
from .montecarlo import (CltReport, EventEstimate, LdpReport, LlnReport,
                         RNG_ALGORITHM, SampleConfig, TailRequest, clt_report,
                         clopper_pearson, default_bits, estimate_event,
                         ldp_slope, lln_report, tail_counts, tail_threshold)
from .checks import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CertifiedExpansion", "CheckResult", "CltReport",
    "DEFAULT_BUDGET", "EventEstimate", "ExtendedReal", "GrowthTable",
    "LdpReport", "LlnReport", "MarginalTable", "MdpTable", "OutwardInterval",
    "ProbInterval", "RNG_ALGORITHM", "RateFunctionId", "SampleConfig",
    "TailRequest", "WordFamily", "binet_q", "clopper_pearson",
    "clt_report", "conditional_given_last", "conditional_probability",
    "continuants", "count_words", "cylinder_endpoints", "cylinder_measure",
    "default_bits", "default_precision", "enumerate_words", "estimate_event",
    "expand_interval", "expand_rational", "exponential_bound_check",
    "interval_exp", "interval_log", "interval_pow", "interval_sqrt",
    "is_admissible", "ldp_slope", "legendre_numeric", "lln_report",
    "marginal_exact", "marginal_interval_dp", "mdp_curve", "moment_growth_rate",
    "moment_interval", "moment_limit", "prob_digit_one", "pressure", "rate",
    "reconstruct", "run_suite", "tail_counts", "tail_threshold",
    "transition_bounds", "xi_b",
]
