"""momentlab: exact cost distributions, factorial moments, and log-power
coefficient asymptotics for three classic permutation statistics (cycle
counts, inversion counts, randomized-quicksort comparisons), with Monte
Carlo validation and a CSV/JSON command-line front end.
"""

from .tables import (
    DEFAULT_ROW_LIMITS,
    DistributionTable,
    Model,
    RowLimitError,
    cycle_counts,
    distribution_table,
    distribution_tables,
    inversion_counts,
    k_max,
    quicksort_counts,
    row_limit,
)
from .moments import (
    exact_moment,
    factorial_moment,
    falling_factorial,
    harmonic,
    moment_sequence,
    quicksort_mean,
)
from .transfer import (
    EULER_GAMMA,
    LogPowerTerm,
    NO_REMAINDER,
    OrderLimitError,
    RemainderClass,
    SeriesBudgetError,
    SingularExpansion,
    exact_coefficient,
    gamma_recip_derivative,
    highprec_coefficient,
    transfer_expansion,
    transfer_term,
)
from .expansions import (
    CoefficientCheck,
    asymptotic_moment,
    coefficient_crosscheck,
    singular_expansion,
)
from .simulate import (
    MomentEstimate,
    TrialStream,
    comparisons_first_pivot,
    count_cycles,
    count_inversions,
    estimate_factorial_moment,
    quicksort_comparisons,
    random_permutation,
    sample_cost,
    trial_stream,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ROW_LIMITS",
    "DistributionTable",
    "Model",
    "RowLimitError",
    "cycle_counts",
    "distribution_table",
    "distribution_tables",
    "inversion_counts",
    "k_max",
    "quicksort_counts",
    "row_limit",
    "exact_moment",
    "factorial_moment",
    "falling_factorial",
    "harmonic",
    "moment_sequence",
    "quicksort_mean",
    "EULER_GAMMA",
    "LogPowerTerm",
    "NO_REMAINDER",
    "OrderLimitError",
    "RemainderClass",
    "SeriesBudgetError",
    "SingularExpansion",
    "exact_coefficient",
    "gamma_recip_derivative",
    "highprec_coefficient",
    "transfer_expansion",
    "transfer_term",
    "CoefficientCheck",
    "asymptotic_moment",
    "coefficient_crosscheck",
    "singular_expansion",
    "MomentEstimate",
    "TrialStream",
    "comparisons_first_pivot",
    "count_cycles",
    "count_inversions",
    "estimate_factorial_moment",
    "quicksort_comparisons",
    "random_permutation",
    "sample_cost",
    "trial_stream",
    "__version__",
]
