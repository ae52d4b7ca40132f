"""momentlab: exact cost distributions, factorial moments, and log-power
coefficient asymptotics for three classic permutation statistics (cycle
counts, inversion counts, randomized-quicksort comparisons), with Monte
Carlo validation and a CSV/JSON command-line front end.

Every public name is imported from its submodule on first use (PEP 562),
not when the package is: every CLI request is a fresh process that
compiles the modules it imports, and most requests need only one or two
of the five submodules (tables, moments, transfer, expansions, simulate).
``Model`` and ``ResourceLimitError`` are the package's own names, defined
here, so parsing a model and catching a resource guard load no submodule.
"""

import enum
import importlib

__version__ = "0.1.0"

# The public names of each submodule, declared here only: each submodule's
# ``__all__`` is its entry.
_EXPORTS = {
    "tables": (
        "DEFAULT_ROW_LIMITS",
        "DistributionTable",
        "distribution_table",
        "distribution_tables",
        "k_max",
    ),
    "moments": (
        "MOMENT_MAX_S",
        "QUICKSORT_MEAN_MAX_N",
        "QUICKSORT_PGF_MAX_N",
        "exact_moment",
        "factorial_moment",
        "harmonic",
        "moment_series",
        "quicksort_mean",
    ),
    "transfer": (
        "EULER_GAMMA",
        "MAX_DERIVATIVE_ORDER",
        "ORACLE_MAX_BETA",
        "ORACLE_MAX_N",
        "check_double_range",
        "exact_coefficient",
        "gamma_recip_derivative",
        "highprec_coefficient",
        "transfer_term",
    ),
    "expansions": (
        "CoefficientCheck",
        "asymptotic_moment",
        "coefficient_crosscheck",
        "singular_expansion",
    ),
    "simulate": (
        "MAX_DRAWS",
        "MomentEstimate",
        "TrialStream",
        "comparisons_first_pivot",
        "count_cycles",
        "count_inversions",
        "estimate_factorial_moment",
        "quicksort_comparisons",
        "random_permutation",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["Model", "ResourceLimitError", "__version__"]


class Model(enum.Enum):
    """The three cost statistics this package analyzes."""

    CYCLES = "cycles"
    INVERSIONS = "inversions"
    QUICKSORT = "quicksort"

    def __str__(self) -> str:
        return self.value


class ResourceLimitError(RuntimeError):
    """The one type every resource guard raises; the CLI exits 3.  Catching it loads no submodule."""


def _first_use(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: it imports the submodule that ``exports`` lists a name
    under, binds the name in ``namespace`` so that later lookups find it
    there, and returns it."""
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _first_use(globals(), _EXPORTS)
