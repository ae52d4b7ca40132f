"""The package's public names, bound on first use, and its immutable data
types."""

import json
import re
import subprocess
import sys

import pytest

import momentlab
from momentlab import _ntt
from momentlab import (
    CoefficientCheck,
    DistributionTable,
    Model,
    MomentEstimate,
)

# Resolves the package's names in a fresh interpreter, where no submodule has
# been imported yet, and prints what it found: the names of each submodule's
# star import that are not its entry of _EXPORTS, or missing from it, too.
NAMES_PROBE = """
import json, sys
import momentlab
missing = [name for name in momentlab.__all__ if not hasattr(momentlab, name)]
star = {}
exec("from momentlab import *", star)
try:
    momentlab.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
drift = {}
for module, names in momentlab._EXPORTS.items():
    module_star = {}
    exec(f"from momentlab.{module} import *", module_star)
    del module_star["__builtins__"]
    if sorted(module_star) != sorted(names):
        drift[module] = sorted(set(module_star) ^ set(names))
print(json.dumps([missing, sorted(set(momentlab.__all__) - set(star)), unknown, drift]))
"""


# One request past each resource guard, and the whole message it refuses with.
GUARDS = [
    pytest.param(
        lambda: momentlab.distribution_table(Model.CYCLES, 4001),
        r"cycles row 4001 exceeds the cap 4000",
        id="row-cap",
    ),
    pytest.param(
        lambda: _ntt._ntt_moduli(2**19, 1025),
        r"quicksort row 1025 needs primes p = 1 \(mod 524288\) below 2\^29 whose "
        r"product exceeds n! \(8780 bits\); they give only 2939 bits",
        id="prime-coverage",
    ),
    pytest.param(
        lambda: momentlab.exact_moment(Model.INVERSIONS, 30, 129),
        r"inversions moments are capped at s <= 128, got s=129",
        id="moment-s-cap",
    ),
    pytest.param(
        lambda: momentlab.exact_moment(Model.QUICKSORT, 4001, 2),
        r"quicksort moments of order 2 are capped at n <= 4000, got n=4001",
        id="quicksort-n-cap",
    ),
    pytest.param(
        lambda: momentlab.exact_moment(Model.QUICKSORT, 10**6 + 1, 1),
        r"quicksort moments of order 1 are capped at n <= 1000000, got n=1000001",
        id="quicksort-mean-cap",
    ),
    pytest.param(
        lambda: momentlab.gamma_recip_derivative(1, 17),
        r"order 17 exceeds the embedded constant table \(max 16\)",
        id="derivative-order",
    ),
    pytest.param(
        lambda: momentlab.exact_coefficient(1, 7, 10),
        r"oracle budget is beta <= 6, got 7",
        id="oracle-beta",
    ),
    pytest.param(
        lambda: momentlab.exact_coefficient(1, 1, 100_001),
        r"exact oracle budget is n <= 100000, got 100001",
        id="oracle-n",
    ),
    pytest.param(
        lambda: momentlab.estimate_factorial_moment(Model.QUICKSORT, 2**30 + 2, 1, 2, 0),
        r"quicksort estimate needs \(n-1\) x trials = 2147483650 draws, above the cap 2147483648",
        id="max-draws",
    ),
    pytest.param(
        lambda: momentlab.estimate_factorial_moment(Model.INVERSIONS, 2**23 + 1, 1, 2, 0),
        r"inversions estimate at n = 8388609 would hold \d+ MiB of permutations and merge "
        r"runs, over the 512 MiB budget",
        id="inversions-memory",
    ),
]


class TestPublicNames:
    def test_every_name_resolves_in_a_fresh_process(self):
        proc = subprocess.run(
            [sys.executable, "-c", NAMES_PROBE], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        missing, not_starred, unknown, drift = json.loads(proc.stdout)
        assert missing == []
        assert not_starred == []
        assert unknown == "module 'momentlab' has no attribute 'no_such_name'"
        assert drift == {}

    def test_resource_limit_error_is_the_packages_own(self):
        # bound by the package itself, so catching it loads no submodule
        probe = (
            "import json, sys, momentlab; momentlab.ResourceLimitError; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('momentlab.'))))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
        assert "ResourceLimitError" in momentlab.__all__
        assert momentlab.ResourceLimitError.__module__ == "momentlab"

    @pytest.mark.parametrize("guard, message", GUARDS)
    def test_every_guard_raises_the_one_type(self, guard, message):
        with pytest.raises(momentlab.ResourceLimitError) as exc:
            guard()
        assert type(exc.value) is momentlab.ResourceLimitError
        assert re.fullmatch(message, str(exc.value))

    def test_names_are_the_submodules_objects(self):
        from momentlab import simulate, tables, transfer

        assert momentlab.distribution_table is tables.distribution_table
        assert momentlab.transfer_term is transfer.transfer_term
        assert momentlab.MomentEstimate is simulate.MomentEstimate


# (instance, its fields in order, its repr, an instance that differs in one field)
RECORDS = [
    pytest.param(
        DistributionTable(Model.CYCLES, 2, (0, 1, 1)),
        ("model", "n", "counts"),
        "DistributionTable(model=<Model.CYCLES: 'cycles'>, n=2, counts=(0, 1, 1))",
        DistributionTable(Model.CYCLES, 2, (0, 2, 0)),
        id="DistributionTable",
    ),
    pytest.param(
        MomentEstimate(2, 50, 100, 3.5, 0.25, 7),
        ("s", "n", "trials", "mean", "stderr", "seed"),
        "MomentEstimate(s=2, n=50, trials=100, mean=3.5, stderr=0.25, seed=7)",
        MomentEstimate(2, 50, 100, 3.5, 0.25, 8),
        id="MomentEstimate",
    ),
    pytest.param(
        CoefficientCheck(
            Model.QUICKSORT, 1, leading_scale="n^1", second_scale="n^0",
            leading=(2.0, 2.0), second=(1.5, 1.5),
        ),
        ("model", "s", "leading_scale", "second_scale", "leading", "second"),
        "CoefficientCheck(model=<Model.QUICKSORT: 'quicksort'>, s=1, leading_scale='n^1', "
        "second_scale='n^0', leading=(2.0, 2.0), second=(1.5, 1.5))",
        CoefficientCheck(Model.QUICKSORT, 1, "n^1", "n^0", (2.0, 2.0), (1.5, 1.4)),
        id="CoefficientCheck",
    ),
]


class TestRecords:
    @pytest.mark.parametrize("record, fields, text, other", RECORDS)
    def test_fields_equality_hash_and_repr(self, record, fields, text, other):
        values = [getattr(record, f) for f in fields]
        twin = type(record)(*values)
        assert twin == record and not (twin != record)
        assert hash(twin) == hash(record)
        assert type(record)(**dict(zip(fields, values))) == record
        assert other != record and not (other == record)
        assert repr(record) == text

    @pytest.mark.parametrize("record, fields, text, other", RECORDS)
    def test_immutable(self, record, fields, text, other):
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
