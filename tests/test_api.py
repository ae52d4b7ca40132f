"""The package's public names, bound on first use, and its immutable data
types."""

import importlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import momentlab
from momentlab import (
    CoefficientCheck,
    DistributionTable,
    LogPowerTerm,
    Model,
    MomentEstimate,
)

# Resolves the package's names in a fresh interpreter, where no submodule has
# been imported yet, and prints what it found.
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
print(json.dumps([missing, sorted(set(momentlab.__all__) - set(star)), unknown]))
"""


class TestPublicNames:
    def test_every_name_resolves_in_a_fresh_process(self):
        proc = subprocess.run(
            [sys.executable, "-c", NAMES_PROBE], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        missing, not_starred, unknown = json.loads(proc.stdout)
        assert missing == []
        assert not_starred == []
        assert unknown == "module 'momentlab' has no attribute 'no_such_name'"

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

    @pytest.mark.parametrize(
        "module, name",
        [
            ("tables", "RowLimitError"),
            ("transfer", "OrderLimitError"),
            ("transfer", "SeriesBudgetError"),
            ("simulate", "DrawLimitError"),
        ],
    )
    def test_resource_guards_share_one_base(self, module, name):
        error = getattr(importlib.import_module(f"momentlab.{module}"), name)
        assert error.__module__ == f"momentlab.{module}"
        assert issubclass(error, momentlab.ResourceLimitError)
        assert issubclass(error, RuntimeError)

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
        LogPowerTerm(Fraction(1, 2), 2, 1),
        ("coeff", "alpha", "beta"),
        "LogPowerTerm(coeff=Fraction(1, 2), alpha=2, beta=1)",
        LogPowerTerm(Fraction(1, 2), 2, 0),
        id="LogPowerTerm",
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

    def test_validation_errors(self):
        with pytest.raises(ValueError, match=r"^alpha must be a positive integer, got 0$"):
            LogPowerTerm(1.0, 0, 1)
        with pytest.raises(ValueError, match=r"^beta must be nonnegative, got -1$"):
            LogPowerTerm(1.0, 1, -1)
