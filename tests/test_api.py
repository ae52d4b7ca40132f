"""The package's public names, bound on first use, and its immutable data
types."""

import json
from pathlib import Path

import child
import pytest

import momentlab
from momentlab import (
    DistributionTable,
    Model,
    MomentEstimate,
)

# Resolves the package's names in a fresh interpreter, where no submodule has
# been imported yet, and prints what it found: the names of each submodule's
# star import that are not its entry of _EXPORTS, or missing from it, too.
ROOT = Path(__file__).resolve().parent.parent

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


class TestPublicNames:
    def test_every_name_resolves_in_a_fresh_process(self):
        code, out, err, _, _ = child.run(ROOT, ("-c", NAMES_PROBE))
        assert code == 0, err
        missing, not_starred, unknown, drift = json.loads(out)
        assert missing == []
        assert not_starred == []
        assert unknown == "module 'momentlab' has no attribute 'no_such_name'"
        assert drift == {}

    def test_resource_limit_error_is_the_packages_own(self):
        # bound by the package itself, so catching it loads no submodule;
        # tests/test_limits.py checks that every guard raises exactly it
        probe = (
            "import json, sys, momentlab; momentlab.ResourceLimitError; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('momentlab.'))))"
        )
        code, out, err, _, _ = child.run(ROOT, ("-c", probe))
        assert code == 0, err
        assert json.loads(out) == []
        assert "ResourceLimitError" in momentlab.__all__
        assert momentlab.ResourceLimitError.__module__ == "momentlab"

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
