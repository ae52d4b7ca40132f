"""tools/limits.py: every documented limit refuses the request just past its
edge with its whole message, the edges that cost under a second answer, and
the tool's own report judges a row by the contract."""

import child
import limits
import pytest

from momentlab import ResourceLimitError, cli

ROWS = [pytest.param(row, id=row.name) for row in limits.LIMITS]


def run_in_process(request):
    """A library line, or a CLI request's handler without ``main``'s catch."""
    if isinstance(request, str):
        exec(request, {})
    else:
        args = cli.build_parser().parse_args(list(request))
        args.func(args)


def test_rows_are_named_once():
    names = [row.name for row in limits.LIMITS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("row", ROWS)
def test_past_raises_exactly_the_one_type(row):
    with pytest.raises(ResourceLimitError) as exc:
        run_in_process(row.past)
    assert type(exc.value) is ResourceLimitError
    assert str(exc.value) == row.message


@pytest.mark.parametrize("row", ROWS)
def test_past_exits_3_fast_in_a_fresh_child(row):
    result = child.run(limits.ROOT, limits.request(row.past))
    assert result[:3] == (3, b"", f"resource limit: {row.message}\n".encode())
    assert result.cpu < limits.PAST_CPU_S


@pytest.mark.parametrize("row", [param for param in ROWS if param.values[0].cheap])
def test_cheap_edge_answers(row):
    code, out, err, _, _ = child.run(limits.ROOT, limits.request(row.edge))
    assert (code, err) == (0, b"")
    assert out or isinstance(row.edge, str)


def test_report_judges_each_row(monkeypatch, capsys):
    # an edge that exits 2 breaks the contract: "over" fails the check, a
    # named gap is reported and passes; a past request refused with another
    # message fails it too
    bad_n = ("table", "--model", "cycles", "--n", "-1")
    past, message = next((row.past, row.message) for row in limits.LIMITS if row.name == "quicksort-row")
    rows = [
        limits.Limit("answers", "c = 1", ("table", "--model", "cycles", "--n", "3"), past, message, True, None),
        limits.Limit("gap", "c = 2", bad_n, past, message, True, 1),
        limits.Limit("over", "c = 3", bad_n, past, message, True, None),
        limits.Limit("other-message", "c = 4", None, past, "another message", False, None),
    ]
    monkeypatch.setattr(limits, "LIMITS", rows)
    assert limits.main(["--runs", "1", "answers", "gap"]) == 0
    assert limits.main(["--runs", "1", "over"]) == 1
    assert limits.main(["other-message"]) == 1
    answers, gap, over, other = capsys.readouterr().out.splitlines()
    assert answers.startswith("answers (c = 1): edge exit 0, cpu ") and answers.endswith("; ok")
    assert gap.startswith("gap (c = 2): edge exit 2, cpu ") and gap.endswith("; gap: item 1")
    assert over.endswith("; over")
    assert other.startswith("other-message (c = 4): past exit 3 in ")
    assert other.endswith("; ok; past not refused as stated: 'resource limit: " + message + "'")
    with pytest.raises(SystemExit):
        limits.main(["no-such-row"])
