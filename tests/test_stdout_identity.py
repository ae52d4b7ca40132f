"""tools/stdout_identity.py: exit codes, stdout and stderr of two checkouts
compared over a benchmark's request lists or a file of requests."""

import importlib.util
import time
from pathlib import Path

import pytest

from momentlab import simulate

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "stdout_identity.py"
spec = importlib.util.spec_from_file_location("stdout_identity", TOOL)
stdout_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stdout_identity)

# A stand-in CLI that echoes its argv; BODY changes what it prints.
STUB = """import sys
argv = sys.argv[1:]
{body}
print(" ".join(argv))
"""


def stub_checkout(root: Path, body: str = "") -> Path:
    package = root / "src" / "momentlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB.format(body=body))
    return root


def test_checkout_against_itself():
    argvs = [
        ("table", "--model", "cycles", "--n", "5", "--format", "json"),
        ("moment", "--model", "inversions", "--n", "9", "--s", "2", "--mode", "exact"),
        ("table", "--model", "cycles", "--n", "-1"),  # exit 2, empty stdout
    ]
    assert stdout_identity.differences(ROOT, ROOT, argvs) == []
    assert stdout_identity.run(ROOT, argvs[0])[0] == 0


def test_requests_are_the_benchmark_lists():
    # perfbench/run.py --seconds 30 builds its lists for 30 / 3 seconds
    lists = [stdout_identity._workloads().build("tables", seed, 10) for seed in (1, 7)]
    argvs = stdout_identity.requests("tables", [1, 7])
    assert len(lists[0]) == 8
    assert argvs == list(dict.fromkeys(lists[0] + lists[1]))  # each once, in order of first use


def test_same_stub_reports_nothing(tmp_path, capsys):
    stub = stub_checkout(tmp_path / "stub")
    code = stdout_identity.main(["--parent", str(stub), "--change", str(stub),
                                 "--workload", "tables", "--seeds", "1"])
    assert code == 0
    assert capsys.readouterr().out == "tables seeds 1: 8 requests, 0 differ\n"


def test_changed_stub_is_caught(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent")
    # prints one more field for JSON requests and exits 2 for inversions ones
    change = stub_checkout(tmp_path / "change", body=(
        'if "json" in argv:\n    argv = argv + ["!"]\n'
        'if "inversions" in argv:\n    print(" ".join(argv))\n    sys.exit(2)'
    ))
    code = stdout_identity.main(["--parent", str(parent), "--change", str(change),
                                 "--workload", "tables", "--seeds", "1"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    argvs = stdout_identity.requests("tables", [1])
    expected = [a for a in argvs if "json" in a or "inversions" in a]
    assert 0 < len(expected) < len(argvs) == 8
    assert lines[-1] == f"tables seeds 1: 8 requests, {len(expected)} differ"
    assert [line.split(": ")[1] for line in lines[:-1]] == [" ".join(a) for a in expected]
    assert all("exit 0 -> 2" in line for line in lines[:-1] if "inversions" in line)
    assert any("exit 0 -> 0" in line for line in lines[:-1])


def test_traceback_on_both_sides_is_caught(tmp_path, capsys):
    # both checkouts exit 1, as a traceback does, with the same empty stdout
    body = 'if "json" in argv:\n    sys.exit(1)'
    parent = stub_checkout(tmp_path / "parent", body=body)
    change = stub_checkout(tmp_path / "change", body=body)
    code = stdout_identity.main(["--parent", str(parent), "--change", str(change),
                                 "--workload", "tables", "--seeds", "1"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    expected = [a for a in stdout_identity.requests("tables", [1]) if "json" in a]
    assert 0 < len(expected) < 8
    assert lines == [
        *(f"fails: {' '.join(a)}: exit 1 -> 1, stdout 0 -> 0 bytes" for a in expected),
        f"tables seeds 1: 8 requests, 0 differ, {len(expected)} fail on both sides",
    ]


def test_hung_request_is_timed_out(tmp_path, capsys, monkeypatch):
    argv_file = tmp_path / "requests.txt"
    argv_file.write_text("table --n 5\nmoment --n 3\n")
    # the change hangs on moment requests; the parent answers them at once
    parent = stub_checkout(tmp_path / "parent")
    change = stub_checkout(tmp_path / "change", body='if "moment" in argv:\n    import time\n    time.sleep(60)')
    monkeypatch.setattr(stdout_identity, "REQUEST_SECONDS", 1)
    start = time.monotonic()
    code = stdout_identity.main(["--parent", str(parent), "--change", str(change),
                                 "--argv-file", str(argv_file)])
    assert time.monotonic() - start < 30
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "timed out: moment --n 3: exit 0 -> timed out, stdout 13 -> 0 bytes",
        "requests.txt: 2 requests, 0 differ, 1 timed out",
    ]


def test_changed_stderr_is_caught(tmp_path, capsys):
    argv_file = tmp_path / "requests.txt"
    argv_file.write_text("table --n 5\nmoment --n 3\n")
    # same exit code and stdout; one more stderr line for moment requests
    parent = stub_checkout(tmp_path / "parent", body='print("note", file=sys.stderr)')
    change = stub_checkout(tmp_path / "change", body=(
        'print("note", file=sys.stderr)\n'
        'if "moment" in argv:\n    print("extra", file=sys.stderr)'
    ))
    assert stdout_identity.run(parent, ("table", "--n", "5")) == (0, b"table --n 5\n", b"note\n")
    code = stdout_identity.main(["--parent", str(parent), "--change", str(change),
                                 "--argv-file", str(argv_file)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: moment --n 3: exit 0 -> 0, stdout 13 -> 13 bytes, stderr 5 -> 11 bytes",
        "requests.txt: 2 requests, 1 differ",
    ]


def test_argv_file_requests(tmp_path, capsys):
    argv_file = tmp_path / "requests.txt"
    argv_file.write_text(
        "# a comment\n"
        "transfer --alpha 2 --beta 1 --n 50\n"
        "\n"
        "  compare --model cycles   --s 2 --n-grid 300  \n"
        "transfer --alpha 2 --beta 1 --n 50\n"  # a repeat runs once
        "verify --format json\n"
    )
    assert stdout_identity.read_argv_file(argv_file) == [
        ("transfer", "--alpha", "2", "--beta", "1", "--n", "50"),
        ("compare", "--model", "cycles", "--s", "2", "--n-grid", "300"),
        ("verify", "--format", "json"),
    ]
    parent = stub_checkout(tmp_path / "parent")
    change = stub_checkout(tmp_path / "change", body='if "verify" in argv:\n    sys.exit(4)')
    code = stdout_identity.main(["--parent", str(parent), "--change", str(change),
                                 "--argv-file", str(argv_file)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "differs: verify --format json: exit 0 -> 4, stdout 21 -> 0 bytes",
        "requests.txt: 3 requests, 1 differ",
    ]


def test_argv_file_sets_momentlab_variables(tmp_path, monkeypatch):
    argv_file = tmp_path / "requests.txt"
    argv_file.write_text(
        "MOMENTLAB_ROW_LIMIT=140 table --n 121\n"
        "MOMENTLAB_ROW_LIMIT=0 MOMENTLAB_OTHER=a=b moment --n 3\n"
        "table --n 121\n"
        "table MOMENTLAB_ROW_LIMIT=9\n"  # a setting only where a line begins
    )
    argvs = stdout_identity.read_argv_file(argv_file)
    assert argvs[0] == ("MOMENTLAB_ROW_LIMIT=140", "table", "--n", "121")
    # prints the two variables after its argv, "-" where one is unset
    body = 'import os\nargv = argv + [os.environ.get(k, "-") for k in ("MOMENTLAB_ROW_LIMIT", "MOMENTLAB_OTHER")]'
    stub = stub_checkout(tmp_path / "stub", body=body)
    # the caller's own MOMENTLAB_* variables never reach either side
    monkeypatch.setenv("MOMENTLAB_ROW_LIMIT", "7")
    assert [stdout_identity.run(stub, a) for a in argvs] == [
        (0, b"table --n 121 140 -\n", b""),
        (0, b"moment --n 3 0 a=b\n", b""),
        (0, b"table --n 121 - -\n", b""),
        (0, b"table MOMENTLAB_ROW_LIMIT=9 - -\n", b""),
    ]
    # a change that reads the variable differently is caught under it
    change = stub_checkout(tmp_path / "change", body=(
        body + '\nif os.environ.get("MOMENTLAB_ROW_LIMIT") == "140":\n    sys.exit(3)'
    ))
    found = stdout_identity.differences(stub, change, argvs)
    assert [(argv, after) for argv, _, after in found] == [(argvs[0], (3, b"", b""))]


def test_workloads_and_files_in_one_call(tmp_path, capsys):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text("table --n 5\n")
    second.write_text("moment --n 3\nverify\n")
    parent = stub_checkout(tmp_path / "parent")
    # differs on the second file's verify request only
    change = stub_checkout(tmp_path / "change", body='if "verify" in argv:\n    sys.exit(4)')
    code = stdout_identity.main([
        "--parent", str(parent), "--change", str(change), "--argv-file", str(first),
        "--workload", "tables", "--workload", "montecarlo", "--seeds", "1", "--argv-file", str(second),
    ])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    # one summary line per list: the workloads in their order, then the files in theirs
    assert lines == [
        "tables seeds 1: 8 requests, 0 differ",
        f"montecarlo seeds 1: {len(stdout_identity.requests('montecarlo', [1]))} requests, 0 differ",
        "first.txt: 1 requests, 0 differ",
        "differs: verify: exit 0 -> 4, stdout 7 -> 0 bytes",
        "second.txt: 2 requests, 1 differ",
    ]
    # the same lists against an unchanged checkout
    code = stdout_identity.main([
        "--parent", str(parent), "--change", str(parent), "--argv-file", str(first),
        "--argv-file", str(second), "--workload", "tables", "--seeds", "1",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "tables seeds 1: 8 requests, 0 differ",
        "first.txt: 1 requests, 0 differ",
        "second.txt: 2 requests, 0 differ",
    ]


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["--workload", "tables"],
        ["--argv-file", "requests.txt", "--seeds", "1"],
        ["--seeds", "1"],
    ],
)
def test_argv_file_or_workload(args, capsys):
    # at least one list, and --seeds exactly when a --workload is given
    with pytest.raises(SystemExit) as exc:
        stdout_identity.main(["--parent", ".", "--change", ".", *args])
    assert exc.value.code == 2
    assert "--argv-file" in capsys.readouterr().err


def test_checked_in_moments_list():
    # requests the workload lists leave out: every transfer and compare of
    # the list is outside three seeds' lists, which do hold both verify requests
    argvs = stdout_identity.read_argv_file(ROOT / "tools" / "moments_outside_workloads.txt")
    workload = set(stdout_identity.requests("moments", [1, 7, 2026]))
    assert [a for a in argvs if a in workload] == [("verify", "--format", "csv"),
                                                    ("verify", "--format", "json")]
    transfers = [stdout_identity._workloads().options(a) for a in argvs if a[0] == "transfer"]
    # beside the grid of alpha, beta and n: huge alpha, which exits 3 under
    # --precision high, an estimate halfway between two doubles, the
    # transfer handler's checks, each of which exits 3, (88, 6, 100000), one
    # alpha below a refused check, which answers, and last the band between
    # the oracle's range bounds: (89, 6, 93560) exits 3, (89, 6, 93543) answers
    handler_checks = [
        (170, 0, 67), (1, 300, 100000), (1, 290, 100000), (517, 6, 517), (10**400, 1, 2), (1, 1, 10**400),
        (100, 0, 200000), (3000000, 17, 100), (2, 7, 50), (1000, 7, 400), (2, 1, 100001),
        (1000, 0, 308), (1000, 0, 309), (1000, 6, 5), (89, 6, 100000), (88, 6, 100000),
        (89, 6, 93560), (89, 6, 93543),
    ]
    assert {(o["alpha"], o["beta"], o["n"]) for o in transfers} == {
        *((str(a), str(b), str(n)) for a in (1, 7, 40, 171) for b in range(7) for n in (2, 1000, 100000)),
        *((str(a), str(b), str(n)) for a in (3000000, 1000000000) for b in (1, 6) for n in (2, 3)),
        ("6", "0", "3015"),
        *((str(a), str(b), str(n)) for a, b, n in handler_checks),
    }
    assert {o.get("precision") for o in transfers} == {None, "high"}
    assert any("order" in o for o in transfers)
    compares = [a for a in argvs if a[0] == "compare"]
    oracle = [a for a in compares if "--precision" in a]
    assert len(oracle) == 47
    # the cycles oracle at s 1..16 in both precisions, the high-precision
    # asymptotics of the other two models, two 82-digit estimates past the
    # double range and one that fits where the double route refuses it
    assert {(o["model"], o["s"], o["precision"]) for o in map(stdout_identity._workloads().options, oracle)} == {
        *(("cycles", str(s), p) for s in range(1, 17) for p in ("double", "high")),
        *((m, str(s), "high") for m in ("inversions", "quicksort") for s in range(1, 7)),
        ("quicksort", "1000", "high"),
        ("inversions", "100", "high"),
    }
    # the truncated rising product, by its tree and by its loop, the
    # inversions series past the workloads' n <= 150, the quicksort mean
    # around a leaf of the harmonic split and at the last n whose mean prints
    inversions_grid = ("compare", "--model", "inversions", "--s", "6", "--n-grid", "2,12,13,151,1000000000")
    assert [a for a in compares if a not in oracle] == [
        ("compare", "--model", "cycles", "--s", "6", "--n-grid", "60,150,200"),
        inversions_grid,
        (*inversions_grid, "--format", "json"),
        ("compare", "--model", "quicksort", "--s", "1", "--n-grid", "63,64,65,9869"),
        # an estimate past the double range, refused before the exact moment
        ("compare", "--model", "inversions", "--s", "96", "--n-grid", "100000"),
    ]
    moments = [stdout_identity._workloads().options(a) for a in argvs if a[0] == "moment"]
    # one moment --mode both, whose estimate passes the double range: refused
    # before the exact moment at the s cap is worked out; and two estimates
    # that printed nan and inf
    assert [o for o in moments if o["mode"] != "exact"] == [
        {"model": "inversions", "n": "30", "s": "128", "mode": "both"},
        {"model": "quicksort", "n": "1000000", "s": "45", "mode": "asym"},
        {"model": "quicksort", "n": str(10**306), "s": "1", "mode": "asym"},
    ]
    assert {(o["n"], o["s"], o.get("format", "csv")) for o in moments if o["model"] == "cycles"} == {
        *((str(n), str(s), f) for n in (1200, 3500, 4000) for s in range(1, 8) for f in ("csv", "json")),
        ("1500", "300", "csv"),
    }
    # around n = 2s, at 100, past the inversions row cap, and at 10^9; past the
    # orders that a table row once answered; a zero past the support at the
    # s cap; n = 10^100, read by one Horner pass over the powers of 1-u; and
    # the dearest series within the s cap, s 128 and 64
    higher = {(str(n), str(s)) for n in (3, 10, 30) for s in range(7, 11)}
    assert {(o["n"], o["s"]) for o in moments if o["model"] == "inversions"} == {
        *((str(n), str(s)) for n in (0, 1, 12, 13, 501, 1000000000) for s in range(7)),
        *higher,
        ("2", "96"),
        ("2", "128"),
        ("30", "128"),
        ("100", "6"),
        *((str(10**100), str(s)) for s in (1, 7, 20, 32)),
        (str(10**16), "128"),
        (str(10**30), "64"),
    }
    # the quicksort mean at the edges of the harmonic split's leaves, up to
    # the last n whose mean prints; the moment series and their mean and
    # variance check, up to the cap of the PGF recurrence they replaced
    assert {(o["n"], o["s"], o.get("format", "csv")) for o in moments if o["model"] == "quicksort"} == {
        *((str(n), "1", "csv") for n in (0, 1, 2, 63, 64, 65, 129, 5000, 9869)),
        ("9869", "1", "json"),
        *((str(n), str(s), "csv") for n in (0, 1, 2, 3, 400) for s in range(2, 7)),
        ("800", "2", "csv"),
        *((n, s, "csv") for n, s in higher),
        ("5", "32", "csv"),
        ("1000000", "45", "csv"),
        (str(10**306), "1", "csv"),
    }
    assert {o["model"] for o in moments} == {"cycles", "inversions", "quicksort"}
    assert not [a for a in argvs if a[0].startswith("MOMENTLAB_")]
    tables = [a for a in argvs if a[0] == "table"]
    assert tables == [("table", "--model", "cycles", "--n", "1500"),
                      ("table", "--model", "cycles", "--n", "1500", "--format", "json")]


def test_checked_in_simulate_list():
    argvs = stdout_identity.read_argv_file(ROOT / "tools" / "simulate_outside_workloads.txt")
    assert len(argvs) == 25
    assert [a for a in argvs if "--help" in a] == [
        (*command, "--help")
        for command in ((), ("table",), ("moment",), ("transfer",), ("simulate",), ("compare",),
                        ("verify",))
    ]
    simulations = [
        stdout_identity._workloads().options(a)
        for a in argvs if a[0] == "simulate" and "--help" not in a
    ]
    # quicksort blocks on both sides of the lockstep's threshold, and a tail block
    quicksort = [o["trials"] for o in simulations if (o["model"], o["n"]) == ("quicksort", "2000")]
    assert [int(t) for t in quicksort] == [29, 30, 31, 4096 + 31, 4096 + 31]
    # int16 slots below n = 2^15, int32 from it
    inversions = {(o["n"], o["trials"]) for o in simulations if o["model"] == "inversions"}
    assert {(str((1 << 15) - 1), "8"), (str(1 << 15), "8"), ("3000", "2000")} <= inversions
    # --threads 2 runs of each model in one process and on two workers
    quantum = simulate._DRAWS_PER_WORKER
    for pooled in (False, True):
        assert {
            o["model"] for o in simulations
            if o.get("threads") == "2" and ((int(o["n"]) - 1) * int(o["trials"]) >= 2 * quantum) == pooled
        } == {"cycles", "inversions", "quicksort"}
    assert {o["model"] for o in simulations} == {"cycles", "inversions", "quicksort", "heapsort"}


def test_checked_in_tables_list():
    argvs = stdout_identity.read_argv_file(ROOT / "tools" / "tables_outside_workloads.txt")
    sizes = (0, 1, 2, 3, 4, 12, 13, 20, 39, 71, 90, 117, 120)
    assert argvs == [
        *(("table", "--model", "quicksort", "--n", str(n), *fmt) for n in sizes
          for fmt in ((), ("--format", "json"))),
        ("table", "--model", "quicksort", "--n", "121"),
    ]
    assert not set(argvs) & set(stdout_identity.requests("tables", [1, 7, 2026]))


def test_caller_unbuffered_streams_reach_neither_side(tmp_path, monkeypatch):
    # prints PYTHONUNBUFFERED after its argv, "-" where it is unset
    stub = stub_checkout(tmp_path / "stub", body=(
        'import os\nargv = argv + [os.environ.get("PYTHONUNBUFFERED", "-")]'
    ))
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    assert stdout_identity.run(stub, ("verify",)) == (0, b"verify -\n", b"")


def test_checked_in_parser_list():
    from momentlab.cli import _COMMANDS, _read_argv

    argvs = stdout_identity.read_argv_file(ROOT / "tools" / "parser_outside_workloads.txt")
    assert [a for a in argvs if a[-1] == "--help"] == [("--help",), *((c, "--help") for c in _COMMANDS)]
    # a line of settings alone runs the program without a subcommand
    assert ("MOMENTLAB_ROW_LIMIT=140",) in argvs
    for request in [
        ("table",),
        ("moment", "--model", "cycles", "--n", "5", "--s", "1", "--mo", "both"),
        ("compare", "--model", "cycles", "--s", "2", "--n", "300"),
        ("table", "--model", "cycles", "--n", "3", "--n", "4"),
        ("table", "--model", "cycles", "--n", "5", "--format=json"),
        ("simulate", "--model", "cycles", "--n", "5", "--s", "1", "--trials", "10", "--seed", "-2"),
        ("transfer", "--alpha", "1", "--beta", "0", "--n", "9", "--order", "-1"),
        ("table", "--model", "cycles", "--", "--n", "5"),
        ("table", "--model", "cycles", "--n", "1" + "0" * 4300),
    ]:
        assert request in argvs
        assert _read_argv(list(request)) is None
    # well-formed requests, which the table reader parses: every option of
    # each subcommand in an order other than the help's, and each defaulted
    # option left out
    read = [a for a in argvs if _read_argv(list(a)) is not None]
    for command, (_, _, options) in _COMMANDS.items():
        flags = [flag for flag, *_ in options]
        given = [list(a[1::2]) for a in read if a[0] == command]
        assert any(sorted(g) == sorted(flags) and (g != flags or len(g) == 1) for g in given)
        for flag, _, required, *_ in options:
            assert required or any(flag not in g for g in given)
