"""End-to-end runs of the batch command line."""

import csv

import pytest

from dynwardrop.cli import main

TWO_ROUTES = """\
format dnl-scenario 1
horizon 4

[arcs]
fast A B arc_performance delay=0:1,8:5
slow A B arc_performance delay=0:1,8:5

[routes]
r1 fast
r2 slow

[demand]
A B 0:1:2.0
"""

BAD_MODEL = """\
format dnl-scenario 1
horizon 4

[arcs]
a1 A B constant time=1

[routes]
r1 a1

[demand]
A B 0:1:1.0
"""

EMPTY = """\
format dnl-scenario 1
horizon 4

[arcs]
a1 A B constant time=1

[routes]
r1 a1

[demand]
A B 0:1:0
"""

DTC = """\
format dnl-scenario 1
horizon 4

[arcs]
a1 A B bottleneck free_flow=0.5 capacity=1

[routes]
r1 a1

[classes]
c0 A B mass=1 hstar=2 alpha=1 beta=0.5 gamma=2
"""


def _read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        k, v = line.split(" ", 1)
        out[k] = v
    return out


def test_solve_reaches_tolerance(tmp_path):
    scn = tmp_path / "two_routes.scn"
    scn.write_text(TWO_ROUTES)
    out = tmp_path / "out"
    code = main(["solve", str(scn), "--tol", "1e-3", "--out", str(out)])
    assert code == 0
    with (out / "gap_trace.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["gap"]) < 1e-3
    summary = _read_summary(out / "summary.txt")
    assert summary["converged"] == "true"


def test_load_on_empty_demand_writes_zero_tables(tmp_path):
    scn = tmp_path / "empty.scn"
    scn.write_text(EMPTY)
    out = tmp_path / "out"
    assert main(["load", str(scn), "--out", str(out)]) == 0
    with (out / "arc_flows.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["cumulative_in"]) == 0.0 for r in rows)


def test_check_reports_and_exits_zero(tmp_path):
    scn = tmp_path / "model.scn"
    scn.write_text(BAD_MODEL)
    out = tmp_path / "out"
    assert main(["check", str(scn), "--probes", "5", "--out", str(out)]) == 0
    with (out / "conformance.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    names = {r["check"] for r in rows}
    assert names == {
        "continuity", "no_infinite_speed", "finiteness", "strict_fifo", "causality",
    }
    assert all(r["passed"] == "1" for r in rows)


STEEP = """\
format dnl-scenario 1
horizon 4

[arcs]
cliff A B arc_performance delay=0:0.3,2:0.5,3:5.3

[routes]
r1 cliff

[demand]
A B 0:1:1.0
"""


def test_check_flags_overtaking_model_but_exits_zero(tmp_path):
    # a delay that is flat then very steep lets a fast-draining volume cross
    # the steep zone and later entrants overtake; the conformance run must
    # report the violation, not crash
    scn = tmp_path / "steep.scn"
    scn.write_text(STEEP)
    out = tmp_path / "out"
    assert main(["check", str(scn), "--probes", "40", "--out", str(out)]) == 0
    with (out / "conformance.csv").open() as fh:
        rows = {r["check"]: r for r in csv.DictReader(fh)}
    assert rows["strict_fifo"]["passed"] == "0"


def test_parse_failure_exits_2(tmp_path):
    scn = tmp_path / "broken.scn"
    scn.write_text("format dnl-scenario 1\nhorizon 4\n[arcs]\na1 A B warp time=1\n")
    assert main(["load", str(scn), "--out", str(tmp_path / "o")]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["load", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o")]) == 2


ASYM = """\
format dnl-scenario 1
horizon 4

[arcs]
fast A B constant time=1
jam  A B bottleneck free_flow=0.5 capacity=1

[routes]
r1 fast
r2 jam

[demand]
A B 0:1:2.0
"""


def test_strict_nonconvergence_exits_3(tmp_path):
    scn = tmp_path / "asym.scn"
    scn.write_text(ASYM)
    code = main([
        "solve", str(scn), "--tol", "1e-12", "--max-iters", "3",
        "--strict", "--out", str(tmp_path / "o"),
    ])
    assert code == 3


def test_solve_dtc_runs(tmp_path):
    scn = tmp_path / "dtc.scn"
    scn.write_text(DTC)
    out = tmp_path / "out"
    code = main([
        "solve-dtc", str(scn), "--bins", "64", "--max-iters", "300",
        "--tol", "5e-2", "--out", str(out),
    ])
    assert code == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["regret"]) < 5e-2


def test_oracle_diff_shrinks_and_reproduces_gap(tmp_path):
    scn = tmp_path / "two_routes.scn"
    scn.write_text(TWO_ROUTES)
    out = tmp_path / "out"
    assert main(["solve", str(scn), "--tol", "1e-3", "--out", str(out)]) == 0
    assert main(["oracle", str(scn), "--out", str(out)]) == 0
    summary = _read_summary(out / "oracle_summary.txt")
    assert summary["shrinking"] == "true"
    # the re-ingested tables reproduce the solver's final gap
    solve_summary = _read_summary(out / "summary.txt")
    assert abs(float(summary["reingested_gap"]) - float(solve_summary["gap"])) < 1e-9


@pytest.mark.parametrize("command", ["load", "solve", "solve-dtc", "oracle"])
def test_seed_is_rejected_where_nothing_is_random(command, tmp_path, capsys):
    scn = tmp_path / "dtc.scn"
    scn.write_text(DTC)
    with pytest.raises(SystemExit) as exc:
        main([command, str(scn), "--seed", "1", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_check_still_takes_a_seed(tmp_path):
    scn = tmp_path / "model.scn"
    scn.write_text(BAD_MODEL)
    out = tmp_path / "out"
    assert main(["check", str(scn), "--probes", "5", "--seed", "3", "--out", str(out)]) == 0
    assert _read_summary(out / "summary.txt")["all_passed"] == "true"


@pytest.mark.parametrize("text, argv", [
    (DTC.replace("horizon 4", "horizon 0"), ["load"]),
    (DTC.replace("horizon 4", "horizon"), ["load"]),
    (DTC.replace("bottleneck free_flow=0.5 capacity=1", "arc_performance delay=0:1,8"), ["load"]),
    (DTC, ["solve", "--bins", "0"]),
    (DTC, ["solve-dtc", "--bins", "0"]),
    (DTC, ["solve", "--max-iters", "0"]),
    (DTC, ["solve-dtc", "--max-iters", "0"]),
    (DTC, ["check", "--probes", "0"]),
    (DTC, ["oracle", "--dt", "-1"]),
    (DTC, ["oracle", "--dt", "0"]),
    (DTC, ["solve", "--tol", "0"]),
    (DTC, ["solve-dtc", "--tol", "nan"]),
], ids=["horizon-0", "horizon-bare", "delay-pair-no-colon", "solve-bins-0", "dtc-bins-0",
        "solve-iters-0", "dtc-iters-0", "probes-0", "dt-negative", "dt-0", "solve-tol-0",
        "dtc-tol-nan"])
def test_out_of_range_inputs_exit_2(text, argv, tmp_path, capsys):
    # a scenario error returns 2 from main; an option argparse rejects exits 2
    scn = tmp_path / "dtc.scn"
    scn.write_text(text)
    try:
        code = main([argv[0], str(scn), *argv[1:], "--out", str(tmp_path / "o")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
