"""CLI surface: exit codes, formats, env overrides."""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from collatz_descent import cli, scanner
from collatz_descent.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_feasibility_csv(capsys):
    code, out, err = run(capsys, "feasibility", "--max-length", "37", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 26  # header + 25 data rows
    assert lines[4] == "4,2,7,6,Possible"


def test_class_command(capsys):
    code, out, _ = run(capsys, "class", "OEOEEOEE", "--format", "csv")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[:8] == ["OEOEEOEE", "8", "3", "5", "32", "11", "23", "10"]


def test_class_usage_error_on_unparsable_pattern(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["class", "XYZ"])
    assert exc.value.code == 2
    assert "pattern" in capsys.readouterr().err


def test_class_domain_error_on_unrealizable_pattern(capsys):
    code, out, err = run(capsys, "class", "OOE")
    assert code == 1
    assert "error:" in err and out == ""


def test_trace_domain_error(capsys):
    code, _, err = run(capsys, "trace", "1")
    assert code == 1
    assert "error:" in err


def test_trace_twin_default_is_exact(capsys):
    code, out, _ = run(capsys, "trace", "27", "--mode", "twin", "--format", "csv")
    assert code == 0
    assert "150094635296999121" in out
    assert "576460752303423515" in out
    assert "E+17" not in out


def test_trace_twin_paper_style(capsys):
    code, out, _ = run(capsys, "trace", "27", "--mode", "twin", "--format", "csv", "--paper-style")
    assert code == 0
    assert "1,50095E+17" in out


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    offsets = [row[5] for row in payload["tables"][0]["rows"]]
    assert offsets == [11, 23]


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "2", "1000", "--depth", "5", "--workers", "1", "--format", "json")
    assert code == 0
    summary = json.loads(out)["tables"][0]
    row = dict(zip(summary["columns"], summary["rows"][0]))
    assert row["Verified"] + row["Skipped"] == 999
    assert row["Failures"] == 0


def _raise(exc):
    def fake_scan(*args, **kwargs):
        raise exc

    return fake_scan


def test_scan_dead_worker_is_a_clean_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sieve_scan", _raise(BrokenProcessPool("a worker died")))
    code, out, err = run(capsys, "scan", "2", "1000")
    assert (code, out, err) == (1, "", "error: a worker died\n")


def test_scan_real_worker_death_is_a_clean_error(capsys, monkeypatch):
    # forked workers inherit the patched kernel and die on their first block
    assert multiprocessing.get_start_method() == "fork"
    parent = os.getpid()

    def die(*args):
        if os.getpid() != parent:
            os._exit(1)

    monkeypatch.setattr(scanner, "_scan_block", die)
    code, out, err = run(capsys, "scan", "2", "300000", "--depth", "5", "--workers", "2")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_scan_workers_default_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.build_parser().parse_args(["scan", "2", "3"]).workers == 1


def test_scan_interrupt_is_a_clean_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sieve_scan", _raise(KeyboardInterrupt()))
    code, out, err = run(capsys, "scan", "2", "1000")
    assert (code, out, err) == (1, "", "interrupted\n")


def test_scan_bad_range(capsys):
    code, _, err = run(capsys, "scan", "10", "2")
    assert code == 1
    assert "error:" in err


def test_records_command(capsys):
    code, out, _ = run(capsys, "records", "2", "30", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[-1] == "27,96"


def test_report_names(capsys):
    for name in ("cycle-length", "length6", "length8", "seq27"):
        code, out, _ = run(capsys, "report", name, "--format", "csv")
        assert code == 0
        assert out


def test_report_seq27_has_step_77(capsys):
    code, out, _ = run(capsys, "report", "seq27", "--format", "csv")
    assert code == 0
    assert any(line.startswith("77,") for line in out.split("\n"))


def test_step_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COLLATZ_STEP_CAP", "10")
    code, _, err = run(capsys, "trace", "27")
    assert code == 1
    assert "10 steps" in err


def test_records_step_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COLLATZ_STEP_CAP", "10")
    code, out, err = run(capsys, "records", "2", "30")
    assert code == 1
    assert "10 steps" in err and out == ""


def test_step_cap_env_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("COLLATZ_STEP_CAP", "lots")
    with pytest.raises(SystemExit) as exc:
        main(["trace", "27"])
    assert exc.value.code == 2


def test_usage_error_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_markdown_default_format(capsys):
    code, out, _ = run(capsys, "feasibility", "--max-length", "3")
    assert code == 0
    assert out.startswith("| E ops |")
