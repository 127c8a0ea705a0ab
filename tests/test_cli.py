"""CLI surface: exit codes, formats, env overrides."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from collatz_descent import cli, scanner
from collatz_descent.cli import main
from collatz_descent.patterns import enumerate_minimal_patterns, residue_for_pattern, unresolved_leaves
from collatz_descent.reports import (
    FORMATS,
    REPORT_NAMES,
    classes_report,
    classify_report,
    feasibility_report,
    named_report,
    records_report,
    render,
    scan_report_tables,
    trace_report,
)
from collatz_descent.scanner import classify_depth, record_search, sieve_scan


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


def test_class_domain_error_on_a_smallest_member_that_does_not_descend(capsys):
    assert run(capsys, "class", "OEEOEOEEEOEOE") == (
        1,
        "",
        "error: 'OEEOEOEEEOEOE': smallest member 25 ends at 26 >= 25\n",
    )


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


# test_reports.test_outputs_keep_their_golden_digests pins the library route's depth-22 tables to these
GOLDEN_22 = {
    "csv": "963818cca7c26904b2e453ab74ed7e0c109e63d7ab955a21a1cc36da7427b729",
    "markdown": "451de519e4c5731f206a5d833f8cf688c0344390132ec3a1996f2709dbb8c6bb",
    "json": "df75c1ef50fdb29b3458c5ba45a55e8d44b57519e8c64f5899f48c39e81a63a6",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_classify_command(capsys, fmt):
    # every doubling depth up to 22 (3, 6, 9, 11, 14, 17, 19, 22) is printed
    # from a walk one level up
    for depth in [*range(1, 21), 22]:
        code, out, err = run(capsys, "classify", "--depth", str(depth), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == render(classify_report(classify_depth(depth)), fmt), depth
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_22[fmt]


def test_classify_walks_only_to_the_last_pruning_level(capsys, monkeypatch):
    walked = []

    def recording(depth):
        leaves = unresolved_leaves(depth)
        walked.append(leaves.leaf_depth)
        return leaves

    monkeypatch.setattr(scanner, "unresolved_leaves", recording)
    for depth, walks in ((22, [21]), (24, [24]), (3, [2])):
        walked.clear()
        code, _, err = run(capsys, "classify", "--depth", str(depth), "--format", "csv")
        assert (code, err, walked) == (0, "", walks)


def test_classify_depth_out_of_bounds(capsys):
    assert run(capsys, "classify", "--depth", "0") == (1, "", "error: depth must be >= 1\n")
    assert run(capsys, "classify", "--depth", "25") == (
        1,
        "",
        "error: depth 25 exceeds the configured maximum 24\n",
    )


def test_scan_depth_out_of_bounds(capsys):
    assert run(capsys, "scan", "2", "100", "--depth", "25") == (
        1,
        "",
        "error: depth 25 exceeds the configured maximum 24\n",
    )
    assert run(capsys, "scan", "2", "100", "--depth", "-1") == (1, "", "error: depth must be >= 0\n")


def _untimed(report):
    """The report with its timing fields zeroed, so that its Wall ms cell reads 0."""
    return report._replace(wall_time=0.0, setup_time=0.0)


# each command's argv and the library tables its output must render
COMMANDS = [
    (["feasibility"], lambda: feasibility_report(37)),
    *(
        (["trace", "27", "--mode", mode], lambda mode=mode: trace_report(27, mode))
        for mode in ("descent", "full", "twin")
    ),
    (
        ["trace", "27", "--mode", "twin", "--paper-style"],
        lambda: trace_report(27, "twin", paper_style=True),
    ),
    (["enumerate", "8"], lambda: classes_report(enumerate_minimal_patterns(8))),
    (["class", "OEOEEOEE"], lambda: classes_report([residue_for_pattern("OEOEEOEE")])),
    (["classify", "--depth", "8"], lambda: classify_report(classify_depth(8))),
    (["records", "2", "3000"], lambda: records_report(record_search(2, 3000))),
    *((["report", name], lambda name=name: named_report(name)) for name in REPORT_NAMES),
    (
        ["scan", "2", "3000", "--workers", "1"],
        lambda: scan_report_tables(_untimed(sieve_scan(2, 3000, workers=1))),
    ),
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv, tables", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_every_command_prints_the_library_tables(capsys, monkeypatch, argv, tables, fmt):
    monkeypatch.setattr(cli, "sieve_scan", lambda *args, **kwargs: _untimed(sieve_scan(*args, **kwargs)))
    assert run(capsys, *argv, "--format", fmt) == (0, render(tables(), fmt), "")


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


def test_scan_dead_worker_is_a_clean_error(capsys, forks, monkeypatch):
    # the forked workers run the patched kernel and kill themselves
    monkeypatch.setattr(scanner, "_scan_block", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    code, out, err = run(capsys, "scan", "2", "300000", "--depth", "5", "--workers", "2")
    assert (code, out) == (1, "")
    assert err in {f"error: scan worker {pid} ended with blocks unfinished (killed by SIGKILL)\n" for pid in forks}
    assert len(forks) == 2


def test_scan_unstartable_pool_is_a_clean_error(capsys, unforkable):
    code, out, err = run(capsys, "scan", "2", "300000", "--depth", "5", "--workers", "2")
    assert (code, out, err) == (1, "", "error: [Errno 11] Resource temporarily unavailable\n")


def test_scan_without_fork_needs_one_worker(capsys, monkeypatch):
    # a platform without fork (Windows) has no os.fork
    monkeypatch.delattr(os, "fork")
    argv = ["scan", "2", "300000", "--depth", "5"]
    assert run(capsys, *argv, "--workers", "2") == (
        1,
        "",
        "error: a scan on 2 workers needs os.fork, which this platform lacks: use --workers 1\n",
    )
    assert run(capsys, *argv, "--workers", "1")[0] == 0


def test_scan_real_worker_death_is_a_clean_error(capsys, monkeypatch, forks):
    # forked workers inherit the patched kernel and die on their first block,
    # whatever multiprocessing's start method: the scan forks them itself
    parent = os.getpid()

    def die(*args):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("a block ran in the parent: no worker was forked")

    monkeypatch.setattr(scanner, "_scan_block", die)
    code, out, err = run(capsys, "scan", "2", "300000", "--depth", "5", "--workers", "2")
    assert (code, out) == (1, "")
    assert len(forks) == 2
    unfinished = "ended with blocks unfinished (exit status 1)"
    assert err in {f"error: scan worker {pid} {unfinished}\n" for pid in forks}


def test_scan_other_runtime_errors_propagate(monkeypatch):
    monkeypatch.setattr(cli, "sieve_scan", _raise(RecursionError("deep")))
    with pytest.raises(RecursionError, match="deep"):
        main(["scan", "2", "1000"])


def test_cli_import_leaves_the_process_pool_out():
    # a scan forks its workers itself: neither the import nor a scan on two
    # workers loads the standard library's process pool
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, collatz_descent.cli\n"
        "pool = {'concurrent', 'multiprocessing'}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & pool))\n"
        "code = collatz_descent.cli.main(['scan', '2', '300000', '--depth', '5', '--workers', '2'])\n"
        "print(code, sorted({m.split('.')[0] for m in sys.modules} & pool))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    lines = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"
    assert lines[5].startswith("| 2 | 300000 | 5 | 37500 | 262499 | 0 |")


def test_start_up_imports_only_what_the_command_uses():
    # json, csv, fractions and decimal load inside the functions that use them
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, collatz_descent.cli\n"
        "lazy = {'json', 'csv', 'fractions', 'decimal'}\n"
        "print(sorted(lazy & set(sys.modules)))\n"
        "collatz_descent.cli.main(['class', 'E'])\n"
        "print(sorted(lazy & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    lines = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert lines[3].startswith("| E | 1 | 0 | 1 | 2 |")


def test_the_process_entry_freezes_the_heap_its_imports_built():
    # `python -m collatz_descent` runs cli.run(), which moves every object
    # alive after the imports to the permanent generation before main()
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
        "runpy.run_module('collatz_descent', run_name='__main__')"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", probe, "class", "E"], env=env, capture_output=True, text=True, check=True
    )
    assert "| E | 1 | 0 | 1 | 2 |" in proc.stdout
    assert int(proc.stderr) > 0


def test_main_in_process_leaves_the_collector_as_it_finds_it(capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    code, _, _ = run(capsys, "class", "E")
    assert code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_classify_as_csv_imports_neither_fractions_nor_csv():
    # the measure cell is reduced with math.gcd, and only a chunk that
    # csv.writer could write otherwise imports csv, as seq27's quoted adders do
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, collatz_descent.cli\n"
        "code = collatz_descent.cli.main(sys.argv[1:])\n"
        "print(code, sorted({'fractions', 'decimal', 'csv'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}

    def probed(*args):
        command = [sys.executable, "-c", probe, *args]
        return subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout

    out = probed("classify", "--depth", "12", "--format", "csv")
    assert out.startswith("# Classification summary\nDepth,Classes,Resolved measure,Unresolved residues\n12,")
    assert out.endswith("\n0 []\n")
    out = probed("report", "seq27", "--paper-style", "--format", "csv")
    assert '1,27,O,"1,50095E+17",' in out
    assert out.endswith("\n0 ['csv', 'decimal']\n")


def test_package_import_leaves_dataclasses_inspect_and_typing_out():
    # the records are namedtuples and __slots__ classes.  Under -S no site
    # module loads anything first.  cli is left out: argparse may import
    # dataclasses itself on newer Pythons.
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, collatz_descent, collatz_descent.reports\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_a_clean_exit(unbuffered):
    # a reader that stops early (`| head`) closes the pipe while the
    # command still writes: exit 1, and nothing on stderr
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = [sys.executable, "-m", "collatz_descent", "classify", "--depth", "20", "--format", "csv"]
    # leaving the with block closes both pipes and reaps the child
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    assert head.startswith(b"# Classification summary\n")
    assert b"Traceback" not in err
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "command", [["feasibility"], ["classify", "--depth", "12"]], ids=["feasibility", "classify"]
)
def test_full_stdout_is_one_error_line(command, unbuffered):
    # a stdout whose disk is full fails its writes: exit 1, and one error
    # line with no traceback, whether the tables fail mid-write (classify)
    # or only on the last flush (feasibility's one small write)
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = [sys.executable, "-m", "collatz_descent", *command]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith("\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_write_to_stdout_leaves_no_descriptor_open(capsys, monkeypatch):
    # main() points a stdout that takes no more at devnull, through a
    # descriptor of its own, which it must close again: else each call
    # in-process leaves one more open
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read, write = os.pipe()
        os.close(read)
        out = open(write, "w")
        monkeypatch.setattr(sys, "stdout", out)
        try:
            assert main(["feasibility"]) == 1
        finally:
            out.close()
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("reader_stays", [True, False], ids=["reader-stays", "reader-closes"])
def test_short_write_to_an_unbuffered_stdout_is_retried(capsys, monkeypatch, reader_stays):
    # under PYTHONUNBUFFERED or -u, sys.stdout's buffer is the raw file.  The
    # pipe takes 23 bytes of the first write, then its reader reads on or
    # closes it.  `enumerate 2` prints a table head and no rows, in one write
    read, write = os.pipe()

    class Pipe(io.RawIOBase):
        short = True

        def writable(self):
            return True

        def fileno(self):
            return write

        def write(self, data):
            if not self.short:
                return os.write(write, data)
            self.short = False
            taken = os.write(write, data[:23])
            if not reader_stays:
                os.close(read)
            return taken

    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(Pipe(), write_through=True))
    try:
        code = main(["enumerate", "2"])
    finally:
        os.close(write)
    assert capsys.readouterr().err == ""
    if reader_stays:
        with os.fdopen(read, "rb") as reader:
            received = reader.read()
        expected = render(classes_report(enumerate_minimal_patterns(2)), "markdown").encode()
        assert len(expected) > 23
        assert (code, received) == (0, expected)
    else:
        assert code == 1


@pytest.mark.parametrize(
    "command", ["feasibility", "trace", "enumerate", "class", "classify", "scan", "records", "report"]
)
def test_every_command_offers_every_format(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    assert "--format {markdown,csv,json}" in capsys.readouterr().out


def test_enumerate_42_keeps_its_digest(capsys):
    # the deepest walk of the suite, 26 halvings for length 42
    code, out, err = run(capsys, "enumerate", "42", "--format", "csv")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "05f2570b30c52044655e7a1f6ee1017225c5e9387a436d8f84d254a59131a320"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
def test_classify_depth_24_streams_below_40_mb():
    # tables stream to stdout a chunk of rows at a time: depth 24 peaked at
    # 120 MB when its output was rendered whole, at 48 MB while the replayed
    # classes were kept as tuples, and at 32 MB on Python 3.11 and 3.13 with
    # only their texts and y0s.  A fresh wrapper has the command for its only
    # child, so RUSAGE_CHILDREN reads that command's peak alone
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import resource, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'collatz_descent', 'classify', '--depth', '24', '--format', 'csv']\n"
        "subprocess.run(argv, stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout
    assert int(out) / 1024 < 40


def test_scan_workers_default_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.build_parser().parse_args(["scan", "2", "3"]).workers == 1


def test_scan_interrupt_is_a_clean_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sieve_scan", _raise(KeyboardInterrupt()))
    code, out, err = run(capsys, "scan", "2", "1000")
    assert (code, out, err) == (1, "", "interrupted\n")


def children(pid):
    """The pids of process pid's children; none once it has gone."""
    try:
        return "".join(p.read_text() for p in Path(f"/proc/{pid}/task").glob("*/children")).split()
    except FileNotFoundError:
        return []


def scan_workers(pid):
    """Process pid's scan workers: the children it forked itself.

    A multiprocessing helper that the process started, such as a
    forkserver, is a child too, and is left out: its command line names
    multiprocessing, while a forked worker's repeats the scan's.
    """
    workers = []
    for child in children(pid):
        try:
            helper = b"from multiprocessing" in Path(f"/proc/{child}/cmdline").read_bytes()
        except FileNotFoundError:
            continue
        if not helper:
            workers.append(child)
    return workers


def wait_for_workers(pid, count, timeout=60):
    """Wait until process pid has forked count scan workers; return their pids."""
    deadline = time.monotonic() + timeout
    while True:
        workers = scan_workers(pid)
        if len(workers) >= count:
            return workers
        assert time.monotonic() < deadline, "the scan's workers never started"
        time.sleep(0.01)


def signal_blocked(pid, sig):
    """Whether process pid's signal mask blocks signal sig."""
    status = Path(f"/proc/{pid}/status").read_text()
    mask = next(line for line in status.splitlines() if line.startswith("SigBlk:"))
    return bool(int(mask.split()[1], 16) >> (sig - 1) & 1)


def alive(pid):
    """Whether process pid exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


FORKSERVER = "multiprocessing.set_start_method('forkserver', force=True)"


@pytest.mark.parametrize(
    "to_the_group, prelude",
    [
        pytest.param(True, None, id="True"),
        pytest.param(False, None, id="False"),
        # Python 3.14's default start method on Linux, which the scan's own
        # forks must not depend on
        pytest.param(True, FORKSERVER, id="True-forkserver"),
        # a forkserver started before the scan, with SIGINT unblocked; only
        # the parent is signalled, as the helpers may still be starting
        pytest.param(
            False,
            FORKSERVER + "\nmultiprocessing.forkserver.ensure_running()",
            id="False-forkserver-running",
        ),
    ],
)
def test_scan_real_ctrl_c_is_a_clean_exit(to_the_group, prelude):
    # a terminal's Ctrl-C signals the whole process group, workers included;
    # kill -INT signals the parent alone
    src = Path(cli.__file__).resolve().parents[1]
    cli_argv = [sys.executable, "-m", "collatz_descent"]
    if prelude:
        cli_argv[1:] = [
            "-c",
            f"import multiprocessing.forkserver, runpy\n{prelude}\n"
            "runpy.run_module('collatz_descent', run_name='__main__')",
        ]
    proc = subprocess.Popen(
        cli_argv + ["scan", "2", "1000000000", "--depth", "16", "--workers", "2"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        workers = wait_for_workers(proc.pid, 2)
        blocked = [signal_blocked(w, signal.SIGINT) for w in workers]
        sent = time.monotonic()
        if to_the_group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            os.kill(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        waited = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert blocked == [True, True]
    assert (proc.returncode, out, err) == (1, "", "interrupted\n")
    assert waited < 5


@pytest.mark.parametrize("target", ["parent", "worker", "worker-term"])
def test_scan_real_sigterm_is_a_clean_exit(target):
    # kill PID, as a job scheduler sends it, signals the parent alone: it
    # takes Ctrl-C's path.  A worker killed outright, or sent a SIGTERM,
    # ends with blocks unfinished: the parent reports it, then SIGTERMs and
    # reaps the other worker.  No worker runs the parent's SIGTERM handler
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "collatz_descent", "scan", "2", "300000000", "--workers", "2"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    workers = []
    try:
        workers = wait_for_workers(proc.pid, 2)
        if target == "parent":
            os.kill(proc.pid, signal.SIGTERM)
        else:
            os.kill(int(workers[0]), signal.SIGKILL if target == "worker" else signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        deadline = time.monotonic() + 5
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [w for w in workers if alive(w)]
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        for w in workers:
            if alive(w):
                os.kill(int(w), signal.SIGKILL)
    assert survivors == []
    assert (proc.returncode, out) == (1, "")
    if target == "parent":
        assert err == "interrupted\n"
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_workers_end_when_the_parent_is_killed_outright():
    # SIGKILL leaves the parent no cleanup: a worker meets the end of the
    # task pipe, or a result pipe with no reader, and exits
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "collatz_descent", "scan", "2", "300000000", "--workers", "2"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    workers = []
    try:
        workers = wait_for_workers(proc.pid, 2)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [w for w in workers if alive(w)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for w in workers:
            if alive(w):
                os.kill(int(w), signal.SIGKILL)
    assert survivors == []


def test_main_runs_off_the_main_thread():
    # only the main thread may set a signal handler: elsewhere main leaves
    # SIGTERM's alone
    import threading

    before = signal.getsignal(signal.SIGTERM)
    result = []
    thread = threading.Thread(target=lambda: result.append(main(["class", "E", "--format", "csv"])))
    thread.start()
    thread.join()
    assert result == [0]
    assert signal.getsignal(signal.SIGTERM) is before


def test_scan_bad_range(capsys):
    code, _, err = run(capsys, "scan", "10", "2")
    assert code == 1
    assert "error:" in err


def test_records_command(capsys):
    code, out, _ = run(capsys, "records", "2", "30", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[-1] == "27,96"


def test_records_interrupt_inside_a_block_is_a_clean_exit(capsys, monkeypatch):
    # past 27 the search runs the scan's blocks
    monkeypatch.setattr(scanner, "_scan_block", _raise(KeyboardInterrupt()))
    code, out, err = run(capsys, "records", "2", "300000")
    assert (code, out, err) == (1, "", "interrupted\n")


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


def test_trace_full_step_cap(capsys, monkeypatch):
    # 27 reaches 1 in 111 steps
    monkeypatch.setenv("COLLATZ_STEP_CAP", "100")
    assert run(capsys, "trace", "27", "--mode", "full") == (
        1,
        "",
        "error: 27 did not reach 1 within 100 steps\n",
    )
    monkeypatch.setenv("COLLATZ_STEP_CAP", "111")
    code, out, err = run(capsys, "trace", "27", "--mode", "full", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.split("\n")[-3:] == ["111,2,E", ",1,", ""]


def test_records_step_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COLLATZ_STEP_CAP", "10")
    code, out, err = run(capsys, "records", "2", "30")
    assert code == 1
    assert "10 steps" in err and out == ""


def test_records_step_cap_hit_inside_a_block(capsys, monkeypatch):
    # 27 takes 96 steps and ends the every-n prefix; 703, the next record,
    # takes 132 and is the first leftover of the first block to fail
    monkeypatch.setenv("COLLATZ_STEP_CAP", "96")
    code, out, err = run(capsys, "records", "2", "300000")
    assert (code, out, err) == (1, "", "error: no value below 703 within 96 steps\n")


def test_step_cap_env_rejects_garbage(capsys, monkeypatch):
    for raw in ("lots", "0"):
        monkeypatch.setenv("COLLATZ_STEP_CAP", raw)
        with pytest.raises(SystemExit) as exc:
            main(["trace", "27"])
        assert exc.value.code == 2
        assert f"COLLATZ_STEP_CAP must be a positive integer, got {raw!r}" in capsys.readouterr().err


def test_usage_error_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_markdown_default_format(capsys):
    code, out, _ = run(capsys, "feasibility", "--max-length", "3")
    assert code == 0
    assert out.startswith("| E ops |")
