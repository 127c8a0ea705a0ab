"""The benchmark's workloads: the CLI arguments each one runs and the checks on its output.

Each workload computes its reference data once per run (`prepare`), then
checks every output with `check`, outside the timed region.  No check
compares against a stored copy of an earlier output: every expected value
comes from oracles.py or from a property of the paper's class algebra.
"""

from __future__ import annotations

import csv
import random
from fractions import Fraction

import oracles

# Leftovers, residues and classes drawn for the sampled checks of one output.
SAMPLES = 200


class CheckError(AssertionError):
    """An output disagrees with the oracle or with a property it must have."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def markdown_tables(text: str) -> list[list[list[str]]]:
    """The tables of a markdown rendering, each as a header row plus data rows."""
    tables: list[list[list[str]]] = []
    current: list[list[str]] | None = None
    for line in text.splitlines():
        if not line.startswith("|"):
            current = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if all(c == "---" for c in cells):
            continue
        if current is None:
            current = []
            tables.append(current)
        current.append(cells)
    return tables


def csv_tables(text: str) -> dict[str, list[list[str]]]:
    """Title -> header plus rows, for a CSV rendering of titled tables."""
    out: dict[str, list[list[str]]] = {}
    for block in text.split("\n\n"):
        lines = block.strip("\n").split("\n")
        expect(lines[0].startswith("# "), f"CSV block without a title line: {lines[0]!r}")
        out[lines[0][2:]] = list(csv.reader(lines[1:]))
    return out


class Workload:
    name: str
    argv: list[str]
    # Numbers the command certifies or classifies; the base of numbers_per_s.
    size: int
    # Processes that compute at once: a scan's pool workers, otherwise 1.
    workers = 1

    def prepare(self) -> None:
        """Compute the oracle data the checks need; untimed, once per run."""

    def check(self, text: str, rng: random.Random) -> None:
        raise NotImplementedError


class Scan(Workload):
    def __init__(self, name: str, lo: int, hi: int, depth: int, workers: int) -> None:
        self.name = name
        self.lo, self.hi, self.depth, self.workers = lo, hi, depth, workers
        self.size = hi - lo + 1
        self.argv = ["scan", str(lo), str(hi), "--depth", str(depth), "--workers", str(workers)]

    def prepare(self) -> None:
        # One representative per residue class met in the range: the first
        # member at or above lo.  Walking only those keeps a range shorter
        # than one 2^depth period from paying for the whole period.
        modulus = 1 << self.depth
        first_period_end = min(self.hi, self.lo + modulus - 1)
        self.leftover_firsts = [
            n
            for n in range(self.lo | 1, first_period_end + 1, 2)
            if not oracles.parity_walk_resolves(n, self.depth)
        ]
        self.leftovers = sum((self.hi - n) // modulus + 1 for n in self.leftover_firsts)

    def check(self, text: str, rng: random.Random) -> None:
        tables = markdown_tables(text)
        expect(len(tables) == 1, f"expected one summary table, got {len(tables)}")
        header, *rows = tables[0]
        expect(len(rows) == 1, "summary table must hold one row")
        row = dict(zip(header, rows[0]))
        expect(
            (int(row["Lo"]), int(row["Hi"]), int(row["Depth"])) == (self.lo, self.hi, self.depth),
            f"summary echoes the wrong range or depth: {row}",
        )
        verified, skipped = int(row["Verified"]), int(row["Skipped"])
        expect(int(row["Failures"]) == 0, f"scan reported {row['Failures']} failures")
        expect(verified + skipped == self.size, "verified + skipped != range size")
        expect(
            skipped == self.size - self.leftovers,
            f"skipped {skipped}, oracle counts {self.size - self.leftovers} resolved members",
        )
        max_steps, max_n = int(row["Max descent steps"]), int(row["At n"])
        expect(self.lo <= max_n <= self.hi, f"max_descent_n {max_n} outside the range")
        expect(
            not oracles.parity_walk_resolves(max_n, self.depth),
            f"max_descent_n {max_n} is not a leftover",
        )
        word, _ = oracles.descent_steps(max_n)
        expect(
            len(word) == max_steps,
            f"{max_n} descends in {len(word)} steps, report says {max_steps}",
        )
        modulus = 1 << self.depth
        for _ in range(SAMPLES):
            first = rng.choice(self.leftover_firsts)
            n = first + modulus * rng.randrange((self.hi - first) // modulus + 1)
            steps = len(oracles.descent_steps(n)[0])
            expect(steps <= max_steps, f"leftover {n} needs {steps} > {max_steps} steps")


class Classify(Workload):
    def __init__(self, name: str, depth: int) -> None:
        self.name = name
        self.depth = depth
        self.size = 1 << depth
        self.argv = ["classify", "--depth", str(depth), "--format", "csv"]

    def prepare(self) -> None:
        self.classes, self.unresolved = oracles.count_parity_words(self.depth)

    def check(self, text: str, rng: random.Random) -> None:
        tables = csv_tables(text)
        residue_title = f"Unresolved residues mod 2^{self.depth}"
        expect(
            set(tables) == {"Classification summary", "Classes", residue_title},
            f"unexpected tables {sorted(tables)}",
        )
        (s_head, s_row) = tables["Classification summary"]
        summary = dict(zip(s_head, s_row))
        class_rows = tables["Classes"][1:]
        residues = [int(r[0]) for r in tables[residue_title][1:]]

        expect(int(summary["Depth"]) == self.depth, f"summary depth {summary['Depth']}")
        expect(
            int(summary["Classes"]) == len(class_rows) == self.classes,
            f"classes: summary {summary['Classes']}, rows {len(class_rows)}, oracle {self.classes}",
        )
        expect(
            int(summary["Unresolved residues"]) == len(residues) == self.unresolved,
            f"unresolved: summary {summary['Unresolved residues']}, rows {len(residues)}, "
            f"oracle {self.unresolved}",
        )
        # sum 2^-j over the classes plus unresolved / 2^depth == 1, in integers
        covered = sum(self.size >> int(r[3]) for r in class_rows)
        expect(covered + len(residues) == self.size, "class measure + unresolved share != 1")
        expect(
            Fraction(summary["Resolved measure"]) == Fraction(covered, self.size),
            f"printed measure {summary['Resolved measure']} != sum of 2^-j",
        )
        expect(
            all(a < b for a, b in zip(residues, residues[1:]))
            and all(r & 1 for r in residues)
            and residues[-1] < self.size,
            "unresolved residues are not sorted distinct odd residues",
        )

        listed = set(residues)
        for r in rng.sample(residues, SAMPLES):
            expect(not oracles.parity_walk_resolves(r, self.depth), f"listed residue {r} resolves")
        drawn = 0
        while drawn < SAMPLES:
            r = rng.randrange(1, self.size, 2)
            if r not in listed:
                drawn += 1
                expect(oracles.parity_walk_resolves(r, self.depth), f"unlisted residue {r} is open")

        # Spacing law: member x + 2^j*k traces the class pattern and first
        # drops to y0 + 3^i*k.
        for row in rng.sample(class_rows, SAMPLES):
            pattern, length, i, j, modulus, x, m, y0 = row[0], *map(int, row[1:8])
            expect(
                (length, i, j, modulus) == (len(pattern), pattern.count("O"), pattern.count("E"), 1 << j),
                f"class row {row} inconsistent with its pattern",
            )
            expect(3**i * x + m == y0 * modulus, f"class row {row}: 3^i*x + m != y0*2^j")
            subset = f"2^{j}*k+{x}" if x else "2*k" if j == 1 else f"2^{j}*k"
            expect(row[8] == subset, f"class row {row}: subset should read {subset}")
            k = rng.randrange(1, 1 << 20)
            word, lower = oracles.descent_steps(x + modulus * k)
            expect(word == pattern, f"{x} + 2^{j}*{k} traces {word}, class says {pattern}")
            expect(lower == y0 + 3**i * k, f"{x} + 2^{j}*{k} drops to {lower}, not y0 + 3^{i}*{k}")


class Records(Workload):
    def __init__(self, name: str, lo: int, hi: int) -> None:
        self.name = name
        self.lo, self.hi = lo, hi
        self.size = hi - lo + 1
        self.argv = ["records", str(lo), str(hi)]

    def prepare(self) -> None:
        self.expected = oracles.running_maxima(self.lo, self.hi)

    def check(self, text: str, rng: random.Random) -> None:
        tables = markdown_tables(text)
        expect(len(tables) == 1, f"expected one records table, got {len(tables)}")
        header, *rows = tables[0]
        expect(header == ["n", "Descent steps"], f"records header {header}")
        got = [(int(n), int(s)) for n, s in rows]
        expect(got == self.expected, "records differ from the direct running maxima")
        expect((27, 96) in got, "records lack (27, 96)")


class NoWork(Workload):
    """`class E`: interpreter start, import and parser build, with no domain work."""

    name = "setup"
    argv = ["class", "E"]
    size = 1

    def check(self, text: str, rng: random.Random) -> None:
        tables = markdown_tables(text)
        # the even class: one E step, modulus 2, offset 0, adder 0, y0 0
        expect(
            len(tables) == 1 and tables[0][1:] == [["E", "1", "0", "1", "2", "0", "0", "0", "2*k"]],
            f"class E printed {tables}",
        )


WORKLOAD_NAMES = ("scan-d16", "scan-deep", "classify-d22", "records")


def make_workload(name: str, rng: random.Random) -> Workload:
    if name == "scan-d16":
        return Scan(name, 2, 10_000_000, depth=16, workers=2)
    if name == "scan-deep":
        lo = 10**12 + rng.randrange(10**9)
        return Scan(name, lo, lo + 2_000_000, depth=22, workers=1)
    if name == "classify-d22":
        return Classify(name, depth=22)
    if name == "records":
        return Records(name, 2, 200_000)
    raise ValueError(f"unknown workload {name!r}")
