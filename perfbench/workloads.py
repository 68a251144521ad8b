"""Benchmark workloads and the checks made on the outputs of each run.

A workload is a shipped spec plus CLI-level overrides, run as
``cauchylab.cli.run(CommandInvocation(...))``.  Everything checked here is
read back from the files the run wrote, so the checks need nothing from
inside the program.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# The program seed only moves the chi:4 anchors.  Reference values are
# recorded for this many program seeds, and the benchmark seed picks one.
REFERENCE_SEEDS = 4
# Per-column max-norm relative distance allowed from the reference.
REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str    # "all" runs with --assert-theorem
    spec: str          # relative to the checkout root
    overrides: tuple   # CLI-level --set assignments
    expected: dict     # summary.txt verdict lines, by label


DICHOTOMY = ("criterion verdict", "cotlar verdict", "theorem agreement")

# The square needs its shipped resolutions 2048, 4096 and 8192: at
# 1024..4096 the adversarial sups climb only 2.7% and the cotlar verdict
# reads "stable", so a smaller square fails --assert-theorem.  The spiral is
# run one octave below its shipped 1024..4096, and the ellipse transform at
# half of 16384 nodes, to keep the whole benchmark inside its time budget;
# the spiral's verdicts hold there.  Why each workload is there is said in
# BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ellipse-transform-8k",
        subcommand="transform",
        spec="specs/ellipse.cspec",
        overrides=("sampling.n=8192",),
        expected={"criterion verdict": "n/a", "cotlar verdict": "n/a"}),
    Workload(
        name="spiral-dichotomy-2k",
        subcommand="all",
        spec="specs/spiral.cspec",
        overrides=("sampling.resolutions=512,1024,2048",),
        expected=dict(zip(DICHOTOMY, ("bounded", "stable", "yes")))),
    Workload(
        name="square-dichotomy",
        subcommand="all",
        spec="specs/square.cspec",
        overrides=(),
        expected=dict(zip(DICHOTOMY, ("unbounded", "growing", "yes")))),
)}


def read_verdicts(out: Path) -> dict:
    """The verdict lines of summary.txt, keyed by their label."""
    found = {}
    for line in (out / "summary.txt").read_text().splitlines():
        label, sep, value = line.partition(": ")
        if sep and label in DICHOTOMY:
            found[label] = value
    return found


def verdict_values(wl: Workload, out: Path) -> dict:
    """The values the verdicts, or the transform tables, are made of.

    For a dichotomy run ``cotlar_sup`` maps "n/f_tag" to the sup ratio and
    ``criterion_max`` maps each epsilon label, in the order scanned, to the
    largest score on it.  For a transform run each column maps
    "quantity/epsilon" to the max-norm or the sum of that table.
    """
    if wl.subcommand == "transform":
        return transform_values(out)
    sups = {}
    with open(out / "cotlar_sup.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            sups[f"{row['n']}/{row['f_tag']}"] = float(row["sup_ratio"])
    levels = {}
    with open(out / "criterion.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            best = levels.setdefault(row["epsilon"], 0.0)
            if row["branch_ok"] == "1":
                levels[row["epsilon"]] = max(best, float(row["score"]))
    return {"cotlar_sup": sups, "criterion_max": levels}


def transform_values(out: Path) -> dict:
    cols = {"max_norm": {}, "sum_re": {}, "sum_im": {}}
    with open(out / "transform.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = f"{row['quantity']}/{row['epsilon']}"
            re, im = float(row["re"]), float(row["im"])
            cols["max_norm"][key] = max(cols["max_norm"].get(key, 0.0),
                                        math.hypot(re, im))
            cols["sum_re"][key] = cols["sum_re"].get(key, 0.0) + re
            cols["sum_im"][key] = cols["sum_im"].get(key, 0.0) + im
    return cols


def margins(values: dict) -> dict:
    """Distances of the verdicts from their thresholds.

    growth_min is the smallest step ratio of the last three per-resolution
    family sups (growing needs each >= 1.10); spread is their relative range
    (stable needs < 0.25); lower_span is max/min over the lower half of the
    criterion profile (bounded needs <= 3).  A transform run has no verdict;
    its margins are reported as 0.
    """
    if "cotlar_sup" not in values:
        return {"growth_min": 0.0, "spread": 0.0, "lower_span": 0.0}
    by_n = {}
    for key, sup in values["cotlar_sup"].items():
        n = int(key.split("/", 1)[0])
        by_n[n] = max(by_n.get(n, 0.0), sup)
    agg = [by_n[n] for n in sorted(by_n)]
    tail = agg[-3:]
    profile = list(values["criterion_max"].values())
    lower = profile[len(profile) // 2:]
    return {
        "growth_min": min(b / a for a, b in zip(tail, tail[1:])),
        "spread": (max(agg) - min(agg)) / min(agg),
        "lower_span": max(lower) / min(lower) if min(lower) > 0.0 else math.inf,
    }


def reference_error(values: dict, reference: dict) -> float:
    """Largest per-column max-norm relative distance from the reference;
    infinite when the rows differ."""
    worst = 0.0
    for column, ref in reference.items():
        got = values.get(column, {})
        if got.keys() != ref.keys():
            return math.inf
        scale = max(abs(v) for v in ref.values())
        diff = max(abs(got[k] - ref[k]) for k in ref)
        if diff > 0.0:
            worst = max(worst, diff / scale if scale > 0.0 else math.inf)
    return worst


def digests(out: Path) -> dict:
    """sha256 of every file the run wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def code_digest(root: Path, wl: Workload) -> str:
    """Identifies the program and inputs a run used: the package sources,
    the subcommand, the spec and the overrides."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cauchylab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update((root / wl.spec).read_bytes())
    h.update("\0".join((wl.subcommand,) + wl.overrides).encode())
    return h.hexdigest()
