"""Checked-in sweeps: one spec run once per point of the Cartesian
product of override values, each point a plain in-process ``cli.run`` of
``all`` into its own directory, and one CSV row per point read back from
the files the point wrote.

A sweep file is a spec with a [sweep] section whose lines
``vary = SEC.KEY=V1|V2|...`` are its axes; ``cauchylab sweep --vary``
adds more.  The shipped sweeps are in specs/sweeps/.  Reruns write the
same bytes, as every run does.
"""

from __future__ import annotations

import csv
import io
import sys
from itertools import product
from pathlib import Path

from .cli import EXIT_OK, EXIT_VALIDATION, CommandInvocation, run
from .curves import write_text
from .errors import ValidationError

__all__ = ["SWEEP_COLUMNS", "run_sweep"]

SWEEP_COLUMNS = ("status", "eps0", "criterion", "cotlar", "profile_tail",
                 "family_sup")


def _sweep_parts(text: str):
    """The base spec and the axes of a sweep file: the lines of its [sweep]
    section, each ``vary = SEC.KEY=V1|V2|...``, are axes; every other line
    is the base spec's."""
    base, axes, in_sweep = [], [], False
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            in_sweep = body == "[sweep]"
            if in_sweep:
                continue
        if not in_sweep:
            base.append(line)
        elif body:
            key, sep, axis = body.partition("=")
            if key.strip() != "vary" or not sep:
                raise ValidationError(f"[sweep] line {body!r} is not vary = SEC.KEY=V1|V2|...")
            axes.append(axis.strip())
    return "\n".join(base) + "\n", axes


def _sweep_axis(text: str):
    """(SEC.KEY, values) of one SEC.KEY=V1|V2|... axis."""
    target, sep, values = text.partition("=")
    values = [v.strip() for v in values.split("|")]
    if not sep or "." not in target or not all(values):
        raise ValidationError(f"axis {text!r} is not SEC.KEY=V1|V2|...")
    return target.strip(), values


def _sweep_row(status: int, out: Path) -> list:
    """The SWEEP_COLUMNS of one point, read back from the files its run
    wrote: only its status when it failed."""
    if status != EXIT_OK:
        return [status, "", "", "", "", ""]
    summary = dict(line.split(": ", 1) for line in
                   (out / "summary.txt").read_text().splitlines()
                   if ": " in line)
    verdicts = [summary["criterion verdict"], summary["cotlar verdict"]]
    profile, sups = {}, {}
    if verdicts[0] != "n/a":
        with open(out / "criterion.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                best = profile.setdefault(row["epsilon"], 0.0)
                if row["branch_ok"] == "1":
                    profile[row["epsilon"]] = max(best, float(row["score"]))
    if verdicts[1] != "n/a":
        with open(out / "cotlar_sup.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                sups[row["n"]] = max(sups.get(row["n"], 0.0), float(row["sup_ratio"]))
    tail = list(profile.items())[-3:]
    return [status, summary["smallness threshold"], *verdicts,
            ";".join(f"{k}={v:.17g}" for k, v in tail),
            ";".join(f"{n}={v:.17g}" for n, v in sups.items())]


def run_sweep(spec_path: str, varies, out_dir: str, overrides=(),
              seed: int | None = None) -> int:
    """Run the spec once per point of the Cartesian product of its axes:
    those of its [sweep] section, then the given SEC.KEY=V1|V2|... varies
    (the first axis varies slowest).  Point i runs ``all`` in-process, with
    the overrides and then the point's values, into out_dir/point-NNN; the
    base spec goes to out_dir/base.cspec and one row per point to
    out_dir/sweep.csv: the point's values and SWEEP_COLUMNS, where a point
    that fails has its exit status and nothing else.  Returns the exit
    status of the sweep itself."""
    try:
        base_text, axes = _sweep_parts(Path(spec_path).read_text())
        axes = [_sweep_axis(a) for a in axes + list(varies)]
    except OSError as exc:
        print(f"code:{EXIT_VALIDATION} cannot read spec: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"code:{EXIT_VALIDATION} {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not axes:
        print(f"code:{EXIT_VALIDATION} a sweep needs at least one axis",
              file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = out / "base.cspec"
    write_text(base, [base_text])
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow([target for target, _ in axes] + list(SWEEP_COLUMNS))
    for i, point in enumerate(product(*[values for _, values in axes])):
        point_dir = out / f"point-{i:03d}"
        given = tuple(overrides) + tuple(
            f"{target}={value}" for (target, _), value in zip(axes, point))
        status = run(CommandInvocation("all", str(base), str(point_dir),
                                       given, seed=seed))
        writer.writerow(list(point) + _sweep_row(status, point_dir))
    write_text(out / "sweep.csv", [table.getvalue()])
    return EXIT_OK
