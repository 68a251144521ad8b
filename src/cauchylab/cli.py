"""Command-line front door: build curves, run diagnostics and scans from a
spec file, emit CSV reports and a verdict summary, and sweep a spec over
the Cartesian product of override values (``sweep``).

Exit statuses: 0 success, 2 validation error, 3 numerical-gate failure,
4 verdict mismatch under --assert-theorem.  Errors go to stderr with a
machine-parsable ``code:`` prefix.  Outputs are byte-identical across runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import click
import numpy as np

from . import __version__, curvespec, geometry, harness, operators
from .curves import (
    arclength_sample,
    patch_half_diameter,
    spiral_tail_series,
    write_curve_csv,
    write_lines,
    write_text,
)
from .errors import CauchyLabError, NumericalGateError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE = 3
EXIT_VERDICT = 4


@dataclass(frozen=True)
class CommandInvocation:
    """One resolved CLI request."""

    subcommand: str
    spec_path: str
    out_dir: str | None = None
    overrides: tuple = ()
    assert_theorem: bool = False
    seed: int | None = None


@dataclass
class _RunState:
    doc: curvespec.SpecDocument
    curve: object = None
    sample: object = None
    bilip: float | None = None
    eps0: float | None = None
    criterion_verdict: str | None = None
    cotlar_verdict: str | None = None
    first_function: np.ndarray | None = None
    levels: list | None = None
    notes: list = field(default_factory=list)


def _gated_levels(state: _RunState) -> list:
    """Dyadic (k, eps) levels of the configured range, trimmed by the
    smallness threshold when the curve has one (corner curves scan the full
    range); found once per run, for the criterion and sandwich scans."""
    if state.levels is not None:
        return state.levels
    doc = state.doc
    period = state.curve.period
    levels = [(k, period * 2.0 ** (-k))
              for k in range(doc.get("experiment", "k_min"),
                             doc.get("experiment", "k_max") + 1)]
    out = [(k, eps) for k, eps in levels
           if state.eps0 is None or eps <= state.eps0]
    if not out:
        out = levels
        state.notes.append("no dyadic level passed the smallness gate; criterion "
                           "and sandwich scan the full configured range")
    state.levels = out
    return out


def _run_build(state: _RunState, out: Path) -> None:
    state.sample = arclength_sample(state.curve, state.doc.get("sampling", "n"))
    for w in state.sample.warnings:
        state.notes.append(w)
    write_curve_csv(state.sample, out / "curve.csv")


def _run_diag(state: _RunState, out: Path) -> None:
    doc = state.doc
    report = geometry.diagnostics(
        state.sample,
        k_min=max(3, doc.get("experiment", "k_min") - 1),
        k_max=doc.get("experiment", "k_max"),
        eps0=state.eps0)
    write_lines(out / "diagnostics.csv", geometry.diagnostics_csv_rows(report))


def _first_function(state: _RunState) -> np.ndarray:
    """The first function of the configured tags, built once per run."""
    if state.first_function is None:
        sc = state.sample
        tags = state.doc.get("experiment", "functions")
        fam = harness.make_test_functions(
            sc, tags[:1], seed=state.doc.get("experiment", "seed"))
        state.first_function = fam[0].values
    return state.first_function


def _run_transform(state: _RunState, out: Path) -> None:
    sc = state.sample
    doc = state.doc
    f = _first_function(state)
    levels = operators.dyadic_levels(sc, doc.get("experiment", "k_min"),
                                     doc.get("experiment", "k_max"))
    # the kernel for g_z_eps rides in the same evaluator pass as f
    k_g = max(doc.get("experiment", "k_min"), 6)
    eps_g = dict(operators.dyadic_levels(sc, 1)).get(k_g)
    stack = [f]
    if eps_g is not None:
        stack.append(operators.truncated_kernel(sc, 0, eps_g))
    pvs, tables = operators.cauchy_family(sc, stack, [eps for _, eps in levels])
    table = [("T_eps", f"T*2^-{k}", t_eps)
             for (k, _), t_eps in zip(levels, tables[0])]
    table.append(("T_pv", "", pvs[0]))
    t_star = operators.maximal_of(tables[0])
    table.append(("T_star", "", t_star))
    m1 = operators.hl_maximal_all(sc, pvs[0])
    table.append(("M", "", m1))
    m2 = operators.hl_maximal_all(sc, m1)
    table.append(("M2", "", m2))
    if len(stack) > 1:
        g = pvs[1].copy()
        g[operators._near_center(sc.n, 0)] = 0.0
        table.append(("g_z_eps", f"T*2^-{k_g}", g))
    write_text(out / "transform.csv",
               chain(["node,param,quantity,epsilon,re,im\n"],
                     operators.transform_csv_blocks(sc, table)))


def _run_criterion(state: _RunState, out: Path) -> None:
    p = state.curve
    xs = harness.default_scan_params(p)
    levels = _gated_levels(state)
    k_of = {eps: k for k, eps in levels}
    table = harness.criterion_scan(p, xs, [eps for _, eps in levels])
    rows = ["curve,x,epsilon,score,branch_ok"]
    for x, eps, score, ok in table.rows:
        score_txt = f"{score:.17g}" if ok else ""
        rows.append(f"{p.kind},{x:.17g},T*2^-{k_of[eps]},{score_txt},{int(ok)}")
    write_lines(out / "criterion.csv", rows)
    state.criterion_verdict = table.verdict


def _run_cotlar(state: _RunState, out: Path) -> None:
    p = state.curve
    doc = state.doc
    report = harness.cotlar_ratio_scan(
        p, doc.get("sampling", "resolutions"),
        tags=doc.get("experiment", "functions"),
        seed=doc.get("experiment", "seed"))
    sup_rows = ["curve,n,f_tag,sup_ratio,arg_node,arg_param,flagged"]
    for row in report.rows:
        sup_rows.append(f"{p.kind},{row.n},{row.tag},{row.sup_ratio:.17g},"
                        f"{row.arg_node},{row.arg_param:.17g},{row.flagged}")
    write_lines(out / "cotlar_sup.csv", sup_rows)
    state.cotlar_verdict = report.verdict


def _run_proof(state: _RunState, out: Path) -> None:
    sc = state.sample
    f = _first_function(state)
    rows = ["curve,node,epsilon,residual,i_re,i_im,ii_re,ii_im,iii_re,iii_im,"
            "iv_re,iv_im,v_re,v_im,worst_ratio,decay_bound,far_nodes"]
    levels = harness.proof_levels(sc, (5, 6, 7), state.bilip)
    reports = (harness.proof_check(sc, f, 0, [eps for _, eps in levels],
                                   state.bilip) if levels else ())
    for (k, _), rep in zip(levels, reports):
        terms = (rep.term_i, rep.term_ii, rep.term_iii, rep.term_iv, rep.term_v)
        rows.append(f"{state.curve.kind},0,T*2^-{k},{rep.residual:.17g},"
                    + "".join(f"{t.real:.17g},{t.imag:.17g}," for t in terms)
                    + f"{rep.worst_ratio:.17g},{rep.decay_bound:.17g},"
                    f"{rep.far_nodes}")
        if rep.worst_ratio > rep.decay_bound:
            state.notes.append(
                f"proof far-field ratio {rep.worst_ratio:.17g} exceeds its "
                f"bound 4L = {rep.decay_bound:.17g} at T*2^-{k}")
    write_lines(out / "proof.csv", rows)


def _run_sandwich(state: _RunState, out: Path) -> None:
    p = state.curve
    xs = harness.default_scan_params(p, count=48)
    levels = _gated_levels(state)
    k_of = {eps: k for k, eps in levels}
    rep = harness.sandwich_check(p, xs, [eps for _, eps in levels], state.bilip)
    rows = ["curve,x,epsilon,ratio_upper,ratio_lower"]
    for x, eps, up, lo in rep.rows:
        rows.append(f"{p.kind},{x:.17g},T*2^-{k_of[eps]},{up:.17g},{lo:.17g}")
    rows.append(f"{p.kind},,,{rep.worst_violation:.17g},")
    write_lines(out / "sandwich.csv", rows)


def _run_series(state: _RunState, out: Path) -> None:
    p = state.curve
    if "depth" not in p.meta:
        state.notes.append("series scan skipped: curve has no recursion levels")
        return
    rows = ["curve,k,half_diameter,tail_excess,strip_width"]
    for k in range(1, p.meta["depth"] + 1):
        r, h = spiral_tail_series(p, k)
        rows.append(f"{p.kind},{k},{patch_half_diameter(k):.17g},{r:.17g},{h:.17g}")
    write_lines(out / "series.csv", rows)


def _write_summary(state: _RunState, out: Path, inv: CommandInvocation) -> None:
    lines = [f"cauchylab {__version__} summary", ""]
    lines.append(f"subcommand: {inv.subcommand}")
    if state.bilip is not None:
        lines.append(f"bilipschitz constant: {state.bilip:.17g}")
        lines.append(f"window dilation: {harness.required_dilation(state.bilip):.17g}")
    lines.append("smallness threshold: "
                 + (f"{state.eps0:.17g}" if state.eps0 is not None else "none"))
    lines.append("criterion verdict: " + (state.criterion_verdict or "n/a"))
    lines.append("cotlar verdict: " + (state.cotlar_verdict or "n/a"))
    if state.criterion_verdict and state.cotlar_verdict:
        ok = harness.verdicts_agree(state.criterion_verdict, state.cotlar_verdict)
        lines.append("theorem agreement: " + ("yes" if ok else "NO"))
    for note in state.notes:
        lines.append(f"note: {note}")
    lines += ["", "resolved spec:", ""]
    lines += curvespec.serialize_spec(state.doc).split("\n")
    write_lines(out / "summary.txt", lines)


_SCAN_RUNNERS = {
    "diag": _run_diag,
    "transform": _run_transform,
    "criterion": _run_criterion,
    "cotlar": _run_cotlar,
    "proof": _run_proof,
    "sandwich": _run_sandwich,
    "series": _run_series,
}


def run(inv: CommandInvocation) -> int:
    """Execute one invocation; returns the process exit status."""
    try:
        text = Path(inv.spec_path).read_text()
    except OSError as exc:
        print(f"code:{EXIT_VALIDATION} cannot read spec: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        doc = curvespec.parse_spec(text)
        overrides = list(inv.overrides)
        if inv.seed is not None:
            overrides.append(f"experiment.seed={inv.seed}")
        if overrides:
            doc = curvespec.apply_overrides(doc, overrides)
        state = _RunState(doc=doc)
        out = Path(inv.out_dir if inv.out_dir is not None
                   else doc.get("output", "directory"))
        out.mkdir(parents=True, exist_ok=True)
        state.curve = curvespec.build_from_document(doc)
        _run_build(state, out)
        state.bilip = geometry.bilipschitz_constant(state.sample)
        state.eps0 = geometry.eps0_gate(state.sample, state.bilip)
        if inv.subcommand == "build":
            todo = []
        elif inv.subcommand == "all":
            todo = list(doc.get("experiment", "scans"))
        else:
            todo = [inv.subcommand]
        for scan in todo:
            _SCAN_RUNNERS[scan](state, out)
        _write_summary(state, out, inv)
    except ValidationError as exc:
        print(f"code:{EXIT_VALIDATION} {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalGateError as exc:
        print(f"code:{EXIT_GATE} {exc}", file=sys.stderr)
        return EXIT_GATE
    except CauchyLabError as exc:
        print(f"code:{EXIT_VALIDATION} {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if inv.assert_theorem:
        if not (state.criterion_verdict and state.cotlar_verdict
                and harness.verdicts_agree(state.criterion_verdict,
                                           state.cotlar_verdict)):
            print(f"code:{EXIT_VERDICT} verdict mismatch: criterion="
                  f"{state.criterion_verdict} cotlar={state.cotlar_verdict}",
                  file=sys.stderr)
            return EXIT_VERDICT
    return EXIT_OK


def _common(fn):
    fn = click.option("--spec", "spec_path", required=True,
                      type=click.Path(), help="experiment definition (.cspec)")(fn)
    fn = click.option("--out", "out_dir", default=None, type=click.Path(),
                      help="output directory (defaults to the spec's)")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="SEC.KEY=VAL",
                      help="override a spec key (repeatable)")(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="override experiment.seed")(fn)
    return fn


@click.group()
@click.version_option(version=__version__)
def main():
    """Numerical laboratory for the maximal Cauchy integral on chord-arc curves."""


def _invoke(subcommand, spec_path, out_dir, overrides, seed,
            assert_theorem=False):
    inv = CommandInvocation(subcommand=subcommand, spec_path=spec_path,
                            out_dir=out_dir, overrides=tuple(overrides),
                            assert_theorem=assert_theorem, seed=seed)
    sys.exit(run(inv))


for _name, _help in [("build", "Build and export the curve."),
                     ("diag", "Geometry diagnostics tables."),
                     ("transform", "Transform values for the first test function."),
                     ("criterion", "Boundedness criterion scan."),
                     ("cotlar", "Maximal-ratio trend scan.")]:
    def _make(name=_name, help_text=_help):
        @main.command(name=name, help=help_text)
        @_common
        def _cmd(spec_path, out_dir, overrides, seed):
            _invoke(name, spec_path, out_dir, overrides, seed)
        return _cmd
    _make()


@main.command(name="all", help="Run every scan listed in the spec.")
@_common
@click.option("--assert-theorem", is_flag=True,
              help="exit 4 unless the two verdicts agree")
def _all(spec_path, out_dir, overrides, seed, assert_theorem):
    _invoke("all", spec_path, out_dir, overrides, seed, assert_theorem)


@main.command(name="sweep", help="Run a spec once per point of its axes.")
@_common
@click.option("--vary", "varies", multiple=True, metavar="SEC.KEY=V1|V2|...",
              help="an axis of override values (repeatable)")
def _sweep(spec_path, out_dir, overrides, seed, varies):
    from .sweep import run_sweep  # loaded by this subcommand alone

    if out_dir is None:
        raise click.UsageError("sweep needs --out")
    sys.exit(run_sweep(spec_path, varies, out_dir, overrides, seed))


if __name__ == "__main__":
    main()
