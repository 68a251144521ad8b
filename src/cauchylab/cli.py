"""Command-line front door: build curves, run diagnostics and scans from a
spec file, emit CSV reports and a verdict summary.

Exit statuses: 0 success, 2 validation error, 3 numerical-gate failure,
4 verdict mismatch under --assert-theorem.  Errors go to stderr with a
machine-parsable ``code:`` prefix.  Outputs are byte-identical across runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import __version__, curvespec, geometry, harness, operators
from .curves import (
    arclength_sample,
    patch_half_diameter,
    spiral_tail_series,
    write_curve_csv,
)
from .errors import CauchyLabError, NumericalGateError, ValidationError
from .operators import GridFunction, TruncationSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE = 3
EXIT_VERDICT = 4

_GATE_GRID = 2 ** 16  # resolution used to measure the smallness threshold


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
    notes: list = field(default_factory=list)


def _eps_label(period: float, eps: float) -> str:
    k = round(math.log2(period / eps))
    if abs(period * 2.0 ** (-k) - eps) <= 1e-12 * period:
        return f"T*2^-{int(k)}"
    return repr(eps)


def _write(path: Path, lines) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _measure_constants(state: _RunState) -> None:
    p, sc = state.curve, state.sample
    state.bilip = harness.measure_bilip(sc)
    eps0_cfg = state.doc.get("experiment", "eps0")
    if eps0_cfg > 0.0:
        state.eps0 = eps0_cfg
        return
    gate_sc = sc
    if "finest_scale" in p.meta and sc.n < _GATE_GRID:
        gate_sc = arclength_sample(p, _GATE_GRID)
    state.eps0 = geometry.eps0_gate(gate_sc, state.bilip)


def _config(state: _RunState) -> harness.HarnessConfig:
    doc = state.doc
    dil = doc.get("experiment", "dilation_m")
    return harness.HarnessConfig.for_curve(
        state.sample,
        k_min=doc.get("experiment", "k_min"),
        k_max=doc.get("experiment", "k_max"),
        bilip=state.bilip,
        dilation=dil if dil > 0.0 else None,
        eps0=state.eps0)


def _gated_eps_list(state: _RunState) -> list:
    """Dyadic levels of the configured range, trimmed by the smallness
    threshold when the curve has one (corner curves scan the full range)."""
    doc = state.doc
    period = state.curve.period
    out = []
    for k in range(doc.get("experiment", "k_min"), doc.get("experiment", "k_max") + 1):
        eps = period * 2.0 ** (-k)
        if state.eps0 is not None and eps > state.eps0 + 1e-15:
            continue
        out.append(eps)
    if not out:
        out = [period * 2.0 ** (-k)
               for k in range(doc.get("experiment", "k_min"),
                              doc.get("experiment", "k_max") + 1)]
        state.notes.append("no dyadic level passed the smallness gate; "
                           "criterion scanned the full configured range")
    return out


def _run_build(state: _RunState, out: Path) -> None:
    state.sample = arclength_sample(state.curve, state.doc.get("sampling", "n"))
    for w in state.sample.warnings:
        state.notes.append(w)
    write_curve_csv(state.sample, out / "curve.csv")


def _run_diag(state: _RunState, out: Path) -> None:
    doc = state.doc
    report = geometry.diagnostics(
        state.curve, state.sample,
        k_min=max(3, doc.get("experiment", "k_min") - 1),
        k_max=doc.get("experiment", "k_max"),
        eps0=state.eps0)
    _write(out / "diagnostics.csv", geometry.diagnostics_csv_rows(report))


def _first_function(state: _RunState):
    sc = state.sample
    tags = state.doc.get("experiment", "functions")
    fam = harness.make_test_functions(
        sc, tags[:1], seed=state.doc.get("experiment", "seed"),
        anchors=harness.anchor_params(state.curve))
    return fam[0]


def _run_transform(state: _RunState, out: Path) -> None:
    sc = state.sample
    doc = state.doc
    period = sc.period
    f0 = _first_function(state)
    f = GridFunction(sc, f0.values)
    spec = TruncationSpec.for_curve(sc, doc.get("experiment", "k_min"),
                                    doc.get("experiment", "k_max"))
    # the kernel for g_z_eps rides in the same evaluator pass as f
    k_g = max(doc.get("experiment", "k_min"), 6)
    eps_g = period * 2.0 ** (-k_g)
    stack = [f.values]
    if eps_g >= 2.0 * sc.spacing:
        kernel = operators.truncated_kernel(sc, 0, eps_g)
        stack.append(kernel.values)
    rows = ["node,param,quantity,epsilon,re,im"]
    pvs, tables = operators.cauchy_family(sc, stack, spec)
    for k, t_eps in zip(spec.k_grid, tables[0]):
        rows += operators.transform_csv_rows(sc, "T_eps", t_eps,
                                             eps_label=f"T*2^-{k}")
    pv = GridFunction(sc, pvs[0])
    rows += operators.transform_csv_rows(sc, "T_pv", pv.values)
    t_star, _ = operators.maximal_of(tables[0], spec)
    rows += operators.transform_csv_rows(sc, "T_star", t_star.astype(complex))
    m1 = operators.hl_maximal_all(pv)
    rows += operators.transform_csv_rows(sc, "M", m1.astype(complex))
    m2 = operators.hl_maximal_squared(pv)
    rows += operators.transform_csv_rows(sc, "M2", m2.values)
    if len(stack) > 1:
        kt = operators.KernelTransform.from_pv(0, kernel, pvs[1])
        rows += operators.transform_csv_rows(sc, "g_z_eps", kt.values.values,
                                             eps_label=f"T*2^-{k_g}")
    _write(out / "transform.csv", rows)


def _run_criterion(state: _RunState, out: Path) -> None:
    p = state.curve
    xs = harness.default_scan_params(p)
    table = harness.criterion_scan(p, xs, _gated_eps_list(state))
    rows = ["curve,x,epsilon,score,branch_ok"]
    for x, eps, score, ok in table.rows:
        score_txt = f"{score:.17g}" if ok else ""
        rows.append(f"{p.kind},{x:.17g},{_eps_label(p.period, eps)},"
                    f"{score_txt},{int(ok)}")
    _write(out / "criterion.csv", rows)
    state.criterion_verdict = table.verdict


def _run_cotlar(state: _RunState, out: Path) -> None:
    p = state.curve
    doc = state.doc
    report = harness.cotlar_ratio_scan(
        p, doc.get("sampling", "resolutions"),
        tags=doc.get("experiment", "functions"),
        k_min=1,
        seed=doc.get("experiment", "seed"))
    rows = ["curve,n,f_tag,node,ratio"]
    for n, tag, ratios in report.node_ratios:
        for i, r in enumerate(ratios):
            rows.append(f"{p.kind},{n},{tag},{i},{r:.17g}")
    _write(out / "cotlar.csv", rows)
    sup_rows = ["curve,n,f_tag,sup_ratio,arg_node,arg_param,flagged"]
    for row in report.rows:
        sup_rows.append(f"{p.kind},{row.n},{row.tag},{row.sup_ratio:.17g},"
                        f"{row.arg_node},{row.arg_param:.17g},{row.flagged}")
    _write(out / "cotlar_sup.csv", sup_rows)
    state.cotlar_verdict = report.verdict


def _run_decomp(state: _RunState, out: Path) -> None:
    sc = state.sample
    cfg = _config(state)
    f0 = _first_function(state)
    f = GridFunction(sc, f0.values)
    rows = ["curve,node,epsilon,residual,i_re,i_im,ii_re,ii_im,iii_re,iii_im,"
            "iv_re,iv_im,v_re,v_im"]
    for k in (5, 7):
        eps = sc.period * 2.0 ** (-k)
        if cfg.dilation * eps >= sc.period / 2.0 or eps < 4.0 * sc.spacing:
            continue
        rep = harness.decomposition_check(f, 0, eps, cfg)
        rows.append(
            f"{state.curve.kind},0,{_eps_label(sc.period, eps)},{rep.residual:.17g},"
            f"{rep.term_i.real:.17g},{rep.term_i.imag:.17g},"
            f"{rep.term_ii.real:.17g},{rep.term_ii.imag:.17g},"
            f"{rep.term_iii.real:.17g},{rep.term_iii.imag:.17g},"
            f"{rep.term_iv.real:.17g},{rep.term_iv.imag:.17g},"
            f"{rep.term_v.real:.17g},{rep.term_v.imag:.17g}")
    _write(out / "decomp.csv", rows)


def _run_gdecay(state: _RunState, out: Path) -> None:
    sc = state.sample
    cfg = _config(state)
    rows = ["curve,node,epsilon,worst_ratio,decay_bound,far_nodes"]
    eps = sc.period * 2.0 ** (-6)
    if eps >= 2.0 * sc.spacing and cfg.dilation * eps < sc.period / 2.0:
        rep = harness.far_field_decay_check(sc, 0, eps, cfg)
        rows.append(f"{state.curve.kind},0,{_eps_label(sc.period, eps)},"
                    f"{rep.worst_ratio:.17g},{rep.decay_bound:.17g},{rep.far_nodes}")
    _write(out / "gdecay.csv", rows)


def _run_sandwich(state: _RunState, out: Path) -> None:
    p = state.curve
    xs = harness.default_scan_params(p, count=48)
    rep = harness.sandwich_check(p, xs, _gated_eps_list(state), state.bilip)
    rows = ["curve,x,epsilon,ratio_upper,ratio_lower"]
    for x, eps, up, lo in rep.rows:
        rows.append(f"{p.kind},{x:.17g},{_eps_label(p.period, eps)},"
                    f"{up:.17g},{lo:.17g}")
    rows.append(f"{p.kind},,,{rep.worst_violation:.17g},")
    _write(out / "sandwich.csv", rows)


def _run_series(state: _RunState, out: Path) -> None:
    p = state.curve
    if "depth" not in p.meta:
        state.notes.append("series scan skipped: curve has no recursion levels")
        return
    rows = ["curve,k,half_diameter,tail_excess,strip_width"]
    for k in range(1, p.meta["depth"] + 1):
        r, h = spiral_tail_series(p, k)
        rows.append(f"{p.kind},{k},{patch_half_diameter(k):.17g},{r:.17g},{h:.17g}")
    _write(out / "series.csv", rows)


def _write_summary(state: _RunState, out: Path, inv: CommandInvocation) -> None:
    lines = [f"cauchylab {__version__} summary", ""]
    lines.append(f"subcommand: {inv.subcommand}")
    if state.bilip is not None:
        lines.append(f"bilipschitz constant: {state.bilip:.17g}")
        dil = (state.doc.get("experiment", "dilation_m")
               or harness.required_dilation(state.bilip))
        lines.append(f"window dilation: {dil:.17g}")
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
    _write(out / "summary.txt", lines)


_SCAN_RUNNERS = {
    "diag": _run_diag,
    "transform": _run_transform,
    "criterion": _run_criterion,
    "cotlar": _run_cotlar,
    "decomp": _run_decomp,
    "gdecay": _run_gdecay,
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
        if inv.overrides:
            doc = curvespec.apply_overrides(doc, inv.overrides)
        if inv.seed is not None:
            doc = curvespec.apply_overrides(doc, [f"experiment.seed={inv.seed}"])
        state = _RunState(doc=doc)
        out = Path(inv.out_dir if inv.out_dir is not None
                   else doc.get("output", "directory"))
        out.mkdir(parents=True, exist_ok=True)
        state.curve = curvespec.build_from_document(doc)
        _run_build(state, out)
        _measure_constants(state)
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


if __name__ == "__main__":
    main()
