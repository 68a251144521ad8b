"""End-to-end CLI tests: artifacts, exit statuses, determinism."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from cauchylab import cli, curves, curvespec, operators, sweep
from cauchylab.cli import CommandInvocation, main, run
from cauchylab.errors import NumericalGateError, ResolutionError

SMALL_CIRCLE = """
[curve]
kind = circle

[sampling]
n = 512
resolutions = 128,256

[experiment]
scans = diag,criterion
k_min = 4
k_max = 9
functions = constant,trig:1
"""


def _write_spec(tmp_path, text, name="case.cspec"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_gated_levels_compare_eps0_exactly():
    # the gate's eps0 and the levels are the same product period * 2^-k, so
    # they compare exactly at any size; on a circle of radius 2^-50 eps0 at
    # k = 4 is about 3.5e-16, and an absolute allowance of 1e-15 on top of it
    # would admit the level k = 3 above it
    doc = curvespec.parse_spec("[curve]\nkind = circle\n"
                               "[experiment]\nk_min = 2\nk_max = 6\n")
    p = curves.circle(2.0 ** -50)
    state = cli._RunState(doc=doc, curve=p, eps0=p.period * 2.0 ** -4)
    assert [k for k, _ in cli._gated_levels(state)] == [4, 5, 6]
    assert state.notes == []


def test_gate_note_is_written_once(tmp_path):
    # every configured level of the shipped spiral lies above its eps0, so
    # the criterion and sandwich scans both take the full range; the levels
    # are gated once per run, and the note says so once
    spec = Path(__file__).resolve().parent.parent / "specs" / "spiral.cspec"
    out = tmp_path / "o"
    assert run(CommandInvocation("all", str(spec), str(out), overrides=(
        "experiment.k_max=10", "experiment.scans=criterion,sandwich",
        "sampling.resolutions=256,512"))) == 0
    notes = [line for line in (out / "summary.txt").read_text().split("\n")
             if line.startswith("note: no dyadic level passed")]
    assert notes == ["note: no dyadic level passed the smallness gate; "
                     "criterion and sandwich scan the full configured range"]


def test_build_writes_curve_csv(tmp_path):
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    inv = CommandInvocation("build", str(spec), str(tmp_path / "o"))
    assert run(inv) == 0
    header = (tmp_path / "o" / "curve.csv").read_text().split("\n")[0]
    assert header == "param,x,y,tx,ty,weight"
    assert (tmp_path / "o" / "summary.txt").exists()


def test_all_runs_selected_scans(tmp_path):
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    inv = CommandInvocation("all", str(spec), str(tmp_path / "o"))
    assert run(inv) == 0
    names = {p.name for p in (tmp_path / "o").iterdir()}
    assert {"curve.csv", "diagnostics.csv", "criterion.csv", "summary.txt"} <= names
    summary = (tmp_path / "o" / "summary.txt").read_text()
    assert "criterion verdict: bounded" in summary
    assert "resolved spec:" in summary


def test_exit_2_on_bad_spec(tmp_path):
    spec = _write_spec(tmp_path, "[curve]\nkind = spiral\nxi = 0.02\n")
    assert run(CommandInvocation("build", str(spec), str(tmp_path / "o"))) == 2


def test_exit_2_on_spiral_closure_key(tmp_path, capsys):
    # every curve is a closed Jordan curve; no key selects an open spiral
    for closure in ("open", "smooth-closure"):
        spec = _write_spec(tmp_path, "[curve]\nkind = spiral\ndepth = 3\n"
                           f"closure = {closure}\n")
        assert run(CommandInvocation("build", str(spec), str(tmp_path / "o"))) == 2
        assert "closure" in capsys.readouterr().err


def test_exit_2_on_measured_constant_keys(tmp_path, capsys):
    # the window dilation and the smallness threshold are measured, never set
    for line in ("dilation_m = 10", "eps0 = 0.1"):
        spec = _write_spec(tmp_path, f"[curve]\nkind = circle\n[experiment]\n{line}\n")
        assert run(CommandInvocation("build", str(spec), str(tmp_path / "o"))) == 2
        assert "unknown key" in capsys.readouterr().err


def test_exit_2_on_function_tag_range_before_build(tmp_path, capsys):
    spec = _write_spec(tmp_path, "[curve]\nkind = spiral\n[experiment]\n"
                       "functions = trig:0\n")
    assert run(CommandInvocation("all", str(spec), str(tmp_path / "o"))) == 2
    assert "1..64" in capsys.readouterr().err
    assert not (tmp_path / "o" / "curve.csv").exists()


def test_exit_2_on_missing_file(tmp_path):
    assert run(CommandInvocation("build", str(tmp_path / "nope.cspec"),
                                 str(tmp_path / "o"))) == 2


def test_exit_2_on_bad_override(tmp_path):
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    inv = CommandInvocation("build", str(spec), str(tmp_path / "o"),
                            overrides=("curve.volume=2",))
    assert run(inv) == 2


def test_exit_3_on_numerical_gate(tmp_path, monkeypatch):
    spec = _write_spec(tmp_path, SMALL_CIRCLE)

    def boom(state, out):
        raise NumericalGateError("synthetic gate trip")

    monkeypatch.setitem(cli._SCAN_RUNNERS, "diag", boom)
    inv = CommandInvocation("diag", str(spec), str(tmp_path / "o"))
    assert run(inv) == 3


def test_assert_theorem_mismatch_exit_4(tmp_path):
    # criterion runs, ratio scan does not: no agreement to assert
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    inv = CommandInvocation("all", str(spec), str(tmp_path / "o"),
                            assert_theorem=True)
    assert run(inv) == 4


def test_set_override_reflected_in_summary(tmp_path):
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    inv = CommandInvocation("build", str(spec), str(tmp_path / "o"),
                            overrides=("sampling.n=256",))
    assert run(inv) == 0
    assert "n = 256" in (tmp_path / "o" / "summary.txt").read_text()
    assert len((tmp_path / "o" / "curve.csv").read_text().split("\n")) == 258


def test_seed_override(tmp_path):
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    inv = CommandInvocation("build", str(spec), str(tmp_path / "o"), seed=7)
    assert run(inv) == 0
    assert "seed = 7" in (tmp_path / "o" / "summary.txt").read_text()
    # --seed applies after every --set override, and so wins over one
    inv = CommandInvocation("build", str(spec), str(tmp_path / "o2"),
                            overrides=("experiment.seed=3",), seed=7)
    assert run(inv) == 0
    text = (tmp_path / "o2" / "summary.txt").read_text()
    assert "seed = 7" in text and "seed = 3" not in text


def _rerun_names(tmp_path, overrides=()):
    """Run the small circle twice; assert the two output directories hold
    byte-identical files and return their names."""
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    for d in ("o1", "o2"):
        assert run(CommandInvocation("all", str(spec), str(tmp_path / d),
                                     overrides=overrides)) == 0
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name
    return names


def test_byte_identical_reruns(tmp_path):
    _rerun_names(tmp_path)


def test_byte_identical_reruns_of_the_bulk_writers(tmp_path):
    names = _rerun_names(
        tmp_path, ("experiment.scans=diag,transform,criterion,cotlar",))
    # the cotlar scan writes its sups only, no per-node table
    assert names == ["cotlar_sup.csv", "criterion.csv", "curve.csv",
                     "diagnostics.csv", "summary.txt", "transform.csv"]


# a float of each kind "%.17g" must render: signed zeros, the smallest
# subnormal and normal, the largest double, both sides of the switches
# between fixed and exponent notation at 1e17 and 1e-4, plain values, and
# the non-finite ones
# 1311831073385388.75 is an exact tie at 17 digits, which the block
# formatter leaves to '%.17g'; the double nearest 1e-14 lies below it and
# its 17 digits carry into that decade
_EDGE = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 1e16, 1e17, 123456789012345678.0,
                  1e-4, 9.9999999999999991e-05, 0.1, 1 / 3, -2.5, 1.0,
                  np.inf, np.nan, 1311831073385388.75, 1e-14])


def _circle_512():
    return curves.arclength_sample(curves.circle(1.0), 512)


def _complex(re, im):
    # set the parts directly: re + 1j * im would turn 1j * inf into nan + inf j
    z = np.empty(re.size, dtype=complex)
    z.real, z.imag = re, im
    return z


def _edge_curve():
    # every column of the curve export, and the param prefix of the
    # transform rows, runs through the edge values with both signs
    v = np.concatenate([_EDGE, -_EDGE])
    return curves.SampledCurve(n=v.size, period=1.0, params=v,
                               points=_complex(v, v[::-1]),
                               tangents=_complex(-v[::-1], v),
                               weights=v[::-1])


@pytest.mark.parametrize("make_sc", [_circle_512, _edge_curve],
                         ids=["circle-512", "edge-values"])
def test_bulk_writers_match_row_writers_byte_for_byte(tmp_path, make_sc):
    sc = make_sc()
    cplx = sc.points[::-1]
    real = sc.weights
    table = [("T_eps", "T*2^-4", cplx), ("T_pv", "", sc.tangents),
             ("T_star", "", real), ("M2", "", real.astype(complex))]
    # each writer's file text against the oracle's rows, each followed by
    # LF; the transform blocks go out one at a time, as transform.csv does
    want = [row for q, label, values in table
            for row in oracles.transform_csv_rows(sc, q, values, eps_label=label)]
    curves.write_text(tmp_path / "transform.csv",
                      operators.transform_csv_blocks(sc, table))
    assert ((tmp_path / "transform.csv").read_bytes()
            == "".join(row + "\n" for row in want).encode())
    assert operators.transform_csv_rows(sc, table) == want

    curves.write_curve_csv(sc, tmp_path / "new.csv")
    oracles.write_curve_csv(sc, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_click_entry_points(tmp_path):
    runner = CliRunner()
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    res = runner.invoke(main, ["criterion", "--spec", str(spec),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 0
    assert (tmp_path / "o" / "criterion.csv").exists()
    res = runner.invoke(main, ["all", "--spec", str(spec),
                               "--out", str(tmp_path / "o2"),
                               "--set", "experiment.scans=diag"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0


def test_stderr_code_prefix(tmp_path, capsys):
    spec = _write_spec(tmp_path, "[curve]\nkind = nonagon\n")
    assert run(CommandInvocation("build", str(spec), str(tmp_path / "o"))) == 2
    err = capsys.readouterr().err
    assert err.startswith("code:2 ")


def test_transform_scan_outputs(tmp_path):
    text = SMALL_CIRCLE.replace("scans = diag,criterion", "scans = transform")
    spec = _write_spec(tmp_path, text)
    assert run(CommandInvocation("all", str(spec), str(tmp_path / "o"))) == 0
    body = (tmp_path / "o" / "transform.csv").read_text()
    head = body.split("\n")[0]
    assert head == "node,param,quantity,epsilon,re,im"
    for q in ["T_eps", "T_pv", "T_star", ",M,", ",M2,", "g_z_eps"]:
        assert q in body


def _count_passes(monkeypatch):
    """Record the stack height of every evaluator call."""
    from cauchylab import operators

    passes = []
    family = operators.truncated_cauchy_family

    def counting(sc, values, eps_list):
        passes.append(len(values))
        return family(sc, values, eps_list)

    monkeypatch.setattr(operators, "truncated_cauchy_family", counting)
    return passes


def test_transform_makes_one_evaluator_pass(tmp_path, monkeypatch):
    # f and the truncated kernel behind g_z_eps share one pass
    passes = _count_passes(monkeypatch)
    text = SMALL_CIRCLE.replace("scans = diag,criterion", "scans = transform")
    spec = _write_spec(tmp_path, text)
    assert run(CommandInvocation("transform", str(spec), str(tmp_path / "o"))) == 0
    assert passes == [2]


def test_first_function_is_built_once_per_run(tmp_path, monkeypatch):
    # the four adversarial witnesses take one pass; transform and proof
    # share the first of them instead of rebuilding it
    passes = _count_passes(monkeypatch)
    text = (SMALL_CIRCLE
            .replace("scans = diag,criterion", "scans = transform,proof")
            .replace("functions = constant,trig:1", "functions = adversarial,constant"))
    spec = _write_spec(tmp_path, text)
    assert run(CommandInvocation("all", str(spec), str(tmp_path / "o"))) == 0
    assert passes == [4, 2, 4]


SMALL_SPIRAL = """
[curve]
kind = spiral
depth = 3

[sampling]
n = 512
resolutions = 128,256

[experiment]
scans = series
"""

ALL_SCANS = ("experiment.scans=diag,transform,criterion,cotlar,"
             "proof,sandwich,series")


def test_proof_sandwich_series_scans(tmp_path):
    text = SMALL_CIRCLE.replace("scans = diag,criterion",
                                "scans = proof,sandwich")
    spec = _write_spec(tmp_path, text)
    assert run(CommandInvocation("all", str(spec), str(tmp_path / "o"))) == 0
    names = {p.name for p in (tmp_path / "o").iterdir()}
    assert {"proof.csv", "sandwich.csv"} <= names
    assert not {"decomp.csv", "gdecay.csv"} & names
    # levels 2^-5, 2^-6 and 2^-7 all fit n = 512: one row each
    proof = (tmp_path / "o" / "proof.csv").read_text().strip().split("\n")
    assert proof[0] == ("curve,node,epsilon,residual,i_re,i_im,ii_re,ii_im,"
                        "iii_re,iii_im,iv_re,iv_im,v_re,v_im,worst_ratio,"
                        "decay_bound,far_nodes")
    assert [row.split(",")[2] for row in proof[1:]] == ["T*2^-5", "T*2^-6",
                                                        "T*2^-7"]
    assert all(len(row.split(",")) == 17 for row in proof)
    spec2 = _write_spec(tmp_path, SMALL_SPIRAL, "sp.cspec")
    assert run(CommandInvocation("all", str(spec2), str(tmp_path / "o2"))) == 0
    series = (tmp_path / "o2" / "series.csv").read_text().strip().split("\n")
    assert series[0] == "curve,k,half_diameter,tail_excess,strip_width"
    assert len(series) == 4  # depth 3


@pytest.mark.parametrize("text", [
    SMALL_SPIRAL.replace("n = 512", "n = 3000"),
    "[curve]\nkind = graph-closure\n",  # n = 4096
], ids=["spiral-3000", "graph-closure"])
def test_summary_and_diagnostics_report_one_bilipschitz_constant(tmp_path, text):
    # both read L from the working grid of n > 2048 nodes
    spec = _write_spec(tmp_path, text)
    out = tmp_path / "o"
    assert run(CommandInvocation("diag", str(spec), str(out))) == 0
    summary = (out / "summary.txt").read_text().split("\n")
    diag = (out / "diagnostics.csv").read_text().split("\n")
    got, = [line.split(": ")[1] for line in summary
            if line.startswith("bilipschitz constant: ")]
    want, = [row.split(",")[2] for row in diag
             if row.startswith("bilipschitz,")]
    assert got == want


def test_proof_makes_one_evaluator_pass(tmp_path, monkeypatch):
    # f and the truncated kernels of the three kept levels share one pass
    passes = _count_passes(monkeypatch)
    text = SMALL_CIRCLE.replace("scans = diag,criterion", "scans = proof")
    spec = _write_spec(tmp_path, text)
    assert run(CommandInvocation("all", str(spec), str(tmp_path / "o"))) == 0
    assert passes == [4]


def test_proof_scan_keeps_the_levels_proof_check_accepts(tmp_path):
    # one 4h rule: at n = 510 the level T*2^-7 is below 4h and both drop
    # it; at n = 512 it is exactly 4h and both keep it
    import pytest

    from cauchylab import curves, curvespec, geometry, harness

    for n, kept in ((510, ["T*2^-5", "T*2^-6"]),
                    (512, ["T*2^-5", "T*2^-6", "T*2^-7"])):
        text = (SMALL_CIRCLE.replace("scans = diag,criterion", "scans = proof")
                .replace("n = 512", f"n = {n}"))
        spec = _write_spec(tmp_path, text, f"c{n}.cspec")
        out = tmp_path / f"o{n}"
        assert run(CommandInvocation("all", str(spec), str(out))) == 0
        rows = (out / "proof.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[2] for row in rows] == kept
        p = curvespec.build_from_document(curvespec.parse_spec(text))
        sc = curves.arclength_sample(p, n)
        bilip = geometry.bilipschitz_constant(sc)
        f = np.ones(sc.n, dtype=complex)
        for k in (5, 6, 7):
            eps = sc.period * 2.0 ** (-k)
            if f"T*2^-{k}" in kept:
                harness.proof_check(sc, f, 0, [eps], bilip)
            else:
                with pytest.raises(ResolutionError):
                    harness.proof_check(sc, f, 0, [eps], bilip)
    # at n = 512 a hair below 4h fails the scan's eps >= 4h, and the check
    # refuses it too
    assert 4.0 * sc.spacing == sc.period * 2.0 ** (-7)
    with pytest.raises(ResolutionError):
        harness.proof_check(sc, f, 0, [4.0 * sc.spacing * (1 - 1e-13)], bilip)


def test_proof_notes_each_level_past_the_far_field_bound(tmp_path):
    # the square's far-field ratio passes its bound 4L at every level, the
    # circle's at none; summary.txt says so once per level, naming the
    # level, the ratio and the bound of its proof.csv row
    root = Path(__file__).resolve().parent.parent
    counts = {}
    for name in ("square", "circle"):
        out = tmp_path / name
        inv = CommandInvocation(
            "all", str(root / "specs" / f"{name}.cspec"), str(out),
            overrides=("experiment.scans=proof", "sampling.n=512"))
        assert run(inv) == 0
        want = []
        for row in (out / "proof.csv").read_text().strip().split("\n")[1:]:
            fields = row.split(",")
            if float(fields[14]) > float(fields[15]):
                want.append(f"note: proof far-field ratio {fields[14]} exceeds "
                            f"its bound 4L = {fields[15]} at {fields[2]}")
        summary = (out / "summary.txt").read_text().split("\n")
        assert [line for line in summary if "far-field" in line] == want
        counts[name] = len(want)
    assert counts == {"square": 3, "circle": 0}


def test_exit_2_on_retired_scan_tags(tmp_path, capsys):
    # decomp and gdecay became the one proof scan, with no alias
    for tag in ("decomp", "gdecay"):
        text = SMALL_CIRCLE.replace("scans = diag,criterion", f"scans = {tag}")
        spec = _write_spec(tmp_path, text, f"{tag}.cspec")
        assert run(CommandInvocation("all", str(spec), str(tmp_path / tag))) == 2
        assert f"unknown scan tag {tag!r}" in capsys.readouterr().err


def test_scan_tags_name_exactly_the_scan_runners():
    # the spec parser accepts the tags of SCAN_TAGS and cli.run looks each
    # up in _SCAN_RUNNERS; cli imports curvespec, so the one list cannot be
    # derived from the other, and a tag with no runner would pass
    # validation and then fail with a bare KeyError
    assert set(curvespec.SCAN_TAGS) == set(cli._SCAN_RUNNERS)


def test_benchmark_traced_names_resolve():
    # the benchmark's traced runs wrap every name of perfbench/worker.py's
    # TRACED table through getattr on its cauchylab module; the table is
    # read with ast, so the worker is not imported
    import ast
    import importlib

    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    [traced] = [ast.literal_eval(node.value)
                for node in ast.parse(worker.read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    names = [(layer, name) for layer, names in traced.items() for name in names]
    assert len(names) > 20
    missing = [f"{layer}.{name}" for layer, name in names
               if not callable(getattr(importlib.import_module(f"cauchylab.{layer}"),
                                       name, None))]
    assert missing == []


def test_no_program_path_calls_single_node_oracles(tmp_path, monkeypatch):
    import importlib
    import pkgutil

    import cauchylab

    # the oracles live in tests/oracles.py and the test-only helpers are
    # gone, so no cauchylab module holds any of their names
    gone = {"truncated_cauchy", "pv_cauchy", "maximal_cauchy", "MaximalValue",
            "hl_maximal", "_ball_average", "_branch_log_unwrapped",
            "turning_angle", "window_speed_range", "bump_abs_moment",
            "unit_square", "omega2", "local_bilipschitz"}
    # the single-function shims, the single-kernel transform and the
    # transform table's row view stay only for the benchmark's traced
    # runs, which wrap them by name; every scan must go through the family
    # evaluator, and transform.csv out block by block, so here they raise
    # wherever a module holds them
    shims = ("pv_cauchy_all", "truncated_cauchy_all", "maximal_cauchy_all",
             "kernel_truncation_transform", "transform_csv_rows")

    def refuse(*_args, **_kwargs):
        raise AssertionError("a program path called a single-function shim")

    names = ["cauchylab"] + [f"cauchylab.{info.name}" for info in
                             pkgutil.iter_modules(cauchylab.__path__)]
    for key in names:
        module = importlib.import_module(key)
        assert not gone & set(vars(module)), key
        assert not gone & set(getattr(module, "__all__", ())), key
        for shim in shims:
            if hasattr(module, shim):
                monkeypatch.setattr(module, shim, refuse)
    assert all(getattr(operators, shim) is refuse for shim in shims)
    for name, text in (("circle", SMALL_CIRCLE), ("spiral", SMALL_SPIRAL)):
        spec = _write_spec(tmp_path, text, f"{name}.cspec")
        inv = CommandInvocation("all", str(spec), str(tmp_path / name),
                                overrides=(ALL_SCANS,))
        assert run(inv) == 0, name


def test_shipped_spec_files_are_valid():
    from cauchylab import curvespec

    specs = sorted(Path(__file__).resolve().parent.parent.glob("specs/*.cspec"))
    assert len(specs) >= 4
    for path in specs:
        doc = curvespec.parse_spec(path.read_text())
        assert doc.kind in curvespec.CURVE_KINDS


# runs the command line with every scipy import failing
_NO_SCIPY_MAIN = ("import sys; sys.modules['scipy'] = None; "
                  "from cauchylab.cli import main; main()")


def test_runtime_never_imports_scipy(tmp_path):
    # scipy is a test oracle only: the spline-backed curves (ellipse, spiral,
    # graph closure) run the default scans to agreement with it blocked, and
    # importing the package and its command line loads no scipy module
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, curve in (("ellipse", "ellipse"), ("spiral", "spiral\ndepth = 3"),
                        ("graph", "graph-closure")):
        spec = _write_spec(tmp_path, f"[curve]\nkind = {curve}\n[sampling]\n"
                           "n = 512\nresolutions = 128,256,512\n[experiment]\n"
                           "k_min = 4\nk_max = 9\n", f"{name}.cspec")
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_MAIN, "all", "--spec", str(spec),
             "--out", str(tmp_path / name), "--assert-theorem"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (name, proc.stderr)
    show = ("import sys, cauchylab, cauchylab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", show], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# runs `all` in-process on the shipped spiral and circle at 512/1024/2048,
# then prints whether numpy.ma was imported
_NUMPY_MA_AFTER_RUNS = (
    "import sys; from cauchylab import cli\n"
    "for name in ('spiral', 'circle'):\n"
    "    inv = cli.CommandInvocation('all', f'specs/{name}.cspec', sys.argv[1] + name,\n"
    "        overrides=('sampling.resolutions=512,1024,2048',), assert_theorem=True)\n"
    "    assert cli.run(inv) == 0, name\n"
    "print('numpy.ma' in sys.modules)\n")


def test_runs_never_import_numpy_ma(tmp_path):
    # np.unique's first call imports numpy.ma (17-39 ms a process), and no
    # program path calls it
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_AFTER_RUNS, f"{tmp_path}{os.sep}"],
        cwd=src.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_known_defect_square_criterion_flips_bounded_at_k_max_14(tmp_path):
    """Known defect, pinned as today's behaviour: the square's criterion
    score grows by a constant amount per dyadic level, so the ratio tail
    rule stops seeing growth past the shipped k_max = 12 and the corner
    curve reads bounded from k_max = 14.  At k_max = 13 the last step is
    11/10, exactly the rule's 10% climb, so the verdict there rests on the
    last bit of the scores and is not pinned.  Change this test when the
    rule changes."""
    from cauchylab import curves, harness

    spec = Path(__file__).resolve().parent.parent / "specs" / "square.cspec"
    verdicts = {}
    for k_max in (12, 14):
        out = tmp_path / f"k{k_max}"
        inv = CommandInvocation("criterion", str(spec), str(out),
                                overrides=(f"experiment.k_max={k_max}",))
        assert run(inv) == 0
        summary = (out / "summary.txt").read_text()
        verdicts[k_max] = summary.split("criterion verdict: ")[1].split("\n")[0]
    assert verdicts == {12: "unbounded", 14: "bounded"}
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    table = harness.criterion_scan(p, harness.default_scan_params(p),
                                   [4.0 * 2.0 ** (-k) for k in (12, 13)])
    (_, s12), (_, s13) = table.profile
    assert abs(s13 / s12 - 1.1) <= 1e-15


SWEEP_BASE = """
[curve]
kind = circle

[sampling]
n = 256
resolutions = 128,256

[experiment]
scans = criterion,cotlar
functions = constant,trig:1
"""


def _tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_sweep_writes_one_row_per_point_and_reruns_to_the_same_bytes(tmp_path, capsys):
    # a 2 x 2 sweep: k_min = 9 with k_max = 8 fails validation, and that
    # point is a row with its exit status, not an abort; the other three
    # run into their point-NNN directories.  A rerun writes the same bytes
    spec = _write_spec(tmp_path, SWEEP_BASE)
    axes = ("experiment.k_min=4|9", "experiment.k_max=8|12")
    for name in ("a", "b"):
        assert sweep.run_sweep(str(spec), axes, str(tmp_path / name)) == 0
    assert "k_max must exceed k_min" in capsys.readouterr().err
    first = _tree(tmp_path / "a")
    assert first == _tree(tmp_path / "b")
    assert sorted({path.split("/")[0] for path in first}) == [
        "base.cspec", "point-000", "point-001", "point-003", "sweep.csv"]
    rows = first["sweep.csv"].decode().splitlines()
    assert rows[0] == ("experiment.k_min,experiment.k_max,status,eps0,"
                       "criterion,cotlar,profile_tail,family_sup")
    cells = [row.split(",") for row in rows[1:]]
    assert [c[:3] for c in cells] == [["4", "8", "0"], ["4", "12", "0"],
                                      ["9", "8", "2"], ["9", "12", "0"]]
    assert cells[2][3:] == [""] * 5
    for c in (cells[0], cells[1], cells[3]):
        assert c[3] == "0.39269908169872414" and c[4:6] == ["bounded", "stable"]
        assert len(c[6].split(";")) == 3
        assert [s.split("=")[0] for s in c[7].split(";")] == ["128", "256"]
    # the row reads what the point's run wrote
    summary = first["point-001/summary.txt"].decode()
    assert "k_max = 12" in summary and "criterion verdict: bounded" in summary
    assert cells[1][6].split(";")[-1].startswith("T*2^-12=")


def test_sweep_axes_come_from_the_file_then_the_command_line(tmp_path):
    # a [sweep] section's vary lines are axes; the rest is the base spec,
    # which goes to base.cspec; --vary axes follow, and --set overrides
    # apply at every point
    spec = _write_spec(tmp_path, SWEEP_BASE + "\n[sweep]\nvary = sampling.n=256|512\n")
    result = CliRunner().invoke(main, [
        "sweep", "--spec", str(spec), "--out", str(tmp_path / "o"),
        "--vary", "curve.radius=1|2", "--set", "experiment.scans=criterion"])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in rows] == [
        ["sampling.n", "curve.radius", "status"], ["256", "1", "0"],
        ["256", "2", "0"], ["512", "1", "0"], ["512", "2", "0"]]
    assert all(row.split(",")[5] == "n/a" for row in rows[1:])
    assert "[sweep]" not in (tmp_path / "o" / "base.cspec").read_text()
    for bad in ("vary = sampling.n", "n = 3"):
        spec = _write_spec(tmp_path, SWEEP_BASE + f"\n[sweep]\n{bad}\n", "bad.cspec")
        assert sweep.run_sweep(str(spec), (), str(tmp_path / "bad")) == 2


def test_checked_in_kmax_sweep_reads_bounded_from_14(tmp_path):
    # specs/sweeps/square-kmax.csweep reproduces ROADMAP item 1's flip:
    # the square's criterion reads unbounded up to k_max = 13 and bounded
    # from 14 (the known defect pinned above)
    spec = Path(__file__).resolve().parent.parent / "specs" / "sweeps" / "square-kmax.csweep"
    assert sweep.run_sweep(str(spec), (), str(tmp_path)) == 0
    rows = [row.split(",") for row in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [
        (str(k), "unbounded" if k <= 13 else "bounded") for k in range(10, 17)]
