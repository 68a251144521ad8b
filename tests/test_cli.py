"""End-to-end CLI tests: artifacts, exit statuses, determinism."""

import filecmp

from click.testing import CliRunner

from cauchylab import cli
from cauchylab.cli import CommandInvocation, main, run
from cauchylab.errors import NumericalGateError

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


def test_byte_identical_reruns(tmp_path):
    spec = _write_spec(tmp_path, SMALL_CIRCLE)
    for d in ("o1", "o2"):
        assert run(CommandInvocation("all", str(spec), str(tmp_path / d))) == 0
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


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


def test_transform_makes_one_evaluator_pass(tmp_path, monkeypatch):
    # f and the truncated kernel behind g_z_eps share one pass
    from cauchylab import operators

    passes = []
    family = operators.truncated_cauchy_family

    def counting(sc, values, eps_list):
        passes.append(len(values))
        return family(sc, values, eps_list)

    monkeypatch.setattr(operators, "truncated_cauchy_family", counting)
    text = SMALL_CIRCLE.replace("scans = diag,criterion", "scans = transform")
    spec = _write_spec(tmp_path, text)
    assert run(CommandInvocation("transform", str(spec), str(tmp_path / "o"))) == 0
    assert passes == [2]


def test_decomp_gdecay_sandwich_series_scans(tmp_path):
    text = SMALL_CIRCLE.replace("scans = diag,criterion",
                                "scans = decomp,gdecay,sandwich")
    spec = _write_spec(tmp_path, text)
    assert run(CommandInvocation("all", str(spec), str(tmp_path / "o"))) == 0
    names = {p.name for p in (tmp_path / "o").iterdir()}
    assert {"decomp.csv", "gdecay.csv", "sandwich.csv"} <= names
    spiral_text = """
[curve]
kind = spiral
depth = 3

[sampling]
n = 512
resolutions = 128,256

[experiment]
scans = series
"""
    spec2 = _write_spec(tmp_path, spiral_text, "sp.cspec")
    assert run(CommandInvocation("all", str(spec2), str(tmp_path / "o2"))) == 0
    series = (tmp_path / "o2" / "series.csv").read_text().strip().split("\n")
    assert series[0] == "curve,k,half_diameter,tail_excess,strip_width"
    assert len(series) == 4  # depth 3


def test_shipped_spec_files_are_valid():
    from pathlib import Path

    from cauchylab import curvespec

    specs = sorted(Path(__file__).resolve().parent.parent.glob("specs/*.cspec"))
    assert len(specs) >= 4
    for path in specs:
        doc = curvespec.parse_spec(path.read_text())
        assert doc.kind in curvespec.CURVE_KINDS


def test_known_defect_square_criterion_flips_bounded_at_k_max_13(tmp_path):
    """Known defect, pinned as today's behaviour: the square's criterion
    score grows by a constant amount per dyadic level, so the ratio tail
    rule stops seeing growth one level past the shipped k_max = 12 and the
    corner curve reads bounded.  Change this test when the rule changes."""
    from pathlib import Path

    spec = Path(__file__).resolve().parent.parent / "specs" / "square.cspec"
    verdicts = {}
    for k_max in (12, 13):
        out = tmp_path / f"k{k_max}"
        inv = CommandInvocation("criterion", str(spec), str(out),
                                overrides=(f"experiment.k_max={k_max}",))
        assert run(inv) == 0
        summary = (out / "summary.txt").read_text()
        verdicts[k_max] = summary.split("criterion verdict: ")[1].split("\n")[0]
    assert verdicts == {12: "unbounded", 13: "bounded"}
