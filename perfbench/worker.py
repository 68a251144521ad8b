"""One benchmark process: set up, or set up and run one workload.

    python3 perfbench/worker.py setup|run|trace WORKLOAD PROGRAM_SEED OUT_DIR

Each mode starts from a fresh interpreter.  ``setup`` times importing
cauchylab, parsing the spec, building the curve and sampling it.  ``run``
does the same set-up and then times one ``cli.run`` call of the
workload's subcommand (``all`` with --assert-theorem, or ``transform``);
``trace`` does that with every public function listed in TRACED wrapped in
a span recorder, and writes the spans to OUT_DIR/../trace-spans.json.  The
last line of stdout is one JSON object with the measurements.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Public functions wrapped in a traced run, by module (layer).
TRACED = {
    "cli": ("run",),
    "curvespec": ("parse_spec", "apply_overrides", "build_from_document"),
    "curves": ("arclength_sample", "write_curve_csv", "build_spiral",
               "builtin_curve"),
    "geometry": ("bilipschitz_constant", "eps0_gate", "conformality_modulus",
                 "diagnostics", "branch_log"),
    "operators": ("pv_cauchy_all", "truncated_cauchy_all",
                  "maximal_cauchy_all", "hl_maximal_all", "hl_maximal_squared",
                  "kernel_truncation_transform", "transform_csv_rows"),
    "harness": ("make_test_functions", "criterion_scan", "cotlar_ratio_scan"),
}

# Work counts taken from the sizes of returned values, not measured.
WORK = {
    "operators.pv_cauchy_all": lambda r: {"values": r.values.size,
                                          "grid": r.base.n},
    "operators.truncated_cauchy_all": lambda r: {
        "values": sum(v.size for v in r.values()),
        "grid": next(iter(r.values())).size},
    "operators.transform_csv_rows": lambda r: {"rows": len(r)},
    "curves.arclength_sample": lambda r: {"nodes": r.n},
    "harness.make_test_functions": lambda r: {"functions": len(r)},
}

SWEEPS = ("operators.pv_cauchy_all", "operators.truncated_cauchy_all")


class Tracer:
    """Records a span per call of each wrapped function, in memory.

    A span is name, start, end, index of the enclosing span (-1 for none),
    whether the call returned, and its work counts.  ``overhead_s`` sums
    the time the wrappers spend outside the calls they wrap.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.overhead_s = 0.0

    def wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1,
                    "ok": False}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["ok"] = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["start"], span["end"] = start, end
                if span["ok"] and work is not None:
                    span.update(work(result))
                self.overhead_s += (start - enter) + (time.perf_counter() - end)
        return traced

    def install(self):
        """Wrap every TRACED function and rebind it in every cauchylab
        namespace that holds it, so calls through ``from .x import f``
        names are recorded too."""
        import cauchylab  # noqa: F401  (loads every module)

        modules = [m for key, m in sys.modules.items()
                   if key == "cauchylab" or key.startswith("cauchylab.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"cauchylab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)


def summarize(spans, wall_s: float) -> dict:
    """Per-function and per-layer figures from the recorded spans.

    busy_s is inclusive time, counting only spans with no enclosing span of
    the same name; self_s is a span's time minus its child spans.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]

    def outermost(i, names):
        p = spans[i]["parent"]
        while p >= 0:
            if spans[p]["name"] in names:
                return False
            p = spans[p]["parent"]
        return True

    out = {}
    layer_self = {layer: 0.0 for layer in TRACED}
    for layer, names in TRACED.items():
        for fname in names:
            out.update({f"{layer}.{fname}.{k}": 0.0
                        for k in ("calls", "busy_s", "self_s")})
    for i, s in enumerate(spans):
        name = s["name"]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur[i] - child[i]
        layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
        if outermost(i, (name,)):
            out[f"{name}.busy_s"] += dur[i]

    sweeps = [i for i, s in enumerate(spans) if s["name"] in SWEEPS]
    ops = [i for i, s in enumerate(spans)
           if s["name"].startswith("operators.")
           and outermost(i, tuple(f"operators.{f}" for f in TRACED["operators"]))]
    ops_busy = sum(dur[i] for i in ops)
    values = sum(spans[i]["values"] for i in sweeps if spans[i]["ok"])
    grids = {spans[i]["grid"] for i in sweeps if spans[i]["ok"]}
    for name in SWEEPS:
        out[f"{name}.values_out"] = sum(
            s["values"] for s in spans if s["name"] == name and s["ok"])
    branch = [s for s in spans if s["name"] == "geometry.branch_log"]
    out.update({
        "operators.values_per_s": values / ops_busy if ops_busy > 0 else 0.0,
        "operators.calls_per_grid": len(sweeps) / len(grids) if grids else 0.0,
        "operators.sweep_share": sum(dur[i] for i in sweeps) / wall_s,
        "operators.transform_csv_rows.rows": sum(
            s["rows"] for s in spans
            if s["name"] == "operators.transform_csv_rows" and s["ok"]),
        "curves.arclength_sample.nodes": sum(
            s["nodes"] for s in spans
            if s["name"] == "curves.arclength_sample" and s["ok"]),
        "harness.make_test_functions.functions_out": sum(
            s["functions"] for s in spans
            if s["name"] == "harness.make_test_functions" and s["ok"]),
        "geometry.branch_log.ok_ratio": (
            sum(s["ok"] for s in branch) / len(branch) if branch else 1.0),
        "geometry.eps0_gate.share": out["geometry.eps0_gate.busy_s"] / wall_s,
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
        "trace.self_sum_ratio": sum(layer_self.values()) / wall_s,
    })
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
        out[f"{layer}.share"] = value / wall_s
    return out


def setup(wl) -> float:
    start = time.perf_counter()
    from cauchylab import curves, curvespec

    doc = curvespec.parse_spec((ROOT / wl.spec).read_text())
    doc = curvespec.apply_overrides(doc, wl.overrides)
    curve = curvespec.build_from_document(doc)
    curves.arclength_sample(curve, doc.get("sampling", "n"))
    return time.perf_counter() - start


def run(wl, seed: int, out: Path, tracer: Tracer | None) -> dict:
    from cauchylab import cli

    if tracer is not None:
        tracer.install()
    inv = cli.CommandInvocation(subcommand=wl.subcommand,
                                spec_path=str(ROOT / wl.spec),
                                out_dir=str(out), overrides=wl.overrides,
                                assert_theorem=wl.subcommand == "all",
                                seed=seed)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    status = cli.run(inv)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_status": status,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime)
                 + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = summarize(tracer.spans, wall)
        result["per_layer"]["trace.overhead_s"] = tracer.overhead_s
        with open(out.parent / "trace-spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    return result


def main(argv) -> int:
    mode, name, seed, out = argv
    wl = WORKLOADS[name]
    result = {"setup_s": setup(wl)}
    if mode != "setup":
        result.update(run(wl, int(seed), Path(out),
                          Tracer() if mode == "trace" else None))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
