"""Record the benchmark's reference values and its baseline, offline.

    python3 perfbench/record_baseline.py reference WORKLOAD
    python3 perfbench/record_baseline.py baseline LABEL

``reference`` runs WORKLOAD once for each program seed, checks its exit
status and verdicts, and stores its verdict-carrying values, file digests
and verdict margins in perfbench/reference.json, which every run of run.py
is checked against.

``baseline`` writes perfbench/baseline.json from the runs logged in
perfbench/out.  Every run of run.py appends its result to
perfbench/out/results.jsonl.  This takes the untraced runs of each workload
(median and quartiles of each end-to-end metric over runs), the last traced
run of each workload, the verdict margins per program seed from
reference.json, and a description of the machine, and writes them under
LABEL.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

from run import REFERENCE, worker
from workloads import (REFERENCE_SEEDS, WORKLOADS, digests, margins,
                       read_verdicts, verdict_values)

BENCH = Path(__file__).resolve().parent
# Work counts derived from returned array sizes or list lengths.
COMPUTED_COUNTS = ("operators.truncated_cauchy_all.values_out",
                   "operators.pv_cauchy_all.values_out",
                   "operators.values_per_s",
                   "operators.transform_csv_rows.rows",
                   "curves.arclength_sample.nodes",
                   "harness.make_test_functions.functions_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = int((index / "level").read_text())
        if level >= max(llc, default=0):
            llc = {level: (index / "size").read_text().strip()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": {f"L{k}": v for k, v in llc.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values),
            "runs": len(values)}


def record_reference(name: str) -> int:
    wl = WORKLOADS[name]
    out = BENCH / "out" / "reference" / name
    entry = {}
    for seed in range(REFERENCE_SEEDS):
        shutil.rmtree(out, ignore_errors=True)
        result, err = worker("run", wl, seed, out)
        if result is None or result["exit_status"] != 0 \
                or read_verdicts(out) != wl.expected:
            print(f"error: {name} at program seed {seed} did not run to its "
                  f"expected verdicts\n{err}", file=sys.stderr)
            return 1
        values = verdict_values(wl, out)
        entry[str(seed)] = {"values": values, "digests": digests(out)}
        if wl.subcommand == "all":
            entry[str(seed)]["margins"] = margins(values)
    shutil.rmtree(out)
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    references[name] = entry
    REFERENCE.write_text(json.dumps(references, indent=1) + "\n")
    return 0


def record_baseline(label: str) -> int:
    runs = [json.loads(line) for line in
            (BENCH / "out" / "results.jsonl").read_text().splitlines()]
    references = json.loads(REFERENCE.read_text())
    workloads = {}
    for wl in sorted({r["workload"] for r in runs}):
        untraced = [r for r in runs if r["workload"] == wl and not r["trace"]]
        traced = [r for r in runs if r["workload"] == wl and r["trace"]]
        entry = {
            "seeds": [r["seed"] for r in untraced],
            "error_rate": sum(r["failed"] for r in untraced + traced)
                          / sum(r["attempted"] for r in untraced + traced),
            "end_to_end": {
                name: dict(spread([r["metrics"][name]["value"]
                                   for r in untraced]),
                           unit=metric["unit"])
                for name, metric in untraced[0]["metrics"].items()
            } if len(untraced) >= 2 else {},
            "per_layer": ({name: m["value"]
                           for name, m in traced[-1]["metrics"].items()}
                          if traced else {}),
            "verdict_margins_by_program_seed": {
                seed: ref["margins"]
                for seed, ref in references.get(wl, {}).items()
                if "margins" in ref},
        }
        workloads[wl] = entry
    path = BENCH / "baseline.json"
    baselines = json.loads(path.read_text()) if path.exists() else {}
    baselines[label] = {
        "machine": machine(),
        "computed_not_measured": list(COMPUTED_COUNTS),
        "workloads": workloads,
    }
    path.write_text(json.dumps(baselines, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    command, arg = sys.argv[1:]
    sys.exit({"reference": record_reference,
              "baseline": record_baseline}[command](arg))
