"""cauchylab benchmark: runs one workload and reports its metrics.

    python3 perfbench/run.py --workload square-dichotomy --seed 0 \
        --seconds 20 --trace 0

Runs one workload as a closed loop with one client: fresh worker processes
(perfbench/worker.py), started one at a time, each timing its own set-up
and one ``cli.run`` sample, until --seconds have passed (at least one);
then set-up-only processes until three set-ups have been timed.
Every sample's outputs are checked; a sample fails when its exit status is
not 0, its verdicts are not the expected ones, its files differ from an
earlier run of the same code and seed, or its verdict-carrying values are
more than 1e-12 (relative, per column) from the reference recorded in
reference.json.  With --trace 1 a single traced sample gives the per-layer
figures instead.  The last stdout line is one JSON object: correct,
attempted, failed and metrics (end-to-end ones untraced, per-layer ones
traced).  The workloads and the metrics, with their units, are the ones
BENCHMARK.json declares; a declared metric the run did not produce is an
error.  reference.json is written offline, by record_baseline.py.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (REFERENCE_SEEDS, REL_TOL, WORKLOADS, code_digest,
                       digests, margins, read_verdicts, reference_error,
                       verdict_values)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "out"
REFERENCE = BENCH / "reference.json"
DECLARED = ROOT / "BENCHMARK.json"

# An untraced run times at least this many set-ups; set-up-only processes
# make up what the samples do not.
SETUPS = 3
WORKER_TIMEOUT_S = 170
# Stop starting samples when another one would likely end past this.
RUN_LIMIT_S = 150

def worker(mode: str, wl, seed: int, out: Path) -> tuple:
    """Run one worker process; returns (its JSON result or None, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, wl.name, str(seed),
         str(out)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        return None, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check(wl, result, out: Path, reference: dict | None, seen: dict) -> tuple:
    """Check one sample's outputs; returns (reasons it failed, its values,
    its file digests)."""
    if result is None:
        return ["worker process failed"], None, None
    if result["exit_status"] != 0:
        return [f"exit status {result['exit_status']}"], None, None
    reasons = []
    verdicts = read_verdicts(out)
    if verdicts != wl.expected:
        reasons.append(f"verdicts {verdicts} are not {wl.expected}")
    values = verdict_values(wl, out)
    files = digests(out)
    if seen.setdefault("files", files) != files:
        reasons.append("outputs differ from an earlier run of the same code and seed")
    if reference is None:
        reasons.append("no reference recorded for this program seed")
    else:
        err = reference_error(values, reference["values"])
        if not err <= REL_TOL:
            reasons.append(f"verdict values {err:.3g} from the reference")
    return reasons, values, files


def load_json(path: Path, default):
    return json.loads(path.read_text()) if path.exists() else default


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = json.loads(DECLARED.read_text())
    whys = {w["name"]: w["why"] for w in declared["workloads"]}
    if args.workload not in whys or args.workload not in WORKLOADS:
        print(f"error: {args.workload} is not a workload of both "
              f"BENCHMARK.json ({', '.join(whys)}) and workloads.py",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if not (ROOT / "src" / "cauchylab" / "cli.py").is_file() or \
            not (ROOT / wl.spec).is_file():
        print(f"error: {ROOT} holds no cauchylab sources or no {wl.spec}",
              file=sys.stderr)
        return 2
    seed = args.seed % REFERENCE_SEEDS
    reference = load_json(REFERENCE, {}).get(wl.name, {}).get(str(seed))
    work = WORK / wl.name
    out = work / "run"
    work.mkdir(parents=True, exist_ok=True)

    # Outputs must repeat byte for byte across runs of the same code and seed.
    store_path = WORK / "digests.json"
    store = load_json(store_path, {})
    seen = store.setdefault(f"{code_digest(ROOT, wl)}/{wl.name}/{seed}", {})

    print(f"workload {wl.name}: {whys[wl.name]}")
    print(f"seed {args.seed} -> program seed {seed}; "
          f"trace {args.trace}; run length {args.seconds:g} s")
    samples = []
    failed = 0
    started = time.monotonic()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.monotonic()
        try:
            result, err = worker("trace" if args.trace else "run", wl, seed, out)
        except subprocess.TimeoutExpired:
            result, err = None, f"worker ran past {WORKER_TIMEOUT_S} s"
        last = time.monotonic() - t0
        reasons, values, files = check(wl, result, out, reference, seen)
        if reasons:
            failed += 1
            print(f"sample {len(samples) + 1} FAILED: {'; '.join(reasons)}")
            print(err.strip()[-2000:], file=sys.stderr)
        else:
            print(f"sample {len(samples) + 1}: wall {result['wall_s']:.3f} s, "
                  f"verdicts {'/'.join(wl.expected.values())}, files match "
                  "the reference digests: "
                  + ("yes" if reference and files == reference["digests"]
                     else "no"))
            result["output_bytes"] = sum(p.stat().st_size
                                         for p in out.iterdir())
            result["margins"] = margins(values)
        samples.append((result, values, files))
        shutil.rmtree(out, ignore_errors=True)
        elapsed = time.monotonic() - started
        if args.trace or elapsed >= args.seconds or elapsed + last > RUN_LIMIT_S:
            break
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))

    measured = [r for r, _v, _f in samples if r is not None]
    if not measured:
        print("error: no sample produced measurements", file=sys.stderr)
        return 1
    ok = [(r, v, f) for r, v, f in samples if r is not None and "margins" in r]
    attempted = len(samples)
    print(f"error_rate {failed / attempted:g} ({failed} of {attempted} "
          "samples failed)")
    if ok and wl.subcommand == "all":
        m = ok[-1][0]["margins"]
        print(f"verdict margins: growth_min {m['growth_min']:.6g} "
              f"(growing needs >= 1.10), spread {m['spread']:.6g} "
              f"(stable needs < 0.25), lower_span {m['lower_span']:.6g} "
              "(bounded needs <= 3)")

    if args.trace:
        result = ok[-1][0] if ok else measured[-1]
        figures = dict(result["per_layer"])
        if "margins" in result:
            figures["cli.output_bytes"] = result["output_bytes"]
            for key, value in result["margins"].items():
                figures[f"harness.verdict.{key}"] = value
        wall = result["wall_s"]
        print(f"traced wall {wall:.3f} s; layer self times sum to "
              f"{figures['trace.self_sum_ratio']:.4f} of it; wrappers "
              f"spent {figures['trace.overhead_s']:.4f} s")
        wanted = declared["per_layer"]
    else:
        setups = [r["setup_s"] for r in measured]
        while len(setups) < SETUPS:
            result, err = worker("setup", wl, seed, out)
            if result is None:
                print(err, file=sys.stderr)
                return 1
            setups.append(result["setup_s"])
        figures = {
            "wall_s": statistics.median(r["wall_s"] for r in measured),
            "cpu_s": statistics.median(r["cpu_s"] for r in measured),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
        }
        print(f"{len(measured)} samples, {len(setups)} set-ups; medians:")
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"error: no figure for the declared metrics {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")

    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": wl.name, "seed": args.seed,
                             "program_seed": seed, "trace": args.trace,
                             "time": time.time(), **summary,
                             "samples": [r for r, _v, _f in samples]}) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
