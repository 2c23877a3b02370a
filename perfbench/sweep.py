"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py                       # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --out perfbench/baseline/BENCH_<label>.json

Each run is a separate ``perfbench/run.py`` process, one after the other,
over every workload and with the ``run_seconds`` window of BENCHMARK.json.
For every end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next to
the bound in BENCHMARK.json. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    detail_path = os.path.join("perfbench", "out", workload,
                               f"result-seed{seed}-trace{trace}.json")
    with open(detail_path) as fh:
        detail = json.load(fh)
    return {"workload": workload, "seed": seed, "trace": trace, **result,
            "digest_sha256": detail["digest_sha256"], "machine": detail["machine"]}


def summarise(runs: list[dict], specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[spec["name"]] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec.get("bound"),
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write runs and summary to this JSON file")
    args = p.parse_args(argv)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"]
    report = {"benchmark": bench, "seconds": seconds, "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    for workload in names:
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in args.seeds]
        summary = summarise(runs, specs)
        report["machine"] = runs[0]["machine"]
        report["workloads"][workload] = {
            "summary": summary,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "digests": sorted({r["digest_sha256"] for r in runs}),
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed",
                                        "digest_sha256")} for r in runs],
        }
        print(f"\n== {workload}: {len(runs)} runs, failed "
              f"{report['workloads'][workload]['failed']}/"
              f"{report['workloads'][workload]['attempted']}")
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and len(runs) > 1:
                flag = ("OVER BOUND" if s["spread"] > s["bound"]
                        else "over bound/3" if s["spread"] > s["bound"] / 3 else "ok")
            print(f"  {name:30s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f} {s['unit']} {flag}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
