#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and summarise the spread of each metric.

    python3 bench/repeat.py [--workloads a,b] [--seeds 1-10] [--trace-seed N]
                            [--out FILE]

For every workload, runs the benchmark once per seed with --trace 0 and
reports, per end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread (q3 - q1) /
median next to the metric's bound in BENCHMARK.json. It also pools the
wall-time samples of all runs for the tail percentile. With --trace-seed it
adds one traced run per workload for the per-layer metrics and layer
shares. --out writes everything as JSON, the form of bench/baseline.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return json.loads(lines[-1]), report


def spread_stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    opts = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": opts.seconds, "seeds": opts.seeds, "workloads": {}}
    for name in opts.workloads.split(","):
        results, walls = [], []
        for seed in opts.seeds:
            result, report = bench_once(name, seed, opts.seconds, 0)
            summary.setdefault("facts", json.loads(report["facts"]))
            walls += json.loads(report["wall_s samples"])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
            results.append(result)
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed_frac": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "metrics": {},
        }
        for metric, bound in bounds.items():
            stats = spread_stats([r["metrics"][metric]["value"] for r in results])
            stats.update(unit=results[0]["metrics"][metric]["unit"], bound=bound)
            entry["metrics"][metric] = stats
            # Set-up time is bounded only by its median, not by its spread.
            verdict = ("median only" if metric == "setup_s" else
                       "steady" if stats["spread"] < bound / 3 else
                       "within bound" if stats["spread"] <= bound else "TOO NOISY")
            print(f"  {metric}: median {stats['median']:.6g} {stats['unit']}, "
                  f"spread {100 * stats['spread']:.2f}% (bound {100 * bound:.0f}%) {verdict}")
        tail = run.tail_percentile(walls)
        entry["wall_s pooled"] = {"n": len(walls), "median": statistics.median(walls),
                                  "tail": {"percentile": tail[0], "value": tail[1]} if tail else None}
        print(f"  wall_s pooled over {len(walls)} commands: median "
              f"{statistics.median(walls):.6g} s" + (f", p{tail[0]} {tail[1]:.6g} s" if tail else ""))
        if opts.trace_seed is not None:
            result, report = bench_once(name, opts.trace_seed, opts.seconds, 1)
            entry["trace"] = {
                "seed": opts.trace_seed,
                "correct": result["correct"],
                "dominant_function": json.loads(report["dominant function (self time)"]),
                "layer_shares": json.loads(report["layer shares of traced wall"]),
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            }
            print(f"  trace: dominant {entry['trace']['dominant_function']}, "
                  f"shares {entry['trace']['layer_shares']}")
        summary["workloads"][name] = entry
    if opts.out:
        opts.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
