#!/usr/bin/env python3
"""End-to-end benchmark of the nmflow command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nmflow is imported from its src/ directory.
Each workload is a fixed nmflow command whose inputs are made from --seed.
The benchmark process launches it again and again as a fresh CLI process (a
closed loop with one client) until --seconds have been measured, with BLAS
and OpenMP threads pinned to one in the child's environment, and checks every
output against an independent reference and against the first output of the
run, which every rerun must match byte for byte.

--trace 0 reports the end-to-end metrics (wall time relative to a reference
kernel run between commands, set-up time, peak RSS). --trace 1 alternates
plain runs with runs under the span tracer of bench/child.py and reports
per-layer metrics from the spans. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a human-readable report with the machine and software facts of
the run.
"""
import argparse
import csv
import io
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_DIR = ROOT / ".bench_run"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_SAMPLES = 3
# The whole run must end within 180 s even if the program gets much slower.
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10

# Reference-check tolerances.
N_REF_TOL = 1e-8
SAMPLED_SLACK = 1e-6
CHOI_REF_TOL = 1e-10


# --------------------------------------------------------------------------
# Workloads


def grid_points(horizon, step):
    """Points of the uniform grid the CLI integrates on (t_k = k * step)."""
    return int(round(horizon / step)) + 1


def nmflow_models():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from nmflow import models

    return models


def jc_abs2(gamma0, delta, times):
    """|G(t)|^2 of the damped two-level atom, from the closed-form amplitude."""
    models = nmflow_models()
    params = models.JCParams(gamma0=gamma0, lam=1.0, delta=delta)
    return np.abs(models.jc_amplitude(params, np.asarray(times, dtype=float))) ** 2


def n_z_reference(gamma0, delta, horizon, step):
    """Summed positive increments of |G|^2 on the CLI's grid: the canonical
    z pair's measure, since D(t) = |G(t)|^2 for that pair."""
    g2 = jc_abs2(gamma0, delta, np.arange(grid_points(horizon, step)) * step)
    return float(np.sum(np.maximum(np.diff(g2), 0.0)))


def jc_measure_params(seed):
    return {"gamma0": 0.01, "delta": 8.0, "n_pairs": 500, "horizon": 10.0,
            "step": 1e-3, "seed": seed}


def jc_measure_args(p, run_dir):
    return ["measure", "--model", "jc", "--gamma0", repr(p["gamma0"]),
            "--delta", repr(p["delta"]), "--n-pairs", str(p["n_pairs"]),
            "--horizon", repr(p["horizon"]), "--step", repr(p["step"]),
            "--seed", str(p["seed"]), "--format", "json"]


def check_canonical(p, delta, n_canonical, n_sampled_max, where):
    problems = []
    ref = n_z_reference(p["gamma0"], delta, p["horizon"], p["step"])
    if not abs(n_canonical - ref) <= N_REF_TOL:
        problems.append(f"{where}: n_canonical_pair {n_canonical!r} differs from "
                        f"the closed-form {ref!r} by more than {N_REF_TOL}")
    if not n_sampled_max <= n_canonical + SAMPLED_SLACK:
        problems.append(f"{where}: n_sampled_max {n_sampled_max!r} exceeds "
                        f"n_canonical_pair {n_canonical!r} + {SAMPLED_SLACK}")
    return problems


def check_jc_measure(p, output):
    data = json.loads(output)
    problems = check_canonical(p, p["delta"], data["n_canonical_pair"],
                               data["n_sampled_max"], "measure")
    return len(data["failures"]), problems


def jc_sweep_params(seed):
    return {"gamma0": 0.01, "delta_min": 0.0, "delta_max": 10.0, "delta_points": 3,
            "n_pairs": 100, "horizon": 8.0, "step": 1e-3, "seed": seed}


def jc_sweep_args(p, run_dir):
    return ["sweep", "--model", "jc", "--gamma0", repr(p["gamma0"]),
            "--delta-min", repr(p["delta_min"]), "--delta-max", repr(p["delta_max"]),
            "--delta-points", str(p["delta_points"]), "--n-pairs", str(p["n_pairs"]),
            "--horizon", repr(p["horizon"]), "--step", repr(p["step"]),
            "--seed", str(p["seed"]), "--format", "csv"]


def check_jc_sweep(p, output):
    rows = list(csv.DictReader(io.StringIO(output.decode())))
    deltas = np.linspace(p["delta_min"], p["delta_max"], p["delta_points"])
    if [float(r["delta_over_lambda"]) for r in rows] != [float(d) for d in deltas]:
        return 0, [f"sweep rows {[r['delta_over_lambda'] for r in rows]} do not "
                   f"match the detuning grid {list(deltas)}"]
    failed, problems = 0, []
    for delta, row in zip(deltas, rows):
        if row["error"]:
            failed += 2 + p["n_pairs"]
            continue
        where = f"sweep row delta={delta}"
        problems += check_canonical(p, float(delta), float(row["n_canonical_pair"]),
                                    float(row["n_sampled_max"]), where)
        if delta == 0.0 and float(row["n_value"]) != 0.0:
            problems.append(f"{where}: n_value {row['n_value']} is not exactly 0")
    return failed, problems


def d4_generator(seed):
    """Random d = 4 constant generator in Lindblad form with positive rates,
    hence a CP semigroup: H Hermitian, three Frobenius-normalised jump
    operators with rates in [0.2, 1]."""
    rng = np.random.default_rng(seed)
    d = 4

    def ginibre():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    def matrix(m):
        return {"re": m.real.tolist(), "im": m.imag.tolist()}

    a = ginibre()
    channels = []
    for _ in range(3):
        op = ginibre()
        op /= np.linalg.norm(op)
        channels.append({"operator": matrix(op), "rate": float(rng.uniform(0.2, 1.0))})
    return {"dim": d, "hamiltonian": matrix(0.5 * (a + a.conj().T)), "channels": channels}


def d4_measure_params(seed):
    return {"generator": d4_generator(seed), "n_pairs": 8, "horizon": 0.1,
            "step": 1e-3, "seed": seed}


def d4_measure_args(p, run_dir):
    path = run_dir / "generator.json"
    path.write_text(json.dumps(p["generator"]))
    return ["measure", "--model", "custom-file", "--generator-file", str(path),
            "--n-pairs", str(p["n_pairs"]), "--horizon", repr(p["horizon"]),
            "--step", repr(p["step"]), "--seed", str(p["seed"]), "--format", "json"]


def check_d4_measure(p, output):
    data = json.loads(output)
    problems = []
    if data["n_value"] != 0.0:
        problems.append(f"n_value {data['n_value']!r} of a CP semigroup is not exactly 0")
    return len(data["failures"]), problems


def jc_divisibility_params(seed):
    delta = 4.5 + float(np.random.default_rng(seed).random())
    return {"gamma0": 0.01, "delta": delta, "horizon": 12.0, "grid_points": 600,
            "step": 1e-3, "cp_tol": 1e-7}


def jc_divisibility_args(p, run_dir):
    return ["divisibility", "--model", "jc", "--gamma0", repr(p["gamma0"]),
            "--delta", repr(p["delta"]), "--horizon", repr(p["horizon"]),
            "--grid-points", str(p["grid_points"]), "--step", repr(p["step"]),
            "--cp-tol", repr(p["cp_tol"]), "--format", "json"]


def check_jc_divisibility(p, output):
    """The map Phi(b, a) is amplitude damping with amplitude G(b)/G(a); its
    least Choi eigenvalue is min(0, 1 - |G(b)/G(a)|^2)."""
    intervals = json.loads(output)["intervals"]
    grid = np.linspace(0.0, p["horizon"], p["grid_points"] + 1)
    if len(intervals) != p["grid_points"]:
        return 0, [f"{len(intervals)} intervals, expected {p['grid_points']}"]
    g2 = jc_abs2(p["gamma0"], p["delta"], grid)
    problems = []
    for k, iv in enumerate(intervals):
        ref = min(0.0, 1.0 - g2[k + 1] / g2[k])
        if (iv["t_start"], iv["t_end"]) != (float(grid[k]), float(grid[k + 1])):
            problems.append(f"interval {k} is [{iv['t_start']}, {iv['t_end']}], "
                            f"expected [{grid[k]}, {grid[k + 1]}]")
        elif not abs(iv["least_choi_eigenvalue"] - ref) <= CHOI_REF_TOL:
            problems.append(f"interval {k}: least Choi eigenvalue "
                            f"{iv['least_choi_eigenvalue']!r}, reference {ref!r}")
        elif iv["is_cp"] != (ref >= -p["cp_tol"]):
            problems.append(f"interval {k}: is_cp {iv['is_cp']} disagrees with the "
                            f"reference eigenvalue {ref!r}")
    if all(iv["is_cp"] for iv in intervals):
        problems.append("no interval is non-CP; the workload should cross negative rates")
    return 0, problems[:5]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    output_name: str
    params: Callable[[int], dict]
    args: Callable[[dict, Path], list]
    check: Callable[[dict, bytes], tuple]
    # Operations per command (pair evaluations or interval verdicts) and the
    # work units behind the reported throughput (pair x grid points, or
    # intervals).
    operations: Callable[[dict], int]
    work: Callable[[dict], int]
    work_name: str
    # Arguments of `child.py reference`: grid points, RK4-like steps, passes
    # over the grid and Jacobi-like rotations, in about the proportions of
    # the workload's traced layer shares.
    reference: tuple


def measure_ops(p):
    return 2 + p["n_pairs"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "jc-measure",
            "README measure with 500 pairs at horizon 10: per-pair trajectory evaluation dominates and one flow serves every pair",
            "measure.json", jc_measure_params, jc_measure_args, check_jc_measure,
            measure_ops,
            lambda p: measure_ops(p) * grid_points(p["horizon"], p["step"]),
            "pair_points_per_s",
            (10001, 5000, 120, 2000),
        ),
        Workload(
            "jc-sweep",
            "README sweep at three detunings and horizon 8: building one RK4 flow per detuning dominates",
            "sweep.csv", jc_sweep_params, jc_sweep_args, check_jc_sweep,
            lambda p: p["delta_points"] * measure_ops(p),
            lambda p: p["delta_points"] * measure_ops(p) * grid_points(p["horizon"], p["step"]),
            "pair_points_per_s",
            (8001, 14000, 40, 2000),
        ),
        Workload(
            "d4-measure",
            "custom-file d=4 CP semigroup from the seed: the Hermitian eigensolver dominates, flow work is negligible",
            "measure.json", d4_measure_params, d4_measure_args, check_d4_measure,
            measure_ops,
            lambda p: measure_ops(p) * grid_points(p["horizon"], p["step"]),
            "pair_points_per_s",
            (101, 1000, 0, 15000),
        ),
        Workload(
            "jc-divisibility",
            "600 short two-time propagators plus Choi tests and a large JSON write: the CP path",
            "divisibility.json", jc_divisibility_params, jc_divisibility_args,
            check_jc_divisibility,
            lambda p: p["grid_points"],
            lambda p: p["grid_points"],
            "intervals_per_s",
            (21, 15000, 0, 4000),
        ),
    )
}


# --------------------------------------------------------------------------
# Child processes


@dataclass
class Sample:
    """One child process: wall time, exit code, peak RSS and output bytes."""

    wall_s: float
    status: int
    rss_mb: float = 0.0
    output: Optional[bytes] = None
    stderr: str = ""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NMFLOW_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, run_dir, timeout, output=None):
    """Run argv to completion; wall time from launch to exit, maxrss by wait4."""
    if output is not None and output.exists():
        output.unlink()
    err_path = run_dir / "child.err"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                proc.kill()
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    data = output.read_bytes() if output is not None and output.exists() else None
    return Sample(wall_s=wall, status=proc.returncode, rss_mb=usage.ru_maxrss / 1024.0,
                  output=data, stderr=err_path.read_text(errors="replace")[-500:])


# --------------------------------------------------------------------------
# Scoring


def score(workload, params, samples):
    """(attempted, failed, problems) over the samples of one run.

    Every sample attempts workload.operations(params) operations. A sample
    that exits non-zero, whose output differs from the first sample's, or
    whose output fails a reference check counts all of them as failed;
    otherwise the failures the output lists (failed pairs, errored sweep
    rows) count.
    """
    ops = workload.operations(params)
    first = samples[0].output if samples else None
    verdicts = {}
    attempted = failed = 0
    problems = []
    for i, s in enumerate(samples):
        attempted += ops
        if s.status != 0:
            failed += ops
            problems.append(f"run {i}: exit status {s.status}: {s.stderr.strip()[-200:]}")
            continue
        if s.output != first:
            failed += ops
            problems.append(f"run {i}: output is not byte-identical to run 0")
            continue
        if s.output not in verdicts:
            try:
                verdicts[s.output] = workload.check(params, s.output)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                verdicts[s.output] = (ops, [f"unreadable output: {exc!r}"])
        listed, found = verdicts[s.output]
        if found:
            failed += ops
            if i == 0:
                problems.extend(found)
        else:
            failed += min(listed, ops)
    return attempted, failed, problems


# --------------------------------------------------------------------------
# Metrics


def tail_percentile(values):
    """Highest whole percentile with at least TAIL_BEYOND samples above it,
    as (percentile, value), or None when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    q = math.floor(100.0 * (1.0 - TAIL_BEYOND / n))
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return q, cut


def self_times(spans):
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


EIG = ("linalg.hermitian_eigenvalues", "linalg.hermitian_eigensystem")
LAYER_MODULES = ("cli", "measure", "dynamics", "models", "states", "linalg")

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "measure.trajectory_self_s": ("s", "lower"),
    "measure.trajectory_calls": ("count", "lower"),
    "measure.growth_intervals_s": ("s", "lower"),
    "measure.intervals_found": ("count", "higher"),
    "measure.sample_pair_s": ("s", "lower"),
    "states.sample_s": ("s", "lower"),
    "states.samples": ("count", "lower"),
    "measure.search_pairs_self_s": ("s", "lower"),
    "measure.pairs_attempted": ("count", "higher"),
    "measure.pairs_failed": ("count", "lower"),
    "measure.pair_success_ratio": ("ratio", "higher"),
    "dynamics.propagator_grid_s": ("s", "lower"),
    "dynamics.propagator_grid_calls": ("count", "lower"),
    "dynamics.rk4_steps": ("count", "lower"),
    "dynamics.flow_bytes": ("B", "lower"),
    "dynamics.propagator_between_s": ("s", "lower"),
    "dynamics.propagator_between_calls": ("count", "lower"),
    "dynamics.is_cp_s": ("s", "lower"),
    "dynamics.is_cp_calls": ("count", "lower"),
    "linalg.eig_s": ("s", "lower"),
    "linalg.eig_calls.d2": ("count", "lower"),
    "linalg.eig_calls.d4": ("count", "lower"),
    "linalg.eig_calls.d16": ("count", "lower"),
    "models.jc_rate_s": ("s", "lower"),
    "models.jc_rate_calls": ("count", "lower"),
    "cli.resolve_config_s": ("s", "lower"),
    "cli.build_generator_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    **{f"self_s.{m}": ("s", "lower") for m in LAYER_MODULES},
    "trace.outside_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

END_TO_END = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_metrics(spans, traced_wall_s):
    """Per-layer metrics of one traced command from its spans (times in ns)."""
    own = self_times(spans)
    total, self_ns, calls, sums = (defaultdict(int) for _ in range(4))
    eig_ns, eig_sides = 0, defaultdict(int)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        total[name] += end - start
        self_ns[name] += own[i]
        self_ns[name.split(".")[0]] += own[i]
        calls[name] += 1
        for key, value in (attrs or {}).items():
            sums[name, key] += value
        if name in EIG and (parent < 0 or spans[parent][0] not in EIG):
            eig_ns += end - start
            eig_sides[attrs["side"] if attrs else 0] += 1
    sec = 1e-9
    attempted = sums["measure.search_pairs", "attempted"]
    pairs_failed = sums["measure.search_pairs", "failed"]
    main_ns = sum(end - start for name, start, end, parent, _ in spans if parent < 0)
    sampling = ("states.random_pure_state", "states.random_mixed_state")
    writes = ("cli.write_csv", "cli.write_json")
    flows = ("dynamics.propagator_grid", "dynamics.propagator_between")
    out = {
        "measure.trajectory_self_s": self_ns["measure.trajectory"] * sec,
        "measure.trajectory_calls": calls["measure.trajectory"],
        "measure.growth_intervals_s": total["measure.growth_intervals"] * sec,
        "measure.intervals_found": sums["measure.growth_intervals", "n"],
        "measure.sample_pair_s": total["measure.sample_pair"] * sec,
        "states.sample_s": sum(total[n] for n in sampling) * sec,
        "states.samples": sum(calls[n] for n in sampling),
        "measure.search_pairs_self_s": self_ns["measure.search_pairs"] * sec,
        "measure.pairs_attempted": attempted,
        "measure.pairs_failed": pairs_failed,
        "measure.pair_success_ratio": (attempted - pairs_failed) / attempted if attempted else 0.0,
        "dynamics.propagator_grid_s": total["dynamics.propagator_grid"] * sec,
        "dynamics.propagator_grid_calls": calls["dynamics.propagator_grid"],
        "dynamics.rk4_steps": sum(sums[n, "rk4_steps"] for n in flows),
        "dynamics.flow_bytes": sums["dynamics.propagator_grid", "flow_bytes"],
        "dynamics.propagator_between_s": total["dynamics.propagator_between"] * sec,
        "dynamics.propagator_between_calls": calls["dynamics.propagator_between"],
        "dynamics.is_cp_s": total["dynamics.is_cp"] * sec,
        "dynamics.is_cp_calls": calls["dynamics.is_cp"],
        "linalg.eig_s": eig_ns * sec,
        "linalg.eig_calls.d2": eig_sides[2],
        "linalg.eig_calls.d4": eig_sides[4],
        "linalg.eig_calls.d16": eig_sides[16],
        "models.jc_rate_s": total["models.jc_rate"] * sec,
        "models.jc_rate_calls": calls["models.jc_rate"],
        "cli.resolve_config_s": total["cli.resolve_config"] * sec,
        "cli.build_generator_s": total["cli.build_generator"] * sec,
        "cli.write_s": sum(total[n] for n in writes) * sec,
        "cli.output_bytes": sum(sums[n, "bytes"] for n in writes),
        **{f"self_s.{m}": self_ns[m] * sec for m in LAYER_MODULES},
        "trace.outside_s": traced_wall_s - main_ns * sec,
        "trace.spans": len(spans),
    }
    return out


def dominant_function(spans):
    """(name, share of all span self time) of the function with most self time."""
    per = defaultdict(int)
    for (name, *_), t in zip(spans, self_times(spans)):
        per[name] += t
    name = max(per, key=per.get)
    return name, per[name] / sum(per.values())


# --------------------------------------------------------------------------
# Runs


def read_git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def facts(seed):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": read_git_sha(),
        "thread_env": THREAD_ENV,
        "workload_seed": seed,
    }


class Runner:
    """Launches the commands of one benchmark run under a global time limit."""

    def __init__(self, workload, params, run_dir):
        self.workload = workload
        self.params = params
        self.run_dir = run_dir
        self.output = run_dir / workload.output_name
        self.cli_args = workload.args(params, run_dir) + ["--output", str(self.output)]
        self.started = time.perf_counter()

    def remaining(self):
        return CHILD_TIMEOUT_S - (time.perf_counter() - self.started)

    def cli(self):
        argv = [sys.executable, "-m", "nmflow.cli", *self.cli_args]
        return run_child(argv, self.run_dir, self.remaining(), self.output)

    def setup(self):
        argv = [sys.executable, str(CHILD), "setup", *self.cli_args]
        return run_child(argv, self.run_dir, self.remaining())

    def reference(self):
        argv = [sys.executable, str(CHILD), "reference", *map(str, self.workload.reference)]
        return run_child(argv, self.run_dir, self.remaining())

    def traced(self, spans_path):
        argv = [sys.executable, str(CHILD), "trace", str(spans_path), *self.cli_args]
        return run_child(argv, self.run_dir, self.remaining(), self.output)

    def keep_going(self, n_done, deadline, typical_s):
        now = time.perf_counter()
        if now - self.started + typical_s > HARD_LIMIT_S:
            return False
        return n_done < MIN_SAMPLES or now + typical_s <= deadline


def relative_walls(walls, ref_walls):
    """Each command's wall time over the mean of the reference kernels run
    just before and just after it (len(ref_walls) == len(walls) + 1)."""
    return [w / (0.5 * (before + after))
            for w, before, after in zip(walls, ref_walls, ref_walls[1:])]


def timed_run(runner, seconds):
    """End-to-end metrics from plain CLI runs, each after a set-up probe and
    between two runs of the reference kernel.

    The host's speed shifts by up to 1.5x for tens of seconds at a time, so
    each command's wall time is divided by the mean wall time of the
    reference kernels (child.py reference, shaped like the workload) run
    just before and just after it, and the median of those ratios is
    reported as wall_rel. Probes, commands and kernels alternate so that
    all see the same mix of the machine's fast and slow periods.
    """
    runner.setup()  # warm-up: byte-compiles the sources on a fresh checkout
    refs = [runner.reference()]
    setups, samples = [], []
    deadline = time.perf_counter() + seconds
    while runner.keep_going(len(samples), deadline, statistics.median(
            p.wall_s + s.wall_s + r.wall_s
            for p, s, r in zip(setups, samples, refs)) if samples else 0.0):
        setups.append(runner.setup())
        samples.append(runner.cli())
        refs.append(runner.reference())
    problems = [f"{kind} exit status {s.status}: {s.stderr.strip()[-200:]}"
                for kind, probes in (("set-up probe", setups), ("reference kernel", refs))
                for s in probes if s.status != 0]
    walls = [s.wall_s for s in samples]
    ref_walls = [r.wall_s for r in refs]
    rels = relative_walls(walls, ref_walls)
    wall = statistics.median(walls)
    w = runner.workload
    metrics = {
        "wall_rel": statistics.median(rels),
        "setup_s": statistics.median(s.wall_s for s in setups),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    report = {
        "wall_s samples": walls,
        "reference_s samples": ref_walls,
        "wall_rel samples": rels,
        "setup_s samples": [s.wall_s for s in setups],
        "peak_rss_mb samples": [s.rss_mb for s in samples],
        "wall_s median": wall,
        w.work_name: f"{w.work(runner.params) / wall:.6g} "
                     f"({w.work(runner.params)} per command / median wall_s)",
    }
    tail = tail_percentile(walls)
    report["wall_s tail"] = (f"p{tail[0]} = {tail[1]:.6g} s" if tail else
                             f"none: n = {len(walls)} leaves fewer than {TAIL_BEYOND} samples "
                             f"beyond any percentile; max {max(walls):.6g} s")
    return samples, metrics, report, problems


def traced_run(runner, seconds):
    """Per-layer metrics: plain and traced CLI runs, alternating."""
    plain, traced, per_run = [], [], []
    dominant = ("none", 0.0)
    deadline = time.perf_counter() + seconds
    while runner.keep_going(len(traced), deadline,
                            statistics.median(p.wall_s + t.wall_s for p, t in zip(plain, traced))
                            if traced else 0.0):
        plain.append(runner.cli())
        spans_path = runner.run_dir / "spans.json"
        if spans_path.exists():
            spans_path.unlink()
        sample = runner.traced(spans_path)
        traced.append(sample)
        if spans_path.exists():
            spans = json.loads(spans_path.read_text())
            if not per_run:
                dominant = dominant_function(spans)
            per_run.append(layer_metrics(spans, sample.wall_s))
    overhead = statistics.median(t.wall_s for t in traced) - statistics.median(
        p.wall_s for p in plain)
    metrics = {}
    problems = [] if per_run else ["the traced command wrote no spans"]
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = overhead
        else:
            metrics[name] = statistics.median(m[name] for m in per_run) if per_run else 0.0
    name, share = dominant
    report = {
        "plain wall_s samples": [p.wall_s for p in plain],
        "traced wall_s samples": [t.wall_s for t in traced],
        "dominant function (self time)": f"{name} {100 * share:.1f}%",
        "layer shares of traced wall": {
            m: round(metrics.get(f"self_s.{m}", 0.0) / statistics.median(
                t.wall_s for t in traced), 4)
            for m in LAYER_MODULES
        },
    }
    # Tracing must not change the output: plain and traced runs are compared too.
    samples = [s for pair in zip(plain, traced) for s in pair]
    return samples, metrics, report, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    opts = parse_args(argv)
    if not (SRC / "nmflow" / "cli.py").is_file():
        print(f"bench: no nmflow sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[opts.workload]
    params = workload.params(opts.seed)
    run_dir = RUN_DIR / f"{workload.name}-{opts.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, params, run_dir)
        run = traced_run if opts.trace else timed_run
        samples, metrics, report, problems = run(runner, opts.seconds)
        attempted, failed, found = score(workload, params, samples)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    problems += found
    units = END_TO_END if not opts.trace else {k: u for k, (u, _) in PER_LAYER.items()}

    print(f"workload {workload.name}: {workload.why}")
    print("inputs: " + json.dumps({k: v for k, v in params.items() if k != "generator"}))
    print("facts: " + json.dumps(facts(opts.seed)))
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} operations failed)")
    for msg in problems[:20]:
        print(f"problem: {msg}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
