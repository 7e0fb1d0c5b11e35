"""Tests of the benchmark's own bookkeeping: failure counting, reference
checks, the span tracer and BENCHMARK.json. Run with `python3 -m pytest bench`
from the root of the repository; they launch a few second-long nmflow
commands."""
import json
from pathlib import Path

import pytest

import run

TINY_MEASURE = {"gamma0": 0.01, "delta": 8.0, "n_pairs": 2, "horizon": 2.0,
                "step": 1e-3, "seed": 3}
TINY_DIVISIBILITY = {"gamma0": 0.01, "delta": 5.0, "horizon": 3.0, "grid_points": 12,
                     "step": 1e-3, "cp_tol": 1e-7}


def cli_sample(tmp_path, workload, params):
    output = tmp_path / workload.output_name
    argv = [run.sys.executable, "-m", "nmflow.cli", *workload.args(params, tmp_path),
            "--output", str(output)]
    sample = run.run_child(argv, tmp_path, 60.0, output)
    assert sample.status == 0, sample.stderr
    return sample


@pytest.fixture(scope="module")
def measure_sample(tmp_path_factory):
    return cli_sample(tmp_path_factory.mktemp("measure"), run.WORKLOADS["jc-measure"],
                      TINY_MEASURE)


def replace_json(sample, **changes):
    data = json.loads(sample.output)
    data.update(changes)
    return run.Sample(wall_s=sample.wall_s, status=0, output=json.dumps(data).encode())


def test_identical_clean_runs_count_no_failure(measure_sample):
    attempted, failed, problems = run.score(
        run.WORKLOADS["jc-measure"], TINY_MEASURE, [measure_sample, measure_sample])
    assert (attempted, failed, problems) == (8, 0, [])


def test_nonzero_exit_counts_every_operation_failed(measure_sample):
    crashed = run.Sample(wall_s=0.1, status=3, stderr="nmflow: numerical failure")
    attempted, failed, problems = run.score(
        run.WORKLOADS["jc-measure"], TINY_MEASURE, [measure_sample, crashed])
    assert (attempted, failed) == (8, 4)
    assert "exit status 3" in problems[0]


def test_non_identical_rerun_counts_every_operation_failed(measure_sample):
    # Same values, different bytes: a rerun must be byte-identical.
    reformatted = run.Sample(wall_s=0.1, status=0,
                             output=json.dumps(json.loads(measure_sample.output)).encode())
    attempted, failed, problems = run.score(
        run.WORKLOADS["jc-measure"], TINY_MEASURE, [measure_sample, reformatted])
    assert (attempted, failed) == (8, 4)
    assert "not byte-identical" in problems[0]


def test_perturbed_measure_output_fails_the_reference_check(measure_sample):
    value = json.loads(measure_sample.output)["n_canonical_pair"]
    perturbed = replace_json(measure_sample, n_canonical_pair=value + 1e-7)
    attempted, failed, problems = run.score(
        run.WORKLOADS["jc-measure"], TINY_MEASURE, [perturbed, perturbed])
    assert (attempted, failed) == (8, 8)
    assert "closed-form" in problems[0]


def test_listed_pair_failures_count_one_each(measure_sample):
    listed = replace_json(measure_sample, failures=["sample-0: boom"])
    attempted, failed, problems = run.score(
        run.WORKLOADS["jc-measure"], TINY_MEASURE, [listed])
    assert (attempted, failed, problems) == (4, 1, [])


def test_perturbed_choi_eigenvalue_fails_the_reference_check(tmp_path):
    workload = run.WORKLOADS["jc-divisibility"]
    sample = cli_sample(tmp_path, workload, TINY_DIVISIBILITY)
    assert run.score(workload, TINY_DIVISIBILITY, [sample]) == (12, 0, [])
    data = json.loads(sample.output)
    data["intervals"][3]["least_choi_eigenvalue"] -= 1e-9
    perturbed = run.Sample(wall_s=0.1, status=0, output=json.dumps(data).encode())
    attempted, failed, problems = run.score(workload, TINY_DIVISIBILITY, [perturbed])
    assert (attempted, failed) == (12, 12)
    assert "interval 3" in problems[0]


def test_errored_sweep_row_counts_its_pairs_failed():
    params = dict(run.jc_sweep_params(0), delta_points=2, horizon=2.0)
    rows = ["delta_over_lambda,n_sampled_max,n_canonical_pair,n_value,best_pair,error",
            "0,0,0,0,canonical-z,", "10,nan,nan,nan,,boom"]
    sample = run.Sample(wall_s=0.1, status=0, output="\n".join(rows).encode())
    attempted, failed, problems = run.score(run.WORKLOADS["jc-sweep"], params, [sample])
    assert (attempted, failed, problems) == (204, 102, [])


def test_traced_run_wraps_imported_names_and_keeps_the_output(tmp_path, measure_sample):
    workload = run.WORKLOADS["jc-measure"]
    output = tmp_path / workload.output_name
    spans_path = tmp_path / "spans.json"
    argv = [run.sys.executable, str(run.CHILD), "trace", str(spans_path),
            *workload.args(TINY_MEASURE, tmp_path), "--output", str(output)]
    sample = run.run_child(argv, tmp_path, 60.0, output)
    assert sample.status == 0, sample.stderr
    assert sample.output == measure_sample.output
    spans = json.loads(spans_path.read_text())
    parent_of = {}
    for name, _, _, parent, _ in spans:
        parent_of.setdefault(name, set()).add(spans[parent][0] if parent >= 0 else None)
    # Wrapped where imported by name, and reached through cli.COMMANDS.
    assert parent_of["dynamics.propagator_grid"] == {"measure.search_pairs"}
    assert parent_of["measure.search_pairs"] == {"cli.cmd_measure"}
    assert parent_of["cli.cmd_measure"] == {"cli.main"}
    metrics = run.layer_metrics(spans, sample.wall_s)
    assert metrics["measure.trajectory_calls"] == 4
    assert metrics["measure.pairs_attempted"] == 4
    assert metrics["dynamics.rk4_steps"] == 2000
    assert metrics["dynamics.flow_bytes"] == 2001 * 4 * 4 * 16
    assert metrics["cli.output_bytes"] == len(measure_sample.output)
    assert set(metrics) == set(run.PER_LAYER) - {"trace.overhead_s"}


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0, 100, -1, None], ["b", 10, 60, 0, None], ["c", 20, 30, 1, None]]
    assert run.self_times(spans) == [50, 40, 10]


def test_wall_rel_divides_by_the_bracketing_reference_kernels():
    assert run.relative_walls([2.0, 3.0], [0.5, 1.5, 1.0]) == [2.0, 2.4]


def test_reference_kernel_exits_cleanly(tmp_path):
    argv = [run.sys.executable, str(run.CHILD), "reference",
            *map(str, run.WORKLOADS["jc-measure"].reference)]
    sample = run.run_child(argv, tmp_path, 60.0)
    assert sample.status == 0, sample.stderr
    assert 0.0 < sample.wall_s < 60.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    q, _ = run.tail_percentile([float(i) for i in range(100)])
    assert q == 90


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
