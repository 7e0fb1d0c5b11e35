import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import records as oracle_records
from oracles import write_csv as oracle_csv
from oracles import write_json as oracle_json

import nmflow
from nmflow import cli
from nmflow.cli import (
    KEYS,
    MODELS,
    build_parser,
    load_custom_generator,
    main,
    resolve_config,
)
from nmflow.dynamics import flow_blocks
from nmflow.measure import canonical_pairs, make_time_grid, trajectory
from nmflow.models import (
    POLE_TOL,
    JCParams,
    SpinBathParams,
    jc_amplitude,
    jc_rate,
    spinbath_f,
    spinbath_pole_distance,
    spinbath_rate,
    spinbath_trace_distance,
)
from nmflow.states import DensityMatrix, save_state


def run(*argv):
    return main(list(argv))


# The commands that each model runs, as the README's Command | Models table
# states them.
RUNS = {
    "jc": ("rate", "trajectory", "measure", "sweep", "divisibility"),
    "spinbath": ("rate", "trajectory", "measure"),
    "semigroup": ("rate", "trajectory", "measure", "divisibility"),
    "custom-file": ("trajectory", "measure", "divisibility"),
}


def fresh_import(module):
    """The sorted names in sys.modules after importing module in a fresh interpreter."""
    src = str(Path(nmflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = f"import sys, {module}; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_the_package_loads_no_layer():
    # The layer modules are the import path: nmflow itself re-exports nothing.
    assert [m for m in fresh_import("nmflow") if m.startswith("nmflow")] == ["nmflow"]


def test_importing_the_cli_builds_no_code():
    # Records are NamedTuples or plain classes: no class body writes and execs
    # methods, as dataclasses does. Every layer is still imported with the
    # cli, where bench/child.py's tracer looks for it.
    loaded = fresh_import("nmflow.cli")
    assert "dataclasses" not in loaded
    layers = ("states", "linalg", "dynamics", "models", "measure", "cli")
    assert {f"nmflow.{layer}" for layer in layers} <= set(loaded)


def read_csv_grid(path):
    """Read back a CSV written by nmflow: (header, list of row lists).

    Numeric fields become floats (17 significant digits round-trip binary64
    exactly); other fields stay strings.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            parsed = []
            for cell in row:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
            rows.append(parsed)
    return header, rows


class TestConfigHandling:
    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = jc\nhorizin_over_lambda = 3\n")
        code = run("rate", "--config", str(cfg), "--output", str(tmp_path / "o.csv"))
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_key_of_other_model_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = jc\nn_spins = 10\n")
        assert run("rate", "--config", str(cfg),
                   "--output", str(tmp_path / "o.csv")) == 2

    @pytest.mark.parametrize("argv, key, model, command", [
        ("measure --model semigroup --delta 5 --n-spins 3 --pair x",
         "delta_over_lambda", "semigroup", "measure"),
        ("rate --model jc --n-pairs 5", "n_pairs", "jc", "rate"),
        ("rate --model jc --clamp-rate", "clamp_rate", "jc", "rate"),
        ("measure --model spinbath --grid-points 4", "grid_points", "spinbath", "measure"),
        ("divisibility --model semigroup --pair z", "pair", "semigroup", "divisibility"),
        ("measure --model jc --grid-points 4", "grid_points", "jc", "measure"),
    ])
    def test_key_not_read_by_command_rejected(self, tmp_path, capsys,
                                              argv, key, model, command):
        code = run(*argv.split(), "--output", str(tmp_path / "o.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key!r}" in err and f"{model!r}" in err and f"{command!r}" in err

    def test_config_file_key_not_read_by_command_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = jc\ncp_tol = 1e-6\n")
        assert run("trajectory", "--config", str(cfg),
                   "--output", str(tmp_path / "o.csv")) == 2
        assert "'cp_tol'" in capsys.readouterr().err

    def test_readme_examples_are_accepted(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Examples", 1)[1]
        block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("nmflow ")]
        assert len(commands) >= 5
        for line in commands:
            args = build_parser().parse_args(shlex.split(line)[1:])
            resolve_config(args, args.command)

    @pytest.mark.parametrize("argv, keys", [
        ("trajectory --pair x --pair-bloch 0,0,1;0,0,-1 --pair-files nonexistent1;nonexistent2",
         ["pair", "pair_bloch", "pair_files"]),
        ("trajectory --model spinbath --pair z --pair-bloch 0,0,1;0,0,-1",
         ["pair", "pair_bloch"]),
        ("rate --model jc --delta 5 --delta-max 2 --delta-points 2",
         ["delta_over_lambda", "delta_over_lambda_max", "delta_points"]),
    ])
    def test_alternative_inputs_clash(self, tmp_path, capsys, argv, keys):
        code = run(*argv.split(), "--output", str(tmp_path / "o.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert all(f"{key!r}" in err for key in keys)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["measure", "sweep"])
    def test_sigma_threshold_is_not_a_key(self, tmp_path, capsys, command):
        # N is the positive variation of D, with no threshold to set.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma_threshold = 1\n")
        args = (command, "--model", "jc", "--n-pairs", "1", "--horizon", "1", "--step", "0.01",
                "--output", str(tmp_path / "o.csv"))
        assert run(*args, "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            "nmflow: config error: unknown config key 'sigma_threshold' for model 'jc'\n")
        with pytest.raises(SystemExit) as exc:
            run(*args, "--sigma-threshold", "1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --sigma-threshold 1" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, config, key", [
        ("measure --horizon inf", "", "horizon_over_lambda"),
        ("divisibility --step inf", "", "step_over_lambda"),
        ("divisibility --cp-tol nan", "", "cp_tol"),
        ("rate --delta-points 0", "", "delta_points"),
        ("rate", "format = xml", "format"),
        ("divisibility", "clamp_rate = maybe", "clamp_rate"),
        ("trajectory", "pair = y", "pair"),
        ("measure --seed 18446744073709551616", "", "seed"),
        ("sweep --seed -1", "", "seed"),
    ])
    def test_bad_value_is_exit_2(self, tmp_path, capsys, argv, config, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        out = tmp_path / "o.csv"
        code = run(*argv.split(), "--config", str(cfg), "--output", str(out))
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_readme_configuration_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1].split("### Examples", 1)[0]
        section = re.sub(r"(\w+)_min/max", r"\1_min`, `\1_max", section)
        named = {name for span in re.findall(r"`([^`]+)`", section)
                 for name in re.split(r"[^\w]+", span)}
        assert [key.name for key in KEYS if key.name not in named] == []

    def test_readme_command_table_is_the_rule(self):
        # The Models column of each command against the --horizon rows of
        # KEYS, whose commands are the commands that a model runs.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| Command | Models |", 1)[1].split("\n\n", 1)[0]
        column = {command: set(MODELS) if models.strip() == "all"
                  else set(re.findall(r"`([\w-]+)`", models))
                  for command, models in re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, re.M)}
        horizon = [key for key in KEYS if key.flag == "--horizon"]
        rule = {command: {model for key in horizon for model in key.models
                          if command in key.commands}
                for command in set().union(*(key.commands for key in horizon))}
        assert column == rule

    @pytest.mark.parametrize("model", sorted(RUNS))
    @pytest.mark.parametrize("command", RUNS["jc"])
    def test_a_model_runs_only_its_commands(self, tmp_path, capsys, model, command):
        out = tmp_path / "o.csv"
        argv = [command, "--model", model, "--output", str(out)]
        if command in RUNS[model]:
            args = build_parser().parse_args(argv)
            assert resolve_config(args, command).model == model
        else:
            assert run(*argv) == 2
            assert capsys.readouterr().err == (
                f"nmflow: config error: command {command!r} is not defined for model {model!r}\n")
            assert not out.exists()

    def test_horizon_must_be_a_whole_number_of_steps(self):
        def grid(horizon, step):
            args = build_parser().parse_args(
                ["measure", "--horizon", horizon, "--step", step, "--output", "o.json"])
            cfg = resolve_config(args, args.command)
            return make_time_grid(cfg.horizon, cfg.step)

        assert grid("2.5", "1e-3").size == 2501
        assert grid(str(20 * np.pi / 40), str(np.pi / 40)).size == 21
        for horizon, step in (("4", "0.3"), ("1", "0.0999999")):
            with pytest.raises(ValueError, match=f"^horizon {horizon} is not a whole "
                               f"number of steps {step}$"):
                grid(horizon, step)

    @pytest.mark.parametrize("command", ["rate", "trajectory", "measure", "sweep"])
    def test_horizon_off_the_grid_is_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        code = run(command, "--model", "jc", "--horizon", "4", "--step", "0.3",
                   "--output", str(out))
        assert code == 2
        assert "horizon 4 is not a whole number of steps 0.3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", [["jc"], ["jc", "--clamp-rate"], ["semigroup"]])
    def test_divisibility_interval_off_the_step_grid_is_exit_2(self, tmp_path, capsys, model):
        # --step is the grid step of every model's divisibility, exact or RK4:
        # each interval horizon/grid_points must be a whole number of steps.
        out = tmp_path / "d.csv"
        assert run("divisibility", "--model", *model, "--horizon", "1", "--grid-points", "3",
                   "--step", "0.1", "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            "nmflow: config error: interval length 0.333333 (horizon over grid_points) is not "
            "a whole number of steps 0.1\n")
        assert not out.exists()
        assert run("divisibility", "--model", *model, "--horizon", "1", "--grid-points", "4",
                   "--step", "0.05", "--output", str(out)) == 0

    def test_divisibility_help_states_the_step_rule(self, capsys):
        with pytest.raises(SystemExit):
            run("divisibility", "--help")
        help_text = " ".join(capsys.readouterr().out.split())
        assert "horizon/grid_points, must be a whole number of steps" in help_text

    @pytest.mark.parametrize("argv, message", [
        # A step count beyond int64 would wrap to -2^63 and return the identity.
        (["divisibility", "--model", "jc", "--clamp-rate", "--horizon", "1e20",
          "--grid-points", "2", "--step", "1e-3", "--format", "json"],
         "interval length 5e+19 over step 0.001 needs more RK4 steps than an int64 count holds"),
        (["rate", "--model", "jc", "--horizon", "1e300", "--step", "1e-300"],
         "horizon 1e+300 over step 1e-300 is not a finite step count"),
        # Refused before NumPy is asked for the grid.
        (["rate", "--model", "jc", "--horizon", "1e300", "--step", "1e-3"],
         "horizon 1e+300 over step 0.001 is 1e+303 grid steps, more than 10000000"),
    ])
    def test_step_count_out_of_range_is_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o.out"
        assert run(*argv, "--output", str(out)) == 2
        assert capsys.readouterr().err == f"nmflow: config error: {message}\n"
        assert not out.exists()

    # A count above 10^7, the grid-step bound of make_time_grid, is refused
    # when it is parsed: NumPy used to fail on a 7.11 PiB linspace.
    @pytest.mark.parametrize("argv, key", [
        (["divisibility", "--horizon", "1e15", "--step", "1", "--grid-points"], "grid_points"),
        (["rate", "--horizon", "1", "--step", "0.1", "--delta-points"], "delta_points"),
        (["sweep", "--horizon", "1", "--step", "0.1", "--delta-points"], "delta_points"),
    ])
    @pytest.mark.parametrize("count", ["1000000000000000", "10000001", "0"])
    def test_count_beyond_the_grid_bound_is_exit_2(self, tmp_path, capsys, argv, key, count):
        out = tmp_path / "o.csv"
        assert run(*argv, count, "--model", "jc", "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            f"nmflow: config error: {key} must be in [1, 10^7], got '{count}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", RUNS["jc"])
    @pytest.mark.parametrize("gamma0", ["0", "-1"])
    def test_coupling_must_be_positive(self, tmp_path, capsys, command, gamma0):
        # sweep used to record each point's refusal and exit 3 after writing them.
        out = tmp_path / "o.csv"
        assert run(command, "--model", "jc", "--gamma0", gamma0, "--horizon", "1",
                   "--step", "0.01", "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            f"nmflow: config error: gamma0_over_lambda must be positive, got '{gamma0}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rate", "trajectory", "measure", "divisibility"])
    def test_detuning_with_no_finite_closed_form_is_exit_2(self, tmp_path, capsys, command):
        # rate used to exit 0 with NaN rates and NumPy warnings, measure to exit 3.
        out = tmp_path / "o.csv"
        assert run(command, "--model", "jc", "--delta", "1e200", "--horizon", "1",
                   "--step", "0.01", "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            "nmflow: config error: c^2 - 2 gamma0 lam (c = lam - i delta) is not finite for "
            "gamma0=0.01, lam=1.0, delta=1e+200\n")
        assert not out.exists()

    def test_unreadable_pair_file_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        out = tmp_path / "o.csv"
        out.write_text("kept")
        assert run("trajectory", "--model", "semigroup", "--pair-files",
                   f"{missing};{tmp_path / 'missing2'}", "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            f"nmflow: config error: cannot read state file {missing}: "
            f"[Errno 2] No such file or directory: '{missing}'\n")
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("dim", ["-1", "0"])
    def test_state_file_dimension_below_one_is_exit_2(self, tmp_path, capsys, dim):
        state = tmp_path / "s.txt"
        state.write_text(f"{dim}\n1,0\n")
        out = tmp_path / "t.csv"
        assert run("trajectory", "--model", "semigroup", "--horizon", "1", "--step", "0.1",
                   "--pair-files", f"{state};{state}", "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            f"nmflow: config error: {state}: line 1: dimension must be positive, got {dim}\n")
        assert not out.exists()

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("where", ["a directory", "in a missing directory"])
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, format, where):
        (tmp_path / "kept").write_text("kept")
        out = tmp_path if where == "a directory" else tmp_path / "missing" / "o.out"
        assert run("rate", "--model", "semigroup", "--horizon", "1", "--step", "0.1",
                   "--format", format, "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"nmflow: config error: cannot write output file {out}: [Errno ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
        assert (tmp_path / "kept").read_text() == "kept"

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        assert run("rate", "--config", str(cfg),
                   "--output", str(tmp_path / "o.csv")) == 2

    def test_missing_output_is_exit_2(self):
        assert run("rate", "--model", "jc") == 2

    def test_comments_and_blank_lines_allowed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nmodel = semigroup\n"
                       "horizon_times_gamma0 = 2  # inline\n")
        out = tmp_path / "o.csv"
        assert run("rate", "--config", str(cfg), "--output", str(out)) == 0
        header, rows = read_csv_grid(str(out))
        assert rows[-1][0] == pytest.approx(2.0)

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = jc\ndelta_over_lambda = 0\nhorizon_over_lambda = 1\n"
                       "step_over_lambda = 0.01\n")
        out = tmp_path / "o.csv"
        assert run("rate", "--config", str(cfg), "--delta", "5",
                   "--output", str(out)) == 0
        header, rows = read_csv_grid(str(out))
        assert rows[0][0] == 5.0  # delta column reflects the flag

    def test_output_dir_env_redirects(self, tmp_path, monkeypatch):
        target = tmp_path / "redirected"
        target.mkdir()
        monkeypatch.setenv("NMFLOW_OUTPUT_DIR", str(target))
        assert run("rate", "--model", "semigroup", "--horizon", "2",
                   "--step", "0.01", "--output", "elsewhere/o.csv") == 0
        assert (target / "o.csv").exists()


class TestRate:
    @pytest.mark.parametrize("command", ["rate", "sweep"])
    def test_one_detuning_point_takes_no_other_maximum(self, tmp_path, capsys, command):
        # np.linspace(min, max, 1) is [min]: a maximum that differs would be ignored.
        out = tmp_path / "out.csv"
        argv = [command, "--model", "jc", "--delta-points", "1", "--horizon", "2",
                "--step", "0.1", "--output", str(out)] + ["--n-pairs", "2"] * (command == "sweep")
        config = tmp_path / "range.conf"
        config.write_text("delta_over_lambda_max = 10\n")
        for given in (["--delta-max", "10"], ["--config", str(config)]):
            assert run(*argv, "--delta-min", "0", *given) == 2
            err = capsys.readouterr().err
            assert "delta_over_lambda_max" in err and "delta_over_lambda_min" in err
            assert not out.exists()
        for given in (["--delta-max", "3"], []):
            assert run(*argv, "--delta-min", "3", *given) == 0
            _, rows = read_csv_grid(str(out))
            assert [row[0] for row in rows] == [3.0] * (1 if command == "sweep" else 21)

    def test_jc_single_delta_matches_library(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert run("rate", "--model", "jc", "--delta", "5", "--horizon", "2",
                   "--step", "0.01", "--output", str(out)) == 0
        header, rows = read_csv_grid(str(out))
        assert header == ["delta_over_lambda", "t_lambda", "gamma_over_lambda", "flag"]
        params = JCParams(gamma0=0.01, lam=1.0, delta=5.0)
        times = np.array([row[1] for row in rows])
        # 17 significant digits make the CSV cells bit-exact against the same
        # vectorized evaluation the command used.
        assert np.array_equal(np.array([row[2] for row in rows]),
                              jc_rate(params, times))

    def test_jc_delta_range_emits_blocks(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert run("rate", "--model", "jc", "--delta-min", "0", "--delta-max", "2",
                   "--delta-points", "3", "--horizon", "1", "--step", "0.1",
                   "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        deltas = sorted({row[0] for row in rows})
        assert deltas == [0.0, 1.0, 2.0]

    def test_spinbath_pole_rows_flagged(self, tmp_path):
        out = tmp_path / "rate.csv"
        # Grid hits t = pi/4 (a tan pole) to within 1e-9? No: use a grid point
        # close enough by construction: step pi/40 lands exactly on pi/4.
        step = np.pi / 40.0
        assert run("rate", "--model", "spinbath", "--horizon", str(20 * step),
                   "--step", str(step), "--output", str(out)) == 0
        header, rows = read_csv_grid(str(out))
        assert header == ["t_times_a", "gamma_over_a", "flag"]
        flagged = [row for row in rows if row[2] == "pole"]
        assert len(flagged) == 1
        assert np.isnan(flagged[0][1])
        assert flagged[0][0] == pytest.approx(np.pi / 4)

    def test_spinbath_rows_match_per_point_loop(self, tmp_path):
        out = tmp_path / "rate.csv"
        step = np.pi / 40.0
        assert run("rate", "--model", "spinbath", "--n-spins", "5", "--horizon", str(60 * step),
                   "--step", str(step), "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        params = SpinBathParams(coupling_a=1.0, n_spins=5)
        for t, gamma, flag in rows:
            if spinbath_pole_distance(params, t) <= POLE_TOL:
                assert np.isnan(gamma) and flag == "pole"
            else:
                assert gamma == spinbath_rate(params, t) and flag == ""
        assert sum(row[2] == "pole" for row in rows) == 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "rate.json"
        assert run("rate", "--model", "semigroup", "--horizon", "2",
                   "--step", "0.1", "--format", "json", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 4
        assert all(rec["gamma_over_gamma0"] == 1.0 for rec in payload["rate"])

    def test_json_pole_rows_are_strict_json(self, tmp_path):
        out = tmp_path / "rate.json"
        step = np.pi / 40.0
        assert run("rate", "--model", "spinbath", "--n-spins", "5", "--horizon", str(60 * step),
                   "--step", str(step), "--format", "json", "--output", str(out)) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        payload = json.loads(out.read_text(), parse_constant=reject)
        poles = [rec for rec in payload["rate"] if rec["flag"] == "pole"]
        assert len(poles) == 3
        assert all(rec["gamma_over_a"] is None for rec in poles)


class TestTrajectory:
    def test_spinbath_distance_is_coherence_magnitude(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run("trajectory", "--model", "spinbath", "--n-spins", "20", "--pair", "x",
                   "--horizon", "3", "--step", "0.001", "--output", str(out)) == 0
        header, rows = read_csv_grid(str(out))
        assert header == ["t_times_a", "trace_distance", "sigma"]
        params = SpinBathParams(coupling_a=1.0, n_spins=20)
        for row in rows[::300]:
            assert row[1] == pytest.approx(abs(spinbath_f(params, row[0])), abs=1e-12)

    def test_spinbath_bloch_pair_matches_closed_form(self, tmp_path):
        # Population gap a and coherence gap b of rho1 - rho2, as Bloch vectors.
        a, b = 0.3, 0.5 - 0.4j
        out = tmp_path / "traj.csv"
        assert run("trajectory", "--model", "spinbath", "--n-spins", "7",
                   "--pair-bloch", f"{b.real},{-b.imag},{a};{-b.real},{b.imag},{-a}",
                   "--horizon", "3", "--step", "0.001", "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        times = np.array([row[0] for row in rows])
        closed = spinbath_trace_distance(SpinBathParams(n_spins=7), a, b, times)
        assert np.max(np.abs(np.array([row[1] for row in rows]) - closed)) <= 1e-14

    def test_semigroup_z_pair_decay(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run("trajectory", "--model", "semigroup", "--pair", "z",
                   "--horizon", "3", "--step", "0.001", "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        for row in rows[::500]:
            assert row[1] == pytest.approx(np.exp(-row[0]), abs=1e-7)

    def test_exact_flow_is_read_through_its_factors(self, tmp_path):
        # The z pair under the semigroup's (c, p) is D = p = c^2 to the bit,
        # c = exp(-t/2); the Pauli map of its blocks differs from p by rounding.
        out = tmp_path / "traj.csv"
        assert run("trajectory", "--model", "semigroup", "--pair", "z",
                   "--horizon", "5", "--step", "0.001", "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        times, d_values = np.array([row[:2] for row in rows]).T
        assert np.array_equal(d_values, np.exp(-0.5 * times) ** 2)

    def test_pair_bloch_flag(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run("trajectory", "--model", "semigroup",
                   "--pair-bloch", "0,0,1;0,0,-1",
                   "--horizon", "2", "--step", "0.01", "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_pair_files_flag(self, tmp_path):
        p1 = tmp_path / "s1.txt"
        p2 = tmp_path / "s2.txt"
        save_state(DensityMatrix(np.diag([1.0, 0.0]).astype(complex)), str(p1))
        save_state(DensityMatrix(np.diag([0.0, 1.0]).astype(complex)), str(p2))
        out = tmp_path / "traj.csv"
        assert run("trajectory", "--model", "semigroup",
                   "--pair-files", f"{p1};{p2}",
                   "--horizon", "2", "--step", "0.01", "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_bad_bloch_vector_is_exit_2(self, tmp_path):
        assert run("trajectory", "--model", "semigroup",
                   "--pair-bloch", "0,0,2;0,0,-1",
                   "--horizon", "2", "--step", "0.01",
                   "--output", str(tmp_path / "o.csv")) == 2

    @staticmethod
    def write_ladder(gen_file):
        """A d = 3 ladder: H = diag(0, 1, 2), lowering operators |0><1| and
        |1><2| at rate 0.5."""
        zeros = np.zeros((3, 3)).tolist()
        lowering = [np.outer(np.eye(3)[i], np.eye(3)[i + 1]) for i in range(2)]
        gen_file.write_text(json.dumps({
            "hamiltonian": {"re": np.diag([0.0, 1.0, 2.0]).tolist(), "im": zeros},
            "channels": [{"operator": {"re": op.tolist(), "im": zeros}, "rate": 0.5}
                         for op in lowering],
        }))

    @pytest.mark.parametrize("name", ["z", "x"])
    def test_canonical_pairs_take_the_flow_dimension(self, tmp_path, name):
        gen_file = tmp_path / "gen.json"
        self.write_ladder(gen_file)
        out = tmp_path / "traj.csv"
        assert run("trajectory", "--model", "custom-file", "--generator-file", str(gen_file),
                   "--pair", name, "--horizon", "1", "--step", "0.01",
                   "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        times = make_time_grid(1.0, 0.01)
        pair = canonical_pairs(3)[["z", "x"].index(name)]
        gen = load_custom_generator(str(gen_file))
        expected = trajectory(flow_blocks(gen, times), pair, times)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(np.array(rows), np.column_stack(
            [expected.times, expected.d_values, expected.sigma_values]))

    def test_bloch_pair_is_for_qubits_only(self, tmp_path, capsys):
        gen_file = tmp_path / "gen.json"
        self.write_ladder(gen_file)
        out = tmp_path / "traj.csv"
        assert run("trajectory", "--model", "custom-file", "--generator-file", str(gen_file),
                   "--pair-bloch", "0,0,1;0,0,-1", "--horizon", "1", "--step", "0.01",
                   "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            "nmflow: config error: pair dimension 2 != flow dimension 3\n")
        assert not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert run("trajectory", "--model", "jc", "--delta", "5",
                       "--horizon", "5", "--step", "0.001",
                       "--output", str(out)) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestMeasure:
    def test_semigroup_reports_zero(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("measure", "--model", "semigroup", "--n-pairs", "4",
                   "--horizon", "5", "--step", "0.01", "--seed", "0",
                   "--format", "json", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["n_value"] == 0.0
        assert payload["diverging"] is False
        assert payload["samples_evaluated"] == 6
        assert payload["failures"] == []

    def test_spinbath_quantized_value_and_divergence_flag(self, tmp_path):
        out = tmp_path / "m.json"
        # Past three revivals: 3 pi / 2 + 0.3 on the grid, 10025 steps.
        horizon = 10025 * 5e-4
        assert run("measure", "--model", "spinbath",
                   "--horizon", str(horizon), "--step", "5e-4",
                   "--format", "json", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["n_value"] == pytest.approx(3.0, abs=1e-5)
        assert payload["diverging"] is True
        assert len(payload["intervals"]) == 3

    def test_spinbath_searches_canonical_and_sampled_pairs(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("measure", "--model", "spinbath", "--n-pairs", "6", "--seed", "2",
                   "--horizon", "2", "--step", "1e-3",
                   "--format", "json", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["samples_evaluated"] == 8
        assert payload["failures"] == []
        assert payload["best_pair"]["label"] == "canonical-x"
        assert payload["n_canonical_pair"] == 0.0  # the z pair differs in populations only
        assert payload["n_value"] >= payload["n_sampled_max"] > 0.0

    def test_detuned_jc_positive_value(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("measure", "--model", "jc", "--delta", "8", "--n-pairs", "2",
                   "--horizon", "40", "--step", "0.002", "--seed", "0",
                   "--format", "json", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["n_value"] > 1e-5
        assert payload["n_value"] >= payload["n_canonical_pair"]
        assert len(payload["best_pair"]["rho1_bloch"]) == 3

    def test_custom_file_negative_rate_is_exit_3(self, tmp_path, capsys):
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        gen_file.write_text(json.dumps({
            "dim": 2,
            "hamiltonian": {"re": zeros, "im": zeros},
            "channels": [{
                "operator": {"re": [[0.0, 0.0], [1.0, 0.0]], "im": zeros},
                "rate": -1.0,
            }],
        }))
        code = run("measure", "--model", "custom-file",
                   "--generator-file", str(gen_file), "--n-pairs", "1",
                   "--horizon", "5", "--step", "0.01",
                   "--output", str(tmp_path / "m.json"), "--format", "json")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_custom_file_valid_generator_runs(self, tmp_path):
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        gen_file.write_text(json.dumps({
            "dim": 2,
            "hamiltonian": {"re": [[1.0, 0.0], [0.0, -1.0]], "im": zeros},
            "channels": [{
                "operator": {"re": [[0.0, 0.0], [1.0, 0.0]], "im": zeros},
                "rate": 0.5,
            }],
        }))
        out = tmp_path / "m.json"
        assert run("measure", "--model", "custom-file",
                   "--generator-file", str(gen_file), "--n-pairs", "1",
                   "--horizon", "5", "--step", "0.01",
                   "--output", str(out), "--format", "json") == 0
        assert json.loads(out.read_text())["n_value"] == 0.0

    def test_seed_range_is_that_of_the_pair_stream(self, tmp_path, capsys):
        # Seeds are 64-bit: 2^64 - 1 is the largest, 2^64 a config error.
        out = tmp_path / "m.json"
        for seed in ("18446744073709551615", "0"):
            assert run("measure", "--model", "jc", "--delta", "8", "--n-pairs", "3",
                       "--horizon", "1", "--step", "0.01", "--seed", seed,
                       "--format", "json", "--output", str(out)) == 0
            assert json.loads(out.read_text())["seed"] == int(seed)
        assert run("measure", "--seed", "18446744073709551616", "--output", str(out)) == 2
        assert "seed must be in [0, 2^64), got '18446744073709551616'" in capsys.readouterr().err

    def test_pair_search_loads_neither_numpy_random_nor_hashlib(self, tmp_path):
        # The pair directions come from the SplitMix64 stream in NumPy integer
        # arithmetic: numpy.random, and through it hashlib and OpenSSL, would
        # add about 5 MB to the peak RSS of a command.
        script = (
            "import sys\n"
            "from nmflow.cli import main\n"
            "assert main(['measure', '--model', 'jc', '--delta', '8', '--n-pairs', '20',"
            " '--horizon', '2', '--step', '0.01', '--output', 'm.csv']) == 0\n"
            "assert main(['sweep', '--model', 'jc', '--delta-points', '2', '--n-pairs', '5',"
            " '--horizon', '2', '--step', '0.01', '--output', 's.csv']) == 0\n"
            "print(sorted({'numpy.random', 'hashlib'} & set(sys.modules)))\n"
        )
        src = str(Path(nmflow.__file__).resolve().parents[1])
        env = {**os.environ, "NMFLOW_OUTPUT_DIR": str(tmp_path),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert (tmp_path / "m.csv").exists() and (tmp_path / "s.csv").exists()

    def test_malformed_generator_file_is_exit_2(self, tmp_path):
        gen_file = tmp_path / "gen.json"
        gen_file.write_text("{not json")
        assert run("measure", "--model", "custom-file",
                   "--generator-file", str(gen_file),
                   "--horizon", "5", "--step", "0.01",
                   "--output", str(tmp_path / "m.json")) == 2

    @pytest.mark.parametrize("dim", ["null", "[2]", "2.5", '"2"', "true"])
    def test_generator_file_dim_must_be_a_json_integer(self, tmp_path, capsys, dim):
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        generator = json.dumps({
            "hamiltonian": {"re": zeros, "im": zeros},
            "channels": [{"operator": {"re": [[0.0, 0.0], [1.0, 0.0]], "im": zeros},
                          "rate": 1.0}],
        })
        gen_file.write_text('{"dim": ' + dim + ", " + generator[1:])
        out = tmp_path / "m.json"
        assert run("measure", "--model", "custom-file", "--generator-file", str(gen_file),
                   "--n-pairs", "1", "--horizon", "1", "--step", "0.01",
                   "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            f"nmflow: config error: {gen_file}: dim must be an integer, got {dim}\n")
        assert not out.exists()

    # (field, JSON value, message): strings, bools and null that float() and
    # NumPy would cast.
    @pytest.mark.parametrize("field, value, message", [
        ("hamiltonian re", '"0"', 'hamiltonian matrix entry must be a number, got "0"'),
        ("hamiltonian im", "false", "hamiltonian matrix entry must be a number, got false"),
        ("operator re", "true", "channel operator matrix entry must be a number, got true"),
        ("operator im", "null", "channel operator matrix entry must be a number, got null"),
        ("rate", '"1.0"', 'channel rate must be a number, got "1.0"'),
        ("rate", "true", "channel rate must be a number, got true"),
    ])
    def test_generator_file_takes_numbers_only(self, tmp_path, capsys, field, value, message):
        gen_file = tmp_path / "gen.json"
        ham = {"re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        op = {"re": [[0.0, 0.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        channel = {"operator": op, "rate": 1.0}
        if field == "rate":
            channel["rate"] = "VALUE"
        else:
            name, part = field.split()
            (ham if name == "hamiltonian" else op)[part][0][0] = "VALUE"
        text = json.dumps({"dim": 2, "hamiltonian": ham, "channels": [channel]})
        gen_file.write_text(text.replace('"VALUE"', value))
        out = tmp_path / "m.json"
        assert run("measure", "--model", "custom-file", "--generator-file", str(gen_file),
                   "--n-pairs", "1", "--horizon", "1", "--step", "0.01",
                   "--output", str(out)) == 2
        assert capsys.readouterr().err == f"nmflow: config error: {gen_file}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("im", [[[0.5]], [[0.5, 0.5]]])
    @pytest.mark.parametrize("what", ["hamiltonian", "channel operator"])
    def test_generator_file_parts_have_one_shape(self, tmp_path, capsys, what, im):
        # NumPy would broadcast an im part of another shape against re.
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        ham = {"re": [[1.0, 0.0], [0.0, -1.0]], "im": zeros}
        op = {"re": [[0.0, 0.0], [1.0, 0.0]], "im": zeros}
        (ham if what == "hamiltonian" else op)["im"] = im
        gen_file.write_text(json.dumps({"hamiltonian": ham,
                                        "channels": [{"operator": op, "rate": 1.0}]}))
        out = tmp_path / "m.json"
        assert run("measure", "--model", "custom-file", "--generator-file", str(gen_file),
                   "--n-pairs", "1", "--horizon", "1", "--step", "0.01",
                   "--output", str(out)) == 2
        assert capsys.readouterr().err == (f"nmflow: config error: {gen_file}: {what} matrix "
                                           f"has re of shape (2, 2), im {np.shape(im)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["measure", "trajectory"])
    def test_one_level_generator_is_exit_2(self, tmp_path, capsys, command):
        # A one-level system has no two distinct states to start from.
        gen_file = tmp_path / "g1.json"
        gen_file.write_text(json.dumps({"hamiltonian": {"re": [[0]], "im": [[0]]},
                                        "channels": []}))
        out = tmp_path / "o.json"
        assert run(command, "--model", "custom-file", "--generator-file", str(gen_file),
                   "--horizon", "1", "--step", "0.1", "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            "nmflow: config error: canonical pairs need two levels, got dimension 1\n")
        assert not out.exists()


class TestNumericalFailure:
    # A sigma_minus channel at rate -50, within the RK4 step bound at step
    # 1e-2 (h ||K|| = 0.5), whose flow overflows at t=14.21; at rate -1e5 the
    # step bound refuses the flow at t=0 (h ||K|| = 1e3).
    @pytest.mark.parametrize("rate, message", [
        (-50.0, "propagator has non-finite entries at t=14.21"),
        (-1e5, "step 0.01 cannot resolve the generator at t=0: h*||K|| = 1e+03 > 1"),
    ])
    @pytest.mark.parametrize("command", ["measure", "trajectory", "divisibility"])
    def test_non_finite_flow_is_exit_3(self, tmp_path, capsys, command, rate, message):
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        gen_file.write_text(json.dumps({
            "dim": 2,
            "hamiltonian": {"re": zeros, "im": zeros},
            "channels": [{
                "operator": {"re": [[0.0, 0.0], [1.0, 0.0]], "im": zeros},
                "rate": rate,
            }],
        }))
        extra = ["--grid-points", "1"] if command == "divisibility" else []
        code = run(command, "--model", "custom-file", "--generator-file", str(gen_file),
                   "--horizon", "20", "--step", "1e-2", *extra,
                   "--output", str(tmp_path / "out.json"), "--format", "json")
        assert code == 3
        where = "interval 0 [0.0, 20.0]: " if command == "divisibility" else ""
        assert capsys.readouterr().err == f"nmflow: numerical failure: {where}{message}\n"
        assert not (tmp_path / "out.json").exists()

    # An allocation the machine refuses, such as the (d^2, d, d) Hermitian
    # basis of a d = 300 generator file (121 GiB): NumPy's message, or the
    # type's name where Python's own MemoryError carries none.
    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 121. GiB for an array with shape (90000, 300, 300) "
                     "and data type complex128"),
         "Unable to allocate 121. GiB for an array with shape (90000, 300, 300) and data type "
         "complex128"),
        (MemoryError(), "MemoryError"),
    ])
    def test_refused_allocation_is_exit_3(self, tmp_path, capsys, monkeypatch, error, message):
        def refuse(d):
            raise error

        monkeypatch.setattr("nmflow.dynamics._hermitian_basis", refuse)
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        gen_file.write_text(json.dumps({"hamiltonian": {"re": zeros, "im": zeros},
                                        "channels": []}))
        out = tmp_path / "m.json"
        assert run("measure", "--model", "custom-file", "--generator-file", str(gen_file),
                   "--output", str(out)) == 3
        assert capsys.readouterr().err == f"nmflow: numerical failure: {message}\n"
        assert not out.exists()

    def test_nan_coherence_is_exit_3_as_on_the_blocks(self, tmp_path, capsys, monkeypatch):
        # A spin-bath coherence spoiled at t = 2: every pair fails there, on
        # the exact flow's (c, p) as on the array of its blocks.
        f, build = spinbath_f, cli.build_flow
        monkeypatch.setattr("nmflow.models.spinbath_f",
                            lambda params, t: np.where(abs(t - 2.0) < 1e-9, np.nan, f(params, t)))
        argv = ("measure", "--model", "spinbath", "--n-spins", "3", "--horizon", "5",
                "--step", "1e-2", "--output", str(tmp_path / "out.json"))
        assert run(*argv) == 3
        exact = capsys.readouterr().err
        monkeypatch.setattr(cli, "build_flow", lambda cfg, times: np.concatenate(
            [block for _, block in build(cfg, times)]))
        assert run(*argv) == 3
        assert capsys.readouterr().err == exact
        assert exact.startswith("nmflow: numerical failure: all pair evaluations failed; first "
                                "failure: canonical-z: trace distance nan exceeds 1 or is not "
                                "finite at t=2 ")
        assert not (tmp_path / "out.json").exists()

    def test_map_beyond_double_precision_is_named_so(self, tmp_path, capsys):
        # The sigma_minus rate -50 over [0, 10]: the map is finite, of scale
        # e^500, so its rounding alone makes a trace defect of order 1.
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        gen_file.write_text(json.dumps({
            "hamiltonian": {"re": zeros, "im": zeros},
            "channels": [{"operator": {"re": [[0.0, 0.0], [1.0, 0.0]], "im": zeros},
                          "rate": -50.0}],
        }))
        assert run("divisibility", "--model", "custom-file", "--generator-file", str(gen_file),
                   "--horizon", "20", "--grid-points", "2", "--step", "1e-2",
                   "--output", str(tmp_path / "d.csv")) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"nmflow: numerical failure: interval 0 \[0.0, 10.0\]: propagator entries reach "
            r"\d\.\d{3}e\+21\d, a scale beyond double-precision resolution: its trace defect "
            r"\S+ cannot be checked to 1e-08\n", err), err

    def test_undefined_two_time_map_is_exit_3(self, tmp_path, capsys):
        # |G| falls below AMPLITUDE_FLOOR = 1e-300 at about t = 1380
        # (gamma0 = 5 on resonance).
        out = tmp_path / "d.csv"
        assert run("divisibility", "--model", "jc", "--gamma0", "5", "--horizon", "1500",
                   "--grid-points", "15", "--step", "1", "--output", str(out)) == 3
        assert capsys.readouterr().err.startswith(
            "nmflow: numerical failure: interval 14 [1400.0, 1500.0]: two-time map undefined")
        assert not out.exists()

    def test_weak_coupling_past_the_underflow_of_the_population_is_cp(self, tmp_path):
        # gamma0 = 0.4 on resonance: |G|^2 is subnormal for t in about
        # [1281, 1348] and 0 past it, |G| stays above AMPLITUDE_FLOOR, and
        # every map contracts: its least Choi eigenvalue is exactly 0.
        out = tmp_path / "d.json"
        assert run("divisibility", "--model", "jc", "--gamma0", "0.4", "--horizon", "1400",
                   "--grid-points", "140", "--step", "1e-2", "--format", "json",
                   "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["divisible"]
        assert {iv["least_choi_eigenvalue"] for iv in payload["intervals"]} == {0.0}

    # The clamped jc rate at strong coupling, integrated by RK4 on a coarse
    # grid across the poles of the unclamped rate, which that step cannot
    # resolve: the step bound refuses it.
    CLAMPED_POLES = ("--gamma0", "20", "--clamp-rate", "--horizon", "20", "--step", "5e-2")
    UNRESOLVED = "step 0.05 cannot resolve the generator at t=0.475: h*||K|| = 1.29 > 1"

    def test_failed_canonical_pair_is_exit_3(self, tmp_path, capsys):
        code = run("measure", "--model", "jc", *self.CLAMPED_POLES, "--delta", "0",
                   "--n-pairs", "10", "--format", "json", "--output", str(tmp_path / "m.json"))
        assert code == 3
        assert capsys.readouterr().err == f"nmflow: numerical failure: {self.UNRESOLVED}\n"

    def test_failed_canonical_pair_is_a_sweep_error(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--model", "jc", *self.CLAMPED_POLES, "--delta-min", "0",
                   "--delta-max", "8", "--delta-points", "2", "--n-pairs", "2",
                   "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        assert rows[0][5] == self.UNRESOLVED
        assert rows[1][5] == "" and math.isfinite(rows[1][3])

    # gamma0 = 5 lambda on resonance, where the rate has poles at the zeros
    # of G: the clamped RK4 measure and divisibility used to exit 0.
    @pytest.mark.parametrize("argv, message", [
        (["measure", "--clamp-rate"], "step 0.001 cannot resolve the generator at t=1.26: "
                                      "h*||K|| = 1.18 > 1"),
        (["divisibility", "--clamp-rate", "--grid-points", "40"],
         "interval 2 [1.0, 1.5]: step 0.001 cannot resolve the generator at t=1.26: "
         "h*||K|| = 1.18 > 1"),
    ])
    def test_strong_coupling_rk4_is_exit_3(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o.json"
        code = run(*argv, "--model", "jc", "--gamma0", "5", "--delta", "0", "--horizon", "20",
                   "--step", "1e-3", "--format", "json", "--output", str(out))
        assert code == 3
        assert capsys.readouterr().err == f"nmflow: numerical failure: {message}\n"
        assert not out.exists()


class TestStrongCoupling:
    """gamma0 = 5 lambda on resonance: G(t) has zeros, where the jc rate has
    poles that RK4 cannot cross; the exact flow crosses them. For the
    canonical x pair D(t) = |G(t)|, so its measure on the grid is N_x, the
    sum of the positive increments of |G|."""

    ARGS = ("--model", "jc", "--gamma0", "5", "--delta", "0", "--horizon", "20",
            "--step", "1e-3")

    def abs_g(self, times):
        return np.abs(jc_amplitude(JCParams(gamma0=5.0, lam=1.0, delta=0.0), times))

    def test_measure_is_the_positive_variation_of_the_x_pair(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("measure", *self.ARGS, "--n-pairs", "100", "--format", "json",
                   "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        n_x = np.maximum(np.diff(self.abs_g(make_time_grid(20.0, 1e-3))), 0.0).sum()
        assert payload["flow"] == "exact"
        assert payload["best_pair"]["label"] == "canonical-x"
        assert payload["failures"] == []
        assert abs(payload["n_value"] - n_x) <= 1e-13

    def test_divisibility_is_the_closed_form(self, tmp_path):
        # Phi(b, a) is amplitude damping with factor |G(b)/G(a)|, its least
        # Choi eigenvalue min(0, 1 - |G(b)/G(a)|^2), large near the zeros of G.
        out = tmp_path / "d.json"
        assert run("divisibility", *self.ARGS, "--grid-points", "40", "--format", "json",
                   "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["flow"] == "exact"
        least = np.array([iv["least_choi_eigenvalue"] for iv in payload["intervals"]])
        g2 = self.abs_g(np.linspace(0.0, 20.0, 41)) ** 2
        ref = np.minimum(0.0, 1.0 - g2[1:] / g2[:-1])
        assert np.all(np.abs(least - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert ref.min() < -1.0 and not payload["divisible"]

    def test_trajectory_of_the_x_pair_is_abs_g(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("trajectory", *self.ARGS, "--pair", "x", "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        times, d_values = np.array([row[:2] for row in rows]).T
        assert times.size == 20_001
        assert np.max(np.abs(d_values - self.abs_g(times))) <= 1e-12


class TestSweep:
    def test_detuning_sweep_columns_and_monotone_onset(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--model", "jc", "--delta-min", "0",
                   "--delta-max", "8", "--delta-points", "3",
                   "--n-pairs", "2", "--horizon", "30", "--step", "0.002",
                   "--seed", "0", "--output", str(out)) == 0
        header, rows = read_csv_grid(str(out))
        assert header == ["delta_over_lambda", "n_sampled_max", "n_canonical_pair",
                          "n_value", "best_pair", "error"]
        assert rows[0][3] == 0.0   # resonant point is Markovian
        assert rows[-1][3] > 0.0   # detuned point is not
        assert all(row[5] == "" for row in rows)

    def test_sweep_is_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run("sweep", "--model", "jc", "--delta-min", "5",
                       "--delta-max", "5", "--delta-points", "1",
                       "--n-pairs", "2", "--horizon", "20", "--step", "0.002",
                       "--seed", "7", "--output", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDivisibility:
    def test_detuned_model_has_non_cp_intervals(self, tmp_path):
        out = tmp_path / "div.json"
        assert run("divisibility", "--model", "jc", "--delta", "5",
                   "--horizon", "3", "--grid-points", "12", "--step", "0.005",
                   "--format", "json", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["divisible"] is False
        bad = [iv for iv in payload["intervals"] if not iv["is_cp"]]
        assert bad
        assert all(iv["least_choi_eigenvalue"] < -1e-7 for iv in bad)

    def test_semigroup_is_divisible(self, tmp_path):
        out = tmp_path / "div.csv"
        assert run("divisibility", "--model", "semigroup",
                   "--horizon", "3", "--grid-points", "6", "--step", "0.005",
                   "--output", str(out)) == 0
        header, rows = read_csv_grid(str(out))
        assert header == ["t_start", "t_end", "is_cp", "least_choi_eigenvalue"]
        assert all(row[2] == "true" for row in rows)

    def test_csv_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "div.csv"
        assert run("divisibility", "--model", "jc", "--delta", "5",
                   "--horizon", "2", "--grid-points", "8", "--step", "0.005",
                   "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        # 17 significant digits means float cells survive a write/read cycle.
        assert rows[1][0] == 0.25
        assert isinstance(rows[0][3], float)


class TestFlowMethod:
    """Every command that evolves a pair, and divisibility, names its flow in
    JSON: the closed forms of the spin bath, the semigroup and the unclamped
    jc model are "exact", the clamped jc model and custom-file integrate RK4
    (dynamics.flow_blocks, and dynamics.divisibility_report for two-time
    maps)."""

    @pytest.mark.parametrize("argv, flow", [
        ("trajectory --model jc --delta 5", "exact"),
        ("trajectory --model jc --delta 5 --clamp-rate", "rk4"),
        ("trajectory --model spinbath --n-spins 5", "exact"),
        ("trajectory --model custom-file", "rk4"),
        ("measure --model jc --delta 8 --n-pairs 2", "exact"),
        ("measure --model jc --delta 8 --n-pairs 2 --clamp-rate", "rk4"),
        ("measure --model semigroup --n-pairs 2", "exact"),
        ("measure --model custom-file --n-pairs 2", "rk4"),
        ("sweep --model jc --delta-points 2 --n-pairs 2", "exact"),
        ("sweep --model jc --delta-points 2 --n-pairs 2 --clamp-rate", "rk4"),
        ("divisibility --model jc --delta 5 --grid-points 2", "exact"),
        ("divisibility --model jc --delta 5 --grid-points 2 --clamp-rate", "rk4"),
        ("divisibility --model semigroup --grid-points 2", "exact"),
        ("divisibility --model custom-file --grid-points 2", "rk4"),
    ])
    def test_json_names_the_flow_it_used(self, tmp_path, monkeypatch, argv, flow):
        import nmflow.cli

        integrated = []
        for name in ("flow_blocks", "divisibility_report"):
            integrator = getattr(nmflow.cli, name)
            monkeypatch.setattr(nmflow.cli, name, lambda *args, integrator=integrator, **kw:
                                integrated.append(1) or integrator(*args, **kw))
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        gen_file.write_text(json.dumps({
            "hamiltonian": {"re": zeros, "im": zeros},
            "channels": [{"operator": {"re": [[0.0, 0.0], [1.0, 0.0]], "im": zeros},
                          "rate": 1.0}],
        }))
        extra = ["--generator-file", str(gen_file)] if "custom-file" in argv else []
        out = tmp_path / "out.json"
        assert run(*argv.split(), *extra, "--horizon", "1", "--step", "0.01",
                   "--format", "json", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 4 and payload["flow"] == flow
        assert bool(integrated) == (flow == "rk4")


def _same_cell(csv_cell, json_cell):
    """A CSV cell read back by read_csv_grid against the JSON value of the
    same run: booleans are written true/false, NaN as nan in CSV and null in
    JSON."""
    if isinstance(json_cell, bool):
        return csv_cell == ("true" if json_cell else "false")
    if json_cell is None:
        return isinstance(csv_cell, float) and math.isnan(csv_cell)
    return csv_cell == json_cell


class TestOneWriter:
    @pytest.mark.parametrize("argv, table", [
        ("rate --model jc --delta-min 0 --delta-max 2 --delta-points 3 --horizon 1 --step 0.1",
         "rate"),
        (f"rate --model spinbath --n-spins 5 --horizon {60 * np.pi / 40} --step {np.pi / 40}",
         "rate"),
        ("trajectory --model jc --delta 5 --horizon 1 --step 0.01", "trajectory"),
        ("sweep --model jc --delta-min 0 --delta-max 8 --delta-points 2 --n-pairs 2 "
         "--horizon 20 --step 0.01", "sweep"),
        ("divisibility --model jc --delta 5 --horizon 2 --grid-points 8 --step 0.005",
         "intervals"),
        ("measure --model jc --delta 8 --n-pairs 2 --horizon 20 --step 0.01", "intervals"),
    ])
    def test_csv_holds_the_json_values(self, tmp_path, argv, table):
        paths = {fmt: tmp_path / f"o.{fmt}" for fmt in ("csv", "json")}
        for fmt, path in paths.items():
            assert run(*argv.split(), "--format", fmt, "--output", str(path)) == 0
        header, rows = read_csv_grid(str(paths["csv"]))
        payload = json.loads(paths["json"].read_text())
        records = [[rec[name] for name in header] for rec in payload[table]]
        if argv.startswith("measure"):
            assert records
            records.append(["n_value", payload["n_value"], ""])
        assert len(rows) == len(records) > 1
        assert all(len(row) == len(header) for row in rows)
        assert all(_same_cell(a, b) for row, rec in zip(rows, records)
                   for a, b in zip(row, rec))
        if argv.startswith("divisibility"):
            assert {rec["is_cp"] for rec in payload[table]} == {True, False}


def _oracle_payload(payload):
    return {key: oracle_records(*value) if isinstance(value, cli.Records) else value
            for key, value in payload.items()}


def assert_written_as_oracle(tmp_path, header, rows, payload):
    """cli.write_csv and cli.write_json write the bytes of the cell-by-cell
    csv.writer and json.dump writers of tests/oracles.py."""
    new, old = tmp_path / "new", tmp_path / "old"
    cli.write_csv(new, header, rows)
    oracle_csv(old, header, rows)
    assert new.read_bytes() == old.read_bytes()
    cli.write_json(new, payload)
    oracle_json(old, _oracle_payload(payload), cli.SCHEMA_VERSION)
    assert new.read_bytes() == old.read_bytes()


NAN, INF = float("nan"), float("inf")


class TestWriterOracles:
    @pytest.mark.parametrize("argv", [
        "rate --model jc --delta-min 0 --delta-max 2 --delta-points 3 --horizon 1 --step 0.1",
        f"rate --model spinbath --n-spins 5 --horizon {60 * np.pi / 40} --step {np.pi / 40}",
        "rate --model semigroup --horizon 1 --step 0.01",
        "trajectory --model jc --delta 8 --pair x --horizon 2 --step 1e-3",
        "measure --model jc --delta 8 --n-pairs 4 --horizon 20 --step 0.01",
        "measure --model jc --delta 8 --n-pairs 4 --horizon 5 --step 0.01 --clamp-rate",
        "measure --model spinbath --n-spins 20 --n-pairs 4 --horizon 5 --step 5e-4",
        # A failed point: its values are NaN, and its error string has a comma.
        "sweep --model jc --gamma0 20 --clamp-rate --horizon 20 --step 0.1 --delta-min 0 "
        "--delta-max 8 --delta-points 2 --n-pairs 2",
        "divisibility --model jc --delta 5 --horizon 3 --grid-points 12 --step 5e-3",
    ])
    def test_every_command_payload(self, tmp_path, monkeypatch, argv):
        tables = []
        monkeypatch.setattr(cli, "write_output", lambda cfg, *table: tables.append(table))
        assert run(*shlex.split(argv), "--output", str(tmp_path / "out")) == 0
        ((header, rows, payload),) = tables
        assert_written_as_oracle(tmp_path, header, rows, payload)

    def test_every_cell_kind(self, tmp_path):
        tiny = 2.2250738585072014e-308 / 3  # subnormal
        header = ["t", "mixed", "is_cp", "text", "σ,\"%s\"", "n"]
        rows = [
            [-0.0, 1, True, "", 1e308, 0],
            (5e-324, None, False, "a,b", NAN, -7),
            [tiny, 'q"uote', True, "line\nbreak", 0.1, 2**70],
            [NAN, 2.5, False, "Φ(t) ≥ ñ", -1e-300, 1],
            (1.0, NAN, True, "100% %s\r", -0.0, 3),
            [1 / 3, False, False, "nan", 123456789.0, 4],
        ]
        assert_written_as_oracle(tmp_path, header, rows,
                                 {"flow": "rk4", "pair": {"label": "σ", "v": [0.5, -0.0]},
                                  "table": cli.Records(header, rows), "after": None})

    def test_infinity_is_written_to_csv(self, tmp_path):
        assert_written_as_oracle(tmp_path, ["a", "b"], [[INF, -INF], ["x", INF]], {})

    def test_empty_record_list(self, tmp_path):
        header = ["a", "b", "contribution"]
        assert_written_as_oracle(tmp_path, header, [],
                                 {"n_value": 0.0, "intervals": cli.Records(header, [])})

    @pytest.mark.parametrize("payload", [
        {"table": cli.Records(["a", "b"], [[1.0, 2.0], [NAN, INF]])},
        {"table": cli.Records(["a", "b"], [[1.0, -INF], [INF, 2.0]])},
        {"table": cli.Records(["a", "b"], [[1.0, 2.0], [INF, -INF]])},
        {"table": cli.Records(["a", "b"], [["x", 1.0], [INF, "y"]])},
        {"n_value": NAN, "table": cli.Records(["a"], [[INF]])},
        {"table": cli.Records(["a"], [[1.0]]), "pair": {"v": [0.0, -INF]}},
    ])
    def test_a_non_finite_value_is_refused_as_json_dump_refuses_it(self, tmp_path, payload):
        # NaN in a record is null; any other NaN or infinity raises json.dump's
        # exception, naming the first in writing order. cli.write_json formats
        # everything before it opens the file, so it leaves no file behind.
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        with pytest.raises(ValueError) as expected:
            oracle_json(old, _oracle_payload(payload), cli.SCHEMA_VERSION)
        with pytest.raises(ValueError) as raised:
            cli.write_json(new, payload)
        assert str(raised.value) == str(expected.value)
        assert "JSON compliant" in str(raised.value)
        assert not new.exists()

    def test_an_existing_file_is_kept_when_a_value_is_refused(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("previous run\n")
        with pytest.raises(ValueError):
            cli.write_json(path, {"n_value": INF})
        assert path.read_text() == "previous run\n"
