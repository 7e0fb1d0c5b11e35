import csv
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from nmflow.cli import KEYS, build_parser, main, resolve_config, time_grid
from nmflow.exceptions import ConfigError
from nmflow.models import (
    POLE_TOL,
    JCParams,
    SpinBathParams,
    jc_rate,
    spinbath_f,
    spinbath_pole_distance,
    spinbath_rate,
    spinbath_trace_distance,
)
from nmflow.states import DensityMatrix, save_state


def run(*argv):
    return main(list(argv))


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
    def test_negative_sigma_threshold_is_exit_2(self, tmp_path, capsys, command):
        code = run(command, "--model", "jc", "--sigma-threshold", "-1",
                   "--n-pairs", "1", "--horizon", "1", "--step", "0.01",
                   "--output", str(tmp_path / "o.csv"))
        assert code == 2
        assert "sigma_threshold must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, config, key", [
        ("measure --horizon inf", "", "horizon_over_lambda"),
        ("divisibility --step inf", "", "step_over_lambda"),
        ("divisibility --cp-tol nan", "", "cp_tol"),
        ("rate --delta-points 0", "", "delta_points"),
        ("rate", "format = xml", "format"),
        ("divisibility", "clamp_rate = maybe", "clamp_rate"),
        ("trajectory", "pair = y", "pair"),
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

    def test_horizon_must_be_a_whole_number_of_steps(self):
        def grid(horizon, step):
            args = build_parser().parse_args(
                ["measure", "--horizon", horizon, "--step", step, "--output", "o.json"])
            return time_grid(resolve_config(args, args.command))

        assert grid("2.5", "1e-3").size == 2501
        assert grid(str(20 * np.pi / 40), str(np.pi / 40)).size == 21
        for horizon, step in (("4", "0.3"), ("1", "0.0999999")):
            with pytest.raises(ConfigError, match=f"^horizon {horizon} is not a whole "
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
        assert payload["schema_version"] == 2
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

    def test_malformed_generator_file_is_exit_2(self, tmp_path):
        gen_file = tmp_path / "gen.json"
        gen_file.write_text("{not json")
        assert run("measure", "--model", "custom-file",
                   "--generator-file", str(gen_file),
                   "--horizon", "5", "--step", "0.01",
                   "--output", str(tmp_path / "m.json")) == 2


class TestNumericalFailure:
    @pytest.mark.parametrize("command", ["measure", "trajectory", "divisibility"])
    def test_non_finite_flow_is_exit_3(self, tmp_path, capsys, command):
        gen_file = tmp_path / "gen.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        gen_file.write_text(json.dumps({
            "dim": 2,
            "hamiltonian": {"re": zeros, "im": zeros},
            "channels": [{
                "operator": {"re": [[0.0, 0.0], [1.0, 0.0]], "im": zeros},
                "rate": -1e5,
            }],
        }))
        extra = ["--grid-points", "1"] if command == "divisibility" else []
        code = run(command, "--model", "custom-file", "--generator-file", str(gen_file),
                   "--horizon", "1", "--step", "1e-2", *extra,
                   "--output", str(tmp_path / "out.json"), "--format", "json")
        assert code == 3
        assert "non-finite entries at t=" in capsys.readouterr().err

    def test_failed_canonical_pair_is_exit_3(self, tmp_path, capsys):
        code = run("measure", "--model", "jc", "--gamma0", "5", "--delta", "0",
                   "--n-pairs", "10", "--horizon", "20", "--step", "1e-3",
                   "--format", "json", "--output", str(tmp_path / "m.json"))
        assert code == 3
        assert "canonical pair failed: canonical-z" in capsys.readouterr().err

    def test_failed_canonical_pair_is_a_sweep_error(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--model", "jc", "--gamma0", "5", "--delta-min", "0",
                   "--delta-max", "8", "--delta-points", "2", "--n-pairs", "2",
                   "--horizon", "20", "--step", "1e-3", "--output", str(out)) == 0
        _, rows = read_csv_grid(str(out))
        assert rows[0][5].startswith("canonical pair failed: canonical-z")
        assert rows[1][5] == "" and rows[1][3] > 0.0


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

    def test_sweep_requires_jc(self, tmp_path):
        assert run("sweep", "--model", "semigroup",
                   "--output", str(tmp_path / "s.csv")) == 2

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
