"""Command-line front end: rate, trajectory, measure, sweep, divisibility.

Configuration is a flat key=value text file with units carried in the key
names (horizon_over_lambda, step_times_a, ...); unknown keys are errors.
Command-line flags mirror the config fields, take the model's reduced time
unit (1/lambda, 1/A, 1/gamma0), and win over the file. All commands are
deterministic given the config, including seeds; outputs are CSV (17
significant digits) or JSON with a schema_version field.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import models
from .dynamics import constant_generator, divisibility_report, propagator_grid
from .exceptions import ConfigError, NumericalError
from .measure import canonical_pairs, make_time_grid, search_pairs, sweep, trajectory
from .states import StatePair, bloch_from_qubit, load_state, qubit_from_bloch

SCHEMA_VERSION = 2
OUTPUT_DIR_ENV = "NMFLOW_OUTPUT_DIR"

MODELS = ("jc", "spinbath", "semigroup", "custom-file")
# Models with a master-equation generator: divisibility integrates its
# two-time maps.
EVOLVED = ("jc", "semigroup", "custom-file")
ALL_COMMANDS = frozenset({"rate", "trajectory", "measure", "sweep", "divisibility"})
SEARCH = ("measure", "sweep")


# The value rules of the key table's rule column: the range a number must lie in.
RULES = {
    "positive": lambda x: x > 0,
    "nonnegative": lambda x: x >= 0,
    "at least 1": lambda x: x >= 1,
}
BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass(frozen=True)
class Key:
    """One configuration key and its command-line flag.

    kind is float, int or str for a typed value, bool for a switch flag
    that sets "true", or a tuple of allowed strings; rule, a name in RULES,
    is the range a number must lie in. A key applies, and may be given, only
    where a command in commands reads it for a model in models; default None
    means the key is unset unless given.
    """

    name: str
    kind: object
    default: Optional[str]
    flag: str
    models: frozenset
    commands: frozenset
    help: str
    rule: Optional[str] = None

    @property
    def dest(self):
        return self.flag[2:].replace("-", "_")

    def parse(self, text):
        """The typed value of text, from a file, a flag or the default; every
        number must be finite and obey the key's rule."""
        kind = self.kind
        if kind is str:
            return text
        if kind is bool:
            value, expected = BOOLS.get(text.lower()), "true/1/yes or false/0/no"
        elif isinstance(kind, tuple):
            value, expected = (text if text in kind else None), "one of " + ", ".join(kind)
        else:
            expected = "a finite number" if kind is float else "an integer"
            try:
                value = kind(text)
            except ValueError:
                value = None
            if value is not None and not math.isfinite(value):
                value = None
        if value is None:
            raise ConfigError(f"key {self.name}: expected {expected}, got {text!r}")
        if self.rule and not RULES[self.rule](value):
            raise ConfigError(f"{self.name} must be {self.rule}, got {text!r}")
        return value


def _keys(models, commands, *rows):
    return [Key(name, kind, default, flag, frozenset(models), frozenset(commands), *rest)
            for name, kind, default, flag, *rest in rows]


# The one list of keys: defaults, flags, allowed keys, value rules and the
# parser all come from here. --horizon and --step set the time keys of the
# chosen model.
KEYS = (
    *_keys(MODELS, ALL_COMMANDS,
           ("model", MODELS, "jc", "--model", "physical model"),
           ("output", str, None, "--output", "output file path"),
           ("format", ("csv", "json"), "csv", "--format", "output format")),
    *_keys(MODELS, SEARCH,
           ("seed", int, "0", "--seed", "pair-sampling seed", "nonnegative"),
           ("sigma_threshold", float, None, "--sigma-threshold",
            "growth threshold on sigma (default: relative to its peak)", "nonnegative"),
           ("n_pairs", int, "1000", "--n-pairs", "sampled initial pairs", "at least 1")),
    *_keys({"jc"}, ALL_COMMANDS,
           ("horizon_over_lambda", float, "60", "--horizon", "jc: horizon in units of 1/lambda",
            "positive"),
           ("step_over_lambda", float, "1e-3", "--step", "jc: step in units of 1/lambda",
            "positive"),
           ("gamma0_over_lambda", float, "0.01", "--gamma0", "jc coupling in units of lambda")),
    *_keys({"jc"}, ALL_COMMANDS - {"sweep"},
           ("delta_over_lambda", float, "0", "--delta", "jc detuning in units of lambda")),
    *_keys({"jc"}, {"rate", "sweep"},
           ("delta_over_lambda_min", float, "0", "--delta-min", "first detuning of a range"),
           ("delta_over_lambda_max", float, "10", "--delta-max", "last detuning of a range"),
           ("delta_points", int, "11", "--delta-points", "detunings in the range", "at least 1")),
    *_keys({"jc"}, ALL_COMMANDS - {"rate"},
           ("clamp_rate", bool, "false", "--clamp-rate", "clamp the jc rate at zero")),
    *_keys({"spinbath"}, {"rate", "trajectory", "measure"},
           ("horizon_times_a", float, "4.9", "--horizon", "spinbath: horizon in units of 1/A",
            "positive"),
           ("step_times_a", float, "5e-4", "--step", "spinbath: step in units of 1/A", "positive"),
           ("n_spins", int, "20", "--n-spins", "bath spins")),
    *_keys({"semigroup"}, ALL_COMMANDS - {"sweep"},
           ("horizon_times_gamma0", float, "5", "--horizon",
            "semigroup: horizon in units of 1/gamma0", "positive"),
           ("step_times_gamma0", float, "1e-3", "--step", "semigroup: step in units of 1/gamma0",
            "positive")),
    *_keys({"custom-file"}, {"trajectory", "measure", "divisibility"},
           ("horizon", float, "1", "--horizon", "custom-file: horizon", "positive"),
           ("step", float, "1e-3", "--step", "custom-file: step", "positive"),
           ("generator_file", str, None, "--generator-file", "constant generator as JSON")),
    *_keys(MODELS, {"trajectory"},
           ("pair", ("z", "x"), "z", "--pair", "canonical initial pair"),
           ("pair_bloch", str, None, "--pair-bloch", "'x,y,z;x,y,z'"),
           ("pair_files", str, None, "--pair-files", "'file1;file2'")),
    *_keys(EVOLVED, {"divisibility"},
           ("grid_points", int, "20", "--grid-points", "intervals of the divisibility grid",
            "at least 1"),
           ("cp_tol", float, "1e-7", "--cp-tol", "tolerance on the least Choi eigenvalue",
            "positive")),
)
KEY_TABLE = {key.name: key for key in KEYS}
FLAGS = {flag: [key for key in KEYS if key.flag == flag]
         for flag in dict.fromkeys(key.flag for key in KEYS)}
# Alternative ways to give one input: keys from two of them clash.
ALTERNATIVES = (
    (("pair",), ("pair_bloch",), ("pair_files",)),
    (("delta_over_lambda",), ("delta_over_lambda_min", "delta_over_lambda_max", "delta_points")),
)

TIME_COLUMN = {
    "jc": "t_lambda",
    "spinbath": "t_times_a",
    "semigroup": "t_times_gamma0",
    "custom-file": "t",
}


def parse_config_file(path):
    """Flat key=value config; '#' starts a comment; duplicate keys are errors."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one command: the typed value of every key
    given or with a default, and the names of the keys given."""

    values: dict
    provided: frozenset

    @property
    def model(self):
        return self.values["model"]

    @property
    def horizon(self):
        return self.values[_flag_key("--horizon", self.model).name]

    @property
    def step(self):
        return self.values[_flag_key("--step", self.model).name]


def _flag_key(flag, model):
    """The key a flag sets for a model: --horizon and --step have one per model."""
    keys = FLAGS[flag]
    return next((key for key in keys if model in key.models), keys[0])


def resolve_config(args, command):
    """The RunConfig of a command from the config file and the flags (which
    win): every value, given or default, is parsed by its key once."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    model_key = KEY_TABLE["model"]
    model = model_key.parse(args.model or file_cfg.get("model") or model_key.default)
    for key in file_cfg:
        if key not in KEY_TABLE:
            raise ConfigError(f"unknown config key {key!r} for model {model!r}")
    given = dict(file_cfg)
    for flag in FLAGS:
        key = _flag_key(flag, model)
        value = getattr(args, key.dest, None)
        if value is not None:
            given[key.name] = value
    for name in given:
        key = KEY_TABLE[name]
        if model not in key.models or command not in key.commands:
            raise ConfigError(
                f"key {name!r} ({key.flag}) does not apply to model {model!r} "
                f"with command {command!r}"
            )
    for groups in ALTERNATIVES:
        if sum(any(name in given for name in group) for group in groups) > 1:
            clash = [name for group in groups for name in group if name in given]
            raise ConfigError(f"keys {', '.join(map(repr, clash))} give the same input; "
                              "give only one of them")
    if "output" not in given:
        raise ConfigError("no output path given (key 'output' or flag --output)")
    values = {key.name: key.parse(given.get(key.name, key.default))
              for key in KEYS if key.name in given or key.default is not None}
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir:
        values["output"] = os.path.join(out_dir, os.path.basename(values["output"]))
    return RunConfig(values, frozenset(given))


def load_custom_generator(path):
    """Constant generator from a JSON file.

    Schema: {"dim": d, "hamiltonian": {"re": [[..]], "im": [[..]]},
    "channels": [{"operator": {"re": .., "im": ..}, "rate": r}, ...]}.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read generator file {path}: {exc}")

    def matrix(node, what):
        try:
            return np.asarray(node["re"], dtype=float) + 1j * np.asarray(
                node["im"], dtype=float
            )
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{path}: malformed {what} matrix")

    try:
        ham = matrix(data["hamiltonian"], "hamiltonian")
        channels = [
            (matrix(ch["operator"], "channel operator"), float(ch["rate"]))
            for ch in data["channels"]
        ]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: missing field {exc}")
    gen = constant_generator(ham, channels)
    if "dim" in data and int(data["dim"]) != gen.dim:
        raise ConfigError(f"{path}: declared dim {data['dim']} != matrix dim {gen.dim}")
    return gen


def build_generator(cfg):
    values = cfg.values
    if cfg.model == "jc":
        params = models.JCParams(
            gamma0=values["gamma0_over_lambda"], lam=1.0, delta=values["delta_over_lambda"]
        )
        return models.jc_generator(params, nonnegative_rate=values["clamp_rate"])
    if cfg.model == "semigroup":
        return models.semigroup_generator(1.0)
    if cfg.model == "custom-file":
        if "generator_file" not in values:
            raise ConfigError("model custom-file needs key generator_file")
        return load_custom_generator(values["generator_file"])
    raise ConfigError(f"model {cfg.model!r} has no master-equation generator")


def time_grid(cfg):
    """The time grid of a run, which must end at its horizon: a whole number
    of steps, to a relative 1e-9."""
    if not abs(round(cfg.horizon / cfg.step) * cfg.step - cfg.horizon) <= 1e-9 * cfg.horizon:
        raise ConfigError(f"horizon {cfg.horizon:g} is not a whole number of steps {cfg.step:g}")
    return make_time_grid(cfg.horizon, cfg.step)


def build_flow(cfg, times):
    """Flow Phi(t_k, 0) of the model on times: exact for the spin bath, RK4
    integration of the generator for the others."""
    if cfg.model == "spinbath":
        params = models.SpinBathParams(coupling_a=1.0, n_spins=cfg.values["n_spins"])
        return models.spinbath_flow(params, times)
    return propagator_grid(build_generator(cfg), times)


def resolve_pair(cfg):
    """Initial pair from a canonical name, Bloch vectors, or state files."""
    spec = cfg.values.get("pair_bloch")
    if spec:
        halves = spec.split(";")
        if len(halves) != 2:
            raise ConfigError(f"pair_bloch needs 'x,y,z;x,y,z', got {spec!r}")
        states = []
        for half in halves:
            comps = half.split(",")
            if len(comps) != 3:
                raise ConfigError(f"pair_bloch needs 'x,y,z;x,y,z', got {spec!r}")
            try:
                states.append(qubit_from_bloch(*(float(c) for c in comps)))
            except ValueError as exc:
                raise ConfigError(f"pair_bloch: {exc}")
        return StatePair(states[0], states[1], label="bloch")
    if cfg.values.get("pair_files"):
        paths = cfg.values["pair_files"].split(";")
        if len(paths) != 2:
            raise ConfigError("pair_files needs two ';'-separated paths")
        try:
            rho1, rho2 = (load_state(p.strip()) for p in paths)
        except ValueError as exc:
            raise ConfigError(str(exc))
        return StatePair(rho1, rho2, label="files")
    label = "canonical-" + cfg.values["pair"]
    return next(pair for pair in canonical_pairs(2) if pair.label == label)


def format_number(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(x) for x in row])


def write_json(path, payload):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w") as fh:
        # An iterator in the payload (see _records) is written as a list;
        # strict JSON has no NaN or infinity, so one raises instead.
        json.dump(payload, fh, indent=2, default=list, allow_nan=False)
        fh.write("\n")


def _records(header, rows):
    """The rows as JSON records keyed by header, made only if written, with
    NaN (the one value unequal to itself) as null."""
    return (dict(zip(header, (None if x != x else x for x in row))) for row in rows)


def write_output(cfg, header, rows, payload):
    """The one writer of every command: the rows under header as CSV, or the
    payload as JSON, in the configured format."""
    if cfg.values["format"] == "csv":
        write_csv(cfg.values["output"], header, rows)
    else:
        write_json(cfg.values["output"], payload)


def _delta_range(cfg):
    values = cfg.values
    return np.linspace(
        values["delta_over_lambda_min"], values["delta_over_lambda_max"], values["delta_points"]
    ).tolist()


def cmd_rate(cfg):
    """Columns t, gamma(t); with a detuning range, one block of rows per delta."""
    time_col = TIME_COLUMN[cfg.model]
    times = time_grid(cfg)
    values = cfg.values
    if cfg.model == "jc":
        range_keys = {"delta_over_lambda_min", "delta_over_lambda_max", "delta_points"}
        deltas = _delta_range(cfg) if cfg.provided & range_keys else [values["delta_over_lambda"]]
        header = ["delta_over_lambda", time_col, "gamma_over_lambda", "flag"]
        rows = []
        for delta in deltas:
            params = models.JCParams(gamma0=values["gamma0_over_lambda"], lam=1.0, delta=delta)
            gammas = models.jc_rate(params, times)
            rows.extend([delta, t, g, ""] for t, g in zip(times.tolist(), gammas.tolist()))
    elif cfg.model == "spinbath":
        params = models.SpinBathParams(coupling_a=1.0, n_spins=values["n_spins"])
        pole = models.spinbath_pole_distance(params, times) <= models.POLE_TOL
        gammas = np.full(times.size, np.nan)
        gammas[~pole] = models.spinbath_rate(params, times[~pole])
        header = [time_col, "gamma_over_a", "flag"]
        rows = [[t, g, "pole" if p else ""]
                for t, g, p in zip(times.tolist(), gammas.tolist(), pole.tolist())]
    elif cfg.model == "semigroup":
        header = [time_col, "gamma_over_gamma0", "flag"]
        rows = [[t, 1.0, ""] for t in times.tolist()]
    else:
        raise ConfigError(f"model {cfg.model!r} does not support an analytic rate")
    write_output(cfg, header, rows, {"rate": _records(header, rows)})
    return 0


def cmd_trajectory(cfg):
    """Columns t, D, sigma for one initial pair."""
    pair = resolve_pair(cfg)
    times = time_grid(cfg)
    traj = trajectory(build_flow(cfg, times), pair, times)
    header = [TIME_COLUMN[cfg.model], "trace_distance", "sigma"]
    rows = list(zip(traj.times.tolist(), traj.d_values.tolist(), traj.sigma_values.tolist()))
    write_output(cfg, header, rows, {"trajectory": _records(header, rows)})
    return 0


def _pair_report(pair):
    if pair.rho1.dim == 2:
        return {
            "label": pair.label,
            "rho1_bloch": list(bloch_from_qubit(pair.rho1)),
            "rho2_bloch": list(bloch_from_qubit(pair.rho2)),
        }
    return {"label": pair.label, "dim": pair.rho1.dim}


def cmd_measure(cfg):
    """Structured report: truncated measure value, intervals, best pair."""
    times = time_grid(cfg)
    values = cfg.values
    search = search_pairs(
        build_flow(cfg, times), values["n_pairs"], times,
        threshold=values.get("sigma_threshold"), seed=values["seed"],
    )
    result = search.best
    header = ["a", "b", "contribution"]
    rows = [[iv.a, iv.b, iv.contribution] for iv in result.intervals]
    payload = {
        "n_value": result.n_value,
        "horizon": result.horizon,
        "intervals": _records(header, rows),
        "best_pair": _pair_report(result.best_pair),
        "samples_evaluated": result.samples_evaluated,
        "seed": result.seed,
        "diverging": result.diverging,
        "model": cfg.model,
        "n_canonical_pair": search.n_canonical,
        "n_sampled_max": search.n_sampled_max,
        "failures": search.failures,
    }
    write_output(cfg, header, [*rows, ["n_value", result.n_value, ""]], payload)
    return 0


def cmd_sweep(cfg):
    """Columns delta, N_sampled_max, N_canonical_pair across a detuning grid."""
    if cfg.model != "jc":
        raise ConfigError("sweep is defined for the jc model only")
    values = cfg.values
    times = time_grid(cfg)
    family = lambda delta: build_flow(
        replace(cfg, values={**values, "delta_over_lambda": delta}), times
    )
    records = sweep(family, _delta_range(cfg), times, values["n_pairs"],
                    values.get("sigma_threshold"), values["seed"])
    header = ["delta_over_lambda", "n_sampled_max", "n_canonical_pair", "n_value",
              "best_pair", "error"]
    rows = [[rec.parameter, rec.n_sampled_max, rec.n_canonical, rec.n_value,
             rec.best_pair_label or "", rec.error or ""] for rec in records]
    write_output(cfg, header, rows, {"sweep": _records(header, rows)})
    if all(rec.error for rec in records):
        raise NumericalError("every sweep point failed; first: " + records[0].error)
    return 0


def cmd_divisibility(cfg):
    """Per-interval CP verdicts with least Choi eigenvalues."""
    gen = build_generator(cfg)
    grid = np.linspace(0.0, cfg.horizon, cfg.values["grid_points"] + 1)
    report = divisibility_report(gen, grid, tol=cfg.values["cp_tol"], h=cfg.step)
    header = ["t_start", "t_end", "is_cp", "least_choi_eigenvalue"]
    rows = [[v.t_start, v.t_end, v.is_cp, v.least_choi_eigenvalue] for v in report.intervals]
    payload = {"divisible": report.divisible, "intervals": _records(header, rows)}
    write_output(cfg, header, rows, payload)
    return 0


COMMANDS = {
    "rate": cmd_rate,
    "trajectory": cmd_trajectory,
    "measure": cmd_measure,
    "sweep": cmd_sweep,
    "divisibility": cmd_divisibility,
}


def build_parser():
    """Flags take their values as strings: resolve_config parses them."""
    parser = argparse.ArgumentParser(
        prog="nmflow",
        description="Open-system dynamics and the trace-distance non-Markovianity measure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        # Not a key: the file of key = value lines.
        p.add_argument("--config", help="flat key=value config file")
        for flag, keys in FLAGS.items():
            kind = keys[0].kind
            help = "; ".join(f"{key.help} [{key.name}]" for key in keys)
            if kind is bool:
                p.add_argument(flag, action="store_const", const="true", help=help)
            else:
                choices = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None
                p.add_argument(flag, metavar=choices, help=help)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args, args.command)
        return COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"nmflow: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"nmflow: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
