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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import models
from .dynamics import constant_generator, divisibility_report, propagator_grid
from .exceptions import ConfigError, NumericalError
from .measure import canonical_pairs, make_time_grid, search_pairs, sweep, trajectory
from .states import StatePair, bloch_from_qubit, load_state, qubit_from_bloch

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "NMFLOW_OUTPUT_DIR"

MODELS = ("jc", "spinbath", "semigroup", "custom-file")
# Models with a master-equation generator: divisibility integrates its
# two-time maps.
EVOLVED = ("jc", "semigroup", "custom-file")
ALL_COMMANDS = frozenset({"rate", "trajectory", "measure", "sweep", "divisibility"})
SEARCH = ("measure", "sweep")


@dataclass(frozen=True)
class Key:
    """One configuration key and its command-line flag.

    kind is float, int or str for a typed value, bool for a switch flag
    that sets "true", or a tuple of allowed strings. A key applies, and may
    be given, only where a command in commands reads it for a model in
    models; default None means the key is unset unless given.
    """

    name: str
    kind: object
    default: Optional[str]
    flag: str
    models: frozenset
    commands: frozenset
    help: str

    @property
    def dest(self):
        return self.flag[2:].replace("-", "_")


def _keys(models, commands, *rows):
    return [Key(name, kind, default, flag, frozenset(models), frozenset(commands), help)
            for name, kind, default, flag, help in rows]


# The one list of keys: defaults, flags, allowed keys and the parser all
# come from here. --horizon and --step set the time keys of the chosen model.
KEYS = (
    *_keys(MODELS, ALL_COMMANDS,
           ("model", MODELS, "jc", "--model", "physical model"),
           ("output", str, None, "--output", "output file path"),
           ("format", ("csv", "json"), "csv", "--format", "output format")),
    *_keys(MODELS, SEARCH,
           ("seed", int, "0", "--seed", "pair-sampling seed"),
           ("sigma_threshold", float, None, "--sigma-threshold",
            "growth threshold on sigma (default: relative to its peak)"),
           ("n_pairs", int, "1000", "--n-pairs", "sampled initial pairs")),
    *_keys({"jc"}, ALL_COMMANDS,
           ("horizon_over_lambda", float, "60", "--horizon", "jc: horizon in units of 1/lambda"),
           ("step_over_lambda", float, "1e-3", "--step", "jc: step in units of 1/lambda"),
           ("gamma0_over_lambda", float, "0.01", "--gamma0", "jc coupling in units of lambda")),
    *_keys({"jc"}, ALL_COMMANDS - {"sweep"},
           ("delta_over_lambda", float, "0", "--delta", "jc detuning in units of lambda")),
    *_keys({"jc"}, {"rate", "sweep"},
           ("delta_over_lambda_min", float, "0", "--delta-min", "first detuning of a range"),
           ("delta_over_lambda_max", float, "10", "--delta-max", "last detuning of a range"),
           ("delta_points", int, "11", "--delta-points", "detunings in the range")),
    *_keys({"jc"}, ALL_COMMANDS - {"rate"},
           ("clamp_rate", bool, "false", "--clamp-rate", "clamp the jc rate at zero")),
    *_keys({"spinbath"}, {"rate", "trajectory", "measure"},
           ("horizon_times_a", float, "4.9", "--horizon", "spinbath: horizon in units of 1/A"),
           ("step_times_a", float, "5e-4", "--step", "spinbath: step in units of 1/A"),
           ("n_spins", int, "20", "--n-spins", "bath spins")),
    *_keys({"semigroup"}, ALL_COMMANDS - {"sweep"},
           ("horizon_times_gamma0", float, "5", "--horizon",
            "semigroup: horizon in units of 1/gamma0"),
           ("step_times_gamma0", float, "1e-3", "--step", "semigroup: step in units of 1/gamma0")),
    *_keys({"custom-file"}, {"trajectory", "measure", "divisibility"},
           ("horizon", float, "1", "--horizon", "custom-file: horizon"),
           ("step", float, "1e-3", "--step", "custom-file: step"),
           ("generator_file", str, None, "--generator-file", "constant generator as JSON")),
    *_keys(MODELS, {"trajectory"},
           ("pair", ("z", "x"), "z", "--pair", "canonical initial pair"),
           ("pair_bloch", str, None, "--pair-bloch", "'x,y,z;x,y,z'"),
           ("pair_files", str, None, "--pair-files", "'file1;file2'")),
    *_keys(EVOLVED, {"divisibility"},
           ("grid_points", int, "20", "--grid-points", "intervals of the divisibility grid"),
           ("cp_tol", float, "1e-7", "--cp-tol", "tolerance on the least Choi eigenvalue")),
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


@dataclass
class RunConfig:
    """Resolved configuration for one command."""

    model: str
    horizon: float
    step: float
    n_pairs: int
    seed: int
    output: str
    format: str
    threshold: Optional[float] = None
    raw: dict = field(default_factory=dict)
    provided: set = field(default_factory=set)

    def get(self, key):
        return self.raw[key]

    def get_float(self, key):
        return _to_float(key, self.raw[key])

    def get_int(self, key):
        return _to_int(key, self.raw[key])

    def get_bool(self, key):
        value = self.raw[key].lower()
        if value in ("true", "1", "yes"):
            return True
        if value in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key}: expected a boolean, got {self.raw[key]!r}")


def _to_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key}: expected a number, got {value!r}")


def _to_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key}: expected an integer, got {value!r}")


def _flag_key(flag, model):
    """The key a flag sets for a model: --horizon and --step have one per model."""
    keys = FLAGS[flag]
    return next((key for key in keys if model in key.models), keys[0])


def resolve_config(args, command):
    file_cfg = parse_config_file(args.config) if args.config else {}
    model = args.model or file_cfg.get("model") or KEY_TABLE["model"].default
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {sorted(MODELS)}")
    for key in file_cfg:
        if key not in KEY_TABLE:
            raise ConfigError(f"unknown config key {key!r} for model {model!r}")
    given = dict(file_cfg)
    # Flags win over the config file.
    for flag in FLAGS:
        key = _flag_key(flag, model)
        value = getattr(args, key.dest, None)
        if value is not None:
            given[key.name] = str(value)
    for name in given:
        key = KEY_TABLE[name]
        if model not in key.models or command not in key.commands:
            raise ConfigError(
                f"key {name!r} ({key.flag}) does not apply to model {model!r} "
                f"with command {command!r}"
            )
    raw = {key.name: key.default for key in KEYS if key.default is not None}
    raw.update(given)
    raw["model"] = model
    provided = set(given)
    for groups in ALTERNATIVES:
        if sum(bool(provided.intersection(group)) for group in groups) > 1:
            clash = [name for group in groups for name in group if name in provided]
            raise ConfigError(f"keys {', '.join(map(repr, clash))} give the same input; "
                              "give only one of them")
    horizon_key, step_key = (_flag_key(flag, model).name for flag in ("--horizon", "--step"))

    if "output" not in raw:
        raise ConfigError("no output path given (key 'output' or flag --output)")
    output = raw["output"]
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir:
        output = os.path.join(out_dir, os.path.basename(output))
    fmt = raw["format"]
    if fmt not in KEY_TABLE["format"].kind:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")

    cfg = RunConfig(
        model=model,
        horizon=_to_float(horizon_key, raw[horizon_key]),
        step=_to_float(step_key, raw[step_key]),
        n_pairs=_to_int("n_pairs", raw["n_pairs"]),
        seed=_to_int("seed", raw["seed"]),
        output=output,
        format=fmt,
        threshold=(
            _to_float("sigma_threshold", raw["sigma_threshold"])
            if "sigma_threshold" in raw
            else None
        ),
        raw=raw,
        provided=provided,
    )
    if cfg.horizon <= 0 or cfg.step <= 0:
        raise ConfigError("horizon and step must be positive")
    if cfg.n_pairs < 1:
        raise ConfigError("n_pairs must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.threshold is not None and not cfg.threshold >= 0:
        raise ConfigError("sigma_threshold must be nonnegative")
    return cfg


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
    if cfg.model == "jc":
        params = models.JCParams(
            gamma0=cfg.get_float("gamma0_over_lambda"),
            lam=1.0,
            delta=cfg.get_float("delta_over_lambda"),
        )
        return models.jc_generator(params, nonnegative_rate=cfg.get_bool("clamp_rate"))
    if cfg.model == "semigroup":
        return models.semigroup_generator(1.0)
    if cfg.model == "custom-file":
        if "generator_file" not in cfg.raw:
            raise ConfigError("model custom-file needs key generator_file")
        return load_custom_generator(cfg.get("generator_file"))
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
        params = models.SpinBathParams(coupling_a=1.0, n_spins=cfg.get_int("n_spins"))
        return models.spinbath_flow(params, times)
    return propagator_grid(build_generator(cfg), times)


def resolve_pair(cfg):
    """Initial pair from a canonical name, Bloch vectors, or state files."""
    if cfg.raw.get("pair_bloch"):
        spec = cfg.get("pair_bloch")
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
    if cfg.raw.get("pair_files"):
        paths = cfg.get("pair_files").split(";")
        if len(paths) != 2:
            raise ConfigError("pair_files needs two ';'-separated paths")
        try:
            rho1, rho2 = (load_state(p.strip()) for p in paths)
        except ValueError as exc:
            raise ConfigError(str(exc))
        return StatePair(rho1, rho2, label="files")
    name = cfg.get("pair")
    if name == "z":
        return canonical_pairs(2)[0]
    if name == "x":
        return canonical_pairs(2)[1]
    raise ConfigError(f"unknown pair {name!r}; expected z, x, pair_bloch or pair_files")


def format_number(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
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
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_csv_grid(path):
    """Read back a CSV written by this tool: (header, list of row lists).

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


def write_table(cfg, header, rows, json_key):
    if cfg.format == "csv":
        write_csv(cfg.output, header, rows)
    else:
        records = [dict(zip(header, row)) for row in rows]
        write_json(cfg.output, {json_key: records})


def cmd_rate(cfg):
    """Columns t, gamma(t); with a detuning range, one block of rows per delta."""
    time_col = TIME_COLUMN[cfg.model]
    times = time_grid(cfg)
    if cfg.model == "jc":
        range_keys = {"delta_over_lambda_min", "delta_over_lambda_max", "delta_points"}
        if cfg.provided & range_keys:
            deltas = np.linspace(
                cfg.get_float("delta_over_lambda_min"),
                cfg.get_float("delta_over_lambda_max"),
                cfg.get_int("delta_points"),
            )
        else:
            deltas = [cfg.get_float("delta_over_lambda")]
        gamma0 = cfg.get_float("gamma0_over_lambda")
        rows = []
        for delta in deltas:
            params = models.JCParams(gamma0=gamma0, lam=1.0, delta=float(delta))
            gammas = models.jc_rate(params, times)
            rows.extend(
                [float(delta), float(t), float(g), ""]
                for t, g in zip(times, gammas)
            )
        write_table(
            cfg, ["delta_over_lambda", time_col, "gamma_over_lambda", "flag"], rows, "rate"
        )
        return 0
    if cfg.model == "spinbath":
        params = models.SpinBathParams(coupling_a=1.0, n_spins=cfg.get_int("n_spins"))
        pole = models.spinbath_pole_distance(params, times) <= models.POLE_TOL
        gammas = np.full(times.size, np.nan)
        gammas[~pole] = models.spinbath_rate(params, times[~pole])
        rows = [[float(t), float(g), "pole" if p else ""]
                for t, g, p in zip(times, gammas, pole)]
        write_table(cfg, [time_col, "gamma_over_a", "flag"], rows, "rate")
        return 0
    if cfg.model == "semigroup":
        rows = [[float(t), 1.0, ""] for t in times]
        write_table(cfg, [time_col, "gamma_over_gamma0", "flag"], rows, "rate")
        return 0
    raise ConfigError(f"model {cfg.model!r} does not support an analytic rate")


def cmd_trajectory(cfg):
    """Columns t, D, sigma for one initial pair."""
    pair = resolve_pair(cfg)
    times = time_grid(cfg)
    traj = trajectory(build_flow(cfg, times), pair, times)
    time_col = TIME_COLUMN[cfg.model]
    rows = [
        [float(t), float(d), float(s)]
        for t, d, s in zip(traj.times, traj.d_values, traj.sigma_values)
    ]
    write_table(cfg, [time_col, "trace_distance", "sigma"], rows, "trajectory")
    return 0


def _pair_report(pair):
    if pair.rho1.dim == 2:
        return {
            "label": pair.label,
            "rho1_bloch": list(bloch_from_qubit(pair.rho1)),
            "rho2_bloch": list(bloch_from_qubit(pair.rho2)),
        }
    return {"label": pair.label, "dim": pair.rho1.dim}


def _measure_payload(result, extra):
    payload = {
        "n_value": result.n_value,
        "horizon": result.horizon,
        "intervals": [
            {"a": iv.a, "b": iv.b, "contribution": iv.contribution}
            for iv in result.intervals
        ],
        "best_pair": _pair_report(result.best_pair),
        "samples_evaluated": result.samples_evaluated,
        "seed": result.seed,
        "diverging": result.diverging,
    }
    payload.update(extra)
    return payload


def cmd_measure(cfg):
    """Structured report: truncated measure value, intervals, best pair."""
    times = time_grid(cfg)
    search = search_pairs(
        build_flow(cfg, times), cfg.n_pairs, times, threshold=cfg.threshold, seed=cfg.seed
    )
    payload = _measure_payload(
        search.best,
        {
            "model": cfg.model,
            "n_canonical_pair": search.n_canonical,
            "n_sampled_max": search.n_sampled_max,
            "failures": search.failures,
        },
    )
    if cfg.format == "csv":
        header = ["a", "b", "contribution"]
        rows = [[iv["a"], iv["b"], iv["contribution"]] for iv in payload["intervals"]]
        rows.append(["n_value", payload["n_value"], ""])
        write_csv(cfg.output, header, rows)
    else:
        write_json(cfg.output, payload)
    return 0


def cmd_sweep(cfg):
    """Columns delta, N_sampled_max, N_canonical_pair across a detuning grid."""
    if cfg.model != "jc":
        raise ConfigError("sweep is defined for the jc model only")
    deltas = np.linspace(
        cfg.get_float("delta_over_lambda_min"),
        cfg.get_float("delta_over_lambda_max"),
        cfg.get_int("delta_points"),
    )
    times = time_grid(cfg)
    family = lambda delta: build_flow(
        replace(cfg, raw={**cfg.raw, "delta_over_lambda": repr(float(delta))}), times
    )
    records = sweep(family, deltas, times, cfg.n_pairs, cfg.threshold, cfg.seed)
    rows = [
        [
            rec.parameter,
            rec.n_sampled_max,
            rec.n_canonical,
            rec.n_value,
            rec.best_pair_label or "",
            rec.error or "",
        ]
        for rec in records
    ]
    write_table(
        cfg,
        [
            "delta_over_lambda",
            "n_sampled_max",
            "n_canonical_pair",
            "n_value",
            "best_pair",
            "error",
        ],
        rows,
        "sweep",
    )
    if all(rec.error for rec in records):
        raise NumericalError("every sweep point failed; first: " + records[0].error)
    return 0


def cmd_divisibility(cfg):
    """Per-interval CP verdicts with least Choi eigenvalues."""
    gen = build_generator(cfg)
    n_intervals = cfg.get_int("grid_points")
    if n_intervals < 1:
        raise ConfigError("grid_points must be >= 1")
    grid = np.linspace(0.0, cfg.horizon, n_intervals + 1)
    report = divisibility_report(
        gen, grid, tol=cfg.get_float("cp_tol"), h=cfg.step
    )
    rows = [
        [v.t_start, v.t_end, "true" if v.is_cp else "false", v.least_choi_eigenvalue]
        for v in report.intervals
    ]
    if cfg.format == "csv":
        write_csv(
            cfg.output, ["t_start", "t_end", "is_cp", "least_choi_eigenvalue"], rows
        )
    else:
        write_json(
            cfg.output,
            {
                "divisible": report.divisible,
                "intervals": [
                    {
                        "t_start": v.t_start,
                        "t_end": v.t_end,
                        "is_cp": v.is_cp,
                        "least_choi_eigenvalue": v.least_choi_eigenvalue,
                    }
                    for v in report.intervals
                ],
            },
        )
    return 0


COMMANDS = {
    "rate": cmd_rate,
    "trajectory": cmd_trajectory,
    "measure": cmd_measure,
    "sweep": cmd_sweep,
    "divisibility": cmd_divisibility,
}


def build_parser():
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
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=help)
            else:
                p.add_argument(flag, type=kind, help=help)
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
