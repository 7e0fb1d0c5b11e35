"""Command-line front end: rate, trajectory, measure, sweep, divisibility.

Configuration is a flat key=value text file with units carried in the key
names (horizon_over_lambda, step_times_a, ...); unknown keys are errors.
Command-line flags mirror the config fields, take the model's reduced time
unit (1/lambda, 1/A, 1/gamma0), and win over the file. All commands are
deterministic given the config, including seeds; outputs are CSV (17
significant digits) or JSON with a schema_version field, and a flow field
("exact" or "rk4") where a command evolves states.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
import argparse
import itertools
import json
import math
import os
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import models
from .dynamics import constant_generator, divisibility_report, flow_blocks
from .exceptions import ConfigError, NumericalError
from .measure import canonical_pairs, make_time_grid, search_pairs, sweep, trajectory, whole_steps
from .states import StatePair, bloch_from_qubit, load_state, qubit_from_bloch

SCHEMA_VERSION = 4
OUTPUT_DIR_ENV = "NMFLOW_OUTPUT_DIR"

MODELS = ("jc", "spinbath", "semigroup", "custom-file")
ALL_COMMANDS = frozenset({"rate", "trajectory", "measure", "sweep", "divisibility"})
SEARCH = ("measure", "sweep")


# The value rules of the key table's rule column: the range a number must lie in.
RULES = {
    "positive": lambda x: x > 0,
    "at least 1": lambda x: x >= 1,
    "in [0, 2^64)": lambda x: 0 <= x < 2**64,
}
BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class Key(NamedTuple):
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
# parser all come from here. --horizon and --step set the chosen model's time
# keys, and the commands of its --horizon row are the commands the model runs.
KEYS = (
    *_keys(MODELS, ALL_COMMANDS,
           ("model", MODELS, "jc", "--model", "physical model"),
           ("output", str, None, "--output", "output file path"),
           ("format", ("csv", "json"), "csv", "--format", "output format")),
    *_keys(MODELS, SEARCH,
           ("seed", int, "0", "--seed", "pair-sampling seed", "in [0, 2^64)"),
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
    *_keys(MODELS, {"divisibility"},
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


class RunConfig(NamedTuple):
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
    """The RunConfig of a command that the model runs (see KEYS) from the config
    file and the flags (which win), every value parsed by its key once."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    model_key = KEY_TABLE["model"]
    model = model_key.parse(args.model or file_cfg.get("model") or model_key.default)
    if command not in _flag_key("--horizon", model).commands:
        raise ConfigError(f"command {command!r} is not defined for model {model!r}")
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
    low, high = values["delta_over_lambda_min"], values["delta_over_lambda_max"]
    if values["delta_points"] == 1 and "delta_over_lambda_max" in given and high != low:
        raise ConfigError(f"delta_points is 1: delta_over_lambda_max {high} would be ignored; "
                          f"give it equal to delta_over_lambda_min ({low}) or leave it out")
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir:
        values["output"] = os.path.join(out_dir, os.path.basename(values["output"]))
    return RunConfig(values, frozenset(given))


def load_custom_generator(path):
    """Constant generator from a JSON file.

    Schema: {"dim": d, "hamiltonian": {"re": [[..]], "im": [[..]]},
    "channels": [{"operator": {"re": .., "im": ..}, "rate": r}, ...]}, every
    matrix entry and rate a JSON number.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read generator file {path}: {exc}")

    def number(x, what):
        # float() and NumPy would also take a string, a bool or null.
        if type(x) not in (int, float):
            raise ConfigError(f"{path}: {what} must be a number, got {json.dumps(x)}")
        return x

    def matrix(node, what):
        try:
            parts = node["re"], node["im"]
            entries = [x for part in parts for row in part for x in row]
        except (KeyError, TypeError):
            raise ConfigError(f"{path}: malformed {what} matrix")
        for x in entries:
            number(x, f"{what} matrix entry")
        try:
            real, imag = (np.asarray(part, dtype=float) for part in parts)
        except ValueError:
            raise ConfigError(f"{path}: malformed {what} matrix")
        if real.shape != imag.shape:
            raise ConfigError(f"{path}: {what} matrix has re of shape {real.shape}, "
                              f"im {imag.shape}")
        return real + 1j * imag

    try:
        ham = matrix(data["hamiltonian"], "hamiltonian")
        channels = [
            (matrix(ch["operator"], "channel operator"), number(ch["rate"], "channel rate"))
            for ch in data["channels"]
        ]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: missing field {exc}")
    gen = constant_generator(ham, channels)
    dim = data.get("dim", gen.dim)
    if type(dim) is not int:  # a JSON integer: not a float, a string or a bool
        raise ConfigError(f"{path}: dim must be an integer, got {json.dumps(dim)}")
    if dim != gen.dim:
        raise ConfigError(f"{path}: declared dim {dim} != matrix dim {gen.dim}")
    return gen


def _jc_params(cfg):
    values = cfg.values
    return models.JCParams(gamma0=values["gamma0_over_lambda"], lam=1.0,
                           delta=values["delta_over_lambda"])


def build_generator(cfg):
    """The generator of a clamped jc or custom-file run, for RK4: the flows
    and two-time maps of the other models are exact (see flow_method)."""
    values = cfg.values
    if cfg.model == "jc":
        return models.jc_generator(_jc_params(cfg), nonnegative_rate=values["clamp_rate"])
    if "generator_file" not in values:
        raise ConfigError("model custom-file needs key generator_file")
    return load_custom_generator(values["generator_file"])


def time_grid(cfg):
    """The time grid of a run (see make_time_grid); a horizon off the grid
    is a configuration error."""
    try:
        return make_time_grid(cfg.horizon, cfg.step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def flow_method(cfg):
    """How build_flow gets the flow, and cmd_divisibility its two-time maps:
    "exact" for the closed forms of the spin bath, the semigroup and the
    unclamped jc model, "rk4" for the clamped jc model and custom-file, whose
    maps are integrated."""
    rk4 = cfg.model == "custom-file" or (cfg.model == "jc" and cfg.values["clamp_rate"])
    return "rk4" if rk4 else "exact"


def build_flow(cfg, times):
    """Flow Phi(t_k, 0) of the model on times, a block stream that the
    command reads once: the exact phase-covariant map of the spin bath, the
    semigroup and the unclamped jc model, otherwise RK4 integration of the
    generator (dynamics.flow_blocks)."""
    if flow_method(cfg) == "rk4":
        return flow_blocks(build_generator(cfg), times)
    if cfg.model == "spinbath":
        params = models.SpinBathParams(coupling_a=1.0, n_spins=cfg.values["n_spins"])
        return models.spinbath_flow(params, times)
    if cfg.model == "semigroup":
        return models.semigroup_flow(1.0, times)
    return models.jc_flow(_jc_params(cfg), times)


def resolve_pair(cfg, dim):
    """Initial pair from a canonical name (the pair of dimension dim), Bloch
    vectors, or state files."""
    spec = cfg.values.get("pair_bloch")
    if spec:
        halves = [half.split(",") for half in spec.split(";")]
        if len(halves) != 2 or any(len(comps) != 3 for comps in halves):
            raise ConfigError(f"pair_bloch needs 'x,y,z;x,y,z', got {spec!r}")
        try:
            rho1, rho2 = (qubit_from_bloch(*map(float, comps)) for comps in halves)
        except ValueError as exc:
            raise ConfigError(f"pair_bloch: {exc}")
        return StatePair(rho1, rho2, label="bloch")
    if cfg.values.get("pair_files"):
        paths = cfg.values["pair_files"].split(";")
        if len(paths) != 2:
            raise ConfigError("pair_files needs two ';'-separated paths")
        try:
            rho1, rho2 = (load_state(p.strip()) for p in paths)
        except ValueError as exc:
            raise ConfigError(str(exc))
        except OSError as exc:
            raise ConfigError(f"cannot read state file {exc.filename}: {exc}")
        return StatePair(rho1, rho2, label="files")
    label = "canonical-" + cfg.values["pair"]
    return next(pair for pair in canonical_pairs(dim) if pair.label == label)


# The output layer: each table formatted a column at a time, each file
# written in one write, to the bytes of csv.writer (minimal quoting, \r\n)
# and of json.dump(indent=2, allow_nan=False).


class Records(NamedTuple):
    """A payload value that write_json writes as one object per row, keyed
    by the header."""

    header: list
    rows: list


def _csv_text(x):
    """One CSV field: "%.17g" for a float, true/false, else str, quoted
    where csv.writer quotes it (a comma, a quote or a line end in it)."""
    text = ("true" if x else "false") if type(x) is bool else (
        "%.17g" % x if isinstance(x, float) else str(x))
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_csv(path, header, rows):
    """header, then rows of two or more fields, one format per row: a
    "%.17g" slot per column of floats, the _csv_text of any other column."""
    text = ",".join(map(_csv_text, header)) + "\r\n"
    if rows:
        specs, columns = zip(*(("%.17g", cells) if set(map(type, cells)) == {float}
                               else ("%s", list(map(_csv_text, cells)))
                               for cells in zip(*rows, strict=True)))
        text += "".join(map((",".join(specs) + "\r\n").__mod__, zip(*columns)))
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_floats(values):
    """The float repr of each value, as json.dump writes it, NaN as null."""
    texts = list(map(float.__repr__, values))
    return ["null" if s == "nan" else s for s in texts] if "nan" in texts else texts


def _json_text(x):
    """json.dump's text of one record value, NaN as null."""
    if type(x) is bool:
        return "true" if x else "false"
    return _json_floats([x])[0] if isinstance(x, float) else json.dumps(x)


def _json_records(header, rows):
    """The records as json.dump(indent=2) writes a payload value: one
    template per record, filled from the formatted columns."""
    if not rows:
        return "[]"
    columns = [_json_floats(cells) if set(map(type, cells)) == {float}
               else list(map(_json_text, cells)) for cells in zip(*rows, strict=True)]
    if any("inf" in texts or "-inf" in texts for texts in columns):
        # The first infinity in record order raises json.dump's own error;
        # indent selects its encoder, and so its message.
        json.dumps(next(x for row in rows for x in row if isinstance(x, float) and math.isinf(x)),
                   indent=2, allow_nan=False)
    fields = ",\n".join("      " + json.dumps(name).replace("%", "%%") + ": %s"
                        for name in header)
    record = "    {\n" + fields + "\n    }"
    return "[\n" + ",\n".join(map(record.__mod__, zip(*columns))) + "\n  ]"


def write_json(path, payload):
    """schema_version, then the payload, as json.dump(indent=2,
    allow_nan=False) writes it: Records by _json_records, every other value
    by json.dumps, so that a NaN or infinity outside the records raises
    ValueError. The file is opened only once every value is formatted, so a
    refused value leaves no file."""
    items = (f"  {json.dumps(key)}: " + (
        _json_records(*value) if isinstance(value, Records)
        else json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  "))
        for key, value in {"schema_version": SCHEMA_VERSION, **payload}.items())
    text = "{\n" + ",\n".join(items) + "\n}\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_output(cfg, header, rows, payload):
    """The one writer of every command: the rows under header as CSV, or the
    payload as JSON, in the configured format (an unwritable path is a ConfigError)."""
    path = cfg.values["output"]
    try:
        if cfg.values["format"] == "csv":
            write_csv(path, header, rows)
        else:
            write_json(path, payload)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}")


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
    else:  # semigroup, the last model that runs rate
        header = [time_col, "gamma_over_gamma0", "flag"]
        rows = [[t, 1.0, ""] for t in times.tolist()]
    write_output(cfg, header, rows, {"rate": Records(header, rows)})
    return 0


def cmd_trajectory(cfg):
    """Columns t, D, sigma for one initial pair."""
    times = time_grid(cfg)
    # A canonical pair takes the dimension of the flow's first block.
    k0, first = next(flow := build_flow(cfg, times))
    pair = resolve_pair(cfg, math.isqrt(first.shape[-1]))
    traj = trajectory(itertools.chain([(k0, first)], flow), pair, times)
    header = [TIME_COLUMN[cfg.model], "trace_distance", "sigma"]
    rows = list(zip(traj.times.tolist(), traj.d_values.tolist(), traj.sigma_values.tolist()))
    write_output(cfg, header, rows,
                 {"flow": flow_method(cfg), "trajectory": Records(header, rows)})
    return 0


def _pair_report(pair):
    if pair.rho1.dim != 2:
        return {"label": pair.label, "dim": pair.rho1.dim}
    return {"label": pair.label, "rho1_bloch": list(bloch_from_qubit(pair.rho1)),
            "rho2_bloch": list(bloch_from_qubit(pair.rho2))}


def cmd_measure(cfg):
    """Structured report: truncated measure value, intervals, best pair."""
    times = time_grid(cfg)
    values = cfg.values
    search = search_pairs(build_flow(cfg, times), values["n_pairs"], times, values["seed"])
    result = search.best
    header = ["a", "b", "contribution"]
    rows = [[iv.a, iv.b, iv.contribution] for iv in result.intervals]
    payload = {
        "flow": flow_method(cfg),
        "n_value": result.n_value,
        "horizon": result.horizon,
        "intervals": Records(header, rows),
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
    """Columns delta, N_sampled_max, N_canonical_pair (the canonical z pair's
    value), N and the best pair across a detuning grid."""
    values = cfg.values
    times = time_grid(cfg)
    family = lambda delta: build_flow(
        cfg._replace(values={**values, "delta_over_lambda": delta}), times
    )
    records = sweep(family, _delta_range(cfg), times, values["n_pairs"], values["seed"])
    header = ["delta_over_lambda", "n_sampled_max", "n_canonical_pair", "n_value",
              "best_pair", "error"]
    rows = [[rec.parameter, rec.n_sampled_max, rec.n_canonical, rec.n_value,
             rec.best_pair_label or "", rec.error or ""] for rec in records]
    write_output(cfg, header, rows, {"flow": flow_method(cfg), "sweep": Records(header, rows)})
    if all(rec.error for rec in records):
        raise NumericalError("every sweep point failed; first: " + records[0].error)
    return 0


def divisibility_grid(cfg):
    """The grid_points intervals of [0, horizon]. Each must be a whole number
    of steps (see make_time_grid), so that the interval ends lie on the grid
    of rate, trajectory and measure at that step; otherwise the run is a
    configuration error."""
    span = cfg.horizon / cfg.values["grid_points"]
    if not whole_steps(span, cfg.step):
        raise ConfigError(f"interval length {span:g} (horizon over grid_points) is not a "
                          f"whole number of steps {cfg.step:g}")
    return np.linspace(0.0, cfg.horizon, cfg.values["grid_points"] + 1)


def cmd_divisibility(cfg):
    """Per-interval CP verdicts with least Choi eigenvalues; each interval,
    horizon/grid_points, must be a whole number of steps."""
    grid = divisibility_grid(cfg)
    tol = cfg.values["cp_tol"]
    if flow_method(cfg) == "rk4":
        report = divisibility_report(build_generator(cfg), grid, tol=tol, h=cfg.step)
    elif cfg.model == "semigroup":
        report = models.semigroup_divisibility(1.0, grid, tol)
    else:
        report = models.jc_divisibility(_jc_params(cfg), grid, tol)
    header = ["t_start", "t_end", "is_cp", "least_choi_eigenvalue"]
    rows = report.intervals  # IntervalVerdict tuples, in header order
    payload = {"flow": flow_method(cfg), "divisible": report.divisible,
               "intervals": Records(header, rows)}
    write_output(cfg, header, rows, payload)
    return 0


COMMANDS = {"rate": cmd_rate, "trajectory": cmd_trajectory, "measure": cmd_measure,
            "sweep": cmd_sweep, "divisibility": cmd_divisibility}


def build_parser():
    """Flags take their values as strings: resolve_config parses them. Every
    command has every flag, declared once on a parent parser that the
    commands' parsers share."""
    flags = argparse.ArgumentParser(add_help=False)
    # Not a key: the file of key = value lines.
    flags.add_argument("--config", help="flat key=value config file")
    for flag, keys in FLAGS.items():
        kind = keys[0].kind
        help = "; ".join(f"{key.help} [{key.name}]" for key in keys)
        if kind is bool:
            flags.add_argument(flag, action="store_const", const="true", help=help)
        else:
            choices = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None
            flags.add_argument(flag, metavar=choices, help=help)
    parser = argparse.ArgumentParser(
        prog="nmflow",
        description="Open-system dynamics and the trace-distance non-Markovianity measure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        sub.add_parser(name, help=fn.__doc__, description=fn.__doc__, parents=[flags])
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
