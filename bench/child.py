"""Child processes that bench/run.py launches.

    python3 bench/child.py setup <nmflow arguments...>
        Import nmflow.cli, resolve the configuration and build the generator
        for the arguments, then exit: the set-up a user pays before any
        numerical work starts.

    python3 bench/child.py reference <grid_points> <steps> <passes> <rotations>
        Run a fixed amount of NumPy work shaped like an nmflow command but
        without nmflow: small-matrix products in a Python loop stored on a
        grid, vectorised passes over that grid, and Jacobi-like rotations.
        run.py times it between commands as a gauge of the machine's speed
        at that moment; each workload sets the shape.

    python3 bench/child.py trace <spans.json> <nmflow arguments...>
        Run the nmflow CLI with every public function of every nmflow module
        wrapped in a timing span, both where it is defined and wherever
        another nmflow module imported it by name (or holds it in a
        module-level table such as cli.COMMANDS). Spans are kept in memory as
        [name, start_ns, end_ns, parent_index, attrs] and written as JSON when
        the command returns. The library source is not modified.

Both expect nmflow on PYTHONPATH; run.py points it at the checkout's src/.
"""
import functools
import inspect
import json
import math
import os
import sys
import time

LAYERS = ("states", "linalg", "dynamics", "models", "measure", "cli")


def _matrix_side(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return {"side": len(m)}


def _grid_flow(args, kwargs, result):
    t_grid = args[1] if len(args) > 1 else kwargs["t_grid"]
    return {"rk4_steps": len(t_grid) - 1, "flow_bytes": int(result.nbytes)}


def _between_steps(args, kwargs, result):
    # Steps of the fixed-step scheme, as dynamics.propagator_between takes them.
    _, t1, t2, h = args[:4]
    steps = max(1, math.ceil((t2 - t1) / h - 1e-12)) if t2 > t1 else 0
    return {"rk4_steps": steps}


def _pairs(args, kwargs, result):
    n_pairs = args[1] if len(args) > 1 else kwargs["n_pairs"]
    attempted = 2 + int(n_pairs)  # the two canonical pairs, then the samples
    failed = attempted if result is None else len(result.failures)
    return {"attempted": attempted, "failed": failed}


def _count(args, kwargs, result):
    return {"n": 0 if result is None else len(result)}


def _output_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Counts recorded at the layer boundary, from the call's arguments and result.
# A probe sees result None when the call raised.
PROBES = {
    "linalg.hermitian_eigenvalues": _matrix_side,
    "linalg.hermitian_eigensystem": _matrix_side,
    "dynamics.propagator_grid": _grid_flow,
    "dynamics.propagator_between": _between_steps,
    "measure.search_pairs": _pairs,
    "measure.growth_intervals": _count,
    "cli.write_csv": _output_size,
    "cli.write_json": _output_size,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if probe is not None:
                    span[4] = probe(args, kwargs, result)

        return traced

    def install(self):
        """Wrap the public functions of every nmflow layer module."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("nmflow")]
        for layer in LAYERS:
            module = sys.modules["nmflow." + layer]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is fn:
                                    value[k] = traced


def setup(argv):
    from nmflow import cli

    args = cli.build_parser().parse_args(argv)
    cfg = cli.resolve_config(args, args.command)
    cli.build_generator(cfg)
    return 0


def reference(grid_points, steps, passes, rotations):
    """A fixed amount of work shaped like an nmflow command, without nmflow.

    steps: 4x4 complex matrix products in a Python loop, stored on a grid of
    grid_points (like dynamics.propagator_grid); passes: matrix-vector
    products over that grid and the vectorised distance and growth sums of
    measure.trajectory; rotations: the small-array updates of one Jacobi
    rotation in linalg.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    step = np.eye(4, dtype=complex) + 1e-3 * a
    flow = np.empty((grid_points, 4, 4), dtype=complex)
    s = flow[0] = np.eye(4, dtype=complex)
    for k in range(steps):
        s = step @ (0.5 * (s + step @ s))
        flow[1 + k % (grid_points - 1)] = s
    acc = 0.0
    for _ in range(passes):
        v = (flow @ a[0]).reshape(grid_points, 4)
        p, q, r = v[:, 0].real, v[:, 2], v[:, 3].real
        dist = np.maximum(np.abs(0.5 * (p + r)), np.sqrt((0.5 * (p - r)) ** 2 + np.abs(q) ** 2))
        acc += float(np.sum(np.maximum(np.diff(dist), 0.0)))
    for _ in range(rotations):
        m = a.copy()
        col = m[:, 1].copy()
        m[:, 1] = 0.6 * col - 0.8 * m[:, 2]
        m[:, 2] = 0.8 * col + 0.6 * m[:, 2]
        acc += abs(m[1, 2]) + float(np.hypot(1.0, m[0, 0].real))
    return 0 if math.isfinite(acc) else 1


def trace(spans_path, argv):
    import nmflow.cli

    tracer = Tracer()
    tracer.install()
    try:
        status = nmflow.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return status


def main(argv):
    if len(argv) == 5 and argv[0] == "reference":
        return reference(*map(int, argv[1:]))
    if len(argv) >= 1 and argv[0] == "setup":
        return setup(argv[1:])
    if len(argv) >= 2 and argv[0] == "trace":
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
