"""In-memory span tracer for traced benchmark passes.

The tracer replaces public functions of the reachverify modules at the
names their callers look them up by (``reachverify.cli.solve_frt``,
``reachverify.trainer.fit_mlp``, ...), so every call between layers opens a
span.  A span is ``[name, start, end, parent, counts]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``counts`` holds the work a
call did, read from its arguments or result.  Spans stay in a list until
the pass ends; ``layer_metrics`` derives self times and per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

LAYERS = ("cli", "nn", "trainer", "dynamics", "solver", "verification",
          "geometry", "scene", "oracle")


def _rows(i):
    return lambda args, kwargs, result: {"rows": len(args[i])}


def _adam_steps(args, kwargs, result):
    # fit_mlp(X, Y, config, ...): one Adam step per mini-batch per epoch.
    n, config = len(args[0]), args[2]
    return {"steps": config.epochs * math.ceil(n / min(config.batch_size, n))}


def _mpc_rows(args, kwargs, result):
    # mpc_actions(model, reward, states, horizon, candidates, ...)
    return {"rows": len(args[2]) * args[3] * args[4]}


def _tube(args, kwargs, result):
    nodes = result.grid.num_nodes
    return {"steps": result.steps_taken, "node_updates": result.steps_taken * nodes,
            "snapshots": len(result.snapshots),
            "snapshot_bytes": len(result.snapshots) * nodes * 8}


def _field_rows(args, kwargs, result):
    return {"rows": args[0].values.size}


def _mask_rows(args, kwargs, result):
    return {"rows": args[1].size}


def _read_rows(args, kwargs, result):
    return {"rows": args[1].num_nodes}


# (module, attribute, span name, counter)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "train_loop", "trainer.train_loop", None),
    ("trainer", "collect_random_data", "trainer.collect", None),
    ("trainer", "distill_policy", "trainer.distill", None),
    ("trainer", "mpc_actions", "trainer.mpc_actions", _mpc_rows),
    ("trainer", "train_dynamics_model", "nn.train_dynamics_model", None),
    ("trainer", "fit_mlp", "nn.fit_mlp", _adam_steps),
    ("nn", "fit_mlp", "nn.fit_mlp", _adam_steps),
    ("nn", "forward_batch", "nn.forward_batch", _rows(1)),
    ("trainer", "forward_batch", "nn.forward_batch", _rows(1)),
    ("dynamics", "forward_batch", "nn.forward_batch", _rows(1)),
    ("error_bounds", "forward_batch", "nn.forward_batch", _rows(1)),
    ("solver", "nominal_rate_batch", "dynamics.rate_scan", _rows(1)),
    ("oracle", "nominal_rate_batch", "dynamics.nominal_rate_batch", _rows(1)),
    ("cli", "solve_frt", "solver.frt", _tube),
    ("cli", "solve_brt", "solver.brt", _tube),
    ("solver", "level_set_from_shapes", "geometry.level_set", None),
    ("verification", "level_set_from_shapes", "geometry.level_set", None),
    ("cli", "interpolate_many", "geometry.interpolate", _rows(1)),
    ("cli", "classify_policy", "verification.classify", None),
    ("cli", "build_report", "verification.report", None),
    ("cli", "union_brt_field", "verification.union", None),
    ("verification", "unsafe_initial_states", "verification.unsafe_initial_states", None),
    ("cli", "export_tube", "scene.export_tube", None),
    ("cli", "field_to_csv", "scene.csv_write", _field_rows),
    ("scene", "field_to_csv", "scene.csv_write", _field_rows),
    ("cli", "mask_to_csv", "scene.csv_write", _mask_rows),
    ("cli", "load_tube_manifest", "scene.load_tube", None),
    ("scene", "field_from_csv", "scene.csv_read", _read_rows),
    ("cli", "save_scene", "scene.save_scene", None),
    ("cli", "load_scene", "scene.load_scene", None),
    ("cli", "mc_ground_truth", "oracle.mc", None),
)


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(f"reachverify.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    own = self_times(spans)
    total: dict = {}
    calls: dict = {}
    counts: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _, c), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".")[0]] += s
        for key, v in (c or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + v

    def t(name):
        return total.get(name, 0.0)

    def n(key):
        return counts.get(key, 0)

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    solver_steps = n("solver.frt.steps") + n("solver.brt.steps")
    solver_updates = n("solver.frt.node_updates") + n("solver.brt.node_updates")
    rollout_steps = n("dynamics.nominal_rate_batch.rows") // 4  # four RK4 stages
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "nn.fit_mlp_s": t("nn.fit_mlp"),
        "nn.adam_steps": n("nn.fit_mlp.steps"),
        "nn.adam_steps_per_s": rate(n("nn.fit_mlp.steps"), t("nn.fit_mlp")),
        "nn.forward_batch_s": t("nn.forward_batch"),
        "nn.forward_rows_per_s": rate(n("nn.forward_batch.rows"), t("nn.forward_batch")),
        "trainer.train_loop_s": t("trainer.train_loop"),
        "trainer.mpc_actions_s": t("trainer.mpc_actions"),
        "trainer.mpc_rows_per_s": rate(n("trainer.mpc_actions.rows"), t("trainer.mpc_actions")),
        "trainer.collect_s": t("trainer.collect"),
        "dynamics.rate_scans": calls.get("dynamics.rate_scan", 0),
        "dynamics.rate_scan_s": t("dynamics.rate_scan"),
        "solver.frt_s": t("solver.frt"),
        "solver.brt_s": t("solver.brt"),
        "solver.steps": solver_steps,
        "solver.step_ms": 1000.0 * layer_self["solver"] / solver_steps if solver_steps else 0.0,
        "solver.node_updates_per_s": rate(solver_updates, layer_self["solver"]),
        "solver.snapshots": n("solver.frt.snapshots") + n("solver.brt.snapshots"),
        "solver.snapshot_mb": (n("solver.frt.snapshot_bytes")
                               + n("solver.brt.snapshot_bytes")) / 1e6,
        "verification.classify_s": t("verification.classify"),
        "verification.report_s": t("verification.report"),
        "geometry.level_set_s": t("geometry.level_set"),
        "geometry.interpolate_s": t("geometry.interpolate"),
        "scene.export_tube_s": t("scene.export_tube"),
        "scene.csv_write_s": t("scene.csv_write"),
        "scene.csv_rows_written": n("scene.csv_write.rows"),
        "scene.csv_rows_written_per_s": rate(n("scene.csv_write.rows"), t("scene.csv_write")),
        "scene.load_tube_s": t("scene.load_tube"),
        "scene.csv_rows_read_per_s": rate(n("scene.csv_read.rows"), t("scene.csv_read")),
        "oracle.mc_s": t("oracle.mc"),
        "oracle.rollout_steps": rollout_steps,
        "oracle.rollout_steps_per_s": rate(rollout_steps, t("oracle.mc")),
        "trace.spans": len(spans),
    })
    return m
