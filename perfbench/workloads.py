"""Workload definitions: the scene, the config files and the command
sequence one benchmark pass runs.

A pass runs inside its own output directory, so every path below is
relative to it and the files a pass writes do not depend on where the
directory lives.  The training seed is fixed per workload: it decides the
learned model, hence the tube solves, their step and snapshot counts and
the verdicts.  The workload seed draws the Monte-Carlo starts and the
disturbance sequences of ``safe-set --compare-mc`` and ``oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

TRAIN_SEED = 0

# Operations in the order a pass runs them; ``export-plots`` is one
# operation that exports both tube runs.
OPERATIONS = ("train", "verify", "safe-set", "oracle", "export-plots")


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str              # "land" or "air"
    counts: tuple           # grid nodes per axis
    train: dict             # train.json
    solver: dict            # "solver" block of verify.json
    mc: dict                # "mc" block of verify.json (safe-set --compare-mc)
    oracle: dict            # oracle.json, without the artifact paths
    z_slices: tuple         # export-plots --z (3-D only)
    expected_failures: frozenset  # operations that fail on every pass

    def files(self) -> dict:
        """Config files a pass writes before its first command."""
        artifacts = {
            "scene": "scene.json",
            "model": "train/model.json",
            "policy": "train/policy.json",
            "bounds": "train/bounds.json",
        }
        return {
            "train.json": {**self.train, "scene": "scene.json"},
            "verify.json": {**artifacts, "solver": self.solver, "mc": self.mc},
            "oracle.json": {**artifacts, **self.oracle},
        }

    def commands(self, seed: int) -> list:
        """``(operation, argv)`` pairs for ``reachverify.cli.main``."""
        s = str(seed)
        z = ["--z", ",".join(repr(v) for v in self.z_slices)] if self.z_slices else []
        return [
            ("train", ["train", "--config", "train.json", "--out", "train",
                       "--seed", str(TRAIN_SEED)]),
            ("verify", ["verify", "--config", "verify.json", "--out", "verify", "--seed", s]),
            ("safe-set", ["safe-set", "--config", "verify.json", "--out", "safeset",
                          "--compare-mc", "--seed", s]),
            ("oracle", ["oracle", "--config", "oracle.json", "--out", "oracle", "--seed", s]),
            ("export-plots", ["export-plots", "--run", "verify", *z]),
            ("export-plots", ["export-plots", "--run", "safeset", *z]),
        ]


def _land() -> Workload:
    # The land config shipped in the package README.
    return Workload(
        name="land",
        scene="land",
        counts=(101, 101),
        train={
            "env": "true_land",
            "initial_samples": 1000,
            "outer_iterations": 1,
            "mpc": {"horizon": 6, "candidates": 192, "discount": 0.9},
            "reward": {"obstacle_weight": 10.0, "obstacle_margin": 0.3, "action_cost": 0.01},
            "training": {"epochs": 3000, "lr_schedule": "cosine"},
            "policy_training": {"epochs": 500, "hidden_sizes": [16, 16],
                                "lr_schedule": "cosine"},
            "k_sigma": 3.0,
            "dt_env": 0.1,
        },
        solver={"horizon": 10.0, "snapshot_stride": 20},
        mc={"plant": "true_land", "num_samples": 1000, "horizon": 10.0, "dt": 0.1},
        oracle={"horizon": 10.0, "dt": 0.1, "num_samples": 1000, "draws": 8},
        z_slices=(),
        expected_failures=frozenset(),
    )


def _air() -> Workload:
    # A lightly trained air model on a 45^3 grid; snapshots only at the
    # start and the end of each tube (the stride exceeds any step count).
    return Workload(
        name="air",
        scene="air",
        counts=(45, 45, 45),
        train={
            "env": "true_air",
            "initial_samples": 1000,
            "outer_iterations": 1,
            "mpc": {"horizon": 6, "candidates": 64, "discount": 0.9},
            "training": {"epochs": 400, "lr_schedule": "cosine"},
            "policy_training": {"epochs": 200, "hidden_sizes": [16, 16],
                                "lr_schedule": "cosine"},
            "k_sigma": 3.0,
            "dt_env": 0.1,
        },
        solver={"horizon": 10.0, "snapshot_stride": 100000},
        mc={"plant": "true_air", "num_samples": 1000, "horizon": 10.0, "dt": 0.1},
        oracle={"horizon": 10.0, "dt": 0.1, "num_samples": 1000, "draws": 8},
        z_slices=(0.0, 2.0, 4.0),
        # The forward tube under-approximates on this scene, so verify
        # reports "safe" although oracle finds unsafe starts.
        expected_failures=frozenset({"verify"}),
    )


WORKLOADS = {"land": _land, "air": _air}


def get(name: str) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]()
