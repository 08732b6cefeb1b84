"""Three-dimensional tubes on the aerial scene.

Learns the spatial point-mass dynamics from data, fixes a constant climb
command, and grows a forward tube from the start cuboid and a backward tube
from one cylinder obstacle on a 41^3 grid (use 51^3 or 71^3 for production
resolution).
"""

import time

import numpy as np

from reachverify import (
    ClosedLoopSystem,
    ConstantPolicy,
    LearnedPlant,
    ShapeSet,
    SolverConfig,
    TrainingConfig,
    k_sigma_bounds,
    residuals,
    solve_brt,
    solve_frt,
    train_dynamics_model,
)
from reachverify.scene import air_scene
from reachverify.trainer import collect_random_data, environment

t0 = time.time()
scene = air_scene((41, 41, 41))
plant, bounds_a = environment("true_air").plant(), environment("true_air").action_bounds

data = collect_random_data(
    plant, bounds_a, scene.grid.lo, scene.grid.hi, 1000, 0.1,
    np.random.default_rng(11),
)
trained = train_dynamics_model(
    data, TrainingConfig(epochs=800, lr_schedule="cosine"), dt_env=0.1, seed=3
)
stats = residuals(trained.model, trained.validation)
bounds = k_sigma_bounds(stats, 3.0, 0.1)
print(f"model fit in {time.time() - t0:.0f} s, residual sd {np.round(stats.sd, 4).tolist()}")

policy = ConstantPolicy([0.9, 0.87, 0.65], bounds_a)  # climb toward the goal corner
system = ClosedLoopSystem(LearnedPlant(trained.model), policy, bounds)

frt = solve_frt(
    scene.initial_set, system,
    SolverConfig(horizon=8.0, snapshot_stride=25),
    scene.grid,
)
print(f"forward tube: {frt.steps_taken} steps, "
      f"{int(frt.final_mask().sum())} nodes reached")

brt = solve_brt(
    ShapeSet((scene.obstacles.primitives[1],)), system,
    SolverConfig(horizon=8.0, snapshot_stride=25),
    scene.grid,
)
print(f"backward tube from obstacle 1: {brt.steps_taken} steps, "
      f"{int(brt.final_mask().sum())} nodes can reach it")

# nesting of the snapshot masks is structural: values never increase
masks = [m for _, m in frt.masks()]
nested = all(np.all(masks[i] <= masks[i + 1]) for i in range(len(masks) - 1))
print("forward snapshots nested:", nested)
print(f"total {time.time() - t0:.0f} s")
