"""End-to-end safety verification of a learned controller.

Runs the whole pipeline on the planar scene: train the model and policy,
augment the learned dynamics with the estimated error bounds, compute the
forward tube for the safe/unsafe verdict, compute per-obstacle backward
tubes for the safe initial states, and cross-check the result against
Monte-Carlo rollouts under the true dynamics.

Takes a minute or two; the configuration matches the shipped artifacts.
"""

import time

import numpy as np

from reachverify import (
    ClosedLoopSystem,
    DisturbanceBounds,
    LandPlant,
    LearnedPlant,
    ShapeSet,
    SolverConfig,
    TrainRunConfig,
    TrainingConfig,
    build_report,
    classify_policy,
    interpolate_many,
    mc_ground_truth,
    solve_brt,
    solve_frt,
    train_loop,
    union_brt_field,
)
from reachverify.scene import land_scene

t0 = time.time()
scene = land_scene()
config = TrainRunConfig(
    env="true_land",
    initial_samples=1000,
    model_training=TrainingConfig(epochs=3000, lr_schedule="cosine"),
    seed=0,
)
result = train_loop(config, scene)
print(f"trained model + policy in {time.time() - t0:.0f} s; "
      f"residual sd {np.round(result.logs['iterations'][0]['residual_sd'], 5).tolist()}")

augmented = ClosedLoopSystem(LearnedPlant(result.model), result.policy, result.bounds)

frt = solve_frt(
    scene.initial_set, augmented,
    SolverConfig(horizon=10.0, snapshot_stride=20),
    scene.grid,
)
verdict, flags = classify_policy(frt, scene.obstacles, scene.grid)
print(f"forward-tube verdict: {verdict} (per obstacle: {flags})")

brt_finals = []
for i, prim in enumerate(scene.obstacles.primitives):
    tube = solve_brt(
        ShapeSet((prim,)), augmented,
        SolverConfig(horizon=10.0, snapshot_stride=20),
        scene.grid,
    )
    brt_finals.append(tube.final)
    print(f"backward tube from obstacle {i}: {tube.steps_taken} steps")

report = build_report(scene.grid, scene.initial_set, union_brt_field(brt_finals))
print(f"safe-set report: {report.verdict}, safe fraction {report.safe_fraction:.3f}")

# Ground truth: the same policy on the true plant, no disturbance.
true_system = ClosedLoopSystem(LandPlant(), result.policy, DisturbanceBounds.zero(2))
mc = mc_ground_truth(
    true_system, scene.initial_set, scene.obstacles,
    horizon=10.0, dt=0.1, num_samples=1000, num_disturbance_draws=0, seed=0,
)
brt_safe = interpolate_many(report.brt_field, mc.samples) > 0.0
agreement = float(np.mean(brt_safe == mc.safe))
print(f"Monte-Carlo safe fraction {mc.safe_fraction:.3f}; "
      f"tube/rollout agreement on {len(mc.samples)} samples: {agreement:.3f}")
print(f"total {time.time() - t0:.0f} s")
