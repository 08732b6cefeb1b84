"""Training a dynamics model and distilling a controller.

Collects transitions from the planar reference plant, fits the one-step
prediction network, estimates the three-sigma disturbance bounds from its
validation residuals, and distills a policy network from random-shooting
plans.  Runs a reduced configuration so it finishes in a few seconds; raise
the sample and epoch counts for artifact-quality training.
"""

import numpy as np

from reachverify import (
    MpcConfig,
    TrainRunConfig,
    TrainingConfig,
    coverage_check,
    residual_matrix,
    train_loop,
)
from reachverify.scene import land_scene

config = TrainRunConfig(
    env="true_land",
    initial_samples=400,
    outer_iterations=2,
    samples_per_iteration=200,
    distill_states=200,
    mpc=MpcConfig(horizon=6, candidates=64),
    training=TrainingConfig(epochs=600, lr_schedule="cosine"),
    policy_training=TrainingConfig(hidden_sizes=(16, 16), epochs=200, lr_schedule="cosine"),
    seed=0,
)
scene = land_scene()
result = train_loop(config, scene)

for entry in result.logs["iterations"]:
    print(
        f"iteration {entry['iteration']}: "
        f"{entry['dataset_size']} -> {entry['dataset_size_after']} samples, "
        f"validation error {entry['validation_error']:.2e}, "
        f"residual sd {np.round(entry['residual_sd'], 5).tolist()}, "
        f"policy fit rms {entry['policy_fit_rms']:.3f}"
    )

print("disturbance bounds (rate units):", np.round(result.bounds.upper, 4).tolist())
rows = residual_matrix(result.model, result.validation)
print("validation residual coverage:", round(coverage_check(result.bounds, rows), 4))

probe = np.array([[0.0, 0.0], [2.0, 1.0], [5.0, 4.0]])
print("policy actions at probe states (speed, heading):")
for s, a in zip(probe, result.policy.batch(probe)):
    print(f"  {s.tolist()} -> v={a[0]:.2f}, psi={a[1]:+.2f}")
