"""Grid-based reachability analysis for safety verification of learned
controllers: signed-distance geometry, a small network engine, bounded
model-error estimation, level-set tube solves, and trajectory oracles."""

from .geometry import (
    AxisBox,
    AxisCylinder,
    Ball,
    Grid,
    ScalarField,
    ShapeSet,
    build_grid,
    field_complement,
    field_union,
    interpolate,
    interpolate_many,
    level_set_from_shapes,
    signed_distance,
    strict_sublevel_mask,
    zero_sublevel_mask,
)
from .nn import (
    MlpModel,
    ModelMeta,
    TrainingConfig,
    TransitionDataset,
    forward_batch,
    load_model,
    save_model,
    split_dataset,
    train_dynamics_model,
)
from .error_bounds import (
    DisturbanceBounds,
    ResidualStats,
    coverage_check,
    k_sigma_bounds,
    load_bounds,
    residual_matrix,
    residuals,
    save_bounds,
)
from .dynamics import (
    ActionBounds,
    AirPlant,
    ClosedLoopSystem,
    ConstantPolicy,
    LandPlant,
    LearnedPlant,
    MlpPolicy,
    Policy,
    load_policy,
    nominal_rate_batch,
    save_policy,
)
from .solver import (
    SolverConfig,
    TubeResult,
    solve_brt,
    solve_frt,
    time_step,
)
from .verification import (
    VerificationReport,
    build_report,
    classify_policy,
    safe_initial_states,
    union_brt_field,
    unsafe_initial_states,
)
from .oracle import (
    MonteCarloResult,
    mc_ground_truth,
    sample_in_shapes,
)
from .trainer import (
    TrainLoopResult,
    TrainRunConfig,
    collect_random_data,
    default_action_bounds,
    distill_policy,
    make_navigation_reward,
    make_plant,
    merge_datasets,
    mpc_actions,
    train_loop,
)
from .scene import Scene, air_scene, land_scene, load_scene, save_scene

__version__ = "0.1.0"
