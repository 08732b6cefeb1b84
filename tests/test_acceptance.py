"""Acceptance suite: one test per criterion, each printing a PASS line.

Expensive artifacts (trained models, tube solves) come from session-scoped
fixtures in conftest; timing limits are asserted on the wall-clock numbers
those fixtures record.
"""

import time

import numpy as np
from scipy.spatial import cKDTree

from conftest import (
    LAND_RUN_CONFIG,
    const_system,
    hausdorff_between_masks,
    mask_boundary_points,
    masks_nested,
)
from reachverify.dynamics import ClosedLoopSystem, LearnedPlant
from reachverify.error_bounds import DisturbanceBounds, coverage_check, residual_matrix
from reachverify.geometry import (
    Ball,
    ScalarField,
    ShapeSet,
    build_grid,
    field_complement,
    field_union,
    interpolate_many,
    level_set_from_shapes,
    strict_sublevel_mask,
    zero_sublevel_mask,
)
from reachverify.nn import loss_and_gradient, train_dynamics_model
from reachverify.solver import SolverConfig, solve_brt, solve_frt
from reachverify.trainer import collect_random_data, default_action_bounds, make_plant
from reachverify.verification import build_report
from reference import (
    analytic_hamiltonian,
    corner_extremum,
    dissipation_coefficients,
    optimal_disturbance,
    upwind_gradients,
)


def test_criterion_01_hamiltonian_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(1000):
            p = rng.normal(size=n)
            upper = rng.uniform(0.0, 1.0, size=n)
            bounds = DisturbanceBounds(upper, -upper)
            c = rng.normal(size=n)
            sys_cl = const_system(c, upper=upper)
            s = np.zeros(n)
            for mode in ("reach_goal", "reach_unsafe"):
                value, _ = corner_extremum(p, bounds, mode)
                d = optimal_disturbance(p, bounds, mode)
                worst = max(worst, abs(float(p @ d) - value))
                h = analytic_hamiltonian(s, p, sys_cl, mode)
                worst = max(worst, abs(h - (float(p @ c) + value)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: Hamiltonian oracle equivalence, "
          f"max |delta| = {worst:.2e}, runtime {elapsed:.2f} s")


def test_criterion_02_capsule_oracle(capsule_runs):
    run = capsule_runs[201]
    grid = run["grid"]
    tol = 2 * grid.spacing.max()
    hd_brt = hausdorff_between_masks(grid, run["brt"].final_mask(), run["analytic_mask"])
    hd_frt = hausdorff_between_masks(grid, run["frt"].final_mask(), run["analytic_mask"])
    assert hd_brt <= tol + 1e-12
    assert hd_frt <= tol + 1e-12
    assert run["brt_secs"] < 60.0
    assert run["frt_secs"] < 60.0
    print(f"\nACCEPTANCE 2 PASS: capsule Hausdorff BRT {hd_brt:.4f}, FRT {hd_frt:.4f} "
          f"(tol {tol:.4f}); runtimes {run['brt_secs']:.1f} s / {run['frt_secs']:.1f} s")


def test_criterion_03_tube_monotonicity(capsule_runs, land_tubes, air_smoke):
    tubes = [
        ("capsule-brt-101", capsule_runs[101]["brt"]),
        ("capsule-frt-101", capsule_runs[101]["frt"]),
        ("capsule-brt-201", capsule_runs[201]["brt"]),
        ("capsule-frt-201", capsule_runs[201]["frt"]),
        ("land-frt", land_tubes["frt"]),
        ("land-brt-0", land_tubes["brts"][0]),
        ("land-brt-1", land_tubes["brts"][1]),
        ("air-frt", air_smoke["frt"]),
        ("air-brt", air_smoke["brt"]),
    ]
    for name, tube in tubes:
        assert masks_nested(tube), f"nesting violated in {name}"
    print(f"\nACCEPTANCE 3 PASS: snapshot masks nested in all {len(tubes)} shipped tubes")


def test_criterion_04_disturbance_conservatism(land_run, land_tubes):
    scene, result, _ = land_run
    doubled = DisturbanceBounds(
        upper=2 * result.bounds.upper,
        lower=2 * result.bounds.lower,
        k_sigma=result.bounds.k_sigma,
        dt_env=result.bounds.dt_env,
    )
    sys_small = land_tubes["system"]
    sys_big = ClosedLoopSystem(LearnedPlant(result.model), result.policy, doubled)
    alpha = dissipation_coefficients(sys_big, doubled, scene.grid)

    checked = 0
    for direction, seeds in (
        ("forward", [scene.initial_set]),
        ("backward", [ShapeSet((p,)) for p in scene.obstacles.primitives]),
    ):
        for seed_set in seeds:
            cfg = SolverConfig(horizon=10.0, snapshot_stride=50)
            solve = solve_frt if direction == "forward" else solve_brt
            small = solve(seed_set, sys_small, cfg, scene.grid, alpha_floor=alpha)
            big = solve(seed_set, sys_big, cfg, scene.grid, alpha_floor=alpha)
            grown = int(np.sum(big.final_mask() & ~small.final_mask()))
            assert np.all(small.final_mask() <= big.final_mask())
            checked += 1
    print(f"\nACCEPTANCE 4 PASS: doubling the error bounds never shrank any mask cell "
          f"({checked} tube pairs)")


def test_criterion_05_convergence_order(capsule_runs):
    errors = {}
    for n in (101, 201):
        run = capsule_runs[n]
        errors[n] = max(
            hausdorff_between_masks(run["grid"], run["brt"].final_mask(), run["analytic_mask"]),
            1e-12,
        )
    ratio = errors[101] / errors[201]
    assert 1.5 <= ratio <= 2.5
    print(f"\nACCEPTANCE 5 PASS: halving the spacing cut the capsule error "
          f"{errors[101]:.4f} -> {errors[201]:.4f} (ratio {ratio:.2f})")


def test_criterion_06_gradient_checks():
    # upwind derivatives exact on linear fields
    grid = build_grid([0, 0, 0], [1, 2, 1], [9, 11, 7])
    pts = grid.node_points()
    field = ScalarField(grid, 1.5 * pts[..., 0] - 2.0 * pts[..., 1] + 0.25 * pts[..., 2])
    p_minus, p_plus = upwind_gradients(field)
    coeffs = (1.5, -2.0, 0.25)
    worst_grad = 0.0
    for i, c in enumerate(coeffs):
        worst_grad = max(worst_grad, np.abs(p_minus[i] - c).max(), np.abs(p_plus[i] - c).max())
    assert worst_grad <= 1e-12

    # analytic training gradient vs central differences
    from test_nn import random_model

    rng = np.random.default_rng(77)
    model = random_model((3, 6, 2), rng)
    X = rng.normal(size=(8, 3))
    Y = rng.normal(size=(8, 2)) * 0.5
    _, gw, gb = loss_and_gradient(model, X, Y)
    eps = 1e-6
    worst_rel = 0.0

    def loss_of(weights, biases):
        from reachverify.nn import MlpModel

        m = MlpModel(
            layer_sizes=model.layer_sizes, weights=tuple(weights), biases=tuple(biases),
            output_scale=model.output_scale, meta=model.meta,
        )
        return loss_and_gradient(m, X, Y)[0]

    rng_idx = np.random.default_rng(5)
    for layer in range(len(model.weights)):
        w = model.weights[layer]
        for _ in range(4):
            i = int(rng_idx.integers(w.shape[0]))
            j = int(rng_idx.integers(w.shape[1]))
            wp = [x.copy() for x in model.weights]
            wm = [x.copy() for x in model.weights]
            wp[layer][i, j] += eps
            wm[layer][i, j] -= eps
            fd = (loss_of(wp, model.biases) - loss_of(wm, model.biases)) / (2 * eps)
            worst_rel = max(worst_rel, abs(fd - gw[layer][i, j]) / max(1.0, abs(fd)))
    assert worst_rel < 1e-4
    print(f"\nACCEPTANCE 6 PASS: upwind gradients exact to {worst_grad:.1e}; "
          f"training gradient FD relative error {worst_rel:.1e}")


def test_criterion_07_land_domain_reproduction(land_run, land_tubes, land_mc):
    scene, result, train_secs = land_run
    mc, mc_secs = land_mc

    verdict_frt = land_tubes["frt_verdict"]
    verdict_mc = "unsafe" if (~mc.safe).any() else "safe"
    assert verdict_frt == verdict_mc

    union = land_tubes["union"]
    brt_safe = interpolate_many(union, mc.samples) > 0.0
    agree = brt_safe == mc.safe
    agreement = float(agree.mean())
    assert agreement >= 0.90

    disagreements = ~agree
    bad = disagreements & brt_safe & ~mc.safe  # non-conservative side
    cell = float(np.linalg.norm(scene.grid.spacing))
    if bad.any():
        boundary = mask_boundary_points(scene.grid, zero_sublevel_mask(union))
        dist = cKDTree(boundary).query(mc.samples[bad])[0]
        assert dist.max() <= cell
    total_secs = train_secs + land_tubes["solve_secs"] + mc_secs
    assert total_secs < 600.0
    report = land_tubes["report"]
    print(f"\nACCEPTANCE 7 PASS: verdicts agree ({verdict_frt}; per-obstacle "
          f"{land_tubes['frt_flags']}); safe-set agreement {agreement:.3f} "
          f"(conservative {int((disagreements & ~brt_safe).sum())}, "
          f"boundary-band {int(bad.sum())}); report {report.verdict} "
          f"safe_fraction={report.safe_fraction:.3f}; runtime {total_secs:.0f} s")


def test_criterion_08_residual_sd_trend(land_run):
    scene, result, _ = land_run
    sd_1000 = np.asarray(result.logs["iterations"][0]["residual_sd"])

    plant = make_plant("true_land")
    bounds_a = default_action_bounds("true_land")
    data_300 = collect_random_data(
        plant, bounds_a, scene.grid.lo, scene.grid.hi, 300, 0.1,
        np.random.default_rng([0, 123]),
    )
    trained_300 = train_dynamics_model(
        data_300, LAND_RUN_CONFIG.model_training, dt_env=0.1
    )
    from reachverify.error_bounds import residuals

    sd_300 = residuals(trained_300.model, trained_300.validation).sd
    assert np.all(sd_1000 < sd_300)
    assert np.all(sd_1000 > 1e-5) and np.all(sd_1000 < 1e-2)
    assert np.all(sd_300 < 2e-2)
    print(f"\nACCEPTANCE 8 PASS: per-step residual s.d. shrinks with data: "
          f"300 samples {np.round(sd_300, 5).tolist()} -> "
          f"1000 samples {np.round(sd_1000, 5).tolist()}")


def test_criterion_09_error_bound_coverage(land_run):
    _, result, _ = land_run
    rows = residual_matrix(result.model, result.validation)
    rates = rows / result.bounds.dt_env
    per_dim = np.mean(
        (rates >= result.bounds.lower) & (rates <= result.bounds.upper), axis=0
    )
    assert np.all(per_dim >= 0.95)
    joint = coverage_check(result.bounds, rows)
    print(f"\nACCEPTANCE 9 PASS: three-sigma bounds cover "
          f"{np.round(per_dim, 4).tolist()} of validation residuals per dimension "
          f"(joint {joint:.4f})")


def test_criterion_10_set_algebra(land_run, land_tubes):
    scene, _, _ = land_run
    report = land_tubes["report"]
    assert not np.any(report.safe_mask & report.unsafe_mask)
    assert np.array_equal(report.safe_mask | report.unsafe_mask, report.initial_mask)

    # a second report built from a synthetic tube obeys the partition too
    toy = build_report(
        scene.grid, scene.initial_set,
        level_set_from_shapes(scene.grid, ShapeSet((Ball([0.4, 0.2], 0.5),))),
    )
    assert not np.any(toy.safe_mask & toy.unsafe_mask)
    assert np.array_equal(toy.safe_mask | toy.unsafe_mask, toy.initial_mask)

    grid = build_grid([0, 0], [1, 1], [9, 9])
    rng = np.random.default_rng(10)
    for _ in range(1000):
        a = ScalarField(grid, rng.normal(size=grid.counts))
        b = ScalarField(grid, rng.normal(size=grid.counts))
        lhs = strict_sublevel_mask(field_complement(field_union(a, b)))
        rhs = strict_sublevel_mask(field_complement(a)) & strict_sublevel_mask(
            field_complement(b)
        )
        assert np.array_equal(lhs, rhs)
    print("\nACCEPTANCE 10 PASS: partition identities exact on all reports; "
          "De Morgan mask identity exact on 1000 random field pairs")


def test_criterion_11_aerial_smoke(air_smoke):
    for name in ("frt", "brt"):
        tube = air_smoke[name]
        for _, fld in tube.snapshots:
            assert np.isfinite(fld.values).all()
        assert masks_nested(tube)
        assert tube.final_mask().any()
    assert air_smoke["total_secs"] < 1200.0
    print(f"\nACCEPTANCE 11 PASS: 51^3 aerial forward and backward tubes finite and "
          f"nested; total runtime {air_smoke['total_secs']:.0f} s")
