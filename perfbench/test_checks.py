"""The benchmark's checks must pass on a clean pass and fail on a corrupted one.

Runs one small land pass and one small air pass (coarse grids, a few
training epochs), then feeds ``checks.check_pass`` copies of their output
with one defect each.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

import checks
import passrun
import workloads
from run import file_hashes, reproduction_failures

OPS = workloads.OPERATIONS
SEED = 3
TINY_TRAIN = {
    "initial_samples": 300,
    "mpc": {"horizon": 4, "candidates": 32, "discount": 0.9},
    "training": {"epochs": 60, "lr_schedule": "cosine"},
    "policy_training": {"epochs": 40, "hidden_sizes": [16, 16], "lr_schedule": "cosine"},
    "distill_states": 200,
}


def small(name: str) -> workloads.Workload:
    wl = workloads.get(name)
    counts = (41, 41) if name == "land" else (21, 21, 21)
    return dataclasses.replace(
        wl,
        counts=counts,
        train={**wl.train, **TINY_TRAIN},
        solver={**wl.solver, "snapshot_stride": 10 if name == "land" else 100000},
        mc={**wl.mc, "num_samples": 200},
        oracle={**wl.oracle, "num_samples": 100, "draws": 2},
    )


def run_small_pass(wl, directory):
    os.makedirs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        passrun.write_inputs(wl)
        _, codes = passrun.run_commands(wl, SEED)
    finally:
        os.chdir(cwd)
    return codes


@pytest.fixture(scope="module")
def land(tmp_path_factory):
    wl = small("land")
    d = str(tmp_path_factory.mktemp("land") / "pass")
    return wl, d, run_small_pass(wl, d)


@pytest.fixture(scope="module")
def air(tmp_path_factory):
    wl = small("air")
    d = str(tmp_path_factory.mktemp("air") / "pass")
    return wl, d, run_small_pass(wl, d)


@pytest.fixture
def land_copy(land, tmp_path):
    wl, d, codes = land
    copy = str(tmp_path / "pass")
    shutil.copytree(d, copy)
    return wl, copy, dict(codes)


def failed_ops(wl, d, codes):
    return {op for op, what in checks.check_pass(d, wl, codes, OPS).items() if what}


def rewrite_cell(path, row, value):
    """Replace the last column of data row ``row`` of a CSV file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[-1] = value
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def first_row(path, value):
    with open(path) as fh:
        next(fh)
        for i, line in enumerate(fh):
            if line.rstrip("\n").split(",")[-1] == value:
                return i
    raise AssertionError(f"no row with value {value} in {path}")


def edit_json(path, fn):
    with open(path) as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_clean_land_pass_passes(land):
    wl, d, codes = land
    assert checks.check_pass(d, wl, codes, OPS) == {op: [] for op in OPS}


def test_clean_air_pass_passes(air):
    # At 21^3 with a few epochs verify reports "unsafe", so no check fails.
    wl, d, codes = air
    assert checks.check_pass(d, wl, codes, OPS) == {op: [] for op in OPS}


def test_nonzero_exit_code_fails_its_operation(land_copy):
    wl, d, codes = land_copy
    codes["oracle"] = 3
    assert failed_ops(wl, d, codes) == {"oracle"}


def test_validation_error_above_baseline_fails_train(land_copy):
    wl, d, codes = land_copy
    def spoil(doc):
        it = doc["iterations"][0]
        it["validation_error"] = it["baseline_error"]
    edit_json(os.path.join(d, "train", "log.json"), spoil)
    assert failed_ops(wl, d, codes) == {"train"}


def test_flipped_safe_mask_node_fails_safe_set(land_copy):
    wl, d, codes = land_copy
    path = os.path.join(d, "safeset", "safe_mask.csv")
    rewrite_cell(path, first_row(path, "0"), "1")
    assert failed_ops(wl, d, codes) == {"safe-set"}


def test_unsafe_mask_that_drops_a_tube_node_fails_safe_set(land_copy):
    # Moves one node from unsafe to safe, so the masks still partition the
    # initial set but no longer follow brt_union.
    wl, d, codes = land_copy
    unsafe = os.path.join(d, "safeset", "unsafe_mask.csv")
    row = first_row(unsafe, "1")
    rewrite_cell(unsafe, row, "0")
    rewrite_cell(os.path.join(d, "safeset", "safe_mask.csv"), row, "1")
    assert failed_ops(wl, d, codes) == {"safe-set"}


def test_wrong_safe_fraction_fails_safe_set(land_copy):
    wl, d, codes = land_copy
    edit_json(os.path.join(d, "safeset", "report.json"),
              lambda doc: doc.update(safe_fraction=doc["safe_fraction"] + 1e-9))
    assert failed_ops(wl, d, codes) == {"safe-set"}


def test_removed_snapshot_file_fails_verify(land_copy):
    wl, d, codes = land_copy
    os.remove(os.path.join(d, "verify", "frt", "frt_0001.csv"))
    assert "verify" in failed_ops(wl, d, codes)


def test_non_nested_snapshot_fails_verify(land_copy):
    wl, d, codes = land_copy
    path = os.path.join(d, "verify", "frt", "frt_0001.csv")
    # A node inside the seed set (value <= 0) leaves the tube at snapshot 1.
    with open(os.path.join(d, "verify", "frt", "frt_0000.csv")) as fh:
        next(fh)
        row = next(i for i, line in enumerate(fh) if float(line.split(",")[-1]) < 0)
    rewrite_cell(path, row, "1.0")
    assert failed_ops(wl, d, codes) == {"verify"}


def test_flipped_obstacle_flag_fails_verify(land_copy):
    wl, d, codes = land_copy
    def flip(doc):
        doc["frt_intersects_obstacle"][0] = not doc["frt_intersects_obstacle"][0]
    edit_json(os.path.join(d, "verify", "report.json"), flip)
    assert failed_ops(wl, d, codes) == {"verify"}


def cell_diagonal(d):
    grid = checks.Grid(checks.load_json(os.path.join(d, "scene.json"))["grid"])
    return float(np.linalg.norm(grid.spacing))


def lift_union_near(d, point, radius):
    """Set brt_union above zero at every node within ``radius`` of ``point``."""
    grid = checks.Grid(checks.load_json(os.path.join(d, "scene.json"))["grid"])
    path = os.path.join(d, "safeset", "brt_union.csv")
    for row in np.flatnonzero(np.linalg.norm(grid.points() - point, axis=1) <= radius):
        rewrite_cell(path, int(row), "1.0")


def test_oracle_unsafe_start_called_safe_fails_safe_set(land_copy):
    # Marks the first oracle start unsafe and lifts the tube around it.
    wl, d, codes = land_copy
    path = os.path.join(d, "oracle", "ground_truth.csv")
    rewrite_cell(path, 0, "0")
    lift_union_near(d, checks.read_table(path)[0, :-1], cell_diagonal(d))
    assert ("the union tube calls an oracle-unsafe start safe"
            in checks.check_pass(d, wl, codes, OPS)["safe-set"])


def test_mc_unsafe_start_far_inside_safe_region_fails_safe_set(land_copy):
    wl, d, codes = land_copy
    gt = checks.read_table(os.path.join(d, "safeset", "ground_truth.csv"))
    unsafe = gt[gt[:, -1] == 0, :-1]
    assert len(unsafe), "the small land pass should have MC-unsafe starts"
    lift_union_near(d, unsafe[0], 3 * cell_diagonal(d))
    assert ("an MC-unsafe start called safe lies beyond one cell of the tube"
            in checks.check_pass(d, wl, codes, OPS)["safe-set"])


def test_missing_slice_fails_export_plots(land_copy):
    wl, d, codes = land_copy
    os.remove(os.path.join(d, "safeset", "slices", "brt_obstacle_1_0000.csv"))
    assert failed_ops(wl, d, codes) == {"export-plots"}


def test_truncated_slice_fails_export_plots(land_copy):
    wl, d, codes = land_copy
    path = os.path.join(d, "verify", "slices", "frt_0000.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
    assert failed_ops(wl, d, codes) == {"export-plots"}


def test_one_changed_byte_fails_reproduction(land, land_copy):
    _, clean, _ = land
    _, d, _ = land_copy
    path = os.path.join(d, "oracle", "ground_truth.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-3] ^= 1
    with open(path, "wb") as fh:
        fh.write(data)
    assert reproduction_failures(file_hashes(clean), file_hashes(d)).keys() == {"oracle"}
    assert reproduction_failures(file_hashes(clean), file_hashes(clean)) == {}


def test_rerun_is_byte_identical(land, tmp_path):
    wl, clean, _ = land
    again = str(tmp_path / "pass")
    run_small_pass(wl, again)
    assert reproduction_failures(file_hashes(clean), file_hashes(again)) == {}
