"""Self times and per-layer figures from recorded spans.

    python3 -m pytest -q perfbench/test_tracing.py
"""

import pytest

import tracing


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["solver.frt", 1.0, 7.0, 0, {"steps": 3, "node_updates": 30,
                                     "snapshots": 2, "snapshot_bytes": 160}],
        ["dynamics.rate_scan", 1.0, 2.0, 1, {"rows": 10}],
        ["scene.csv_write", 8.0, 9.5, 0, {"rows": 10}],
    ]
    assert tracing.self_times(spans) == [2.5, 5.0, 1.0, 1.5]
    m = tracing.layer_metrics(spans)
    assert (m["cli.self_s"], m["solver.self_s"], m["dynamics.self_s"], m["scene.self_s"]) == (
        2.5, 5.0, 1.0, 1.5)
    assert m["solver.frt_s"] == 6.0 and m["solver.steps"] == 3
    assert m["solver.step_ms"] == pytest.approx(1000 * 5.0 / 3)
    assert m["solver.node_updates_per_s"] == pytest.approx(30 / 5.0)
    assert m["dynamics.rate_scans"] == 1 and m["scene.csv_rows_written"] == 10
    assert set(m) >= {f"{layer}.self_s" for layer in tracing.LAYERS}


def test_wrapper_records_nesting_and_counts():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda rows: rows, "nn.forward_batch", tracing._rows(0))
    outer = tracer._wrap(lambda: inner([1, 2, 3]), "trainer.mpc_actions", None)
    outer()
    (o_name, o_start, o_end, o_parent, _), (i_name, i_start, i_end, i_parent, counts) = tracer.spans
    assert (o_name, o_parent, i_name, i_parent, counts) == (
        "trainer.mpc_actions", -1, "nn.forward_batch", 0, {"rows": 3})
    assert o_start <= i_start <= i_end <= o_end


def test_install_and_remove_restore_the_modules():
    from reachverify import cli, nn, trainer

    before = (cli.solve_frt, nn.fit_mlp, trainer.fit_mlp)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.solve_frt is not before[0] and trainer.fit_mlp is not before[2]
    finally:
        tracer.remove()
    assert (cli.solve_frt, nn.fit_mlp, trainer.fit_mlp) == before
