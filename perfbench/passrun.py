"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/passrun.py --src SRC --workload land --seed 1 --dir PASS_DIR
        [--trace SPANS.json] [--setup-only]

Set-up is everything from process start to the first command: the imports
plus writing the scene and config files into PASS_DIR.  The pass then calls
``reachverify.cli.main`` in-process for each command, timing each one.  The
last line of standard output is a JSON object with the ``time.monotonic``
reading at the end of set-up (comparable with the parent's clock), the
per-command times and exit codes, the pass time and the peak RSS.  With
``--trace`` the pass runs under the span tracer, writes the spans to the
given file and adds the per-layer figures.
"""

import argparse
import json
import os
import resource
import sys
import time


def write_inputs(wl) -> None:
    """Scene and config files of a pass, written into the working directory."""
    from reachverify import scene

    make_scene = scene.land_scene if wl.scene == "land" else scene.air_scene
    scene.save_scene(make_scene(wl.counts), "scene.json")
    for name, doc in wl.files().items():
        with open(name, "w") as fh:
            json.dump(doc, fh, indent=2)


def run_commands(wl, seed: int):
    """Run the pass's commands in the working directory.

    Returns the seconds and the highest exit code of each operation.
    """
    from reachverify import cli

    times: dict = {}
    codes: dict = {}
    for op, argv in wl.commands(seed):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        times[op] = times.get(op, 0.0) + (time.perf_counter() - t0)
        codes[op] = max(codes.get(op, 0), rc)
    return times, codes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    import reachverify.cli  # noqa: F401  (the imports are part of set-up)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    wl = workloads.get(args.workload)
    trace_path = os.path.abspath(args.trace) if args.trace else ""
    os.makedirs(args.dir)
    os.chdir(args.dir)
    write_inputs(wl)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    start = time.perf_counter()
    times, codes = run_commands(wl, args.seed)
    run_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ready": ready, "times": times, "codes": codes, "run_s": run_s,
              "peak_rss_mb": peak_kib * 1024 / 1e6}
    if tracer is not None:
        tracer.remove()
        tracer.write(trace_path)
        result["layers"] = tracing.layer_metrics(tracer.spans)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
