"""End-to-end and per-layer benchmark of the reachverify command pipeline.

    python3 perfbench/run.py --workload land|air --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``src/reachverify``).  A run makes passes until ``S`` seconds have gone by,
and at least two.  Each pass runs in a fresh interpreter (``passrun.py``):
``train`` -> ``verify`` -> ``safe-set --compare-mc`` -> ``oracle`` ->
``export-plots`` in a fresh output directory under ``.perfbench/``.  After
each pass, outside the timed region, the run measures the bytes the pass
left, hashes every file, checks the outputs (``checks.py``), deletes the
directory and syncs.  Every pass after the first must reproduce the first
pass's files byte for byte.

With ``--trace 0`` the passes are untraced and the run reports the
end-to-end metrics ``setup_s``, ``run_s``, ``peak_rss_mb`` and
``output_mb``, medians over its passes; ``setup_s`` is the median of seven
fresh interpreters.  With ``--trace 1`` the passes alternate untraced and
traced; the run reports the per-layer metrics of the traced passes, the
command times of the untraced ones and the tracing overhead, and writes
the spans of the last traced pass to ``.perfbench/trace_<workload>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

SRC = "src"
OUT = ".perfbench"
MIN_PASSES = 2
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

# Command times of the ``cli`` layer.  Every run prints them; the traced run
# reports them from its untraced passes.  They are not end-to-end metrics:
# a single command is too short to average out this host's speed swings.
COMMANDS = {
    "cli.train_s": "train",
    "cli.verify_s": "verify",
    "cli.safe_set_s": "safe-set",
    "cli.oracle_s": "oracle",
    "cli.export_plots_s": "export-plots",
}


def unit(name: str) -> str:
    for suffix, u in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return u
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: the host has two cores and the matrices are small,
    # so a second thread only adds scheduling noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, directory: str, trace: str = "",
              setup_only: bool = False) -> dict:
    """Start one pass interpreter, wait for it and return its result.

    ``setup_s`` in the result runs from the start of the interpreter to the
    end of its set-up.
    """
    argv = [sys.executable, os.path.join(HERE, "passrun.py"), "--src", SRC,
            "--workload", workload, "--seed", str(seed), "--dir", directory]
    if trace:
        argv += ["--trace", trace]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"pass interpreter exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def file_hashes(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(dp, f))
               for dp, _, files in os.walk(root) for f in files)


def reproduction_failures(reference: dict, hashes: dict) -> dict:
    """Operations whose files differ from the reference pass."""
    failed: dict = {}
    for rel in sorted(set(reference) | set(hashes)):
        if reference.get(rel) != hashes.get(rel):
            failed.setdefault(checks.operation_of(rel), []).append(
                f"{rel} differs from the first pass")
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "reachverify")):
        print(f"error: run from a reachverify checkout; {SRC}/reachverify not found",
              file=sys.stderr)
        return 2

    wl = workloads.get(args.workload)
    os.makedirs(OUT, exist_ok=True)
    pass_dir = os.path.join(OUT, "pass")
    trace_path = os.path.join(OUT, f"trace_{wl.name}.json")
    ops = workloads.OPERATIONS

    passes, traced, setups = [], [], []
    attempted = failed = 0
    unexpected = []
    reference = None

    def setup_probe():
        shutil.rmtree(pass_dir, ignore_errors=True)
        return run_child(wl.name, args.seed, pass_dir, setup_only=True)["setup_s"]

    start = time.monotonic()
    try:
        while len(passes) + len(traced) < MIN_PASSES or time.monotonic() - start < args.seconds:
            k = len(passes) + len(traced)
            is_traced = bool(args.trace) and k % 2 == 1
            if not args.trace:
                setups.append(setup_probe())  # spread set-up samples over the run
            shutil.rmtree(pass_dir, ignore_errors=True)
            result = run_child(wl.name, args.seed, pass_dir,
                               trace=trace_path if is_traced else "")
            # Outside the timed region: size, hashes, checks, clean-up.
            result["output_mb"] = tree_bytes(pass_dir) / 1e6
            hashes = file_hashes(pass_dir)
            failures = checks.check_pass(pass_dir, wl, result["codes"], ops)
            if reference is None:
                reference = hashes
            for op, what in reproduction_failures(reference, hashes).items():
                failures[op] += what
            shutil.rmtree(pass_dir)
            os.sync()
            attempted += len(ops)
            for op in ops:
                if failures[op]:
                    failed += 1
                    if op not in wl.expected_failures:
                        unexpected.append((k, op, failures[op]))
                    print(f"pass {k}: {op} failed: {'; '.join(failures[op][:3])}")
            (traced if is_traced else passes).append(result)
            setups.append(result["setup_s"])
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe())
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)

    commands = {name: median([p["times"][op] for p in passes]) for name, op in COMMANDS.items()}
    if args.trace:
        metrics = {name: median([t["layers"][name] for t in traced])
                   for name in traced[0]["layers"]}
        metrics.update(commands)
        metrics["trace.run_s"] = median([t["run_s"] for t in traced])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - median([p["run_s"] for p in passes])
        run_s = metrics["trace.run_s"]
        shown = metrics
    else:
        metrics = {"setup_s": median(setups)}
        metrics.update({name: median([p[name] for p in passes])
                        for name in ("run_s", "peak_rss_mb", "output_mb")})
        run_s = metrics["run_s"]
        shown = {**metrics, **commands}

    n_passes = len(passes) + len(traced)
    print(f"workload {wl.name}, seed {args.seed}: {n_passes} passes "
          f"({len(traced)} traced), {attempted} operations attempted, {failed} failed")
    for name, value in shown.items():
        share = ""
        if name.endswith(".self_s") and run_s > 0:
            share = f"  ({100 * value / run_s:.1f}% of traced run_s)"
        print(f"  {name:30s} {value:14.6g} {unit(name)}{share}")
    for k, op, what in unexpected:
        print(f"unexpected failure in pass {k}, {op}: {what}", file=sys.stderr)

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
