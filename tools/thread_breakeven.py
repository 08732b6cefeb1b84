"""Where do threads pay for tube solves?  Paired timings of two lanes.

    PYTHONPATH=src python3 tools/thread_breakeven.py 251^2 41^3 45^3 --pairs 10

For each grid size (``SIDE^DIMS``) the script times, in alternating pairs,
two solves one after the other in the calling thread against the same two
solves side by side on a two-thread pool, each in a lane (a thread and a
buffer set of its own).

Every solve steps its own buffers from the same seed for ``--steps`` RK2
steps, of a fixed constant-policy system: ``LandPlant`` on 2-D grids,
``AirPlant`` on 3-D ones, each under a +-0.1 disturbance box, on the box
[-1, 1]^DIMS with a ball of radius 0.4 at its centre as the target.  The
first side of a pair alternates.  Each line gives the nodes, both sides'
median seconds with their quartiles, and the median speedup (serial time
over threaded time) with its quartiles.

``solver._THREAD_NODES`` is the fewest nodes each lane's array operations
must cover: re-derive it from this script's break-evens whenever the work
per array operation changes.
"""

from __future__ import annotations

import argparse
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from reachverify import solver
from reachverify.dynamics import ActionBounds, AirPlant, ClosedLoopSystem, ConstantPolicy, LandPlant
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import Ball, ShapeSet, build_grid, level_set_from_shapes

# (plant, constant action, action box) per grid dimension.
_SYSTEMS = {
    2: (LandPlant, [0.6, 0.9], ([0.0, -3.14159], [1.0, 3.14159])),
    3: (AirPlant, [0.9, 0.87, 0.65], ([0.0, -3.14159, -1.5708], [1.0, 3.14159, 1.5708])),
}


def _size(text: str) -> tuple:
    side, _, dims = text.partition("^")
    counts = (int(side),) * int(dims or 1)
    if len(counts) not in _SYSTEMS or counts[0] < 3:
        raise argparse.ArgumentTypeError(f"{text!r} is not SIDE^2 or SIDE^3 with SIDE >= 3")
    return counts


def _case(counts):
    """The coefficients, the target's level set and the dt of one size."""
    dims = len(counts)
    plant, action, (lo, hi) = _SYSTEMS[dims]
    policy = ConstantPolicy(action, ActionBounds(lo, hi))
    sys_cl = ClosedLoopSystem(plant(), policy, DisturbanceBounds([0.1] * dims, [-0.1] * dims))
    grid = build_grid([-1.0] * dims, [1.0] * dims, counts)
    coefficients = solver._Coefficients(sys_cl, grid, False)
    seed = level_set_from_shapes(grid, ShapeSet((Ball([0.0] * dims, 0.4),)))
    return coefficients, seed, solver.cfl_dt(solver.SolverConfig(), coefficients.alpha, grid)


def _solve(ws, seed, dt: float, steps: int) -> None:
    ws.load(seed)
    for _ in range(steps):
        ws.rk2_step(dt)


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _pairs(serial, threaded, pairs: int):
    """Seconds of each side over ``pairs`` pairs, the first side alternating."""
    times = {serial: [], threaded: []}
    for k in range(pairs):
        for run in ((serial, threaded) if k % 2 == 0 else (threaded, serial)):
            times[run].append(_timed(run))
    return times[serial], times[threaded]


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.3f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.3f} ({q1:.3f}-{q3:.3f})"


def measure(counts, pairs: int, steps: int) -> tuple:
    """The serial and the threaded seconds of each pair."""
    coefficients, seed, dt = _case(counts)
    first, second = solver._Workspace(coefficients), solver._Workspace(coefficients)

    def lanes():
        with ThreadPoolExecutor(2) as pool:
            for future in [pool.submit(_solve, ws, seed, dt, steps) for ws in (first, second)]:
                future.result()

    return _pairs(lambda: (_solve(first, seed, dt, steps), _solve(second, seed, dt, steps)),
                  lanes, pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="+", type=_size, metavar="SIDE^DIMS")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--steps", type=int, default=60)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.steps < 1:
        parser.error("--pairs and --steps must be >= 1")
    print(f"{args.pairs} pairs of {args.steps} steps; seconds as median (quartiles)")
    for counts in args.sizes:
        serial, threaded = measure(counts, args.pairs, args.steps)
        speedups = [s / t for s, t in zip(serial, threaded)]
        name = f"{counts[0]}^{len(counts)}"
        print(f"{name:>6} lanes: nodes {math.prod(counts):>7}  "
              f"one {_quartiles(serial)}  two {_quartiles(threaded)}  "
              f"speedup {_quartiles(speedups)}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
