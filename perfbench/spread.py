"""Median, quartiles and spread of benchmark results.

    python3 perfbench/spread.py RESULTS.jsonl [MORE.jsonl ...]

Each file holds the last output line of several runs of one workload, one
JSON object per line.  For every metric the script prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, plus
the share of failed operations.
"""

import json
import statistics
import sys


def summarize(lines) -> None:
    runs = [json.loads(line) for line in lines if line.strip()]
    failed = {r["failed"] / r["attempted"] for r in runs}
    print(f"{len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
          f"failed share(s)={sorted(failed)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:30s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  {runs[0]['metrics'][name]['unit']}")


def main(paths) -> int:
    for path in paths:
        print(path)
        with open(path) as fh:
            summarize(fh.readlines())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
