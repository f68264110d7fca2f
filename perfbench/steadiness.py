"""Steadiness report: run one workload N times and judge the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --workload point-http --runs 10
    python3 perfbench/steadiness.py --workload point-http --runs 10 \\
        --first-seed 101 --save b.json --compare a.json

Each run gets its own seed and lasts ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric, ``setup_s`` included,
the report prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the distance
between the quartiles as a share of the median — against the metric's
bound in ``BENCHMARK.json``; a spread under a third of the bound is
steady, one over the bound fails the report.  ``--compare`` reads the
values another invocation saved and prints how far this set's median
moved in the metric's worse direction, against the same bound, and
whether the share of failed operations is the same.  The exit status is 1 when any run fails or a check does not
hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {completed.returncode}\n{completed.stderr}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed} ({result['wall_s']:.0f}s): " + ", ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
        ), file=sys.stderr, flush=True)
    values = {
        m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
        for m in spec["end_to_end"]
    }
    failed_share = [r["failed"] / r["attempted"] for r in results]
    ok = all(r["correct"] for r in results)

    print(f"{args.workload}: {args.runs} runs of {seconds}s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        middle, q1, q3, share = spread(values[name])
        if share < bound / 3:
            verdict = "steady"
        elif share <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            ok = False
        print(f"{name:<26}{middle:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{share:>9.3f}{bound:>7.2f}  {verdict}")
    print(f"failed share per run: {sorted(set(failed_share))}; "
          f"wall time per run: {max(r['wall_s'] for r in results):.0f}s "
          f"at most, {statistics.median(r['wall_s'] for r in results):.0f}s "
          "median")

    if args.compare is not None:
        before = json.loads(args.compare.read_text())
        print(f"against {args.compare}:")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = statistics.median(before["values"][name])
            new = statistics.median(values[name])
            worse = (new - old) / old if metric["better"] == "lower" \
                else (old - new) / old
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            print(f"  {name:<26} median {old:.5g} -> {new:.5g} "
                  f"({worse:+.3f} worse, bound {bound})  {verdict}")
        same = sorted(set(before["failed_share"])) == sorted(set(failed_share))
        print(f"  failed share equal: {same}")
        ok = ok and same
    if args.save is not None:
        args.save.write_text(json.dumps(
            {"workload": args.workload, "values": values,
             "failed_share": failed_share}
        ))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
