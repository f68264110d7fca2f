"""FliX benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload point-http --seed 1 \\
        --seconds 12 --trace 0

The workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``.  With ``--trace 0`` the last line of standard
output carries every end-to-end metric; with ``--trace 1`` the same run
records spans around its calls into each layer, writes them to
``.perfbench_work/trace-<workload>-<seed>.json`` and reports every
per-layer metric instead.  Every answer is checked against an
independent BFS oracle; a mismatch prints ``"correct": false`` and
exits 1.  The exit status is 2, with no result line, when the FliX
sources are missing or an injected-latency, fault or toggle variable is
set.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    REPO_ROOT,
    WORK_ROOT,
    BenchmarkError,
    Children,
    OracleMismatch,
    make_workspace,
    remove_workspace,
    require_clean_environment,
    require_sources,
)
from perfbench.tracing import Tracer  # noqa: E402

SPEC_PATH = REPO_ROOT / "BENCHMARK.json"


class Context:
    """What one run hands its workload."""

    def __init__(self, workload, seed, seconds, tracer, workspace, children):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workspace = workspace
        self.children = children
        #: applied to the first list answer before it is checked; the
        #: oracle test sets it to corrupt an answer on purpose
        self.corrupt_answer = None


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def run_workload(context: Context):
    from perfbench.workloads import WORKLOADS

    return WORKLOADS[context.workload].run(context)


def render(spec: dict, outcome, trace: bool, on_path) -> dict:
    """The result object.  It refuses a metric the spec does not declare,
    an end-to-end metric the workload did not measure, and in a traced
    run a per-layer metric the workload did not measure though it is
    ``on_path`` or measured though it is not.  The result line carries
    every declared metric, so one off the workload's path reads 0."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome.per_layer if trace else outcome.end_to_end
    expected = set(on_path) if trace else {m["name"] for m in section}
    unknown = set(measured) - {m["name"] for m in section}
    if unknown:
        raise BenchmarkError(f"undeclared metrics {sorted(unknown)}")
    if set(measured) != expected:
        raise BenchmarkError(
            f"not measured: {sorted(expected - set(measured))}; "
            f"off this workload's path: {sorted(set(measured) - expected)}"
        )
    metrics = {}
    for metric in section:
        value = measured.get(metric["name"], 0.0)
        if not math.isfinite(value):
            raise BenchmarkError(f"{metric['name']} is {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    ledger = outcome.ledger
    return {
        "correct": True,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
        require_clean_environment()
        spec = load_spec()
        from perfbench.workloads import WORKLOADS
    except (BenchmarkError, OSError, ValueError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # a terminated run still stops its workers and servers (``finally``)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tracer = Tracer(enabled=bool(args.trace))
    children = Children()
    workspace = make_workspace(args.workload)
    context = Context(
        args.workload, args.seed, args.seconds, tracer, workspace, children
    )
    try:
        outcome = run_workload(context)
    except OracleMismatch as exc:
        print(f"perfbench: oracle mismatch: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        children.close()
        remove_workspace(workspace)
    if args.trace:
        tracer.write(
            WORK_ROOT / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed,
             "end_to_end_traced": outcome.end_to_end,
             "per_layer": outcome.per_layer},
        )
    try:
        result = render(spec, outcome, bool(args.trace),
                        WORKLOADS[args.workload].PER_LAYER)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if outcome.ledger.failures:
        print("perfbench: failed operations: "
              + "; ".join(outcome.ledger.failures), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
