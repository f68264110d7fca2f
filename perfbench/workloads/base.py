"""What the workloads share: the outcome, set-up timing, answer checks
and the read-side end-to-end metrics."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.common import Ledger, median_ms

class SavedDeployment:
    """``collection`` built and saved with its index under a fresh
    directory of the run's workspace; build and save are timed apart."""

    def __init__(self, context, collection, index: int) -> None:
        from repro.collection.io import save_collection
        from repro.core.framework import Flix

        self.root = context.workspace / f"deploy-{index}"
        self.collection_dir = self.root / "collection"
        self.index_dir = self.root / "index"
        started = time.perf_counter()
        self.flix = Flix.build(collection)
        self.build_s = time.perf_counter() - started
        save_collection(collection, self.collection_dir)
        started = time.perf_counter()
        self.flix.save(self.index_dir)
        self.save_s = time.perf_counter() - started


@dataclass
class Outcome:
    ledger: Ledger
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)


def repeat_setup(setup: Callable[[], object],
                 teardown: Callable[[object], None],
                 times: int) -> Tuple[object, List[float]]:
    """Run ``setup`` (inputs -> first answered request) ``times`` times,
    tearing all but the last down before the next starts, so no two are
    alive at once; returns the last state and every duration."""
    durations = []
    state = None
    for _ in range(times):
        if state is not None:
            teardown(state)
            state = None
        started = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - started)
    return state, durations


class Answers:
    """Every distinct answer a run received, kept for the oracle."""

    def __init__(self) -> None:
        self._seen: Dict[object, set] = {}

    def add(self, request, rows, value=None) -> None:
        self._seen.setdefault(request, set()).add((tuple(rows), value))

    def requests(self):
        return self._seen.keys()

    def check(self, oracle, corrupt: Optional[Callable] = None) -> int:
        """Check each against ``oracle``; ``corrupt`` (tests) alters the
        first list answer first.  Returns how many were checked."""
        checked = 0
        for request, answers in self._seen.items():
            for rows, value in sorted(answers, key=repr):
                rows = list(rows)
                if corrupt is not None and rows:
                    rows, corrupt = corrupt(rows), None
                oracle.check(request, rows, value)
                checked += 1
        return checked


#: ``query.time_to_100_ms`` counts answers to ``descendants`` requests
#: limited to this many rows that came back full, where the layer returns
#: rows together
TOP_K = 100


def is_full_top_k(request, rows) -> bool:
    return request.limit == TOP_K and len(rows) == TOP_K


def read_metrics(ledger: Ledger, seconds: float) -> Dict[str, float]:
    """The read-side end-to-end metrics of ``seconds`` of measured loop."""
    return {
        "query_p50_ms": median_ms(ledger.latencies),
        "query_qps": len(ledger.latencies) / seconds,
        "results_per_s": ledger.rows / seconds,
    }


def median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default
