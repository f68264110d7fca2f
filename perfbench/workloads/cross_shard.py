"""``cross-shard``: distributed Figure-4 evaluation across two workers.

The generator's fixed 1,500-record DBLP corpus is built, saved,
planned into two shards and served by two ``repro.shard.worker``
processes.  A
``ShardCoordinator(cross_shard="distributed")`` in the benchmark process
evaluates ``descendants`` and ``path`` requests whose answers hold
elements of both shards, in a closed loop on one thread: this is the
only path that runs ``shard/distributed.py``'s priority-queue loop and
its per-entry ``expand`` RPCs.  No result cache.  The loop runs in
whole rounds of the same 126 distinct requests, one of each form from
each of eighteen strata of reach, so every run asks alike work and a
request's cost does not depend on the round (nothing on the path
caches); each of the three set-ups serves a third of the rounds.
"""

from __future__ import annotations

import json
import random
from array import array
import time

from perfbench.common import (
    Ledger,
    median_ms,
    note,
    peak_rss_mb,
    quantile_ms,
    remove_workspace,
)
from perfbench.layers import (
    FrameCounter,
    build_phases,
    counter_total,
    engine_probe,
    observability_ratio,
    parse_probe,
    pee_counters,
    ping_probe,
    reachable_probe,
    wrap_shard_clients,
)
from perfbench.oracle import Oracle, response_rows
from perfbench.workloads.base import (
    Answers,
    Outcome,
    TOP_K,
    SavedDeployment,
    is_full_top_k,
    median,
    read_metrics,
)

DOCUMENTS = 1500
SHARDS = 2
SETUPS = 3
#: elements reachable from a request's source, as the oracle counts
#: them: the Figure-4 loop pops about one queue entry per reached element
REACH_BAND = (200, 400)
#: the request forms; a round asks each of them of every stratum
FORMS = (
    ("descendants", None), ("path", ("cite", "author")),
    ("top", None), ("descendants", "author"), ("descendants", "title"),
    ("path", ("cite", "title")), ("descendants", "cite"),
)
#: the band's roots, ordered by reach, fall into this many equal strata
STRATA = 18
#: roots the seed draws per stratum and form; a round keeps the first
#: whose answer spans both shards
DRAWS = 6
PROBES = 150
#: what a traced run reports; the other per-layer metrics are off this
#: workload's path
PER_LAYER = (
    "query.p99_ms", "query.time_to_100_ms", "distributed.query_ms",
    "distributed.expand_rpcs_per_query", "delegate.query_ms",
    "shard.ping_us", "shard.frame_bytes_per_query", "engine.query_us",
    "index.reachable_ns", "obs.off_over_on", "xml.parse_us_per_doc",
    "pee.queue_pops_per_query",
    "pee.covered_probes_per_result", "pee.meta_visits_per_query",
    "pee.link_traversals_per_query", "persist.save_s", "persist.load_s",
    "build.graph_s", "build.selection_s", "build.index_s",
)


def candidates(collection, oracle, rng):
    """Per form and stratum, ``(request, oracle answer's nodes)`` for
    ``DRAWS`` roots the seed draws from the stratum.  The roots are the
    record roots whose reach lies in ``REACH_BAND``, ordered by reach and
    cut into ``STRATA`` equal strata, so every seed asks alike work."""
    from repro.core.api import QueryRequest

    roots = sorted(
        (reach, root) for reach, root in (
            (oracle.reach(root, REACH_BAND[1]), root) for root in (
                collection.document_root(n)
                for n in sorted(collection.documents)
            )
        )
        if REACH_BAND[0] <= reach <= REACH_BAND[1]
    )
    size = len(roots) // STRATA
    groups = []
    for kind, argument in FORMS:
        for number in range(STRATA):
            stratum = [root for _, root in
                       roots[number * size:(number + 1) * size]]
            group = []
            for root in rng.sample(stratum, min(DRAWS, len(stratum))):
                if kind == "path":
                    request = QueryRequest.find_path(root, argument)
                elif kind == "top":
                    request = QueryRequest.descendants(root, limit=TOP_K)
                else:
                    request = QueryRequest.descendants(root, tag=argument)
                # the answer's nodes, packed: they wait for the shard map
                group.append(
                    (request, array("l", oracle.expected(request)[0]))
                )
            groups.append(group)
    return groups


def round_requests(groups, shard_map, rng):
    """A round: the first request of each group whose answer holds
    elements of both shards, in seeded order."""
    chosen = []
    for group in groups:
        for request, nodes in group:
            if len({shard_map.shard_of_node(n) for n in nodes}) == SHARDS:
                chosen.append(request)
                break
    rng.shuffle(chosen)
    return chosen


class Deployment(SavedDeployment):
    """A saved, two-shard deployment with its workers and coordinator."""

    def __init__(self, context, collection, index, cross_shard):
        from repro.shard.plan import ShardPlanner, write_shard_map
        from repro.shard.worker import spawn_worker

        super().__init__(context, collection, index)
        self.shard_map = ShardPlanner(SHARDS).plan(self.flix)
        write_shard_map(self.shard_map, self.index_dir)
        self.workers = []
        for shard in range(SHARDS):
            worker = spawn_worker(self.collection_dir, self.index_dir, shard)
            context.children.adopt(worker.process)
            self.workers.append(worker)
        self.coordinator = self.connect(cross_shard)

    def connect(self, cross_shard):
        from repro.shard.coordinator import ShardCoordinator

        return ShardCoordinator.connect(
            self.index_dir, [(w.host, w.port) for w in self.workers],
            cross_shard=cross_shard,
        )

    def close(self, context):
        self.coordinator.close()
        for worker in self.workers:
            context.children.stop(worker.process)


def run(context) -> Outcome:
    from repro.core.api import QueryRequest
    from repro.datasets.dblp import DblpSpec, generate_dblp

    tracer = context.tracer
    # the generator's own corpus for every seed; the seed draws requests
    collection = generate_dblp(DblpSpec(documents=DOCUMENTS))
    # drawn before set-up, by an oracle dropped at once: neither its
    # searches nor its graph are in the timings or the memory peak
    rng = random.Random(context.seed)
    groups = candidates(collection, Oracle(collection), rng)
    first = QueryRequest.children(collection.document_root(
        min(collection.documents)
    ))
    build_times, save_times, setup_times = [], [], []
    ledger, answers, to_100, stats = Ledger(), Answers(), [], []
    #: the seconds of each measured round
    rounds = []

    def ask_round(coordinator, chosen):
        started = time.perf_counter()
        for number, request in enumerate(chosen):
            begun = time.perf_counter()
            try:
                with tracer.span("distributed.query",
                                 len(rounds) << 16 | number):
                    response = coordinator.query(request)
            except Exception as exc:  # a failed operation, counted
                ledger.fail(f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - begun
            if response.completeness != "complete":
                ledger.fail(f"answer {response.completeness}")
                continue
            rows = response_rows(response)
            ledger.ok(elapsed, len(rows))
            if is_full_top_k(request, rows):
                to_100.append(elapsed)
            stats.append(response.stats)
            answers.add(request, rows)
        rounds.append(time.perf_counter() - started)

    # each set-up serves an equal share of the measured rounds, so the
    # loop meets three pairs of worker processes: one pair's speed
    # (a shard round trip took 36 us in one and 57 us in the next) moves
    # the run a third as much.  A set-up is torn down and dropped before
    # the next starts.
    deployment, chosen, rpcs = None, None, 0.0
    for index in range(SETUPS):
        if deployment is not None:
            deployment.close(context)
            remove_workspace(deployment.root)
            deployment = None
        started = time.perf_counter()
        deployment = Deployment(context, collection, index, "distributed")
        deployment.coordinator.query(first)
        setup_times.append(time.perf_counter() - started)
        build_times.append(deployment.build_s)
        save_times.append(deployment.save_s)
        if chosen is None:
            chosen = round_requests(groups, deployment.shard_map, rng)
            groups = None
        # whole rounds, at least one, until the set-ups' rounds have run
        # their share of ``--seconds``
        before = expand_rpcs(deployment.coordinator)
        share = context.seconds * (index + 1) / SETUPS
        asked = len(rounds)
        while len(rounds) == asked or sum(rounds) < share:
            ask_round(deployment.coordinator, chosen)
        rpcs += expand_rpcs(deployment.coordinator) - before
    note("set-ups " + ", ".join(f"{t:.2f}s" for t in setup_times))

    rss = peak_rss_mb(context.children.pids())
    layers = {}
    if tracer.enabled:
        layers = probe_layers(context, deployment, collection, chosen)
        layers["distributed.expand_rpcs_per_query"] = \
            rpcs / max(1, ledger.attempted)
    deployment.close(context)

    started = time.perf_counter()
    checked = answers.check(Oracle(collection), context.corrupt_answer)
    note(f"{len(rounds)} rounds of {len(chosen)}: "
         f"{ledger.attempted} requests in {sum(rounds):.2f}s; "
         f"{checked} answers checked in "
         f"{time.perf_counter() - started:.2f}s")

    end_to_end = read_metrics(ledger, sum(rounds))
    end_to_end.update({
        "setup_s": median(setup_times),
        "index_bytes_per_element":
            deployment.flix.size_bytes() / collection.node_count,
        "peak_rss_mb": rss,
    })
    if tracer.enabled:
        results = sum(s.results_returned for s in stats)
        layers.update({
            "query.p99_ms": quantile_ms(ledger.latencies, 99),
            "query.time_to_100_ms": median_ms(to_100),
            "distributed.query_ms": tracer.median_ms("distributed.query"),
            "persist.save_s": median(save_times),
            **pee_counters(stats, results),
            **build_phases(deployment.flix),
        })
    return Outcome(ledger, end_to_end, layers)


def expand_rpcs(coordinator) -> float:
    """The coordinator's ``flix_shard_expand_rpcs_total``, all shards."""
    return counter_total(json.loads(coordinator.metrics_text("json")),
                         "flix_shard_expand_rpcs_total")


def probe_layers(context, deployment, collection, sent) -> dict:
    """Frames per query, the delegated reference, the shard round trip,
    the engine floor and the cost of observability on the requests the
    loop sent."""
    from repro.core.persistence import load_flix

    tracer = context.tracer
    requests = sent[:PROBES]

    counter = FrameCounter()
    distributed = deployment.connect("distributed")
    delegate = deployment.connect("delegate")
    try:
        wrap_shard_clients(tracer, distributed, counter)
        for request in requests:
            distributed.query(request)
        for number, request in enumerate(requests):
            with tracer.span("delegate.query", number):
                delegate.query(request)
        ping_us = ping_probe(tracer, delegate._clients[0], 400)
    finally:
        distributed.close()
        delegate.close()

    started = time.perf_counter()
    flix = load_flix(collection, deployment.index_dir)
    load_s = time.perf_counter() - started
    engine_probe(tracer, flix, requests)
    return {
        "shard.frame_bytes_per_query": counter.bytes / max(1, len(requests)),
        "delegate.query_ms": tracer.median_ms("delegate.query"),
        "shard.ping_us": ping_us,
        "engine.query_us": tracer.median_ms("engine.query") * 1000.0,
        "persist.load_s": load_s,
        "index.reachable_ns": reachable_probe(
            tracer, flix, context.seed, 20000
        ),
        "obs.off_over_on": observability_ratio(tracer, flix, requests),
        "xml.parse_us_per_doc": parse_probe(
            tracer, list(collection.documents.values())[:400]
        ),
    }
