"""``point-http``: cheap requests over persistent HTTP/1.1 connections.

The generator's fixed 1,500-record DBLP corpus is built, saved and
served by ``repro serve --shards 2`` (delegate mode, default 4,096-entry
result cache) in its own processes.  Two client threads, each with one
keep-alive connection, send JSON requests in a closed loop.  The
requests — ``children``, ``ancestors``, ``test``, ``cost`` and
``descendants`` limited to 100 rows — are drawn Zipf-skewed from a pool
five times the coordinator cache.  The engine does little here, so the
front door, the codec, the coordinator, the shard protocol and the
cache set the latency.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from itertools import accumulate

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
    codec_probe,
    counter_total,
    engine_probe,
    parse_probe,
    pee_counters,
    ping_probe,
    reachable_probe,
    request_json,
    wrap_shard_clients,
)
from perfbench.oracle import Oracle, json_rows
from perfbench.workloads.base import (
    Answers,
    Outcome,
    TOP_K,
    SavedDeployment,
    is_full_top_k,
    median,
    read_metrics,
    repeat_setup,
)

DOCUMENTS = 1500
SHARDS = 2
CONNECTIONS = 2
#: distinct requests: five times the coordinator's 4,096-entry cache
POOL_SIZE = 5 * 4096
#: web request popularity measures 0.6 to 0.8 (Breslau et al., 1999)
ZIPF_EXPONENT = 0.8
#: largest closure, in elements, of a ``test``/``cost`` source and of
#: an ``ancestors`` source (backwards): a point read touches a
#: neighbourhood, not a citation cascade
FORWARD_CAP = 600
BACKWARD_CAP = 30
#: top-k reads: ``descendants`` limited to ``TOP_K`` rows from a record
#: root or ``cite`` element that reaches 150 to ``FORWARD_CAP`` elements
#: request ``j`` of a connection asks kind ``KIND_PATTERN[j % 20]``, so
#: every run holds the same mix; within a kind, popularity is Zipf
KIND_PATTERN = (
    "children", "ancestors", "test", "children", "top",
    "ancestors", "children", "cost", "test", "children",
    "ancestors", "children", "top", "children", "ancestors",
    "children", "cost", "test", "children", "ancestors",
)
#: set-ups per run (each builds, saves and starts ``repro serve``)
SETUPS = 3
#: requests each traced layer probe replays
PROBES = 400
#: what a traced run reports; the other per-layer metrics are off this
#: workload's path
PER_LAYER = (
    "query.p99_ms", "query.time_to_100_ms", "http.roundtrip_ms",
    "http.codec_us", "http.response_bytes", "coordinator.query_us",
    "coordinator.cache_hit_ratio", "shard.ping_us",
    "shard.frame_bytes_per_query", "engine.query_us", "index.reachable_ns",
    "xml.parse_us_per_doc", "pee.queue_pops_per_query",
    "pee.covered_probes_per_result", "pee.meta_visits_per_query",
    "pee.link_traversals_per_query", "persist.save_s", "persist.load_s",
    "build.graph_s", "build.selection_s", "build.index_s",
)


def request_pool(collection, oracle: Oracle, rng: random.Random):
    """Distinct point requests by kind, most popular first (see the caps
    above; sizes are counted by the oracle)."""
    from repro.core.api import QueryRequest

    roots = [collection.document_root(n) for n in sorted(collection.documents)]
    nodes = sorted(collection.node_ids())
    near_forward = [r for r in roots
                    if oracle.reach(r, FORWARD_CAP) <= FORWARD_CAP]
    near_backward = [
        node for name in sorted(collection.documents)
        if oracle.reach(collection.document_root(name), BACKWARD_CAP,
                        forward=False) <= BACKWARD_CAP
        for node in collection.document_nodes(name)
    ]
    tops = [
        node for node in roots + collection.nodes_with_tag("cite")
        if 150 < oracle.reach(node, FORWARD_CAP) <= FORWARD_CAP
    ]
    makers = {
        "children": lambda: QueryRequest.children(rng.choice(nodes)),
        "ancestors": lambda: QueryRequest.ancestors(rng.choice(near_backward)),
        "test": lambda: QueryRequest.test(rng.choice(near_forward),
                                          rng.choice(nodes)),
        "cost": lambda: QueryRequest.cost(rng.choice(near_forward),
                                          rng.choice(nodes)),
        # ``path`` would be the natural top-k kind, but it ignores
        # ``limit`` (see CHANGES.md)
        "top": lambda: QueryRequest.descendants(rng.choice(tops),
                                                limit=TOP_K),
    }
    pools = {}
    for kind in makers:
        share = KIND_PATTERN.count(kind) * POOL_SIZE // len(KIND_PATTERN)
        pool, seen = [], set()
        while len(pool) < share:
            request = makers[kind]()
            if request not in seen:
                seen.add(request)
                pool.append(request)
        pools[kind] = pool
    return pools


class Deployment(SavedDeployment):
    """One saved deployment served by ``repro serve``."""

    def __init__(self, context, collection, index):
        super().__init__(context, collection, index)
        self.process = context.children.start(
            [sys.executable, "-m", "repro", "serve",
             str(self.collection_dir), str(self.index_dir),
             "--shards", str(SHARDS), "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        self.workers = []
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("repro serve exited during start-up")
            if line.startswith("shard "):
                # "shard N: pid P on HOST:PORT"
                fields = line.split()
                host, port = fields[5].rsplit(":", 1)
                self.workers.append((host, int(port)))
                context.children.add_grandchild(self.process, int(fields[3]))
            elif line.startswith("front door: "):
                address = line.split()[2][len("http://"):]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                break

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)


def post(connection, body: bytes):
    connection.request(
        "POST", "/query", body, {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, response.read()


def run(context) -> Outcome:
    from repro.datasets.dblp import DblpSpec, generate_dblp

    tracer = context.tracer
    # the generator's own corpus for every seed; the seed draws requests
    collection = generate_dblp(DblpSpec(documents=DOCUMENTS))
    # drawn before set-up, by an oracle dropped at once: neither its
    # searches nor its graph are in the timings or the memory peak
    pools = request_pool(collection, Oracle(collection),
                         random.Random(context.seed))
    bodies = {
        kind: [json.dumps(request_json(r)).encode() for r in pool]
        for kind, pool in pools.items()
    }
    cumulative = {
        kind: list(accumulate(
            1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(pool) + 1)
        ))
        for kind, pool in pools.items()
    }
    first = bodies["children"][0]

    def setup():
        deployment = Deployment(context, collection, len(build_times))
        connection = deployment.connection()
        status, _ = post(connection, first)
        connection.close()
        if status != 200:
            raise RuntimeError(f"first request answered {status}")
        build_times.append(deployment.build_s)
        save_times.append(deployment.save_s)
        return deployment

    def teardown(deployment):
        context.children.stop(deployment.process)
        remove_workspace(deployment.root)

    build_times, save_times = [], []
    deployment, setup_times = repeat_setup(setup, teardown, SETUPS)
    note("set-ups " + ", ".join(f"{t:.2f}s" for t in setup_times))

    def client(number: int, deadline_box, ledger, answers, to_100, sizes):
        rng = random.Random(context.seed * 1009 + number)
        connection = deployment.connection()
        sequence = 0
        try:
            while time.perf_counter() < deadline_box[0]:
                kind = KIND_PATTERN[sequence % len(KIND_PATTERN)]
                weights = cumulative[kind]
                index = bisect_left(weights, rng.random() * weights[-1])
                request = pools[kind][index]
                body = bodies[kind][index]
                sequence += 1
                started = time.perf_counter()
                try:
                    request_id = number << 32 | sequence
                    with tracer.span("http.roundtrip", request_id):
                        status, data = post(connection, body)
                except (OSError, http.client.HTTPException) as exc:
                    ledger.fail(f"{type(exc).__name__}: {exc}")
                    connection.close()
                    connection = deployment.connection()
                    continue
                elapsed = time.perf_counter() - started
                if status != 200:
                    ledger.fail(f"HTTP {status}")
                    continue
                payload = json.loads(data)
                if payload["completeness"] != "complete":
                    ledger.fail(f"answer {payload['completeness']}")
                    continue
                rows = json_rows(payload)
                ledger.ok(elapsed, 1 if request.is_scalar else len(rows))
                sizes.append(len(data))
                if is_full_top_k(request, rows):
                    to_100.append(elapsed)
                answers.append((request, rows, payload["value"]))
        finally:
            connection.close()

    def drive(seconds: float):
        deadline = [time.perf_counter() + seconds]
        parts = [(Ledger(), [], [], []) for _ in range(CONNECTIONS)]
        threads = [
            threading.Thread(target=client, args=(n, deadline, *parts[n]))
            for n in range(CONNECTIONS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        ledger = Ledger()
        answers, to_100, sizes = [], [], []
        for part in parts:
            ledger.merge(part[0])
            answers.extend(part[1])
            to_100.extend(part[2])
            sizes.extend(part[3])
        return ledger, answers, to_100, sizes, wall

    drive(min(1.0, context.seconds / 8))  # connections, caches, lazy state
    ledger, received, to_100, sizes, wall = drive(context.seconds)

    connection = deployment.connection()
    connection.request("GET", "/metrics?format=json")
    served_metrics = json.loads(connection.getresponse().read())
    connection.close()
    rss = peak_rss_mb(context.children.pids())

    layers = {}
    if tracer.enabled:
        layers = probe_layers(context, deployment, collection, received)
    context.children.stop(deployment.process)

    started = time.perf_counter()
    answers = Answers()
    for request, rows, value in received:
        answers.add(request, rows, value)
    checked = answers.check(Oracle(collection), context.corrupt_answer)
    note(f"{ledger.attempted} requests in {wall:.2f}s; "
         f"{checked} answers checked in "
         f"{time.perf_counter() - started:.2f}s")

    end_to_end = read_metrics(ledger, wall)
    end_to_end.update({
        "setup_s": median(setup_times),
        "index_bytes_per_element":
            deployment.flix.size_bytes() / collection.node_count,
        "peak_rss_mb": rss,
    })
    if tracer.enabled:
        hits = counter_total(served_metrics, "flix_shard_cache_hits_total")
        misses = counter_total(served_metrics,
                               "flix_shard_cache_misses_total")
        layers.update({
            "query.p99_ms": quantile_ms(ledger.latencies, 99),
            "query.time_to_100_ms": median_ms(to_100),
            "http.roundtrip_ms": tracer.median_ms("http.roundtrip"),
            "http.response_bytes": sum(sizes) / max(1, len(sizes)),
            "coordinator.cache_hit_ratio": hits / max(1, hits + misses),
            "persist.save_s": median(save_times),
            **build_phases(deployment.flix),
        })
    return Outcome(ledger, end_to_end, layers)


def probe_layers(context, deployment, collection, received) -> dict:
    """Per-layer costs of the requests the loop sent, layer by layer."""
    from repro.collection.io import load_collection
    from repro.core.persistence import load_flix
    from repro.shard.coordinator import ShardCoordinator

    tracer = context.tracer
    requests, seen = [], set()
    for request, _, _ in received:
        if request not in seen:
            seen.add(request)
            requests.append(request)
        if len(requests) == PROBES:
            break

    collection = load_collection(deployment.collection_dir)
    started = time.perf_counter()
    flix = load_flix(collection, deployment.index_dir)
    load_s = time.perf_counter() - started
    responses = engine_probe(tracer, flix, requests)
    codec_probe(tracer, responses)

    counter = FrameCounter()
    coordinator = ShardCoordinator.connect(deployment.index_dir,
                                           deployment.workers)
    try:
        wrap_shard_clients(tracer, coordinator, counter)
        for number, request in enumerate(requests):
            with tracer.span("coordinator.query", number):
                coordinator.query(request)
        frames_per_query = counter.bytes / max(1, len(requests))
        ping_us = ping_probe(tracer, coordinator._clients[0], PROBES)
    finally:
        coordinator.close()

    stats = [r.stats for r in responses if r.request.kind != "cost"]
    results = sum(len(r.results) for r in responses)
    return {
        "engine.query_us": tracer.median_ms("engine.query") * 1000.0,
        "http.codec_us": tracer.median_ms("http.codec") * 1000.0,
        "coordinator.query_us":
            tracer.median_ms("coordinator.query") * 1000.0,
        "shard.ping_us": ping_us,
        "shard.frame_bytes_per_query": frames_per_query,
        "persist.load_s": load_s,
        "index.reachable_ns": reachable_probe(
            tracer, flix, context.seed, 20000
        ),
        "xml.parse_us_per_doc": parse_probe(
            tracer, list(collection.documents.values())[:PROBES]
        ),
        **pee_counters(stats, results),
    }
