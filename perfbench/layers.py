"""Direct probes of single layers, used by the traced runs.

Each probe calls one layer's public entry point on the workload's own
inputs inside a span, so its cost is measured without the layers above
it.  The probes never change the program: the only wrapping is of the
benchmark's own client objects (``wrap_shard_clients``).
"""

from __future__ import annotations

import pickle
import random
import time
from typing import Dict, Iterable, List, Sequence

from perfbench.tracing import Tracer


def pee_counters(stats_list: Sequence, results: int) -> Dict[str, float]:
    """Figure-4 loop counters per query / per result from ``QueryStats``."""
    queries = max(1, len(stats_list))
    return {
        "pee.queue_pops_per_query":
            sum(s.queue_pops for s in stats_list) / queries,
        "pee.covered_probes_per_result":
            sum(s.covered_probes for s in stats_list) / max(1, results),
        "pee.meta_visits_per_query":
            sum(s.meta_document_visits for s in stats_list) / queries,
        "pee.link_traversals_per_query":
            sum(s.link_traversals for s in stats_list) / queries,
    }


def engine_probe(tracer: Tracer, flix, requests) -> List:
    """``Flix.query`` on each request; returns the responses."""
    responses = []
    for number, request in enumerate(requests):
        with tracer.span("engine.query", number):
            responses.append(flix.query(request))
    return responses


def codec_probe(tracer: Tracer, responses) -> None:
    """The front door's JSON codec on each request/response pair, as the
    handler runs it: body -> ``QueryRequest`` and response -> body."""
    import json

    from repro.shard.http import request_from_json, response_to_json

    for number, response in enumerate(responses):
        body = json.dumps(request_json(response.request)).encode()
        with tracer.span("http.codec", number):
            request_from_json(json.loads(body))
            json.dumps(response_to_json(response)).encode()


def request_json(request) -> dict:
    """The ``POST /query`` body for a request the workloads use."""
    body = {"kind": request.kind, "source": request.source}
    for key in ("target", "tag", "limit"):
        value = getattr(request, key)
        if value is not None:
            body[key] = value
    if request.path:
        body["path"] = list(request.path)
    return body


class FrameCounter:
    """Bytes and calls of the shard protocol seen by wrapped clients."""

    def __init__(self) -> None:
        self.calls = 0
        self.bytes = 0


def wrap_shard_clients(tracer: Tracer, coordinator, counter: FrameCounter):
    """Record a ``shard.call`` span and the frame sizes of every RPC the
    benchmark's coordinator sends (the frames are pickled tuples behind a
    4-byte length, as :mod:`repro.shard.protocol` writes them)."""
    for client in coordinator._clients:
        original = client.call

        def call(verb, payload, _original=original):
            with tracer.span("shard.call"):
                reply = _original(verb, payload)
            counter.calls += 1
            counter.bytes += 8 + len(pickle.dumps((verb, payload))) + len(
                pickle.dumps(reply)
            )
            return reply

        client.call = call


def ping_probe(tracer: Tracer, client, count: int) -> float:
    """Median ``ShardClient.call("ping")`` round trip in microseconds."""
    for _ in range(count):
        with tracer.span("shard.ping"):
            client.call("ping", {})
    return tracer.median_ms("shard.ping") * 1000.0


def reachable_probe(tracer: Tracer, flix, seed: int, probes: int) -> float:
    """Nanoseconds per ``PathIndex.reachable`` on seeded in-meta pairs of
    every built meta-document index."""
    rng = random.Random(seed)
    metas = [m for m in flix.meta_documents if m.index is not None]
    pairs = []
    for meta in metas:
        nodes = sorted(meta.nodes)
        for _ in range(max(1, probes // max(1, len(metas)))):
            pairs.append((meta.index, rng.choice(nodes), rng.choice(nodes)))
    with tracer.span("index.reachable_batch"):
        started = time.perf_counter_ns()
        for index, source, target in pairs:
            index.reachable(source, target)
        elapsed = time.perf_counter_ns() - started
    return elapsed / max(1, len(pairs))


def parse_probe(tracer: Tracer, documents: Iterable) -> float:
    """Microseconds per document to parse its serialized XML."""
    from repro.xmlmodel.parser import parse_document
    from repro.xmlmodel.serializer import serialize

    texts = [serialize(d.root, declaration=True) for d in documents]
    with tracer.span("xml.parse_batch"):
        started = time.perf_counter_ns()
        for text in texts:
            parse_document(text)
        elapsed = time.perf_counter_ns() - started
    return elapsed / max(1, len(texts)) / 1000.0


def observability_ratio(tracer: Tracer, flix, requests) -> float:
    """Rows per second through ``Flix.query_stream`` with observability
    off over the same with it on (``flix``), asking each request of both
    instances in turn."""
    from repro.core.api import STREAMING_KINDS
    from repro.core.framework import Flix

    quiet = Flix.build(flix.collection,
                       flix.config.with_observability(False))
    seconds = {flix: 0.0, quiet: 0.0}
    with tracer.span("obs.compare_batch"):
        for request in requests:
            if request.kind not in STREAMING_KINDS:
                continue
            for instance in seconds:
                started = time.perf_counter()
                for _ in instance.query_stream(request):
                    pass
                seconds[instance] += time.perf_counter() - started
    return seconds[flix] / seconds[quiet]


def counter_total(exported: dict, name: str) -> float:
    """A counter's value summed over its labels, from a JSON export of
    the shard metrics registry (``GET /metrics?format=json``)."""
    return sum(
        sample["value"]
        for metric in exported["metrics"]
        if metric["name"] == name
        for sample in metric["samples"]
    )


def build_phases(flix) -> Dict[str, float]:
    totals = flix.report.phase_totals()
    return {
        "build.graph_s": totals["graph"],
        "build.selection_s": totals["selection"],
        "build.index_s": totals["index"],
    }
