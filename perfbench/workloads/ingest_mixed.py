"""``ingest-mixed``: WAL-backed ingest beside reads, a follower, recovery.

A 600-record DBLP base is built and saved once per set-up.  The measured
loop runs in whole rounds, each the same: the saved snapshot is reopened
as a primary that logs every maintenance verb to a fresh write-ahead log
with ``fsync="commit"``, beside a ``FollowerFlix`` tailing that log.
The round ingests the same 160 new records in batches of 8: each record,
serialized to XML before the clock starts, is parsed again with
``repro.xmlmodel``, the batch goes through ``add_documents``, point reads
ask about the records just added, the follower polls the log, and
``compact()`` runs whenever ``tuning_advice()`` asks for it.  Every round
starts from the same snapshot, so the index a read meets, the memory
peak and the work per round do not depend on how fast the machine ran
the rounds before.  The run ends with a timed ``recover_flix`` of the
last round from its snapshot plus its whole log.  New records cite only
earlier ones, so the forward answers read here never change after their
record is added and the oracle of a round's final collection checks
them all.
"""

from __future__ import annotations

import random
import shutil
import time

from perfbench.common import (
    Ledger,
    OracleMismatch,
    median_ms,
    note,
    peak_rss_mb,
    quantile_ms,
    remove_workspace,
)
from perfbench.layers import build_phases, pee_counters
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

BASE_DOCUMENTS = 600
BATCH = 8
#: batches a round ingests; every round ingests the same records
ROUND_BATCHES = 20
ROUND_DOCUMENTS = BATCH * ROUND_BATCHES
SETUPS = 3
#: sampled requests asked of the follower and the recovered instance
SAMPLES = 40
#: what a traced run reports; the other per-layer metrics are off this
#: workload's path
PER_LAYER = (
    "query.p99_ms", "query.time_to_100_ms", "engine.query_us",
    "xml.parse_us_per_doc", "ingest.docs_per_s",
    "maintenance.add_batch_ms", "maintenance.compact_s",
    "maintenance.compactions", "layout.meta_documents_at_end",
    "wal.append_us", "wal.bytes_per_record", "wal.bytes_per_doc_byte",
    "follower.poll_ms", "follower.records_per_s", "recovery.recover_s",
    "recovery.replay_records_per_s", "persist.save_s", "persist.load_s",
    "pee.queue_pops_per_query", "pee.covered_probes_per_result",
    "pee.meta_visits_per_query", "pee.link_traversals_per_query",
    "build.graph_s", "build.selection_s", "build.index_s",
)


class Round:
    """The saved snapshot reopened under ``root`` as a primary logging to
    a fresh WAL, with a follower tailing the log."""

    def __init__(self, snapshot: SavedDeployment, root) -> None:
        from repro.collection.io import load_collection
        from repro.core.persistence import load_flix
        from repro.wal import FileWalSource, FollowerFlix, wal_path_for

        self.collection_dir = snapshot.collection_dir
        self.index_dir = root / "index"
        shutil.copytree(snapshot.index_dir, self.index_dir)
        started = time.perf_counter()
        self.flix = load_flix(load_collection(self.collection_dir),
                              self.index_dir)
        self.load_s = time.perf_counter() - started
        self.wal_path = wal_path_for(self.index_dir)
        self.flix.enable_wal(self.wal_path, fsync="commit")
        replica = load_flix(load_collection(self.collection_dir),
                            self.index_dir)
        self.follower = FollowerFlix(replica, FileWalSource(self.wal_path))

    def close(self) -> None:
        self.follower.close()
        self.flix.wal.close()


def reads_for(collection, root: int):
    """Point reads on a just-added record: its children, its first 100
    descendants, and a test towards the first record it cites (its own
    title when it cites none)."""
    from repro.core.api import QueryRequest

    cited = sorted(
        n for n in collection.graph.successors(root)
        if collection.tag(n) == "cite"
    )
    targets = sorted(collection.graph.successors(cited[0])) if cited else []
    target = targets[0] if targets else root + 1
    return (
        QueryRequest.children(root),
        QueryRequest.descendants(root, limit=TOP_K),
        QueryRequest.test(root, target),
    )


class Totals:
    """What the measured rounds add up to."""

    def __init__(self) -> None:
        self.ledger, self.answers = Ledger(), Answers()
        self.to_100, self.stats = [], []
        self.docs = self.applied = self.compactions = 0
        self.poll_seconds = self.seconds = 0.0


def ingest_round(tracer, current: Round, incoming, totals: Totals) -> None:
    """One round's measured loop: every batch of ``incoming``, its reads,
    a follower poll and the compactions ``tuning_advice()`` asks for."""
    from repro.collection.document import XmlDocument

    flix, follower, ledger = current.flix, current.follower, totals.ledger
    collection = flix.collection
    started = time.perf_counter()
    for position in range(0, len(incoming), BATCH):
        batch = []
        for name, text in incoming[position:position + BATCH]:
            with tracer.span("xml.parse"):
                batch.append(XmlDocument.from_text(name, text))
        try:
            with tracer.span("maintenance.add_batch"):
                flix.add_documents(batch)
        except Exception as exc:  # a failed operation, counted
            ledger.fail(f"add_documents: {type(exc).__name__}: {exc}")
            continue
        totals.docs += len(batch)
        for document in batch:
            root = collection.document_root(document.name)
            for request in reads_for(collection, root):
                begun = time.perf_counter()
                try:
                    with tracer.span("engine.query"):
                        response = flix.query(request)
                except Exception as exc:  # a failed operation, counted
                    ledger.fail(f"{type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - begun
                if response.completeness != "complete":
                    ledger.fail(f"answer {response.completeness}")
                    continue
                rows = response_rows(response)
                ledger.ok(elapsed, 1 if request.is_scalar else len(rows))
                if is_full_top_k(request, rows):
                    totals.to_100.append(elapsed)
                if request.kind != "children":
                    totals.stats.append(response.stats)
                totals.answers.add(request, rows, response.value)
        begun = time.perf_counter()
        with tracer.span("follower.poll"):
            totals.applied += follower.poll()
        totals.poll_seconds += time.perf_counter() - begun
        if flix.tuning_advice().should_compact:
            with tracer.span("maintenance.compact"):
                flix.compact()
            totals.compactions += 1
    totals.seconds += time.perf_counter() - started
    totals.applied += follower.poll()


def run(context) -> Outcome:
    from repro.collection.builder import build_collection
    from repro.collection.document import XmlDocument
    from repro.collection.io import load_collection
    from repro.datasets.dblp import DblpSpec, generate_dblp_documents
    from repro.wal import read_wal, recover_flix
    from repro.xmlmodel.serializer import serialize

    tracer = context.tracer
    spec = DblpSpec(documents=BASE_DOCUMENTS + ROUND_DOCUMENTS,
                    seed=context.seed)

    # every record as XML text, as a client sends it; the generated
    # trees are dropped, so they are not in the memory peak
    texts = [(d.name, serialize(d.root, declaration=True))
             for d in generate_dblp_documents(spec)]
    base_texts, incoming = texts[:BASE_DOCUMENTS], texts[BASE_DOCUMENTS:]
    del texts

    # a set-up parses the base, builds and saves it, opens a round on the
    # saved snapshot (the built instance dropped) and answers a first
    # read; each is closed and dropped before the next starts, and the
    # last one's snapshot starts every round
    snapshot, setup_times, save_times, load_times = None, [], [], []
    for index in range(SETUPS):
        if snapshot is not None:
            remove_workspace(snapshot.root)
            snapshot = None
        started = time.perf_counter()
        documents = [XmlDocument.from_text(n, t) for n, t in base_texts]
        snapshot = SavedDeployment(context, build_collection(documents),
                                   index)
        phases = build_phases(snapshot.flix)
        snapshot.flix = None
        opened = Round(snapshot, snapshot.root / "round")
        collection = opened.flix.collection
        opened.flix.query(reads_for(
            collection, collection.document_root(documents[0].name)
        )[0])
        setup_times.append(time.perf_counter() - started)
        save_times.append(snapshot.save_s)
        load_times.append(opened.load_s)
        opened.close()
        del documents, opened, collection
    note("set-ups " + ", ".join(f"{t:.2f}s" for t in setup_times))

    # whole rounds until their loops have run ``--seconds``; each round
    # is closed and dropped before the next opens, and memory is read
    # after the first, before any recovery or oracle adds to the peak
    totals, rounds, rss, current = Totals(), 0, None, None
    while rounds == 0 or totals.seconds < context.seconds:
        if current is not None:
            current.close()
            remove_workspace(current.index_dir.parent)
            current = None
        current = Round(snapshot, context.workspace / f"round-{rounds}")
        ingest_round(tracer, current, incoming, totals)
        rounds += 1
        if rss is None:
            rss = peak_rss_mb()
            flix = current.flix
            size = flix.size_bytes() / flix.collection.node_count
    flix, follower = current.flix, current.follower
    collection = flix.collection

    wal_bytes = current.wal_path.stat().st_size
    records, _ = read_wal(current.wal_path)
    started = time.perf_counter()
    recovered, report = recover_flix(
        load_collection(current.collection_dir), current.index_dir,
        attach=False,
    )
    recovery_s = time.perf_counter() - started

    started = time.perf_counter()
    oracle = Oracle(collection)
    checked = totals.answers.check(oracle, context.corrupt_answer)
    fingerprint = flix.index_fingerprint()
    rng = random.Random(context.seed)
    for name, replica in (("follower", follower.flix),
                          ("recovered", recovered)):
        if replica.index_fingerprint() != fingerprint:
            raise OracleMismatch(f"{name} index_fingerprint differs")
        asked = list(totals.answers.requests())
        for request in rng.sample(asked, min(SAMPLES, len(asked))):
            response = replica.query(request)
            oracle.check(request, response_rows(response), response.value)
    current.close()
    ledger = totals.ledger
    note(f"{rounds} rounds: {totals.docs} records, {ledger.attempted} "
         f"operations in {totals.seconds:.2f}s; "
         f"{totals.compactions} compactions; recovery {recovery_s:.2f}s "
         f"({report.records_applied} records); {checked} answers checked "
         f"in {time.perf_counter() - started:.2f}s")

    end_to_end = read_metrics(ledger, totals.seconds)
    end_to_end.update({
        "setup_s": median(setup_times),
        "index_bytes_per_element": size,
        "peak_rss_mb": rss,
    })
    layers = {}
    if tracer.enabled:
        results = sum(s.results_returned for s in totals.stats)
        log_records = [r for r in records if r.verb != "begin"]
        layers = {
            "query.p99_ms": quantile_ms(ledger.latencies, 99),
            "query.time_to_100_ms": median_ms(totals.to_100),
            "engine.query_us": tracer.median_ms("engine.query") * 1000.0,
            "xml.parse_us_per_doc": tracer.median_ms("xml.parse") * 1000.0,
            "ingest.docs_per_s": totals.docs / totals.seconds,
            "maintenance.add_batch_ms":
                tracer.median_ms("maintenance.add_batch"),
            "maintenance.compact_s":
                tracer.median_ms("maintenance.compact") / 1000.0,
            "maintenance.compactions": totals.compactions / rounds,
            "layout.meta_documents_at_end": float(len(flix.meta_documents)),
            "wal.append_us": wal_append_us(context, log_records),
            "wal.bytes_per_record": wal_bytes / max(1, len(log_records)),
            "wal.bytes_per_doc_byte":
                wal_bytes / sum(len(t.encode()) for _, t in incoming),
            "follower.poll_ms": tracer.median_ms("follower.poll"),
            "follower.records_per_s":
                totals.applied / max(1e-9, totals.poll_seconds),
            "recovery.recover_s": recovery_s,
            "recovery.replay_records_per_s":
                report.records_applied / recovery_s,
            "persist.save_s": median(save_times),
            "persist.load_s": median(load_times),
            **pee_counters(totals.stats, results),
            **phases,
        }
    return Outcome(ledger, end_to_end, layers)


def wal_append_us(context, records) -> float:
    """Microseconds per append of a round's records to a scratch log
    under the same fsync policy."""
    from repro.wal import WriteAheadLog

    log = WriteAheadLog(context.workspace / "scratch.log", fsync="commit")
    try:
        with context.tracer.span("wal.append_batch"):
            started = time.perf_counter()
            for record in records:
                log.append(record.verb, record.generation, record.payload)
            elapsed = time.perf_counter() - started
    finally:
        log.close()
    return elapsed / max(1, len(records)) * 1e6
