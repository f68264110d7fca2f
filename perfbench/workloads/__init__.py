"""The benchmark's workloads, by the name ``--workload`` takes: each
module has ``run(context)`` and ``PER_LAYER``, the per-layer metrics on
its path."""

from perfbench.workloads import cross_shard, ingest_mixed, point_http

WORKLOADS = {
    "point-http": point_http,
    "cross-shard": cross_shard,
    "ingest-mixed": ingest_mixed,
}
