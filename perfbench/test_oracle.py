"""The benchmark's oracle must catch wrong answers.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_oracle.py
"""

from __future__ import annotations

import pytest

from perfbench.common import (
    Children,
    OracleMismatch,
    make_workspace,
    remove_workspace,
    require_sources,
)

require_sources()

from repro.core.api import QueryRequest  # noqa: E402
from repro.core.framework import Flix  # noqa: E402
from repro.datasets.dblp import DblpSpec, generate_dblp  # noqa: E402

from perfbench.oracle import Oracle, response_rows  # noqa: E402
from perfbench.run import Context, run_workload  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def deployment():
    collection = generate_dblp(DblpSpec(documents=80, seed=3))
    return collection, Flix.build(collection), Oracle(collection)


def _late_root(collection):
    # the last records cite the most, so their closures are largest
    return collection.document_root(max(collection.documents))


def test_oracle_graph_matches_the_collection(deployment):
    collection, _, oracle = deployment
    for node in collection.node_ids():
        expected = set(collection.graph.successors(node))
        assert oracle.successors[node] == expected


def test_correct_answers_pass(deployment):
    collection, flix, oracle = deployment
    root = _late_root(collection)
    first = collection.document_root(min(collection.documents))
    for request in (
        QueryRequest.descendants(root),
        QueryRequest.descendants(root, tag="author", limit=3),
        QueryRequest.ancestors(root + 1),
        QueryRequest.children(root),
        QueryRequest.find_path(root, ("cite", "author")),
        QueryRequest.test(root, first),
        QueryRequest.cost(root, first),
    ):
        response = flix.query(request)
        oracle.check(request, response_rows(response), response.value)


@pytest.mark.parametrize("corruption", [
    "drop", "add", "repeat", "closer", "overfull-limit",
])
def test_corrupted_list_answers_fail(deployment, corruption):
    collection, flix, oracle = deployment
    root = _late_root(collection)
    request = QueryRequest.descendants(root)
    rows = response_rows(flix.query(request))
    assert len(rows) > 2
    if corruption == "drop":
        rows = rows[1:]
    elif corruption == "add":
        rows = rows + [(root, 1)]  # a node is not its own descendant
    elif corruption == "repeat":
        rows = rows + rows[:1]
    elif corruption == "closer":
        node, distance = max(rows, key=lambda row: row[1])
        rows = [r for r in rows if r[0] != node] + [(node, 0)]
    else:
        request = QueryRequest.descendants(root, limit=1)
    with pytest.raises(OracleMismatch):
        oracle.check(request, rows)


def test_wrong_reachability_fails(deployment):
    collection, flix, oracle = deployment
    root = _late_root(collection)
    unreachable = QueryRequest.test(collection.document_root(
        min(collection.documents)), root)
    assert flix.query(unreachable).value is None
    with pytest.raises(OracleMismatch):
        oracle.check(unreachable, [], 3)
    reachable = QueryRequest.test(root, root + 1)
    with pytest.raises(OracleMismatch):
        oracle.check(reachable, [], None)


def test_a_corrupted_answer_fails_the_run():
    workspace = make_workspace("oracle-test")
    children = Children()
    context = Context("ingest-mixed", 1, 0.5, Tracer(False), workspace,
                      children)
    context.corrupt_answer = lambda rows: rows[:-1] + [(rows[-1][0], -1)]
    try:
        with pytest.raises(OracleMismatch):
            run_workload(context)
    finally:
        children.close()
        remove_workspace(workspace)
