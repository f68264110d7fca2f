"""The independent oracle every answer is checked against.

It rebuilds the collection's element graph from the parsed documents
themselves — tree edges from each element's children, link edges from
``idref``/``idrefs``/``xlink:href``/``href`` attributes resolved here —
and answers by breadth-first search, forwards and backwards.  No FliX
index, evaluator or union graph is consulted; only the node numbering
comes from the collection, so answers can be compared by id.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from perfbench.common import OracleMismatch

Rows = Sequence[Tuple[int, int]]

#: BFS maps kept for reuse: a run's checks ask the same sources again
CACHE_SIZE = 256


class Oracle:
    """BFS answers over the element graph of ``collection``."""

    def __init__(self, collection) -> None:
        self._collection = collection
        self.successors: Dict[int, Set[int]] = {}
        self.predecessors: Dict[int, Set[int]] = {}
        self.tag: Dict[int, str] = {}
        self._cache: "OrderedDict[tuple, Dict[int, int]]" = OrderedDict()
        self._add(list(collection.documents.values()))

    # ------------------------------------------------------------------
    # the graph
    # ------------------------------------------------------------------
    def _add(self, documents) -> None:
        node_id = self._collection.node_id_of
        anchors_by_doc: Dict[str, Dict[str, int]] = {}
        for document in documents:
            anchors: Dict[str, int] = {}
            for element in document.root.iter():  # document order
                nid = node_id(element)
                self.tag[nid] = element.name
                self.successors.setdefault(nid, set())
                self.predecessors.setdefault(nid, set())
                anchor = element.get("id")
                if anchor:
                    anchors.setdefault(anchor, nid)
                for child in element.children:
                    self._edge(nid, node_id(child))
            anchors_by_doc[document.name] = anchors
        self._anchors = {**getattr(self, "_anchors", {}), **anchors_by_doc}
        for document in documents:
            for element in document.root.iter():
                for target in self._link_targets(document.name, element):
                    source = node_id(element)
                    if target != source:
                        self._edge(source, target)
        self._cache.clear()

    def add_documents(self, documents: Iterable) -> None:
        """Extend the graph with documents just added to the collection
        (their links may point into any document already known)."""
        self._add(list(documents))

    def _edge(self, source: int, target: int) -> None:
        self.successors.setdefault(source, set()).add(target)
        self.predecessors.setdefault(target, set()).add(source)

    def _link_targets(self, document: str, element) -> List[int]:
        targets = []
        local = self._anchors.get(document, {})
        for attribute in ("idref", "idrefs"):
            for fragment in (element.get(attribute) or "").split():
                if fragment in local:
                    targets.append(local[fragment])
        for attribute in ("xlink:href", "href"):
            href = (element.get(attribute) or "").strip()
            if not href or ":" in href.split("#", 1)[0]:
                continue  # empty, or an external URL with a scheme
            name, _, fragment = href.partition("#")
            name = name or document
            if fragment:
                target = self._anchors.get(name, {}).get(fragment)
            elif name in self._collection.documents:
                target = self._collection.document_root(name)
            else:
                target = None
            if target is not None:
                targets.append(target)
        return targets

    # ------------------------------------------------------------------
    # breadth-first search
    # ------------------------------------------------------------------
    def distances(self, source: int, forward: bool = True) -> Dict[int, int]:
        """Hop distance of every node reachable from ``source`` (itself at
        0), over edges forward or reversed."""
        key = (source, forward)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        edges = self.successors if forward else self.predecessors
        seen = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            step = seen[node] + 1
            for nxt in edges.get(node, ()):
                if nxt not in seen:
                    seen[nxt] = step
                    queue.append(nxt)
        self._cache[key] = seen
        if len(self._cache) > CACHE_SIZE:
            self._cache.popitem(last=False)
        return seen

    def reach(self, source: int, cap: int, forward: bool = True) -> int:
        """How many nodes ``distances(source, forward)`` would hold, or
        ``cap + 1`` once there are more than ``cap``; the search stops
        there and nothing is cached."""
        edges = self.successors if forward else self.predecessors
        seen = {source}
        queue = deque([source])
        while queue:
            for nxt in edges.get(queue.popleft(), ()):
                if nxt not in seen:
                    if len(seen) == cap:
                        return cap + 1
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen)

    def _axis(self, source: int, tag: Optional[str], forward: bool,
              include_self: bool) -> Dict[int, int]:
        return {
            node: hops
            for node, hops in self.distances(source, forward).items()
            if (include_self or node != source)
            and (tag is None or self.tag[node] == tag)
        }

    def expected(self, request) -> Tuple[Dict[int, int], Optional[int]]:
        """``(node -> BFS distance, scalar distance)`` for ``request``."""
        kind = request.kind
        if request.max_distance is not None:
            raise ValueError("the oracle checks unbounded requests only")
        if kind in ("descendants", "ancestors"):
            if request.source_tag is not None:
                raise ValueError("the oracle checks a//b requests only")
            return self._axis(
                request.source, request.tag, kind == "descendants",
                request.include_self,
            ), None
        if kind == "children":
            return {
                node: 1 for node in self.successors.get(request.source, ())
                if request.tag is None or self.tag[node] == request.tag
            }, None
        if kind == "path":
            frontier = {request.source: 0}
            for step in request.path:
                following: Dict[int, int] = {}
                for node, hops in frontier.items():
                    for found, more in self._axis(node, step, True,
                                                  False).items():
                        best = following.get(found)
                        if best is None or hops + more < best:
                            following[found] = hops + more
                frontier = following
            return frontier, None
        if kind in ("test", "cost"):
            return {}, self.distances(request.source).get(request.target)
        raise ValueError(f"the oracle does not check {kind!r} requests")

    # ------------------------------------------------------------------
    # the checks
    # ------------------------------------------------------------------
    def check(self, request, rows: Rows, value=None) -> None:
        """Raise :class:`OracleMismatch` unless the answer is right.

        List answers: the node set equals the oracle's (a limited answer
        is a subset of size ``min(limit, |answer|)``), no node repeats,
        and every distance is at least the BFS distance.  ``test`` and
        ``cost``: None exactly when the target is unreachable, otherwise
        at least the BFS distance.
        """
        expected, hops = self.expected(request)
        if request.kind in ("test", "cost"):
            if (value is None) != (hops is None):
                raise OracleMismatch(
                    f"{request.kind} {request.source}->{request.target}: "
                    f"answered {value!r}, BFS distance {hops!r}"
                )
            if value is not None and value < hops:
                raise OracleMismatch(
                    f"{request.kind} {request.source}->{request.target}: "
                    f"distance {value} below BFS distance {hops}"
                )
            return
        nodes = [node for node, _ in rows]
        got = set(nodes)
        if len(got) != len(nodes):
            raise OracleMismatch(f"{_describe(request)}: repeated nodes")
        if request.limit is not None:
            if not got <= set(expected) or len(got) != min(
                request.limit, len(expected)
            ):
                raise OracleMismatch(
                    f"{_describe(request)}: limited answer of {len(got)} "
                    f"is not a subset of size min({request.limit}, "
                    f"{len(expected)})"
                )
        elif got != set(expected):
            missing = sorted(set(expected) - got)[:5]
            extra = sorted(got - set(expected))[:5]
            raise OracleMismatch(
                f"{_describe(request)}: {len(got)} nodes, oracle has "
                f"{len(expected)} (missing {missing}, extra {extra})"
            )
        for node, distance in rows:
            if distance < expected[node]:
                raise OracleMismatch(
                    f"{_describe(request)}: node {node} at distance "
                    f"{distance}, BFS distance {expected[node]}"
                )


def _describe(request) -> str:
    parts = [request.kind, str(request.source)]
    if request.tag:
        parts.append(f"tag={request.tag}")
    if request.path:
        parts.append("path=" + "/".join(request.path))
    if request.limit:
        parts.append(f"limit={request.limit}")
    return " ".join(parts)


def response_rows(response) -> List[Tuple[int, int]]:
    """``(node, distance)`` rows of an in-process ``QueryResponse``."""
    rows = []
    for row in response.results:
        if hasattr(row, "node"):
            rows.append((row.node, row.distance))
        else:
            rows.append((row[0], row[1]))
    return rows


def json_rows(payload: dict) -> List[Tuple[int, int]]:
    """``(node, distance)`` rows of a ``POST /query`` JSON reply."""
    rows = []
    for row in payload["results"]:
        if isinstance(row, dict):
            rows.append((row["node"], row["distance"]))
        else:
            rows.append((row[0], row[1]))
    return rows
