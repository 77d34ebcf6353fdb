"""Incremental condensation (DAG) maintenance, in the style of DAGGER.

The index-based competitors (TOL, IP, DAGGER) are defined over the DAG of
strongly connected components. On a dynamic graph the condensation itself
must be maintained: an edge insertion may merge a chain of SCCs into one,
and an edge deletion inside an SCC may split it apart (Yildirim et al.,
DAGGER, 2013). :class:`DynamicDAG` keeps the original graph, the
vertex-to-component mapping, the condensation DAG, inter-component edge
multiplicities and topological levels consistent under both operations.

The levels are the one place the serving stack orders components: every
DAG edge strictly increases ``level``, so ``level[a] >= level[b]`` refutes
``a`` reaching ``b``, sorting by level is a topological order, and any
level group can be processed at once. They start as longest-path levels
and are repaired locally: raised along out-edges when an insertion adds a
DAG edge, reassigned on merge and split, untouched by deletions (removing
an edge cannot violate the invariant).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import strongly_connected_components


class DynamicDAG:
    """A directed graph together with its incrementally maintained condensation.

    Component ids are allocated from a private counter and never reused, so
    downstream indexes can detect staleness by id. Callbacks ``on_merge`` /
    ``on_split`` let an index (e.g. DAGGER's interval labels) react to
    condensation changes; ``merge_count`` / ``split_count`` let a caller
    detect them without installing a callback.
    """

    def __init__(self, graph: Optional[DynamicDiGraph] = None) -> None:
        self.graph = graph if graph is not None else DynamicDiGraph()
        self.dag = DynamicDiGraph()
        self.scc_of: Dict[int, int] = {}
        self.members: Dict[int, Set[int]] = {}
        #: component id -> topological level (see the module docstring).
        self.level: Dict[int, int] = {}
        self._edge_multiplicity: Dict[Tuple[int, int], int] = {}
        self._next_cid = 0
        self.merge_count = 0
        self.split_count = 0
        self.on_merge: Optional[Callable[[Set[int], int], None]] = None
        self.on_split: Optional[Callable[[int, List[int]], None]] = None
        if graph is not None:
            self._build_from_scratch()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _fresh_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def _build_from_scratch(self) -> None:
        self.dag = DynamicDiGraph()
        self.scc_of.clear()
        self.members.clear()
        self.level.clear()
        self._edge_multiplicity.clear()
        cids = []
        for comp in strongly_connected_components(self.graph):
            cid = self._fresh_cid()
            cids.append(cid)
            self.dag.add_vertex(cid)
            self.members[cid] = set(comp)
            for v in comp:
                self.scc_of[v] = cid
        for u, v in self.graph.edges():
            cu, cv = self.scc_of[u], self.scc_of[v]
            if cu != cv:
                self._add_dag_edge(cu, cv)
        # Tarjan emits components sinks first, so one pass in reverse
        # emission order yields longest-path-from-source levels.
        level = self.level
        for cid in reversed(cids):
            level[cid] = max(
                (level[p] + 1 for p in self.dag.in_neighbors(cid)), default=0
            )

    def _add_dag_edge(self, cu: int, cv: int) -> None:
        key = (cu, cv)
        count = self._edge_multiplicity.get(key, 0)
        self._edge_multiplicity[key] = count + 1
        if count == 0:
            self.dag.add_edge(cu, cv)

    def _raise_levels(self, start: int) -> None:
        """Restore ``level[a] < level[b]`` on every DAG edge reachable from
        ``start`` after its level was set (or raised)."""
        dag = self.dag
        level = self.level
        stack = [start]
        while stack:
            x = stack.pop()
            lx = level[x]
            for w in dag.out_neighbors(x):
                if level[w] <= lx:
                    level[w] = lx + 1
                    stack.append(w)

    def _remove_dag_edge(self, cu: int, cv: int) -> None:
        key = (cu, cv)
        count = self._edge_multiplicity[key] - 1
        if count == 0:
            del self._edge_multiplicity[key]
            self.dag.remove_edge(cu, cv)
        else:
            self._edge_multiplicity[key] = count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def component_of(self, v: int) -> int:
        """The condensation vertex containing original vertex ``v``."""
        return self.scc_of[v]

    def same_component(self, u: int, v: int) -> bool:
        return self.scc_of.get(u) == self.scc_of.get(v) and u in self.scc_of

    def _dag_reaches(self, src: int, dst: int) -> bool:
        if src == dst:
            return True
        visited = {src}
        queue = deque([src])
        while queue:
            c = queue.popleft()
            for w in self.dag.out_neighbors(c):
                if w == dst:
                    return True
                if w not in visited:
                    visited.add(w)
                    queue.append(w)
        return False

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> None:
        if v in self.scc_of:
            return
        self.graph.add_vertex(v)
        cid = self._fresh_cid()
        self.dag.add_vertex(cid)
        self.members[cid] = {v}
        self.scc_of[v] = cid
        self.level[cid] = 0

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``(u, v)``, merging SCCs if a cycle is created.

        Returns ``True`` if the edge was new.
        """
        self.add_vertex(u)
        self.add_vertex(v)
        if not self.graph.add_edge(u, v):
            return False
        cu, cv = self.scc_of[u], self.scc_of[v]
        if cu == cv:
            return True
        if self._dag_reaches(cv, cu):
            self._merge_cycle(cu, cv)
        else:
            self._add_dag_edge(cu, cv)
            if self.level[cv] <= self.level[cu]:
                self.level[cv] = self.level[cu] + 1
                self._raise_levels(cv)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``(u, v)``, splitting the containing SCC if it breaks apart."""
        if not self.graph.remove_edge(u, v):
            return False
        cu, cv = self.scc_of[u], self.scc_of[v]
        if cu != cv:
            self._remove_dag_edge(cu, cv)
        else:
            self._maybe_split(cu)
        return True

    # ------------------------------------------------------------------
    # Merge / split internals
    # ------------------------------------------------------------------
    def _merge_cycle(self, cu: int, cv: int) -> None:
        """Merge every component on a ``cv -> ... -> cu`` DAG path (plus the
        new back edge ``cu -> cv``) into one component."""
        forward = self._dag_closure(cv, forward=True, stop_at=cu)
        backward = self._dag_closure(cu, forward=False, restrict=forward)
        to_merge = forward & backward  # contains both cu and cv
        new_cid = self._fresh_cid()
        self.dag.add_vertex(new_cid)
        # Pass 1: collect the surviving edge multiplicities before touching
        # the DAG. Edges internal to the merged set are popped (via their
        # source side) and vanish; boundary edges are redirected to new_cid.
        incident: Dict[Tuple[int, int], int] = {}
        for cid in to_merge:
            for w in self.dag.out_neighbors(cid):
                mult = self._edge_multiplicity.pop((cid, w))
                if w not in to_merge:
                    key = (new_cid, w)
                    incident[key] = incident.get(key, 0) + mult
            for w in self.dag.in_neighbors(cid):
                if w in to_merge:
                    continue  # internal edge; popped from its source side
                mult = self._edge_multiplicity.pop((w, cid))
                key = (w, new_cid)
                incident[key] = incident.get(key, 0) + mult
        # Pass 2: rebuild membership and the DAG.
        merged_members: Set[int] = set()
        for cid in to_merge:
            merged_members |= self.members.pop(cid)
            self.dag.remove_vertex(cid)
        for v in merged_members:
            self.scc_of[v] = new_cid
        self.members[new_cid] = merged_members
        for (a, b), mult in incident.items():
            self._edge_multiplicity[(a, b)] = mult
            self.dag.add_edge(a, b)
        # Every predecessor sat below some merged component, so the merged
        # maximum keeps in-edges increasing; out-edges are raised.
        self.level[new_cid] = max(self.level.pop(c) for c in to_merge)
        self._raise_levels(new_cid)
        self.merge_count += 1
        if self.on_merge is not None:
            self.on_merge(to_merge, new_cid)

    def _dag_closure(
        self,
        start: int,
        forward: bool,
        stop_at: Optional[int] = None,
        restrict: Optional[Set[int]] = None,
    ) -> Set[int]:
        """BFS closure over the DAG, optionally restricted to a vertex set."""
        visited = {start}
        queue = deque([start])
        while queue:
            c = queue.popleft()
            if c == stop_at:
                continue
            for w in self.dag.neighbors(c, forward):
                if restrict is not None and w not in restrict:
                    continue
                if w not in visited:
                    visited.add(w)
                    queue.append(w)
        return visited

    def _maybe_split(self, cid: int) -> None:
        """Recompute the SCCs inside component ``cid`` after an internal
        edge deletion, splitting it if it is no longer strongly connected."""
        member_set = self.members[cid]
        if len(member_set) == 1:
            return
        sub = self.graph.subgraph(member_set)
        parts = strongly_connected_components(sub)
        if len(parts) == 1:
            return
        # Drop the old component and its incident DAG edges.
        for w in list(self.dag.out_neighbors(cid)):
            del self._edge_multiplicity[(cid, w)]
        for w in list(self.dag.in_neighbors(cid)):
            del self._edge_multiplicity[(w, cid)]
        self.dag.remove_vertex(cid)
        del self.members[cid]
        old_level = self.level.pop(cid)
        new_cids: List[int] = []
        for comp in parts:
            new_cid = self._fresh_cid()
            new_cids.append(new_cid)
            self.dag.add_vertex(new_cid)
            self.members[new_cid] = set(comp)
            for v in comp:
                self.scc_of[v] = new_cid
        # Re-derive every DAG edge incident to the split members from the
        # original graph (both among the parts and to/from the outside).
        for v in member_set:
            for w in self.graph.out_neighbors(v):
                a, b = self.scc_of[v], self.scc_of[w]
                if a != b:
                    self._add_dag_edge(a, b)
            for w in self.graph.in_neighbors(v):
                if w in member_set:
                    continue  # counted above from the member side
                a, b = self.scc_of[w], self.scc_of[v]
                if a != b:
                    self._add_dag_edge(a, b)
        # Tarjan emits the parts sinks first, so reversing gives a
        # topological order; strictly increasing levels along it satisfy
        # every edge among the parts, and outside predecessors sat below
        # ``old_level`` already.
        for offset, new_cid in enumerate(reversed(new_cids)):
            self.level[new_cid] = old_level + offset
        for new_cid in new_cids:
            self._raise_levels(new_cid)
        self.split_count += 1
        if self.on_split is not None:
            self.on_split(cid, new_cids)

    # ------------------------------------------------------------------
    # Consistency checking (used by the test suite)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Raise ``AssertionError`` if the maintained condensation disagrees
        with one recomputed from scratch, or a level is missing or fails
        to increase along a DAG edge."""
        expected = strongly_connected_components(self.graph)
        expected_sets = {frozenset(comp) for comp in expected}
        actual_sets = {frozenset(mem) for mem in self.members.values()}
        assert expected_sets == actual_sets, "SCC membership diverged"
        expected_edges: Dict[Tuple[int, int], int] = {}
        for u, v in self.graph.edges():
            cu, cv = self.scc_of[u], self.scc_of[v]
            if cu != cv:
                expected_edges[(cu, cv)] = expected_edges.get((cu, cv), 0) + 1
        assert expected_edges == self._edge_multiplicity, (
            "DAG edge multiplicities diverged"
        )
        for (cu, cv) in expected_edges:
            assert self.dag.has_edge(cu, cv)
            assert self.level[cu] < self.level[cv], "level fails on a DAG edge"
        assert self.dag.num_edges == len(expected_edges)
        assert self.level.keys() == self.members.keys(), "levels diverged"
