"""Waits-for-graph deadlock detection over transaction families.

Two-phase locking across competing families can deadlock (family A
holds O1 and waits for O2; family B holds O2 and waits for O1).  The
paper does not address this; we add the standard database solution:
maintain a waits-for graph at family granularity, check for a cycle on
every new wait edge, and abort the *youngest* family in the cycle (the
one whose root has the highest serial — it has done the least work).

Nodes of the graph are root serials.  Edges are derived per directory
entry and keyed by *conflict*, not by mere co-presence: each waiting
family's edge set is exactly the holder/retainer families whose modes
its head request conflicts with
(:meth:`repro.gdo.entry.DirectoryEntry.waits_for_edges`), so two
semantically commuting holders never contribute a spurious cycle.
Edges are refreshed whenever an entry's holder set or waiter set
changes, so ownership handoffs never leave stale edges.

Only an added edge can close a cycle: removing edges never creates
one.  So the detector keeps one flag, raised when a refresh gives some
waiter a blocker it did not have on that entry before, and searches
only while it is up.  A search that finds nothing proves the graph
acyclic and lowers the flag; until the next added edge every
``find_cycle`` returns ``None`` without building the adjacency.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Set

from repro.util.ids import ObjectId


class DeadlockDetector:
    """Family-granularity waits-for graph with cycle search."""

    def __init__(self) -> None:
        # entry -> {waiting family root -> blocking family roots}
        self._entry_waits: Dict[ObjectId, Dict[int, FrozenSet[int]]] = {}
        # Raised by a refresh that adds an edge; lowered only by a
        # search that finds no cycle.
        self._edges_added = False

    def update_entry(self, object_id: ObjectId,
                     edges: Mapping[int, FrozenSet[int]]) -> None:
        """Refresh the wait edges contributed by one directory entry.

        ``edges`` maps each waiting family root to the roots actually
        blocking it on this entry (conflict-keyed, self-edges pruned
        here).  Waiters with no blockers contribute nothing, so an
        empty mapping clears the entry."""
        pruned: Dict[int, FrozenSet[int]] = {}
        for waiter, blocking in edges.items():
            blocking = frozenset(blocking) - {waiter}
            if blocking:
                pruned[waiter] = blocking
        previous = self._entry_waits.get(object_id, {})
        if not self._edges_added:
            self._edges_added = any(
                not blocking <= previous.get(waiter, frozenset())
                for waiter, blocking in pruned.items()
            )
        if pruned:
            self._entry_waits[object_id] = pruned
        else:
            self._entry_waits.pop(object_id, None)

    def drop_family(self, root: int) -> None:
        """Remove one family from every edge (crash-aborted families).

        Per-entry refreshes already cover entries the crashed family
        touched; this is the safety net guaranteeing no stale edge can
        keep the dead family in a cycle and no survivor can be chosen
        as a victim of a ghost.
        """
        for object_id in list(self._entry_waits):
            edges = self._entry_waits[object_id]
            if root not in edges and not any(
                root in blocking for blocking in edges.values()
            ):
                continue
            self.update_entry(object_id, {
                waiter: blocking - {root}
                for waiter, blocking in edges.items()
                if waiter != root
            })

    def edges(self) -> Dict[int, Set[int]]:
        """Adjacency: family -> families it waits for."""
        adjacency: Dict[int, Set[int]] = {}
        for entry_edges in self._entry_waits.values():
            for waiter, blocking in entry_edges.items():
                adjacency.setdefault(waiter, set()).update(blocking)
        return adjacency

    def find_cycle(self) -> Optional[List[int]]:
        """Return the first waits-for cycle, or None.

        One DFS forest: starts are the waiting families in sorted
        order, neighbours are visited in sorted order, and the
        ``visited`` set is shared across starts.  A node finished
        without a cycle reaches none, so no later path can close a
        cycle through it: skipping it cannot change which back edge is
        found first, and the cycle is the one a fresh search from each
        start in turn would return.
        """
        if not self._edges_added:
            return None
        adjacency = self.edges()
        visited: Set[int] = set()
        path: List[int] = []
        on_path: Set[int] = set()

        def dfs(node: int) -> Optional[List[int]]:
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for target in sorted(adjacency.get(node, ())):
                if target in on_path:
                    return path[path.index(target):]
                if target not in visited:
                    found = dfs(target)
                    if found is not None:
                        return found
            path.pop()
            on_path.discard(node)
            return None

        for start in sorted(adjacency):
            if start not in visited:
                found = dfs(start)
                if found is not None:
                    return found
        self._edges_added = False
        return None

    def pick_victim(self, cycle: List[int]) -> int:
        """Youngest family = highest root serial = least work lost."""
        return max(cycle)
