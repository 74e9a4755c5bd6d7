"""Unit tests for the deadlock detector, directory partitioning, and
holder-list cache tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdo.cache import EntryCacheTracker
from repro.gdo.deadlock import DeadlockDetector
from repro.gdo.directory import Directory
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId

N0, N1, N2 = NodeId(0), NodeId(1), NodeId(2)
O0, O1, O2 = ObjectId(0), ObjectId(1), ObjectId(2)


def _edges(waiting, blocking):
    """Legacy-shaped edge set: every waiter blocked by every blocker."""
    return {waiter: frozenset(blocking) for waiter in waiting}


class TestDeadlockDetector:
    def test_no_edges_no_cycle(self):
        detector = DeadlockDetector()
        assert detector.find_cycle() is None

    def test_two_family_cycle(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        assert detector.find_cycle() == [1, 2]

    def test_three_family_cycle(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({3})))
        detector.update_entry(O2, _edges(frozenset({3}), frozenset({1})))
        assert detector.find_cycle() == [1, 2, 3]

    def test_chain_is_not_cycle(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({3})))
        assert detector.find_cycle() is None

    def test_self_edges_ignored(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({1, 2})))
        assert detector.find_cycle() is None
        assert detector.edges() == {1: {2}}

    def test_entry_update_replaces_edges(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        # Family 2 got the lock on O1: edge disappears, cycle broken.
        detector.update_entry(O1, _edges(frozenset(), frozenset({2})))
        assert detector.find_cycle() is None

    def test_clear_entry(self):
        # An entry with no waiters left clears its contribution.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O0, {})
        assert detector.edges() == {}
        assert detector.find_cycle() is None

    def test_victim_is_youngest(self):
        detector = DeadlockDetector()
        assert detector.pick_victim([5, 9, 2]) == 9

    def test_waiting_families_view(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1, 3}), frozenset({2})))
        assert set(detector.edges()) == {1, 3}

    def test_multi_waiter_multi_blocker_edges(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1, 2}), frozenset({3, 4})))
        edges = detector.edges()
        assert edges[1] == {3, 4}
        assert edges[2] == {3, 4}

    def test_pure_self_wait_is_not_a_deadlock(self):
        # A family queued behind itself (lock upgrade paths) must not
        # read as a one-node cycle.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({1})))
        assert detector.find_cycle() is None
        assert detector.edges().get(1, set()) == set()

    def test_overlapping_cycles_share_a_family(self):
        # 1 -> 2 -> 1 and 2 -> 3 -> 2 share family 2: the search finds
        # the cycle through the smallest start first, and breaking one
        # cycle must leave the other detectable.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1, 3})))
        detector.update_entry(O2, _edges(frozenset({3}), frozenset({2})))
        assert detector.find_cycle() == [1, 2]
        # Family 1 stops waiting: the 2<->3 cycle remains.
        detector.update_entry(O0, {})
        assert detector.find_cycle() == [2, 3]
        # Abort family 3: its cycle dissolves, the 1<->2 cycle
        # re-forms once family 1 waits again.
        detector.drop_family(3)
        assert detector.find_cycle() is None
        assert 3 not in detector.edges()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        assert detector.find_cycle() == [1, 2]

    def test_per_waiter_edges_are_independent(self):
        # Conflict-keyed edges: two waiters on the same entry may be
        # blocked by *different* families (a semantic waiter commutes
        # with some holders).  The detector must not union them.
        detector = DeadlockDetector()
        detector.update_entry(O0, {1: frozenset({3}), 2: frozenset({4})})
        edges = detector.edges()
        assert edges[1] == {3}
        assert edges[2] == {4}

    def test_waiter_with_no_blockers_contributes_nothing(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, {1: frozenset(), 2: frozenset({3})})
        assert detector.edges() == {2: {3}}

    def test_pick_victim_is_stable_under_rotation(self):
        # The victim is a function of the cycle's membership, not of
        # the node the DFS happened to enter it from.
        detector = DeadlockDetector()
        cycle = [4, 7, 2]
        rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
        assert {detector.pick_victim(rot) for rot in rotations} == {7}

    def test_drop_family_clears_crash_aborted_edges(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        # Family 2 dies in a node crash: both edges involving it go,
        # and family 1 is no longer part of any cycle.
        detector.drop_family(2)
        assert detector.find_cycle() is None
        assert detector.edges() == {}

    def test_drop_family_keeps_unrelated_edges(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1, 5}), frozenset({2, 6})))
        detector.drop_family(5)
        edges = detector.edges()
        assert edges[1] == {2, 6}
        assert 5 not in edges

    def test_clear_entry_after_crash_release(self):
        # crash_release frees a dead family's entries; clearing the
        # entry must remove its contributed edges even if drop_family
        # was never called for the survivors.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({3}), frozenset({4})))
        detector.update_entry(O0, {})
        assert detector.find_cycle() is None
        assert detector.edges() == {3: {4}}

    def test_removal_after_empty_search_skips_the_search(self, monkeypatch):
        # Only an added edge can close a cycle: once a search came back
        # empty, removal-only refreshes must not rebuild the adjacency.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2, 3})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({3})))
        assert detector.find_cycle() is None
        builds = _count_builds(detector, monkeypatch)
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({3})))
        detector.drop_family(3)
        detector.update_entry(O1, {})
        assert detector.find_cycle() is None
        assert builds == []

    def test_new_blocker_for_a_known_waiter_reopens_the_search(self):
        # A grant can give a family already waiting on an entry one more
        # blocker; that added edge alone may close the cycle.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({3})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        assert detector.find_cycle() is None
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2, 3})))
        assert detector.find_cycle() == [1, 2]

    def test_added_edge_reopens_the_search(self, monkeypatch):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        assert detector.find_cycle() is None
        builds = _count_builds(detector, monkeypatch)
        # Same blockers again: nothing added, still gated.
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        assert detector.find_cycle() is None
        assert builds == []
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        assert detector.find_cycle() == [1, 2]
        # A found cycle keeps the gate open until a search is empty.
        assert detector.find_cycle() == [1, 2]
        assert len(builds) == 2


def _count_builds(detector, monkeypatch):
    """Record every adjacency build the detector makes from now on."""
    builds = []
    build = detector.edges

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(detector, "edges", counted)
    return builds


def _reference_find_cycle(adjacency):
    """The ungated detector: a fresh DFS from each waiting family in
    sorted order, neighbours in sorted order, no pruning."""
    for start in sorted(adjacency):
        path, on_path, visited = [], set(), set()

        def dfs(node):
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

        found = dfs(start)
        if found is not None:
            return found
    return None


FAMILIES = st.integers(min_value=1, max_value=6)
OBJECTS = st.integers(min_value=0, max_value=3)
# update: replace an entry's edges (empty and self edges included);
# grow: a grant gives one waiter on an entry one more blocker, keeping
# its others; drop: a crash-aborted family leaves every edge.
_STEP = st.one_of(
    st.tuples(st.just("update"), OBJECTS,
              st.dictionaries(FAMILIES, st.frozensets(FAMILIES, max_size=3),
                              max_size=4)),
    st.tuples(st.just("grow"), OBJECTS, st.tuples(FAMILIES, FAMILIES)),
    st.tuples(st.just("drop"), FAMILIES, st.none()),
)


class TestGatedSearchMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(_STEP, max_size=25))
    def test_victim_loop_matches_ungated_search(self, steps):
        detector = DeadlockDetector()
        waits = {}  # object -> the edges last refreshed into the detector

        def refresh(object_id, edges):
            waits[object_id] = edges
            detector.update_entry(object_id, edges)

        for kind, arg, edges in steps:
            if kind == "update":
                refresh(ObjectId(arg), edges)
            elif kind == "grow":
                waiter, blocker = edges
                entry = dict(waits.get(ObjectId(arg), {}))
                entry[waiter] = entry.get(waiter, frozenset()) | {blocker}
                refresh(ObjectId(arg), entry)
            else:
                detector.drop_family(arg)
                for object_id, entry in waits.items():
                    waits[object_id] = {waiter: blocking - {arg}
                                        for waiter, blocking in entry.items()
                                        if waiter != arg}
            # The lock manager's victim loop: abort the youngest family
            # in each cycle (it stops waiting) until none remains.
            while True:
                expected = _reference_find_cycle(detector.edges())
                cycle = detector.find_cycle()
                assert cycle == expected
                if cycle is None:
                    break
                victim = detector.pick_victim(cycle)
                for object_id, entry in list(waits.items()):
                    if victim in entry:
                        refresh(object_id, {waiter: blocking
                                            for waiter, blocking in entry.items()
                                            if waiter != victim})


class TestDirectory:
    def test_requires_nodes(self):
        with pytest.raises(Exception):
            Directory([])

    def test_round_robin_partitioning(self):
        directory = Directory([N0, N1, N2])
        assert directory.home_node(O0) == N0
        assert directory.home_node(O1) == N1
        assert directory.home_node(ObjectId(5)) == N2

    def test_register_and_lookup(self):
        directory = Directory([N0, N1])
        entry = directory.register(O0, page_count=4, creator_node=N1)
        assert directory.entry(O0) is entry
        assert entry.home_node == N0
        assert entry.page_count == 4
        assert O0 in directory
        assert len(directory) == 1

    def test_double_register_rejected(self):
        directory = Directory([N0])
        directory.register(O0, page_count=1, creator_node=N0)
        with pytest.raises(ProtocolError):
            directory.register(O0, page_count=1, creator_node=N0)

    def test_missing_entry_rejected(self):
        with pytest.raises(ProtocolError):
            Directory([N0]).entry(O0)


class TestEntryCacheTracker:
    def test_miss_then_hit(self):
        tracker = EntryCacheTracker()
        assert not tracker.is_local(O0, N0)
        tracker.on_granted(O0, N0)
        assert tracker.is_local(O0, N0)
        assert tracker.stats.hits == 1
        assert tracker.stats.misses == 1

    def test_other_site_misses(self):
        tracker = EntryCacheTracker()
        tracker.on_granted(O0, N0)
        assert not tracker.is_local(O0, N1)

    def test_regrant_moves_cache_site(self):
        tracker = EntryCacheTracker()
        tracker.on_granted(O0, N0)
        tracker.on_granted(O0, N1)
        assert tracker.cache_site(O0) == N1
        assert tracker.stats.invalidations == 1

    def test_freed_clears_cache(self):
        tracker = EntryCacheTracker()
        tracker.on_granted(O0, N0)
        tracker.on_freed(O0)
        assert tracker.cache_site(O0) is None
        assert not tracker.is_local(O0, N0)

    def test_disabled_tracker_never_hits(self):
        tracker = EntryCacheTracker(enabled=False)
        tracker.on_granted(O0, N0)
        assert not tracker.is_local(O0, N0)
        assert tracker.stats.hit_rate == 0.0

    def test_hit_rate(self):
        tracker = EntryCacheTracker()
        tracker.on_granted(O0, N0)
        tracker.is_local(O0, N0)
        tracker.is_local(O0, N1)
        assert tracker.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_safe(self):
        assert EntryCacheTracker().stats.hit_rate == 0.0
