"""Serializability oracle.

O2PL here is *strict* (every lock is held to root commit/abort), so a
concurrent run must be equivalent to executing the committed roots
serially in commit order.  The oracle replays the recorded creations
and commits on a fresh single-node cluster and compares (a) the final
authoritative state of every object and (b) every root's return value.
Any divergence means a consistency or locking bug — this is the main
end-to-end correctness check of the reproduction, and every protocol
must pass it on random workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.gdo.entry import LockMode
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.executor import freeze_args, thaw_args
from repro.txn.semantic import base_of
from repro.util.ids import ObjectId


def _grant_conflict(tables: Dict, left, right) -> bool:
    """Conflict between two recorded grant modes, judged against the
    lock manager's *honest* commutativity registry — not the tables
    the mode objects carry, which a test mutation may have wrapped."""
    left_tag = getattr(left, "tag", None)
    right_tag = getattr(right, "tag", None)
    if left_tag is not None and right_tag is not None:
        left_cls, _, left_method = left_tag.partition(".")
        right_cls, _, right_method = right_tag.partition(".")
        table = tables.get(left_cls)
        if (left_cls == right_cls and table is not None
                and table.commutes(left_method, right_method)):
            return False
    return (base_of(left) is LockMode.WRITE
            or base_of(right) is LockMode.WRITE)


@dataclass
class VerificationReport:
    """Outcome of one serializability check."""

    equivalent: bool
    state_mismatches: List[str] = field(default_factory=list)
    result_mismatches: List[str] = field(default_factory=list)
    committed_roots: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def replay_serially(cluster: Cluster,
                    config: Optional[ClusterConfig] = None) -> Cluster:
    """Re-execute a cluster's committed history on one node, serially.

    Object ids are allocated in creation order on both clusters, so
    identity is preserved by construction.
    """
    if config is None:
        # faults=None: the serial oracle must replay the *committed*
        # history on a clean cluster — re-injecting the fault plan
        # would perturb (or, with crash events, outright reject) the
        # single-node replay.  tiebreak="fifo" likewise: the replay is
        # the reference, so it must not inherit a perturbed schedule.
        # transport="sim" always: the oracle is a deterministic
        # single-node re-execution, so real sockets would add nothing
        # but wall-clock time and nondeterminism.
        # semantic_locks=False: the replay is the *plain* serial
        # semantics every semantic grant must be equivalent to — the
        # oracle must not inherit the relaxation it is judging.
        # trace=False: the oracle reads only the replay's state digest
        # and commit log, so a trace of it would be recorded unread —
        # and tracing never changes what a run computes.
        config = replace(
            cluster.config, num_nodes=1, scheduler="round_robin",
            audit_accesses=False, faults=None, tiebreak="fifo",
            transport="sim", transport_processes=False,
            semantic_locks=False, trace=False,
        )
    serial = Cluster(config)
    for record in cluster.creation_log:
        handle = serial.create(record.schema, initial=dict(record.initial))
        if handle.object_id != record.object_id:
            raise RuntimeError(
                f"replay id drift: {handle.object_id!r} vs {record.object_id!r}"
            )
    for record in cluster.commit_log:
        handle = serial.handle(record.object_id)
        args = thaw_args(
            record.frozen_args,
            lambda value: serial.handle(ObjectId(value)),
        )
        serial.call(handle, record.method_name, *args)
    return serial


def check_serializability(cluster: Cluster) -> VerificationReport:
    """Replay serially and diff states and results."""
    serial = replay_serially(cluster)
    report = VerificationReport(
        equivalent=True, committed_roots=len(cluster.commit_log)
    )
    concurrent_state = cluster.state_digest()
    serial_state = serial.state_digest()
    for object_value in sorted(set(concurrent_state) | set(serial_state)):
        left = concurrent_state.get(object_value)
        right = serial_state.get(object_value)
        if left != right:
            report.equivalent = False
            report.state_mismatches.append(
                f"O{object_value}: concurrent={left!r} serial={right!r}"
            )
    for index, (concurrent_rec, serial_rec) in enumerate(
        zip(cluster.commit_log, serial.commit_log)
    ):
        if freeze_args(concurrent_rec.result) != freeze_args(serial_rec.result):
            report.equivalent = False
            report.result_mismatches.append(
                f"commit #{index} ({concurrent_rec.method_name}): "
                f"concurrent={concurrent_rec.result!r} "
                f"serial={serial_rec.result!r}"
            )
    return report


def check_conflict_serializability(cluster: Cluster) -> VerificationReport:
    """Independent second oracle: precedence-graph acyclicity.

    Built from the lock manager's per-object grant history: for each
    object, every *conflicting* pair of grants (any pair involving a
    WRITE) to two committed families creates a precedence edge
    earlier -> later.  Strict O2PL must make this graph acyclic;
    unlike the replay oracle this needs no re-execution and catches
    ordering bugs even when final states happen to coincide.
    """
    report = VerificationReport(
        equivalent=True, committed_roots=len(cluster.commit_log)
    )
    # Aborted families rolled back: their accesses create no real
    # dependencies, so only committed families enter the graph.
    committed = {record.root_serial for record in cluster.commit_log}
    # Precedence edges: for every object, every conflicting pair of
    # grants to different families orders earlier -> later (both
    # WR/WW order dependencies and RW anti-dependencies — adjacency
    # alone would miss a reader's edge to a later writer).
    edges: Dict[int, set] = {}
    families = set()
    tables = cluster.lockmgr.commutativity_tables()
    for history in cluster.lockmgr.grant_history.values():
        committed_history = [
            grant for grant in history if grant[0] in committed
        ]
        for index, (later, later_mode, _time) in enumerate(committed_history):
            for earlier, earlier_mode, _etime in committed_history[:index]:
                if earlier == later:
                    continue
                # Non-conflicting grants create no dependency: R/R on
                # the plain lattice, plus commuting semantic pairs.
                if not _grant_conflict(tables, earlier_mode, later_mode):
                    continue
                edges.setdefault(earlier, set()).add(later)
                families.update((earlier, later))
    # Cycle check: iterative three-colour DFS.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {family: WHITE for family in families}
    for start in sorted(families):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        color[start] = GREY
        while stack:
            node, iterator = stack[-1]
            advanced = False
            for target in iterator:
                if color.get(target, WHITE) == GREY:
                    report.equivalent = False
                    report.state_mismatches.append(
                        f"precedence cycle through families "
                        f"{node} -> {target}"
                    )
                elif color.get(target, WHITE) == WHITE:
                    color[target] = GREY
                    stack.append(
                        (target, iter(sorted(edges.get(target, ()))))
                    )
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return report
