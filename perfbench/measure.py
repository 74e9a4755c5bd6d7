"""Pure measurement rules of the benchmark: percentiles, outcome
fingerprints, virtual latency from the due time, host-speed
calibration, and per-layer attribution of profiled self time.

Nothing here runs the simulator; ``perfbench/tests`` checks these rules
on hand-made inputs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
import statistics
import time
from typing import (Callable, Dict, Hashable, Iterable, List, Mapping,
                    Sequence, Tuple)

#: A percentile is reported only with at least this many samples beyond
#: it, so p99 needs 1,000 samples and p90 needs 100.
MIN_TAIL_SAMPLES = 10

#: Percentiles ``tail_percentile`` may pick, highest first.
TAIL_CANDIDATES = (0.99, 0.9, 0.5)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values``.

    Raises ``ValueError`` unless at least ``MIN_TAIL_SAMPLES`` samples
    lie beyond it: a p99 of 200 samples is two samples, not a tail.
    """
    count = len(values)
    if count * (1.0 - q) < MIN_TAIL_SAMPLES - 1e-9:
        raise ValueError(
            f"p{q * 100:g} needs {math.ceil(MIN_TAIL_SAMPLES / (1 - q))} "
            f"samples, got {count}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * count) - 1)]


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` for the highest candidate percentile that the
    sample count supports."""
    for q in TAIL_CANDIDATES:
        try:
            return q, percentile(values, q)
        except ValueError:
            continue
    raise ValueError(f"{len(values)} samples support no percentile")


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ----------------------------------------------------------------------
# Simulated outcome
# ----------------------------------------------------------------------

_INDEX = re.compile(r"(\d+)$")


def commit_digest(commit_log) -> str:
    """SHA-256 (first 16 hex digits) over every committed root, in
    commit order: label, virtual commit instant, node, object, method,
    result and serial."""
    digest = hashlib.sha256()
    for record in commit_log:
        digest.update(
            f"{record.label}|{record.time!r}|{record.node!r}|"
            f"{record.object_id!r}|{record.method_name}|{record.result!r}|"
            f"{record.root_serial}\n".encode("utf-8")
        )
    return digest.hexdigest()[:16]


def due_latencies_ms(commit_log,
                     arrival_offsets: Sequence[float]) -> List[float]:
    """Virtual ms from each committed root's due time to its commit.

    The root submitted as ``<prefix><i>`` was due at
    ``arrival_offsets[i]``; retries do not restart its clock.
    """
    latencies = []
    seen = set()
    for record in commit_log:
        match = _INDEX.search(record.label)
        if match is None:
            raise ValueError(f"commit label {record.label!r} has no index")
        index = int(match.group(1))
        if index in seen:
            raise ValueError(f"root {record.label!r} committed twice")
        seen.add(index)
        latencies.append((record.time - arrival_offsets[index]) * 1000.0)
    return latencies


def fingerprint(commit_log, committed: int, failed: int, now: float,
                messages: int, total_bytes: int) -> Dict[str, object]:
    """The pinned summary of one simulation; any schedule change moves
    at least the commit digest or the final instant."""
    return {
        "commits": commit_digest(commit_log),
        "committed": committed,
        "failed": failed,
        "now": repr(now),
        "messages": messages,
        "bytes": total_bytes,
    }


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------

#: The reference host is one on which a ``reference_seconds()`` loop
#: takes this long (a 2-core x86-64 container running CPython 3.11 takes
#: 8-12 ms, depending on its neighbours).  A timed step is scaled by
#: ``REFERENCE_S`` over the loop's median time in probes taken right
#: before and right after it, so it reads as seconds on that host.
REFERENCE_S = 0.010

#: Loops in one speed probe.  A single 10 ms loop is itself jittery
#: enough to add noise; the median of a probe before and one after a
#: step (six loops) is not.
PROBE_LOOPS = 3


class _Item:
    __slots__ = ("index", "fields", "log")

    def __init__(self, index: int) -> None:
        self.index = index
        self.fields: Dict[int, int] = {}
        self.log: List[int] = []


def _reference_process(pid: int, store: Dict[Tuple[int, int], _Item]):
    for step in range(20):
        item = _Item(step)
        item.fields[pid] = step
        item.log.append(pid)
        store[(pid, step % 7)] = item
        yield step * 0.5 + pid


def reference_seconds() -> float:
    """Host seconds of a fixed pure-Python discrete-event loop: 100
    generator processes stepped through a heap, allocating small
    objects into a dict, three times over.  It exercises what the
    simulator's hot path does (generator resumption, heap operations,
    attribute and dict access, allocation) and none of its code, so a
    change to the program cannot move it; only the host's speed does.
    """
    start = time.perf_counter()
    for _ in range(3):
        store: Dict[Tuple[int, int], _Item] = {}
        queue = [(0.0, pid, _reference_process(pid, store))
                 for pid in range(100)]
        heapq.heapify(queue)
        seq = len(queue)
        while queue:
            now, _seq, process = heapq.heappop(queue)
            try:
                delay = next(process)
            except StopIteration:
                continue
            seq += 1
            heapq.heappush(queue, (now + delay, seq, process))
    return time.perf_counter() - start


def speed_probe() -> List[float]:
    """``PROBE_LOOPS`` timings of the reference loop, taken now."""
    return [reference_seconds() for _ in range(PROBE_LOOPS)]


def host_scale(before: Sequence[float], after: Sequence[float]) -> float:
    """Factor that turns the host seconds of a step, timed between the
    speed probes ``before`` and ``after``, into seconds on the reference
    host: below 1 while the host runs slower than it."""
    return REFERENCE_S / statistics.median(list(before) + list(after))


# ----------------------------------------------------------------------
# Per-layer attribution of profiled self time
# ----------------------------------------------------------------------

#: ``classify(func)`` returns a layer name for a frame that owns its
#: self time, or ``None`` for a stdlib or builtin frame whose self time
#: belongs to its callers.
Classifier = Callable[[Hashable], object]

#: Where time goes that no owning frame called.
UNCLAIMED = "other"


def attribute_self_time(stats: Mapping[Hashable, tuple],
                        classify: Classifier) -> Dict[str, float]:
    """Charge every function's self time to a layer.

    ``stats`` has the shape of ``pstats.Stats.stats``:
    ``func -> (cc, nc, tt, ct, callers)`` with
    ``callers: caller -> (cc, nc, tt, ct)`` for that edge.

    A frame that ``classify`` maps to a layer keeps its own self time.
    A stdlib or builtin frame passes its self time to its callers in
    proportion to the self time each edge carried; a caller that is
    itself stdlib passes its share on in proportion to the cumulative
    time of its own caller edges, and so on up to the nearest owning
    frame.  Edges back into the chain being followed (recursion) are
    skipped, so a recursive stdlib helper is charged to whoever entered
    it.  Time with no owning caller goes to ``UNCLAIMED``.  The result
    sums to the total self time.
    """
    path = set()

    def owners(func, field: int):
        """Layers owning ``func``'s time, blended over its callers by
        edge ``field`` (self or cumulative time, or call count where the
        clock recorded none); ``None`` when every caller chain loops
        back into the current path."""
        edges = stats[func][4]
        if not any(edge[field] > 0 for edge in edges.values()):
            field = 1
        path.add(func)
        resolved = []
        for caller, edge in edges.items():
            if caller in path or edge[field] <= 0:
                continue
            layer = classify(caller)
            if layer is not None:
                above = {layer: 1.0}
            elif caller in stats:
                above = owners(caller, 3)
            else:
                above = {UNCLAIMED: 1.0}
            if above is not None:
                resolved.append((above, edge[field]))
        path.discard(func)
        total = sum(weight for _above, weight in resolved)
        if total <= 0:
            return None
        shares: Dict[str, float] = {}
        for above, weight in resolved:
            for owner, share in above.items():
                shares[owner] = shares.get(owner, 0.0) + share * weight / total
        return shares

    totals: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        layer = classify(func)
        shares = ({layer: 1.0} if layer is not None
                  else owners(func, 2) or {UNCLAIMED: 1.0})
        for owner, share in shares.items():
            totals[owner] = totals.get(owner, 0.0) + tt * share
    return totals


def shares_of(totals: Mapping[str, float]) -> Dict[str, float]:
    """Normalize attributed seconds to shares summing to 1."""
    grand = sum(totals.values())
    if grand <= 0:
        raise ValueError("no profiled self time to attribute")
    return {layer: seconds / grand for layer, seconds in totals.items()}

