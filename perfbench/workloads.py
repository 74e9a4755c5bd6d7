"""The benchmark's workloads and the one way each simulation is run.

A workload is a list of *cases*: one generated input and one cluster
configuration each.  Every case is simulated untraced and traced with
the repo's public runners (``run_workload``/``run_load``), and a case's
set-up (input generation, ``Cluster`` construction, object creation
and submission) is split from its run at the moment the runner enters
``Cluster.run``.  ``fuzz-checked`` also judges its tasks through the
public fuzz path, ``run_campaign``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import count
from typing import Callable, Dict, Iterator, List, Optional

from repro.check.explorer import FuzzTask, build_config
from repro.check.fuzz import run_campaign
from repro.gdo.migration import MigrationConfig
from repro.load.engine import build_load
from repro.load.runner import run_load
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS
from repro.workload.runner import run_workload

from measure import due_latencies_ms, fingerprint


@dataclass(frozen=True)
class Case:
    """One simulated input: ``generate()`` makes it, ``runner`` runs it
    on a cluster built from ``config`` (untraced; tracing is switched
    per run)."""

    key: str
    config: ClusterConfig
    generate: Callable[[], object]
    runner: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> cases, possibly unbounded; ``min_commits`` cuts it.
    cases: Callable[[int], Iterator[Case]]
    #: Take cases until this many roots have committed (0: take all).
    min_commits: int = 0
    #: (seed, progress) -> run the judged fuzz campaign, handing each
    #: task's report to ``progress`` as soon as it is judged.
    campaign: Optional[Callable[[int, Callable], None]] = None


# ----------------------------------------------------------------------
# fig2-contended: the paper's Fig. 2 point, lock-wait and deadlock bound
# ----------------------------------------------------------------------

FIG2_SCENARIO = "medium-high"
FIG2_NODES = 4
#: Enough commits that p99 has ten samples beyond it.
FIG2_MIN_COMMITS = 1000


def fig2_case(seed: int) -> Case:
    params = SCENARIOS[FIG2_SCENARIO].scaled(1.0)
    return Case(
        key=f"fig2-contended/{seed}",
        config=ClusterConfig(num_nodes=FIG2_NODES, protocol="lotec",
                             seed=seed, audit_accesses=False),
        generate=partial(generate_workload, params, seed=seed),
        runner=run_workload,
    )


# ----------------------------------------------------------------------
# zipf-open: open-loop zipf-hot load with adaptive home migration
# ----------------------------------------------------------------------

ZIPF_SCENARIO = "zipf-hot"


def zipf_case(seed: int) -> Case:
    from repro.load.scenario import LOAD_SCENARIOS

    clients = LOAD_SCENARIOS[ZIPF_SCENARIO].clients
    return Case(
        key=f"zipf-open/{seed}",
        config=ClusterConfig(num_nodes=clients, protocol="lotec", seed=seed,
                             audit_accesses=False,
                             migration=MigrationConfig()),
        generate=partial(build_load, ZIPF_SCENARIO, seed=seed),
        runner=run_load,
    )


# ----------------------------------------------------------------------
# fuzz-checked: a fixed run_campaign, every task traced and judged
# ----------------------------------------------------------------------

#: Three seeds (18 tasks) so that one unusually long faulted task moves a
#: run's totals less.
FUZZ_SEEDS = 3
FUZZ_PROTOCOLS = ("lotec", "cotec")
FUZZ_PRESETS = (None, "crash-recover", "lossy-net")
FUZZ_SCALE = 0.25


def fuzz_campaign(seed: int, progress: Callable) -> None:
    run_campaign(
        seeds=FUZZ_SEEDS, seed_base=seed, protocols=FUZZ_PROTOCOLS,
        presets=FUZZ_PRESETS, scale=FUZZ_SCALE, minimize_failures=False,
        progress=progress,
    )


def task_key(task: FuzzTask) -> str:
    return (f"fuzz-checked/{task.seed}/{task.protocol}/"
            f"{task.preset or 'none'}/{task.policy}")


def task_case(task: FuzzTask) -> Case:
    """The simulation a fuzz task judges, as a plain case."""
    params = SCENARIOS[task.scenario].scaled(task.scale)
    return Case(
        key=task_key(task),
        config=replace(build_config(task), trace=False),
        generate=partial(generate_workload, params, seed=task.seed),
        runner=run_workload,
    )


def fuzz_cases(seed: int) -> Iterator[Case]:
    """The campaign's tasks in its own order, built without running it
    (``run_campaign`` cycles the tie-break policy per task)."""
    from repro.check.explorer import DEFAULT_POLICIES

    counter = 0
    for task_seed in range(seed, seed + FUZZ_SEEDS):
        for protocol in FUZZ_PROTOCOLS:
            for preset in FUZZ_PRESETS:
                policy = DEFAULT_POLICIES[counter % len(DEFAULT_POLICIES)]
                counter += 1
                yield task_case(FuzzTask(
                    seed=task_seed, protocol=protocol, preset=preset,
                    policy=policy, scale=FUZZ_SCALE,
                ))


#: Run seeds 0 .. PINNED_SEEDS-1 have every case pinned in
#: ``fingerprints.json`` (``pin.py``); ``run.py`` takes ``--seed``
#: modulo this, so every run is checked against a pin.
PINNED_SEEDS = 64


def pinned_seed(seed: int) -> int:
    """The pinned run seed that ``--seed`` selects."""
    return seed % PINNED_SEEDS


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="fig2-contended",
            cases=lambda seed: (fig2_case(s) for s in count(seed)),
            min_commits=FIG2_MIN_COMMITS,
        ),
        Workload(
            name="zipf-open",
            cases=lambda seed: iter([zipf_case(seed)]),
        ),
        Workload(
            name="fuzz-checked",
            cases=fuzz_cases,
            campaign=fuzz_campaign,
        ),
    )
}


# ----------------------------------------------------------------------
# Running one case
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one simulation of a case produced and cost."""

    key: str
    traced: bool
    setup_s: float
    run_s: float
    submitted: int
    committed: int
    failed: int
    events: int
    trace_events: int
    fingerprint: Dict[str, object]
    latencies_ms: List[float]
    virtual_s: float
    messages: int
    consistency_bytes: int
    counters: Dict[str, int]


class _SetUpOnly(Exception):
    """Raised at ``Cluster.run`` to stop a set-up-only repetition."""


def simulate(case: Case, traced: bool, setup_only: bool = False):
    """Simulate ``case``; returns its :class:`Outcome`, or only the
    set-up seconds when ``setup_only``."""
    gc.collect()
    start = time.perf_counter()
    inputs = case.generate()
    cluster = Cluster(replace(case.config, trace=traced))
    entered: List[float] = []
    run = cluster.run

    def timed_run(until=None):
        entered.append(time.perf_counter())
        if setup_only:
            raise _SetUpOnly
        return run(until)

    cluster.run = timed_run
    try:
        result = case.runner(cluster, inputs)
    except _SetUpOnly:
        return entered[0] - start
    end = time.perf_counter()
    return _outcome(case, traced, cluster, result, inputs,
                    setup_s=entered[0] - start, run_s=end - entered[0])


def _outcome(case, traced, cluster, result, inputs, setup_s,
             run_s) -> Outcome:
    network = cluster.network_stats.snapshot()
    txn = cluster.txn_stats.snapshot()
    locks = cluster.lock_stats.snapshot()
    prediction = cluster.prediction_stats
    faults = cluster.fault_stats.snapshot()
    migration = cluster.migration_stats
    offsets = getattr(inputs, "workload", inputs).arrival_offsets
    commit_log = cluster.commit_log
    return Outcome(
        key=case.key, traced=traced, setup_s=setup_s, run_s=run_s,
        submitted=len(result.tickets), committed=result.committed,
        failed=result.failed, events=cluster.env.events_processed,
        trace_events=len(cluster.trace_events) if traced else 0,
        fingerprint=fingerprint(
            commit_log, result.committed, result.failed, cluster.env.now,
            network["total_messages"], network["total_bytes"],
        ),
        latencies_ms=due_latencies_ms(commit_log, offsets),
        virtual_s=cluster.env.now,
        messages=network["total_messages"],
        consistency_bytes=network["consistency_bytes"],
        counters={
            "deadlocks": locks["deadlocks"],
            "waits": locks["waits"],
            "retries": txn["retries"],
            "sub_aborts": txn["sub_aborts"],
            "directory_messages": network["directory_messages"],
            "forwarded_requests": (migration.forwarded_requests
                                   if migration is not None else 0),
            "migrations": (migration.migrations
                           if migration is not None else 0),
            "retransmissions": faults["retransmissions"],
            "dropped": faults["messages_dropped"],
            "acquisitions": prediction.acquisitions,
            "transferred_pages": prediction.transferred_pages,
            "demand_fetches": prediction.demand_fetches,
            "crash_aborted_families": faults["crash_aborted_families"],
            "failovers": faults["failovers"],
        },
    )
