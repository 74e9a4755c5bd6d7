#!/usr/bin/env python3
"""The repo benchmark: host speed and pinned simulated outcomes.

    python3 perfbench/run.py --workload fig2-contended --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

``--trace 0`` measures the end-to-end metrics for ``--seconds``:
repeated rounds over the workload's cases, each simulated untraced and
traced (and, for ``fuzz-checked``, judged through ``run_campaign``).
Each timed step is scaled to a reference host speed by a speed probe
taken just before it (``measure.host_scale``), because this kind of
shared host drifts by more than a bound allows between runs.
``--trace 1`` is the profiled run: one plain round, then one pass under
cProfile and one under counting wrappers, reporting per-layer metrics.

Every simulation's outcome is fingerprinted and compared with the
fingerprint pinned in ``perfbench/fingerprints.json``; ``--seed`` is
taken modulo ``PINNED_SEEDS`` so that every case has a pin.  A
mismatch, a case with no pin, or a judged fuzz task that is not
``ok`` counts its operations as failed and exits 1.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import sys
import time

from measure import (UNCLAIMED, host_scale, median, percentile,
                     speed_probe, tail_percentile)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED_PATH = os.path.join(HERE, "fingerprints.json")

#: End-to-end metrics, all host-side: name -> unit.
END_TO_END = {
    "events_per_s": "events/s",
    "traced_events_per_s": "events/s",
    "task_events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Virtual (simulated) outcome metrics: name -> unit.  Exact for a seed
#: and pinned by the fingerprint, but they differ from seed to seed by
#: more than any bound an end-to-end metric may carry, so they are
#: reported beside the per-layer metrics.
VIRTUAL = {
    "sim_commits_per_s": "commits/s",
    "sim_latency_p50_ms": "ms",
    "sim_latency_tail_ms": "ms",
    "sim_latency_tail_q": "quantile",
    "sim_latency_samples": "count",
    "msgs_per_root": "msgs/root",
    "bytes_per_root": "B/root",
    "failed_frac": "fraction",
}

#: Set-up-only repetitions made right after each untraced simulation of
#: a case.  Host speed here changes in phases of seconds, so the samples
#: are spread over the whole run rather than taken together at its end.
SETUP_REPEATS = 9


class Ledger:
    """Counts checked operations and compares every outcome with its
    pinned fingerprint; an outcome with no pin counts as failed."""

    def __init__(self, pinned):
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, outcome) -> None:
        self.attempted += outcome.submitted
        expected = self.pinned.get(outcome.key)
        if outcome.fingerprint != expected:
            self.failed += outcome.submitted
            mode = "traced" if outcome.traced else "untraced"
            self.problems.append(
                f"{outcome.key} ({mode}): fingerprint {outcome.fingerprint} "
                f"!= expected {expected}"
            )

    def judge(self, reports, cases) -> None:
        """Judged fuzz tasks: each must be ``ok`` and must have run the
        same simulation as its case."""
        from workloads import task_key

        keys = [task_key(report.task) for report in reports]
        if keys != [case.key for case in cases]:
            raise SystemExit(
                f"run_campaign ran tasks {keys}, the benchmark expected "
                f"{[case.key for case in cases]}"
            )
        for report in reports:
            self.attempted += 1
            key = task_key(report.task)
            expected = self.pinned.get(key, {})
            same = (report.committed, report.failed) == (
                expected.get("committed"), expected.get("failed"))
            if not (report.ok and same):
                self.failed += 1
                self.problems.append(
                    f"{key}: ok={report.ok}, committed={report.committed}, "
                    f"failed={report.failed}; "
                    + "; ".join(report.failure_summary())
                )


#: The step key of a fuzz campaign, beside the case keys.
CAMPAIGN = "campaign"


class Session:
    """One workload at one seed: its cases, every outcome simulated so
    far, and the ledger that checks them."""

    def __init__(self, workload, seed, pinned, setup_repeats=0,
                 calibrate=False):
        self.workload = workload
        self.seed = seed
        self.ledger = Ledger(pinned)
        self.cases = []
        self.setup_repeats = setup_repeats
        self.calibrate = calibrate
        #: case key -> outcomes of its untraced / traced simulations.
        self.untraced = {}
        self.traced = {}
        #: case key -> untraced set-up seconds, one per sample.
        self.setups = {}
        #: host seconds of each judged campaign.
        self.campaigns = []
        #: step (case key or CAMPAIGN) -> wall seconds it last took.
        self.step_s = {}
        #: The last speed probe, taken after the last timed step.
        self.probe = speed_probe() if calibrate else None

    def scale(self):
        """Factor that scales the host seconds of the step just timed to
        the reference host, from the speed probes right before it (the
        last step's) and right after it.  1 in the profiled run, whose
        timings are only compared with each other."""
        if not self.calibrate:
            return 1.0
        before, self.probe = self.probe, speed_probe()
        return host_scale(before, self.probe)

    def simulate(self, case, traced):
        """Simulate ``case`` and check its outcome.  Its host seconds,
        and those of the set-up-only repetitions after it, are scaled to
        the reference host."""
        from workloads import simulate

        outcome = simulate(case, traced=traced)
        setups = [] if traced else [
            simulate(case, traced=False, setup_only=True)
            for _ in range(self.setup_repeats)]
        scale = self.scale()
        outcome.setup_s *= scale
        outcome.run_s *= scale
        self.ledger.check(outcome)
        if not traced:
            self.setups.setdefault(case.key, []).extend(
                [outcome.setup_s] + [seconds * scale for seconds in setups])
        return outcome

    def step(self, case):
        """Simulate ``case`` untraced, then traced, and keep both."""
        start = time.perf_counter()
        for traced, runs in ((False, self.untraced), (True, self.traced)):
            runs.setdefault(case.key, []).append(self.simulate(case, traced))
        self.step_s[case.key] = time.perf_counter() - start

    def select_cases(self):
        """First round: step through cases in order until the workload
        has enough commits."""
        commits = 0
        for case in self.workload.cases(self.seed):
            self.cases.append(case)
            self.step(case)
            commits += self.untraced[case.key][0].committed
            if self.workload.min_commits and \
                    commits >= self.workload.min_commits:
                break

    def first(self, traced):
        """Each case's first outcome, in case order."""
        runs = self.traced if traced else self.untraced
        return [runs[case.key][0] for case in self.cases]

    def campaign(self):
        """Run and judge the fuzz campaign, keeping its host seconds.
        Each task is timed on its own and scaled by the speed probes
        around it; the probes are not timed."""
        reports = []
        seconds = []
        gc.collect()
        began = start = time.perf_counter()

        def progress(report):
            nonlocal start
            task_s = time.perf_counter() - start
            seconds.append(task_s * self.scale())
            reports.append(report)
            start = time.perf_counter()

        self.workload.campaign(self.seed, progress)
        self.ledger.judge(reports, self.cases)
        self.campaigns.append(sum(seconds))
        self.step_s[CAMPAIGN] = time.perf_counter() - began


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------

def run_end_to_end(session, seconds, notes):
    """Rounds over the cases (and the campaign) until the next step
    would end past ``seconds``; returns the host metrics.  The loop
    stops at step rather than round granularity, so a run uses its
    time whether one round takes a tenth of it or half."""
    start = time.perf_counter()
    session.select_cases()
    steps = list(session.cases)
    if session.workload.campaign is not None:
        session.campaign()
        steps.append(None)
    for case in itertools.cycle(steps):
        key = CAMPAIGN if case is None else case.key
        if time.perf_counter() - start + session.step_s[key] > seconds:
            break
        if case is None:
            session.campaign()
        else:
            session.step(case)

    def busy(runs, part):
        """Sum over cases of each case's median host seconds."""
        return sum(median(part(o) for o in outs) for outs in runs.values())

    def rate(runs):
        events = sum(outs[0].events for outs in runs.values())
        return events / busy(runs, lambda o: o.run_s)

    cases = session.cases
    if session.campaigns:
        tasks_s = median(session.campaigns)
    else:
        tasks_s = busy(session.untraced, lambda o: o.setup_s + o.run_s)
    task_events = sum(outcome.events for outcome in session.first(False))
    rounds = [len(outcomes) for outcomes in session.untraced.values()]
    notes.append(f"{len(cases)} cases ({cases[0].key} .. {cases[-1].key}), "
                 f"simulated {min(rounds)}-{max(rounds)} times each, "
                 f"{len(session.campaigns)} campaigns, "
                 f"{len(cases) / tasks_s:.4g} tasks/s")
    return {
        "events_per_s": rate(session.untraced),
        "traced_events_per_s": rate(session.traced),
        "task_events_per_s": task_events / tasks_s,
        "setup_s": sum(median(samples)
                       for samples in session.setups.values()),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def virtual_metrics(outcomes):
    """The simulated outcome of one untraced pass over the cases.

    Latency runs from each root's due time to its commit; the tail is
    the highest percentile with ten samples beyond it (p99 from 1,000
    committed roots, else p90).
    """
    latencies = [ms for outcome in outcomes for ms in outcome.latencies_ms]
    committed = sum(outcome.committed for outcome in outcomes)
    tail_q, tail = tail_percentile(latencies)
    return {
        "sim_commits_per_s":
            committed / sum(outcome.virtual_s for outcome in outcomes),
        "sim_latency_p50_ms": percentile(latencies, 0.5),
        "sim_latency_tail_ms": tail,
        "sim_latency_tail_q": tail_q,
        "sim_latency_samples": len(latencies),
        "msgs_per_root": sum(o.messages for o in outcomes) / committed,
        "bytes_per_root":
            sum(o.consistency_bytes for o in outcomes) / committed,
        "failed_frac": (sum(o.failed for o in outcomes)
                        / sum(o.submitted for o in outcomes)),
    }


# ----------------------------------------------------------------------
# Profiled (per-layer) run
# ----------------------------------------------------------------------

#: Per-layer metrics besides ``<layer>.self_share`` and ``<layer>.calls``:
#: name -> unit.
NAMED_LAYER_METRICS = {
    "sim.events_per_root": "events/root",
    "gdo.find_cycle.calls": "count",
    "gdo.find_cycle.s": "s",
    "gdo.edges.calls": "count",
    "gdo.deadlocks_per_root": "1/root",
    "gdo.remote_dir_msgs_per_root": "msgs/root",
    "gdo.forwarded_requests": "count",
    "gdo.migrations": "count",
    "txn.acquire.calls": "count",
    "txn.waits_per_root": "1/root",
    "txn.sub_aborts_per_root": "1/root",
    "txn.commit_ratio": "fraction",
    "net.send.calls": "count",
    "net.retransmissions": "count",
    "net.dropped": "count",
    "core.gather_many.calls": "count",
    "core.pages_per_acquisition": "pages",
    "core.demand_fetches_per_acquisition": "fetches",
    "runtime.freeze_args.calls": "count",
    "runtime.freeze_args.s": "s",
    "obs.trace_events_per_root": "events/root",
    "obs.event_dicts.s": "s/task",
    "obs.trace_overhead": "ratio",
    "check.serializability.s": "s/task",
    "check.conflict.s": "s/task",
    "check.reference.s": "s/task",
    "check.invariants.s": "s/task",
    "faults.crash_aborted_families": "count",
    "faults.failovers": "count",
    "profile.overhead": "ratio",
}


def per_layer_units():
    from layers import LAYERS

    units = {}
    for layer in LAYERS + (UNCLAIMED,):
        units[f"{layer}.self_share"] = "fraction"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
    units.update(NAMED_LAYER_METRICS)
    units.update(VIRTUAL)
    return units


def run_profile(session, notes):
    """One plain pass, then the profiled target under cProfile and
    under the wrappers; returns every per-layer metric."""
    from layers import LAYERS, profile_layers, wrapped

    start = time.perf_counter()
    session.select_cases()
    untraced = session.first(traced=False)
    traced = session.first(traced=True)
    if session.workload.campaign is not None:
        session.campaign()
        plain_s = session.campaigns[0]
        target = session.campaign
        tasks = len(session.cases)
    else:
        plain_s = sum(o.setup_s + o.run_s for o in untraced)

        def target():
            for case in session.cases:
                session.simulate(case, traced=False)
        tasks = 0
    shares, calls, profiled_s = profile_layers(target)
    with wrapped() as probes:
        target()

    def total(name):
        return sum(o.counters[name] for o in untraced)

    committed = sum(o.committed for o in untraced)
    submitted = sum(o.submitted for o in untraced)
    acquisitions = total("acquisitions")

    def per_task(seconds):
        return seconds / tasks if tasks else 0.0

    metrics = {f"{layer}.self_share": share
               for layer, share in shares.items()}
    metrics.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    metrics.update({
        "sim.events_per_root": sum(o.events for o in untraced) / committed,
        "gdo.find_cycle.calls": probes["gdo.find_cycle"].calls,
        "gdo.find_cycle.s": probes["gdo.find_cycle"].seconds,
        "gdo.edges.calls": probes["gdo.edges"].calls,
        "gdo.deadlocks_per_root": total("deadlocks") / committed,
        "gdo.remote_dir_msgs_per_root":
            total("directory_messages") / committed,
        "gdo.forwarded_requests": total("forwarded_requests"),
        "gdo.migrations": total("migrations"),
        "txn.acquire.calls": probes["txn.acquire"].calls,
        "txn.waits_per_root": total("waits") / committed,
        "txn.sub_aborts_per_root": total("sub_aborts") / committed,
        "txn.commit_ratio": committed / (submitted + total("retries")),
        "net.send.calls": probes["net.send"].calls,
        "net.retransmissions": total("retransmissions"),
        "net.dropped": total("dropped"),
        "core.gather_many.calls": probes["core.gather_many"].calls,
        "core.pages_per_acquisition":
            total("transferred_pages") / acquisitions,
        "core.demand_fetches_per_acquisition":
            total("demand_fetches") / acquisitions,
        "runtime.freeze_args.calls": probes["runtime.freeze_args"].calls,
        "runtime.freeze_args.s": probes["runtime.freeze_args"].seconds,
        "obs.trace_events_per_root":
            sum(o.trace_events for o in traced) / committed,
        "obs.event_dicts.s": per_task(probes["obs.event_dicts"].seconds),
        "obs.trace_overhead": (sum(o.run_s for o in traced)
                               / sum(o.run_s for o in untraced)),
        "check.serializability.s":
            per_task(probes["check.serializability"].seconds),
        "check.conflict.s": per_task(probes["check.conflict"].seconds),
        "check.reference.s": per_task(probes["check.reference"].seconds),
        "check.invariants.s": per_task(probes["check.invariants"].seconds),
        "faults.crash_aborted_families": total("crash_aborted_families"),
        "faults.failovers": total("failovers"),
        "profile.overhead": profiled_s / plain_s,
    })
    metrics.update(virtual_metrics(untraced))
    target_name = "judged campaign" if tasks else "untraced simulations"
    notes.append(f"{len(session.cases)} cases; profiled target: "
                 f"{target_name}; "
                 f"{time.perf_counter() - start:.1f}s in total")
    top = sorted(shares.items(), key=lambda item: -item[1])[:4]
    notes.append("largest self shares: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in top))
    return metrics


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def _load_pinned():
    with open(PINNED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["fingerprints"]


def measure_workload(name, seed, seconds, trace, pinned):
    from workloads import WORKLOADS

    session = Session(WORKLOADS[name], seed, pinned,
                      setup_repeats=0 if trace else SETUP_REPEATS,
                      calibrate=not trace)
    ledger = session.ledger
    notes = []
    if trace:
        values = run_profile(session, notes)
        units = per_layer_units()
    else:
        values = run_end_to_end(session, seconds, notes)
        units = END_TO_END
        notes.extend(
            f"virtual {metric} = {value:.6g} {VIRTUAL[metric]}"
            for metric, value in virtual_metrics(session.first(False)).items())
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in units.items()}
    return ledger, notes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="fig2-contended, zipf-open, fuzz-checked, "
                             "or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of an end-to-end run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the profiled per-layer run")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the simulator sources ({SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.util.errors import ReproError
    from workloads import WORKLOADS, pinned_seed

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    pinned = _load_pinned()
    seed = pinned_seed(args.seed)
    attempted = failed = 0
    combined = {}
    for name in names:
        try:
            ledger, notes, metrics = measure_workload(
                name, seed, args.seconds, args.trace, pinned)
        except ReproError as exc:
            # A simulation that raises is a wrong outcome, not a crash of
            # the benchmark: report it and count it failed.
            print(f"error: {name}: the simulator raised "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        attempted += ledger.attempted
        failed += ledger.failed
        print(f"{name} (seed {args.seed}, pinned run seed {seed}, "
              f"trace {args.trace}): "
              f"{ledger.attempted} operations checked, "
              f"{ledger.failed} failed")
        for note in notes:
            print(f"  # {note}")
        for metric, entry in metrics.items():
            print(f"  {metric:<38} {entry['value']:>16.6g} {entry['unit']}")
        for problem in ledger.problems:
            print(f"  MISMATCH {problem}", file=sys.stderr)
        combined.update(
            metrics if len(names) == 1
            else {f"{name}.{metric}": entry
                  for metric, entry in metrics.items()})
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": combined,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
