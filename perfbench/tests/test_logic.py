"""Tests of the benchmark's own rules.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    UNCLAIMED,
    attribute_self_time,
    due_latencies_ms,
    percentile,
    shares_of,
    tail_percentile,
)

# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

TXN = ("/src/repro/txn/locks.py", 1, "acquire")
GDO = ("/src/repro/gdo/deadlock.py", 1, "find_cycle")
ASDICT = ("/lib/dataclasses.py", 1, "asdict")
INNER = ("/lib/dataclasses.py", 2, "_asdict_inner")
GENEXPR = ("/lib/dataclasses.py", 3, "<genexpr>")
SORTED = ("~", 0, "<built-in method builtins.sorted>")
ORPHAN = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")


def _classify(func):
    if "/repro/" in func[0]:
        return func[0].split("/repro/")[1].split("/")[0]
    return None


def _edge(tt, ct, nc=1):
    return (nc, nc, tt, ct)


def _stats():
    """txn calls sorted (builtin) and asdict, which recurses through a
    generator; gdo calls sorted too; one orphan builtin."""
    return {
        TXN: (1, 1, 1.0, 6.0, {}),
        GDO: (1, 1, 2.0, 3.0, {}),
        SORTED: (2, 2, 1.0, 1.0, {TXN: _edge(0.25, 0.25),
                                  GDO: _edge(0.75, 0.75)}),
        ASDICT: (1, 1, 0.5, 3.5, {TXN: _edge(0.5, 3.5)}),
        INNER: (3, 3, 2.0, 3.0, {ASDICT: _edge(1.0, 3.0),
                                 GENEXPR: _edge(0.5, 1.5),
                                 INNER: _edge(0.5, 1.0)}),
        GENEXPR: (1, 1, 0.5, 2.0, {INNER: _edge(0.5, 2.0)}),
        ORPHAN: (1, 1, 0.25, 0.25, {}),
    }


def test_attribution_sums_to_one_and_charges_nearest_repro_caller():
    totals = attribute_self_time(_stats(), _classify)
    grand = sum(entry[2] for entry in _stats().values())
    assert sum(totals.values()) == pytest.approx(grand)
    assert sum(shares_of(totals).values()) == pytest.approx(1.0)
    # sorted's self time splits by edge: 0.25 to txn, 0.75 to gdo.
    # asdict, its recursive helper and the generator between them all
    # belong to txn, the only repro frame above them.
    assert totals["txn"] == pytest.approx(1.0 + 0.25 + 0.5 + 2.0 + 0.5)
    assert totals["gdo"] == pytest.approx(2.0 + 0.75)
    assert totals[UNCLAIMED] == pytest.approx(0.25)


def test_attribution_of_a_real_profile_sums_to_one():
    case = workloads.fig2_case(3)
    shares, calls, seconds = layers.profile_layers(
        lambda: workloads.simulate(case, traced=False))
    assert set(shares) == set(layers.LAYERS) | {UNCLAIMED}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares[UNCLAIMED] < 0.1
    assert calls["gdo"] > 0 and calls["check"] == 0
    assert seconds > 0


def test_generator_probe_counts_without_timing_and_wrappers_restore():
    from repro.txn.locks import LockManager

    original = LockManager.__dict__["acquire"]
    case = workloads.fig2_case(3)
    with layers.wrapped() as probes:
        assert LockManager.__dict__["acquire"] is not original
        workloads.simulate(case, traced=False)
    assert LockManager.__dict__["acquire"] is original
    assert probes["txn.acquire"].calls > 0
    assert probes["txn.acquire"].seconds == 0.0
    assert probes["gdo.find_cycle"].calls > 0
    assert probes["gdo.find_cycle"].seconds > 0.0


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------

def test_each_campaign_task_is_scaled_by_the_probes_around_it(monkeypatch):
    """A task timed while the reference loop takes twice its reference
    time counts half; the probes themselves are never timed."""
    import time

    loop_s = iter([2.0, 4.0, 4.0])  # before task 1, after 1, after 2

    def probe():
        time.sleep(0.05)
        return [measure.REFERENCE_S * next(loop_s)] * measure.PROBE_LOOPS

    monkeypatch.setattr(run, "speed_probe", probe)

    def campaign(_seed, progress):
        for _ in range(2):
            time.sleep(0.04)
            progress(None)

    session = run.Session(SimpleNamespace(campaign=campaign), 0, {},
                          calibrate=True)
    monkeypatch.setattr(session.ledger, "judge", lambda reports, cases: None)
    session.campaign()
    # Task 1 between probes 2x and 4x (median 3x), task 2 at 4x.
    expected = 0.04 / 3.0 + 0.04 / 4.0
    assert session.campaigns == [pytest.approx(expected, rel=0.3)]
    assert measure.host_scale([0.02] * 3, [0.02] * 3) == pytest.approx(
        measure.REFERENCE_S / 0.02)


# ----------------------------------------------------------------------
# Percentiles and latency
# ----------------------------------------------------------------------

def test_percentile_rule_refuses_p99_below_1000_samples():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1, 1001)), 0.99) == 990
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)
    assert tail_percentile(list(range(356)))[0] == 0.9
    assert tail_percentile(list(range(1000)))[0] == 0.99


def test_latency_runs_from_the_due_time():
    log = [SimpleNamespace(label="root1", time=0.5),
           SimpleNamespace(label="root0", time=0.25)]
    assert due_latencies_ms(log, [0.125, 0.25]) == [250.0, 125.0]
    with pytest.raises(ValueError):
        due_latencies_ms(log + [SimpleNamespace(label="root1", time=0.75)],
                         [0.125, 0.25])


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def test_a_perturbed_fingerprint_is_detected():
    case = next(workloads.fuzz_cases(0))
    outcome = workloads.simulate(case, traced=False)
    traced = workloads.simulate(case, traced=True)
    assert traced.fingerprint == outcome.fingerprint

    clean = run.Ledger({case.key: dict(outcome.fingerprint)})
    clean.check(outcome)
    clean.check(traced)
    assert clean.failed == 0 and clean.attempted == 2 * outcome.submitted

    for field in outcome.fingerprint:
        pinned = dict(outcome.fingerprint)
        pinned[field] = "perturbed"
        ledger = run.Ledger({case.key: pinned})
        ledger.check(outcome)
        assert ledger.failed == outcome.submitted, field
        assert case.key in ledger.problems[0]


def test_an_unpinned_case_counts_as_failed():
    case = next(workloads.fuzz_cases(0))
    outcome = workloads.simulate(case, traced=False)
    ledger = run.Ledger({})
    ledger.check(outcome)
    assert ledger.failed == outcome.submitted
    assert case.key in ledger.problems[0]


def test_every_seed_runs_pinned_cases():
    with open(run.PINNED_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)["fingerprints"]
    last = workloads.PINNED_SEEDS - 1
    assert workloads.pinned_seed(0) == 0
    assert workloads.pinned_seed(last) == last
    assert workloads.pinned_seed(last + 1) == 0
    assert workloads.pinned_seed(-1) == last
    for seed in (0, last):
        assert workloads.zipf_case(seed).key in pinned
        for case in workloads.fuzz_cases(seed):
            assert case.key in pinned
        # fig2-contended runs from the seed until 1,000 roots commit.
        commits = 0
        for case in itertools.islice(
                workloads.WORKLOADS["fig2-contended"].cases(seed), 100):
            commits += pinned[case.key]["committed"]
            if commits >= workloads.FIG2_MIN_COMMITS:
                break
        assert commits >= workloads.FIG2_MIN_COMMITS


def test_a_judged_task_that_is_not_ok_fails():
    cases = list(workloads.fuzz_cases(0))[:2]
    with open(run.PINNED_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)["fingerprints"]
    ledger = run.Ledger(pinned)
    reports = []
    for case, ok in zip(cases, (True, False)):
        seed, protocol, preset, policy = case.key.split("/")[1:]
        expected = pinned[case.key]
        reports.append(SimpleNamespace(
            task=workloads.FuzzTask(
                seed=int(seed), protocol=protocol,
                preset=None if preset == "none" else preset, policy=policy,
                scale=workloads.FUZZ_SCALE),
            ok=ok, committed=expected["committed"],
            failed=expected["failed"],
            failure_summary=lambda: ["serial-replay oracle: NOT equivalent"],
        ))
    before = ledger.failed
    ledger.judge(reports, cases)
    assert ledger.failed - before == 1
    assert cases[1].key in ledger.problems[-1]
    with pytest.raises(SystemExit):
        ledger.judge(reports[::-1], cases)


def test_pinned_fingerprints_match_the_program():
    with open(run.PINNED_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)["fingerprints"]
    for case in (workloads.fig2_case(0), next(workloads.fuzz_cases(0))):
        assert case.key in pinned
        outcome = workloads.simulate(case, traced=False)
        assert outcome.fingerprint == pinned[case.key]


# ----------------------------------------------------------------------
# Seeds and metric names
# ----------------------------------------------------------------------

def _plans(case):
    inputs = case.generate()
    return getattr(inputs, "workload", inputs).plans


def test_seed_changes_inputs_but_not_metric_names():
    for make in (workloads.fig2_case, workloads.zipf_case):
        assert _plans(make(1)) != _plans(make(2))
        assert _plans(make(1)) == _plans(make(1))
    first = list(workloads.fuzz_cases(1))
    second = list(workloads.fuzz_cases(2))
    assert [c.key for c in first] != [c.key for c in second]
    assert _plans(first[0]) != _plans(second[0])

    names = []
    for cases in (first, second):
        outcomes = [workloads.simulate(case, traced=False)
                    for case in cases[:4]]
        names.append(list(run.virtual_metrics(outcomes)))
    assert names[0] == names[1] == list(run.VIRTUAL)


def test_benchmark_json_names_every_metric_the_command_prints():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
