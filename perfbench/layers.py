"""Per-layer measurement from outside the program.

Two instruments, never active together:

* ``profile_layers`` runs a callable under cProfile and charges every
  function's self time and call count to the ``repro`` package it is
  defined in (stdlib and builtin self time goes to the nearest calling
  ``repro`` frame, see :func:`measure.attribute_self_time`).
* ``wrapped`` patches a fixed set of public functions with counting
  and timing wrappers and restores them on exit.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Tuple

import repro

from measure import UNCLAIMED, attribute_self_time, shares_of

#: The ``repro`` packages reported as layers; frames of any other
#: ``repro`` module (``cli``, ``bench``, the package root) and of the
#: benchmark itself count as ``other``.
LAYERS = (
    "sim", "net", "gdo", "txn", "memory", "core", "runtime", "objects",
    "analysis", "obs", "check", "faults", "load", "workload", "util",
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def classify(func) -> object:
    """Layer owning ``func``'s self time; ``None`` for stdlib, builtin
    and third-party frames, whose self time belongs to their caller."""
    filename = func[0]
    if filename.startswith(_REPRO_DIR):
        package = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return package if package in LAYERS else UNCLAIMED
    if filename.startswith(_BENCH_DIR):
        return UNCLAIMED
    return None


def profile_layers(
    target: Callable[[], object],
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Run ``target`` under cProfile.

    Returns ``(self_share, calls, seconds)``: each layer's share of
    self time (all of ``LAYERS`` plus ``other``, summing to 1), the
    calls into functions defined in each layer (a generator counts each
    resumption, as cProfile does), and the profiled wall time.
    """
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        target()
    finally:
        profiler.disable()
    seconds = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats
    shares = shares_of(attribute_self_time(stats, classify))
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, nc, _tt, _ct, _callers) in stats.items():
        layer = classify(func)
        if layer in calls:
            calls[layer] += nc
    every = LAYERS + (UNCLAIMED,)
    return ({layer: shares.get(layer, 0.0) for layer in every}, calls,
            seconds)


# ----------------------------------------------------------------------
# Counting and timing wrappers
# ----------------------------------------------------------------------

class Probe:
    """Calls and outermost inclusive seconds of one wrapped function.

    Nested calls (recursion, or a wrapped function reached from inside
    itself) are counted but not timed twice.  A generator function's
    wrapper counts calls only: its body runs after the call returns.
    """

    def __init__(self, generator: bool = False):
        self.calls = 0
        self.seconds = 0.0
        self.generator = generator
        self._depth = 0

    def wrap(self, func: Callable) -> Callable:
        if self.generator:
            def counting(*args, **kwargs):
                self.calls += 1
                return func(*args, **kwargs)
            return counting

        def timing(*args, **kwargs):
            self.calls += 1
            if self._depth:
                return func(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self._depth -= 1
        return timing


def _probe_sites():
    """``name -> (generator?, [(owner, attribute), ...])``: every place
    a probed function is looked up at call time."""
    import repro.check.events as events
    import repro.check.explorer as explorer
    import repro.check.invariants as invariants
    import repro.check.reference as reference
    import repro.core.protocol as protocol
    import repro.core.transfer as transfer
    import repro.runtime.executor as executor
    import repro.runtime.verify as verify
    from repro.gdo.deadlock import DeadlockDetector
    from repro.net.network import SimTransport
    from repro.txn.locks import LockManager

    return {
        "gdo.find_cycle": (False, [(DeadlockDetector, "find_cycle")]),
        "gdo.edges": (False, [(DeadlockDetector, "edges")]),
        "txn.acquire": (True, [(LockManager, "acquire")]),
        "net.send": (False, [(SimTransport, "send")]),
        "core.gather_many": (True, [(protocol, "gather_many"),
                                    (transfer, "gather_many")]),
        "runtime.freeze_args": (False, [(executor, "freeze_args"),
                                        (verify, "freeze_args")]),
        "obs.event_dicts": (False, [(events, "event_dicts"),
                                    (explorer, "event_dicts"),
                                    (invariants, "event_dicts"),
                                    (reference, "event_dicts")]),
        "check.serializability": (False, [(explorer,
                                           "check_serializability")]),
        "check.conflict": (False, [(explorer,
                                    "check_conflict_serializability")]),
        "check.reference": (False, [(explorer, "check_reference_model")]),
        "check.invariants": (False, [(explorer, "run_invariants")]),
    }


@contextmanager
def wrapped() -> Iterator[Dict[str, Probe]]:
    """Install every probe; yields ``name -> Probe``."""
    probes: Dict[str, Probe] = {}
    restore = []
    try:
        for name, (generator, sites) in _probe_sites().items():
            probe = probes[name] = Probe(generator)
            for owner, attribute in sites:
                original = owner.__dict__[attribute]
                restore.append((owner, attribute, original))
                setattr(owner, attribute, probe.wrap(original))
        yield probes
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
