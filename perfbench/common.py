"""Pieces every workload shares: the run outcome, the measured loop, the
traced region and resource readings."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from perfbench.stats import median
from perfbench.tracing import LayerTracer

clock = time.perf_counter

#: Where runs leave their traces and scratch directories (git-ignored).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Workload-contract views a client reads (none depends on the state).
CONTRACT_VIEWS = ("state", "escrow", "executors", "provider_samples",
                  "consumer", "spec_hash", "code_measurement",
                  "deadline_info")

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sessions_per_s", "1/s"),
    ("session_p50_s", "s"),
    ("gas_per_session", "gas"),
    ("chain_tx_per_s", "1/s"),
    ("block_commit_p50_ms", "ms"),
    ("view_p50_ms", "ms"),
]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Run-level check failures (each makes the run incorrect).
    problems: list[str] = field(default_factory=list)
    #: Per-operation check failures, for the log (each counted in failed).
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: The end-to-end metrics in wall seconds, before host-pace scaling.
    raw: dict[str, float] = field(default_factory=dict)
    #: Reference seconds per wall second (see HostPace).
    pace: float = 1.0
    rounds: int = 0
    #: Wall time of the traced region (set-up plus timed phases).
    traced_wall_s: float = 0.0
    #: Counts read from the program's own reports (per-layer metrics).
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def run_rounds(seconds: float, one_round: Callable[[int], None]) -> int:
    """Run whole rounds until ``seconds`` of wall time have passed.

    Every round performs the same kind and amount of seeded work on fresh
    state, so a run that fits more rounds measures the same thing more
    often, never a larger state.  Returns the number of rounds.
    """
    started = clock()
    rounds = 0
    while rounds == 0 or clock() - started < seconds:
        one_round(rounds)
        rounds += 1
    return rounds


@contextmanager
def traced(tracer: Optional[LayerTracer], outcome: Outcome,
           pace: "HostPace", extra: tuple = ()) -> Iterator[None]:
    """Install ``tracer`` (if any) for the body, adding the body's wall
    time, less host-pace sampling, to the outcome's traced wall time.
    Workloads trace each round's set-up and timed phase and leave their
    checks untraced."""
    if tracer is not None:
        tracer.install(extra)
    started, sampling = clock(), pace.spent
    try:
        yield
    finally:
        outcome.traced_wall_s += (clock() - started
                                  - (pace.spent - sampling))
        if tracer is not None:
            tracer.uninstall()


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (or of its largest waited-for
    child, if larger), in MB (Linux reports ``ru_maxrss`` in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


#: Calibration-kernel time that defines one reference second (this host's
#: median; see README.md).
REFERENCE_KERNEL_S = 0.0015


def _kernel() -> int:
    """A fixed slice of interpreter work like the program's own: hashing,
    dict updates, big-integer arithmetic and JSON encoding."""
    acc = 0
    table: dict[int, bytes] = {}
    for i in range(1500):
        table[i & 255] = hashlib.sha256(i.to_bytes(4, "big")).digest()
        acc = (acc * 31 + i) % 1_000_003
    acc ^= pow(3, 5_000, (1 << 255) - 19) & 0xFFFF
    return acc + len(json.dumps({"a": list(range(100)), "t": len(table)},
                                sort_keys=True))


class HostPace:
    """How fast this host runs right now, from a fixed calibration kernel.

    The host's speed drifts by tens of percent within seconds, so a run
    samples the kernel around its operations (never inside a timed one) and
    reports times in *reference seconds*: each operation's wall time scaled
    by ``REFERENCE_KERNEL_S`` over the median kernel time sampled around
    that operation.
    """

    def __init__(self) -> None:
        #: (perf_counter midpoint, kernel seconds), in sampling order.
        self.samples: list[tuple[float, float]] = []
        #: Seconds spent sampling (kept out of traced time).
        self.spent = 0.0

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()      # a collection would time the program's heap
        try:
            began = clock()
            _kernel()
            ended = clock()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(((began + ended) / 2, ended - began))
        self.spent += ended - began

    def factor(self, start: float, end: float, margin: float = 0.5
               ) -> float:
        """Reference seconds per wall second over ``[start, end]``
        (perf_counter times): the median of the samples taken within
        ``margin`` of it, or of the three nearest ones."""
        near = [took for at, took in self.samples
                if start - margin <= at <= end + margin]
        if len(near) < 3:
            middle = (start + end) / 2
            near = [took for _, took in sorted(
                (abs(at - middle), took) for at, took in self.samples)[:3]]
        return REFERENCE_KERNEL_S / median(near)


