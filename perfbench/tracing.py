"""Layer tracing from outside the program: timing wrappers with self time.

A :class:`Probe` names one entry point of one layer (a method on its class,
or a function in the module namespace it is looked up from).  While a
:class:`LayerTracer` is installed, every probed call becomes a span with a
parent link; the tracer keeps, per probe key, the number of calls, the
bytes handled and the *self time*: the span's duration minus the time
covered by probed calls nested inside it.  Self times therefore add up to
the time spent under outermost probed calls, and ``other.s`` — the traced
wall time minus that sum — is everything no probe covers.

Spans stay in memory and are written out by :meth:`LayerTracer.write_spans`
when the run ends.  :meth:`LayerTracer.uninstall` puts every original back,
so an untraced run executes the program's own code paths only.

Forked worker processes inherit the installed wrappers.  A worker calls
:meth:`LayerTracer.adopt_fork` once, then :meth:`LayerTracer.flush_to`
after each unit of work; the parent merges those files with
:meth:`LayerTracer.absorb`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

_clock = time.perf_counter


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``target`` is ``"module:Class.attr"`` or ``"module:function"``.
    ``nbytes(args, kwargs, result)`` sizes the call's payload.
    ``misses(original)`` reads a cache-miss counter: when given, a call is
    kept as a span only if the counter moved (a cache hit is folded into
    the caller's self time).  ``timed=False`` only counts calls.
    ``per_instance`` keeps each call's duration grouped by ``args[0]``.
    """

    key: str
    target: str
    nbytes: Optional[Callable[[tuple, dict, Any], int]] = None
    misses: Optional[Callable[[Any], int]] = None
    timed: bool = True
    per_instance: bool = False


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (Class, "attr"); ``"pkg.mod:f"`` ->
    (module, "f")."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {attr!r} is not defined on "
                             f"{getattr(owner, '__name__', owner)!r}")
    return owner, attr


class LayerTracer:
    """Self-time accounting over a set of probes (see module docstring)."""

    def __init__(self, probes: list[Probe]):
        self.probes = list(probes)
        self._patched: list[tuple[Any, str, Any]] = []
        self._reset_records()

    # -- records -------------------------------------------------------------

    def _reset_records(self) -> None:
        self.pid = os.getpid()
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.bytes: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        #: key -> {instance id: [duration, ...]} in call order.
        self.per_instance: dict[str, dict[int, list[float]]] = {}
        #: (span id, parent id, key, start, end, operation label)
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        #: Open frames: [key, start, nested time, span id].
        self._stack: list[list] = []
        self._next_id = 1
        self._sealed = 0
        #: Label of the workload operation in progress (shared by its spans).
        self.operation = ""

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def count_span(self, _span: Any) -> None:
        """Span exporter for the program's own tracer: counts finished
        spans."""
        self.count("telemetry.spans")

    # -- the hot path --------------------------------------------------------

    def _enter(self, key: str) -> list:
        frame = [key, _clock(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool = True,
              nbytes: int = 0) -> float:
        end = _clock()
        # Pop down to this frame: a frame left open by a non-local exit
        # (e.g. a killed generator) must not corrupt the accounting.
        while self._stack and self._stack.pop() is not frame:
            pass
        key, start, nested, span_id = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if not keep:
            # Not a span of its own: its nested probed time still counts
            # as nested for the caller, its own time becomes the caller's.
            if parent is not None:
                parent[2] += nested
            return duration
        self.calls[key] = self.calls.get(key, 0) + 1
        self.self_s[key] = self.self_s.get(key, 0.0) + duration - nested
        if nbytes:
            self.bytes[key] = self.bytes.get(key, 0) + nbytes
        if parent is not None:
            parent[2] += duration
        self.spans.append((span_id, parent[3] if parent else 0, key,
                           start, end, self.operation))
        return duration

    def _wrap(self, probe: Probe, function: Callable) -> Callable:
        key = probe.key
        if not probe.timed:
            @functools.wraps(function)
            def counted(*args, **kwargs):
                self.counts[key] = self.counts.get(key, 0) + 1
                return function(*args, **kwargs)
            return counted

        nbytes, misses = probe.nbytes, probe.misses
        per_instance = probe.per_instance

        @functools.wraps(function)
        def timed(*args, **kwargs):
            before = misses(function) if misses is not None else 0
            frame = self._enter(key)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                keep = misses is None or misses(function) != before
                size = nbytes(args, kwargs, result) if nbytes else 0
                duration = self._exit(frame, keep, size)
                if per_instance and keep:
                    self.per_instance.setdefault(key, {}).setdefault(
                        id(args[0]), []).append(duration)
        return timed

    # -- install / uninstall -------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall` (raw descriptor
        kept, so static/class methods and properties are restored
        exactly)."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, extra: tuple = ()) -> None:
        """Wrap every probe, plus ``extra`` ``(owner, attr, replacement)``
        patches.  Records accumulate across install/uninstall cycles."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for owner, attr, replacement in extra:
            self.patch(owner, attr, replacement)
        for probe in self.probes:
            owner, attr = resolve(probe.target)
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(self._wrap(probe, raw.__func__))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(probe, raw.__func__))
            elif isinstance(raw, property):
                wrapped = property(self._wrap(probe, raw.fget), raw.fset,
                                   raw.fdel, raw.__doc__)
            else:
                wrapped = self._wrap(probe, raw)
            self.patch(owner, attr, wrapped)
        from repro import telemetry

        telemetry.tracer().add_exporter(self.count_span)

    def uninstall(self) -> None:
        from repro import telemetry

        telemetry.tracer().remove_exporter(self.count_span)
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def seal_instances(self) -> None:
        """Close the current per-instance groups: objects that die after
        this point may be garbage collected and their ids reused, which
        must not merge two objects' durations."""
        for groups in self.per_instance.values():
            for ident in [ident for ident in groups if ident >= 0]:
                self._sealed -= 1
                groups[self._sealed] = groups.pop(ident)

    # -- forked workers ------------------------------------------------------

    def adopt_fork(self) -> None:
        """First call in a forked child: drop the parent's records."""
        if os.getpid() != self.pid:
            self._reset_records()

    def flush_to(self, directory: str) -> None:
        """Append this process's records to its file in ``directory`` and
        clear them (called after each unit of work, so a killed worker
        loses only the unit in progress)."""
        os.makedirs(directory, exist_ok=True)
        record = {
            "calls": self.calls, "self_s": self.self_s,
            "bytes": self.bytes, "counts": self.counts,
            "per_instance": {key: list(groups.values())
                             for key, groups in self.per_instance.items()},
        }
        path = os.path.join(directory, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.write_spans(os.path.join(directory, f"spans-{os.getpid()}.jsonl"),
                         append=True)
        stack, next_id = self._stack, self._next_id
        self._reset_records()
        self._stack, self._next_id = stack, next_id

    def absorb(self, directory: str) -> None:
        """Merge every worker file in ``directory`` into these records."""
        if not os.path.isdir(directory):
            return
        for name in sorted(os.listdir(directory)):
            if not name.startswith("worker-"):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                for line in f:
                    if not line.endswith("\n"):
                        continue  # torn by a kill mid-write
                    record = json.loads(line)
                    for field in ("calls", "bytes", "counts"):
                        mine = getattr(self, field)
                        for key, value in record[field].items():
                            mine[key] = mine.get(key, 0) + value
                    for key, value in record["self_s"].items():
                        self.self_s[key] = self.self_s.get(key, 0.0) + value
                    for key, groups in record["per_instance"].items():
                        mine = self.per_instance.setdefault(key, {})
                        for group in groups:
                            self._sealed -= 1
                            mine[self._sealed] = group

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str, append: bool = False) -> None:
        """Write the in-memory spans as JSON lines (pid, id, parent, name,
        start, end, operation)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a" if append else "w", encoding="utf-8") as handle:
            for span_id, parent, key, start, end, op in self.spans:
                handle.write(json.dumps(
                    {"pid": self.pid, "id": span_id, "parent": parent,
                     "name": key, "start": start, "end": end, "op": op},
                    separators=(",", ":")) + "\n")

    def attributed_s(self) -> float:
        """Total self time over all probes."""
        return sum(self.self_s.values())
