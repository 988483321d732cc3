"""Spans around the calls into uwbloc's layers, recorded from outside the package.

A boundary is a public function of one layer module, named
``<module>.<function>``. Installing a :class:`Tracer` replaces every
reference to that function object found in the loaded ``uwbloc`` modules
(the defining module and each module that imported it by name), so calls
are caught at the name the caller looks up and no file under ``src/``
changes. ``uninstall`` puts the original objects back.

The program is single-threaded and has no queues, so spans nest strictly
and there is no waiting time to record: a span's self time is its duration
minus the durations of its direct children, and the self times of all spans
under one root add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (span name, defining module, attribute path inside that module)
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "uwbloc.cli", "main"),
    ("simulate.sweep_snr", "uwbloc.simulate", "sweep_snr"),
    ("simulate.run_trial", "uwbloc.simulate", "run_trial"),
    ("simulate.emit_csv", "uwbloc.simulate", "emit_csv"),
    ("channel.sample_cir", "uwbloc.channel", "sample_cir"),
    ("channel.propagate", "uwbloc.channel", "propagate"),
    ("channel.apply_signature", "uwbloc.channel", "apply_signature"),
    ("channel.material_response", "uwbloc.channel", "material_response"),
    ("waveform.delay", "uwbloc.waveform", "delay"),
    ("waveform.add_awgn", "uwbloc.waveform", "add_awgn"),
    ("ranging.make_burst", "uwbloc.ranging", "make_burst"),
    ("ranging.toa_dirty_template", "uwbloc.ranging", "toa_dirty_template"),
    ("positioning.bancroft_solve", "uwbloc.positioning", "bancroft_solve"),
    ("positioning.select_solution", "uwbloc.positioning", "select_solution"),
    ("pulses.design_pulses", "uwbloc.pulses", "design_pulses"),
    ("pulses._Evaluator.fitness", "uwbloc.pulses", "_Evaluator.fitness"),
    ("pulses.load_pulse_set", "uwbloc.pulses", "load_pulse_set"),
    ("spectrum.psd", "uwbloc.spectrum", "psd"),
    ("detection.estimate_transfer", "uwbloc.detection", "estimate_transfer"),
    ("detection.classify", "uwbloc.detection", "classify"),
)

SPAN_NAMES = tuple(name for name, _, _ in BOUNDARIES)

# An observer sees (args, kwargs, result) of a call that returned.
Observer = Callable[[tuple, dict, Any], None]


@dataclass
class SpanStats:
    durations: list[float] = field(default_factory=list)
    self_s: float = 0.0


class Tracer:
    """In-memory span recorder for a chosen subset of :data:`BOUNDARIES`."""

    def __init__(self, names: tuple[str, ...] = SPAN_NAMES):
        unknown = set(names) - set(SPAN_NAMES)
        if unknown:
            raise ValueError(f"unknown span names: {sorted(unknown)}")
        self.names = names
        self.stats: dict[str, SpanStats] = {}
        # (span id, parent id, name, start, end), written out when the run ends
        self.records: list[tuple[int, int, str, float, float]] = []
        self.observers: dict[str, list[Observer]] = {}
        self._stack: list[list[float]] = []  # per open span: [id, child time]
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any, Any]] | None = None

    # -- recording -------------------------------------------------------

    def observe(self, name: str, fn: Observer) -> None:
        self.observers.setdefault(name, []).append(fn)

    def _enter(self) -> list[float]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list[float], start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        parent = 0
        if self._stack:
            self._stack[-1][1] += dur
            parent = int(self._stack[-1][0])
        st = self.stats.setdefault(name, SpanStats())
        st.durations.append(dur)
        st.self_s += dur - frame[1]
        self.records.append((int(frame[0]), parent, name, start, end))

    def root(self, name: str) -> "_Root":
        """A span opened by the benchmark itself; it parents everything inside it."""
        return _Root(self, name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        observers = self.observers

        def traced(*args, **kwargs):
            frame = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._leave(name, frame, start, end)
            for obs in observers.get(name, ()):
                obs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- installation ----------------------------------------------------

    def _find_patches(self) -> list[tuple[Any, str, Any, Any]]:
        """(owner, attribute, original, wrapper) for every reference to a boundary."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "uwbloc" or k.startswith("uwbloc."))]
        patches = []
        for name, mod_name, attr in BOUNDARIES:
            owner = sys.modules.get(mod_name)
            if name not in self.names or owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in vars(cls):
                    original = vars(cls)[meth]
                    patches.append((cls, meth, original, self._wrap(name, original)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def install(self) -> None:
        """Rebind every reference to each chosen boundary to its traced wrapper.

        The references are found on the first install, so every tracer of a
        run must be created and first installed while no other is installed.
        """
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches or ()):
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.duration = 0.0

    def __enter__(self) -> "_Root":
        self._frame = self.tracer._enter()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._leave(self.name, self._frame, self._start, end)
        self.duration = end - self._start
