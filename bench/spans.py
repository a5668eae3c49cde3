"""Spans around calls into the package's public functions, for the traced run.

The tracer rebinds each listed public function, in every adiabatica module
that holds it, to a wrapper that records a span (name, start, end, parent,
operation id). Hot per-sample callables (a spec's evaluate and analytic
frame) are counted and timed without a span record each. Layer figures are
self times: a span's duration minus the time of the spans nested in it.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import Counter

import numpy as np

# (defining module, public function) -> layer
LAYERS = {
    ("spectral", "build_frames"): "spectral.build_frames",
    ("spectral", "connection"): "spectral.connection",
    ("effective", "build_effective"): "effective.build",
    ("effective", "criteria"): "effective.criteria",
    ("propagation", "stepping_propagators"): "propagation.stepping",
    ("propagation", "propagate"): "propagation.propagate",
    ("propagation", "coefficient_propagate"): "propagation.coefficient",
    ("propagation", "coefficient_evolution"): "propagation.composition",
    ("propagation", "stepping_evolution"): "propagation.composition",
    ("propagation", "composition_check"): "propagation.composition",
    ("phases", "phase_split"): "phases.phase_split",
    ("phases", "holonomy"): "phases.holonomy",
    ("phases", "ms_inconsistency_probe"): "phases.probe",
    ("models", "barred_model"): "models.barred_build",
}
# Model constructors whose specs get timed evaluate/analytic_frame callables.
SPEC_CONSTRUCTORS = (("models", "rotating_model"), ("models", "ms_second_model"), ("models", "barred_model"))
EIGH_FLOOR = "numerics.eigh_floor"


class Tracer:
    def __init__(self, package: str = "adiabatica"):
        self.package = package
        self.spans: list[dict] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()  # keyed by module, e.g. "spectral"
        self.op: int | None = None
        self.on = False
        self._stack: list[list] = []  # [span id, start, seconds covered by child spans]
        self._next_id = 0
        self._stepping_inputs: list[tuple] = []

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.self_s[name] += duration - frame[2]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return end

    def _count_error(self, exc: Exception, name: str) -> None:
        if not hasattr(exc, "bench_layer"):  # count where it was raised, not where it passed
            exc.bench_layer = name
            self.errors[name.split(".")[0]] += 1

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        if not self.on:
            yield
            return
        parent = self._stack[-1][0] if self._stack else None
        frame = self._enter()
        try:
            yield
        except Exception as exc:
            self._count_error(exc, name)
            raise
        finally:
            end = self._exit(frame, name)
            self.spans.append({"id": frame[0], "name": name, "start": frame[1], "end": end,
                               "parent": parent, "op": self.op, "probe": probe})

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def timed_sample(self, name: str, fn):
        """Like timed, for per-sample callables: counted and timed, no span record each."""

        def wrapper(t):
            if not self.on:
                return fn(t)
            frame = self._enter()
            try:
                return fn(t)
            except Exception as exc:
                self._count_error(exc, name)
                raise
            finally:
                self._exit(frame, name)

        return wrapper

    def timed_spec(self, spec):
        """A copy of spec whose per-sample callables count toward the models layer."""
        frame = spec.analytic_frame
        return dataclasses.replace(
            spec,
            evaluate=self.timed_sample("models.evaluate", spec.evaluate),
            analytic_frame=frame and self.timed_sample("models.analytic_frame", frame),
        )

    def _wrappers(self) -> dict[int, object]:
        """id(original public function) -> traced replacement."""
        out = {}
        for (module, name), layer in LAYERS.items():
            fn = getattr(sys.modules.get(f"{self.package}.{module}"), name, None)
            if fn is None:
                continue
            wrapped = fn
            if layer == "propagation.stepping":
                wrapped = self._capture_stepping(fn)
            if (module, name) in SPEC_CONSTRUCTORS:
                wrapped = self._building_specs(wrapped)
            out[id(fn)] = self.timed(layer, wrapped)
        for module, name in SPEC_CONSTRUCTORS:
            fn = getattr(sys.modules.get(f"{self.package}.{module}"), name, None)
            if fn is not None and id(fn) not in out:
                out[id(fn)] = self._building_specs(fn)
        return out

    def _building_specs(self, build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            spec = build(*args, **kwargs)
            return self.timed_spec(spec) if self.on else spec

        return wrapper

    def _capture_stepping(self, stepping):
        @functools.wraps(stepping)
        def wrapper(spec, grid, *args, **kwargs):
            if self.on:
                self._stepping_inputs.append((spec, grid))
            return stepping(spec, grid, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def tracing(self, op: int):
        """Install the wrappers and record spans for operation op."""
        wrappers = self._wrappers()
        patched = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == self.package or k.startswith(self.package + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        self.op, self.on = op, True
        try:
            yield
        finally:
            self.on = False
            for module, attr, value in patched:
                setattr(module, attr, value)

    def eigh_floor(self, op: int) -> None:
        """Probe: bare batched eigh of each midpoint stack the operation stepped.

        The stack is sampled with tracing off and the probe is kept out of the
        operation's own time; it bounds what a faster stepping kernel can gain.
        """
        inputs, self._stepping_inputs = self._stepping_inputs, []
        for spec, grid in inputs:
            mids = np.stack([spec.evaluate(t) for t in grid.times[:-1] + grid.dt / 2])
            self.op, self.on = op, True
            try:
                with self.span(EIGH_FLOOR, probe=True):
                    np.linalg.eigh(mids)
            finally:
                self.on = False
