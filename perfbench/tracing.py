"""Outside-in tracing of ia_lab's public functions.

``traced(tracer)`` replaces each function in ``LAYER_FUNCTIONS`` by a
wrapper at every name an ia_lab module binds it to (``ia_lab.receiver``
calls ``numerical_rank`` through its own module globals, for example), and
puts every original back on exit. Each call becomes a span: name, start,
end, parent span, and the sweep and trial it belongs to. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

LAYER_FUNCTIONS = {
    "channels": ("generate_channels", "extend_channel", "ExtendedChannel.matrix",
                 "save_channels", "load_channels"),
    "siso": ("build_precoders_k3", "build_precoders_general"),
    "mimo": ("build_mimo_even", "build_mimo_odd"),
    "designed": ("build_designed_channel",),
    "receiver": ("check_alignment", "zf_rates"),
    "linalg": ("numerical_rank", "orthonormal_complement", "singular_values",
               "subset_residual", "equality_residual", "span_residual"),
    "verification": ("separability_matrix", "vandermonde_check",
                     "demonstrate_diagonal_infeasibility"),
    "evaluation": ("snr_sweep", "estimate_dof"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items()
                   for fn in fns)

# a trial of snr_sweep starts with the first of these called directly by it
_TRIAL_START = ("channels.generate_channels", "designed.build_designed_channel")
_SWEEP = "evaluation.snr_sweep"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # id of the enclosing span, -1 at the top
    sweep: int
    trial: int


class Tracer:
    """Collects spans and the counts derived from arguments and results.

    Closed spans are kept as plain tuples of numbers and strings, which the
    garbage collector stops scanning, so a long trace does not slow down the
    run it measures.
    """

    def __init__(self):
        self.closed = []
        self.errors = dict.fromkeys(SPAN_NAMES, 0)
        self.blocks_drawn = 0
        self.dense_bytes = 0
        self.reports = 0
        self.reports_passed = 0
        self._stack = []  # (id, name) of open spans
        self._next_id = 0
        self._sweep = -1
        self._trial = -1

    @property
    def spans(self) -> list:
        """Closed spans in the order they opened."""
        return [Span(*t) for t in sorted(self.closed)]

    def begin_unit(self, sweep: int, trial: int = -1) -> None:
        """Mark the start of one benchmark call; trials inside a sweep are
        numbered from 0 as they start."""
        self._sweep, self._trial = sweep, trial

    def call(self, name, fn, args, kwargs):
        parent, parent_name = self._stack[-1] if self._stack else (-1, None)
        if name in _TRIAL_START and parent_name == _SWEEP:
            self._trial += 1
        span_id = self._next_id
        self._next_id += 1
        sweep, trial = self._sweep, self._trial
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.closed.append((span_id, name, start, end, parent, sweep, trial))
        self._observe(name, args, result)
        return result

    def _observe(self, name, args, result):
        if name == "channels.generate_channels":
            self.blocks_drawn += result.K * result.K * result.F
        elif name == "channels.ExtendedChannel.matrix":
            self.dense_bytes += args[0].dim ** 2 * 16
        elif name == "receiver.check_alignment":
            self.reports += 1
            self.reports_passed += int(result.passed)

    def write(self, path, origin: float) -> None:
        """Write spans as JSON lines, times in seconds after ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s._asdict(), "start": s.start - origin,
                                     "end": s.end - origin}) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _ia_lab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ia_lab" or name.startswith("ia_lab."))]


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def install(tracer) -> list:
    """Wrap every binding of the traced functions; returns the patches as
    (owner, attribute, original) for ``restore``."""
    modules = _ia_lab_modules()
    patches = []
    for layer, fns in LAYER_FUNCTIONS.items():
        home = importlib.import_module(f"ia_lab.{layer}")
        for fn_name in fns:
            name = f"{layer}.{fn_name}"
            if "." in fn_name:
                cls_name, attr = fn_name.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, name, original))
                continue
            original = getattr(home, fn_name)
            wrapper = _wrap(tracer, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
    return patches


def restore(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        restore(patches)


def layer_metrics(tracer, trials: int) -> dict:
    """Per-layer metrics per attempted trial, as name -> (value, unit).

    Time-bound runs make more calls on a faster commit, so counts and times
    are divided by the trials the traced rounds attempted.
    """
    per = 1.0 / max(trials, 1)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    spans = tracer.spans
    for s, self_s in zip(spans, self_times(spans)):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += self_s
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] * per, "1/trial")
        out[f"{name}.ms"] = (total[name] * 1e3 * per, "ms/trial")
        out[f"{name}.self_ms"] = (own[name] * 1e3 * per, "ms/trial")
        out[f"{name}.errors"] = (tracer.errors[name] * per, "1/trial")
    out["channels.blocks_drawn"] = (tracer.blocks_drawn * per, "blocks/trial")
    out["channels.dense_bytes"] = (tracer.dense_bytes * per, "B/trial")
    ratio = tracer.reports_passed / tracer.reports if tracer.reports else 0.0
    out["receiver.check_alignment.pass_ratio"] = (ratio, "1")
    return out
