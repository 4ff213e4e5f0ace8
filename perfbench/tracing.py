"""Spans around gmchan's public functions, installed from outside.

`install` wraps every function named in plan.LAYERS. Modules import each other's
functions by name (dynamics.cp_check_oracle, cli.kf_to_ev, ...), so the
wrapper replaces every gmchan module attribute bound to the function, and
every value of a module-level dict bound to it (the CLI keeps its converters
in one). numpy.linalg.eigvalsh is the `kernel` layer.

Each span has a name, start, end, parent span and op id. Self time, call
counts and the two ratios are accumulated as spans close, so they are exact
for the whole run; the raw spans are kept in memory up to SPAN_CAP and
written out when the run ends.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

from plan import COUNTERS, EVOLVE, ORACLE, REJECTING, SPANS

SPAN_CAP = 1_000_000


class Tracer:
    def __init__(self):
        count = len(SPANS)
        self.calls = [0] * count
        self.self_s = [0.0] * count
        self.total_s = [0.0] * count
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self.tag = ""
        self._stack = []  # [span id, start, time covered by children, record index]
        self._oracle_id = SPANS.index(ORACLE)
        self._eig_id = SPANS.index("kernel.eigvalsh")
        self._evolve_ids = {SPANS.index(s) for s in EVOLVE}
        self._oracle_depth = 0
        self._evolve_depth = 0
        self.oracle_s = 0.0
        self.eig_under_oracle_s = 0.0
        self.evolve_s = {}
        self.oracle_in_evolve_s = {}
        self.spans_seen = 0
        self._name = array("h")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")

    def enter(self, sid: int) -> None:
        if sid == self._oracle_id:
            self._oracle_depth += 1
        elif sid in self._evolve_ids:
            self._evolve_depth += 1
        index = -1
        if self.spans_seen < SPAN_CAP:
            index = self.spans_seen
            self._name.append(sid)
            self._start.append(0.0)
            self._end.append(0.0)
            self._parent.append(self._stack[-1][3] if self._stack else -1)
            self._op.append(self.op)
        self.spans_seen += 1
        self._stack.append([sid, perf_counter(), 0.0, index])

    def exit(self) -> None:
        end = perf_counter()
        sid, start, children, index = self._stack.pop()
        took = end - start
        self.calls[sid] += 1
        self.self_s[sid] += took - children
        self.total_s[sid] += took
        if self._stack:
            self._stack[-1][2] += took
        if index >= 0:
            self._start[index] = start
            self._end[index] = end
        if sid == self._eig_id:
            if self._oracle_depth:
                self.eig_under_oracle_s += took
        elif sid == self._oracle_id:
            self._oracle_depth -= 1
            if not self._oracle_depth:
                self.oracle_s += took
                if self._evolve_depth:
                    self.oracle_in_evolve_s[self.tag] = self.oracle_in_evolve_s.get(self.tag, 0.0) + took
        elif sid in self._evolve_ids:
            self._evolve_depth -= 1
            if not self._evolve_depth:
                self.evolve_s[self.tag] = self.evolve_s.get(self.tag, 0.0) + took

    def metrics(self, ops: int) -> dict:
        """Per-op values of every per-layer metric; a boundary no op entered
        is listed under "missing" and reads 0."""
        values, missing = {}, []
        for sid, span in enumerate(SPANS):
            if not self.calls[sid]:
                missing.append(span)
            values[f"{span}.calls"] = self.calls[sid] / ops
            values[f"{span}.self_s"] = self.self_s[sid] / ops
            if span == ORACLE:
                values[f"{span}.total_s"] = self.total_s[sid] / ops
        for name in COUNTERS:
            values[name] = self.counters[name] / ops
        ratios = {
            "channels.oracle_per_eigensolve": (self.oracle_s, self.eig_under_oracle_s),
            "dynamics.cp_share": (sum(self.oracle_in_evolve_s.values()),
                                  sum(self.evolve_s.values())),
        }
        for tag in ("stride1", "strided"):
            ratios[f"dynamics.cp_share.{tag}"] = (self.oracle_in_evolve_s.get(tag, 0.0),
                                                  self.evolve_s.get(tag, 0.0))
        for name, (num, den) in ratios.items():
            values[name] = num / den if den > 0 else 0.0
            if den <= 0:
                missing.append(name)
        return {"values": values, "missing": missing}

    def save(self, path: str) -> None:
        kept = len(self._name)
        np.savez(
            path,
            names=np.array(SPANS),
            name=np.frombuffer(self._name, dtype=np.int16, count=kept),
            start=np.frombuffer(self._start, dtype=np.float64, count=kept),
            end=np.frombuffer(self._end, dtype=np.float64, count=kept),
            parent=np.frombuffer(self._parent, dtype=np.int32, count=kept),
            op=np.frombuffer(self._op, dtype=np.int32, count=kept),
        )


def _wrap(fn, sid: int, tracer: Tracer, after=None):
    enter, exit_ = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        enter(sid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            exit_()
            if after is not None:
                after(args, None, e)
            raise
        exit_()
        if after is not None:
            after(args, result, None)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    return traced


def _hooks(gm, tracer: Tracer) -> dict:
    """Counters read at a boundary, outside the span they follow."""
    c = tracer.counters
    rejections = (gm.NotEV, gm.NotKF, gm.NotLF, gm.NotTracePreserving)

    def rejected(args, result, exc):
        if isinstance(exc, rejections):
            c["converters.rejected"] += 1

    def trajectory(args, result, exc):
        if result is not None:
            c["dynamics.frames"] += len(result.cp_flags)
            c["dynamics.frames_cp_checked"] += sum(f is not None for f in result.cp_flags)

    def read(args, result, exc):
        if exc is None:
            c["fileio.bytes_read"] += os.path.getsize(args[0])

    def written(args, result, exc):
        if exc is None:
            c["fileio.bytes_written"] += os.path.getsize(args[1])

    hooks = {span: rejected for span in REJECTING}
    hooks.update({"dynamics.evolve_semigroup": trajectory, "dynamics.evolve_timedep": trajectory,
                  "fileio.load_document": read, "fileio.save": written})
    return hooks


def _targets(gm) -> dict:
    """Public function object of each span; a name that is gone is absent."""
    found = {"kernel.eigvalsh": np.linalg.eigvalsh}
    public = set(gm.__all__)
    for span in SPANS:
        layer, fn = span.split(".")
        if layer == "cli":
            obj = getattr(gm.cli, fn, None)
        elif layer != "kernel" and fn in public:
            obj = getattr(gm, fn, None)
        else:
            continue
        if callable(obj):
            found[span] = obj
    return found


class Installed:
    """Handle on installed wrappers; `remove` puts the originals back."""

    def __init__(self, patches: list, absent: list):
        self.absent = absent
        self._patches = patches

    def remove(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches = []


def install(gm, tracer: Tracer) -> Installed:
    targets = _targets(gm)
    hooks = _hooks(gm, tracer)
    wrappers = {}
    for span, fn in targets.items():
        wrappers[id(fn)] = (fn, _wrap(fn, SPANS.index(span), tracer, hooks.get(span)))
    patches = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "gmchan" or name.startswith("gmchan."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if id(item) in wrappers and wrappers[id(item)][0] is item:
                        patches.append((value, key, item))
                        value[key] = wrappers[id(item)][1]
    eig = targets["kernel.eigvalsh"]
    patches.append((np.linalg, "eigvalsh", eig))
    np.linalg.eigvalsh = wrappers[id(eig)][1]
    absent = [span for span in SPANS if span not in targets]
    return Installed(patches, absent)
