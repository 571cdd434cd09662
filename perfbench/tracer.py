"""Span tracer that wraps the public functions of every avfp module.

Nothing inside the package changes: `install()` replaces each public
function with a wrapper on every avfp module attribute bound to it
(modules bind names with `from .x import f`, so one function can sit
under several modules), and `uninstall()` puts the originals back.

Spans live in flat integer arrays (name id, start ns, end ns, parent
index) so millions of primitive calls stay affordable; self time is
computed once, at the end, as duration minus the direct children's
durations (single-threaded code nests without overlap).
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("diffcore", "rng", "data", "model", "objectives", "training", "evalcli")

def _seq_rows(arg) -> int:
    """Time steps in a trajectory, or in a list of them (a filter that
    batches trajectories counts all of their rows)."""
    if hasattr(arg, "length"):
        return int(arg.length)
    if isinstance(arg, (list, tuple)):
        return sum(_seq_rows(a) for a in arg)
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = [-1]
        self.recording = [False]     # innermost Tape / no_tape context wins
        self.rows: dict[int, int] = {}          # filter_forward span -> rows
        self.taped_rows = 0
        self.nodes: dict[int, int] = {}         # backward span -> tape nodes
        self.partition: dict[int, str] = {}     # adam_step span -> group prefix
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _wrap(self, key: str, fn):
        nid = self._name_id.setdefault(key, len(self._name_id))
        if nid == len(self.names):
            self.names.append(key)
        name, start, end, parent, stack = (
            self.name, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter_ns
        extra = None        # facts recorded at span entry
        if key == "objectives.filter_forward":
            def extra(idx, a, kw):
                n = _seq_rows(a[1] if len(a) > 1 else kw.get("traj"))
                self.rows[idx] = n
                if self.recording[-1]:
                    self.taped_rows += n
        elif key == "diffcore.backward":
            def extra(idx, a, kw):
                self.nodes[idx] = len(a[0]) if a else len(kw["tape"])
        elif key == "training.adam_step":
            def extra(idx, a, kw):
                group = a[0] if a else kw["group"]
                first = next(iter(group), "")
                self.partition[idx] = first.split(".", 1)[0]

        if extra is None:
            def wrapper(*a, **kw):
                idx = len(start)
                name.append(nid)
                parent.append(stack[-1])
                end.append(0)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*a, **kw)
                finally:
                    end[idx] = clock()
                    stack.pop()
        else:
            def wrapper(*a, **kw):
                idx = len(start)
                name.append(nid)
                parent.append(stack[-1])
                end.append(0)
                extra(idx, a, kw)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*a, **kw)
                finally:
                    end[idx] = clock()
                    stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import avfp
        from avfp import diffcore

        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "avfp" or n.startswith("avfp."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"avfp.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

        # Recording state, for rows filtered under a tape.
        for cls, flag in ((diffcore.Tape, True), (diffcore.no_tape, False)):
            enter, exit_ = cls.__enter__, cls.__exit__

            def _enter(obj, _enter=enter, _flag=flag):
                self.recording.append(_flag)
                return _enter(obj)

            def _exit(obj, *exc, _exit=exit_):
                self.recording.pop()
                return _exit(obj, *exc)

            self._patch(cls, "__enter__", _enter)
            self._patch(cls, "__exit__", _exit)
        del avfp

    def uninstall(self):
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)


class TraceSummary:
    """Per-function calls, inclusive and self seconds, plus derived ratios."""

    def __init__(self, tr: Tracer):
        a = tr.arrays()
        self.tr = tr
        self.a = a
        dur = (a["end"] - a["start"]).astype(np.float64) * 1e-9
        n_names = len(tr.names)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        selfd = dur - child
        self.calls = np.bincount(a["name"], minlength=n_names)
        self.incl = np.bincount(a["name"], weights=dur, minlength=n_names)
        self.self_ = np.bincount(a["name"], weights=selfd, minlength=n_names)
        self._id = {n: i for i, n in enumerate(tr.names)}

    def _get(self, arr, key, default=0.0):
        i = self._id.get(key)
        return float(arr[i]) if i is not None else default

    def calls_of(self, key) -> int:
        return int(self._get(self.calls, key, 0))

    def s(self, key) -> float:
        return self._get(self.incl, key)

    def self_s(self, key) -> float:
        return self._get(self.self_, key)

    def spans_of(self, key) -> np.ndarray:
        i = self._id.get(key)
        if i is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.a["name"] == i)

    def calls_under(self, key: str, ancestor: str) -> int:
        """Spans named key that run inside a span named ancestor."""
        i, j = self._id.get(key), self._id.get(ancestor)
        if i is None or j is None:
            return 0
        name, parent = self.a["name"], self.a["parent"]
        inside = name == j
        has_parent = parent >= 0
        while True:     # parents precede children, so depth passes suffice
            grown = inside.copy()
            grown[has_parent] |= inside[parent[has_parent]]
            if (grown == inside).all():
                break
            inside = grown
        return int(((name == i) & inside).sum())

    def rows(self) -> int:
        return sum(self.tr.rows.values())

    def tape_nodes(self) -> int:
        return sum(self.tr.nodes.values())

    def useful_rollout_ratio(self) -> float:
        """Prior rollouts called by train itself (the psi update) / all."""
        spans = self.spans_of("objectives.prior_rollout")
        if len(spans) == 0:
            return 0.0
        train = self._id.get("training.train")
        parents = self.a["parent"][spans]
        useful = sum(1 for p in parents
                     if p >= 0 and self.a["name"][p] == train)
        return useful / len(spans)

    def phase_seconds(self) -> dict[str, float]:
        """Wall time per partition update inside train.

        The interval between consecutive adam_step returns (from the
        train span's start for the first) goes to the partition the
        closing adam_step updated; evaluation spans inside it are
        subtracted.
        """
        out = {"disc": 0.0, "gen": 0.0, "rul": 0.0}
        phase_of = {"psi": "disc", "theta": "gen", "phi": "gen", "rho": "rul"}
        a = self.a
        evals = self.spans_of("training.rmse_per_cycle")
        ev_start, ev_end = a["start"][evals], a["end"][evals]
        adams = self.spans_of("training.adam_step")
        for tspan in self.spans_of("training.train"):
            t0, t1 = a["start"][tspan], a["end"][tspan]
            prev = t0
            for s in adams:
                e = a["end"][s]
                if not (t0 <= a["start"][s] and e <= t1):
                    continue
                inside = (ev_start >= prev) & (ev_end <= e)
                busy = (e - prev) - (ev_end[inside] - ev_start[inside]).sum()
                phase = phase_of.get(self.tr.partition.get(int(s)))
                if phase is not None:
                    out[phase] += busy * 1e-9
                prev = e
        return out
