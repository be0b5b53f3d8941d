"""In-process tracing of gradiform's public functions.

``Tracer.install()`` wraps every public module-level function of each
gradiform module, in every gradiform namespace that binds it (modules
import each other's functions by name, so patching the defining module
alone would miss most calls), plus the ``QuadratureRule.gauss_legendre``
classmethod.  ``uninstall()`` puts the originals back.

Each wrapped call is a span with a parent.  Spans are kept in memory and
written out by ``dump``.  The hot leaves (``LEAVES``, about 10^6 calls per
pass) get no span of their own: their calls and times are summed per
parent span instead.  Self time is a span's duration minus the time of
its wrapped children.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("fields", "homotopy", "integrability", "gradientize", "dynamics",
           "sampling", "zoo", "cli")
LEAVES = {"fields.eval_field", "fields.jacobian", "fields.fd_step",
          "homotopy.gauss_legendre"}


class Stat:
    __slots__ = ("calls", "total", "self", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost calls only, so recursion counts once
        self.self = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.spans = []  # (id, parent id, name, start, end)
        self.leaf = defaultdict(lambda: [0, 0.0])  # (parent id, name)
        self.observed = defaultdict(float)
        self._stack = [[0, 0.0]]  # frames: [span id, wrapped child time]
        self._next_id = 1
        self._undo = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)
        if name in LEAVES:
            leaf = self.leaf

            def wrapper(*args, **kwargs):
                frame = [stack[-1][0], 0.0]
                stack.append(frame)
                stat.depth += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat.depth -= 1
                    stack[-1][1] += dt
                    stat.calls += 1
                    stat.self += dt - frame[1]
                    if not stat.depth:
                        stat.total += dt
                    agg = leaf[frame[0], name]
                    agg[0] += 1
                    agg[1] += dt
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result
        else:
            spans = self.spans

            def wrapper(*args, **kwargs):
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1][0]
                frame = [sid, 0.0]
                stack.append(frame)
                stat.depth += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    stack.pop()
                    stat.depth -= 1
                    stack[-1][1] += dt
                    stat.calls += 1
                    stat.self += dt - frame[1]
                    if not stat.depth:
                        stat.total += dt
                    spans.append((sid, parent, name, t0, t1))
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"gradiform.{m}")
                for m in MODULES}
        namespaces = [importlib.import_module("gradiform"), *mods.values()]
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(ns, attr, wrappers[val])
                elif isinstance(val, dict):  # e.g. the CLI command table
                    for key, fn in list(val.items()):
                        if inspect.isfunction(fn) and fn in wrappers:
                            self._patch_item(val, key, wrappers[fn])
        rule = mods["homotopy"].QuadratureRule
        original = rule.__dict__["gauss_legendre"]
        rule.gauss_legendre = classmethod(
            self._wrap("homotopy.gauss_legendre", original.__func__))
        self._undo.append(lambda: setattr(rule, "gauss_legendre", original))

    def _patch(self, ns, attr, new):
        old = getattr(ns, attr)
        setattr(ns, attr, new)
        self._undo.append(lambda: setattr(ns, attr, old))

    def _patch_item(self, table, key, new):
        old = table[key]
        table[key] = new
        self._undo.append(lambda: table.__setitem__(key, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- reading ----------------------------------------------------------
    def calls_under(self, leaf_or_span, ancestor):
        """Calls of ``leaf_or_span`` with an ``ancestor`` span above it."""
        names = {sid: name for sid, _, name, _, _ in self.spans}
        parents = {sid: parent for sid, parent, _, _, _ in self.spans}
        memo = {0: False}

        def under(sid):
            chain = []
            while sid not in memo:
                if names[sid] == ancestor:
                    memo[sid] = True
                    break
                chain.append(sid)
                sid = parents[sid]
            hit = memo[sid]
            for s in chain:
                memo[s] = hit
            return hit

        if leaf_or_span in LEAVES:
            return sum(agg[0] for (sid, name), agg in self.leaf.items()
                       if name == leaf_or_span and under(sid))
        return sum(1 for sid, parent, name, _, _ in self.spans
                   if name == leaf_or_span and under(parent))

    def total_under(self, span, ancestor):
        """Time of ``span`` spans whose direct parent is an ``ancestor``."""
        under = {sid for sid, _, name, _, _ in self.spans if name == ancestor}
        total = 0.0
        for sid, parent, name, t0, t1 in self.spans:
            if name == span and parent in under:
                total += t1 - t0
        return total

    def dump(self, path):
        """Write spans and per-parent leaf sums, one JSON object a line."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0,
                                     "end": t1}) + "\n")
            for (parent, name), (calls, total) in self.leaf.items():
                fh.write(json.dumps({"leaf": name, "parent": parent,
                                     "calls": calls, "total": total}) + "\n")


def _steps(key):
    def observe(tracer, args, kwargs, traj):
        tracer.observed[f"{key}.trajectories"] += 1
        tracer.observed[f"{key}.completed"] += bool(traj.completed)
        tracer.observed[f"{key}.steps"] += len(traj.states) - 1
    return observe


def _gauss_legendre(tracer, args, kwargs, rule):
    n = len(rule.nodes)
    tracer.observed["gauss_legendre.max_n"] = max(
        tracer.observed["gauss_legendre.max_n"], n)


def _csv(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.observed["csv.bytes"] += os.path.getsize(path)


_OBSERVERS = {
    "dynamics.integrate_rk4": _steps("rk4"),
    "dynamics.euler_maruyama": _steps("em"),
    "homotopy.gauss_legendre": _gauss_legendre,
    "dynamics.write_trajectory_csv": _csv,
}
