"""In-memory span recorder wrapped around starcurv's layer boundaries.

The program looks these names up at call time (module globals and class
attributes), so replacing them routes every call through a span without
touching the program's files.  Spans stay in memory; the worker writes
them out when it exits.  A span opened on a Jacobian pool thread has no
parent on its own thread and is attributed to the span open on the client
thread, which is the enclosing `solver.jacobian`.  Self time is a span's
duration minus the union of its children's intervals, because pool
children overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name): every module that holds its own reference
# to a layer function is patched, so each call is seen exactly once
MODULE_TARGETS = (
    ("starcurv.cli", "continuity_solve", "solver.continuity_solve"),
    ("starcurv.solver", "newton_solve", "solver.newton_solve"),
    ("starcurv.solver", "jacobian", "solver.jacobian"),
    ("starcurv.verify", "jacobian", "solver.jacobian"),
    ("starcurv.solver", "assemble", "geometry.assemble"),
    ("starcurv.cli", "assemble", "geometry.assemble"),
    ("starcurv.verify", "assemble", "geometry.assemble"),
    ("starcurv.geometry", "assemble", "geometry.assemble"),
    ("starcurv.geometry", "covariant_jet", "grid.covariant_jet"),
    ("starcurv.solver", "sigma_all", "symfunc.sigma_all"),
    ("starcurv.cli", "write_node_table", "export.write"),
    ("starcurv.cli", "write_mesh", "export.write"),
    ("starcurv.cli", "write_report", "export.write"),
    ("starcurv.cli", "check_barriers", "prescription.check"),
    ("starcurv.cli", "check_monotonicity", "prescription.check"),
    ("starcurv.verify", "codazzi_residual", "geometry.identity"),
    ("starcurv.verify", "hessian_identity_residual", "geometry.identity"),
    ("starcurv.verify", "support_gradient_residual", "geometry.identity"),
    ("starcurv.verify", "support_hessian_residual", "geometry.identity"),
)
CLASS_TARGETS = (
    ("starcurv.prescription", "Prescription", "__call__", "prescription.psi"),
    ("starcurv.spaceform", "SpaceFormModel", "check_domain", "spaceform.check_domain"),
)
COUNTED = (("starcurv.grid", "ScalarField", "__post_init__", "grid.ScalarField"),)


def _newton_extra(args, out, exc):
    report = getattr(exc, "report", None) if exc is not None else out[1]
    return {"iters": report.iterations if report is not None else 0,
            "raised": exc is not None}


def _splu_extra(args, out, exc):
    return None if exc is not None else {"nnz_lu": out.nnz, "nnz_j": args[0].nnz}


def _write_extra(args, out, exc):
    return None if exc is not None else {"bytes": os.path.getsize(args[0])}


EXTRAS = {"solver.newton_solve": _newton_extra, "export.write": _write_extra}


class _Factor:
    """splu's factor object with a traced `solve`."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Recorder:
    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end, extra)
        self.counts = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._client = threading.get_ident()
        self._client_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        top = self._client_stack[-1:]   # a pool thread: the client's open span
        return top[0] if top else 0

    def wrap(self, name, fn, extra=None):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = self._parent(stack)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, extra and extra(args, None, exc)))
                raise
            t1 = time.perf_counter()
            stack.pop()
            spans.append((sid, parent, name, t0, t1, extra and extra(args, out, None)))
            return out
        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for modname, attr, name in MODULE_TARGETS:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), EXTRAS.get(name)))
        verify = importlib.import_module("starcurv.verify")
        for attr in sorted(vars(verify)):
            if attr.startswith("check_"):
                suite = "verify." + attr.removeprefix("check_")
                self._patch(verify, attr, self.wrap(suite, getattr(verify, attr)))
        for modname, cls, attr, name in CLASS_TARGETS:
            owner = getattr(importlib.import_module(modname), cls)
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        for modname, cls, attr, name in COUNTED:
            owner = getattr(importlib.import_module(modname), cls)
            self._patch(owner, attr, self.counter(name, owner.__dict__[attr]))
        solver = importlib.import_module("starcurv.solver")
        splu = self.wrap("solver.splu", solver.splu, _splu_extra)

        def traced_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return _Factor(lu, self.wrap("solver.factor_solve", lu.solve))
        self._patch(solver, "splu", traced_splu)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, extra in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "extra": extra}) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans, counts) -> Counter:
    """Additive raw quantities of one operation's spans.

    Keys: `self:<span>` and `wall:<span>` seconds, `calls:<span>`,
    `count:<counter>`, and the solver tallies `jac_evals` (assembles
    under a Jacobian), `trials` (assembles newton_solve makes outside any
    Jacobian), `steps` (accepted Newton steps), `stage_attempts`, `stages`,
    `stage_iters`, `nnz_lu`, `nnz_j` and `bytes`.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    raw = Counter()
    for name, value in counts.items():
        raw[f"count:{name}"] += value
    for sid, parent, name, t0, t1, extra in spans:
        raw[f"calls:{name}"] += 1
        raw[f"wall:{name}"] += t1 - t0
        raw[f"self:{name}"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        if name == "geometry.assemble":
            up = by_id.get(parent)
            while up is not None and up[2] not in ("solver.jacobian", "solver.newton_solve"):
                up = by_id.get(up[1])
            if up is not None:
                raw["jac_evals" if up[2] == "solver.jacobian" else "trials"] += 1
        elif name == "solver.newton_solve":
            raw["steps"] += extra["iters"]
            up = by_id.get(parent)
            if up is not None and up[2] == "solver.continuity_solve":
                raw["stage_attempts"] += 1
                if not extra["raised"]:
                    raw["stages"] += 1
                    raw["stage_iters"] += extra["iters"]
        elif extra and name in ("solver.splu", "export.write"):
            for key, value in extra.items():
                raw[key] += value
    return raw


def is_count(key: str) -> bool:
    return not key.startswith(("self:", "wall:"))


def _ratio(num, den):
    return num / den if den else 0.0


def derive(raw) -> dict:
    """Per-layer metrics from summed raw quantities: name -> (value, unit)."""
    s = lambda name: raw.get(f"self:{name}", 0.0)
    n = lambda name: raw.get(f"calls:{name}", 0)
    out = {
        "solver.jacobian.s": (s("solver.jacobian"), "s"),
        "solver.jacobian.wall_s": (raw.get("wall:solver.jacobian", 0.0), "s"),
        "solver.jacobian.calls": (n("solver.jacobian"), "count"),
        "solver.jacobian.evals_per_call": (_ratio(raw["jac_evals"], n("solver.jacobian")), "count"),
        "solver.linear_solve.s": (s("solver.splu") + s("solver.factor_solve"), "s"),
        "solver.linear_solve.calls": (n("solver.splu"), "count"),
        "solver.linear_solve.fill": (_ratio(raw["nnz_lu"], raw["nnz_j"]), "ratio"),
        "solver.line_search.trials": (raw["trials"], "count"),
        "solver.line_search.accept_ratio": (_ratio(raw["steps"], raw["trials"]), "ratio"),
        "solver.newton.iters_per_stage": (_ratio(raw["stage_iters"], raw["stages"]), "count"),
        "solver.homotopy.stage_accept_ratio": (_ratio(raw["stages"], raw["stage_attempts"]), "ratio"),
        "geometry.assemble.s": (s("geometry.assemble"), "s"),
        "geometry.assemble.calls": (n("geometry.assemble"), "count"),
        "grid.covariant_jet.s": (s("grid.covariant_jet"), "s"),
        "grid.covariant_jet.calls": (n("grid.covariant_jet"), "count"),
        "spaceform.check_domain.calls": (n("spaceform.check_domain"), "count"),
        "grid.ScalarField.count": (raw.get("count:grid.ScalarField", 0), "count"),
        "prescription.psi.s": (s("prescription.psi"), "s"),
        "prescription.psi.calls": (n("prescription.psi"), "count"),
        "symfunc.sigma_all.s": (s("symfunc.sigma_all"), "s"),
        "export.write.s": (s("export.write"), "s"),
        "export.write.bytes": (raw["bytes"], "bytes"),
        "geometry.identity.s": (s("geometry.identity"), "s"),
        "prescription.check.s": (s("prescription.check"), "s"),
    }
    for key in sorted(raw):
        if key.startswith("self:verify."):
            out[key.removeprefix("self:") + ".s"] = (raw[key], "s")
    return out
