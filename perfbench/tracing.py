"""Per-module spans for the traced run, placed from outside the package.

Each hook wraps one public function or method of a ``pdmetric`` module.
A function hook replaces every module attribute of the package that is
bound to that function object, i.e. the name wherever a calling module
looks it up (``pdmetric.matching.augmented_matching`` as well as the name
in ``pdmetric._kernels``).  A method hook replaces the attribute on the
class that defines it.  A target that no longer exists, or whose work
counts can no longer be taken, is reported as absent; it never raises and
never changes an op's result.

Spans (id, parent id, op index, hook, start, end) are kept in memory up to
a cap; the per-family aggregates are exact whatever the cap.  Self time is
a span's duration minus the durations of its direct child spans.  Counting
that calls back into the program (the bottleneck candidate set) runs
untraced, and its time is left out of every span open around it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

SPAN_CAP = 200_000

# hook, family, module, attribute ("*.name": that method on every class of the
# module defining it; "*public": every public function of the module)
HOOKS = (
    ("diagram.parse_diagram", "diagram.parse", "pdmetric.diagram", "parse_diagram"),
    ("diagram.write_diagram", "diagram.write", "pdmetric.diagram", "write_diagram"),
    ("diagram.canonicalize", "diagram.canonicalize", "pdmetric.diagram", "canonicalize"),
    ("spaces.coords_matrix", "spaces.coords_matrix", "pdmetric.spaces", "*.coords_matrix"),
    ("spaces.pairwise_dist", "spaces.pairwise_dist", "pdmetric.spaces", "*.pairwise_dist"),
    ("spaces.dist_to_A", "spaces.dist_to_A", "pdmetric.spaces", "*.dist_to_A"),
    ("spaces.dist_to_A_batch", "spaces.dist_to_A", "pdmetric.spaces", "*.dist_to_A_batch"),
    ("matching.bottleneck", "matching.solve", "pdmetric.matching", "bottleneck"),
    ("matching.wasserstein", "matching.solve", "pdmetric.matching", "wasserstein"),
    ("kernels.augmented_matching", "kernels.feasibility", "pdmetric.matching",
     "augmented_matching"),
    ("kernels.solve_assignment", "kernels.assignment", "pdmetric.matching",
     "solve_assignment"),
    ("geodesics.geodesic_between", "geodesics.path", "pdmetric.geodesics", "geodesic_between"),
    ("geodesics.DiagramPath.at", "geodesics.frame", "pdmetric.geodesics", "DiagramPath.at"),
    ("geodesics.midpoint_check", "geodesics.check", "pdmetric.geodesics", "midpoint_check"),
    ("geodesics.c0_truncation_gap", "geodesics.c0", "pdmetric.geodesics",
     "c0_truncation_gap"),
    ("probes.*", "probes.call", "pdmetric.probes", "*public"),
    ("cli.main", "cli.main", "pdmetric.cli", "main"),
)

# per-layer metric: (unit, families it needs, how to read it)
METRICS = {
    "diagram.parse_s": ("s", ["diagram.parse"], ("incl", "diagram.parse")),
    "diagram.write_s": ("s", ["diagram.write"], ("incl", "diagram.write")),
    "diagram.canonicalize_s": ("s", ["diagram.canonicalize"], ("incl", "diagram.canonicalize")),
    "diagram.canonicalize_calls": ("count", ["diagram.canonicalize"],
                                   ("calls", "diagram.canonicalize")),
    "diagram.points_in": ("count", ["diagram.canonicalize"], ("extra", "points_in")),
    "spaces.pairwise_dist_s": ("s", ["spaces.pairwise_dist"], ("incl", "spaces.pairwise_dist")),
    "spaces.pairwise_dist_calls": ("count", ["spaces.pairwise_dist"],
                                   ("calls", "spaces.pairwise_dist")),
    "spaces.pairwise_bytes": ("bytes", ["spaces.pairwise_dist"], ("extra", "pairwise_bytes")),
    "spaces.dist_to_A_calls": ("count", ["spaces.dist_to_A"], ("extra", "dist_to_A_scalar")),
    "spaces.dist_to_A_s": ("s", ["spaces.dist_to_A"], ("incl", "spaces.dist_to_A")),
    "spaces.coords_matrix_s": ("s", ["spaces.coords_matrix"], ("incl", "spaces.coords_matrix")),
    "matching.solves": ("count", ["matching.solve"], ("calls", "matching.solve")),
    "matching.solve_s": ("s", ["matching.solve"], ("incl", "matching.solve")),
    "matching.self_s": ("s", ["matching.solve"], ("self", "matching.solve")),
    "matching.candidates": ("count", ["matching.solve", "matching.candidates"],
                            ("extra", "candidates")),
    "matching.witness_pairs": ("count", ["matching.solve"], ("extra", "witness_pairs")),
    "kernels.feasibility_calls": ("count", ["kernels.feasibility"],
                                  ("calls", "kernels.feasibility")),
    "kernels.feasibility_s": ("s", ["kernels.feasibility"], ("incl", "kernels.feasibility")),
    "kernels.assignment_calls": ("count", ["kernels.assignment"],
                                 ("calls", "kernels.assignment")),
    "kernels.assignment_s": ("s", ["kernels.assignment"], ("incl", "kernels.assignment")),
    "kernels.assignment_bytes": ("bytes", ["kernels.assignment"],
                                 ("extra", "assignment_bytes")),
    "geodesics.paths": ("count", ["geodesics.path"], ("calls", "geodesics.path")),
    "geodesics.frames": ("count", ["geodesics.frame"], ("calls", "geodesics.frame")),
    "geodesics.frame_s": ("s", ["geodesics.frame"], ("incl", "geodesics.frame")),
    "geodesics.self_s": ("s", ["geodesics.path", "geodesics.frame", "geodesics.check",
                               "geodesics.c0"], ("self", "geodesics.")),
    "probes.calls": ("count", ["probes.call"], ("calls", "probes.call")),
    "probes.solver_calls": ("count", ["probes.call", "matching.solve"],
                            ("extra", "probe_solver_calls")),
    "probes.self_s": ("s", ["probes.call"], ("self", "probes.call")),
    "cli.commands": ("count", ["cli.main"], ("calls", "cli.main")),
    "cli.self_s": ("s", ["cli.main"], ("self", "cli.main")),
}


class _Family:
    __slots__ = ("calls", "incl", "self_time", "depth")

    def __init__(self):
        self.calls = 0  # outermost calls: not nested in a call of the same family
        self.incl = 0.0  # their summed durations
        self.self_time = 0.0  # summed self time of every call
        self.depth = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []
        self.dropped = 0
        self.hook_names = []
        self.families = {}
        self.extra = {"points_in": 0, "pairwise_bytes": 0, "dist_to_A_scalar": 0,
                      "candidates": 0, "witness_pairs": 0, "assignment_bytes": 0,
                      "probe_solver_calls": 0}
        self.installed = {}  # family -> number of patched names
        self.absent = {}  # family -> why its hooks could not be placed or counted
        self._stack = []
        self._paused = 0.0  # time spent counting, excluded from every open span
        self._next_id = 0
        self._restore = []
        self._candidates = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        missing = {}
        for hook, family, module_name, attr in HOOKS:
            self.families.setdefault(family, _Family())
            try:
                module = importlib.import_module(module_name)
            except ImportError as e:
                missing.setdefault(family, []).append(f"{module_name} does not import: {e}")
                continue
            targets = self._resolve(module, attr)
            if not targets:
                missing.setdefault(family, []).append(f"{module_name}.{attr} not found")
            for label, owner, name, fn in targets:
                self._patch(hook, label, family, owner, name, fn)
        for family, reasons in missing.items():
            if not self.installed.get(family):
                self.absent[family] = "; ".join(reasons)
        try:
            from pdmetric.matching import candidate_thresholds
            self._candidates = candidate_thresholds
        except ImportError as e:
            self.absent["matching.candidates"] = f"candidate_thresholds not found: {e}"

    @staticmethod
    def _resolve(module, attr):
        """[(span label, owner, attribute name, function)]"""
        short = module.__name__.rsplit(".", 1)[-1]
        if attr == "*public":
            names = getattr(module, "__all__", None) or [n for n in vars(module) if n[0] != "_"]
            return [(f"{short}.{n}", module, n, getattr(module, n)) for n in names
                    if inspect.isfunction(getattr(module, n, None))
                    and getattr(module, n).__module__ == module.__name__]
        if attr.startswith("*."):
            name = attr[2:]
            return [(f"{short}.{cls.__name__}.{name}", cls, name, cls.__dict__[name])
                    for cls in vars(module).values()
                    if inspect.isclass(cls) and cls.__module__ == module.__name__
                    and inspect.isfunction(cls.__dict__.get(name))]
        owner = module
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return []
        fn = getattr(owner, parts[-1], None)
        return [(f"{short}.{attr}", owner, parts[-1], fn)] if callable(fn) else []

    def _patch(self, hook, label, family, owner, name, fn):
        idx = len(self.hook_names)
        self.hook_names.append(label)
        wrapper = self._wrap(idx, hook, family, fn)
        if inspect.isclass(owner):
            places = [(owner, name)]
        else:
            # every package module attribute bound to this function object
            places = [(mod, key) for mod_name, mod in list(sys.modules.items())
                      if mod is not None
                      and (mod_name == "pdmetric" or mod_name.startswith("pdmetric."))
                      for key, value in list(vars(mod).items()) if value is fn]
        for place, key in places:
            self._restore.append((place, key, fn))
            setattr(place, key, wrapper)
        self.installed[family] = self.installed.get(family, 0) + len(places)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, idx, hook, family, fn):
        fam = self.families[family]
        is_canonicalize = family == "diagram.canonicalize"
        is_solve = family == "matching.solve"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_canonicalize and args and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            outer = fam.depth == 0
            if is_solve and outer and tracer.families["probes.call"].depth:
                tracer.extra["probe_solver_calls"] += 1
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]  # id, child time
            stack.append(frame)
            fam.depth += 1
            paused = tracer._paused
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dur = t1 - t0 - (tracer._paused - paused)
                stack.pop()
                fam.depth -= 1
                if stack:
                    stack[-1][1] += dur
                fam.self_time += dur - frame[1]
                if outer:
                    fam.calls += 1
                    fam.incl += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((span_id, parent, tracer.op, idx, t0, t1))
                else:
                    tracer.dropped += 1
            if outer:
                tracer._count(hook, family, args, kwargs, result)
            return result

        return wrapper

    def _count(self, hook, family, args, kwargs, result) -> None:
        """Work counts of one outermost call, taken outside its span."""
        try:
            if hook == "diagram.canonicalize":
                self.extra["points_in"] += len(args[0])
            elif hook == "spaces.pairwise_dist":
                xs, ys = args[1], args[2]
                self.extra["pairwise_bytes"] += xs.shape[0] * ys.shape[0] * xs.shape[1] * 8
            elif hook == "spaces.dist_to_A":
                self.extra["dist_to_A_scalar"] += 1
            elif hook == "kernels.solve_assignment":
                self.extra["assignment_bytes"] += args[0].shape[0] ** 2 * 8
            elif hook in ("matching.bottleneck", "matching.wasserstein"):
                self.extra["witness_pairs"] += len(result[1].pairs)
                if hook == "matching.bottleneck" and self._candidates is not None:
                    self.active = False
                    t0 = time.perf_counter()
                    try:
                        self.extra["candidates"] += len(self._candidates(*args, **kwargs))
                    finally:
                        self._paused += time.perf_counter() - t0
                        self.active = True
        except Exception as e:  # a count must never fail the op it observes
            self.absent.setdefault(family, f"counting {hook} failed: {type(e).__name__}: {e}")

    # -- results -----------------------------------------------------------

    def metrics(self) -> tuple[dict, dict]:
        """(per-layer metrics, reasons for those reported as absent)."""
        out, absent = {}, {}
        for name, (unit, needs, (kind, key)) in METRICS.items():
            missing = [f for f in needs if f in self.absent]
            if missing:
                absent[name] = "; ".join(self.absent[f] for f in missing)
            if kind == "incl":
                value = self.families[key].incl
            elif kind == "calls":
                value = self.families[key].calls
            elif kind == "self":
                value = sum(f.self_time for n, f in self.families.items() if n.startswith(key))
            else:
                value = self.extra[key]
            out[name] = {"value": value, "unit": unit}
        return out, absent

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"hooks": self.hook_names, "dropped": self.dropped,
                                 "fields": ["id", "parent", "op", "hook", "t0", "t1"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
