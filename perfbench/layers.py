"""Spans and counts at sparsematch's layer boundaries, recorded from outside.

A ``Target`` names a function, method, classmethod or property of the package
as ``module:qualname`` and the span its calls open.  ``Recorder.install``
replaces a module-level function under every name it is bound to in a loaded
``sparsematch`` module, and inside module-level dicts such as ``FAMILIES``, so
a call is seen wherever the caller looked the name up (``max_matching`` is
looked up in ``harness``, ``strategies``, ``weights`` and ``matching``).
Class members are replaced on their class.  ``Recorder.restore`` puts every
original object back.

Spans are kept in flat lists (name, start, end, parent) and written out once,
by ``Recorder.write_spans``.  A span's self time is its duration minus the
time its child spans cover.  A target missing from the package (renamed or
removed by a later change) is skipped and listed in ``Recorder.missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "sparsematch"


@dataclass(frozen=True)
class Target:
    """One wrapped callable: span name, ``module:qualname`` and optional hooks.

    ``on_exit(recorder, args, kwargs, result, parent_name)`` runs after a call
    that returned; it updates counters or keeps results for output checks.
    ``when(obj)`` (properties only) opens a span only if it is true, so that a
    lazily built value is timed on its first access alone.
    """

    span: str
    ref: str
    on_exit: Callable | None = None
    when: Callable | None = None


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count(key: str, value: Callable):
    def hook(rec, args, kwargs, result, parent):
        rec.counters[key] += value(args, kwargs, result, parent)
    return hook


def _hooks(*hooks):
    def hook(rec, args, kwargs, result, parent):
        for h in hooks:
            h(rec, args, kwargs, result, parent)
    return hook


def _keep(key: str, value: Callable):
    def hook(rec, args, kwargs, result, parent):
        rec.kept.setdefault(key, []).append(value(args, kwargs, result))
    return hook


# Spans whose outermost occurrences make up the set-up time of a unit:
# instance construction, trip ingest and weight learning.
SETUP_SPANS = frozenset({"generators.instance", "generators.ingest",
                         "weights.lp", "weights.mc", "weights.copy"})

# Wrapped in every run: the set-up calls (timed for ``setup_s``) and the
# boundaries whose results the output checks read.
PROBE_TARGETS = (
    Target("generators.instance", "generators:gen_partitioned_block"),
    Target("generators.instance", "generators:gen_kvv_triangular"),
    Target("generators.instance", "generators:gen_bahmani"),
    Target("generators.instance", "generators:gen_tsm_tight"),
    Target("generators.instance", "generators:build_nyc_instance",
           _count("nyc.intervals_built", lambda a, k, r, p: 1)),
    Target("generators.ingest", "generators:ingest_trips"),
    Target("weights.lp", "weights:solve_expected_lp",
           _keep("lp", lambda a, k, r: (_first_arg(a, k, "instance").arrivals, r.objective))),
    Target("weights.mc", "weights:monte_carlo_weights",
           _count("weights.mc.sims", lambda a, k, r, p: a[1] if len(a) > 1 else k["simulations"])),
    Target("weights.copy", "weights:per_copy_marginals"),
    # (realized graph, strategy label, matched count) of every scored strategy run.
    Target("strategies.run", "strategies:run_strategy",
           _keep("strategy", lambda a, k, r: (a[0], a[1].label, r.matched))),
)

# Wrapped only in a traced run, on top of the probes.
TRACE_TARGETS = PROBE_TARGETS + (
    Target("cli.main", "cli:main"),
    Target("harness.run", "harness:run_experiment"),
    Target("harness.run", "harness:run_nyc_day"),
    Target("harness.learn", "harness:learn_weight_sources"),
    Target("instance.realize", "instance:realize",
           _count("harness.trials", lambda a, k, r, p: p == "harness.run")),
    Target("matching.edge_list", "matching:full_edge_list"),
    Target("matching.edge_list.validate", "matching:BipartiteEdgeList.__post_init__",
           _count("matching.edge_list.edges", lambda a, k, r, p: len(a[0].edges))),
    Target("matching.hk", "matching:max_matching", _hooks(
        _count("matching.hk.edges", lambda a, k, r, p: len(_first_arg(a, k, "graph").edges)),
        _count("harness.degenerate_trials", lambda a, k, r, p: p == "harness.run" and r.size == 0))),
    Target("matching.hk_shuffled", "matching:max_matching_shuffled"),
    Target("varopt.build", "varopt:VarOptSampler.__init__"),
    Target("varopt.draw", "varopt:VarOptSampler.draw"),
    Target("strategies.varopt", "strategies:varopt_sparsify"),
    Target("strategies.random", "strategies:random_subgraph"),
    Target("strategies.kvv", "strategies:kvv_ranking"),
    Target("strategies.mgs", "strategies:mgs"),
    Target("strategies.coordinate", "strategies:_coordinate", _hooks(
        _count("strategies.reported_edges", lambda a, k, r, p: r.sparsified_edges),
        _count("strategies.coordinated_matches", lambda a, k, r, p: r.matched))),
    Target("weights.solution_build", "weights:FractionalSolution.build"),
    Target("rng.generator", "rng:RngStream.generator",
           when=lambda stream: getattr(stream, "_generator", None) is None),
)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Recorder:
    """Installs targets, records their spans and counters, and restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.child: list[float] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.kept: dict[str, list] = {}
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    # -- span recording -------------------------------------------------

    def _span_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name_id = self._span_id(target.span)
        names, span_name, start, end = self.names, self.span_name, self.start, self.end
        parent_of, child, stack = self.parent, self.child, self._stack
        on_exit = target.on_exit
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            parent = stack[-1] if stack else -1
            span_name.append(name_id)
            parent_of.append(parent)
            end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                end[idx] = t
                stack.pop()
                if parent >= 0:
                    child[parent] += t - start[idx]
            if on_exit is not None:
                on_exit(self, args, kwargs, result, names[span_name[parent]] if parent >= 0 else None)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- patching -------------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            module_name, _, qualname = target.ref.partition(":")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                self.missing.append(target.ref)
                continue
            owner_name, _, member = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(member) if isinstance(owner, type) else None
                if raw is None:
                    self.missing.append(target.ref)
                    continue
                self._patch_member(owner, member, raw, target)
            else:
                original = getattr(module, member, None)
                if original is None:
                    self.missing.append(target.ref)
                    continue
                self._patch_everywhere(original, self._wrap(original, target))

    def _patch_member(self, owner: type, member: str, raw, target: Target) -> None:
        if isinstance(raw, property):
            fget, timed = raw.fget, self._wrap(raw.fget, target)
            when = target.when or (lambda obj: True)
            new = property(lambda obj: timed(obj) if when(obj) else fget(obj), raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, target))
        else:
            new = self._wrap(raw, target)
        setattr(owner, member, new)
        self._patches.append((setattr, owner, member, raw))

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((setattr, module, attr, original))
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._patches.append((dict.__setitem__, value, key, original))

    def restore(self) -> None:
        while self._patches:
            put, container, key, original = self._patches.pop()
            put(container, key, original)

    # -- results --------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: number of spans and summed self time."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for idx, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += self.end[idx] - self.start[idx] - self.child[idx]
        return calls, self_s

    def setup_seconds(self, active: Callable = lambda begin, finish: finish - begin) -> float:
        """Summed duration of set-up spans that no other set-up span encloses.

        ``active(begin, finish)`` gives the time between two clock readings
        that counts (see ``hostspeed.Sampler.active``).
        """
        total = 0.0
        for idx, name_id in enumerate(self.span_name):
            if self.names[name_id] not in SETUP_SPANS:
                continue
            parent = self.parent[idx]
            while parent >= 0 and self.names[self.span_name[parent]] not in SETUP_SPANS:
                parent = self.parent[parent]
            if parent < 0:
                total += active(self.start[idx], self.end[idx])
        return total

    def write_spans(self, path) -> None:
        """Write every span as columns: names table, name id, start, end, parent."""
        doc = {"names": self.names, "name": self.span_name, "start": self.start,
               "end": self.end, "parent": self.parent}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer counts and self times of one traced unit, by metric name."""
    calls, self_s = rec.totals()
    c = rec.counters
    draws = calls["varopt.draw"]
    reported = c["strategies.reported_edges"]
    return {
        "rng.generators_built": calls["rng.generator"],
        "rng.generator_build_s": self_s["rng.generator"],
        "instance.realize.calls": calls["instance.realize"],
        "instance.realize.self_s": self_s["instance.realize"],
        "generators.instance.self_s": self_s["generators.instance"],
        "generators.ingest.self_s": self_s["generators.ingest"],
        "matching.edge_list.calls": calls["matching.edge_list.validate"],
        "matching.edge_list.edges": c["matching.edge_list.edges"],
        "matching.edge_list.self_s": self_s["matching.edge_list"] + self_s["matching.edge_list.validate"],
        "matching.hk.calls": calls["matching.hk"],
        "matching.hk.edges": c["matching.hk.edges"],
        "matching.hk.self_s": self_s["matching.hk"],
        "matching.hk_shuffled.self_s": self_s["matching.hk_shuffled"],
        "varopt.builds": calls["varopt.build"],
        "varopt.draws": draws,
        "varopt.builds_per_draw": calls["varopt.build"] / draws if draws else 0.0,
        "varopt.build.self_s": self_s["varopt.build"],
        "varopt.draw.self_s": self_s["varopt.draw"],
        "strategies.varopt.self_s": self_s["strategies.varopt"],
        "strategies.random.self_s": self_s["strategies.random"],
        "strategies.kvv.self_s": self_s["strategies.kvv"],
        "strategies.mgs.self_s": self_s["strategies.mgs"],
        "strategies.coordinate.self_s": self_s["strategies.coordinate"],
        "strategies.reported_edges": reported,
        "strategies.matched_per_reported_edge": c["strategies.coordinated_matches"] / reported if reported else 0.0,
        "weights.lp.calls": calls["weights.lp"],
        "weights.lp.self_s": self_s["weights.lp"],
        "weights.mc.sims": c["weights.mc.sims"],
        "weights.mc.self_s": self_s["weights.mc"],
        "weights.copy.self_s": self_s["weights.copy"],
        "weights.solution_build.self_s": self_s["weights.solution_build"],
        "harness.trials": c["harness.trials"],
        "harness.degenerate_trials": c["harness.degenerate_trials"],
        "harness.self_s": self_s["harness.run"] + self_s["harness.learn"],
        "cli.self_s": self_s["cli.main"],
    }
