"""Per-layer tracing from outside the package.

The tracer replaces each traced stackalloc function at every binding
site: the defining module and every stackalloc module that imported it
by name (``exact`` binds ``solve_lp``, ``mwu`` binds ``follower_oracle``,
``cli`` binds ``load_instance``, ...).  Methods of ``FollowerOracle`` are
replaced on the class.  A span stack makes self times exact for nested
calls: a span's self time is its duration minus the durations of the
spans it opened.  Nothing is changed under ``src/``; ``uninstall``
restores every original binding.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
import weakref
from collections import defaultdict
from typing import Any, Callable

# (module, function, layer).  The layer names are the metric prefixes.
FUNCTIONS = (
    ("model", "generate_instance", "model.generate_instance"),
    ("model", "load_instance", "model.load_instance"),
    ("follower", "follower_oracle", "follower.oracle_cache"),
    ("follower", "best_response", "follower.best_response"),
    ("payoff", "activation_vector", "payoff.activation_vector"),
    ("payoff", "mixed_activation_vector", "payoff.mixed_activation_vector"),
    ("lp", "solve_lp", "lp.solve_lp"),
    ("exact", "solve_multi_lp", "exact.solve_multi_lp"),
    ("exact", "solve_disjoint_lp", "exact.solve_disjoint_lp"),
    ("exact", "decompose_allocation", "exact.decompose_allocation"),
    ("mwu", "greedy_weighted_submodular", "mwu.greedy_weighted_submodular"),
    ("mwu", "solve_mwu", "mwu.solve_mwu"),
    ("mwu", "certify", "mwu.certify"),
    ("heuristic", "solve_heuristic", "heuristic.solve_heuristic"),
    ("heuristic", "greedy_baseline", "heuristic.greedy_baseline"),
    ("bench", "run_experiment", "bench.run_experiment"),
    ("cli", "main", "cli.main"),
)
# (module, class, method, layer)
METHODS = (
    ("follower", "FollowerOracle", "__init__", "follower.oracle_build"),
    ("follower", "FollowerOracle", "best_response_values", "follower.best_response_values"),
)
LAYERS = tuple(f[-1] for f in FUNCTIONS + METHODS)


class Tracer:
    """Aggregated spans and counters for one traced run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.games: list[weakref.ref] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable,
              count: Callable[[tuple, Any], None] | None = None) -> Callable:
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- layer-specific counters ----------------------------------------
    def _new_game(self, args, game) -> None:
        self.games.append(weakref.ref(game))

    def _loaded(self, args, game) -> None:
        self._new_game(args, game)
        self.counts["model.load_instance.edges"] += len(game.edges)

    def _built(self, args, result) -> None:
        self.counts["follower.oracle_build.strategies"] += len(args[0].strategies)

    def _br_rows(self, args, result) -> None:
        pvx = args[1]
        self.counts["follower.best_response_values.rows"] += (
            len(pvx) if getattr(pvx, "ndim", 1) > 1 else 1)

    def _lp(self, args, outcome) -> None:
        lp = args[0]
        self.counts["lp.solve_lp.cells"] += len(lp.rows) * lp.objective.size
        self.counts["lp.solve_lp.optimal"] += outcome.status == "optimal"

    def _oracle_lookup(self, fn: Callable) -> Callable:
        """follower_oracle: a hit is a lookup that built no oracle."""
        def lookup(*args, **kwargs):
            builds = self.calls["follower.oracle_build"]
            oracle = fn(*args, **kwargs)
            self.counts["follower.oracle_cache.hits"] += (
                self.calls["follower.oracle_build"] == builds)
            return oracle
        return functools.wraps(fn)(lookup)

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        package = {name: importlib.import_module(f"stackalloc.{name}")
                   for name, *_ in FUNCTIONS + METHODS}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "stackalloc" or name.startswith("stackalloc."))]
        counters = {
            "model.generate_instance": self._new_game,
            "model.load_instance": self._loaded,
            "lp.solve_lp": self._lp,
            "follower.oracle_build": self._built,
            "follower.best_response_values": self._br_rows,
        }
        for mod_name, fn_name, layer in FUNCTIONS:
            original = getattr(package[mod_name], fn_name)
            inner = self._oracle_lookup(original) if layer == "follower.oracle_cache" else original
            wrapped = self._wrap(layer, inner, counters.get(layer))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(package[mod_name], cls_name)
            self._patch(cls, meth, self._wrap(layer, vars(cls)[meth], counters.get(layer)))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------
    def state(self) -> dict:
        """The totals, as plain data that can cross a process boundary."""
        gc.collect()
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": {**self.counts, "follower.games_created": len(self.games),
                           "follower.games_retained": sum(ref() is not None
                                                          for ref in self.games)}}


def merge(states: list[dict]) -> dict:
    """Sum the totals of several traced processes."""
    total: dict[str, dict] = {"calls": defaultdict(int), "self_s": defaultdict(float),
                              "counts": defaultdict(float)}
    for state in states:
        for part, values in state.items():
            for key, value in values.items():
                total[part][key] += value
    return total


def metrics(state: dict, ops: int, traced_s: float,
            untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; counts and self times are per operation."""
    per_op = 1.0 / max(ops, 1)

    def frac(num, den):
        return num / den if den else 0.0

    calls, self_s, c = state["calls"], state["self_s"], state["counts"]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0) * per_op, "count/op")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) * per_op, "s/op")
    for name in ("model.load_instance.edges", "follower.oracle_build.strategies",
                 "follower.best_response_values.rows", "lp.solve_lp.cells"):
        out[name] = (c.get(name, 0.0) * per_op, "count/op")
    out["follower.oracle_cache.hit_frac"] = (
        frac(c.get("follower.oracle_cache.hits", 0), calls.get("follower.oracle_cache", 0)),
        "frac")
    out["follower.games_created"] = (float(c.get("follower.games_created", 0)), "count")
    out["follower.games_retained"] = (float(c.get("follower.games_retained", 0)), "count")
    out["lp.solve_lp.optimal_frac"] = (
        frac(c.get("lp.solve_lp.optimal", 0), calls.get("lp.solve_lp", 0)), "frac")
    out["trace.ops"] = (float(ops), "count")
    out["trace.overhead_frac"] = (frac(traced_s, untraced_s) - 1.0, "frac")
    out["trace.self_coverage"] = (frac(sum(self_s.values()), traced_s), "frac")
    return dict(sorted(out.items()))
