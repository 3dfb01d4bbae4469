"""Batch experiment harness: seeded instances, solver comparison, aggregation.

A spec fixes one instance template (sizes, mean degree, probability
ranges), a grid of budget pairs, the algorithms to compare and a trial
count.  Trial i draws its instance from seed base_seed + i, so every
algorithm within a trial, and every budget row across trials, sees the
same graph and probabilities.  Each cell, like ``stackalloc solve``, is one
``run_engine``; MWU's defaults live in ``mwu.MwuConfig``, the others in
``ExperimentSpec``.

Workers: STACKALLOC_THREADS > 1 spreads trials over processes, at most one
per (budget row, trial) payload and per CPU; a run left with one stays
in-process.  The first run that starts workers imports the process pool.
Per-trial seeding keeps the results identical to a sequential run.
"""

from __future__ import annotations

import csv
import numbers
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, TextIO

import numpy as np

from . import exact, follower, heuristic, mwu
from .lp import LpNumericsError, PivotLimitError
from .model import (BipartiteInfluenceGame, CapExceededError, MixedStrategy, generate_instance,
                    require_generator_ranges, require_integer)

CSV_HEADER = "dist,kL,kF,algorithm,mean,std,mean_ms,trials"

# A runner takes (game, MWU iterations, MWU epsilon, heuristic rounds) and
# returns the leader's mix and, for MWU, its certificate.  It looks its
# solver up through the solver's module on every call, so a solver rebound
# there (a test double, a tracer's wrapper) is the one that runs.
Runner = Callable[[BipartiteInfluenceGame, int, float, int],
                  tuple[MixedStrategy, mwu.ApproxCertificate | None]]


def _greedy(game, iterations, epsilon, ell):
    return MixedStrategy.point_mass(heuristic.greedy_baseline(game)), None


def _mwu(game, iterations, epsilon, ell):
    return mwu.solve_mwu(game, mwu.MwuConfig(iterations=iterations, epsilon=epsilon))


def _heuristic(game, iterations, epsilon, ell):
    return heuristic.solve_heuristic(game, ell), None


def _exact_multi_lp(game, iterations, epsilon, ell):
    return exact.solve_multi_lp(game).leader, None


def _exact_disjoint_lp(game, iterations, epsilon, ell):
    return exact.solve_disjoint_lp(game).leader, None


# Every accepted engine name -> (its name in bench results, runner).  The
# short exact names are the CLI's; bench rows always carry the long ones.
ENGINES: dict[str, tuple[str, Runner]] = {
    "greedy": ("greedy", _greedy),
    "mwu": ("mwu", _mwu),
    "heuristic": ("heuristic", _heuristic),
    "exact": ("exact-multi-lp", _exact_multi_lp),
    "exact-multi-lp": ("exact-multi-lp", _exact_multi_lp),
    "exact-disjoint": ("exact-disjoint-lp", _exact_disjoint_lp),
    "exact-disjoint-lp": ("exact-disjoint-lp", _exact_disjoint_lp),
}


@dataclass(frozen=True)
class ExperimentSpec:
    n: int
    m: int
    mean_degree: float
    p_dist: tuple[float, float]
    pf_dist: tuple[float, float]
    budgets: tuple[tuple[int, int], ...]
    algorithms: tuple[str, ...]
    trials: int = 30
    base_seed: int = 0
    mwu_iterations: int = mwu.MwuConfig.iterations
    mwu_epsilon: float = mwu.MwuConfig.epsilon
    heuristic_ell: int = 10

    def __post_init__(self):
        for name in ("n", "m", "trials", "base_seed", "heuristic_ell"):
            require_integer(name, getattr(self, name))
        require_generator_ranges(self.n, self.mean_degree, self.p_dist, self.pf_dist)
        for pair in self.budgets:
            for k in pair:
                require_integer("budget entry", k)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for kl, kf in self.budgets:
            if not (0 <= kl <= self.n and 0 <= kf <= self.n):
                raise ValueError(f"budget pair ({kl}, {kf}) outside [0, n]")
        for alg in self.algorithms:
            if alg not in ENGINES or ENGINES[alg][0] != alg:
                raise ValueError(f"unknown algorithm {alg!r}")
        mwu.MwuConfig(iterations=self.mwu_iterations, epsilon=self.mwu_epsilon)
        if self.heuristic_ell < 1:
            raise ValueError("heuristic ell must be >= 1")

    @property
    def dist_label(self) -> str:
        a, b = self.pf_dist
        return f"U({a:g},{b:g})"


def _object(value: Any, what: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, not {value!r}")
    return value


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, not {value!r}")
    return float(value)


def parse_spec(data: dict[str, Any]) -> ExperimentSpec:
    """Build a spec from its JSON form; aliases are normalized, counts checked, not truncated."""
    try:
        data = _object(data, "a spec")
        algorithms = tuple(ENGINES.get(a, (a,))[0] for a in data["algorithms"])
        mwu_cfg = _object(data.get("mwu", {}), '"mwu"')
        heur_cfg = _object(data.get("heuristic", {}), '"heuristic"')
        return ExperimentSpec(
            n=data["n"], m=data["m"],
            mean_degree=_number(data["mean_degree"], '"mean_degree"'),
            p_dist=tuple(_number(t, 'a "p" bound') for t in data["p"]),
            pf_dist=tuple(_number(t, 'a "p_f" bound') for t in data["p_f"]),
            budgets=tuple((kl, kf) for kl, kf in data["budgets"]),
            algorithms=algorithms,
            trials=data.get("trials", ExperimentSpec.trials),
            base_seed=data.get("base_seed", ExperimentSpec.base_seed),
            mwu_iterations=mwu_cfg.get("iterations", ExperimentSpec.mwu_iterations),
            mwu_epsilon=_number(mwu_cfg.get("epsilon", ExperimentSpec.mwu_epsilon),
                                '"mwu" "epsilon"'),
            heuristic_ell=heur_cfg.get("ell", ExperimentSpec.heuristic_ell),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed experiment spec: {exc}") from exc


def parse_specs(data: dict[str, Any]) -> list[ExperimentSpec]:
    """Like parse_spec, but "p_f" may hold a list of ranges; one spec per
    range, so a single file can mirror a full results-table block."""
    pf = data.get("p_f") if isinstance(data, dict) else None
    if isinstance(pf, (list, tuple)) and pf and isinstance(pf[0], (list, tuple)):
        return [parse_spec({**data, "p_f": one}) for one in pf]
    return [parse_spec(data)]


@dataclass(frozen=True)
class CellStats:
    """One algorithm's aggregate in one budget row."""

    mean: float | None
    std: float | None
    mean_ms: float | None
    trials_done: int
    values: tuple[float | None, ...]

    @property
    def skipped(self) -> bool:
        return self.trials_done == 0


@dataclass(frozen=True)
class ExperimentRow:
    dist: str
    k_L: int
    k_F: int
    cells: dict[str, CellStats]


def run_engine(game: BipartiteInfluenceGame, alg: str, iterations: int, epsilon: float,
               ell: int) -> tuple[MixedStrategy, mwu.ApproxCertificate | None,
                                  follower.BestResponseResult, float, float]:
    """Run engine ``alg``: its mix and certificate, the follower's best response to
    the mix, and the wall ms of the oracle build and, after it, of the engine."""
    start = time.perf_counter()
    follower.follower_oracle(game)
    built = time.perf_counter()
    x, cert = ENGINES[alg][1](game, iterations, epsilon, ell)
    solved = time.perf_counter()
    return x, cert, follower.best_response(game, x), (built - start) * 1e3, (solved - built) * 1e3


def _run_trial(payload: tuple[ExperimentSpec, int, int, int]
               ) -> dict[str, tuple[float, float] | None]:
    spec, k_L, k_F, trial = payload
    game = generate_instance(spec.n, spec.m, spec.mean_degree, spec.p_dist,
                             spec.pf_dist, seed=spec.base_seed + trial,
                             k_L=k_L, k_F=k_F)
    out: dict[str, tuple[float, float] | None] = {}
    for alg in spec.algorithms:
        try:
            _, _, br, _, solve_ms = run_engine(game, alg, spec.mwu_iterations,
                                               spec.mwu_epsilon, spec.heuristic_ell)
            out[alg] = br.leader_value, solve_ms
        except (CapExceededError, PivotLimitError, LpNumericsError, ValueError, MemoryError):
            out[alg] = None  # recorded as a skipped cell, never fatal
    return out


class WorkerDiedError(RuntimeError):
    """A bench worker process ended without returning its trials."""


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("STACKALLOC_THREADS", "1")))
    except ValueError:
        return 1


def run_experiment(spec: ExperimentSpec) -> list[ExperimentRow]:
    """Aggregate every (budgets, algorithm) cell over the trial seeds."""
    payloads = [(spec, kl, kf, t) for kl, kf in spec.budgets
                for t in range(spec.trials)]
    workers = min(worker_count(), len(payloads), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_trial, payloads))
        except BrokenExecutor as exc:  # BrokenProcessPool: a worker died
            raise WorkerDiedError(f"a bench worker process died: {exc}") from exc
    else:
        results = [_run_trial(p) for p in payloads]

    rows = []
    for b, (kl, kf) in enumerate(spec.budgets):
        trial_results = results[b * spec.trials:(b + 1) * spec.trials]
        cells = {}
        for alg in spec.algorithms:
            pairs = [res[alg] for res in trial_results]
            values = tuple(p[0] if p else None for p in pairs)
            done = [p for p in pairs if p is not None]
            if done:
                vals = np.array([v for v, _ in done])
                cells[alg] = CellStats(mean=float(vals.mean()),
                                       std=float(vals.std()),
                                       mean_ms=float(np.mean([ms for _, ms in done])),
                                       trials_done=len(done), values=values)
            else:
                cells[alg] = CellStats(mean=None, std=None, mean_ms=None,
                                       trials_done=0, values=values)
        rows.append(ExperimentRow(dist=spec.dist_label, k_L=kl, k_F=kf, cells=cells))
    return rows


def write_csv(rows: list[ExperimentRow], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        for alg, cell in row.cells.items():
            if cell.skipped:
                writer.writerow([row.dist, row.k_L, row.k_F, alg, "skipped", "", "", 0])
            else:
                writer.writerow([row.dist, row.k_L, row.k_F, alg,
                                 f"{cell.mean:.6f}", f"{cell.std:.6f}",
                                 f"{cell.mean_ms:.3f}", cell.trials_done])


def rows_as_json(spec: ExperimentSpec, rows: list[ExperimentRow]) -> dict[str, Any]:
    """Full mirror of the CSV, including per-trial values."""
    return {
        "spec": {
            "n": spec.n, "m": spec.m, "mean_degree": spec.mean_degree,
            "p": list(spec.p_dist), "p_f": list(spec.pf_dist),
            "budgets": [list(b) for b in spec.budgets],
            "algorithms": list(spec.algorithms),
            "trials": spec.trials, "base_seed": spec.base_seed,
            "mwu": {"iterations": spec.mwu_iterations, "epsilon": spec.mwu_epsilon},
            "heuristic": {"ell": spec.heuristic_ell},
        },
        "rows": [
            {
                "dist": row.dist, "kL": row.k_L, "kF": row.k_F,
                "cells": {
                    alg: ({"status": "skipped"} if cell.skipped else {
                        "status": "ok", "mean": cell.mean, "std": cell.std,
                        "mean_ms": cell.mean_ms, "trials": cell.trials_done,
                        "values": list(cell.values),
                    })
                    for alg, cell in row.cells.items()
                },
            }
            for row in rows
        ],
    }
