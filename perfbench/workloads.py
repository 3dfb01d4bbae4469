"""The benchmark's workloads: inputs made from the seed, operations, checks.

Every workload is a fixed pass: a list of operations that covers the
workload's mix once.  A run repeats the pass, each time in a fresh
interpreter (an *episode*), so every operation any run can attempt is
named by a stable key, the reference outputs of the default seed cover
them all, and each operation meets the same heap state in every episode.

Each operation returns a record of what the program answered: leader
values, and for ``solve`` calls the follower value and response too.
A record that breaks a structural rule raises ``OpFailure``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from stackalloc import bench, cli, model

# The paper's results-table shape (n=20 media, m=844 customers, 3506 edges).
PAPER = dict(n=20, m=844, mean_degree=3506 / 844)
P_RANGE = (0.0, 0.2)
PF_RANGES = {"agg": (0.1, 0.9), "mild": (0.0, 0.2)}  # aggressive / mild recapture
K_LS = (1, 2, 4)
K_F = 2
PAPER_TRIALS = 4
SOLVE_ENGINES = ("greedy", "mwu", "heuristic")
COLD_INSTANCES = 2   # solve-cold files per (k_L, p_F) cell
EXACT_INSTANCES = 6  # exact-lp files per shape

# exact-lp shapes: (name, engine, n, m, mean degree, k_L, k_F), all with the
# mild recapture range.  Under aggressive recapture one shape's solve time
# varies up to tenfold between instances, too much to average out in a run.
# Each shape's solve time varies little between instances (coefficient of
# variation 0.02-0.05; 0.05-0.3 s per solve at the baseline commit), so
# runs on different seeds compare.  Left out for varying more (0.10-0.39):
# multi-LP n=12, m=100 and n=11, m=150; disjoint n=14, m=200-300 and
# n=16, m=400-800.
# Larger shapes (multi-LP n=12, m=844: about 1.3 s; disjoint n=20, m=844:
# about 5 s; multi-LP n=20, k_L=1: about 61 s) give too few solves per run.
EXACT_SHAPES = (
    ("multi-n10-m200", "exact", 10, 200, 3.0, 1, 2),
    ("multi-n10-m100", "exact", 10, 100, 3.0, 2, 2),
    ("disjoint-n12-m400", "exact-disjoint", 12, 400, 1.0, 2, 2),
    ("disjoint-n15-m300", "exact-disjoint", 15, 300, 1.0, 2, 2),
)
VALUE_TOL = 1e-9


class OpFailure(Exception):
    """An operation's output is wrong or missing."""


@dataclass(frozen=True)
class Op:
    key: str                   # names the input; references are keyed by it
    engine: str                # for per-engine medians
    run: Callable[[], dict]    # performs the operation, returns its record


# -- paper-protocol ------------------------------------------------------------

def _trial(seed: int, trial: int, k_L: int, pf: str) -> Op:
    spec = bench.ExperimentSpec(
        n=PAPER["n"], m=PAPER["m"], mean_degree=PAPER["mean_degree"],
        p_dist=P_RANGE, pf_dist=PF_RANGES[pf], budgets=((k_L, K_F),),
        algorithms=SOLVE_ENGINES, trials=1, base_seed=seed + trial,
        mwu_iterations=100, mwu_epsilon=0.5, heuristic_ell=10)

    def run() -> dict:
        (row,) = bench.run_experiment(spec)
        values = {}
        for alg, cell in row.cells.items():
            if cell.skipped:
                raise OpFailure(f"{alg} skipped")
            _check_value(cell.values[0], PAPER["m"])
            values[alg] = cell.values[0]
        return {"values": values}

    return Op(f"t{trial}-k{k_L}-{pf}", "trial", run)


# -- stackalloc solve ------------------------------------------------------------

def _solve(path: str, engine: str) -> Op:
    def run() -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--instance", path, "--algorithm", engine])
        if code != 0:
            raise OpFailure(f"exit code {code}")
        report = json.loads(out.getvalue())
        _check_report(report)
        return {"value": report["value"], "follower_value": report["follower_value"],
                "response": report["follower_best_response"]}

    return Op(f"{os.path.basename(path)}:{engine}", engine, run)


def _check_value(value, m: int) -> None:
    if value is None or not math.isfinite(value) or not -VALUE_TOL <= value <= m + VALUE_TOL:
        raise OpFailure(f"leader value {value} outside [0, {m}]")


def _check_report(report: dict) -> None:
    _check_value(report["value"], report["m"])
    support = report["leader"]["support"]
    if abs(sum(atom["prob"] for atom in support) - 1.0) > 1e-6:
        raise OpFailure("leader mix does not sum to 1")
    if any(len(atom["media"]) > report["k_L"] for atom in support):
        raise OpFailure("leader strategy over budget")
    if len(report["follower_best_response"]) > report["k_F"]:
        raise OpFailure("follower response over budget")


def _write(game, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        model.dump_instance(game, fh)


# -- workloads -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, str], None]          # (seed, workdir): write inputs
    ops: Callable[[int, str], list[Op]]          # (seed, workdir): one pass
    warm: Callable[[int, str], list[Op]]         # untimed, before the pass


def _paper_ops(seed: int, workdir: str) -> list[Op]:
    return [_trial(seed, t, k_L, pf)
            for t in range(PAPER_TRIALS) for k_L in K_LS for pf in PF_RANGES]


def _cold_files(workdir: str) -> list[tuple[str, int, str, int]]:
    return [(os.path.join(workdir, f"cold-k{k_L}-{pf}-i{i}.txt"), k_L, pf, i)
            for i in range(COLD_INSTANCES) for k_L in K_LS for pf in PF_RANGES]


def _cold_prepare(seed: int, workdir: str) -> None:
    for path, k_L, pf, i in _cold_files(workdir):
        _write(model.generate_instance(PAPER["n"], PAPER["m"], PAPER["mean_degree"],
                                       P_RANGE, PF_RANGES[pf], seed=seed * COLD_INSTANCES + i,
                                       k_L=k_L, k_F=K_F), path)


def _cold_ops(seed: int, workdir: str) -> list[Op]:
    return [_solve(path, engine) for path, *_ in _cold_files(workdir)
            for engine in SOLVE_ENGINES]


def _exact_files(workdir: str) -> list[tuple[str, tuple]]:
    return [(os.path.join(workdir, f"exact-{shape[0]}-i{i}.txt"), shape)
            for i in range(EXACT_INSTANCES) for shape in EXACT_SHAPES]


def _exact_prepare(seed: int, workdir: str) -> None:
    for i, (path, (_, _, n, m, degree, k_L, k_F)) in enumerate(_exact_files(workdir)):
        _write(model.generate_instance(n, m, degree, P_RANGE, PF_RANGES["mild"],
                                       seed=seed * EXACT_INSTANCES + i // len(EXACT_SHAPES),
                                       k_L=k_L, k_F=k_F), path)
    # Small instances that warm both exact engines without a long solve.
    for engine, degree in (("exact", 2.0), ("exact-disjoint", 1.0)):
        _write(model.generate_instance(6, 30, degree, P_RANGE, PF_RANGES["mild"],
                                       seed=seed, k_L=1, k_F=2),
               os.path.join(workdir, f"warm-{engine}.txt"))


def _exact_ops(seed: int, workdir: str) -> list[Op]:
    return [_solve(path, shape[1]) for path, shape in _exact_files(workdir)]


def _exact_warm(seed: int, workdir: str) -> list[Op]:
    return [_solve(os.path.join(workdir, f"warm-{engine}.txt"), engine)
            for engine in ("exact", "exact-disjoint")]


WORKLOADS = {
    w.name: w for w in (
        Workload("paper-protocol", prepare=lambda seed, workdir: None, ops=_paper_ops,
                 warm=lambda s, d: _paper_ops(s, d)[:1]),
        Workload("solve-cold", prepare=_cold_prepare, ops=_cold_ops,
                 warm=lambda s, d: _cold_ops(s, d)[:len(SOLVE_ENGINES)]),
        Workload("exact-lp", prepare=_exact_prepare, ops=_exact_ops, warm=_exact_warm),
    )
}


def compare(record: dict, expected: dict) -> str | None:
    """None when two records agree: values within VALUE_TOL, responses exactly."""
    if record.keys() != expected.keys():
        return f"record fields {sorted(record)} != {sorted(expected)}"
    for field, want in expected.items():
        got = record[field]
        if isinstance(want, dict):
            problem = compare(got, want)
            if problem:
                return f"{field}.{problem}"
        elif isinstance(want, float) or isinstance(got, float):
            if got is None or want is None or abs(got - want) > VALUE_TOL:
                return f"{field}: {got!r} != {want!r}"
        elif got != want:
            return f"{field}: {got!r} != {want!r}"
    return None
