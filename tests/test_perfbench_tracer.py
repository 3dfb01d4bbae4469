"""The benchmark's tracer still fits the package.

``perfbench/tracer.py`` wraps package functions by name and reads a few
attributes (``lp.rows``, ``game.edges``, ``FollowerOracle`` methods).  A
rename in the package would break ``perfbench/run.py --trace 1`` without
failing any other test, so this runs every engine through the CLI once
plain and once traced.
"""

import importlib
import json
from pathlib import Path

import stackalloc
from stackalloc import cli, generate_instance
from stackalloc.model import dump_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ENGINES = ("greedy", "mwu", "heuristic", "exact", "exact-disjoint")


def _solve(capsys, path, engine):
    code = cli.main(["solve", "--instance", path, "--algorithm", engine, "--iters", "20"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    del report["timings"]
    return report


def test_traced_solves_match_plain_solves(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    paths = {}
    for name, degree in (("overlap", 2.0), ("disjoint", 1.0)):
        game = generate_instance(6, 30, degree, (0.0, 0.2), (0.1, 0.9), seed=3, k_L=2, k_F=2)
        paths[name] = str(tmp_path / f"{name}.txt")
        with open(paths[name], "w") as fh:
            dump_instance(game, fh)
    runs = [(path, engine) for name, path in paths.items() for engine in ENGINES
            if name == "disjoint" or engine != "exact-disjoint"]
    originals = {(mod, fn): getattr(importlib.import_module(f"stackalloc.{mod}"), fn)
                 for mod, fn, _ in tracer.FUNCTIONS}
    main = cli.main
    oracle_methods = dict(vars(stackalloc.FollowerOracle))

    plain = [_solve(capsys, path, engine) for path, engine in runs]
    spans = tracer.Tracer()
    with spans:
        assert stackalloc.exact.solve_lp is not originals["lp", "solve_lp"]
        traced = [_solve(capsys, path, engine) for path, engine in runs]
    assert traced == plain

    state = spans.state()
    assert state["calls"]["lp.solve_lp"] > 0
    assert state["calls"]["exact.decompose_allocation"] > 0
    assert state["calls"]["payoff.activation_vector"] > 0
    assert state["calls"]["payoff.mixed_activation_vector"] > 0
    assert state["calls"]["cli.main"] == len(runs)
    metrics = tracer.metrics(state, len(runs), 1.0, 1.0)
    assert all(f"{layer}.calls" in metrics for layer in tracer.LAYERS)

    for (mod, fn), original in originals.items():
        assert getattr(importlib.import_module(f"stackalloc.{mod}"), fn) is original
    assert stackalloc.exact.solve_lp is stackalloc.lp.solve_lp
    assert stackalloc.solve_lp is stackalloc.lp.solve_lp
    assert cli.main is main
    assert dict(vars(stackalloc.FollowerOracle)) == oracle_methods
