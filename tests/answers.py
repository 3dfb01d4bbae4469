"""Dump engine answers in ``float.hex``, to show that a change keeps them.

    PYTHONPATH=src python tests/answers.py > answers.json
    python tests/answers.py --against REV

The dump covers the 60 paper cells (n=20, m=844, mean degree 3506/844,
p~U(0,0.2), k_F=2; seeds 0-9 x k_L in {1, 2, 4} x p_F~U(0.1,0.9) and
U(0,0.2)).  On each it holds MWU at learning rates "auto", 30 and 300
(the mix, and every field of the certificate), the greedy baseline's
media and the ell=10 heuristic's mix, and for these two the follower's
best response (chosen, responses and both values).  Each paper cell is
also written with ``dump_instance`` and read back with ``load_instance``,
and the sha256 of each of the four edge columns is kept, so a change to
the loader's output shows too.  It also covers the
exact grid: ``solve_multi_lp`` and ``solve_disjoint_lp`` on four shapes
(p~U(0,0.2), k_F=2, seeds 0-5 x both p_F ranges), with the value, the
follower, the mix and every candidate's status and LP value, and the
paper-scale ``solve_multi_lp`` cells of seed 0 (k_L in {1, 2} with both
p_F ranges, and k_L=4 with p_F~U(0,0.2)) with the same fields.

The wide grid holds cells whose answers hang on the last bits of the
greedy engines' products: three shapes at n=20, m=844 (``WIDE_SHAPES``:
the paper shape, k_F=3 at the paper degree, and mean degree 1), seeds
10-21 x k_L in {1, 2, 4, 6} x both p_F ranges.  On each it holds MWU at
the three learning rates, the greedy baseline, and the heuristic at ell
1, 10 and 30, with the same fields as on the paper cells.

The front doors are covered too (``front_doors``): the ``stackalloc
solve`` report, without its ``timings`` and with the instance named by
its file name, for every engine on one small file whose customers have
several media and one whose customers have one (``exact-disjoint`` only
there), and for greedy, MWU and the heuristic on one paper-shaped file;
and ``rows_as_json`` of a 2-trial paper-shape ``bench`` spec (k_L in {1,
2}, k_F=2, greedy, MWU and the heuristic, both p_F ranges) without
``mean_ms``.  Floats are written with ``float.hex``, so two dumps are
equal only when every bit is.

``--against REV`` extracts ``src/`` of git revision REV with
``git archive`` into a temporary directory, runs the same dump on it
and on this checkout's ``src/``, and prints
every entry that differs; the exit status is 1 if any does.  BLAS runs
on one thread in every dump, since the thread count can move the last
bit of a product.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
K_LS = (1, 2, 4)
PF_RANGES = ((0.1, 0.9), (0.0, 0.2))
LEARNING_RATES = ("auto", 30.0, 300.0)
# (name, k_F, mean degree) of the wide grid's shapes, all at n=20, m=844.
WIDE_SHAPES = (("paper", 2, 3506 / 844), ("k_F=3", 3, 3506 / 844), ("degree=1", 2, 1.0))
WIDE_SEEDS = range(10, 22)
WIDE_K_LS = (1, 2, 4, 6)
WIDE_ELLS = (1, 10, 30)
# (engine, n, m, mean degree, k_L): the shapes of the exact-lp benchmark.
EXACT_SHAPES = (("multi", 10, 200, 3.0, 1), ("multi", 10, 100, 3.0, 2),
                ("disjoint", 12, 400, 1.0, 2), ("disjoint", 15, 300, 1.0, 2))
EXACT_SEEDS = range(6)
# (k_L, p_F range) of the paper-scale multi-LP cells, seed 0.
PAPER_EXACT = ((1, (0.1, 0.9)), (1, (0.0, 0.2)), (2, (0.1, 0.9)), (2, (0.0, 0.2)),
               (4, (0.0, 0.2)))
# (file name, engines, generate_instance arguments) of the solved files.
SOLVE_FILES = (
    ("overlap.txt", ("greedy", "mwu", "heuristic", "exact"),
     (10, 150, 2.0, (0.0, 0.2), (0.1, 0.9), 0, 2, 2)),
    ("disjoint.txt", ("greedy", "mwu", "heuristic", "exact", "exact-disjoint"),
     (10, 150, 1.0, (0.0, 0.2), (0.0, 0.2), 1, 2, 2)),
    ("paper.txt", ("greedy", "mwu", "heuristic"),
     (20, 844, 3506 / 844, (0.0, 0.2), (0.1, 0.9), 0, 2, 2)),
)
BENCH_SPEC = {"n": 20, "m": 844, "mean_degree": 3506 / 844, "p": [0.0, 0.2],
              "p_f": [[0.1, 0.9], [0.0, 0.2]], "budgets": [[1, 2], [2, 2]],
              "algorithms": ["greedy", "mwu", "heuristic"], "trials": 2}


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _mix(x) -> list:
    return sorted([list(z.media), q.hex()] for z, q in x.weights.items())


def _response(br) -> dict:
    return {"chosen": list(br.chosen.media),
            "responses": [list(y.media) for y in br.responses],
            "leader_value": br.leader_value.hex(),
            "follower_value": br.follower_value.hex()}


def _hex_all(value):
    """``value`` with every float, however deep, written with ``float.hex``."""
    if isinstance(value, dict):
        return {k: _hex_all(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hex_all(v) for v in value]
    return _hex(value)


def _equilibrium(res) -> dict:
    return {"value": res.value.hex(),
            "follower": list(res.follower.media),
            "mix": _mix(res.leader),
            "per_y_values": sorted([list(y.media), status, _hex(value)]
                                   for y, (status, value) in res.per_y_values.items())}


def _engines(game, cell: str, ells=(10,)) -> dict:
    """MWU at every learning rate, the greedy baseline and the heuristic at
    each of ``ells`` on ``game``; a heuristic key names ell unless it is 10."""
    from stackalloc import (MixedStrategy, MwuConfig, best_response, greedy_baseline,
                            solve_heuristic, solve_mwu)

    out = {}
    for rate in LEARNING_RATES:
        x, cert = solve_mwu(game, MwuConfig(learning_rate=rate))
        out[f"mwu {cell} rate={rate}"] = {
            "mix": _mix(x),
            "certificate": {k: _hex(v) for k, v in dataclasses.asdict(cert).items()},
        }
    z = greedy_baseline(game)
    out[f"greedy {cell}"] = {
        "media": list(z.media),
        "response": _response(best_response(game, MixedStrategy.point_mass(z))),
    }
    for ell in ells:
        x = solve_heuristic(game, ell)
        key = f"heuristic {cell}" if ell == 10 else f"heuristic {cell} ell={ell}"
        out[key] = {"mix": _mix(x), "response": _response(best_response(game, x))}
    return out


def answers(engine_seeds=SEEDS, exact_seeds=EXACT_SEEDS, paper_exact=PAPER_EXACT,
            wide_seeds=WIDE_SEEDS) -> dict:
    """Every answer of the grid, keyed by engine and cell.

    The loader entries cover every paper cell; the engines run on the
    paper cells of ``engine_seeds``, on the exact grid's ``exact_seeds``,
    on the ``paper_exact`` cells and on the wide grid's ``wide_seeds``, so
    a smaller grid is a subset of the full dump's entries.
    """
    from stackalloc import (dump_instance, generate_instance, load_instance,
                            solve_disjoint_lp, solve_multi_lp)

    out = {}
    for seed in SEEDS:
        for k_L in K_LS:
            for pf in PF_RANGES:
                game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), pf, seed=seed,
                                         k_L=k_L, k_F=2)
                cell = f"seed={seed} k_L={k_L} pf={pf[0]}-{pf[1]}"
                text = io.StringIO()
                dump_instance(game, text)
                loaded = load_instance(io.StringIO(text.getvalue()))
                out[f"loader {cell}"] = {
                    name: hashlib.sha256(getattr(loaded, name).tobytes()).hexdigest()
                    for name in ("edge_media", "edge_customers", "edge_p", "edge_pf")}
                if seed in engine_seeds:
                    out.update(_engines(game, cell))
    for shape, k_F, degree in WIDE_SHAPES:
        for seed in wide_seeds:
            for k_L in WIDE_K_LS:
                for pf in PF_RANGES:
                    game = generate_instance(20, 844, degree, (0.0, 0.2), pf, seed=seed,
                                             k_L=k_L, k_F=k_F)
                    cell = f"wide {shape} seed={seed} k_L={k_L} pf={pf[0]}-{pf[1]}"
                    out.update(_engines(game, cell, WIDE_ELLS))
    solvers = {"multi": solve_multi_lp, "disjoint": solve_disjoint_lp}
    for engine, n, m, degree, k_L in EXACT_SHAPES:
        for seed in exact_seeds:
            for pf in PF_RANGES:
                game = generate_instance(n, m, degree, (0.0, 0.2), pf, seed=seed,
                                         k_L=k_L, k_F=2)
                cell = f"n={n} m={m} k_L={k_L} seed={seed} pf={pf[0]}-{pf[1]}"
                out[f"exact-{engine} {cell}"] = _equilibrium(solvers[engine](game))
    for k_L, pf in paper_exact:
        game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), pf, seed=0, k_L=k_L, k_F=2)
        out[f"exact-multi paper k_L={k_L} pf={pf[0]}-{pf[1]}"] = _equilibrium(solve_multi_lp(game))
    return out


def front_doors() -> dict:
    """The ``solve`` reports of ``SOLVE_FILES`` and the ``bench`` rows of
    ``BENCH_SPEC``, keyed by command and case."""
    from stackalloc import bench, cli, dump_instance, generate_instance

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, engines, args in SOLVE_FILES:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                dump_instance(generate_instance(*args), fh)
            for engine in engines:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(["solve", "--instance", path, "--algorithm", engine])
                if code != 0:
                    raise RuntimeError(f"solve {engine} on {name} exited {code}")
                report = json.loads(stdout.getvalue())
                del report["timings"]
                report["instance"] = name
                out[f"solve {engine} {name}"] = _hex_all(report)
    for spec in bench.parse_specs(BENCH_SPEC):
        mirror = bench.rows_as_json(spec, bench.run_experiment(spec))
        for row in mirror["rows"]:
            for cell in row["cells"].values():
                cell.pop("mean_ms", None)
        out[f"bench pf={spec.pf_dist[0]}-{spec.pf_dist[1]}"] = _hex_all(mirror)
    return out


def _dump(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def against(rev: str) -> int:
    """Diff this checkout's dump with revision ``rev``'s; 1 if they differ."""
    here = _dump(ROOT / "src")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        there = _dump(Path(tmp) / "src")
    differ = sorted(k for k in here.keys() | there.keys() if here.get(k) != there.get(k))
    for key in differ:
        print(f"{key}\n  {rev}: {there.get(key)}\n  here: {here.get(key)}")
    print(f"{len(here)} answers here, {len(there)} at {rev}, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="diff against the dump of git revision REV")
    args = parser.parse_args(argv)
    # Set before numpy loads (stackalloc is imported in ``answers``); the
    # dumps that ``--against`` starts inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.against:
        return against(args.against)
    json.dump({**answers(), **front_doors()}, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
