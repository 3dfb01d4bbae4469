"""Command-line front door.

Subcommands: ``solve`` (JSON report on stdout), ``generate`` (write an
instance file), ``bench`` (CSV on stdout, optional JSON mirror) and
``validate``.  Exit codes: 0 success, 2 input error, 3 enumeration or
pivot cap exceeded, or an instance too large for memory (or a bench
worker that died), 4 an answer failed its numerical re-check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import bench
from .lp import LpNumericsError, PivotLimitError
from .model import (BipartiteInfluenceGame, CapExceededError, allocation_of, dump_instance,
                    generate_instance, load_instance)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NUMERICS = 4


def _load(path: str) -> BipartiteInfluenceGame:
    with open(path, encoding="utf-8") as fh:
        return load_instance(fh)


def cmd_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    game = _load(args.instance)
    load_ms = (time.perf_counter() - started) * 1e3
    # Everything reported below is recomputed from the emitted strategy.
    x, certificate, br, oracle_ms, solve_ms = bench.run_engine(
        game, args.algorithm, args.iters, args.epsilon, args.ell)
    report = {
        "algorithm": args.algorithm,
        "instance": args.instance,
        "n": game.n, "m": game.m, "k_L": game.k_L, "k_F": game.k_F,
        "leader": {"support": [{"media": list(s.media), "prob": w} for s, w in x],
                   "allocation": [float(v) for v in allocation_of(x, game.n)]},
        "follower_best_response": list(br.chosen.media),
        "value": br.leader_value,
        "follower_value": br.follower_value,
        "timings": {"load_ms": load_ms, "oracle_ms": oracle_ms, "solve_ms": solve_ms},
    }
    if certificate is not None:
        report["certificate"] = {"epsilon1": certificate.epsilon1, "C": certificate.C,
                                 "alpha": certificate.alpha,
                                 "empirical_regret": certificate.empirical_regret}
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return float(parts[0]), float(parts[1])


def cmd_generate(args: argparse.Namespace) -> int:
    game = generate_instance(args.n, args.m, args.mean_degree,
                             _parse_range(args.p), _parse_range(args.pf),
                             seed=args.seed, k_L=args.kl, k_F=args.kf)
    comment = (f"generated: n={args.n} m={args.m} mean_degree={args.mean_degree} "
               f"p=U({args.p}) pF=U({args.pf}) seed={args.seed}")
    with open(args.out, "w", encoding="utf-8") as fh:
        dump_instance(game, fh, comment=comment)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        specs = bench.parse_specs(json.load(fh))
    per_spec = [(spec, bench.run_experiment(spec)) for spec in specs]
    bench.write_csv([row for _, rows in per_spec for row in rows], sys.stdout)
    if args.json:
        mirror = [bench.rows_as_json(spec, rows) for spec, rows in per_spec]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(mirror[0] if len(mirror) == 1 else mirror, fh, indent=2)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    _load(args.instance)  # loading checks every invariant
    print("ok")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="stackalloc",
        description="Leader-commitment budget-allocation game solvers "
                    "(set STACKALLOC_THREADS to run benchmark trials in up to that "
                    "many processes, at most one per trial and budget row and one "
                    "per CPU)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance, JSON report on stdout")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", required=True,
                   choices=list(bench.ENGINES))
    defaults = bench.ExperimentSpec
    p.add_argument("--iters", type=int, default=defaults.mwu_iterations, help="MWU iterations")
    p.add_argument("--epsilon", type=float, default=defaults.mwu_epsilon, help="MWU epsilon")
    p.add_argument("--ell", type=int, default=defaults.heuristic_ell, help="heuristic rounds")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="write a seeded synthetic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mean-degree", type=float, required=True)
    p.add_argument("--p", required=True, help="activation range 'a,b'")
    p.add_argument("--pf", required=True, help="recapture range 'a,b'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kl", type=int, help="leader budget (default 1, at most n)")
    p.add_argument("--kf", type=int, help="follower budget (default 2, at most n)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="run an experiment spec, CSV on stdout")
    p.add_argument("--spec", required=True, help="JSON experiment spec")
    p.add_argument("--json", help="also write a JSON mirror with per-trial values")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("validate", help="check instance invariants")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapExceededError, PivotLimitError, bench.WorkerDiedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"error: instance too large: {exc}", file=sys.stderr)
        return EXIT_CAP
    except LpNumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
