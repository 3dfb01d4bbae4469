"""Dump engine answers in ``float.hex``, to show that a change keeps them.

    PYTHONPATH=src python tests/answers.py > answers.json
    python tests/answers.py --against REV

The dump covers MWU on the 60 paper cells (n=20, m=844, mean degree
3506/844, p~U(0,0.2), k_F=2; seeds 0-9 x k_L in {1, 2, 4} x p_F~U(0.1,0.9)
and U(0,0.2)) at learning rates "auto", 30 and 300: the mix, and every
field of the certificate.  Floats are written with ``float.hex``, so
two dumps are equal only when every bit is.

``--against REV`` checks out git revision REV in a temporary worktree,
runs the same dump on its ``src/`` and on this checkout's, and prints
every entry that differs; the exit status is 1 if any does.  BLAS runs
on one thread in every dump, since the thread count can move the last
bit of a product.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Set before numpy loads (stackalloc is imported in ``mwu_answers``); the
# dumps that ``--against`` starts inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
K_LS = (1, 2, 4)
PF_RANGES = ((0.1, 0.9), (0.0, 0.2))
LEARNING_RATES = ("auto", 30.0, 300.0)


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def mwu_answers() -> dict:
    """Every MWU answer of the grid, keyed by its cell."""
    from stackalloc import MwuConfig, generate_instance, solve_mwu

    out = {}
    for seed in SEEDS:
        for k_L in K_LS:
            for pf in PF_RANGES:
                game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), pf, seed=seed,
                                         k_L=k_L, k_F=2)
                for rate in LEARNING_RATES:
                    x, cert = solve_mwu(game, MwuConfig(learning_rate=rate))
                    key = f"mwu seed={seed} k_L={k_L} pf={pf[0]}-{pf[1]} rate={rate}"
                    out[key] = {
                        "mix": sorted([list(z.media), q.hex()] for z, q in x.weights.items()),
                        "certificate": {k: _hex(v)
                                        for k, v in dataclasses.asdict(cert).items()},
                    }
    return out


def _dump(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def against(rev: str) -> int:
    """Diff this checkout's dump with revision ``rev``'s; 1 if they differ."""
    here = _dump(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "-q",
                        str(tree), rev], check=True)
        try:
            there = _dump(tree / "src")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tree)], check=True)
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
    if args.against:
        return against(args.against)
    json.dump(mwu_answers(), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
