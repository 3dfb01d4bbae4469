"""Answer identity: a subset of ``answers.py``'s grid against a committed dump.

The subset holds the loader hashes of all 60 paper cells, every engine on
the paper cells of seed 0, the exact grid on seeds 0-2 and the two
paper-scale k_L=1 multi-LP cells, and none of the wide grid.  Supports,
responses, statuses and hashes must match exactly, floats within
``FLOAT_TOL``: BLAS kernels differ between CPUs and can move a product's
last bit, so the dump's ``float.hex`` strings are compared as numbers.
The subset is computed in a child process whose BLAS runs on one
thread, as the dump was: under OpenBLAS's default thread count a losing
candidate's LP value on the aggressive k_L=1 cell moves by 3e-11.  The
full grid stays with ``python tests/answers.py --against REV``.

After a deliberate change of answers, rewrite the dump with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_answers.py > tests/answers_subset.json
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import stackalloc

import answers

DUMP = Path(__file__).with_name("answers_subset.json")
SUBSET = dict(engine_seeds=(0,), exact_seeds=range(3), paper_exact=answers.PAPER_EXACT[:2],
              wide_seeds=())
FLOAT_TOL = 1e-12
HEX_FLOAT = re.compile(r"-?(0x[01]\.[0-9a-f]+p[+-]\d+|inf)|nan")


def same(expected, got) -> bool:
    """``got`` equals ``expected``, with hex floats within ``FLOAT_TOL``."""
    if isinstance(expected, dict) and isinstance(got, dict):
        return expected.keys() == got.keys() and all(same(expected[k], got[k]) for k in expected)
    if isinstance(expected, list) and isinstance(got, list):
        return len(expected) == len(got) and all(map(same, expected, got))
    if isinstance(expected, str) and isinstance(got, str) and HEX_FLOAT.fullmatch(expected) \
            and HEX_FLOAT.fullmatch(got):
        a, b = float.fromhex(expected), float.fromhex(got)
        return a == b or abs(a - b) <= FLOAT_TOL or (math.isnan(a) and math.isnan(b))
    return expected == got


def test_same_tolerates_only_last_bits():
    x = 56.91435579605957
    assert same({"v": [x.hex()]}, {"v": [(x + 7e-15).hex()]})
    assert not same({"v": [x.hex()]}, {"v": [(x + 1e-11).hex()]})
    assert not same(["optimal"], ["infeasible"]) and not same([[0, 1]], [[0, 2]])
    assert not same("ab" * 32, "ab" * 31 + "ac")


def test_answers_match_the_committed_dump():
    expected = json.loads(DUMP.read_text())
    env = dict(os.environ, PYTHONPATH=str(Path(stackalloc.__file__).parents[1]),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    got = json.loads(subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                                    text=True, check=True).stdout)
    assert sorted(got) == sorted(expected)
    differ = [key for key in expected if not same(expected[key], got[key])]
    assert differ == [], {key: (expected[key], got[key]) for key in differ[:3]}


if __name__ == "__main__":
    json.dump(answers.answers(**SUBSET), sys.stdout, indent=1, sort_keys=True)
    print()
