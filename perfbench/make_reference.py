"""Record the reference outputs of the default seed.

    python3 perfbench/make_reference.py [workload ...]

Runs one episode of each workload, in this process, at the default seed,
and writes perfbench/reference/<workload>.json.  The committed files were
written at the commit that introduced the benchmark; rerun this only on
purpose, when the expected answers are meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

import episode  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    for name in names or run.WORKLOAD_NAMES:
        workdir = run.OUT_DIR / f"reference-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            WORKLOADS[name].prepare(run.DEFAULT_SEED, str(workdir))
            result = episode.run_pass(name, run.DEFAULT_SEED, str(workdir), trace=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        checker = run.Checker(reference=None)
        for entry in (*result["warm"], *result["timed"]):
            checker.check(entry)
        if checker.failures:
            print("\n".join(checker.failures), file=sys.stderr)
            return 1
        out = run.BENCH_DIR / "reference" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"seed": run.DEFAULT_SEED, "environment": run._environment(run.DEFAULT_SEED),
                       "records": checker.records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(checker.records)} operations -> {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
