"""One episode of a benchmark run: a single pass over a workload's operations.

    python3 perfbench/episode.py <workload> <seed> <workdir> <trace>

Runs in a fresh interpreter that imports stackalloc from ``src/`` of this
checkout (``run.py`` sets PYTHONPATH).  It runs the workload's warm-up
operations untimed, then every operation of the pass once, in a fixed
order, and prints one JSON object: each execution's key, engine, time
and output (or why it failed), the host-speed probe's marks, and this
process's peak RSS.  With trace 1 every operation runs twice, untraced
and traced, and the object also holds the tracer's totals.  See
``hostspeed.py`` for the probe.

A fresh interpreter per pass gives every operation the same heap in
every episode: the solver never frees a game it has solved, so within
one long-lived process each operation would meet a larger heap, and
slower garbage collection, than the one before it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import stackalloc

from hostspeed import Probe
from workloads import WORKLOADS, OpFailure


def execute(op) -> dict:
    """Run one operation; its time, and its output or why it failed."""
    start = time.perf_counter()
    try:
        record = op.run()
    except OpFailure as exc:
        problem = str(exc)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        problem = f"{type(exc).__name__}: {exc}"
    else:
        problem = None
    elapsed = time.perf_counter() - start
    out = {"key": op.key, "engine": op.engine, "s": elapsed, "at": start + elapsed / 2}
    if problem is None:
        out["record"] = record
    else:
        out["problem"] = problem
    return out


def run_pass(name: str, seed: int, workdir: str, trace: bool) -> dict:
    workload = WORKLOADS[name]
    warm = [execute(op) for op in workload.warm(seed, workdir)]
    ops = workload.ops(seed, workdir)
    result = {"warm": warm, "timed": [], "traced": []}
    if not trace:
        probe = Probe()
        for op in ops:
            if probe.due():
                probe.mark()
            result["timed"].append(execute(op))
        probe.mark()
        result["marks"] = probe.marks
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result

    from tracer import Tracer

    tracer = Tracer()
    for i, op in enumerate(ops):
        # Alternate which twin runs first, so heap growth and cache state
        # do not favour one side.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    result["traced"].append(execute(op))
            else:
                result["timed"].append(execute(op))
    result["tracer"] = tracer.state()
    return result


def main(argv: list[str]) -> int:
    name, seed, workdir, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    src = Path(__file__).resolve().parent.parent / "src" / "stackalloc"
    if Path(stackalloc.__file__).resolve().parent != src:
        print(f"imported stackalloc from {stackalloc.__file__}, not {src}", file=sys.stderr)
        return 2
    json.dump(run_pass(name, seed, workdir, trace), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
