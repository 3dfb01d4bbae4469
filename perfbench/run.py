"""Run the stackalloc benchmark.

    python3 perfbench/run.py --workload paper-protocol --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, each in its own process

One client drives the package in a closed loop: an operation starts when
the previous one has returned.  A run sets the workload up, then repeats
episodes until ``--seconds`` have passed; an episode is one pass over the
workload's operations in a fresh interpreter (``episode.py``).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
every operation runs twice, untraced and traced, and the run prints the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full result,
with the environment and every operation's output, is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import hostspeed
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-protocol", "solve-cold", "exact-lp")
DEFAULT_SEED = 0  # the seed the committed reference outputs belong to
SETUP_REPEATS = 5
EPISODE_TIMEOUT_S = 120
THREAD_VARS = ("STACKALLOC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

# One process, one thread: the load is a single closed-loop client, and
# extra BLAS or bench workers would compete for a small machine's cores.
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))


def _setup(workload: str, seed: int, workdir: Path) -> list[tuple[float, float]]:
    """Set up SETUP_REPEATS times in fresh interpreters; the last one's files
    stay.  Each gives its elapsed seconds and the host factor after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "prepare.py"), workload, str(seed), str(workdir)],
            env=_child_env(), capture_output=True, text=True, timeout=EPISODE_TIMEOUT_S)
        if proc.returncode != 0:
            _fail(f"set-up failed:\n{proc.stderr}")
        elapsed, factor = map(float, proc.stdout.split()[-2:])
        times.append((elapsed, elapsed / factor))
    return times


def _episode(workload: str, seed: int, workdir: Path, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "episode.py"), workload, str(seed), str(workdir),
         str(int(trace))],
        env=_child_env(), capture_output=True, text=True, timeout=EPISODE_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"episode exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit, "seed": seed,
    }


class Checker:
    """Checks every execution's output and keeps the failures."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.records: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, entry: dict) -> bool:
        from workloads import compare

        self.attempted += 1
        key = entry["key"]
        problem = entry.get("problem")
        if problem is None:
            # Against the reference when there is one; otherwise a repeated
            # input must repeat its first answer.
            record = entry["record"]
            source = self.records if self.reference is None else self.reference
            expected = source.get(key)
            if expected is not None:
                problem = compare(record, expected)
            elif self.reference is not None:
                problem = "no reference output"
            self.records.setdefault(key, record)
        if problem is not None:
            self.failures.append(f"{key}: {problem}")
        return problem is None


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond them."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(episodes: list[dict], checker: Checker,
                setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    """An operation's time is its wall time divided by the host factor
    around it (hostspeed.py).  Percentiles are over every correct timed
    operation of the run: each input once per episode."""
    ms: list[float] = []
    wall: list[float] = []
    by_engine: dict[str, list[float]] = {}
    for episode in episodes:
        for entry in episode["timed"]:
            if not entry["ok"]:
                continue
            t = entry["s"] * 1e3 / hostspeed.factor(episode["marks"], entry["at"])
            ms.append(t)
            wall.append(entry["s"] * 1e3)
            by_engine.setdefault(entry["engine"], []).append(t)
    if not ms:
        ms = wall = [0.0]
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup_times), "s"),
        "ops_per_s": (len(ms) / sum(ms) * 1e3 if sum(ms) else 0.0, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (_quantile(ms, 90), "ms"),
        "peak_rss_mb": (max(e["peak_rss_mb"] for e in episodes), "MB"),
    }
    extra = {f"{engine}_ms_p50": (statistics.median(v), "ms")
             for engine, v in sorted(by_engine.items())}
    extra["wall_setup_s"] = (statistics.median(wall for wall, _ in setup_times), "s")
    extra["wall_op_ms_p50"] = (statistics.median(wall), "ms")
    extra["wall_op_ms_p90"] = (_quantile(wall, 90), "ms")
    probes = [p * 1e3 for e in episodes for _, p in e["marks"]]
    extra["probe_ms_p50"] = (statistics.median(probes), "ms")
    extra["probe_ms_min"] = (min(probes), "ms")
    extra["episodes"] = (float(len(episodes)), "count")
    extra["timed_ops"] = (float(len(ms)), "count")
    extra["failed_frac"] = (len(checker.failures) / max(checker.attempted, 1), "frac")
    return metrics, extra


def _layer_metrics(episodes: list[dict], checker: Checker) -> tuple[dict, dict]:
    traced_s = sum(e["s"] for ep in episodes for e in ep["traced"])
    untraced_s = sum(e["s"] for ep in episodes for e in ep["timed"])
    ops = sum(len(ep["traced"]) for ep in episodes)
    metrics = tracer.metrics(tracer.merge([ep["tracer"] for ep in episodes]),
                             ops, traced_s, untraced_s)
    extra = {"episodes": (float(len(episodes)), "count"),
             "failed_frac": (len(checker.failures) / max(checker.attempted, 1), "frac")}
    return metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "stackalloc" / "__init__.py").is_file():
        _fail(f"no stackalloc package under {SRC}; run from a checkout of the repository")
    reference = None
    if seed == DEFAULT_SEED:
        ref_path = BENCH_DIR / "reference" / f"{name}.json"
        if not ref_path.is_file():
            _fail(f"missing reference outputs {ref_path}")
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)["records"]
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = _setup(name, seed, workdir)
        checker = Checker(reference)
        episodes = []
        start = time.perf_counter()
        while not episodes or time.perf_counter() - start < seconds:
            episode = _episode(name, seed, workdir, trace)
            for entry in (*episode["warm"], *episode["timed"], *episode["traced"]):
                entry["ok"] = checker.check(entry)
            episodes.append(episode)
        wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics, extra = _layer_metrics(episodes, checker)
    else:
        metrics, extra = _end_to_end(episodes, checker, setup_times)
    env = _environment(seed)
    result = {
        "workload": name, "trace": int(trace), "seconds": seconds, "wall_s": wall_s,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_s_each": setup_times,
        "attempted": checker.attempted, "failed": len(checker.failures),
        "failures": checker.failures[:50], "records": checker.records,
        "log": [[e["key"], e["s"], e["ok"], e["at"]] for ep in episodes
                for e in (*ep["timed"], *ep["traced"])],
        "marks": [ep.get("marks") for ep in episodes],
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  episodes {len(episodes)}  "
          f"wall {wall_s:.1f}s")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"  {key:<40} {value:>14.6g} {unit}")
    for failure in checker.failures[:10]:
        print(f"  FAILED {failure}")
    print(f"full result: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not checker.failures, "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    if code == 0:
        print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
