import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stackalloc import (MixedStrategy, PureStrategy, best_response, cli, exact, heuristic,
                        load_instance, lp, mwu)
from stackalloc.cli import main
from stackalloc.lp import LpOutcome

from conftest import make_no_pure_optimum, make_overfunding_trap, make_private_customers
from stackalloc.model import dump_instance


@pytest.fixture
def no_pure_optimum_path(tmp_path):
    path = tmp_path / "no_pure_optimum.txt"
    with open(path, "w") as fh:
        dump_instance(make_no_pure_optimum(), fh)
    return str(path)


@pytest.fixture
def overfunding_trap_path(tmp_path):
    path = tmp_path / "overfunding_trap.txt"
    with open(path, "w") as fh:
        dump_instance(make_overfunding_trap(), fh)
    return str(path)


@pytest.fixture
def private_customers_path(tmp_path):
    path = tmp_path / "private_customers.txt"
    with open(path, "w") as fh:
        dump_instance(make_private_customers(), fh)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_exact_no_pure_optimum(capsys, no_pure_optimum_path):
    code, out, _ = run_cli(capsys, "solve", "--instance", no_pure_optimum_path,
                           "--algorithm", "exact")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(1.1, abs=1e-9)
    assert report["algorithm"] == "exact"
    assert report["timings"]["solve_ms"] > 0


def test_solve_greedy_overfunding_trap(capsys, overfunding_trap_path):
    code, out, _ = run_cli(capsys, "solve", "--instance", overfunding_trap_path,
                           "--algorithm", "greedy")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)


def test_solve_heuristic_on_instance_without_edges(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("3 2 1 1\n")
    code, out, _ = run_cli(capsys, "solve", "--instance", str(path),
                           "--algorithm", "heuristic", "--ell", "3")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


# No customers at all, and customers with no media: every gain is zero.
EDGELESS = ("3 0 1 1\n", "3 5 1 1\n")


@pytest.mark.parametrize("text", EDGELESS, ids=["no-customers", "no-edges"])
def test_every_engine_solves_an_instance_without_edges(text):
    game = load_instance(io.StringIO(text))
    z = heuristic.greedy_baseline(game)
    assert len(z) == game.k_L
    assert best_response(game, MixedStrategy.point_mass(z)).leader_value == 0.0
    x, _ = mwu.solve_mwu(game)
    assert best_response(game, x).leader_value == 0.0
    assert best_response(game, heuristic.solve_heuristic(game, 3)).leader_value == 0.0
    assert exact.solve_multi_lp(game).value == 0.0
    assert exact.solve_disjoint_lp(game).value == 0.0


@pytest.mark.parametrize("text", EDGELESS, ids=["no-customers", "no-edges"])
@pytest.mark.parametrize("algorithm", ["greedy", "mwu", "heuristic", "exact", "exact-disjoint",
                                       "exact-multi-lp", "exact-disjoint-lp"])
def test_solve_every_engine_on_an_instance_without_edges(capsys, tmp_path, text, algorithm):
    path = tmp_path / "edgeless.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", "--instance", str(path), "--algorithm", algorithm)
    assert code == 0, err
    assert json.loads(out)["value"] == 0.0


def test_solve_report_numbers_are_rederivable(capsys, no_pure_optimum_path):
    code, out, _ = run_cli(capsys, "solve", "--instance", no_pure_optimum_path,
                           "--algorithm", "mwu", "--iters", "50")
    assert code == 0
    report = json.loads(out)
    with open(no_pure_optimum_path) as fh:
        game = load_instance(fh)
    x = MixedStrategy({PureStrategy.of(atom["media"]): atom["prob"]
                       for atom in report["leader"]["support"]})
    br = best_response(game, x)
    assert report["value"] == pytest.approx(br.leader_value, abs=1e-12)
    assert report["follower_value"] == pytest.approx(br.follower_value, abs=1e-12)
    assert report["follower_best_response"] == list(br.chosen.media)
    alloc = np.zeros(game.n)
    for atom in report["leader"]["support"]:
        alloc[atom["media"]] += atom["prob"]
    assert np.allclose(report["leader"]["allocation"], alloc)
    assert "certificate" in report


def test_solve_inapplicable_disjoint_solver_is_input_error(capsys, overfunding_trap_path):
    code, _, err = run_cli(capsys, "solve", "--instance", overfunding_trap_path,
                           "--algorithm", "exact-disjoint")
    assert code == 2
    assert "solve_multi_lp" in err


def test_solve_cap_error_exit_code(capsys, tmp_path):
    path = tmp_path / "big.txt"
    lines = ["40 40 10 10"]
    lines += [f"{u} {u} 0.5 0.5" for u in range(40)]
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "solve", "--instance", str(path),
                           "--algorithm", "exact")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("algorithm,option", [("heuristic", "--ell"), ("mwu", "--iters")])
def test_solve_reports_the_follower_cap_before_a_bad_option(capsys, tmp_path, algorithm, option):
    # The oracle is built before any engine checks its options, so a game
    # over the follower cap exits 3 even where the option alone exits 2.
    path = tmp_path / "big.txt"
    path.write_text("40 1 1 10\n")
    code, out, err = run_cli(capsys, "solve", "--instance", str(path),
                             "--algorithm", algorithm, option, "0")
    assert code == 3
    assert out == "" and "cap" in err
    path.write_text("40 1 1 2\n")
    code, _, err = run_cli(capsys, "solve", "--instance", str(path),
                           "--algorithm", algorithm, option, "0")
    assert code == 2
    assert "must be >= 1" in err


@pytest.mark.parametrize("algorithm", ["greedy", "mwu", "heuristic", "exact", "exact-disjoint"])
def test_solve_times_load_oracle_and_solve_apart(capsys, private_customers_path, algorithm):
    code, out, _ = run_cli(capsys, "solve", "--instance", private_customers_path,
                           "--algorithm", algorithm)
    assert code == 0
    timings = json.loads(out)["timings"]
    assert list(timings) == ["load_ms", "oracle_ms", "solve_ms"]
    assert all(ms > 0 for ms in timings.values())


@pytest.mark.parametrize("algorithm", ["greedy", "exact"])
def test_solve_instance_too_large_for_memory_exit_code(capsys, tmp_path, algorithm):
    # The loader accepts a header-only file of any size; 10**15 customers
    # ask for more than any 64-bit address space, so nothing is allocated.
    path = tmp_path / "huge.txt"
    path.write_text(f"2 {10 ** 15} 1 1\n")
    code, out, err = run_cli(capsys, "solve", "--instance", str(path), "--algorithm", algorithm)
    assert code == 3
    assert out == ""
    assert err.startswith("error: instance too large")


def test_solve_pivot_cap_exit_code(capsys, monkeypatch, no_pure_optimum_path):
    monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
    code, out, err = run_cli(capsys, "solve", "--instance", no_pure_optimum_path,
                             "--algorithm", "exact")
    assert code == 3
    assert out == ""
    assert err == "error: pivot cap exceeded\n"


def test_solve_numerics_error_exit_code(capsys, monkeypatch, no_pure_optimum_path):
    # Every candidate LP reads infeasible, which the solver's re-check
    # rejects: some response is always inducible.
    monkeypatch.setattr(exact, "solve_lp", lambda lp: LpOutcome(status="infeasible"))
    code, out, err = run_cli(capsys, "solve", "--instance", no_pure_optimum_path,
                             "--algorithm", "exact")
    assert code == 4
    assert out == ""
    assert "no candidate LP was feasible" in err


def test_solve_disjoint_decodes_every_allocation_the_lp_certifies(capsys, monkeypatch,
                                                                  private_customers_path):
    # An optimum 5e-8 above 1 still passes solve_lp's feasibility check, so
    # the decode must take it: it used to exit 2 with "allocation outside Q".
    solve_lp = exact.solve_lp

    def nudged(program):
        out = solve_lp(program)
        if out.status == "optimal":
            x = out.x.copy()
            x[np.argmax(x)] += 5e-8
            lp._check_feasible(program, x)
            out = LpOutcome(status="optimal", x=x, value=out.value)
        return out

    monkeypatch.setattr(exact, "solve_lp", nudged)
    code, out, err = run_cli(capsys, "solve", "--instance", private_customers_path,
                             "--algorithm", "exact-disjoint")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == pytest.approx(18.0, abs=1e-9)


def test_solve_mwu_non_finite_losses_exit_code(capsys, monkeypatch, no_pure_optimum_path):
    # Losses that are not finite are a numerics fault (exit 4), not an
    # input error (exit 2): the instance and the options were valid.
    monkeypatch.setattr(mwu, "_surrogate_losses",
                        lambda oracle, pvz, C: np.full(len(oracle), -np.inf))
    code, out, err = run_cli(capsys, "solve", "--instance", no_pure_optimum_path,
                             "--algorithm", "mwu")
    assert code == 4
    assert out == ""
    assert err == "error: MWU losses are not finite\n"


def test_solve_has_no_seed_option(capsys, no_pure_optimum_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--instance", no_pure_optimum_path, "--algorithm", "greedy",
              "--seed", "1"])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--instance", "/nope.txt",
                           "--algorithm", "greedy")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("solve", "--instance", "{dir}", "--algorithm", "greedy"),
    ("validate", "--instance", "{dir}"),
    ("generate", "--n", "3", "--m", "2", "--mean-degree", "1", "--p", "0,1", "--pf", "0,1",
     "--seed", "0", "--out", "{dir}"),
    ("bench", "--spec", "{dir}"),
], ids=["solve", "validate", "generate", "bench"])
def test_a_directory_in_place_of_a_file_is_an_input_error(capsys, tmp_path, argv):
    # Each used to end in an IsADirectoryError traceback with exit 1.
    code, out, err = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_generate_is_deterministic_and_loadable(capsys, tmp_path):
    out_a, out_b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for out in (out_a, out_b):
        code, _, _ = run_cli(capsys, "generate", "--n", "50", "--m", "447",
                             "--mean-degree", str(871 / 447), "--p", "0,0.2",
                             "--pf", "0.1,0.9", "--seed", "4", "--out", out)
        assert code == 0
    assert open(out_a).read() == open(out_b).read()
    with open(out_a) as fh:
        game = load_instance(fh)
    assert game.n == 50 and game.m == 447


def test_generate_distinct_seeds_differ(capsys, tmp_path):
    texts = []
    for seed in (1, 2, 3):
        out = str(tmp_path / f"s{seed}.txt")
        code, _, _ = run_cli(capsys, "generate", "--n", "6", "--m", "10",
                             "--mean-degree", "2", "--p", "0,0.5",
                             "--pf", "0,0.5", "--seed", str(seed), "--out", out)
        assert code == 0
        texts.append(open(out).read())
    assert len(set(texts)) == 3


def test_generate_rejects_inverted_range(capsys, tmp_path):
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--m", "2",
                           "--mean-degree", "1", "--p", "0.2,0.1",
                           "--pf", "0,0.5", "--seed", "1",
                           "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "range" in err


def test_generate_rejects_a_range_that_is_not_a_pair(capsys, tmp_path):
    out = tmp_path / "x.txt"
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--m", "2",
                           "--mean-degree", "1", "--p", "0.1",
                           "--pf", "0,0.5", "--seed", "1", "--out", str(out))
    assert code == 2
    assert "expected 'a,b', got '0.1'" in err
    assert not out.exists()


@pytest.mark.parametrize("budget", [["--kl", "5"], ["--kf", "-1"]])
def test_generate_rejects_a_budget_outside_the_media_count(capsys, tmp_path, budget):
    out = tmp_path / "x.txt"
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--m", "5",
                           "--mean-degree", "2", "--p", "0,0.2", "--pf", "0.1,0.9",
                           "--seed", "0", "--out", str(out), *budget)
    assert code == 2
    assert "budgets in [0, n]" in err
    assert not out.exists()


def test_generate_rejects_a_negative_seed(capsys, tmp_path):
    # numpy's bare "expected non-negative integer" used to be the message.
    out = tmp_path / "x.txt"
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--m", "5", "--mean-degree", "1",
                           "--p", "0,0.2", "--pf", "0,0.2", "--seed", "-3", "--out", str(out))
    assert code == 2
    assert err.startswith("error: need m >= 0, seed >= 0 and budgets in [0, n]") and "seed=-3" in err
    assert not out.exists()


def test_generate_clamps_default_budgets_to_the_media_count(capsys, tmp_path):
    out = tmp_path / "x.txt"
    code, _, _ = run_cli(capsys, "generate", "--n", "1", "--m", "5", "--mean-degree", "1",
                         "--p", "0,0.2", "--pf", "0,0.2", "--seed", "0", "--out", str(out))
    assert code == 0
    header = next(line for line in out.read_text().splitlines() if not line.startswith("#"))
    assert header == "1 5 1 1"


def test_bench_command_csv_and_mirror(capsys, tmp_path):
    spec = {"n": 5, "m": 6, "mean_degree": 1.5, "p": [0, 0.5], "p_f": [0.1, 0.9],
            "budgets": [[1, 1]], "algorithms": ["greedy"], "trials": 1,
            "base_seed": 2}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    mirror = tmp_path / "mirror.json"
    code, out, _ = run_cli(capsys, "bench", "--spec", str(spec_path),
                           "--json", str(mirror))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("dist,kL,kF")
    assert len(lines) == 2
    assert json.loads(mirror.read_text())["rows"][0]["cells"]["greedy"]["status"] == "ok"


@pytest.mark.parametrize("degree", ["nan", "inf", "-inf"])
def test_generate_rejects_a_non_finite_mean_degree(capsys, tmp_path, degree):
    out = tmp_path / "g.txt"
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--m", "5", f"--mean-degree={degree}",
                           "--p", "0,0.2", "--pf", "0,0.2", "--seed", "0", "--out", str(out))
    assert code == 2
    assert "mean degree" in err


def test_generate_rejects_a_negative_mean_degree(capsys, tmp_path):
    out = tmp_path / "g.txt"
    code, _, err = run_cli(capsys, "generate", "--n", "5", "--m", "10", "--mean-degree", "-3",
                           "--p", "0,0.2", "--pf", "0,0.2", "--seed", "0", "--out", str(out))
    assert code == 2
    assert "mean degree must be non-negative, got -3.0" in err
    assert not out.exists()


@pytest.mark.parametrize("degree", [float("nan"), float("inf"), float("-inf")])
def test_bench_rejects_a_non_finite_mean_degree(capsys, tmp_path, degree):
    spec = {"n": 5, "m": 6, "mean_degree": degree, "p": [0, 0.5], "p_f": [0.1, 0.9],
            "budgets": [[1, 1]], "algorithms": ["greedy"], "trials": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))  # written as NaN, Infinity, -Infinity
    code, out, err = run_cli(capsys, "bench", "--spec", str(spec_path))
    assert code == 2 and out == ""
    assert "mean degree" in err


def test_parser_is_built_once(capsys, no_pure_optimum_path):
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run_cli(capsys, "validate", "--instance", no_pure_optimum_path)[0] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_bench_malformed_spec(capsys, tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text("{\"n\": 3}")
    code, _, err = run_cli(capsys, "bench", "--spec", str(spec_path))
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("shape", [[], {"mwu": [1]}], ids=["list", "mwu-list"])
def test_bench_spec_of_the_wrong_shape_is_an_input_error(capsys, tmp_path, shape):
    # A spec that is not an object, or whose "mwu" or "heuristic" is not
    # one, used to end in an AttributeError traceback and exit 1.
    spec = {"n": 5, "m": 6, "mean_degree": 1.5, "p": [0, 0.5], "p_f": [0.1, 0.9],
            "budgets": [[1, 1]], "algorithms": ["mwu", "heuristic"], "trials": 1}
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({**spec, **shape} if isinstance(shape, dict) else shape))
    code, out, err = run_cli(capsys, "bench", "--spec", str(spec_path))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed experiment spec: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("params,message", [
    ({"mwu": {"iterations": 0}}, "iterations must be >= 1"),
    ({"mwu": {"epsilon": 1.5}}, "epsilon must lie in (0, 1)"),
    ({"heuristic": {"ell": 0}}, "heuristic ell must be >= 1"),
    ({"mean_degree": "1.5"}, '"mean_degree" must be a number'),
    ({"p": [False, True]}, 'a "p" bound must be a number'),
    ({"mwu": {"epsilon": "0.25"}}, '"mwu" "epsilon" must be a number'),
    ({"trials": 0}, "trials must be >= 1"),
], ids=["mwu-iterations", "mwu-epsilon", "heuristic-ell", "degree-string", "p-bools",
        "epsilon-string", "trials"])
def test_bench_rejects_bad_solver_parameters(capsys, tmp_path, params, message):
    # All but the last of these specs used to run and exit 0: the solver
    # parameters printed "skipped" for the engine, and float() read the
    # strings and bools.
    spec = {"n": 5, "m": 6, "mean_degree": 1.5, "p": [0, 0.5], "p_f": [0.1, 0.9],
            "budgets": [[1, 1]], "algorithms": ["mwu", "heuristic"], "trials": 1,
            **params}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "bench", "--spec", str(spec_path))
    assert code == 2 and out == ""
    assert f"malformed experiment spec: {message}" in err


def run_fresh_python(args, threads):
    """Run ``python args`` in a fresh interpreter on this package with
    STACKALLOC_THREADS=threads; returns the completed process."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               STACKALLOC_THREADS=str(threads))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def write_tiny_spec(tmp_path):
    spec = {"n": 5, "m": 8, "mean_degree": 2.0, "p": [0, 0.5], "p_f": [0.1, 0.9],
            "budgets": [[1, 1], [2, 1]], "algorithms": ["greedy", "mwu"], "trials": 2,
            "base_seed": 10, "mwu": {"iterations": 20}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return str(spec_path)


def test_import_and_serial_bench_leave_the_process_pool_unloaded(tmp_path):
    # The pool's modules (multiprocessing, socket, subprocess, logging, ...)
    # load only when a bench run starts workers.
    script = (
        "import sys\n"
        "import stackalloc, stackalloc.cli\n"
        f"assert stackalloc.cli.main(['bench', '--spec', {write_tiny_spec(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n")
    proc = run_fresh_python(["-c", script], threads=1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "dist,kL,kF,algorithm,mean,std,mean_ms,trials" and len(lines) == 6
    assert lines[-1] == "[]"


def test_bench_console_entry_in_parallel_matches_serial(tmp_path):
    # Two threads start a real pool on a host with two or more CPUs.
    spec_path = write_tiny_spec(tmp_path)
    tables = []
    for threads in (2, 1):
        proc = run_fresh_python(["-m", "stackalloc.cli", "bench", "--spec", spec_path], threads)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        tables.append([row[:6] + row[7:] for row in rows])  # all but mean_ms
    assert tables[0] == tables[1]
    assert len(tables[0]) == 5 and all(row[4] != "skipped" for row in tables[0][1:])


def test_bench_worker_that_dies_exits_3_without_a_traceback(tmp_path):
    # Forked workers inherit the patched trial: the k_L=2 row's second trial
    # ends its process, as an out-of-memory kill would.
    script = (
        "import multiprocessing, os, sys\n"
        "from stackalloc import bench, cli\n"
        "multiprocessing.set_start_method('fork')\n"
        "os.cpu_count = lambda: 2  # a real pool even on a one-CPU host\n"
        "real_trial = bench._run_trial\n"
        "def dying_trial(payload):\n"
        "    if payload[1:] == (2, 1, 1):\n"
        "        os._exit(1)\n"
        "    return real_trial(payload)\n"
        "bench._run_trial = dying_trial\n"
        f"sys.exit(cli.main(['bench', '--spec', {write_tiny_spec(tmp_path)!r}]))\n")
    proc = run_fresh_python(["-c", script], threads=2)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert lines[0].startswith("error: a bench worker process died: ")
    assert "instance too large" not in lines[0] and "Traceback" not in proc.stderr


def test_validate_commands(capsys, tmp_path, no_pure_optimum_path):
    code, out, _ = run_cli(capsys, "validate", "--instance", no_pure_optimum_path)
    assert code == 0 and out.strip() == "ok"
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 1 1\n0 0 1.5 0.5\n")
    code, out, err = run_cli(capsys, "validate", "--instance", str(bad))
    assert code == 2 and out == ""
    assert err.strip() == "error: line 2: probability out of range"
