import csv
import io
import json

import numpy as np
import pytest

from stackalloc import (ExperimentSpec, MixedStrategy, PureStrategy, best_response,
                        generate_instance, parse_spec, parse_specs, run_experiment)
from stackalloc import bench, cli, exact, follower, heuristic, lp
from stackalloc.bench import rows_as_json, write_csv
from stackalloc.lp import LpNumericsError

from conftest import record_products


def tiny_spec(**overrides):
    base = dict(n=5, m=8, mean_degree=2.0, p_dist=(0.0, 0.5), pf_dist=(0.1, 0.9),
                budgets=((1, 1),), algorithms=("greedy", "heuristic"),
                trials=3, base_seed=10, mwu_iterations=20, heuristic_ell=3)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_single_trial_single_algorithm():
    rows = run_experiment(tiny_spec(trials=1, algorithms=("greedy",)))
    assert len(rows) == 1
    cell = rows[0].cells["greedy"]
    assert cell.std == 0.0
    assert cell.trials_done == 1


def test_rows_cover_budget_grid_and_all_algorithms():
    spec = tiny_spec(budgets=((1, 1), (2, 1)), algorithms=("greedy", "mwu", "heuristic"))
    rows = run_experiment(spec)
    assert [(r.k_L, r.k_F) for r in rows] == [(1, 1), (2, 1)]
    for row in rows:
        assert set(row.cells) == {"greedy", "mwu", "heuristic"}
        for cell in row.cells.values():
            assert cell.trials_done == spec.trials
            assert 0.0 <= cell.mean <= spec.m


def strip_timings(rows):
    return [(r.dist, r.k_L, r.k_F,
             {a: (c.mean, c.std, c.trials_done, c.values) for a, c in r.cells.items()})
            for r in rows]


def test_same_instances_across_algorithms_and_deterministic():
    spec = tiny_spec(algorithms=("greedy", "exact-multi-lp"))
    rows1 = run_experiment(spec)
    rows2 = run_experiment(spec)
    assert strip_timings(rows1) == strip_timings(rows2)
    # the exact value dominates greedy on every shared trial instance
    g = rows1[0].cells["greedy"].values
    e = rows1[0].cells["exact-multi-lp"].values
    assert all(ei >= gi - 1e-9 for gi, ei in zip(g, e))


def test_changing_base_seed_changes_values_not_pairing():
    spec_a = tiny_spec(base_seed=10, trials=2)
    spec_b = tiny_spec(base_seed=11, trials=2)
    a = run_experiment(spec_a)[0].cells["greedy"].values
    b = run_experiment(spec_b)[0].cells["greedy"].values
    # seed 11's first trial is seed 10's second trial
    assert b[0] == a[1]


def test_gated_exact_solver_records_skipped_cells():
    spec = tiny_spec(n=50, m=10, mean_degree=1.0, budgets=((4, 2),),
                     algorithms=("greedy", "exact-multi-lp"), trials=2)
    rows = run_experiment(spec)
    assert rows[0].cells["exact-multi-lp"].skipped
    assert not rows[0].cells["greedy"].skipped
    out = io.StringIO()
    write_csv(rows, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "dist,kL,kF,algorithm,mean,std,mean_ms,trials"
    assert any(",exact-multi-lp,skipped,,,0" in line for line in lines)


def test_numerics_failure_skips_only_its_cell(monkeypatch):
    spec = tiny_spec(algorithms=("greedy", "exact-multi-lp"), trials=2)
    clean = run_experiment(spec)

    def broken(game):
        raise LpNumericsError("re-evaluated value disagrees with LP value")

    monkeypatch.setattr(exact, "solve_multi_lp", broken)
    rows = run_experiment(spec)
    assert rows[0].cells["exact-multi-lp"].skipped
    assert rows[0].cells["exact-multi-lp"].values == (None, None)
    greedy = rows[0].cells["greedy"]
    assert (greedy.mean, greedy.values) == (clean[0].cells["greedy"].mean,
                                            clean[0].cells["greedy"].values)


def test_a_pivot_cap_skips_only_the_exact_cell(monkeypatch):
    spec = tiny_spec(algorithms=("greedy", "exact-multi-lp"), trials=2)
    clean = run_experiment(spec)
    assert None not in clean[0].cells["exact-multi-lp"].values
    monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
    rows = run_experiment(spec)
    assert rows[0].cells["exact-multi-lp"].values == (None, None)
    assert rows[0].cells["greedy"].values == clean[0].cells["greedy"].values


def test_an_engine_out_of_memory_skips_only_its_cell(monkeypatch, tmp_path, capsys):
    # A MemoryError used to end the whole experiment with a traceback.
    spec = tiny_spec(budgets=((1, 1), (2, 1)), trials=2)
    clean = run_experiment(spec)

    def exhausted(game, ell):
        raise MemoryError

    monkeypatch.setattr(heuristic, "solve_heuristic", exhausted)
    rows = run_experiment(spec)
    assert [(r.k_L, r.k_F) for r in rows] == [(1, 1), (2, 1)]
    for row, before in zip(rows, clean):
        assert row.cells["heuristic"].skipped
        assert row.cells["heuristic"].values == (None, None)
        assert row.cells["greedy"].values == before.cells["greedy"].values
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n": 5, "m": 8, "mean_degree": 2.0, "p": [0, 0.5], "p_f": [0.1, 0.9],
        "budgets": [[1, 1]], "algorithms": ["greedy", "heuristic"], "trials": 2}))
    assert cli.main(["bench", "--spec", str(spec_path)]) == 0
    out = io.StringIO(capsys.readouterr().out)
    cells = {row["algorithm"]: row["mean"] for row in csv.DictReader(out)}
    assert cells["heuristic"] == "skipped" and float(cells["greedy"]) >= 0.0


@pytest.mark.parametrize("algorithms", [("greedy", "mwu"), ("mwu", "greedy")])
def test_every_engine_finds_the_trial_oracle_built(monkeypatch, algorithms):
    # The oracle is built before the timed runners, so no cell's mean_ms
    # depends on the order of the algorithms.
    found = []

    def stand_in(game, iterations, epsilon, ell):
        found.append(game in follower._ORACLES)
        return MixedStrategy.point_mass(PureStrategy.empty()), None

    for alg in algorithms:
        monkeypatch.setitem(bench.ENGINES, alg, (alg, stand_in))
    rows = run_experiment(tiny_spec(algorithms=algorithms, trials=2))
    assert found == [True] * 4
    assert all(cell.trials_done == 2 for cell in rows[0].cells.values())


def test_follower_cap_skips_every_cell(monkeypatch):
    # 1 + 200 + C(200, 2) + C(200, 3) follower strategies exceed the cap.
    ran = []
    monkeypatch.setitem(bench.ENGINES, "greedy",
                        ("greedy", lambda *args: ran.append(args) or bench._greedy(*args)))
    spec = tiny_spec(n=200, m=2, mean_degree=1.0, budgets=((1, 3),),
                     algorithms=("greedy", "mwu"), trials=1)
    rows = run_experiment(spec)
    assert all(cell.skipped for cell in rows[0].cells.values())
    assert ran == []


def test_disjoint_solver_skips_overlapping_instances():
    spec = tiny_spec(mean_degree=2.0, algorithms=("exact-disjoint-lp",), trials=1)
    rows = run_experiment(spec)
    assert rows[0].cells["exact-disjoint-lp"].skipped


def test_csv_layout():
    rows = run_experiment(tiny_spec(trials=2))
    out = io.StringIO()
    write_csv(rows, out)
    parsed = list(csv.reader(io.StringIO(out.getvalue())))
    assert len(parsed) == 1 + 2  # header + one line per algorithm
    assert parsed[0] == ["dist", "kL", "kF", "algorithm", "mean", "std",
                         "mean_ms", "trials"]
    dist, kl, kf, alg, mean, std, ms, trials = parsed[1]
    assert dist == "U(0.1,0.9)" and (kl, kf) == ("1", "1")
    assert trials == "2"
    float(mean), float(std), float(ms)


def test_json_mirror_contains_per_trial_values():
    spec = tiny_spec(trials=2)
    rows = run_experiment(spec)
    blob = rows_as_json(spec, rows)
    parsed = json.loads(json.dumps(blob))
    cell = parsed["rows"][0]["cells"]["greedy"]
    assert cell["status"] == "ok"
    assert len(cell["values"]) == 2
    assert cell["mean"] == pytest.approx(np.mean(cell["values"]))


def test_parallel_run_matches_sequential(monkeypatch):
    spec = tiny_spec(trials=2)
    sequential = run_experiment(spec)
    monkeypatch.setenv("STACKALLOC_THREADS", "2")
    parallel = run_experiment(spec)
    assert strip_timings(parallel) == strip_timings(sequential)


def tiny_spec_json(**overrides):
    """``tiny_spec(**overrides)`` in the JSON form ``parse_spec`` reads."""
    data = {"n": 5, "m": 8, "mean_degree": 2.0, "p": [0.0, 0.5], "p_f": [0.1, 0.9],
            "budgets": [[1, 1]], "algorithms": ["greedy", "heuristic"], "trials": 3,
            "base_seed": 10, "mwu": {"iterations": 20}, "heuristic": {"ell": 3}}
    for name, value in overrides.items():
        if name == "mwu_iterations":
            data["mwu"]["iterations"] = value
        elif name == "heuristic_ell":
            data["heuristic"]["ell"] = value
        else:
            data[name] = [list(pair) for pair in value] if name == "budgets" else value
    return data


@pytest.mark.parametrize("overrides", [
    dict(trials=2.5), dict(trials=True), dict(base_seed=1.5), dict(heuristic_ell=2.5),
    dict(heuristic_ell=False), dict(budgets=((1.5, 1),)), dict(budgets=((1, True),)),
    dict(n=6.7), dict(m=8.5), dict(mwu_iterations=20.5),
])
def test_spec_rejects_non_integer_counts(overrides):
    assert parse_spec(tiny_spec_json()) == tiny_spec()
    with pytest.raises(ValueError, match="must be an integer"):
        tiny_spec(**overrides)
    with pytest.raises(ValueError, match="must be an integer"):
        parse_spec(tiny_spec_json(**overrides))


def test_spec_accepts_numpy_integers():
    spec = tiny_spec(trials=np.int64(1), base_seed=np.int32(10), heuristic_ell=np.int64(3),
                     budgets=((np.int64(1), np.int8(1)),))
    assert strip_timings(run_experiment(spec)) == strip_timings(run_experiment(tiny_spec(trials=1)))


class RecordingPool:
    """Stands in for concurrent.futures.ProcessPoolExecutor: records
    max_workers, maps in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("threads,cpus,trials,budgets,started", [
    ("500", 4, 1, ((1, 1),), []),           # one payload: in-process, no pool
    ("500", 4, 3, ((1, 1), (2, 1)), [4]),   # capped by the CPU count
    ("500", 16, 3, ((1, 1), (2, 1)), [6]),  # capped by the payload count
    ("2", 16, 3, ((1, 1), (2, 1)), [2]),    # as asked
    ("500", 1, 3, ((1, 1),), []),           # one CPU: in-process
    ("abc", 4, 3, ((1, 1), (2, 1)), []),    # not a count: in-process
    ("0", 4, 3, ((1, 1), (2, 1)), []),      # fewer than one: in-process
])
def test_worker_count_is_bounded_by_payloads_and_cpus(monkeypatch, threads, cpus, trials,
                                                      budgets, started):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setenv("STACKALLOC_THREADS", threads)
    spec = tiny_spec(trials=trials, budgets=budgets)
    rows = run_experiment(spec)
    assert RecordingPool.started == started
    monkeypatch.delenv("STACKALLOC_THREADS")
    assert strip_timings(rows) == strip_timings(run_experiment(spec))


def test_parse_spec_round_trip():
    data = {
        "n": 6, "m": 10, "mean_degree": 2.0, "p": [0.0, 0.2], "p_f": [0.1, 0.9],
        "budgets": [[1, 2], [2, 2]], "algorithms": ["greedy", "exact", "exact-disjoint"],
        "trials": 5, "base_seed": 3,
        "mwu": {"iterations": 50, "epsilon": 0.4}, "heuristic": {"ell": 7},
    }
    spec = parse_spec(data)
    assert spec.algorithms == ("greedy", "exact-multi-lp", "exact-disjoint-lp")
    assert spec.budgets == ((1, 2), (2, 2))
    assert spec.mwu_iterations == 50 and spec.mwu_epsilon == 0.4
    assert spec.heuristic_ell == 7


def test_parse_specs_table_shaped_block(capsys):
    # two recapture distributions x three budget pairs: six aggregate rows
    from stackalloc.bench import parse_specs
    data = {
        "n": 4, "m": 6, "mean_degree": 1.5, "p": [0.0, 0.2],
        "p_f": [[0.0, 0.2], [0.1, 0.9]],
        "budgets": [[1, 1], [2, 1], [3, 1]],
        "algorithms": ["greedy"], "trials": 1, "base_seed": 5,
    }
    specs = parse_specs(data)
    assert [s.dist_label for s in specs] == ["U(0,0.2)", "U(0.1,0.9)"]
    rows = [row for spec in specs for row in run_experiment(spec)]
    assert len(rows) == 6
    assert sorted({r.dist for r in rows}) == ["U(0,0.2)", "U(0.1,0.9)"]


def test_parse_spec_rejects_malformed_input():
    with pytest.raises(ValueError, match="malformed"):
        parse_spec({"n": 5})
    with pytest.raises(ValueError):
        parse_spec({"n": 5, "m": 5, "mean_degree": 1, "p": [0, 0.2], "p_f": [0, 0.2],
                    "budgets": [[9, 1]], "algorithms": ["greedy"]})
    with pytest.raises(ValueError):
        parse_spec({"n": 5, "m": 5, "mean_degree": 1, "p": [0, 0.2], "p_f": [0, 0.2],
                    "budgets": [[1, 1]], "algorithms": ["sorcery"]})
    # Ranges and mean degrees that the first trial's generate_instance
    # would reject; a later p_f range used to fail only after the earlier
    # ranges had run all their trials.
    good = {"n": 5, "m": 5, "mean_degree": 1, "p": [0, 0.2], "p_f": [0, 0.2],
            "budgets": [[1, 1]], "algorithms": ["greedy"]}
    for bad in ({"p_f": [[0, 0.2], [0.9, 0.1]]}, {"p_f": []}, {"p": [0, 0.2, 0.4]},
                {"p": [-0.1, 0.2]}, {"mean_degree": 6}, {"mean_degree": -1},
                {"mean_degree": float("nan")}, {"mean_degree": float("inf")},
                {"mwu": [1]}, {"mwu": 5}, {"mwu": None}, {"heuristic": [1]},
                {"heuristic": 5}, {"heuristic": None}, {"base_seed": -1},
                {"n": 0, "m": 5, "mean_degree": 0, "budgets": [[0, 0]]}):
        with pytest.raises(ValueError, match="^malformed experiment spec: "):
            parse_specs({**good, **bad})
    # Strings and bools where a spec wants a number; JSON integers stay
    # numbers and are stored as floats.
    for bad in ({"mean_degree": "1.5"}, {"mean_degree": True}, {"p": ["0", "0.5"]},
                {"p": [False, True]}, {"p_f": [0, "0.2"]}, {"p_f": [[0, 0.2], [0.1, "1"]]},
                {"mwu": {"epsilon": "0.25"}}, {"mwu": {"epsilon": False}}, {"p": "01"}):
        with pytest.raises(ValueError, match="^malformed experiment spec: .* must be a "
                                             "number, not "):
            parse_specs({**good, **bad})
    spec = parse_spec({**good, "p": [0, 1]})
    assert spec.mean_degree == 1.0 and type(spec.mean_degree) is float
    assert spec.p_dist == (0.0, 1.0) and all(type(t) is float for t in spec.p_dist)
    # A file whose top level is not an object.
    for bad in ([], [good], "x", 5, None):
        with pytest.raises(ValueError, match="^malformed experiment spec: "):
            parse_specs(bad)


def test_paper_cell_answers_are_pinned():
    # One cell of the paper's table (n=20, m=844, k_L=2, k_F=2, p~U(0,0.2),
    # p_F~U(0.1,0.9), seed 0): each engine's strategy, its f_BR and MWU's
    # certificate, as recorded.
    game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), (0.1, 0.9), seed=0, k_L=2, k_F=2)
    expected = {"greedy": ({(5, 9): 1.0}, 18.93648059916333),
                "heuristic": ({(4, 13): 1.0}, 25.726259258109394),
                "mwu": ({(5, 9): 1.0}, 18.93648059916333)}
    for alg, (mix, value) in expected.items():
        x, certificate = bench.ENGINES[alg][1](game, 100, 0.5, 10)
        assert {z.media: w for z, w in x.weights.items()} == mix
        assert best_response(game, x).leader_value == pytest.approx(value, abs=1e-12)
        assert (certificate is None) == (alg != "mwu")
    # x and certificate are MWU's, which runs last.
    assert certificate.value == best_response(game, x).leader_value
    assert certificate.epsilon1 == pytest.approx(33.68244818707071, abs=1e-12)
    assert certificate.C == pytest.approx(39.77951677627095, abs=1e-12)
    assert certificate.empirical_regret == pytest.approx(16.63865545667276, abs=1e-12)


@pytest.mark.parametrize("k_L", [1, 2, 4])
@pytest.mark.parametrize("pf_dist", [(0.1, 0.9), (0.0, 0.2)])
def test_a_paper_trial_scores_no_row_twice(monkeypatch, k_L, pf_dist):
    # The greedy's point mass, MWU's strategies, the mix certify judges and
    # the re-score of each engine's mix often repeat a row on one game:
    # each distinct row meets the follower's tables once.
    monkeypatch.delenv("STACKALLOC_THREADS", raising=False)
    products = record_products(monkeypatch)
    spec = ExperimentSpec(n=20, m=844, mean_degree=3506 / 844, p_dist=(0.0, 0.2),
                          pf_dist=pf_dist, budgets=((k_L, 2),),
                          algorithms=("greedy", "mwu", "heuristic"), trials=1)
    (row,) = run_experiment(spec)
    assert all(cell.trials_done == 1 for cell in row.cells.values())
    assert products and len(set(products)) == len(products)
