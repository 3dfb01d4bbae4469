import gc
import math
import re
import weakref

import numpy as np
import pytest

from stackalloc import (CapExceededError, FollowerOracle, MixedStrategy, MwuConfig,
                        PureStrategy, best_response, certify, enumerate_follower,
                        follower_oracle, generate_instance, greedy_baseline,
                        greedy_weighted_submodular, mixed_activation_vector, solve_disjoint_lp,
                        solve_heuristic, solve_multi_lp, solve_mwu)
from stackalloc.model import BipartiteInfluenceGame
from stackalloc.payoff import PrefixTables, activation_rows, utilities

import oracles
from conftest import count_scored_rows, random_game, record_products


def point(media):
    return MixedStrategy.point_mass(PureStrategy.of(media))


def test_enumerate_follower_no_pure_optimum(no_pure_optimum):
    strategies = enumerate_follower(no_pure_optimum)
    assert strategies == [PureStrategy.of(s) for s in [(), (0,), (1,), (2,)]]


def test_enumerate_follower_counts():
    game = BipartiteInfluenceGame.build(20, 1, [(0, 0, 0.5, 0.5)], 1, 2)
    assert len(enumerate_follower(game)) == 1 + 20 + math.comb(20, 2)
    zero = BipartiteInfluenceGame.build(4, 1, [(0, 0, 0.5, 0.5)], 1, 0)
    assert enumerate_follower(zero) == [PureStrategy.empty()]


def test_enumerate_follower_cap():
    # 1 + 200 + C(200, 2) + C(200, 3) = 1,333,501 strategies, above the cap.
    game = BipartiteInfluenceGame.build(200, 1, [(0, 0, 0.5, 0.5)], 1, 3)
    message = ("follower strategy set has 1333501 elements (cap 1000000); evaluating best "
               "responses is intractable for large k_F, reduce k_F or raise the cap")
    for build in (enumerate_follower, FollowerOracle, follower_oracle):
        with pytest.raises(CapExceededError, match=f"^{re.escape(message)}$"):
            build(game)


def test_best_response_no_pure_optimum_mixture(no_pure_optimum):
    x = MixedStrategy({PureStrategy.of([0]): 0.5, PureStrategy.of([1]): 0.5})
    res = best_response(no_pure_optimum, x)
    assert res.follower_value == pytest.approx(0.599, abs=1e-12)
    assert res.leader_value == pytest.approx(1.1, abs=1e-12)
    assert res.chosen == PureStrategy.of([2])


def test_best_response_overfunding_trap_tie_breaking(overfunding_trap):
    res = best_response(overfunding_trap, point([0]))
    assert set(res.responses) == {PureStrategy.of([1]), PureStrategy.of([2])}
    assert res.chosen == PureStrategy.of([2])
    assert res.leader_value == pytest.approx(1.0, abs=1e-12)
    assert res.follower_value == pytest.approx(1.0, abs=1e-12)


def test_best_response_no_pure_optimum_third_medium(no_pure_optimum):
    assert best_response(no_pure_optimum, point([2])).leader_value == pytest.approx(0.599, abs=1e-12)


def test_best_response_matches_enumeration_oracle():
    rng = np.random.default_rng(101)
    for _ in range(30):
        game = random_game(rng, n_max=5, m_max=6)
        subsets = oracles.subsets_up_to(game.n, game.k_L)
        picks = [subsets[int(rng.integers(len(subsets)))] for _ in range(2)]
        w = float(rng.uniform(0.2, 0.8))
        weights = {}
        for s, wi in zip(picks, (w, 1 - w)):
            weights[s] = weights.get(s, 0.0) + wi
        x = MixedStrategy({PureStrategy.of(s): wi for s, wi in weights.items()})
        assert best_response(game, x).leader_value == pytest.approx(
            oracles.best_response_value(game, weights), abs=1e-9)


def test_optimistic_consistency():
    rng = np.random.default_rng(102)
    for _ in range(30):
        game = random_game(rng)
        z = tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                    replace=False).tolist()))
        res = best_response(game, point(z))
        f_over_responses = [oracles.f_mixed(game, {z: 1.0}, y.media) for y in res.responses]
        assert res.leader_value == pytest.approx(max(f_over_responses), abs=1e-9)
        assert res.chosen in res.responses
        for y in res.responses:
            assert oracles.g_mixed(game, {z: 1.0}, y.media) >= res.follower_value - 1e-9


def test_surrogate_preserves_best_response_sets():
    rng = np.random.default_rng(103)
    for _ in range(40):
        game = random_game(rng, n_max=5, m_max=6)
        z = tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                    replace=False).tolist()))
        strategies = enumerate_follower(game)
        brs = set(best_response(game, point(z)).responses)
        phi_vals = np.array([oracles.phi(game, {z: 1.0}, y.media) for y in strategies])
        phi_mins = {strategies[i] for i in np.nonzero(phi_vals <= phi_vals.min() + 1e-9)[0]}
        assert brs == phi_mins


def test_follower_value_monotone_in_response_size():
    rng = np.random.default_rng(104)
    for _ in range(25):
        game = random_game(rng, n_max=5)
        if game.k_F == 0:
            continue
        x = point(tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                          replace=False).tolist())))
        oracle = follower_oracle(game)
        strategies = oracle.strategies
        _, g = oracle.utilities(mixed_activation_vector(game, x))
        values = {y.media: float(gy) for y, gy in zip(strategies, g[0])}
        for y in strategies:
            for bigger in strategies:
                if set(y.media) <= set(bigger.media):
                    assert values[y.media] <= values[bigger.media] + 1e-12
        best = max(values.values())
        full_sized = [v for y, v in values.items() if len(y) == min(game.k_F, game.n)]
        assert max(full_sized) >= best - 1e-9


def test_oracle_evaluation_count(monkeypatch, no_pure_optimum):
    oracle = follower_oracle(no_pure_optimum)
    scored = count_scored_rows(monkeypatch, oracle)
    best_response(no_pure_optimum, point([0]))
    assert scored[0] == 1  # one activation row per f_BR call


def test_oracle_is_shared_per_instance(no_pure_optimum):
    assert follower_oracle(no_pure_optimum) is follower_oracle(no_pure_optimum)


def test_every_engine_reads_the_cached_oracle(monkeypatch, no_pure_optimum, private_customers):
    # Each game's oracle is built once, however many engines and scorers
    # read it: none of them builds or keeps one of its own.
    built = []
    init = FollowerOracle.__init__

    def counting(self, game):
        built.append(game)
        init(self, game)

    monkeypatch.setattr(FollowerOracle, "__init__", counting)
    game = no_pure_optimum
    greedy_weighted_submodular(game, np.full(4, 0.25))
    x, _ = solve_mwu(game, MwuConfig(iterations=5))
    certify(game, x)
    solve_heuristic(game, 3)
    best_response(game, x)
    solve_multi_lp(game)
    solve_disjoint_lp(private_customers)
    assert len(built) == 2 and built[0] is game and built[1] is private_customers


def test_the_oracle_holds_only_the_followers_tables(private_customers):
    # Every table an engine derives lives for its own run; the shared
    # oracle keeps the follower's two tables, C once MWU or certify reads
    # it, and the last single row it scored with one (1, |D_F|) pair.
    game = private_customers
    oracle = follower_oracle(game)
    tables = {"strategies", "activation", "recapture", "_last"}

    def holds_one_row():
        activation, recapture, key, f, g = oracle._last
        assert activation is oracle.activation and recapture is oracle.recapture
        assert len(key) == game.m * 8 and f.shape == g.shape == (1, len(oracle))

    greedy_baseline(game)
    greedy_weighted_submodular(game, np.ones(len(oracle)))
    solve_heuristic(game, 3)
    solve_multi_lp(game)
    solve_disjoint_lp(game)
    best_response(game, point([0]))
    assert vars(oracle).keys() == tables
    holds_one_row()
    certify(game, point([0]))
    assert vars(oracle).keys() == tables | {"C"}
    assert oracle.C == float(oracle.activation.sum(axis=1).max())
    del oracle.C
    solve_mwu(game, MwuConfig(iterations=5))
    assert vars(oracle).keys() == tables | {"C"}
    holds_one_row()


def _same_bits(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_a_single_row_is_scored_fresh_or_returned_as_scored(monkeypatch):
    # Every single-row answer is payoff.utilities bit for bit and
    # read-only; only a repeat of the last row's bytes skips the product,
    # whatever form the row comes in.
    game = generate_instance(6, 40, 3.0, (0, 0.4), (0.1, 0.9), seed=3, k_F=2)
    oracle = follower_oracle(game)
    rng = np.random.default_rng(5)
    a, b, zero = rng.uniform(size=game.m), rng.uniform(size=game.m), np.zeros(game.m)
    calls = [(a, 1), (a, 0), (a[None, :], 0), (list(a), 0), (b, 1), (a, 1), (a.copy(), 0),
             (zero, 1), (-zero, 1), (zero, 1)]  # -0.0 has other bytes than +0.0
    products = record_products(monkeypatch)
    for row, scored in calls:
        before = len(products)
        f, g = oracle.utilities(row)
        assert len(products) - before == scored
        assert _same_bits((f, g), utilities(row, oracle.activation, oracle.recapture))
        for table in (f, g):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 5.0


def test_stacked_rows_bypass_the_memo(monkeypatch):
    game = generate_instance(6, 40, 3.0, (0, 0.4), (0.1, 0.9), seed=3, k_F=2)
    oracle = follower_oracle(game)
    rng = np.random.default_rng(6)
    stack = rng.uniform(size=(2, game.m))
    last = oracle.utilities(stack[0])
    products = record_products(monkeypatch)
    for _ in range(2):
        f, g = oracle.utilities(stack)
        assert f.flags.writeable and g.flags.writeable
        assert _same_bits((f, g), utilities(stack, oracle.activation, oracle.recapture))
    assert len(products) == 4
    # Neither stacked call replaced the single row scored before them.
    assert all(x is y for x, y in zip(oracle.utilities(stack[:1]), last))
    assert len(products) == 4


def test_a_rebound_table_is_never_served_a_stale_row(monkeypatch):
    game = generate_instance(6, 40, 3.0, (0, 0.4), (0.1, 0.9), seed=3, k_F=2)
    oracle = follower_oracle(game)
    pvx = np.random.default_rng(7).uniform(size=game.m)
    for name in ("recapture", "activation"):
        before = oracle.utilities(pvx)
        monkeypatch.setattr(oracle, name, getattr(oracle, name) * 0.5)
        after = oracle.utilities(pvx)
        assert _same_bits(after, utilities(pvx, oracle.activation, oracle.recapture))
        assert not _same_bits(after, before)


@pytest.mark.parametrize("medium", [-1, 5])
def test_best_response_rejects_a_medium_out_of_range(medium):
    # -1 used to index p_table's last row and score the mix as if on {u4}.
    game = generate_instance(5, 20, 2.0, (0, 0.2), (0.1, 0.9), seed=0)
    with pytest.raises(ValueError, match=rf"^medium {medium} is out of range for a game "
                                         r"of n=5 media$"):
        best_response(game, point([medium]))


def test_oracle_tables_are_two_slabs_of_one_read_only_block():
    game = generate_instance(6, 40, 3.0, (0, 0.4), (0.1, 0.9), seed=3, k_F=2)
    oracle = follower_oracle(game)
    block = oracle.activation.base
    assert block is oracle.recapture.base and block.shape == (2, len(oracle), game.m)
    assert np.shares_memory(block, oracle.activation) and np.shares_memory(block, oracle.recapture)
    expected = (activation_rows(game, game.k_F), activation_rows(game, game.k_F, game.pf_table))
    for table, rows in zip((oracle.activation, oracle.recapture), expected):
        assert table.flags.c_contiguous and not table.flags.writeable
        assert np.array_equal(table, rows)


def test_an_oracle_block_is_freed_without_a_gc_pass():
    # A reference cycle in the table build would keep the whole block alive
    # until the collector's next pass.
    game = generate_instance(6, 40, 3.0, (0, 0.4), (0.1, 0.9), seed=3, k_F=2)
    gc.disable()
    try:
        oracle = FollowerOracle(game)
        block = weakref.ref(oracle.activation.base)
        del oracle
        assert block() is None
    finally:
        gc.enable()


def test_oracle_tables_reject_in_place_writes():
    # A write used to succeed and corrupt every later best response on the
    # game: the oracle is shared through the per-game cache.
    game = generate_instance(6, 40, 3.0, (0, 0.4), (0.1, 0.9), seed=3, k_F=2)
    oracle = follower_oracle(game)
    before = best_response(game, point([0])).follower_value
    for table in (oracle.activation, oracle.recapture):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            table += 1.0
    assert best_response(game, point([0])).follower_value == before


def test_oracle_best_response_takes_one_activation_row(monkeypatch, no_pure_optimum):
    oracle = follower_oracle(no_pure_optimum)
    pvx = mixed_activation_vector(no_pure_optimum, point([0]))
    assert oracle.best_response(pvx[None, :]) == oracle.best_response(pvx)
    products = record_products(monkeypatch)
    for rows in (np.stack([pvx, np.zeros_like(pvx)]), np.empty((0, pvx.size))):
        with pytest.raises(ValueError, match=rf"^best_response takes one activation vector, "
                                             rf"not {len(rows)} rows$"):
            oracle.best_response(rows)
    assert products == []  # rejected before any product


@pytest.mark.parametrize("shape", [(1, 2, 22), (2, 2, 22), (21,), (1, 21), (1, 23), ()])
def test_oracle_rejects_activations_of_the_wrong_shape(monkeypatch, shape):
    # m = |D_F| = 22 here: a (1, 2, m) stack used to return (1, 2, |D_F|)
    # tables with f summed over the wrong axis, and best_response on it
    # ended in a TypeError.
    game = generate_instance(6, 22, 3.0, (0, 0.4), (0.1, 0.9), seed=3, k_F=2)
    oracle = follower_oracle(game)
    assert len(oracle) == game.m
    pvx = np.full(shape, 0.5)
    products = record_products(monkeypatch)
    message = rf"^leader activations must be one row or a stack of rows of 22 entries, " \
              rf"not of shape {re.escape(str(shape))}$"
    for score in (oracle.utilities, oracle.best_response_values, oracle.best_response):
        with pytest.raises(ValueError, match=message):
            score(pvx)
    assert products == []  # rejected before any product


def test_oracle_cache_frees_solved_games():
    rng = np.random.default_rng(12)
    refs = []
    for _ in range(10):
        game = random_game(rng)
        best_response(game, point([]))
        refs.append(weakref.ref(game))
    del game
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_tables_die_with_their_run_and_the_oracle_with_the_game(monkeypatch):
    # Each engine run's prefix tables go when the run returns, and the
    # oracle when the game goes, by reference counting alone: a reference
    # cycle would keep them until the collector ran, and tables kept on
    # the oracle would pile up over repeated solves of one game.
    stores = []
    init = PrefixTables.__init__

    def recording(tables, *args):
        init(tables, *args)
        stores.append(weakref.ref(tables))

    monkeypatch.setattr(PrefixTables, "__init__", recording)
    game = generate_instance(6, 40, 3.0, (0, 0.4), (0.1, 0.9), seed=3, k_L=2, k_F=2)
    weights = np.ones(len(follower_oracle(game)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for run in (lambda: solve_mwu(game, MwuConfig(iterations=20)),
                    lambda: solve_heuristic(game, 3),
                    lambda: greedy_weighted_submodular(game, weights),
                    lambda: greedy_baseline(game)):
            run()
            assert all(ref() is None for ref in stores)
        assert len(stores) == 3  # one per MWU, heuristic and greedy call; none for the baseline
        oracle = weakref.ref(follower_oracle(game))
        del game
        assert oracle() is None
    finally:
        if enabled:
            gc.enable()
