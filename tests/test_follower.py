import gc
import math
import weakref

import numpy as np
import pytest

from stackalloc import (CapExceededError, MixedStrategy, PureStrategy,
                        best_response, best_response_value, enumerate_follower,
                        follower_oracle, phi, utilities_mixed)
from stackalloc.model import BipartiteInfluenceGame

import oracles
from conftest import random_game


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
    game = BipartiteInfluenceGame.build(30, 1, [(0, 0, 0.5, 0.5)], 1, 5)
    with pytest.raises(CapExceededError, match="k_F"):
        enumerate_follower(game, cap=1000)


def test_cached_oracle_still_honours_the_cap():
    game = BipartiteInfluenceGame.build(10, 1, [(0, 0, 0.5, 0.5)], 1, 3)
    assert len(follower_oracle(game)) == 176
    with pytest.raises(CapExceededError) as direct:
        enumerate_follower(game, cap=10)
    with pytest.raises(CapExceededError) as cached:
        follower_oracle(game, cap=10)
    assert str(cached.value) == str(direct.value)
    assert len(follower_oracle(game, cap=176)) == 176


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
    assert best_response_value(no_pure_optimum, point([2])) == pytest.approx(0.599, abs=1e-12)


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
        assert best_response_value(game, x) == pytest.approx(
            oracles.best_response_value(game, weights), abs=1e-9)


def test_optimistic_consistency():
    rng = np.random.default_rng(102)
    for _ in range(30):
        game = random_game(rng)
        z = tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                    replace=False).tolist()))
        x = point(z)
        res = best_response(game, x)
        f_over_responses = [utilities_mixed(game, x, y).leader for y in res.responses]
        assert res.leader_value == pytest.approx(max(f_over_responses), abs=1e-9)
        assert res.chosen in res.responses
        for y in res.responses:
            assert utilities_mixed(game, x, y).follower >= res.follower_value - 1e-9


def test_surrogate_preserves_best_response_sets():
    rng = np.random.default_rng(103)
    for _ in range(40):
        game = random_game(rng, n_max=5, m_max=6)
        z = tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                    replace=False).tolist()))
        x = point(z)
        strategies = enumerate_follower(game)
        g_vals = np.array([utilities_mixed(game, x, y).follower for y in strategies])
        phi_vals = np.array([phi(game, x, y) for y in strategies])
        brs = set(np.nonzero(g_vals >= g_vals.max() - 1e-9)[0].tolist())
        phi_mins = set(np.nonzero(phi_vals <= phi_vals.min() + 1e-9)[0].tolist())
        assert brs == phi_mins


def test_follower_value_monotone_in_response_size():
    rng = np.random.default_rng(104)
    for _ in range(25):
        game = random_game(rng, n_max=5)
        if game.k_F == 0:
            continue
        x = point(tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                          replace=False).tolist())))
        strategies = enumerate_follower(game)
        values = {y.media: utilities_mixed(game, x, y).follower for y in strategies}
        for y in strategies:
            for bigger in strategies:
                if set(y.media) <= set(bigger.media):
                    assert values[y.media] <= values[bigger.media] + 1e-12
        best = max(values.values())
        full_sized = [v for y, v in values.items() if len(y) == min(game.k_F, game.n)]
        assert max(full_sized) >= best - 1e-9


def test_oracle_evaluation_count(no_pure_optimum):
    oracle = follower_oracle(no_pure_optimum)
    before = oracle.evaluations
    best_response(no_pure_optimum, point([0]), oracle=oracle)
    assert oracle.evaluations == before + 1  # one activation row per f_BR call


def test_oracle_is_shared_per_instance(no_pure_optimum):
    assert follower_oracle(no_pure_optimum) is follower_oracle(no_pure_optimum)


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
