import numpy as np
import pytest

from stackalloc import (BipartiteInfluenceGame, MixedStrategy, PureStrategy,
                        best_response_value, follower_oracle, greedy_baseline,
                        solve_heuristic)
from stackalloc import heuristic as heuristic_mod

import oracles
from conftest import random_game


def reference_pure_greedy(game):
    """Round one of the fictitious play, spelled out: grow a pure strategy
    by best-response value (ties to the smallest index).  The acceptance
    threshold is the empty mix's value, zero, so every step is kept."""
    selected = []
    for _ in range(min(game.k_L, game.n)):
        best_u, best_val = None, -1.0
        for u in range(game.n):
            if u in selected:
                continue
            val = best_response_value(
                game, MixedStrategy.point_mass(PureStrategy.of(selected + [u])))
            if val > best_val:
                best_u, best_val = u, val
        selected.append(best_u)
    final = PureStrategy.of(selected)
    value = best_response_value(game, MixedStrategy.point_mass(final))
    return (final, value) if value > 0.0 else (PureStrategy.empty(), 0.0)


def test_ell_one_collapses_to_pure_greedy():
    rng = np.random.default_rng(111)
    for _ in range(50):
        game = random_game(rng, n_max=6, m_max=8)
        x, br = solve_heuristic(game, ell=1)
        ref_strategy, ref_value = reference_pure_greedy(game)
        assert list(x.weights) == [ref_strategy]
        assert x.weights[ref_strategy] == 1.0
        assert br.leader_value == pytest.approx(ref_value, abs=1e-12)
        # and the value is what exhaustive enumeration says it is
        assert br.leader_value == pytest.approx(
            oracles.best_response_value(game, {tuple(ref_strategy.media): 1.0}),
            abs=1e-9)


def test_overfunding_trap_round_one_fills_the_budget_and_keeps_empty(overfunding_trap):
    # Trace of round one: the greedy adds media 0 then 1 (blended value 1.0)
    # and then 2, because every candidate passes the acceptance test
    # against the previous round's mix, whose value is 0.  Funding all
    # three is worth 0, so the running best stays the empty mix.
    x, br = solve_heuristic(overfunding_trap, ell=1)
    assert list(x.weights) == [PureStrategy.empty()]
    assert br.leader_value == 0.0


def test_no_pure_optimum_more_rounds_reach_the_mixed_optimum(no_pure_optimum):
    x, br = solve_heuristic(no_pure_optimum, ell=10)
    assert 0.6 - 1e-9 <= br.leader_value <= 1.1 + 1e-9
    assert len(x.weights) <= 10
    assert all(len(s) <= no_pure_optimum.k_L for s in x.weights)


def test_running_max_never_regressed():
    rng = np.random.default_rng(222)
    for _ in range(15):
        game = random_game(rng, n_max=5, m_max=6)
        values = [solve_heuristic(game, ell)[1].leader_value for ell in (1, 3, 6)]
        # the returned mix is the best round, never the raw last iterate;
        # re-scoring it from scratch reproduces the reported value
        for ell, val in zip((1, 3, 6), values):
            x, br = solve_heuristic(game, ell)
            assert best_response_value(game, x) == pytest.approx(val, abs=1e-12)


def test_support_bounds_and_budget():
    rng = np.random.default_rng(333)
    for _ in range(15):
        game = random_game(rng, n_max=6, m_max=8)
        ell = int(rng.integers(1, 7))
        x, _ = solve_heuristic(game, ell)
        assert len(x.weights) <= ell
        assert all(len(s) <= game.k_L for s in x.weights)


def test_evaluation_count_scales_with_budget_and_rounds():
    rng = np.random.default_rng(444)
    game = random_game(rng, n_max=6, m_max=8, kl_max=3)
    oracle = follower_oracle(game)
    ell = 4
    before = oracle.evaluations
    solve_heuristic(game, ell, oracle=oracle)
    used = oracle.evaluations - before
    # n candidates per greedy step, k_L steps, ell rounds, plus one
    # round-end score each round and the final re-verification
    assert used <= game.n * game.k_L * ell + 2 * ell + 2


def _with_round_picks(monkeypatch, module, run):
    """Call ``run`` and also return every round's media in the order the
    greedy accepted them, read where ``module`` builds the round's pure
    strategy."""
    picks = []

    class Recorder:
        empty = staticmethod(PureStrategy.empty)

        @staticmethod
        def of(media):
            picks.append(tuple(media))
            return PureStrategy.of(media)

    with monkeypatch.context() as patch:
        patch.setattr(module, "PureStrategy", Recorder)
        return run(), picks


def test_heuristic_matches_blended_reference(monkeypatch):
    # The split scores sum in another order than the blended rows, so
    # values agree to rounding; ties exact in decimal arithmetic (the
    # one-decimal games) may then fall to another candidate of equal value.
    rng = np.random.default_rng(446)
    for i in range(120):
        continuous = i % 2 == 1
        game = random_game(rng, n_max=7, m_max=10, kl_max=3, kf_max=3,
                           decimals=None if continuous else 1)
        oracle = follower_oracle(game)
        ell = int(rng.integers(1, 12))
        (x, br), picks = _with_round_picks(
            monkeypatch, heuristic_mod, lambda: solve_heuristic(game, ell, oracle))
        (ref_x, ref_br), ref_picks = _with_round_picks(
            monkeypatch, oracles, lambda: oracles.solve_heuristic_blended(game, ell, oracle))
        assert br.leader_value == pytest.approx(ref_br.leader_value, abs=1e-12)
        if continuous:
            assert picks == ref_picks  # every accept and reject decision
            assert x.weights == ref_x.weights
            assert br.responses == ref_br.responses and br.chosen == ref_br.chosen


def test_heuristic_scores_each_prefix_once(no_pure_optimum):
    # With k_L = 1 every round's greedy starts from, and stops after, the
    # empty prefix: its n candidate rows are scored once, not once per
    # round.  Add the initial mix, one round-end mix per round and the
    # final re-verification.
    oracle = follower_oracle(no_pure_optimum)
    ell = 10
    before = oracle.evaluations
    solve_heuristic(no_pure_optimum, ell, oracle=oracle)
    assert oracle.evaluations - before == no_pure_optimum.n + 1 + ell + 1


def test_heuristic_rejects_bad_ell(no_pure_optimum):
    with pytest.raises(ValueError):
        solve_heuristic(no_pure_optimum, 0)
    for ell in (2.5, True, "3"):
        with pytest.raises(ValueError, match="ell must be an integer"):
            solve_heuristic(no_pure_optimum, ell)
    assert solve_heuristic(no_pure_optimum, np.int64(3))[1] == solve_heuristic(no_pure_optimum, 3)[1]


def test_greedy_baseline_overfunding_trap(overfunding_trap):
    z, br = greedy_baseline(overfunding_trap)
    assert z == PureStrategy.of([0, 1, 2])  # fills the whole budget
    assert br.leader_value == 0.0


def test_greedy_baseline_zero_budget():
    game = BipartiteInfluenceGame.build(3, 2, [(0, 0, 0.5, 0.5), (1, 1, 0.5, 0.5)],
                                        k_L=0, k_F=1)
    z, br = greedy_baseline(game)
    assert z == PureStrategy.empty()
    assert br.leader_value == 0.0


def test_greedy_baseline_picks_most_covered_media():
    # disjoint, equal probabilities: media are ranked by customer count
    rows = [(0, v, 0.4, 0.1) for v in range(4)]
    rows += [(1, v, 0.4, 0.1) for v in range(4, 6)]
    rows += [(2, v, 0.4, 0.1) for v in range(6, 9)]
    game = BipartiteInfluenceGame.build(3, 9, rows, k_L=2, k_F=1)
    z, _ = greedy_baseline(game)
    assert z == PureStrategy.of([0, 2])


def test_greedy_baseline_maximizes_activation_sum():
    rng = np.random.default_rng(555)
    for _ in range(20):
        game = random_game(rng, n_max=6, m_max=8)
        z, _ = greedy_baseline(game)
        assert len(z) == min(game.k_L, game.n)
        achieved = sum(oracles.activation(game, v, z.media) for v in range(game.m))
        best = max(sum(oracles.activation(game, v, s) for v in range(game.m))
                   for s in oracles.subsets_up_to(game.n, game.k_L))
        assert achieved >= (1 - 1 / np.e) * best - 1e-9
