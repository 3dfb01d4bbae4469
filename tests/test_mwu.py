import math

import numpy as np
import pytest

from stackalloc import (BipartiteInfluenceGame, FollowerOracle, MixedStrategy,
                        MwuConfig, PureStrategy, activation_vector, best_response,
                        certify, enumerate_follower, follower_oracle,
                        generate_instance, greedy_weighted_submodular, phi,
                        phi_constant, solve_multi_lp, solve_mwu, utilities_mixed)
from stackalloc import mwu as mwu_mod
from stackalloc.lp import LpNumericsError

import oracles
from conftest import random_game


def brute_force_weighted_value(game, weights, z):
    strategies = oracles.subsets_up_to(game.n, game.k_F)
    C = max(sum(oracles.activation(game, v, y) for v in range(game.m))
            for y in strategies)
    total = 0.0
    for w, y in zip(weights, strategies):
        val = (oracles.f_pure(game, z, y)
               - sum((1 - oracles.activation(game, v, z)) * oracles.activation(game, v, y)
                     for v in range(game.m)))
        total += w * (val + C)
    return total


def test_greedy_uniform_weights_no_pure_optimum(no_pure_optimum):
    weights = np.full(4, 0.25)
    z = greedy_weighted_submodular(no_pure_optimum, weights, budget=1)
    assert z == PureStrategy.of([0])  # tied with the second medium, lower index wins
    best = max(brute_force_weighted_value(no_pure_optimum, weights, s)
               for s in oracles.subsets_up_to(no_pure_optimum.n, no_pure_optimum.k_L))
    assert brute_force_weighted_value(no_pure_optimum, weights, tuple(z.media)) == pytest.approx(
        best, abs=1e-12)


def test_greedy_concentrated_on_empty_response(no_pure_optimum):
    weights = np.array([1.0, 0.0, 0.0, 0.0])  # all mass on the empty strategy
    z = greedy_weighted_submodular(no_pure_optimum, weights, budget=1)
    # h_empty(z) = sum_v P_v(z) + C: plain budget allocation greedy
    sums = {u: sum(no_pure_optimum.p[(a, v)] for a, v in no_pure_optimum.edges if a == u) for u in range(3)}
    assert z == PureStrategy.of([max(sums, key=lambda u: (sums[u], -u))])


def test_greedy_zero_budget(no_pure_optimum):
    weights = np.full(4, 0.25)
    assert greedy_weighted_submodular(no_pure_optimum, weights, budget=0) == PureStrategy.empty()


def test_greedy_rejects_bad_weights(no_pure_optimum):
    with pytest.raises(ValueError):
        greedy_weighted_submodular(no_pure_optimum, np.zeros(4), budget=1)
    with pytest.raises(ValueError):
        greedy_weighted_submodular(no_pure_optimum, np.array([1.0, -0.5, 0.0, 0.0]), budget=1)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            greedy_weighted_submodular(no_pure_optimum, np.array([bad, 0.0, 0.0, 0.0]),
                                       budget=1)


def test_greedy_huge_weights_act_like_uniform_weights():
    # Seven weights of 1e308 overflowed a plain sum to inf, and the kernel
    # returned the empty strategy.
    game = generate_instance(6, 30, 3.0, (0.0, 0.5), (0.0, 0.5), seed=4, k_L=2, k_F=1)
    oracle = follower_oracle(game)
    assert len(oracle) == 7
    uniform = greedy_weighted_submodular(game, np.full(7, 1.0 / 7), game.k_L, oracle)
    assert len(uniform) == 2
    assert greedy_weighted_submodular(game, np.full(7, 1e308), game.k_L, oracle) == uniform


def _differential_games(seed, count):
    """Random games with continuous and with one-decimal probabilities."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield rng, random_game(rng, n_max=7, m_max=10, kl_max=3, kf_max=3,
                               decimals=None if i % 2 else 1)


def test_greedy_matches_edge_list_reference():
    for rng, game in _differential_games(612, 120):
        oracle = follower_oracle(game)
        for _ in range(3):
            w = rng.dirichlet(np.ones(len(oracle))) * (rng.uniform(size=len(oracle)) < 0.8)
            if not w.any():
                continue
            assert (greedy_weighted_submodular(game, w, game.k_L, oracle)
                    == oracles.greedy_weighted_edges(game, w, game.k_L, oracle))


def test_greedy_on_warm_tables_equals_a_fresh_call():
    for rng, game in _differential_games(613, 60):
        oracle = follower_oracle(game)
        tables = mwu_mod.PrefixTables(game, oracle)
        for _ in range(8):
            w = rng.dirichlet(np.full(len(oracle), 0.3))
            warm = greedy_weighted_submodular(game, w, game.k_L, oracle, tables)
            assert warm == greedy_weighted_submodular(game, w, game.k_L, oracle)
        for prefix in list(tables._tables):
            fresh_r, fresh_pg = mwu_mod.PrefixTables(game, oracle).get(prefix)
            r, pg = tables.get(prefix)
            assert np.array_equal(r, fresh_r) and np.array_equal(pg, fresh_pg)


def test_solve_mwu_matches_edge_list_reference(monkeypatch):
    # Only the greedy's choices feed the rest of the run, so every output
    # must agree exactly, not just to rounding.
    runs = []
    for rng, game in _differential_games(614, 80):
        config = MwuConfig(iterations=int(rng.integers(1, 60)),
                           learning_rate=["auto", 0.3, 3.0, 30.0][int(rng.integers(4))])
        runs.append((game, config, solve_mwu(game, config)))
    monkeypatch.setattr(mwu_mod, "greedy_weighted_submodular",
                        lambda game, w, budget, oracle, tables:
                        oracles.greedy_weighted_edges(game, w, budget, oracle))
    for game, config, (x, br, cert) in runs:
        ref_x, ref_br, ref_cert = solve_mwu(game, config)
        assert x.weights == ref_x.weights
        assert br == ref_br
        assert cert == ref_cert


def test_greedy_guarantee_against_brute_force():
    rng = np.random.default_rng(606)
    ratio = 1 - 1 / math.e
    for _ in range(20):
        game = random_game(rng, n_max=6, m_max=8)
        strategies = enumerate_follower(game)
        w = rng.dirichlet(np.ones(len(strategies)))
        z = greedy_weighted_submodular(game, w, game.k_L)
        achieved = brute_force_weighted_value(game, w, tuple(z.media))
        best = max(brute_force_weighted_value(game, w, s)
                   for s in oracles.subsets_up_to(game.n, game.k_L))
        assert achieved >= ratio * best - 1e-9


def test_surrogate_losses_bounded():
    rng = np.random.default_rng(707)
    for _ in range(30):
        game = random_game(rng, n_max=5, m_max=6)
        C = phi_constant(game)
        bound = game.m + C
        for y in oracles.subsets_up_to(game.n, game.k_F):
            for z in oracles.subsets_up_to(game.n, game.k_L):
                h = phi(game, MixedStrategy.point_mass(PureStrategy.of(z)),
                        PureStrategy.of(y)) + C
                assert -1e-9 <= h <= bound + 1e-9


def test_surrogate_losses_match_phi():
    # The losses use the oracle's gain table (one product); phi evaluates
    # g from the activation and recapture vectors directly.
    rng = np.random.default_rng(709)
    for _ in range(30):
        game = random_game(rng, n_max=6, m_max=8, kf_max=3)
        oracle = follower_oracle(game)
        C = phi_constant(game)
        for z in oracles.subsets_up_to(game.n, game.k_L):
            z = PureStrategy.of(z)
            h = mwu_mod._surrogate_losses(oracle, activation_vector(game, z), C)
            expected = [phi(game, z, y) + C for y in oracle.strategies]
            np.testing.assert_allclose(h, expected, rtol=0.0, atol=1e-12)


def test_surrogate_losses_monotone_submodular():
    rng = np.random.default_rng(708)
    checked = 0
    while checked < 40:
        game = random_game(rng, n_max=6, m_max=6)
        if game.n < 2:
            continue
        C = phi_constant(game)
        y = PureStrategy.of(oracles.subsets_up_to(game.n, game.k_F)[-1])

        def h(z_set):
            return phi(game, MixedStrategy.point_mass(PureStrategy.of(z_set)), y) + C

        perm = [int(u) for u in rng.permutation(game.n)]
        u = perm[0]
        small = set(perm[1:2])
        big = set(perm[1:3]) if game.n > 2 else set(perm[1:2])
        gain_small = h(small | {u}) - h(small)
        gain_big = h(big | {u}) - h(big)
        assert gain_small >= gain_big - 1e-12
        assert gain_big >= -1e-12
        checked += 1


def test_solve_mwu_no_pure_optimum_beats_committing_to_third_medium(no_pure_optimum):
    x, br, cert = solve_mwu(no_pure_optimum, MwuConfig(iterations=200))
    assert br.leader_value >= 0.599 - 1e-9
    assert cert.epsilon1 >= 0.0 and cert.C == pytest.approx(1.1, abs=1e-12)
    assert cert.alpha == pytest.approx(1 - 1 / math.e - 0.5, abs=1e-15)
    # the returned response really is a best response
    check = best_response(no_pure_optimum, x)
    assert check.follower_value == pytest.approx(br.follower_value, abs=1e-12)


def test_solve_mwu_single_iteration_is_point_mass(no_pure_optimum):
    x, _, _ = solve_mwu(no_pure_optimum, MwuConfig(iterations=1))
    assert len(x.weights) == 1
    assert list(x.weights.values()) == [1.0]


def test_solve_mwu_no_follower_reduces_to_greedy():
    rng = np.random.default_rng(808)
    ratio = 1 - 1 / math.e
    for _ in range(10):
        game = random_game(rng, n_max=6, m_max=8, kf_max=0)
        x, br, cert = solve_mwu(game, MwuConfig(iterations=5))
        opt = oracles.best_pure_leader_value(game)
        assert br.leader_value >= ratio * opt - 1e-9
        assert cert.epsilon1 == pytest.approx(0.0, abs=1e-12)
        assert cert.C == pytest.approx(0.0, abs=1e-12)


def test_solve_mwu_deterministic(no_pure_optimum):
    a = solve_mwu(no_pure_optimum, MwuConfig(iterations=50))
    b = solve_mwu(no_pure_optimum, MwuConfig(iterations=50))
    assert a[0].weights == b[0].weights
    assert a[2] == b[2]


def test_certify_requires_best_response(no_pure_optimum):
    x = MixedStrategy.point_mass(PureStrategy.of([0]))
    with pytest.raises(ValueError, match="best response"):
        certify(no_pure_optimum, x, PureStrategy.of([0]))  # responding {u1} is not optimal


def test_certify_exact_solution_passes_its_own_bound(no_pure_optimum):
    res = solve_multi_lp(no_pure_optimum)
    cert = certify(no_pure_optimum, res.leader, res.follower,
                   exact=(res.leader, res.follower), epsilon=0.5)
    assert cert.bound_holds
    assert cert.opt_value == pytest.approx(1.1, abs=1e-9)
    assert cert.epsilon2 == pytest.approx(cert.epsilon1, abs=1e-12)
    assert cert.beta == pytest.approx(
        (1 - 1 / math.e) * cert.epsilon2 - cert.epsilon1 + (1 / math.e + 0.5) * cert.C,
        abs=1e-12)


def test_certify_zero_follower_budget_collapses_translation_terms():
    rng = np.random.default_rng(909)
    game = random_game(rng, n_max=5, m_max=6, kf_max=0)
    res = solve_multi_lp(game)
    cert = certify(game, res.leader, res.follower, exact=(res.leader, res.follower))
    assert cert.epsilon1 == 0.0 and cert.epsilon2 == 0.0 and cert.C == 0.0
    assert cert.beta == pytest.approx(0.0, abs=1e-12)


def test_mwu_config_validation():
    with pytest.raises(ValueError):
        MwuConfig(iterations=0)
    with pytest.raises(ValueError):
        MwuConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        MwuConfig(learning_rate=-0.1)
    assert MwuConfig(iterations=np.int64(7), learning_rate=3).iterations == 7


@pytest.mark.parametrize("kwargs", [dict(iterations=1.5), dict(iterations=True),
                                    dict(learning_rate=math.inf)],
                         ids=["fractional-iterations", "bool-iterations", "infinite-rate"])
def test_mwu_config_rejects_at_construction(kwargs):
    # Each used to pass construction and fail later: range(1.5) raised
    # TypeError in solve_mwu, True ran one round, and an infinite rate
    # surfaced only as "weights vanished".
    with pytest.raises(ValueError):
        MwuConfig(**kwargs)


def test_solve_mwu_tolerates_weights_that_underflow_to_zero(private_customers):
    # At this rate some follower weights underflow to exactly 0 mid-run;
    # the greedy accepts nonnegative weights, so the run completes.
    x, br, _ = solve_mwu(private_customers, MwuConfig(iterations=10, learning_rate=1e3))
    assert x.max_support_size() <= private_customers.k_L
    assert br.chosen in enumerate_follower(private_customers)


def test_solve_mwu_rejects_a_learning_rate_that_kills_every_weight():
    game = generate_instance(20, 844, 3506 / 844, (0.0, 1.0), (0.1, 0.9), seed=0,
                             k_L=2, k_F=2)
    with pytest.raises(ValueError, match="learning rate 10000"):
        solve_mwu(game, MwuConfig(iterations=20, learning_rate=1e4))


def test_solve_mwu_rejects_non_finite_weights(no_pure_optimum, monkeypatch):
    monkeypatch.setattr(mwu_mod, "_surrogate_losses",
                        lambda oracle, pvz, C: np.full(len(oracle), -np.inf))
    with pytest.raises(ValueError, match="vanished or overflowed"):
        solve_mwu(no_pure_optimum, MwuConfig(iterations=3))


def test_greedy_negative_marginal_is_a_numerics_error(no_pure_optimum):
    oracle = FollowerOracle(no_pure_optimum)
    oracle.gain = np.full_like(oracle.gain, -2.0)  # c_v = 1 - 2 < 0: not monotone
    with pytest.raises(LpNumericsError, match="negative marginal"):
        greedy_weighted_submodular(no_pure_optimum, np.full(4, 0.25), budget=1,
                                   oracle=oracle)
