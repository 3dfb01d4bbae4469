import math

import numpy as np
import pytest

from stackalloc import (BipartiteInfluenceGame, MixedStrategy, MwuConfig,
                        PureStrategy, activation_vector, best_response, certify,
                        enumerate_follower, follower_oracle, generate_instance,
                        greedy_weighted_submodular, solve_multi_lp, solve_mwu)
from stackalloc import mwu as mwu_mod
from stackalloc.lp import LpNumericsError
from stackalloc.payoff import PrefixTables

import oracles
from conftest import random_game


def brute_force_weighted_value(game, weights, z):
    strategies = oracles.subsets_up_to(game.n, game.k_F)
    C = oracles.phi_constant(game)
    total = 0.0
    for w, y in zip(weights, strategies):
        val = (oracles.f_pure(game, z, y)
               - sum((1 - oracles.activation(game, v, z)) * oracles.activation(game, v, y)
                     for v in range(game.m)))
        total += w * (val + C)
    return total


def test_greedy_uniform_weights_no_pure_optimum(no_pure_optimum):
    weights = np.full(4, 0.25)
    z = greedy_weighted_submodular(no_pure_optimum, weights)
    assert z == PureStrategy.of([0])  # tied with the second medium, lower index wins
    best = max(brute_force_weighted_value(no_pure_optimum, weights, s)
               for s in oracles.subsets_up_to(no_pure_optimum.n, no_pure_optimum.k_L))
    assert brute_force_weighted_value(no_pure_optimum, weights, tuple(z.media)) == pytest.approx(
        best, abs=1e-12)


def test_greedy_concentrated_on_empty_response(no_pure_optimum):
    weights = np.array([1.0, 0.0, 0.0, 0.0])  # all mass on the empty strategy
    z = greedy_weighted_submodular(no_pure_optimum, weights)
    # h_empty(z) = sum_v P_v(z) + C: plain budget allocation greedy
    p, _ = oracles.edge_maps(no_pure_optimum)
    sums = {u: sum(q for (a, _), q in p.items() if a == u) for u in range(3)}
    assert z == PureStrategy.of([max(sums, key=lambda u: (sums[u], -u))])


def test_greedy_zero_budget(no_pure_optimum):
    g = no_pure_optimum
    unfunded = BipartiteInfluenceGame.from_arrays(g.n, g.m, g.edge_media, g.edge_customers,
                                                  g.edge_p, g.edge_pf, 0, g.k_F)
    assert greedy_weighted_submodular(unfunded, np.full(4, 0.25)) == PureStrategy.empty()


def test_greedy_rejects_bad_weights(no_pure_optimum):
    with pytest.raises(ValueError):
        greedy_weighted_submodular(no_pure_optimum, np.zeros(4))
    with pytest.raises(ValueError):
        greedy_weighted_submodular(no_pure_optimum, np.array([1.0, -0.5, 0.0, 0.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            greedy_weighted_submodular(no_pure_optimum, np.array([bad, 0.0, 0.0, 0.0]))
    # The right size in the wrong shape used to fail in indexing or matmul.
    for shape in ((4, 1), (1, 4)):
        with pytest.raises(ValueError, match="over the follower set"):
            greedy_weighted_submodular(no_pure_optimum, np.full(shape, 0.25))


def test_greedy_huge_weights_act_like_uniform_weights():
    # Seven weights of 1e308 overflowed a plain sum to inf, and the kernel
    # returned the empty strategy.
    game = generate_instance(6, 30, 3.0, (0.0, 0.5), (0.0, 0.5), seed=4, k_L=2, k_F=1)
    oracle = follower_oracle(game)
    assert len(oracle) == 7
    uniform = greedy_weighted_submodular(game, np.full(7, 1.0 / 7))
    assert len(uniform) == 2
    assert greedy_weighted_submodular(game, np.full(7, 1e308)) == uniform


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
            assert (greedy_weighted_submodular(game, w)
                    == oracles.greedy_weighted_edges(game, w, game.k_L, oracle))


def test_greedy_on_warm_tables_equals_a_fresh_call():
    # An MWU run's store outlives each greedy call; an entry is the same
    # whichever walks filled it and whichever prefix is read first, so a
    # warm store answers as a fresh one.
    for rng, game in _differential_games(613, 60):
        oracle = follower_oracle(game)
        gain = oracle.activation - oracle.recapture
        tables = PrefixTables(game, gain)
        budget = min(game.k_L, game.n)
        for _ in range(8):
            w = rng.dirichlet(np.full(len(oracle), 0.3))
            warm = PureStrategy.of(mwu_mod._greedy(tables, w, budget))
            assert warm == greedy_weighted_submodular(game, w)
        for prefix in list(tables._entries):
            fresh_r, fresh_pg = PrefixTables(game, gain).get(prefix)
            r, pg = tables.get(prefix)
            assert np.array_equal(r, fresh_r) and np.array_equal(pg, fresh_pg)


def test_row_sums_along_the_last_axis_equal_one_sum_per_row():
    # The batch sums each weight row with .sum(axis=1) where the loop sums
    # one row; on C-ordered rows the two must agree bit for bit, or batched
    # rounds would not be the loop's.  Widths run to 6,196 = |D_F| at
    # n=20, k_F=4.
    rng = np.random.default_rng(616)
    pool = np.exp(-rng.uniform(0.0, 40.0, (8, 6196)))
    pool[::2] *= rng.uniform(0.0, 1e-3, (4, 1))
    for width in range(1, 6197):
        rows = np.ascontiguousarray(pool[:(1, 2, 3, 5, 8)[width % 5], :width])
        sums = rows.sum(axis=1, keepdims=True)
        assert sums.shape == (len(rows), 1)
        assert np.array_equal(sums[:, 0], [row.sum() for row in rows]), width


def test_solve_mwu_matches_edge_list_reference():
    # Only the greedy's choices feed the rest of the run, so every output
    # must agree exactly, not just to rounding.  The reference runs the
    # greedy every round; at rate 300 the runs switch strategies often.
    for rng, game in _differential_games(614, 80):
        config = MwuConfig(iterations=int(rng.integers(1, 60)),
                           learning_rate=["auto", 0.3, 3.0, 30.0, 300.0][int(rng.integers(5))])
        x, cert = solve_mwu(game, config)
        ref_x, ref_cert = oracles.mwu_reference(game, config)
        assert x.weights == ref_x.weights
        assert cert == ref_cert


def test_replayed_rounds_certify_only_what_the_greedy_plays():
    # Every certified row must be one that the greedy answers with the
    # picks.  In the two-medium game the greedy stops after u0 when all the
    # weight is on the follower's {u0} (it recaptures customer 1) and goes
    # on to u1 otherwise.
    two_media = BipartiteInfluenceGame.build(
        2, 2, [(0, 0, 0.5, 0.0), (0, 1, 0.0, 1.0), (1, 1, 0.4, 0.0)], k_L=2, k_F=1)
    cases = [(two_media, np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))]
    for rng, game in _differential_games(615, 60):
        base = rng.dirichlet(np.ones(len(follower_oracle(game))))
        cases.append((game, np.vstack([base, base * rng.uniform(0.5, 1.5, (6, base.size))])))
    certified = 0
    for game, rows in cases:
        oracle = follower_oracle(game)
        tables = PrefixTables(game, oracle.activation - oracle.recapture)
        budget = min(game.k_L, game.n)
        picks = mwu_mod._greedy(tables, rows[0], budget)
        accepted = mwu_mod._replayed_rounds(tables, picks, budget, rows)
        certified += accepted
        for row in rows[:accepted]:
            assert mwu_mod._greedy(tables, row, budget) == picks
    assert certified > 0


def _count_greedy_calls(monkeypatch):
    calls = []
    kernel = mwu_mod._greedy

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(mwu_mod, "_greedy", counted)
    return calls


def test_solve_mwu_replays_a_repeated_strategy_in_batches(monkeypatch):
    # This paper cell plays one strategy in all 100 rounds; the batches
    # accept all but the first two, so a loop that ran the greedy again
    # after each full batch would show here, and the answer is the
    # per-round loop's.
    game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), (0.1, 0.9), seed=0,
                             k_L=2, k_F=2)
    calls = _count_greedy_calls(monkeypatch)
    x, cert = solve_mwu(game, MwuConfig(iterations=100))
    assert len(x.weights) == 1 and len(calls) == 2
    monkeypatch.setattr(mwu_mod, "_replayed_rounds", lambda *args: 0)
    del calls[:]
    loop_x, loop_cert = solve_mwu(game, MwuConfig(iterations=100))
    assert len(calls) == 100
    assert x.weights == loop_x.weights and cert == loop_cert


def test_solve_mwu_caps_the_rows_of_a_replay_batch(monkeypatch):
    # Uncapped, a batch asks for min(streak, rounds left) rows, about T/2
    # in a long run, each |D_F| wide; capped, it asks for at most
    # MAX_BATCH, and the answer is the uncapped run's.
    game = generate_instance(8, 60, 2.0, (0.0, 0.2), (0.1, 0.9), seed=1, k_L=2, k_F=2)
    config = MwuConfig(iterations=2000)
    rows = []
    kernel = mwu_mod._replayed_rounds

    def counted(tables, picks, budget, weights):
        rows.append(len(weights))
        return kernel(tables, picks, budget, weights)

    monkeypatch.setattr(mwu_mod, "_replayed_rounds", counted)
    x, cert = solve_mwu(game, config)
    assert max(rows) == mwu_mod.MAX_BATCH
    del rows[:]
    monkeypatch.setattr(mwu_mod, "MAX_BATCH", 10 ** 9)
    uncapped_x, uncapped_cert = solve_mwu(game, config)
    assert max(rows) > 500
    assert x.weights == uncapped_x.weights and cert == uncapped_cert


@pytest.mark.parametrize("copy_p", [0.5, 0.5 + 1e-15], ids=["exact", "within-rounding"])
def test_solve_mwu_never_certifies_a_tie(monkeypatch, copy_p):
    # Medium 1 copies medium 0, exactly or up to 1e-15 on one edge, so
    # their gains tie within rounding in every round: no batch is
    # certified, and the loop decides each round (the exact tie by its
    # smallest-index rule).
    rows = [(0, 0, 0.5, 0.3), (0, 1, 0.4, 0.2), (1, 0, copy_p, 0.3), (1, 1, 0.4, 0.2),
            (2, 2, 0.2, 0.1)]
    game = BipartiteInfluenceGame.build(3, 3, rows, k_L=1, k_F=1)
    calls = _count_greedy_calls(monkeypatch)
    config = MwuConfig(iterations=40)
    x, cert = solve_mwu(game, config)
    assert len(calls) == 40
    ref_x, ref_cert = oracles.mwu_reference(game, config)
    assert x.weights == ref_x.weights and cert == ref_cert
    if copy_p == 0.5:
        assert x.weights == {PureStrategy.of([0]): 1.0}


def test_greedy_guarantee_against_brute_force():
    rng = np.random.default_rng(606)
    ratio = 1 - 1 / math.e
    for _ in range(20):
        game = random_game(rng, n_max=6, m_max=8)
        strategies = enumerate_follower(game)
        w = rng.dirichlet(np.ones(len(strategies)))
        z = greedy_weighted_submodular(game, w)
        achieved = brute_force_weighted_value(game, w, tuple(z.media))
        best = max(brute_force_weighted_value(game, w, s)
                   for s in oracles.subsets_up_to(game.n, game.k_L))
        assert achieved >= ratio * best - 1e-9


def test_surrogate_losses_bounded():
    rng = np.random.default_rng(707)
    for _ in range(30):
        game = random_game(rng, n_max=5, m_max=6)
        C = oracles.phi_constant(game)
        bound = game.m + C
        for y in oracles.subsets_up_to(game.n, game.k_F):
            for z in oracles.subsets_up_to(game.n, game.k_L):
                h = oracles.phi(game, {z: 1.0}, y) + C
                assert -1e-9 <= h <= bound + 1e-9


def test_surrogate_losses_match_phi():
    # The losses score z against the oracle's whole follower table; the
    # brute-force phi scores it against one follower strategy by enumeration.
    rng = np.random.default_rng(709)
    for _ in range(30):
        game = random_game(rng, n_max=6, m_max=8, kf_max=3)
        oracle = follower_oracle(game)
        C = oracles.phi_constant(game)
        for z in oracles.subsets_up_to(game.n, game.k_L):
            h = mwu_mod._surrogate_losses(oracle, activation_vector(game, z), C)
            expected = [oracles.phi(game, {z: 1.0}, y.media) + C for y in oracle.strategies]
            np.testing.assert_allclose(h, expected, rtol=0.0, atol=1e-12)


def test_surrogate_losses_monotone_submodular():
    rng = np.random.default_rng(708)
    checked = 0
    while checked < 40:
        game = random_game(rng, n_max=6, m_max=6)
        if game.n < 2:
            continue
        C = oracles.phi_constant(game)
        y = oracles.subsets_up_to(game.n, game.k_F)[-1]

        def h(z_set):
            return oracles.phi(game, {tuple(sorted(z_set)): 1.0}, y) + C

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
    x, cert = solve_mwu(no_pure_optimum, MwuConfig(iterations=200))
    assert cert.value >= 0.599 - 1e-9
    assert cert.value == best_response(no_pure_optimum, x).leader_value
    assert cert.epsilon1 >= 0.0 and cert.C == pytest.approx(1.1, abs=1e-12)
    assert cert.alpha == pytest.approx(1 - 1 / math.e - 0.5, abs=1e-15)


def test_solve_mwu_single_iteration_is_point_mass(no_pure_optimum):
    x, _ = solve_mwu(no_pure_optimum, MwuConfig(iterations=1))
    assert len(x.weights) == 1
    assert list(x.weights.values()) == [1.0]


def test_solve_mwu_no_follower_reduces_to_greedy():
    rng = np.random.default_rng(808)
    ratio = 1 - 1 / math.e
    for _ in range(10):
        game = random_game(rng, n_max=6, m_max=8, kf_max=0)
        x, cert = solve_mwu(game, MwuConfig(iterations=5))
        opt = oracles.best_pure_leader_value(game)
        assert best_response(game, x).leader_value >= ratio * opt - 1e-9
        assert cert.epsilon1 == pytest.approx(0.0, abs=1e-12)
        assert cert.C == pytest.approx(0.0, abs=1e-12)


def test_solve_mwu_deterministic(no_pure_optimum):
    a = solve_mwu(no_pure_optimum, MwuConfig(iterations=50))
    b = solve_mwu(no_pure_optimum, MwuConfig(iterations=50))
    assert a[0].weights == b[0].weights
    assert a[1] == b[1]


def test_certify_scores_the_optimistic_best_response(overfunding_trap):
    # certify's value is f_BR(x'), the value that bench and the CLI report.
    # Against {u0} the follower is indifferent between {u1} (f = 0) and {u2}
    # (f = 1); the optimistic response is {u2}.
    x = MixedStrategy.point_mass(PureStrategy.of([0]))
    assert len(best_response(overfunding_trap, x).responses) == 2
    assert certify(overfunding_trap, x).value == 1.0
    rng = np.random.default_rng(910)
    for _ in range(30):
        game = random_game(rng, n_max=6, m_max=8, kf_max=3)
        leaders = oracles.subsets_up_to(game.n, game.k_L)
        picks = rng.choice(len(leaders), size=min(3, len(leaders)), replace=False)
        w = rng.dirichlet(np.ones(picks.size))
        x = MixedStrategy({PureStrategy.of(leaders[i]): float(q) for i, q in zip(picks, w)})
        assert certify(game, x).value == best_response(game, x).leader_value


def test_certify_exact_solution_passes_its_own_bound(no_pure_optimum):
    res = solve_multi_lp(no_pure_optimum)
    cert = certify(no_pure_optimum, res.leader, exact=(res.leader, res.follower), epsilon=0.5)
    assert cert.bound_holds
    assert cert.opt_value == pytest.approx(1.1, abs=1e-9)
    assert cert.epsilon2 == pytest.approx(cert.epsilon1, abs=1e-12)
    assert cert.beta == pytest.approx(
        (1 - 1 / math.e) * cert.epsilon2 - cert.epsilon1 + (1 / math.e + 0.5) * cert.C,
        abs=1e-12)


def test_certify_names_an_exact_response_outside_the_follower_set(no_pure_optimum):
    # k_F = 1, so {u0,u1} is no follower strategy; the error used to be
    # "{u0,u1} is not in list".
    res = solve_multi_lp(no_pure_optimum)
    with pytest.raises(ValueError, match=r"^y\* = \{u0,u1\} is not a follower strategy of "
                                         r"this game \(n=3, k_F=1\)$"):
        certify(no_pure_optimum, res.leader, exact=(res.leader, PureStrategy.of([0, 1])))


def test_certify_zero_follower_budget_collapses_translation_terms():
    rng = np.random.default_rng(909)
    game = random_game(rng, n_max=5, m_max=6, kf_max=0)
    res = solve_multi_lp(game)
    cert = certify(game, res.leader, exact=(res.leader, res.follower))
    assert cert.epsilon1 == 0.0 and cert.epsilon2 == 0.0 and cert.C == 0.0
    assert cert.beta == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0, -0.5, math.nan])
def test_certify_rejects_an_epsilon_outside_the_unit_interval(no_pure_optimum, epsilon):
    # NaN gave alpha = nan and a silent bound_holds=False; 2.0 gave alpha = -1.37.
    res = solve_multi_lp(no_pure_optimum)
    for exact in (None, (res.leader, res.follower)):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\)$"):
            certify(no_pure_optimum, res.leader, exact=exact, epsilon=epsilon)


def test_mwu_config_validation():
    with pytest.raises(ValueError):
        MwuConfig(iterations=0)
    with pytest.raises(ValueError):
        MwuConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        MwuConfig(learning_rate=-0.1)
    assert MwuConfig(iterations=np.int64(7), learning_rate=3).iterations == 7


@pytest.mark.parametrize("kwargs", [dict(iterations=1.5), dict(iterations=True),
                                    dict(learning_rate=math.inf), dict(learning_rate=True)],
                         ids=["fractional-iterations", "bool-iterations", "infinite-rate",
                              "bool-rate"])
def test_mwu_config_rejects_at_construction(kwargs):
    # Each used to pass construction and fail later or not at all:
    # range(1.5) raised TypeError in solve_mwu, True ran one round, an
    # infinite rate surfaced only as "weights vanished", and a True rate
    # ran as 1.0.
    with pytest.raises(ValueError):
        MwuConfig(**kwargs)


def test_solve_mwu_tolerates_weights_that_underflow_to_zero(private_customers):
    # At this rate some follower weights underflow to exactly 0 mid-run;
    # the greedy accepts nonnegative weights, so the run completes.
    x, cert = solve_mwu(private_customers, MwuConfig(iterations=10, learning_rate=1e3))
    assert max(len(s) for s in x.weights) <= private_customers.k_L
    assert cert.value == best_response(private_customers, x).leader_value


def test_solve_mwu_keeps_a_weight_at_a_rate_that_underflows_the_rest():
    # exp(-eta * h / H) underflows every weight here; the weights taken
    # from cumulative losses keep the least-loss one at 1.
    game = generate_instance(20, 844, 3506 / 844, (0.0, 1.0), (0.1, 0.9), seed=0,
                             k_L=2, k_F=2)
    x, cert = solve_mwu(game, MwuConfig(iterations=20, learning_rate=1e4))
    assert x.weights and all(len(z) <= game.k_L for z in x.weights)
    assert sum(x.weights.values()) == pytest.approx(1.0)
    assert np.isfinite(cert.empirical_regret)


def test_solve_mwu_rejects_non_finite_weights(no_pure_optimum, monkeypatch):
    monkeypatch.setattr(mwu_mod, "_surrogate_losses",
                        lambda oracle, pvz, C: np.full(len(oracle), -np.inf))
    # Inputs are checked before the run, so non-finite losses are the
    # program's numerics fault, not the caller's input.
    with pytest.raises(LpNumericsError, match="^MWU losses are not finite$"):
        solve_mwu(no_pure_optimum, MwuConfig(iterations=3))


def test_greedy_negative_marginal_is_a_numerics_error(no_pure_optimum, monkeypatch):
    oracle = follower_oracle(no_pure_optimum)
    # gain = activation - recapture = -2, so c_v = 1 - 2 < 0: not monotone
    monkeypatch.setattr(oracle, "recapture", oracle.activation + 2.0)
    with pytest.raises(LpNumericsError, match="negative marginal"):
        greedy_weighted_submodular(no_pure_optimum, np.full(4, 0.25))
