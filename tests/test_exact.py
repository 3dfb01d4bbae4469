import dataclasses

import numpy as np
import pytest

from stackalloc import (BipartiteInfluenceGame, CapExceededError, MixedStrategy,
                        PureStrategy, allocation_of, best_response, certify,
                        decompose_allocation, enumerate_leader, exact,
                        follower_oracle, generate_instance, greedy_baseline,
                        mixed_activation_vector, solve_disjoint_lp, solve_heuristic,
                        solve_multi_lp, solve_mwu)
from stackalloc import lp as lp_mod

import oracles
from conftest import random_allocation, random_game


def test_enumerate_leader_counts(no_pure_optimum):
    assert len(enumerate_leader(no_pure_optimum)) == 4
    big = BipartiteInfluenceGame.build(20, 1, [(0, 0, 0.5, 0.5)], 4, 1)
    assert len(enumerate_leader(big)) == 6196
    full = BipartiteInfluenceGame.build(6, 1, [(0, 0, 0.5, 0.5)], 6, 1)
    assert len(enumerate_leader(full)) == 2 ** 6


def test_enumerate_leader_cap():
    big = BipartiteInfluenceGame.build(40, 1, [(0, 0, 0.5, 0.5)], 10, 1)
    with pytest.raises(CapExceededError, match="disjoint|approximation"):
        enumerate_leader(big)


def test_solve_multi_lp_no_pure_optimum(no_pure_optimum):
    res = solve_multi_lp(no_pure_optimum)
    assert res.value == pytest.approx(1.1, abs=1e-9)
    assert res.follower == PureStrategy.of([2])
    # the audit trail covers every candidate and the winner is its max
    feasible = [v for s, v in res.per_y_values.values() if s == "optimal"]
    assert len(res.per_y_values) == 4
    assert res.value >= max(feasible) - 1e-9
    assert allocation_of(res.leader, no_pure_optimum.n).sum() <= no_pure_optimum.k_L + 1e-9


def test_solve_multi_lp_overfunding_trap(overfunding_trap):
    res = solve_multi_lp(overfunding_trap)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_solve_multi_lp_no_follower_budget_matches_brute_force():
    rng = np.random.default_rng(202)
    for _ in range(10):
        game = random_game(rng, n_max=10, m_max=8, kf_max=0)
        assert game.k_F == 0
        res = solve_multi_lp(game)
        best = oracles.best_pure_leader_value(game)
        assert res.value == pytest.approx(best, abs=1e-7)


def test_decompose_reproduces_paper_mixture():
    third = 1.0 / 3.0
    x = decompose_allocation(np.array([1.0, third, third, 1.0]), 3)
    assert set(x.weights) == {PureStrategy.of([0, 3]), PureStrategy.of([0, 1, 3]),
                              PureStrategy.of([0, 2, 3])}
    for w in x.weights.values():
        assert w == pytest.approx(third, abs=1e-12)


def test_decompose_integral_point_mass():
    x = decompose_allocation(np.array([1.0, 0.0, 1.0]), 2)
    assert x.weights == {PureStrategy.of([0, 2]): 1.0}


def test_decompose_rejects_points_outside_Q():
    outside = [([0.9, 0.9, 0.9], 2),  # over budget
               ([1.2, 0.0], 2),  # above 1
               ([1.0 + 2e-7, 0.0], 2),  # above 1 by more than solve_lp's tolerance
               ([-0.1, 0.5], 1),  # below 0
               ([0.5, float("nan")], 2)]
    for r, k_L in outside:
        with pytest.raises(ValueError, match="allocation outside Q"):
            decompose_allocation(np.array(r), k_L)
    bad = [([0.5, 0.5], 1.5),  # budget not an integer
           ([0.5, 0.5], True),
           ([0.5, 0.5], 1.0),
           ([[0.5, 0.0], [0.0, 0.5]], 2),  # not a vector
           (0.5, 1)]
    for r, k_L in bad:
        with pytest.raises(ValueError):
            decompose_allocation(np.array(r), k_L)


def _edge_allocations():
    """Points of Q (and within tolerance of it) that stress the decomposition."""
    yield np.array([0.1, 0.2, 1.0]), 2  # a 1.0 after a fractional prefix
    yield np.array([0.1, 0.2, 1.0, 0.5]), 2
    yield np.array([0.3, 0.3, 0.3, 1.0, 0.7]), 3
    yield np.array([1 / 3, 1 / 3, 1.0, 1 / 3]), 2
    yield np.array([1e-11, 0.5, 1.0 - 1e-11, 0.25]), 2  # within 1e-11 of 0 and 1
    yield np.array([1.0 - 1e-11, 1.0 - 1e-11, 1e-11]), 2
    yield np.array([9e-13, 0.25, 9e-13, 0.25, 9e-13, 0.25]), 1  # dropped slivers
    yield np.array([-5e-10, 0.5, 1.0 + 5e-10]), 2  # just outside [0, 1]
    yield np.array([0.4, 0.6, 0.7, 0.3]), 2  # sum r = k_L exactly
    yield np.array([0.4, 0.6, 0.7, 0.3 + 5e-10]), 2  # sum r just above k_L
    yield np.array([0.5, 0.5 + 1e-9, 1.0]), 2
    yield np.full(250, 209 / 250), 209  # cumsum ends 1e-12 past k_L
    yield np.array([0.0, 0.0]), 0  # k_L = 0
    yield np.array([0.37]), 1  # n = 1
    yield np.array([1.0]), 1
    yield np.array([0.0]), 0


def test_decompose_reconstruction_property():
    rng = np.random.default_rng(303)
    cases = list(_edge_allocations())
    for _ in range(400):
        n = int(rng.integers(1, 12))
        k_L = int(rng.integers(0, n + 1))
        cases.append((random_allocation(rng, n, k_L), k_L))
    for r, k_L in cases:
        n = r.size
        x = decompose_allocation(r, k_L)
        assert len(x.weights) <= n + 1
        assert all(w > 1e-12 for w in x.weights.values())
        assert sum(x.weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(len(s) <= k_L for s in x.weights)
        assert np.max(np.abs(allocation_of(x, n) - r)) <= 1e-9


def test_solve_disjoint_lp_private_customers(private_customers):
    res = solve_disjoint_lp(private_customers)
    assert res.value == pytest.approx(18.0, abs=1e-9)
    r = allocation_of(res.leader, private_customers.n)
    assert r == pytest.approx([1.0, 1 / 3, 1 / 3, 1.0], abs=1e-7)
    assert len(res.leader.weights) <= private_customers.n + 1


def test_private_customers_has_no_pure_equilibrium(private_customers):
    res = solve_disjoint_lp(private_customers)
    best_pure = max(best_response(private_customers, MixedStrategy.point_mass(z)).leader_value
                    for z in enumerate_leader(private_customers))
    assert best_pure < res.value - 1e-6
    assert best_pure == pytest.approx(17.0, abs=1e-9)


def test_solve_disjoint_lp_no_follower_budget_funds_top_media():
    # three media with 3/2/1 unit-probability customers, budget 2
    rows = [(0, 0, 1.0, 0.0), (0, 1, 1.0, 0.0), (0, 2, 1.0, 0.0),
            (1, 3, 1.0, 0.0), (1, 4, 1.0, 0.0), (2, 5, 1.0, 0.0)]
    game = BipartiteInfluenceGame.build(3, 6, rows, k_L=2, k_F=0)
    res = solve_disjoint_lp(game)
    assert res.value == pytest.approx(5.0, abs=1e-9)
    assert allocation_of(res.leader, 3) == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)


def test_solve_disjoint_lp_rejects_overlapping_customers(overfunding_trap):
    with pytest.raises(ValueError, match="solve_multi_lp"):
        solve_disjoint_lp(overfunding_trap)


def test_disjoint_and_multi_lp_agree_on_random_instances():
    rng = np.random.default_rng(404)
    for _ in range(50):
        game = random_game(rng, n_max=6, m_max=12, kl_max=3, kf_max=2, disjoint=True)
        vd = solve_disjoint_lp(game).value
        vm = solve_multi_lp(game).value
        assert vd == pytest.approx(vm, abs=1e-6)


def test_bilinearity_on_disjoint_instances():
    # distinct decompositions of one allocation give identical utilities
    rng = np.random.default_rng(505)
    for _ in range(20):
        game = random_game(rng, n_max=5, m_max=8, disjoint=True)
        r = random_allocation(rng, game.n, game.k_L)
        x1 = decompose_allocation(r, game.k_L)
        shuffled = decompose_allocation(r[::-1].copy(), game.k_L)
        x2 = MixedStrategy({PureStrategy.of([game.n - 1 - u for u in s]): w
                            for s, w in shuffled.weights.items()})
        assert np.allclose(allocation_of(x2, game.n), r, atol=1e-9)
        oracle = follower_oracle(game)  # every y in the follower set
        (f1, g1), (f2, g2) = (oracle.utilities(mixed_activation_vector(game, x))
                              for x in (x1, x2))
        np.testing.assert_allclose(f1, f2, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(g1, g2, rtol=0.0, atol=1e-9)


def test_disjoint_candidate_lps_state_f_and_g_of_the_brute_force_model():
    # At any r in Q, each candidate's objective is f(x, y*) and each
    # follower row's slack is g(x, y*) - g(x, y), for x decomposed from r.
    rng = np.random.default_rng(707)
    for _ in range(25):
        game = random_game(rng, n_max=6, m_max=10, kf_max=3, disjoint=True)
        r = random_allocation(rng, game.n, game.k_L)
        x = oracles.weights_of(decompose_allocation(r, game.k_L))
        ys = follower_oracle(game).strategies
        for y_star, lp in oracles.candidate_lps(game, disjoint=True).items():
            assert lp.objective @ r == pytest.approx(
                oracles.f_mixed(game, x, y_star.media), abs=1e-9)
            g_star = oracles.g_mixed(game, x, y_star.media)
            for i, y in enumerate(ys):
                assert lp.rows[i] @ r - lp.rhs[i] == pytest.approx(
                    g_star - oracles.g_mixed(game, x, y.media), abs=1e-9)


def test_equilibrium_values_are_reverified(no_pure_optimum):
    res = solve_multi_lp(no_pure_optimum)
    leader = oracles.f_mixed(no_pure_optimum, oracles.weights_of(res.leader), res.follower.media)
    assert leader == pytest.approx(res.value, abs=1e-9)
    assert best_response(no_pure_optimum, res.leader).leader_value >= res.value - 1e-9


@pytest.mark.parametrize("fault,message", [
    (lambda out: dataclasses.replace(out, value=out.value + 1.0) if out.status == "optimal"
     else out, "disagrees with LP value"),
    (lambda out: lp_mod.LpOutcome(status="infeasible"), "no candidate LP was feasible"),
], ids=["shifted-value", "all-infeasible"])
def test_a_failed_recheck_is_a_numerics_error(monkeypatch, no_pure_optimum, fault, message):
    monkeypatch.setattr(exact, "solve_lp", lambda lp: fault(lp_mod.solve_lp(lp)))
    with pytest.raises(lp_mod.LpNumericsError, match=message):
        solve_multi_lp(no_pure_optimum)


def test_a_mix_that_does_not_induce_the_response_is_a_numerics_error(no_pure_optimum):
    oracle = follower_oracle(no_pure_optimum)
    x = MixedStrategy({PureStrategy.empty(): 1.0})
    _, g = oracle.utilities(mixed_activation_vector(no_pure_optimum, x))
    worst = int(np.argmin(g[0]))
    assert g[0, worst] < g[0].max() - exact.REVERIFY_TOL
    with pytest.raises(lp_mod.LpNumericsError, match="does not induce"):
        exact._finish(no_pure_optimum, x, worst, 0.0, oracle, {})


def _lp_key(lp):
    return lp.objective.tobytes(), lp.rows.tobytes(), lp.rhs.tobytes()


def _solve_recording(monkeypatch, solver, game):
    """Solve; also return the keys of the candidate LPs that reached solve_lp."""
    reached = set()

    def recording(lp, **kwargs):
        reached.add(_lp_key(lp))
        return lp_mod.solve_lp(lp, **kwargs)

    monkeypatch.setattr(exact, "solve_lp", recording)
    return solver(game), reached


def _check_against_unscreened(monkeypatch, game, disjoint):
    """The audit trail equals the screen-free one; returns the screened count."""
    solver = solve_disjoint_lp if disjoint else solve_multi_lp
    res, reached = _solve_recording(monkeypatch, solver, game)
    assert res.per_y_values == oracles.unscreened_outcomes(game, disjoint)
    screened = [lp for lp in oracles.candidate_lps(game, disjoint).values()
                if _lp_key(lp) not in reached]
    for lp in screened:
        assert oracles.scipy_lp(lp)[0] == 2
    return len(screened)


@pytest.mark.parametrize("disjoint", [False, True], ids=["multi", "disjoint"])
@pytest.mark.parametrize("k_F", [0, 1, 2, 3])
@pytest.mark.parametrize("regime", ["pF-above-p", "pF-below-p"])
def test_screen_matches_unscreened_candidate_lps(monkeypatch, disjoint, k_F, regime):
    p, p_F = ((0.0, 0.3), (0.3, 0.9)) if regime == "pF-above-p" else ((0.3, 0.9), (0.0, 0.3))
    screened = 0
    for seed in range(3):
        game = generate_instance(6, 14, 1.0 if disjoint else 2.0, p, p_F, seed=seed,
                                 k_L=1 + seed % 2, k_F=k_F)
        screened += _check_against_unscreened(monkeypatch, game, disjoint)
    assert (screened > 0) == (k_F > 0)


@pytest.mark.parametrize("disjoint", [False, True], ids=["multi", "disjoint"])
def test_screen_matches_unscreened_candidate_lps_on_random_games(monkeypatch, disjoint):
    rng = np.random.default_rng(606)
    for _ in range(25):
        game = random_game(rng, n_max=6, m_max=10, kl_max=3, kf_max=3, disjoint=disjoint)
        _check_against_unscreened(monkeypatch, game, disjoint)


def _with_idle_medium(game):
    """The same edges plus one medium that reaches no customer.

    The follower may fund every medium, so funding every real one, with
    or without the idle one, is a best response to any leader strategy.
    """
    rows = list(zip(game.edge_media.tolist(), game.edge_customers.tolist(),
                    game.edge_p.tolist(), game.edge_pf.tolist()))
    return BipartiteInfluenceGame.build(game.n + 1, game.m, rows, game.k_L, game.n + 1)


@pytest.mark.parametrize("disjoint", [False, True], ids=["multi", "disjoint"])
def test_screen_keeps_responses_that_only_tie(monkeypatch, no_pure_optimum,
                                              private_customers, disjoint):
    # Adding the idle medium never changes g, so the row of y* against
    # y* + {idle} is zero at every leader strategy: a row max of exactly 0
    # must go to the LP, not be screened.
    game = _with_idle_medium(private_customers if disjoint else no_pure_optimum)
    idle = game.n - 1
    solver = solve_disjoint_lp if disjoint else solve_multi_lp
    res, reached = _solve_recording(monkeypatch, solver, game)
    assert res.per_y_values == oracles.unscreened_outcomes(game, disjoint)
    lps = oracles.candidate_lps(game, disjoint)
    twins = [(y, PureStrategy.of(y.media + (idle,))) for y in lps
             if idle not in y.media and len(y) < game.k_F]
    inducible = [(y, t) for y, t in twins if res.per_y_values[y][0] == "optimal"]
    assert inducible
    for y, twin in inducible:
        assert _lp_key(lps[y]) in reached and _lp_key(lps[twin]) in reached
        assert res.per_y_values[twin][0] == "optimal"
        assert res.per_y_values[twin][1] == pytest.approx(res.per_y_values[y][1], abs=1e-9)
    assert res.value == pytest.approx(oracles.strong_equilibrium_value(game), abs=1e-7)


PAPER_P = (0.0, 0.2)


def test_paper_scale_multi_lp():
    game = generate_instance(20, 844, 3506 / 844, PAPER_P, PAPER_P, seed=0, k_L=1, k_F=2)
    res = solve_multi_lp(game)
    assert res.value == pytest.approx(18.95490503217018, abs=1e-9)
    assert res.follower == PureStrategy.of([9, 19])
    statuses = [status for status, _ in res.per_y_values.values()]
    assert len(statuses) == 211 and statuses.count("optimal") == 3


def test_paper_scale_multi_lp_at_budget_four():
    # 6,196 leader strategies; the best-response pass rules out all 207
    # infeasible candidates before any incentive block is built.
    game = generate_instance(20, 844, 3506 / 844, PAPER_P, PAPER_P, seed=0, k_L=4, k_F=2)
    res = solve_multi_lp(game)
    assert res.value == pytest.approx(71.11737586203878, abs=1e-9)
    assert res.follower == PureStrategy.of([9, 19])
    statuses = [status for status, _ in res.per_y_values.values()]
    assert len(statuses) == 211
    assert statuses.count("optimal") == 4 and statuses.count("infeasible") == 207


def test_paper_scale_disjoint_lp():
    game = generate_instance(20, 844, 1.0, PAPER_P, PAPER_P, seed=0, k_L=2, k_F=2)
    res = solve_disjoint_lp(game)
    assert res.value == pytest.approx(10.79004734447238, abs=1e-9)
    assert res.follower == PureStrategy.of([0, 11])
    statuses = [status for status, _ in res.per_y_values.values()]
    assert len(statuses) == 211 and statuses.count("optimal") == 2


def test_every_engine_against_brute_force():
    # The exact solvers reach the brute-force equilibrium value; no mix an
    # approximate engine returns is worth more to the leader, and MWU's
    # certificate holds against the exact optimum.
    rng = np.random.default_rng(1111)
    checked = 0
    while checked < 15:
        disjoint = checked % 2 == 1
        game = random_game(rng, n_max=4, m_max=6, kl_max=3, kf_max=2, disjoint=disjoint)
        if game.k_L == 0 or game.k_F == 0:  # a player with no move
            continue
        checked += 1
        opt = oracles.strong_equilibrium_value(game)
        res = solve_multi_lp(game)
        assert res.value == pytest.approx(opt, abs=1e-7)
        if disjoint:
            assert solve_disjoint_lp(game).value == pytest.approx(opt, abs=1e-7)
        x_mwu, _ = solve_mwu(game)
        mixes = [MixedStrategy.point_mass(greedy_baseline(game)), x_mwu, solve_heuristic(game, 3)]
        for x in mixes:
            assert oracles.best_response_value(game, oracles.weights_of(x)) <= opt + 1e-7
        assert certify(game, x_mwu, exact=(res.leader, res.follower)).bound_holds
