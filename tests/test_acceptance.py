"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured numbers (run pytest -s to see them all).
"""

import time

import numpy as np

import stackalloc as sa
from stackalloc.bench import ExperimentSpec, run_experiment

import oracles
from conftest import (make_no_pure_optimum, make_overfunding_trap,
                      make_private_customers, make_uniform_overlap,
                      random_allocation, random_game, utilities_at)
from test_heuristic import reference_pure_greedy


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def point(media):
    return sa.MixedStrategy.point_mass(sa.PureStrategy.of(media))


def test_criterion_01_no_pure_optimum_worked_example():
    game = make_no_pure_optimum()
    start = time.perf_counter()
    values = [sa.best_response(game, point([u])).leader_value for u in range(3)]
    lp_value = sa.solve_multi_lp(game).value
    elapsed = time.perf_counter() - start
    ok = (abs(values[0] - 0.6) <= 1e-6 and abs(values[1] - 0.6) <= 1e-6
          and abs(values[2] - 0.599) <= 1e-6 and abs(lp_value - 1.1) <= 1e-6
          and elapsed < 1.0)
    _report(1, "no-pure-optimum example: pure values 0.6/0.6/0.599, equilibrium 1.1",
            ok, f"got {values} + {lp_value:.7f} in {elapsed:.3f}s")


def test_criterion_02_overfunding_trap_worked_example():
    game = make_overfunding_trap()
    start = time.perf_counter()
    v_full = sa.best_response(game, point([0, 1, 2])).leader_value
    v0 = sa.best_response(game, point([0])).leader_value
    v2 = sa.best_response(game, point([2])).leader_value
    lp_value = sa.solve_multi_lp(game).value
    elapsed = time.perf_counter() - start
    ok = (abs(v_full) <= 1e-6 and abs(v0 - 1.0) <= 1e-6 and abs(v2 - 1.0) <= 1e-6
          and abs(lp_value - 1.0) <= 1e-6 and elapsed < 1.0)
    _report(2, "overfunding example: 0 for all media, 1 for the endpoints, equilibrium 1",
            ok, f"got {v_full:.2g}/{v0:.7f}/{v2:.7f} + {lp_value:.7f} in {elapsed:.3f}s")


def test_criterion_03_recapture_semantics():
    game = make_uniform_overlap()
    pv = sa.activation_vector(game, sa.PureStrategy.of([0, 1]))
    oracle = sa.follower_oracle(game)
    rec = oracle.recapture[oracle.strategies.index(sa.PureStrategy.of([2]))]
    pvy = sa.activation_vector(game, sa.PureStrategy.of([2]))
    contribution = pv[1] * rec[1] + (1 - pv[1]) * pvy[1]
    ok = abs(contribution - 0.512) <= 1e-12
    _report(3, "middle customer's follower-acquisition term equals 0.512",
            ok, f"got {contribution!r}")


def test_criterion_04_disjoint_example_value_and_no_pure_equilibrium():
    game = make_private_customers()
    res = sa.solve_disjoint_lp(game)
    best_pure = max(sa.best_response(game, point(z.media)).leader_value
                    for z in sa.enumerate_leader(game))
    ok = abs(res.value - 18.0) <= 1e-6 and best_pure < res.value - 1e-6
    _report(4, "private-customer example: equilibrium 18, strictly above every pure commitment",
            ok, f"value {res.value:.7f}, best pure {best_pure:.7f}")


def test_criterion_05_disjoint_solver_matches_multi_lp():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        game = random_game(rng, n_max=6, m_max=12, kl_max=3, kf_max=2, disjoint=True)
        vd = sa.solve_disjoint_lp(game).value
        vm = sa.solve_multi_lp(game).value
        worst = max(worst, abs(vd - vm))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(5, "reduced and simplex-over-strategies solvers agree on 50 disjoint instances",
            ok, f"worst gap {worst:.2e} in {elapsed:.1f}s")


def test_criterion_06_decomposition_suite():
    rng = np.random.default_rng(123)
    worst_rec, worst_sum, max_support_excess = 0.0, 0.0, 0
    budget_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        k_L = int(rng.integers(0, n + 1))
        r = random_allocation(rng, n, k_L)
        x = sa.decompose_allocation(r, k_L)
        rec = sa.allocation_of(x, n)
        worst_rec = max(worst_rec, float(np.abs(rec - r).max()))
        worst_sum = max(worst_sum, abs(sum(x.weights.values()) - 1.0))
        max_support_excess = max(max_support_excess, len(x.weights) - (n + 1))
        budget_ok = budget_ok and all(len(s) <= k_L for s in x.weights)
    ok = (worst_rec <= 1e-9 and worst_sum <= 1e-12
          and max_support_excess <= 0 and budget_ok)
    _report(6, "1000 allocations decompose and reconstruct (support <= n+1)",
            ok, f"worst coord {worst_rec:.2e}, worst weight sum {worst_sum:.2e}")


def test_criterion_07_mwu_guarantee_with_exact_optimum():
    rng = np.random.default_rng(7)
    violations = 0
    worst_slack = np.inf
    for _ in range(20):
        game = random_game(rng, n_max=8, m_max=10, kl_max=3, kf_max=2)
        res = sa.solve_multi_lp(game)
        x, _ = sa.solve_mwu(game, sa.MwuConfig(iterations=200, epsilon=0.5))
        cert = sa.certify(game, x, exact=(res.leader, res.follower), epsilon=0.5)
        if not cert.bound_holds:
            violations += 1
        worst_slack = min(worst_slack,
                          cert.value - (cert.alpha * cert.opt_value - cert.beta))
    ok = violations == 0
    _report(7, "20 random instances: MWU meets (1-1/e-eps, beta) with eps=0.5, T=200",
            ok, f"{violations} violations, smallest slack {worst_slack:.4f}")


def test_criterion_08_property_suites():
    rng = np.random.default_rng(88)
    conservation_bad = rewriting_bad = 0
    for _ in range(500):
        game = random_game(rng, n_max=6, m_max=8)
        z = tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                    replace=False).tolist()))
        y = sa.PureStrategy.of(
            tuple(sorted(rng.choice(game.n, size=min(game.n, max(game.k_F, 1)),
                                    replace=False).tolist())))
        x = point(z)
        leader, follower = utilities_at(game, x, y)
        pvx = sa.mixed_activation_vector(game, x)
        pvy = sa.activation_vector(game, y)
        expected = float(pvx.sum() + (1 - pvx) @ pvy)
        if abs(leader + follower - expected) > 1e-12:
            conservation_bad += 1
        value = oracles.phi(game, {z: 1.0}, y.media)
        if abs(value - (leader - float((1 - pvx) @ pvy))) > 1e-12:
            rewriting_bad += 1

    submodular_bad = 0
    rng2 = np.random.default_rng(89)
    for _ in range(500):
        game = random_game(rng2, n_max=6, m_max=6)
        if game.n < 2:
            continue
        perm = [int(u) for u in rng2.permutation(game.n)]
        u, small = perm[0], set(perm[1:2])
        big = small | set(perm[1:3] if game.n > 2 else perm[1:2])
        v = int(rng2.integers(game.m))
        gs = (sa.activation_vector(game, sa.PureStrategy.of(small | {u}))[v]
              - sa.activation_vector(game, sa.PureStrategy.of(small))[v])
        gb = (sa.activation_vector(game, sa.PureStrategy.of(big | {u}))[v]
              - sa.activation_vector(game, sa.PureStrategy.of(big))[v])
        if gs < gb - 1e-12 or gb < -1e-12:
            submodular_bad += 1

    surrogate_bad = 0
    rng3 = np.random.default_rng(90)
    for _ in range(500):
        game = random_game(rng3, n_max=5, m_max=5)
        if game.n < 2:
            continue
        C = oracles.phi_constant(game)
        ys = oracles.subsets_up_to(game.n, game.k_F)
        y = sa.PureStrategy.of(ys[int(rng3.integers(len(ys)))])

        def h(z_set):
            return oracles.phi(game, {tuple(sorted(z_set)): 1.0}, y.media) + C

        perm = [int(u) for u in rng3.permutation(game.n)]
        u, small = perm[0], set(perm[1:2])
        big = small | set(perm[1:3] if game.n > 2 else perm[1:2])
        gs, gb = h(small | {u}) - h(small), h(big | {u}) - h(big)
        if gs < gb - 1e-12 or gb < -1e-12 or h(small) < -1e-12:
            surrogate_bad += 1

    br_set_bad = 0
    rng4 = np.random.default_rng(91)
    for _ in range(100):
        game = random_game(rng4, n_max=5, m_max=6)
        zs = oracles.subsets_up_to(game.n, game.k_L)
        picks = [zs[int(rng4.integers(len(zs)))] for _ in range(2)]
        w = float(rng4.uniform(0.2, 0.8))
        weights = {}
        for s, wi in zip(picks, (w, 1 - w)):
            weights[s] = weights.get(s, 0.0) + wi
        x = sa.MixedStrategy({sa.PureStrategy.of(s): wi for s, wi in weights.items()})
        strategies = sa.enumerate_follower(game)
        g_arg = set(sa.best_response(game, x).responses)
        phi_vals = np.array([oracles.phi(game, weights, y.media) for y in strategies])
        phi_arg = {strategies[i] for i in np.nonzero(phi_vals <= phi_vals.min() + 1e-9)[0]}
        if g_arg != phi_arg:
            br_set_bad += 1

    ok = (conservation_bad == rewriting_bad == submodular_bad
          == surrogate_bad == br_set_bad == 0)
    _report(8, "conservation/rewriting identities, submodularity, response-set equality",
            ok, f"violations {conservation_bad}/{rewriting_bad}/{submodular_bad}"
                f"/{surrogate_bad}/{br_set_bad}")


def test_criterion_09_heuristic_collapse():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(50):
        game = random_game(rng, n_max=6, m_max=8)
        x = sa.solve_heuristic(game, ell=1)
        ref_strategy, _ = reference_pure_greedy(game)
        if list(x.weights) != [ref_strategy] or x.weights[ref_strategy] != 1.0:
            mismatches += 1
    ok = mismatches == 0
    _report(9, "one-round heuristic equals the pure best-response greedy on 50 instances",
            ok, f"{mismatches} mismatches")


def test_criterion_10_protocol_trend():
    start = time.perf_counter()
    shape = dict(n=20, m=844, mean_degree=3506 / 844, p_dist=(0.0, 0.2),
                 budgets=((1, 2),), trials=30, base_seed=1000,
                 mwu_iterations=100, mwu_epsilon=0.5, heuristic_ell=10)
    aggressive = run_experiment(ExperimentSpec(
        pf_dist=(0.1, 0.9), algorithms=("greedy", "heuristic"), **shape))[0]
    mild = run_experiment(ExperimentSpec(
        pf_dist=(0.0, 0.2), algorithms=("greedy", "mwu", "heuristic"), **shape))[0]
    elapsed = time.perf_counter() - start

    g = np.array(aggressive.cells["greedy"].values, dtype=float)
    h = np.array(aggressive.cells["heuristic"].values, dtype=float)
    win_rate = float(np.mean(h >= g - 1e-9))
    means = [mild.cells[a].mean for a in ("greedy", "mwu", "heuristic")]
    spread = (max(means) - min(means)) / max(means)
    ok = (h.mean() >= g.mean() and win_rate >= 0.8 and spread <= 0.05
          and elapsed < 600.0)
    _report(10, "aggressive-recapture trend and mild-recapture agreement over 30 trials",
            ok, f"means {h.mean():.2f} vs {g.mean():.2f}, wins {win_rate:.0%}, "
                f"mild spread {spread:.2%}, {elapsed:.0f}s")


def test_criterion_11_lp_kernel():
    rng = np.random.default_rng(5)
    worst_diff = 0.0
    statuses_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(m, n))
        x0 = np.abs(rng.normal(size=n))
        senses, rhs = [], []
        for j in range(m):
            sense = ("<=", ">=", "=")[int(rng.integers(3))]
            base = float(A[j] @ x0)
            senses.append(sense)
            if sense == "<=":
                rhs.append(base + float(abs(rng.normal())))
            elif sense == ">=":
                rhs.append(base - float(abs(rng.normal())))
            else:
                rhs.append(base)
        senses.append("<=")
        rhs.append(float(x0.sum() + abs(rng.normal()) + 1.0))
        lp = sa.LinearProgram(rng.normal(size=n), np.vstack([A, np.ones(n)]), senses, rhs)
        out = sa.solve_lp(lp)
        if out.status != "optimal":
            statuses_ok = False
            continue
        worst_diff = max(worst_diff, abs(out.value - oracles.scipy_lp(lp)[1]))

    infeasible = sa.solve_lp(sa.LinearProgram([1.0], [[1.0], [1.0]], [">=", "<="], [2.0, 1.0]))
    unbounded = sa.solve_lp(sa.LinearProgram([1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0]))
    ok = (worst_diff <= 1e-6 and statuses_ok
          and infeasible.status == "infeasible" and unbounded.status == "unbounded")
    _report(11, "optimum within 1e-6 of HiGHS on 200 random LPs; infeasible/unbounded classified",
            ok, f"worst difference {worst_diff:.2e}")
