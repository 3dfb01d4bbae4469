import numpy as np
import pytest

from stackalloc import (BipartiteInfluenceGame, FollowerOracle, MixedStrategy,
                        PureStrategy, activation_vector, enumerate_follower,
                        follower_oracle, mixed_activation_vector)
from stackalloc.payoff import activation_rows, survival

import oracles
from conftest import follower_rows, random_game, utilities_at


def point(media):
    return MixedStrategy.point_mass(PureStrategy.of(media))


def test_activation_prob_uniform_overlap(uniform_overlap):
    z = PureStrategy.of([0, 1])
    assert activation_vector(uniform_overlap, z)[1] == pytest.approx(0.96, abs=1e-15)
    assert oracles.activation(uniform_overlap, 1, z) == pytest.approx(0.96, abs=1e-15)
    assert activation_vector(uniform_overlap, PureStrategy.empty())[2] == 0.0
    assert oracles.activation(uniform_overlap, 2, ()) == 0.0


def test_activation_prob_single_edge():
    game = BipartiteInfluenceGame.build(1, 1, [(0, 0, 0.1, 0.5)], 1, 1)
    assert activation_vector(game, PureStrategy.of([0]))[0] == pytest.approx(0.1, abs=1e-15)
    assert oracles.activation(game, 0, (0,)) == pytest.approx(0.1, abs=1e-15)


def test_recapture_prob_examples(uniform_overlap, no_pure_optimum):
    # rows of the follower oracle's recapture table: P_{F,v}(y) per strategy
    def recapture(game, y):
        oracle = follower_oracle(game)
        return oracle.recapture[oracle.strategies.index(PureStrategy.of(y))]

    y = PureStrategy.of([2])
    assert recapture(uniform_overlap, y)[1] == pytest.approx(0.5, abs=1e-15)
    assert oracles.recapture(uniform_overlap, 1, y) == pytest.approx(0.5, abs=1e-15)
    assert recapture(uniform_overlap, PureStrategy.empty())[0] == 0.0
    assert oracles.recapture(uniform_overlap, 0, ()) == 0.0
    # the lone edge into the last customer has p_F = 0
    assert recapture(no_pure_optimum, y)[3] == 0.0
    assert oracles.recapture(no_pure_optimum, 3, y) == 0.0


def test_leader_utility_pure_examples(overfunding_trap):
    for z, y, expected in (((0, 1, 2), (1,), 0.0), ((0,), (2,), 1.0), ((), (1,), 0.0)):
        leader, _ = utilities_at(overfunding_trap, point(z), y)
        assert leader == pytest.approx(expected, abs=1e-15)
        assert oracles.f_pure(overfunding_trap, z, y) == pytest.approx(expected, abs=1e-15)
    assert utilities_at(overfunding_trap, point(()), [1])[0] == 0.0


def test_follower_utility_pure_uniform_overlap_contribution(uniform_overlap):
    z, y = PureStrategy.of([0, 1]), PureStrategy.of([2])
    pv = activation_vector(uniform_overlap, z)
    (pvy,), (rec,) = follower_rows(uniform_overlap, y)
    v2 = pv[1] * rec[1] + (1 - pv[1]) * pvy[1]
    assert v2 == pytest.approx(0.512, abs=1e-12)
    assert utilities_at(uniform_overlap, point(z), y)[1] == pytest.approx(
        oracles.g_pure(uniform_overlap, (0, 1), (2,)), abs=1e-12)


def test_follower_utility_pure_empty_and_no_pure_optimum(no_pure_optimum):
    assert utilities_at(no_pure_optimum, point([0]), ())[1] == 0.0
    assert oracles.g_pure(no_pure_optimum, (0,), ()) == 0.0
    # frozen from the event-enumeration oracle: 1*0.5 + 1*0.1 = 0.6
    assert oracles.g_pure(no_pure_optimum, (0,), (1,)) == pytest.approx(0.6, abs=1e-12)
    assert utilities_at(no_pure_optimum, point([0]), [1])[1] == pytest.approx(0.6, abs=1e-12)


def test_utilities_mixed_no_pure_optimum_mixture(no_pure_optimum):
    x = MixedStrategy({PureStrategy.of([0]): 0.5, PureStrategy.of([1]): 0.5})
    leader, follower = utilities_at(no_pure_optimum, x, [2])
    assert leader == pytest.approx(1.1, abs=1e-12)
    assert follower == pytest.approx(0.599, abs=1e-12)


def test_utilities_mixed_point_mass_equals_pure(uniform_overlap):
    rng = np.random.default_rng(0)
    for _ in range(20):
        game = random_game(rng)
        z = tuple(sorted(rng.choice(game.n, size=min(game.n, 2), replace=False).tolist()))
        y = tuple(sorted(rng.choice(game.n, size=min(game.n, 1), replace=False).tolist()))
        leader, follower = utilities_at(game, point(z), y)
        assert leader == pytest.approx(oracles.f_pure(game, z, y), abs=1e-12)
        assert follower == pytest.approx(oracles.g_pure(game, z, y), abs=1e-12)


def test_utilities_mixed_private_customers(private_customers):
    third = 1.0 / 3.0
    x = MixedStrategy({PureStrategy.of([0, 3]): third,
                       PureStrategy.of([0, 1, 3]): third,
                       PureStrategy.of([0, 2, 3]): third})
    leader, _ = utilities_at(private_customers, x, [1, 2])
    assert leader == pytest.approx(18.0, abs=1e-12)
    assert leader == pytest.approx(
        oracles.f_mixed(private_customers, oracles.weights_of(x), (1, 2)), abs=1e-12)


def test_pure_utilities_match_event_enumeration_oracle():
    # The f/g kernel behind every solver: whole tables over the follower
    # set, for stacked leader rows and for one row at a time.
    rng = np.random.default_rng(21)
    games = [random_game(rng, n_max=5, m_max=6, kf_max=5) for _ in range(40)]
    games += [sparse_game(rng, k) for k in range(4)]  # each has a medium without edges
    games += [BipartiteInfluenceGame.build(3, 2, [(0, 0, 0.3, 0.6), (2, 1, 0.8, 0.1)],
                                           k_L=2, k_F=0),
              BipartiteInfluenceGame.build(4, 0, [], k_L=2, k_F=2)]  # m = 0
    for game in games:
        oracle = FollowerOracle(game)
        zs = [tuple(sorted(rng.choice(game.n, size=int(rng.integers(0, game.n + 1)),
                                      replace=False).tolist())) for _ in range(3)]
        pvz = np.array([activation_vector(game, z) for z in zs]).reshape(len(zs), game.m)
        f_all, g_all = oracle.utilities(pvz)
        assert f_all.shape == g_all.shape == (len(zs), len(oracle))
        ys = [y.media for y in oracle.strategies]
        for i, z in enumerate(zs):
            f, g = oracle.utilities(pvz[i])
            # BLAS may sum one row in another order than a stack of rows.
            np.testing.assert_allclose(f[0], f_all[i], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(g[0], g_all[i], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(f[0], [oracles.f_pure(game, z, y) for y in ys],
                                       rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(g[0], [oracles.g_pure(game, z, y) for y in ys],
                                       rtol=0.0, atol=1e-10)


def test_phi_identities_and_empty_response():
    rng = np.random.default_rng(33)
    for _ in range(30):
        game = random_game(rng)
        z = tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                    replace=False).tolist()))
        y = tuple(sorted(rng.choice(game.n, size=min(game.n, max(game.k_F, 1)),
                                    replace=False).tolist()))
        x = point(z)
        pvx = mixed_activation_vector(game, x)
        pvy = activation_vector(game, y)
        leader, follower = utilities_at(game, x, y)
        value = oracles.phi(game, {z: 1.0}, y)
        assert value == pytest.approx(leader - float((1 - pvx) @ pvy), abs=1e-12)
        assert value == pytest.approx(-follower + pvx.sum(), abs=1e-12)
        assert oracles.phi(game, {z: 1.0}, ()) == pytest.approx(pvx.sum(), abs=1e-12)


def test_phi_constant_no_pure_optimum(no_pure_optimum):
    # MWU takes C from the oracle.
    assert oracles.phi_constant(no_pure_optimum) == pytest.approx(1.1, abs=1e-12)
    assert follower_oracle(no_pure_optimum).C == pytest.approx(1.1, abs=1e-12)


def test_phi_lower_bound_via_constant():
    rng = np.random.default_rng(44)
    for _ in range(25):
        game = random_game(rng)
        C = oracles.phi_constant(game)
        assert C >= -1e-12
        for y in oracles.subsets_up_to(game.n, game.k_F):
            z = tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                        replace=False).tolist()))
            assert -oracles.phi(game, {z: 1.0}, y) <= C + 1e-9


def test_conservation_identity_rapid():
    rng = np.random.default_rng(55)
    for _ in range(50):
        game = random_game(rng)
        z = tuple(sorted(rng.choice(game.n, size=min(game.n, game.k_L),
                                    replace=False).tolist()))
        y = tuple(sorted(rng.choice(game.n, size=min(game.n, max(game.k_F, 1)),
                                    replace=False).tolist()))
        x = point(z)
        leader, follower = utilities_at(game, x, y)
        pvx = mixed_activation_vector(game, x)
        pvy = activation_vector(game, y)
        expected = float(pvx.sum() + (1 - pvx) @ pvy)
        assert leader + follower == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= leader <= game.m and 0.0 <= follower <= game.m
        assert leader + follower <= game.m + 1e-12


def test_mixed_evaluation_linear_in_x():
    rng = np.random.default_rng(66)
    for _ in range(20):
        game = random_game(rng, n_max=5)
        subsets = oracles.subsets_up_to(game.n, game.k_L)
        z1 = subsets[int(rng.integers(len(subsets)))]
        z2 = subsets[int(rng.integers(len(subsets)))]
        y = subsets[int(rng.integers(len(subsets)))]
        alpha = float(rng.uniform(0.1, 0.9))
        if z1 == z2:
            continue
        blend = MixedStrategy({PureStrategy.of(z1): alpha, PureStrategy.of(z2): 1 - alpha})
        (f1, g1), (f2, g2) = utilities_at(game, point(z1), y), utilities_at(game, point(z2), y)
        fb, gb = utilities_at(game, blend, y)
        assert fb == pytest.approx(alpha * f1 + (1 - alpha) * f2, abs=1e-12)
        assert gb == pytest.approx(alpha * g1 + (1 - alpha) * g2, abs=1e-12)


def test_activation_is_monotone_submodular():
    rng = np.random.default_rng(77)
    for _ in range(60):
        game = random_game(rng, n_max=6)
        if game.n < 2:
            continue
        perm = rng.permutation(game.n)
        cut = int(rng.integers(1, game.n))
        small = set(int(u) for u in perm[:max(1, cut // 2)])
        big = small | set(int(u) for u in perm[:cut])
        outside = [int(u) for u in perm[cut:]]
        if not outside:
            continue
        u = outside[0]
        for v in range(game.m):
            gain_small = (oracles.activation(game, v, small | {u})
                          - oracles.activation(game, v, small))
            gain_big = (oracles.activation(game, v, big | {u})
                        - oracles.activation(game, v, big))
            assert gain_small >= gain_big - 1e-12
            assert gain_big >= -1e-12
        gain_small = (activation_vector(game, PureStrategy.of(small | {u}))
                      - activation_vector(game, PureStrategy.of(small)))
        gain_big = (activation_vector(game, PureStrategy.of(big | {u}))
                    - activation_vector(game, PureStrategy.of(big)))
        assert (gain_small >= gain_big - 1e-12).all() and (gain_big >= -1e-12).all()


def sparse_game(rng, k):
    """Random game with isolated customers and at least one medium without edges."""
    n = int(rng.integers(1, 8))
    m = int(rng.integers(0, 13))
    bare = int(rng.integers(n))  # this medium gets no edges
    rows = []
    for v in range(m):
        deg = int(rng.integers(0, n))  # degree 0 leaves v isolated
        for u in sorted(int(u) for u in rng.choice(n, size=deg, replace=False)):
            if u != bare:
                rows.append((u, v, rng.uniform(), rng.uniform()))
    return BipartiteInfluenceGame.build(n, m, rows, k_L=min(k, n), k_F=min(k, n))


def scatter_survival(game, y, probs):
    """The per-strategy scatter the prefix products replace."""
    s = np.ones(game.m)
    sel = np.isin(game.edge_media, y.media)
    np.multiply.at(s, game.edge_customers[sel], 1.0 - probs[sel])
    return s


def test_activation_rows_equal_per_strategy_vectors():
    rng = np.random.default_rng(4242)
    games = [sparse_game(rng, k) for k in range(5) for _ in range(12)]
    games.append(BipartiteInfluenceGame.build(4, 0, [], k_L=2, k_F=2))  # m = 0
    for game in games:
        strategies = enumerate_follower(game)
        act = activation_rows(game, strategies)
        rec = activation_rows(game, strategies, game.pf_table)
        assert act.shape == rec.shape == (len(strategies), game.m)
        assert np.array_equal(act, [activation_vector(game, y) for y in strategies])
        assert np.array_equal(act, [1.0 - scatter_survival(game, y, game.edge_p)
                                    for y in strategies])
        assert np.array_equal(rec, [1.0 - scatter_survival(game, y, game.edge_pf)
                                    for y in strategies])
        # The greedy engines' kernel: one prefix, multiplied in pick order
        # as their former running products were.
        assert np.array_equal(act, [1.0 - survival(game, y.media) for y in strategies])
        picks, s = [int(u) for u in rng.permutation(game.n)], np.ones(game.m)
        assert np.array_equal(survival(game, []), s)
        for i, u in enumerate(picks):
            s *= 1.0 - game.p_table[u]
            assert np.array_equal(survival(game, picks[:i + 1]), s)


def test_activation_rows_zero_budget_and_prefix_check(uniform_overlap):
    assert np.array_equal(activation_rows(uniform_overlap, [PureStrategy.empty()]),
                          np.zeros((1, uniform_overlap.m)))
    with pytest.raises(ValueError, match="before its prefix"):
        activation_rows(uniform_overlap, [PureStrategy.empty(), PureStrategy.of([0, 1])])


def test_vectors_reject_a_mask_in_place_of_indices(uniform_overlap):
    z = PureStrategy.of([2])
    assert np.array_equal(activation_vector(uniform_overlap, np.array([2])),
                          activation_vector(uniform_overlap, z))
    with pytest.raises(TypeError):
        activation_vector(uniform_overlap, np.arange(uniform_overlap.n) == 2)
    # A list mask used to read as media {0, 1}.
    with pytest.raises(TypeError):
        activation_vector(uniform_overlap, [True, False, True])


def test_tables_equal_the_edge_maps():
    rng = np.random.default_rng(77)
    games = [sparse_game(rng, 2) for _ in range(30)]
    games.append(BipartiteInfluenceGame.build(3, 2, [], k_L=1, k_F=1))  # no edges
    games.append(BipartiteInfluenceGame.build(4, 0, [], k_L=2, k_F=2))  # m = 0
    for game in games:
        for table, probs in zip((game.p_table, game.pf_table), oracles.edge_maps(game)):
            assert table.shape == (game.n, game.m)
            assert table.tolist() == [[probs.get((u, v), 0.0) for v in range(game.m)]
                                      for u in range(game.n)]
