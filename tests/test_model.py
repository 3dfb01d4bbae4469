import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from stackalloc import (BipartiteInfluenceGame, FractionalAllocation,
                        InstanceFormatError, MixedStrategy, PureStrategy,
                        allocation_of, dump_instance, generate_instance,
                        is_disjoint, load_instance, validate)
from stackalloc.model import count_subsets, iter_subsets

import oracles
from conftest import make_private_customers, make_no_pure_optimum, make_overfunding_trap, random_game


def test_validate_accepts_worked_example(no_pure_optimum):
    assert validate(no_pure_optimum) is None
    assert no_pure_optimum.n == 3 and no_pure_optimum.m == 4 and len(no_pure_optimum.edges) == 5


def test_validate_probability_out_of_range(no_pure_optimum):
    bad = BipartiteInfluenceGame.build(
        3, 4, [(u, v, (1.5 if (u, v) == (0, 0) else no_pure_optimum.p[(u, v)]), no_pure_optimum.p_F[(u, v)])
               for u, v in no_pure_optimum.edges], 1, 1)
    assert "probability out of range" in validate(bad)


def test_validate_budget_exceeds_media_count(no_pure_optimum):
    bad = BipartiteInfluenceGame.build(
        3, 4, [(u, v, no_pure_optimum.p[(u, v)], no_pure_optimum.p_F[(u, v)]) for u, v in no_pure_optimum.edges],
        k_L=4, k_F=1)
    assert "budget exceeds media count" in validate(bad)


def test_validate_duplicate_edge_and_bad_index():
    dup = BipartiteInfluenceGame(n=2, m=2, edges=((0, 0), (0, 0)),
                                 p={(0, 0): 0.5}, p_F={(0, 0): 0.5}, k_L=1, k_F=1)
    assert "duplicate edge" in validate(dup)
    oob = BipartiteInfluenceGame.build(2, 2, [(0, 5, 0.5, 0.5)], 1, 1)
    assert "out of range" in validate(oob)


@pytest.mark.parametrize("n,m,rows,k_L,k_F,message", [
    (-1, 2, [], 0, 0, "negative media or customer count"),
    (2, -1, [], 0, 0, "negative media or customer count"),
    (2, 2, [], 3, 1, "leader budget exceeds media count (k_L=3, n=2)"),
    (2, 2, [], -1, 1, "negative leader budget k_L=-1"),
    (2, 2, [], 1, 3, "follower budget exceeds media count (k_F=3, n=2)"),
    (2, 2, [], 1, -2, "negative follower budget k_F=-2"),
    (2, 2, [(0, 0, 0.5, 0.5), (-1, 1, 0.5, 0.5)], 1, 1, "edge index out of range (-1, 1)"),
    (2, 2, [(1, -3, 0.5, 0.5)], 1, 1, "edge index out of range (1, -3)"),
    (2, 2, [(2, 0, 0.5, 0.5)], 1, 1, "edge index out of range (2, 0)"),
    # Index and duplicate checks come before any probability check.
    (2, 2, [(0, 0, 1.5, 0.5), (1, 2, 0.5, 0.5)], 1, 1, "edge index out of range (1, 2)"),
    # Duplicates that are not adjacent in input order.
    (2, 2, [(1, 1, 0.5, 0.5), (0, 0, 0.5, 0.5), (0, 1, 0.5, 0.5), (1, 1, 0.25, 0.5)], 1, 1,
     "duplicate edge (1, 1)"),
    (2, 2, [(1, 0, 0.5, 0.5), (0, 0, 1.5, 0.5)], 1, 1, "probability out of range: p(0, 0) = 1.5"),
    (2, 2, [(0, 0, 0.5, -0.25), (1, 0, 2.0, 0.5)], 1, 1,
     "probability out of range: p_F(0, 0) = -0.25"),
    (2, 2, [(0, 0, 0.5, 0.5), (1, 0, 0.5, float("nan"))], 1, 1,
     "probability out of range: p_F(1, 0) = nan"),
    (2, 2, [(0, 1, 0.5, float("inf"))], 1, 1, "probability out of range: p_F(0, 1) = inf"),
])
def test_validate_messages(n, m, rows, k_L, k_F, message):
    assert validate(BipartiteInfluenceGame.build(n, m, rows, k_L, k_F)) == message


def test_edges_are_sorted_arrays_whatever_the_input_order(no_pure_optimum):
    game = no_pure_optimum
    rows = list(zip(game.edges, game.p.values(), game.p_F.values()))
    shuffled = BipartiteInfluenceGame.build(
        3, 4, [(u, v, p, pf) for (u, v), p, pf in rows[::-1]], 1, 1)
    keyword = BipartiteInfluenceGame(n=3, m=4, edges=game.edges[::-1], p=dict(game.p),
                                     p_F=dict(game.p_F), k_L=1, k_F=1)
    for other in (shuffled, keyword):
        for name in ("edge_media", "edge_customers", "edge_p", "edge_pf"):
            assert np.array_equal(getattr(other, name), getattr(game, name))
    assert game.edges == ((0, 0), (0, 1), (1, 1), (1, 2), (2, 3))
    assert game.customer_neighbors == ((0,), (0, 1), (1,), (2,))
    assert game.p[(2, 3)] == 0.599 and game.p_F[(0, 1)] == 0.5


def test_game_arrays_and_views_are_read_only(no_pure_optimum):
    game = no_pure_optimum
    with pytest.raises(ValueError, match="read-only"):
        game.edge_p[0] = 0.5
    for name in ("edge_media", "edge_customers", "edge_pf"):
        assert not getattr(game, name).flags.writeable
    with pytest.raises(TypeError):
        game.p[(0, 0)] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        game.edge_p = np.zeros(5)


@pytest.mark.parametrize("p,p_F,message", [
    ({(0, 0): 0.5}, {(0, 0): 0.5, (1, 1): 0.5}, r"missing p value on edge \(1, 1\)"),
    ({(0, 0): 0.5, (1, 1): 0.5}, {(1, 1): 0.5}, r"missing p_F value on edge \(0, 0\)"),
    ({(0, 0): 0.5, (1, 1): 0.5, (1, 0): 0.5}, {(0, 0): 0.5, (1, 1): 0.5},
     r"p value on unknown edge \(1, 0\)"),
    ({(0, 0): 0.5, (1, 1): 0.5}, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.5},
     r"p_F value on unknown edge \(0, 1\)"),
])
def test_keyword_constructor_rejects_maps_that_do_not_match_the_edges(p, p_F, message):
    with pytest.raises(ValueError, match=message):
        BipartiteInfluenceGame(n=2, m=2, edges=((0, 0), (1, 1)), p=p, p_F=p_F, k_L=1, k_F=1)


def test_is_disjoint_matches_the_neighbor_rule():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m = int(rng.integers(1, 5)), int(rng.integers(0, 6))
        pairs = [(u, v) for u in range(n) for v in range(m) if rng.uniform() < 0.3]
        game = BipartiteInfluenceGame.build(n, m, [(u, v, 0.5, 0.5) for u, v in pairs], 0, 0)
        neighbors = [[u for u, w in pairs if w == v] for v in range(m)]
        assert is_disjoint(game) == all(len(nv) <= 1 for nv in neighbors)


NO_PURE_OPTIMUM_TEXT = """\
# no-pure-optimum example
3 4 1 1
0 0 0.1 0
0 1 1 0.5
1 1 1 0.5
1 2 0.1 0
2 3 0.599 0
"""


def test_load_instance_no_pure_optimum(no_pure_optimum):
    game = load_instance(io.StringIO(NO_PURE_OPTIMUM_TEXT))
    assert game.edges == no_pure_optimum.edges
    assert game.p == no_pure_optimum.p and game.p_F == no_pure_optimum.p_F
    assert (game.k_L, game.k_F) == (1, 1)


def test_load_instance_minimal():
    game = load_instance(io.StringIO("1 1 0 0\n0 0 0.5 0.5\n"))
    assert game.n == 1 and game.m == 1 and game.p[(0, 0)] == 0.5


def test_load_instance_overfunding_trap(overfunding_trap):
    text = "3 2 3 1\n0 0 1 0\n1 0 0 1\n1 1 0 1\n2 1 1 0\n"
    game = load_instance(io.StringIO(text))
    assert game.edges == overfunding_trap.edges and game.p == overfunding_trap.p


@pytest.mark.parametrize("text,fragment", [
    ("3 4 1\n", "header"),
    ("3 4 1 1\n0 0 0.5\n", "edge line"),
    ("3 4 1 1\n0 0 0.5 0.5\n0 0 0.5 0.5\n", "duplicate"),
    ("3 4 1 1\n7 0 0.5 0.5\n", "out of range"),
    ("3 4 1 1\n0 0 1.5 0.5\n", "probability"),
    ("3 4 9 1\n", "budget"),
])
def test_load_instance_errors_name_the_line(text, fragment):
    with pytest.raises(InstanceFormatError) as err:
        load_instance(io.StringIO(text))
    assert fragment in str(err.value)
    assert err.value.line_no >= 1


def test_round_trip_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        game = random_game(rng)
        buf = io.StringIO()
        dump_instance(game, buf, comment="round trip")
        again = load_instance(io.StringIO(buf.getvalue()))
        assert again.edges == game.edges
        assert again.p == game.p and again.p_F == game.p_F
        assert (again.k_L, again.k_F) == (game.k_L, game.k_F)


def test_generate_instance_movielens_shape():
    game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), (0.1, 0.9), seed=1)
    assert validate(game) is None
    assert game.n == 20 and game.m == 844
    assert len(game.edges) == 844 * 4  # rounded mean degree, one draw per customer
    assert all(0.0 <= game.p[e] <= 0.2 for e in game.edges)
    assert all(0.1 <= game.p_F[e] <= 0.9 for e in game.edges)


def test_generate_instance_degenerate_distribution():
    game = generate_instance(1, 1, 1, (0.3, 0.3), (0.3, 0.3), seed=99)
    assert game.edges == ((0, 0),)
    assert game.p[(0, 0)] == 0.3 and game.p_F[(0, 0)] == 0.3


def test_generate_instance_deterministic():
    a = generate_instance(8, 20, 2.5, (0.0, 0.5), (0.2, 0.8), seed=7)
    b = generate_instance(8, 20, 2.5, (0.0, 0.5), (0.2, 0.8), seed=7)
    assert a.edges == b.edges and a.p == b.p and a.p_F == b.p_F
    c = generate_instance(8, 20, 2.5, (0.0, 0.5), (0.2, 0.8), seed=8)
    assert a.p != c.p


def test_generate_instance_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_instance(3, 5, 4.0, (0.0, 0.5), (0.0, 0.5), seed=0)
    with pytest.raises(ValueError):
        generate_instance(3, 5, 1.0, (0.5, 0.1), (0.0, 0.5), seed=0)


def assert_same_dump(*args):
    """generate_instance and the reference loop write the same file."""
    ours, reference = io.StringIO(), io.StringIO()
    dump_instance(generate_instance(*args), ours)
    dump_instance(oracles.generate_instance(*args), reference)
    ours, reference = ours.getvalue().splitlines(), reference.getvalue().splitlines()
    line = next((i for i, pair in enumerate(zip(ours, reference)) if pair[0] != pair[1]),
                min(len(ours), len(reference)))
    assert len(ours) == len(reference) == line, f"{args}: first difference on line {line + 1}"


# (n, m, mean degree): the paper's shape, the four exact-lp shapes of the
# benchmark, degree = n, one medium, no customers, and numpy's tail-shuffle
# branch of choice (n > 10000 and degree > n // 50).
SAMPLER_SHAPES = [(20, 844, 3506 / 844), (10, 200, 3), (10, 100, 3), (12, 400, 1), (15, 300, 1),
                  (7, 40, 7), (1, 9, 1), (5, 0, 2), (0, 0, 0), (10001, 60, 201)]


@pytest.mark.parametrize("n,m,degree", SAMPLER_SHAPES)
def test_generate_instance_replays_the_per_customer_loop(n, m, degree):
    for seed in range(4):
        assert_same_dump(n, m, degree, (0.0, 0.2), (0.1, 0.9), seed)


@pytest.mark.parametrize("n,m,degree,seeds", [
    # Floyd's branch: the draw on [0, n - 1] is rejected with probability
    # about 1/2, so most customers redraw, some several times.
    (2 ** 31 + 1, 50, 4, (0, 1)),
    # The tail shuffle: seeds 0 and 4 each reject two 32-bit draws here.
    (100000, 60, 2001, (0, 4)),
])
def test_generate_instance_replays_rejected_draws(n, m, degree, seeds):
    for seed in seeds:
        assert_same_dump(n, m, degree, (0.0, 1.0), (0.0, 1.0), seed)


def test_generate_instance_rejects_media_counts_that_need_64_bit_draws():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        generate_instance(2 ** 32, 1, 1, (0.0, 0.2), (0.1, 0.9), seed=0)
    assert generate_instance(2 ** 32, 0, 1, (0.0, 0.2), (0.1, 0.9), seed=0).edge_media.size == 0


@pytest.mark.parametrize("n,m,k_L,k_F", [
    (3, 5, 5, None), (3, 5, None, 4), (3, 5, -1, None), (3, 5, None, -2),
    (-1, 0, None, None), (-1, 0, 0, 0), (3, -1, None, None),
])
def test_generate_instance_rejects_sizes_and_budgets_outside_the_invariants(n, m, k_L, k_F):
    with pytest.raises(ValueError):
        generate_instance(n, m, 0, (0.0, 0.2), (0.1, 0.9), seed=0, k_L=k_L, k_F=k_F)


def test_is_disjoint():
    assert not is_disjoint(make_overfunding_trap())
    assert is_disjoint(make_private_customers())
    empty = BipartiteInfluenceGame.build(3, 2, [], 1, 1)
    assert is_disjoint(empty)
    assert not is_disjoint(make_no_pure_optimum())
    # Needs no memory of m's size, and no valid index to answer.
    huge = BipartiteInfluenceGame.build(2, 10**12, [(0, 10**12 - 1, .5, .5), (1, 5, .5, .5)], 1, 1)
    assert is_disjoint(huge)
    assert not is_disjoint(BipartiteInfluenceGame.build(2, 1, [(0, -1, .5, .5), (1, -1, .5, .5)], 1, 1))


def test_allocation_of_half_half():
    x = MixedStrategy({PureStrategy.of([0]): 0.5, PureStrategy.of([1]): 0.5})
    assert np.allclose(allocation_of(x, 3).r, [0.5, 0.5, 0.0])


def test_allocation_of_empty_support():
    x = MixedStrategy.point_mass(PureStrategy.empty())
    assert np.array_equal(allocation_of(x, 4).r, np.zeros(4))


def test_allocation_of_three_atom_mixture():
    third = 1.0 / 3.0
    x = MixedStrategy({PureStrategy.of([0, 3]): third,
                       PureStrategy.of([0, 1, 3]): third,
                       PureStrategy.of([0, 2, 3]): third})
    assert np.allclose(allocation_of(x, 4).r, [1.0, third, third, 1.0], atol=1e-15)


def test_allocation_respects_budget_for_capped_mixes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        game = random_game(rng)
        subsets = [tuple(sorted(rng.choice(game.n, size=int(rng.integers(0, game.k_L + 1)),
                                           replace=False).tolist()))
                   for _ in range(4)]
        w = rng.dirichlet(np.ones(len(set(subsets))))
        x = MixedStrategy({PureStrategy.of(s): float(wi)
                           for s, wi in zip(sorted(set(subsets)), w)})
        alloc = allocation_of(x, game.n)
        assert alloc.total() <= game.k_L + 1e-9
        assert np.all(alloc.r <= 1.0 + 1e-12)


def test_mixed_strategy_validation():
    with pytest.raises(ValueError):
        MixedStrategy({PureStrategy.of([0]): 0.6})  # does not sum to one
    with pytest.raises(ValueError):
        MixedStrategy({PureStrategy.of([0]): 1.2, PureStrategy.of([1]): -0.2})


def test_fractional_allocation_bounds():
    with pytest.raises(ValueError):
        FractionalAllocation(np.array([1.2, 0.0]))
    FractionalAllocation(np.array([1.0, 0.3]))  # fine


def test_pure_strategy_ordering_is_lexicographic():
    a, b, c = PureStrategy.of([0]), PureStrategy.of([0, 1]), PureStrategy.of([1])
    assert a < b < c
    assert PureStrategy.empty() < a


def test_subset_enumeration_order_and_count():
    subs = list(iter_subsets(3, 2))
    assert subs == [(), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    assert subs == sorted(subs)
    assert count_subsets(20, 2) == 1 + 20 + math.comb(20, 2)
    assert count_subsets(3, 5) == 8  # max_size clamps at n


# SHA-256 of dump_instance, recorded when generation still called
# rng.choice and rng.random per customer; they hold unchanged for the
# sampler that replays that stream from raw PCG64 words.  Any change to
# the random stream or its use breaks these.
GOLDEN_SHAPES = (
    dict(n=20, m=844, mean_degree=3506 / 844, p_dist=(0.0, 1.0), pf_dist=(0.1, 0.9),
         k_L=2, k_F=2),
    dict(n=7, m=40, mean_degree=2.6, p_dist=(0.2, 0.5), pf_dist=(0.0, 0.2),
         k_L=1, k_F=3),
)
GOLDEN_DIGESTS = {
    (0, 0): "3c27031089289c6af50ce529820753bfa750f9472aee259d9fc653e4b7547cbd",
    (0, 1): "9b0f00aba02a694d86befaf04b89875cf1aa5e4d3f7e98258846419a9911cb6f",
    (0, 29): "b44371bc451a4d5a63231b3b1bb3754040129898e66c423974be9d331130d831",
    (1, 0): "6ba46db607c08f9cf1281e8df1633e43d52e62b219d53cd181ab1f7a843ca534",
    (1, 1): "df9ab6fe549995e3153bee64bd9849f1841f8cb658b9f2f081d75f813cc614b8",
    (1, 29): "95a3eafa3805fd527a2bc0e8e5f2c0ebe2ce9f7fda77abb37248d58f9b251b15",
}


@pytest.mark.parametrize("shape,seed", sorted(GOLDEN_DIGESTS))
def test_generate_instance_random_stream_is_pinned(shape, seed):
    out = io.StringIO()
    dump_instance(generate_instance(seed=seed, **GOLDEN_SHAPES[shape]), out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN_DIGESTS[shape, seed]


def test_media_ptr_slices_edges_by_medium(no_pure_optimum):
    game = no_pure_optimum
    assert game.media_ptr.tolist() == [0, 2, 4, 5]
    for u in range(game.n):
        lo, hi = game.media_ptr[u], game.media_ptr[u + 1]
        assert set(game.edge_media[lo:hi].tolist()) <= {u}
    empty = BipartiteInfluenceGame.build(3, 2, [], 1, 1)
    assert empty.media_ptr.tolist() == [0, 0, 0, 0]
