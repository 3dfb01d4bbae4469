import dataclasses
import hashlib
import io
import math
import re

import numpy as np
import pytest

from stackalloc import (BipartiteInfluenceGame, InstanceFormatError, MixedStrategy,
                        PureStrategy, allocation_of, dump_instance, generate_instance,
                        is_disjoint, load_instance)
from stackalloc.model import count_subsets, iter_subsets

import oracles
from conftest import make_private_customers, make_no_pure_optimum, make_overfunding_trap, random_game


def assert_rejected(message, n, m, rows, k_L, k_F):
    """``build`` and ``from_arrays`` (given the columns as lists) both raise
    ValueError with exactly ``message``."""
    columns = [list(column) for column in zip(*rows)] or [np.zeros(0)] * 4
    for construct in (lambda: BipartiteInfluenceGame.build(n, m, rows, k_L, k_F),
                      lambda: BipartiteInfluenceGame.from_arrays(n, m, *columns, k_L, k_F)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            construct()


def edge_rows(game):
    """The game's (u, v, p, p_F) rows, in its (u, v) order."""
    return list(zip(game.edge_media.tolist(), game.edge_customers.tolist(),
                    game.edge_p.tolist(), game.edge_pf.tolist()))


def test_validate_accepts_worked_example(no_pure_optimum):
    game = no_pure_optimum
    again = BipartiteInfluenceGame.from_arrays(3, 4, game.edge_media, game.edge_customers,
                                               game.edge_p, game.edge_pf, 1, 1)
    assert game.n == 3 and game.m == 4 and len(game.edges) == 5
    assert again.edges == game.edges and edge_rows(again) == edge_rows(game)


def test_validate_probability_out_of_range(no_pure_optimum):
    rows = [(u, v, 1.5 if (u, v) == (0, 0) else p, pf)
            for u, v, p, pf in edge_rows(no_pure_optimum)]
    assert_rejected("probability out of range: p(0, 0) = 1.5", 3, 4, rows, 1, 1)


def test_validate_budget_exceeds_media_count(no_pure_optimum):
    assert_rejected("leader budget exceeds media count (k_L=4, n=3)",
                    3, 4, edge_rows(no_pure_optimum), 4, 1)


def test_validate_duplicate_edge_and_bad_index():
    assert_rejected("duplicate edge (0, 0)", 2, 2, [(0, 0, 0.5, 0.5), (0, 0, 0.5, 0.5)], 1, 1)
    assert_rejected("edge index out of range (0, 5)", 2, 2, [(0, 5, 0.5, 0.5)], 1, 1)


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
    # Non-integer sizes, budgets and index columns raise instead of truncating.
    (2, 2, [(0.7, 1.9, .5, .5)], 1, 1, "edge media must be integers, got dtype float64"),
    (2.9, 2, [(0, 0, .5, .5)], 1.5, 1, "n must be an integer, not 2.9"),
    (2, 2, [(True, 0, .5, .5)], 1, 1, "edge media must be integers, got dtype bool"),
    (2, 2, [(0, 1.0, .5, .5)], 1, 1, "edge customers must be integers, got dtype float64"),
    (2, 2, [], 1, True, "k_F must be an integer, not True"),
    # numpy reads a list that mixes bools with ints as int64.
    (2, 2, [(True, 0, .5, .5), (0, 1, .5, .5)], 1, 1,
     "edge media must be integers, got a bool entry"),
    (2, 2, [(0, np.True_, .5, .5), (1, 0, .5, .5)], 1, 1,
     "edge customers must be integers, got a bool entry"),
    # numpy reads these as uint64, which wraps negative as an intp; the
    # message names the index as given.
    (2, 2, [(2**64 - 1, 0, .5, .5)], 1, 1, "edge index out of range (18446744073709551615, 0)"),
    (2, 2, [(2**63, 1, .5, .5)], 1, 1, "edge index out of range (9223372036854775808, 1)"),
    (2, 2, [(0, 2**64 - 1, .5, .5)], 1, 1, "edge index out of range (0, 18446744073709551615)"),
    # Edges are reported in (u, v) order, not in input order.
    (3, 2, [(2, 5, .5, .5), (0, 7, .5, .5)], 1, 1, "edge index out of range (0, 7)"),
    (3, 3, [(2, 1, .5, .5), (2, 1, .5, .5), (0, 2, .5, .5), (0, 2, .5, .5)], 1, 1,
     "duplicate edge (0, 2)"),
    (3, 2, [(2, 0, 1.5, .5), (0, 1, .5, -1.0)], 1, 1,
     "probability out of range: p_F(0, 1) = -1.0"),
])
def test_validate_messages(n, m, rows, k_L, k_F, message):
    assert_rejected(message, n, m, rows, k_L, k_F)


@pytest.mark.parametrize("columns,shapes", [
    (([0, 1], [0, 1], [0.5], [0.5, 0.5]), "(2,), (2,), (1,), (2,)"),
    (([0], [0], [0.5], [0.5, 0.5]), "(1,), (1,), (1,), (2,)"),
    (([[0]], [[0]], [[0.5]], [[0.5]]), "(1, 1), (1, 1), (1, 1), (1, 1)"),
    ((0, 0, 0.5, 0.5), "(), (), (), ()"),
])
def test_from_arrays_rejects_columns_that_are_not_1d_or_not_one_length(columns, shapes):
    message = f"edge columns must be 1-D and of equal length, got shapes {shapes}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BipartiteInfluenceGame.from_arrays(2, 2, *columns, 1, 1)


def test_edges_are_sorted_arrays_whatever_the_input_order(no_pure_optimum):
    game = no_pure_optimum
    shuffled = BipartiteInfluenceGame.build(3, 4, edge_rows(game)[::-1], 1, 1)
    for name in ("edge_media", "edge_customers", "edge_p", "edge_pf"):
        assert np.array_equal(getattr(shuffled, name), getattr(game, name))
    assert game.edges == ((0, 0), (0, 1), (1, 1), (1, 2), (2, 3))
    p, p_F = oracles.edge_maps(game)
    assert p[(2, 3)] == 0.599 and p_F[(0, 1)] == 0.5


def test_presorted_columns_are_copied_not_sorted(monkeypatch):
    game = generate_instance(7, 40, 2.6, (0.2, 0.5), (0.0, 0.2), seed=3, k_L=1, k_F=2)
    columns = [np.array(getattr(game, name))
               for name in ("edge_media", "edge_customers", "edge_p", "edge_pf")]
    sorts = []
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(keys) or np.arange(0))
    again = BipartiteInfluenceGame.from_arrays(7, 40, *columns, 1, 2)
    assert sorts == []
    assert edge_rows(again) == edge_rows(game)
    for column, kept in zip(columns, (again.edge_media, again.edge_customers, again.edge_p,
                                      again.edge_pf)):
        assert column.flags.writeable and not np.shares_memory(column, kept)
    # One pair of edges out of order is enough to sort.
    for column in columns:
        column[[0, 1]] = column[[1, 0]]
    monkeypatch.undo()
    swapped = BipartiteInfluenceGame.from_arrays(7, 40, *columns, 1, 2)
    assert edge_rows(swapped) == edge_rows(game)


def test_game_arrays_and_views_are_read_only(no_pure_optimum):
    game = no_pure_optimum
    with pytest.raises(ValueError, match="read-only"):
        game.edge_p[0] = 0.5
    for name in ("edge_media", "edge_customers", "edge_pf", "p_table", "pf_table"):
        assert not getattr(game, name).flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        game.edge_p = np.zeros(5)


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
    assert edge_rows(game) == edge_rows(no_pure_optimum)
    assert (game.k_L, game.k_F) == (1, 1)


def test_load_instance_minimal():
    game = load_instance(io.StringIO("1 1 0 0\n0 0 0.5 0.5\n"))
    assert game.n == 1 and game.m == 1 and edge_rows(game) == [(0, 0, 0.5, 0.5)]


def test_load_instance_overfunding_trap(overfunding_trap):
    text = "3 2 3 1\n0 0 1 0\n1 0 0 1\n1 1 0 1\n2 1 1 0\n"
    game = load_instance(io.StringIO(text))
    assert edge_rows(game) == edge_rows(overfunding_trap)


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
        assert edge_rows(again) == edge_rows(game)
        assert (again.k_L, again.k_F) == (game.k_L, game.k_F)


def test_generate_instance_movielens_shape():
    game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), (0.1, 0.9), seed=1)
    assert game.n == 20 and game.m == 844
    assert len(game.edges) == 844 * 4  # rounded mean degree, one draw per customer
    assert all(0.0 <= p <= 0.2 and 0.1 <= pf <= 0.9 for _, _, p, pf in edge_rows(game))


def test_generate_instance_degenerate_distribution():
    game = generate_instance(1, 1, 1, (0.3, 0.3), (0.3, 0.3), seed=99)
    assert edge_rows(game) == [(0, 0, 0.3, 0.3)]


def test_generate_instance_deterministic():
    a = generate_instance(8, 20, 2.5, (0.0, 0.5), (0.2, 0.8), seed=7)
    b = generate_instance(8, 20, 2.5, (0.0, 0.5), (0.2, 0.8), seed=7)
    assert edge_rows(a) == edge_rows(b)
    c = generate_instance(8, 20, 2.5, (0.0, 0.5), (0.2, 0.8), seed=8)
    assert edge_rows(a) != edge_rows(c)


def test_generate_instance_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_instance(3, 5, 4.0, (0.0, 0.5), (0.0, 0.5), seed=0)
    with pytest.raises(ValueError):
        generate_instance(3, 5, 1.0, (0.5, 0.1), (0.0, 0.5), seed=0)


@pytest.mark.parametrize("m", [0, 4])
@pytest.mark.parametrize("degree", [float("nan"), float("inf"), float("-inf")])
def test_generate_instance_rejects_a_non_finite_mean_degree(m, degree):
    # Rejected before rounding, and also when m = 0, where no degree is used.
    with pytest.raises(ValueError, match=f"^mean degree must be finite, got {degree}$"):
        generate_instance(3, m, degree, (0.0, 0.5), (0.0, 0.5), seed=0)


def test_generate_instance_rejects_a_negative_mean_degree():
    # It used to round up to degree 1 and build an instance.
    with pytest.raises(ValueError, match=r"^mean degree must be non-negative, got -3\.0$"):
        generate_instance(5, 10, -3.0, (0.0, 0.5), (0.0, 0.5), seed=0)


@pytest.mark.parametrize("overrides,message", [
    (dict(n=3.5), "n must be an integer, not 3.5"),
    (dict(m=4.5), "m must be an integer, not 4.5"),
    (dict(seed=1.5), "seed must be an integer, not 1.5"),
    (dict(k_L=1.5), "k_L must be an integer, not 1.5"),
    (dict(k_F=True), "k_F must be an integer, not True"),
])
def test_generate_instance_rejects_non_integer_arguments(overrides, message):
    # n, m and seed used to raise TypeError, and k_L=1.5 built a k_L=1 game.
    args = dict(n=3, m=4, mean_degree=1, p_dist=(0.0, 0.2), pf_dist=(0.1, 0.9), seed=1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_instance(**{**args, **overrides})


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
    # Neither constructing nor answering needs memory of m's size.
    huge = BipartiteInfluenceGame.build(2, 10**12, [(0, 10**12 - 1, .5, .5), (1, 5, .5, .5)], 1, 1)
    assert is_disjoint(huge)
    with pytest.raises(ValueError, match=re.escape("edge index out of range (0, -1)")):
        BipartiteInfluenceGame.build(2, 1, [(0, -1, .5, .5), (1, -1, .5, .5)], 1, 1)


def test_allocation_of_half_half():
    x = MixedStrategy({PureStrategy.of([0]): 0.5, PureStrategy.of([1]): 0.5})
    assert np.allclose(allocation_of(x, 3), [0.5, 0.5, 0.0])


def test_allocation_of_empty_support():
    x = MixedStrategy.point_mass(PureStrategy.empty())
    assert np.array_equal(allocation_of(x, 4), np.zeros(4))


def test_allocation_of_three_atom_mixture():
    third = 1.0 / 3.0
    x = MixedStrategy({PureStrategy.of([0, 3]): third,
                       PureStrategy.of([0, 1, 3]): third,
                       PureStrategy.of([0, 2, 3]): third})
    assert np.allclose(allocation_of(x, 4), [1.0, third, third, 1.0], atol=1e-15)


@pytest.mark.parametrize("medium", [-1, 5])
def test_allocation_rejects_a_medium_out_of_range(medium):
    # -1 used to credit its weight to the last medium, u4.
    z = PureStrategy.of([medium])
    message = rf"^medium {medium} is out of range for a game of n=5 media$"
    with pytest.raises(ValueError, match=message):
        allocation_of(MixedStrategy.point_mass(z), 5)
    # The constructor does not sort: (5, 1) passed a check of its two ends
    # and then raised IndexError.
    with pytest.raises(ValueError, match=message):
        allocation_of(MixedStrategy.point_mass(PureStrategy((medium, 1))), 5)


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
        assert alloc.sum() <= game.k_L + 1e-9
        assert np.all(alloc <= 1.0 + 1e-12)


def test_mixed_strategy_validation():
    with pytest.raises(ValueError):
        MixedStrategy({PureStrategy.of([0]): 0.6})  # does not sum to one
    with pytest.raises(ValueError):
        MixedStrategy({PureStrategy.of([0]): 1.2, PureStrategy.of([1]): -0.2})
    with pytest.raises(ValueError, match="non-positive weight nan"):
        MixedStrategy({PureStrategy.of([0]): math.nan})
    with pytest.raises(TypeError, match=r"^support element \(1, 0\) is not a PureStrategy$"):
        MixedStrategy({(1, 0): 1.0})


def test_pure_strategy_ordering_is_lexicographic():
    a, b, c = PureStrategy.of([0]), PureStrategy.of([0, 1]), PureStrategy.of([1])
    assert a < b < c
    assert PureStrategy.empty() < a
    assert 1 in b and 2 not in b and 0 not in PureStrategy.empty()


def test_subset_enumeration_order_and_count():
    subs = list(iter_subsets(3, 2))
    assert subs == [(), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    assert subs == sorted(subs)
    assert count_subsets(20, 2) == 1 + 20 + math.comb(20, 2)
    assert count_subsets(3, 5) == 8  # max_size clamps at n
    for n in range(9):
        for max_size in range(n + 2):
            assert iter_subsets(n, max_size) == list(oracles.lexicographic_subsets(n, max_size))


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
