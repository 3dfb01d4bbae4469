"""Shared instances: small hand-checkable games and random-game helpers."""

from __future__ import annotations

import numpy as np
import pytest

from stackalloc import BipartiteInfluenceGame, PureStrategy, mixed_activation_vector, payoff
from stackalloc.model import iter_subsets
from stackalloc.payoff import PrefixTables, activation_rows, utilities


def make_uniform_overlap():
    """Three media, four customers, p=0.8 and pF=0.5 on every edge."""
    rows = [(0, 0, 0.8, 0.5), (0, 1, 0.8, 0.5), (1, 1, 0.8, 0.5),
            (1, 2, 0.8, 0.5), (2, 1, 0.8, 0.5), (2, 3, 0.8, 0.5)]
    return BipartiteInfluenceGame.build(3, 4, rows, k_L=2, k_F=1)


def make_no_pure_optimum():
    """No pure optimum: the best commitment mixes two media."""
    rows = [(0, 0, 0.1, 0.0), (0, 1, 1.0, 0.5), (1, 1, 1.0, 0.5),
            (1, 2, 0.1, 0.0), (2, 3, 0.599, 0.0)]
    return BipartiteInfluenceGame.build(3, 4, rows, k_L=1, k_F=1)


def make_overfunding_trap():
    """Funding everything is fatal: the middle medium only recaptures."""
    rows = [(0, 0, 1.0, 0.0), (1, 0, 0.0, 1.0), (1, 1, 0.0, 1.0),
            (2, 1, 1.0, 0.0)]
    return BipartiteInfluenceGame.build(3, 2, rows, k_L=3, k_F=1)


def make_private_customers():
    """Disjoint instance with no pure equilibrium (budgets 3 and 2).

    Four media with 10/6/6/6 private customers, p=1 and pF=0.5 throughout.
    """
    rows = [(0, v, 1.0, 0.5) for v in range(10)]
    rows += [(1, v, 1.0, 0.5) for v in range(10, 16)]
    rows += [(2, v, 1.0, 0.5) for v in range(16, 22)]
    rows += [(3, v, 1.0, 0.5) for v in range(22, 28)]
    return BipartiteInfluenceGame.build(4, 28, rows, k_L=3, k_F=2)


@pytest.fixture
def uniform_overlap():
    return make_uniform_overlap()


@pytest.fixture
def no_pure_optimum():
    return make_no_pure_optimum()


@pytest.fixture
def overfunding_trap():
    return make_overfunding_trap()


@pytest.fixture
def private_customers():
    return make_private_customers()


def random_game(rng, n_max=6, m_max=10, kl_max=3, kf_max=2, disjoint=False,
                decimals=None):
    """A random valid instance; every customer gets at least one edge."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    k_L = int(rng.integers(0, min(kl_max, n) + 1))
    k_F = int(rng.integers(0, min(kf_max, n) + 1))
    rows = []
    for v in range(m):
        if disjoint:
            media = [int(rng.integers(n))]
        else:
            deg = int(rng.integers(1, n + 1))
            media = sorted(int(u) for u in rng.choice(n, size=deg, replace=False))
        for u in media:
            pv, pfv = rng.uniform(), rng.uniform()
            if decimals is not None:
                pv, pfv = round(pv, decimals), round(pfv, decimals)
            rows.append((u, v, pv, pfv))
    return BipartiteInfluenceGame.build(n, m, rows, k_L, k_F)


def random_allocation(rng, n, k_L):
    """A point of Q with a mix of interior, budget-tight and integral cases."""
    r = rng.uniform(0.0, 1.0, size=n)
    total = r.sum()
    if total > 0:
        mode = int(rng.integers(3))
        if mode == 0 and total > k_L:
            r *= k_L / total
        elif mode == 1:
            r *= min(1.0, k_L * rng.uniform() / total)
        else:
            r = np.where(rng.uniform(size=n) < 0.5, np.round(r), r)
            if r.sum() > k_L:
                r *= k_L / r.sum()
    return r


def count_scored_rows(monkeypatch, oracle):
    """From now on, count the leader rows ``oracle.utilities`` scores."""
    scored = [0]
    utilities = oracle.utilities

    def counting(pvx):
        f, g = utilities(pvx)
        scored[0] += f.shape[0]
        return f, g

    monkeypatch.setattr(oracle, "utilities", counting)
    return scored


def record_products(monkeypatch):
    """From now on, record each leader row that ``payoff.utilities`` scores,
    as (id of the activation table, id of the recapture table, row bytes)."""
    rows = []
    utilities = payoff.utilities

    def recording(pvx, activation, recapture):
        pvx = np.atleast_2d(np.asarray(pvx, dtype=float))
        rows.extend((id(activation), id(recapture), row.tobytes()) for row in pvx)
        return utilities(pvx, activation, recapture)

    monkeypatch.setattr(payoff, "utilities", recording)
    return rows


def count_store_misses(monkeypatch):
    """From now on, count the prefixes whose tables a ``PrefixTables`` fills."""
    misses = [0]
    fill = PrefixTables._fill

    def counting(tables, prefix):
        misses[0] += 1
        return fill(tables, prefix)

    monkeypatch.setattr(PrefixTables, "_fill", counting)
    return misses


def follower_rows(game, y):
    """P_v(y) and P_{F,v}(y), one row each, from the kernel's rows of every
    subset of at most |y| media."""
    y = PureStrategy.of(y)
    i = iter_subsets(game.n, len(y)).index(y.media)
    return tuple(activation_rows(game, len(y), table)[i:i + 1]
                 for table in (game.p_table, game.pf_table))


def utilities_at(game, x, y):
    """f(x, y) and g(x, y) at a leader mix x and any follower media y, from
    the kernel ``payoff.utilities``; y need not fit the follower budget."""
    f, g = utilities(mixed_activation_vector(game, x), *follower_rows(game, y))
    return float(f[0, 0]), float(g[0, 0])
