"""Exact utility evaluation.

For a pure strategy ``z`` the chance that customer ``v`` is activated is

    P_v(z) = 1 - prod_{u in N_v, z_u = 1} (1 - p_uv)

and the follower's recapture chance P_{F,v}(y) is the same product over
``p_F``.  Leader and follower utilities are

    f(z, y) = sum_v P_v(z) * (1 - P_{F,v}(y))
    g(z, y) = sum_v [P_v(z) * P_{F,v}(y) + (1 - P_v(z)) * P_v(y)]

and extend linearly to leader mixed strategies through
P_v(x) = sum_z x_z P_v(z).  The zero-sum surrogate used by the
approximation solver is phi(x, y) = -g(x, y) + sum_v P_v(x), bounded
below by -C where C = max_y sum_v P_v(y).

Survival products are built on the game's CSR edge layout (edges are
sorted by medium): ``fund`` multiplies one medium's factors into a
survival vector in place, and ``activation_rows`` fills the rows of a
whole prefix-closed strategy list by prefix products,
row(y) = row(y[:-1]) * (1 - p[y[-1], .]), one dense multiply per
strategy and no scatter.  Both multiply each customer's factors in
increasing medium order, so they agree bit for bit with each other and
with ``activation_vector``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BipartiteInfluenceGame, MixedStrategy, PureStrategy


@dataclass(frozen=True)
class UtilityPair:
    """Leader (retained) and follower (acquired) expected customer counts."""

    leader: float
    follower: float


def _as_mask(game: BipartiteInfluenceGame, media) -> np.ndarray:
    if isinstance(media, PureStrategy):
        return media.mask(game.n)
    arr = np.asarray(media)
    if arr.dtype == bool:
        return arr
    mask = np.zeros(game.n, dtype=bool)
    mask[arr.astype(int)] = True
    return mask


def fund(game: BipartiteInfluenceGame, survival: np.ndarray, u: int,
         probs: np.ndarray | None = None) -> None:
    """Multiply (1 - prob) over medium u's edges into ``survival``, in place.

    ``probs`` is an edge-aligned table and defaults to ``game.edge_p``.
    """
    probs = game.edge_p if probs is None else probs
    lo, hi = game.media_ptr[u], game.media_ptr[u + 1]
    survival[game.edge_customers[lo:hi]] *= 1.0 - probs[lo:hi]


def _survival(game: BipartiteInfluenceGame, media, probs: np.ndarray) -> np.ndarray:
    """Per-customer product of (1 - prob) over the selected media's edges."""
    s = np.ones(game.m)
    for u in np.flatnonzero(_as_mask(game, media)):
        fund(game, s, u, probs)
    return s


def activation_rows(game: BipartiteInfluenceGame, strategies: list[PureStrategy],
                    probs: np.ndarray | None = None) -> np.ndarray:
    """Rows 1 - prod_{u in y} (1 - probs_uv), one per strategy y.

    ``strategies`` must list every y[:-1] before y, as the lexicographic
    enumerations of ``iter_subsets`` do.  With the default ``game.edge_p``
    the rows are P_v(y); with ``game.edge_pf`` they are P_{F,v}(y).  Equal,
    bit for bit, to stacking ``activation_vector``.
    """
    probs = game.edge_p if probs is None else probs
    survival = np.ones((len(strategies), game.m))
    factors = None  # dense (n, m) table of 1 - probs, built on first use
    row_of: dict[tuple[int, ...], int] = {}
    for i, y in enumerate(strategies):
        row_of[y.media] = i
        if not y.media:
            continue
        if factors is None:
            factors = np.ones((game.n, game.m))
            factors[game.edge_media, game.edge_customers] = 1.0 - probs
        parent = row_of.get(y.media[:-1])
        if parent is None:
            raise ValueError(f"strategy {y} is listed before its prefix {y.media[:-1]}")
        np.multiply(survival[parent], factors[y.media[-1]], out=survival[i])
    return np.subtract(1.0, survival, out=survival)


def activation_vector(game: BipartiteInfluenceGame, media) -> np.ndarray:
    """P_v(z) for every customer v."""
    return 1.0 - _survival(game, media, game.edge_p)


def recapture_vector(game: BipartiteInfluenceGame, media) -> np.ndarray:
    """P_{F,v}(y) for every customer v."""
    return 1.0 - _survival(game, media, game.edge_pf)


def mixed_activation_vector(game: BipartiteInfluenceGame, x: MixedStrategy) -> np.ndarray:
    """P_v(x) = sum over the support of x_z * P_v(z); O(|E| * |supp(x)|)."""
    pvx = np.zeros(game.m)
    for z, w in x.weights.items():
        pvx += w * activation_vector(game, z)
    return pvx


def _activation_of(game: BipartiteInfluenceGame, x) -> np.ndarray:
    if isinstance(x, MixedStrategy):
        return mixed_activation_vector(game, x)
    return activation_vector(game, x)


def _customer_hit(game: BipartiteInfluenceGame, v: int, media, probs: np.ndarray) -> float:
    """1 - prod (1 - probs_uv) over the selected media adjacent to v."""
    if not 0 <= v < game.m:
        raise IndexError(f"invalid customer index {v}")
    on = (game.edge_customers == v) & _as_mask(game, media)[game.edge_media]
    return 1.0 - math.prod(1.0 - q for q in probs[on].tolist())


def activation_prob(game: BipartiteInfluenceGame, v: int, z) -> float:
    """P_v(z); the empty selection never activates anyone."""
    return _customer_hit(game, v, z, game.edge_p)


def recapture_prob(game: BipartiteInfluenceGame, v: int, y) -> float:
    """P_{F,v}(y)."""
    return _customer_hit(game, v, y, game.edge_pf)


def leader_utility_pure(game: BipartiteInfluenceGame, z, y) -> float:
    """f(z, y): expected customers activated by the leader and kept."""
    pv = activation_vector(game, z)
    rec = recapture_vector(game, y)
    return float(pv @ (1.0 - rec))


def follower_utility_pure(game: BipartiteInfluenceGame, z, y) -> float:
    """g(z, y): customers flipped from the leader plus fresh activations."""
    pv = activation_vector(game, z)
    rec = recapture_vector(game, y)
    pvy = activation_vector(game, y)
    return float(pv @ rec + (1.0 - pv) @ pvy)


def utilities_mixed(game: BipartiteInfluenceGame, x: MixedStrategy, y) -> UtilityPair:
    """f and g at a leader mix x and follower pure strategy y."""
    pvx = mixed_activation_vector(game, x)
    rec = recapture_vector(game, y)
    pvy = activation_vector(game, y)
    leader = float(pvx @ (1.0 - rec))
    follower = float(pvx @ rec + (1.0 - pvx) @ pvy)
    return UtilityPair(leader=leader, follower=follower)


def phi(game: BipartiteInfluenceGame, x, y) -> float:
    """Zero-sum surrogate: -g(x, y) + sum_v P_v(x)."""
    pvx = _activation_of(game, x)
    rec = recapture_vector(game, y)
    pvy = activation_vector(game, y)
    g = float(pvx @ rec + (1.0 - pvx) @ pvy)
    return float(pvx.sum()) - g


def phi_constant(game: BipartiteInfluenceGame, cap: int | None = None) -> float:
    """C = max over follower pure strategies of sum_v P_v(y), by enumeration."""
    from . import follower as _follower

    kwargs = {} if cap is None else {"cap": cap}
    oracle = _follower.follower_oracle(game, **kwargs)
    return float(oracle.activation_sums.max(initial=0.0))
