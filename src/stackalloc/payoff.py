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

f and g are written out once, in ``utilities``: it scores stacked rows
of leader activations against stacked follower tables of P_v(y) and
P_{F,v}(y).  The follower oracle, both exact LPs and the MWU losses all
go through it; the disjoint LP reads its coefficients from the rows of
{} and the singletons {u}, since on disjoint games f is linear and g
affine in the allocation r.

Every survival product lives here and reads the game's dense tables
``p_table`` and ``pf_table`` (p or p_F on the edges, exactly 0 elsewhere,
so an unfunded customer's factor is exactly 1).  ``activation_rows``
fills a prefix-closed strategy list in medium order for the follower
oracle and the exact tables, row(y) = row(y[:-1]) * (1 - table[y[-1]]);
``survival`` takes one prefix in pick order for the greedy engines and
``activation_vector``.  Both multiply one row of factors at a time, in
the order given, so on the same order they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .model import BipartiteInfluenceGame, MixedStrategy, PureStrategy


def activation_rows(game: BipartiteInfluenceGame, strategies: list[PureStrategy],
                    table: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Rows 1 - prod_{u in y} (1 - table[u]), one per strategy y.

    ``strategies`` must list every y[:-1] before y, as the lexicographic
    enumerations of ``iter_subsets`` do.  With the default
    ``game.p_table`` the rows are P_v(y); with ``game.pf_table`` they are
    P_{F,v}(y).  Equal, bit for bit, to stacking ``activation_vector``.
    Fills and returns ``out``, of shape (|strategies|, m), if given.
    """
    rows = np.empty((len(strategies), game.m)) if out is None else out
    factors = 1.0 - (game.p_table if table is None else table)
    row_of: dict[tuple[int, ...], int] = {}
    for i, y in enumerate(strategies):
        row_of[y.media] = i
        if not y.media:
            rows[i] = 1.0
            continue
        parent = row_of.get(y.media[:-1])
        if parent is None:
            raise ValueError(f"strategy {y} is listed before its prefix {y.media[:-1]}")
        np.multiply(rows[parent], factors[y.media[-1]], out=rows[i])
    return np.subtract(1.0, rows, out=rows)


def survival(game: BipartiteInfluenceGame, media) -> np.ndarray:
    """prod_{u in media} (1 - p_table[u]), multiplied in the order listed; ones for none."""
    return np.prod(1.0 - game.p_table[list(media)], axis=0)


def activation_vector(game: BipartiteInfluenceGame, media) -> np.ndarray:
    """P_v(z) for every customer v; ``media`` lists z's medium indices, each
    in [0, n)."""
    z = PureStrategy.of(media)
    z.require_within(game.n)
    return 1.0 - survival(game, z)


def mixed_activation_vector(game: BipartiteInfluenceGame, x: MixedStrategy) -> np.ndarray:
    """P_v(x) = sum over the support of x_z * P_v(z); O(|E| * |supp(x)|)."""
    pvx = np.zeros(game.m)
    for z, w in x.weights.items():
        pvx += w * activation_vector(game, z)
    return pvx


def utilities(pvx: np.ndarray, activation: np.ndarray,
              recapture: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) tables: entry [i, j] scores leader activation row i against
    follower row j.

    ``pvx`` is one activation vector P_v(x) or a stack of them;
    ``activation`` and ``recapture`` stack P_v(y) and P_{F,v}(y), one
    row per follower strategy.  Returns arrays of shape (rows, |ys|).
    """
    pvx = np.atleast_2d(np.asarray(pvx, dtype=float))
    flipped = pvx @ recapture.T
    f = pvx.sum(axis=1, keepdims=True) - flipped
    g = flipped + (1.0 - pvx) @ activation.T
    return f, g
