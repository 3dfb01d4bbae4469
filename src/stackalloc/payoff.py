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
fills the rows of all subsets of at most k media, depth first in
``iter_subsets`` order, as row(y) = row(y[:-1]) * (1 - table[y[-1]]);
``survival`` takes one prefix in pick order for ``activation_vector``
and the greedy engines' ``PrefixTables``.  Both take each entry as its
prefix's entry times one factor, so on one order they agree bit for bit.

The greedy engines (MWU's greedy and the heuristic) score a medium u
against the media S funded so far through the tables of S that a
``PrefixTables`` keeps for one run: since P_v(S + u) = P_v(S) +
s_S(v) p_uv, a candidate's f and g are those of S plus one row of r(S)
and of S's products with the follower's tables.
"""

from __future__ import annotations

import numpy as np

from .model import BipartiteInfluenceGame, MixedStrategy, PureStrategy, count_subsets


def activation_rows(game: BipartiteInfluenceGame, k: int, table: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Rows 1 - prod_{u in y} (1 - table[u]), one per y in ``iter_subsets(game.n, k)``:
    P_v(y) with the default ``game.p_table``, P_{F,v}(y) with ``game.pf_table``.  Equal,
    bit for bit, to stacking ``activation_vector``.  Fills and returns ``out`` if given."""
    rows = np.empty((count_subsets(game.n, k), game.m)) if out is None else out
    rows[0] = 1.0
    if k := min(k, game.n):
        _walk(rows, 1.0 - (game.p_table if table is None else table), 0, -1, k, 1)
    return np.subtract(1.0, rows, out=rows)


def _walk(rows: np.ndarray, factors: np.ndarray, i: int, last: int, depth: int, j: int) -> int:
    """From row j on, fill row i's media plus 1 to ``depth`` more above ``last``, depth first;
    return the next free row.  Leaf siblings are consecutive rows: one product fills them."""
    if depth == 1:
        np.multiply(rows[i], factors[last + 1:], out=rows[j:j + len(factors) - last - 1])
        return j + len(factors) - last - 1
    for u in range(last + 1, len(factors)):
        np.multiply(rows[i], factors[u], out=rows[j])
        j = _walk(rows, factors, j, u, depth - 1, j + 1)
    return j


def survival(game: BipartiteInfluenceGame, media) -> np.ndarray:
    """prod_{u in media} (1 - p_table[u]), multiplied in the order listed; ones for none."""
    return np.prod(1.0 - game.p_table[list(media)], axis=0)


class PrefixTables:
    """One greedy run's tables of each ordered prefix S of funded media.

    With P = ``p_table`` and s_S = ``survival`` of S: r(S) = (P * s_S).sum(1),
    and for each |D_F| x m coefficient table K given (activation minus
    recapture for MWU, activation and recapture for the heuristic) the n x |D_F| table
    PK(S) = (P * s_S) @ K.T.  Each entry is filled once, on first read,
    read-only.  r(S) is the dense formula bit for bit.  PK is a dense
    product only at S = (); elsewhere it grows from the parent's,
    PK(S + u) = PK(S) - (P[:, N_u] * (s_S - s_{S+u})[N_u]) @ K[:, N_u].T
    over u's customers N_u, the only ones where s_S and s_{S+u} differ.
    That equals the dense product to rounding, and is set to exactly 0
    on the rows where r(S + u) is 0, as the dense product is.  An engine
    builds one store per call, so its tables go with the call: after c
    greedy walks it holds at most 1 + c * (budget - 1) entries.
    """

    def __init__(self, game: BipartiteInfluenceGame, *coefficients: np.ndarray):
        self._game = game
        self._coefficients = coefficients
        self._entries: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}  # (s_S, r(S), PK(S)...)

    def get(self, prefix: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """(r(S), PK(S) per coefficient table K) for S = ``prefix``."""
        entry = self._entries.get(prefix)
        if entry is None:
            entry = self._entries[prefix] = self._fill(prefix)
        return entry[1:]

    def _fill(self, prefix: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        game = self._game
        s = survival(game, prefix)
        r = (game.p_table * s).sum(axis=1)
        if prefix:
            self.get(prefix[:-1])
            parent_s, _, *parents = self._entries[prefix[:-1]]
            u = prefix[-1]
            nu = game.edge_customers[slice(*np.searchsorted(game.edge_media, (u, u + 1)))]
            dropped = game.p_table[:, nu] * (parent_s[nu] - s[nu])
            tables = [parent - dropped @ k[:, nu].T
                      for parent, k in zip(parents, self._coefficients)]
            zero = r == 0.0
            for table in tables:
                table[zero] = 0.0
        else:
            tables = [game.p_table @ k.T for k in self._coefficients]  # P * s_() is P
        for table in (r, *tables):
            table.flags.writeable = False
        return (s, r, *tables)


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
