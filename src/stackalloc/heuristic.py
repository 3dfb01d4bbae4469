"""Greedy fictitious-play heuristic and the plain greedy baseline.

The heuristic plays ell rounds.  In round i it greedily assembles a pure
strategy S, judging each candidate medium by the best-response value of
the blended mix ((i-1)/i) * x + (1/i) * chi(S + u), and accepts a
candidate only while that value stays at least the previous round's; it
then blends S into x and remembers the best mix seen so far.  With
ell = 1 the blend collapses to the pure strategy itself.

The scoring splits along the blend.  f is linear and g affine in the
leader's activations and (i-1)/i + 1/i = 1, so the utility tables of
the blended rows are (i-1)/i * u(x) + u(S + u)/i.  A candidate c adds
s_S(v) p_cv to each P_v(S), so u(S + c) is u(S) plus one row of the
tables of S, which one run fills once however many rounds replay S
(``payoff.PrefixTables``, with the products PA and PR against the
follower's activation and recapture tables): f(S + c) = f(S) + r(S)[c] - PR(S)[c] and
g(S + c) = g(S) - PA(S)[c] + PR(S)[c], where u(S) is the row of the
candidate the round accepted last, and u({}) = (0, g({})).  u(x) is
never scored after the empty start: the next round's u(x) is the
blended row of the round's last accepted candidate, or, if it accepted
none, (i-1)/i * u(x) + u({})/i.

The baseline ignores the follower entirely: it greedily fills the whole
budget to maximize the expected number of activated customers.
"""

from __future__ import annotations

import numpy as np

from . import payoff
from .follower import follower_oracle
from .model import BipartiteInfluenceGame, MixedStrategy, PureStrategy, require_integer

ACCEPT_TOL = 1e-12  # slack for the "at least as good" acceptance test


def solve_heuristic(game: BipartiteInfluenceGame, ell: int) -> MixedStrategy:
    """Run the ell-round fictitious-play heuristic; returns the best mix."""
    require_integer("ell", ell)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    oracle = follower_oracle(game)
    tables = payoff.PrefixTables(game, oracle.activation, oracle.recapture)
    weights: dict[PureStrategy, float] = {PureStrategy.empty(): 1.0}
    fx, gx = oracle.utilities(np.zeros(game.m))
    g_empty = gx  # g({}, y); f({}, y) is 0
    fbr_x = 0.0  # the empty mix never activates anyone

    best_weights = dict(weights)
    best_value = fbr_x
    for i in range(1, ell + 1):
        keep = (i - 1) / i
        selected: list[int] = []
        fs, gs = 0.0, g_empty  # u(S) of the prefix S = selected
        accepted = None  # the blended tables and value of the last accepted candidate
        for _ in range(game.k_L):
            r, pa, pr = tables.get(tuple(selected))
            f_rows = fs + r[:, None] - pr  # one row per medium
            g_rows = gs - pa + pr
            bf, bg = keep * fx + f_rows / i, keep * gx + g_rows / i
            values = oracle.optimistic_values(bf, bg)
            values[selected] = -np.inf  # candidates are the unfunded media
            u = int(np.argmax(values))  # ties fall to the smallest index
            if values[u] < fbr_x - ACCEPT_TOL:
                break
            selected.append(u)
            fs, gs = f_rows[u:u + 1], g_rows[u:u + 1]
            accepted = bf[u:u + 1], bg[u:u + 1], float(values[u])
        chosen = PureStrategy.of(selected)
        weights = {s: w * keep for s, w in weights.items() if w * keep > 0.0}
        weights[chosen] = weights.get(chosen, 0.0) + 1.0 / i
        if accepted is None:  # x blended with {}
            fx, gx = keep * fx, keep * gx + g_empty / i
            fbr_x = float(oracle.optimistic_values(fx, gx)[0])
        else:
            fx, gx, fbr_x = accepted
        if best_value < fbr_x:
            best_value = fbr_x
            best_weights = dict(weights)

    return MixedStrategy(best_weights)


def greedy_baseline(game: BipartiteInfluenceGame) -> PureStrategy:
    """Fill the budget greedily on expected activations sum_v P_v(z)."""
    selected: list[int] = []
    for _ in range(game.k_L):
        gains = (game.p_table * payoff.survival(game, selected)).sum(axis=1)  # PrefixTables' r(S)
        gains[selected] = -np.inf
        u = int(np.argmax(gains))  # the objective is monotone: never stop early
        selected.append(u)
    return PureStrategy.of(selected)
