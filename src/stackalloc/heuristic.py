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
candidate the round accepted last, and u({}) = (0, g({})).  Every
round starts from the empty prefix, so a run computes its candidate
rows once.  No leader row is ever scored: u(x) starts as u({}), and
every round ends with the one update u(x) <- (i-1)/i * u(x) + u(S)/i
for the round's S, which is {} if it accepted no candidate.

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
    # u({}) as scoring np.zeros(m) gives it: the zero row's recapture product is exactly +0.0
    fx = f_empty = np.zeros((1, len(oracle)))
    gx = g_empty = np.ones((1, game.m)) @ oracle.activation.T
    fbr_x = 0.0  # the empty mix never activates anyone
    r, pa, pr = tables.get(())  # every round starts from the empty prefix's candidate rows
    empty_rows = r[:, None] - pr, g_empty - pa + pr

    best_weights = dict(weights)
    best_value = fbr_x
    for i in range(1, ell + 1):
        keep = (i - 1) / i
        kfx, kgx = keep * fx, keep * gx  # (i-1)/i * u(x), scaled once per round
        selected: list[int] = []
        fs, gs = f_empty, g_empty  # u(S) of the prefix S = selected
        for _ in range(game.k_L):
            f_rows, g_rows = empty_rows  # one row per medium
            if selected:
                r, pa, pr = tables.get(tuple(selected))
                f_rows, g_rows = fs + r[:, None] - pr, gs - pa + pr
            values = oracle.optimistic_values(kfx + f_rows / i, kgx + g_rows / i)
            values[selected] = -np.inf  # candidates are the unfunded media
            u = int(np.argmax(values))  # ties fall to the smallest index
            if values[u] < fbr_x - ACCEPT_TOL:
                break
            selected.append(u)
            fs, gs, fbr_s = f_rows[u:u + 1], g_rows[u:u + 1], float(values[u])
        chosen = PureStrategy.of(selected)
        weights = {s: w * keep for s, w in weights.items() if w * keep > 0.0}
        weights[chosen] = weights.get(chosen, 0.0) + 1.0 / i
        fx, gx = kfx + fs / i, kgx + gs / i
        fbr_x = fbr_s if selected else float(oracle.optimistic_values(fx, gx)[0])
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
