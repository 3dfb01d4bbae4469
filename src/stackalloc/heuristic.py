"""Greedy fictitious-play heuristic and the plain greedy baseline.

The heuristic plays ell rounds.  In round i it greedily assembles a pure
strategy S, judging each candidate medium by the best-response value of
the blended mix ((i-1)/i) * x + (1/i) * chi(S + u), and accepts a
candidate only while that value stays at least the previous round's; it
then blends S into x and remembers the best mix seen so far.  With
ell = 1 the blend collapses to the pure strategy itself.

The scoring splits along the blend.  f is linear and g affine in the
leader's activations and (i-1)/i + 1/i = 1, so the utility tables of
the blended rows are (i-1)/i * u(x) + u(S + u)/i.  The tables u(S + u)
of every candidate depend only on the ordered prefix S, so one run
scores each prefix's candidate rows once, however many rounds replay it.
u(x) is never scored after the empty start: the next round's u(x) is
the blended row of the round's last accepted candidate, or, if it
accepted none, (i-1)/i * u(x) + u({})/i.

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
    weights: dict[PureStrategy, float] = {PureStrategy.empty(): 1.0}
    fx, gx = oracle.utilities(np.zeros(game.m))
    g_empty = gx  # g({}, y); f({}, y) is 0
    fbr_x = 0.0  # the empty mix never activates anyone
    scored: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    best_weights = dict(weights)
    best_value = fbr_x
    for i in range(1, ell + 1):
        keep = (i - 1) / i
        selected: list[int] = []
        accepted = None  # the blended tables and value of the last accepted candidate
        for _ in range(game.k_L):
            prefix = tuple(selected)
            entry = scored.get(prefix)
            if entry is None:
                candidates = np.delete(np.arange(game.n), selected)  # unfunded, ascending
                survival = payoff.survival(game, prefix)
                rows = (1.0 - survival) + survival * game.p_table[candidates]
                entry = scored[prefix] = (candidates, *oracle.utilities(rows))
            candidates, f_rows, g_rows = entry
            bf, bg = keep * fx + f_rows / i, keep * gx + g_rows / i
            values = oracle.optimistic_values(bf, bg)
            r = int(np.argmax(values))  # ties fall to the smallest index
            if values[r] < fbr_x - ACCEPT_TOL:
                break
            u = int(candidates[r])
            selected.append(u)
            accepted = bf[r:r + 1], bg[r:r + 1], float(values[r])
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
        gains = (game.p_table * payoff.survival(game, selected)).sum(axis=1)  # mwu's r(S)
        gains[selected] = -np.inf
        u = int(np.argmax(gains))  # the objective is monotone: never stop early
        selected.append(u)
    return PureStrategy.of(selected)
