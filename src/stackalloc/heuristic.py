"""Greedy fictitious-play heuristic and the plain greedy baseline.

The heuristic plays ell rounds.  In round i it greedily assembles a pure
strategy S, judging each candidate medium by the best-response value of
the blended mix ((i-1)/i) * x + (1/i) * chi(S + u), and accepts a
candidate only while that value stays at least the previous round's; it
then blends S into x and remembers the best mix seen so far.  With
ell = 1 the blend collapses to the pure strategy itself.

The scoring splits along the blend.  f is linear and g affine in the
leader's activations and (i-1)/i + 1/i = 1, so the utility tables of
the blended rows are (i-1)/i * u(x) + u(S + u)/i: u(x) is scored once
per round (and doubles as the round-end score), and the tables u(S + u)
of every candidate depend only on the ordered prefix S, so one run
scores each prefix's candidate rows once, however many rounds replay it.

The baseline ignores the follower entirely: it greedily fills the whole
budget to maximize the expected number of activated customers.
"""

from __future__ import annotations

import numpy as np

from . import follower as follower_mod
from . import payoff
from .follower import BestResponseResult, FollowerOracle, follower_oracle
from .model import BipartiteInfluenceGame, MixedStrategy, PureStrategy, require_integer

ACCEPT_TOL = 1e-12  # slack for the "at least as good" acceptance test


def _candidate_rows(game: BipartiteInfluenceGame, base_pv: np.ndarray,
                    survival: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Activation vectors of S + u for each candidate u, as stacked rows."""
    rows = np.tile(base_pv, (candidates.size, 1))
    row_of = np.full(game.n, -1, dtype=np.intp)
    row_of[candidates] = np.arange(candidates.size)
    edge_rows = row_of[game.edge_media]
    sel = edge_rows >= 0
    ev = game.edge_customers[sel]
    rows[edge_rows[sel], ev] += survival[ev] * game.edge_p[sel]
    return rows


def solve_heuristic(game: BipartiteInfluenceGame, ell: int,
                    oracle: FollowerOracle | None = None,
                    ) -> tuple[MixedStrategy, BestResponseResult]:
    """Run the ell-round fictitious-play heuristic; returns the best mix."""
    require_integer("ell", ell)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if oracle is None:
        oracle = follower_oracle(game)
    weights: dict[PureStrategy, float] = {PureStrategy.empty(): 1.0}
    pvx = np.zeros(game.m)
    fx, gx = oracle.utilities(pvx)
    fbr_x = 0.0  # the empty mix never activates anyone
    scored: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    best_weights = dict(weights)
    best_value = fbr_x
    for i in range(1, ell + 1):
        keep = (i - 1) / i
        selected: list[int] = []
        survival = np.ones(game.m)
        for _ in range(min(game.k_L, game.n)):
            prefix = tuple(selected)
            entry = scored.get(prefix)
            if entry is None:
                candidates = np.array([u for u in range(game.n) if u not in selected],
                                      dtype=np.intp)
                rows = _candidate_rows(game, 1.0 - survival, survival, candidates)
                entry = scored[prefix] = (candidates, *oracle.utilities(rows))
            candidates, f_rows, g_rows = entry
            values = oracle.optimistic_values(keep * fx + f_rows / i, keep * gx + g_rows / i)
            r = int(np.argmax(values))  # ties fall to the smallest index
            if values[r] < fbr_x - ACCEPT_TOL:
                break
            u = int(candidates[r])
            selected.append(u)
            payoff.fund(game, survival, u)
        chosen = PureStrategy.of(selected)
        weights = {s: w * keep for s, w in weights.items() if w * keep > 0.0}
        weights[chosen] = weights.get(chosen, 0.0) + 1.0 / i
        pvx = keep * pvx + (1.0 - survival) / i
        fx, gx = oracle.utilities(pvx)
        fbr_x = float(oracle.optimistic_values(fx, gx)[0])
        if best_value < fbr_x:
            best_value = fbr_x
            best_weights = dict(weights)

    x_star = MixedStrategy(best_weights)
    return x_star, follower_mod.best_response(game, x_star, oracle=oracle)


def greedy_baseline(game: BipartiteInfluenceGame,
                    oracle: FollowerOracle | None = None,
                    ) -> tuple[PureStrategy, BestResponseResult]:
    """Fill the budget greedily on expected activations sum_v P_v(z)."""
    if oracle is None:
        oracle = follower_oracle(game)
    survival = np.ones(game.m)
    blocked = np.zeros(game.n, dtype=bool)
    selected: list[int] = []
    for _ in range(min(game.k_L, game.n)):
        contrib = survival[game.edge_customers] * game.edge_p
        # bincount returns int64 when there are no edges.
        gains = np.bincount(game.edge_media, weights=contrib,
                            minlength=game.n).astype(float, copy=False)
        gains[blocked] = -np.inf
        u = int(np.argmax(gains))  # the objective is monotone: never stop early
        selected.append(u)
        blocked[u] = True
        payoff.fund(game, survival, u)
    z = PureStrategy.of(selected)
    return z, follower_mod.best_response(game, MixedStrategy.point_mass(z), oracle=oracle)
