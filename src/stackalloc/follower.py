"""Follower side: strategy enumeration and optimistic best responses.

The follower's pure strategies are all media subsets of size at most
``k_F``.  A best response maximizes g(x, .); among responses tied within
tolerance the one maximizing f(x, .) is chosen (leader-favorable
tie-breaking, the strong-equilibrium convention), with a final
lexicographic tie-break for determinism.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import payoff
from .model import (BipartiteInfluenceGame, CapExceededError, MixedStrategy,
                    PureStrategy, count_subsets, iter_subsets)

DEFAULT_FOLLOWER_CAP = 10 ** 6
TIE_TOL = 1e-9


def _cap_exceeded(total: int, cap: int) -> CapExceededError:
    return CapExceededError(
        f"follower strategy set has {total} elements (cap {cap}); "
        f"evaluating best responses is intractable for large k_F, "
        f"reduce k_F or raise the cap")


def enumerate_follower(game: BipartiteInfluenceGame,
                       cap: int = DEFAULT_FOLLOWER_CAP) -> list[PureStrategy]:
    """All follower pure strategies, lexicographically ordered."""
    total = count_subsets(game.n, game.k_F)
    if total > cap:
        raise _cap_exceeded(total, cap)
    return [PureStrategy(s) for s in iter_subsets(game.n, game.k_F)]


@dataclass(frozen=True)
class BestResponseResult:
    """All g-maximizers, the optimistic pick, and both players' values."""

    responses: tuple[PureStrategy, ...]
    follower_value: float
    chosen: PureStrategy
    leader_value: float


class FollowerOracle:
    """Per-instance tables over the follower strategy set.

    Rows of ``activation`` and ``recapture`` hold P_v(y) and P_{F,v}(y)
    for each enumerated y, so utilities against any leader activation
    vector reduce to matrix-vector products (``payoff.utilities``);
    ``gain`` holds their difference P_v(y) - P_{F,v}(y), the per-customer
    coefficient of the MWU greedy's objective.  Built once per instance
    (by prefix products, see ``payoff.activation_rows``) and shared by
    every solver.
    """

    def __init__(self, game: BipartiteInfluenceGame, cap: int = DEFAULT_FOLLOWER_CAP):
        self.strategies = enumerate_follower(game, cap)
        self.activation = payoff.activation_rows(game, self.strategies)
        self.recapture = payoff.activation_rows(game, self.strategies, game.edge_pf)
        self.gain = self.activation - self.recapture
        self.activation_sums = self.activation.sum(axis=1)
        self.evaluations = 0  # instrumentation: leader points scored so far

    def __len__(self) -> int:
        return len(self.strategies)

    def utilities(self, pvx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f(x, y), g(x, y)) over all y, for rows of leader activations.

        Accepts one activation vector or a stack of them; returns arrays
        of shape (rows, |D_F|).
        """
        f, g = payoff.utilities(pvx, self.activation, self.recapture)
        self.evaluations += f.shape[0]
        return f, g

    def best_response_values(self, pvx: np.ndarray,
                             tie_tol: float = TIE_TOL) -> np.ndarray:
        """Optimistic leader value f_BR for each row of leader activations."""
        return self.optimistic_values(*self.utilities(pvx), tie_tol)

    @staticmethod
    def optimistic_values(f: np.ndarray, g: np.ndarray,
                          tie_tol: float = TIE_TOL) -> np.ndarray:
        """Per row of (f, g) tables: the largest f among the g-maximizers.

        Rows are utilities over the follower set as ``utilities`` returns
        them; f and g are linear and affine in the leader's activations,
        so callers may blend rows of tables instead of activation rows.
        """
        gmax = g.max(axis=1, keepdims=True)
        tied = g >= gmax - tie_tol
        return np.where(tied, f, -np.inf).max(axis=1)

    def best_response(self, pvx: np.ndarray,
                      tie_tol: float = TIE_TOL) -> BestResponseResult:
        f, g = self.utilities(pvx)
        f, g = f[0], g[0]
        gmax = float(g.max())
        tied = np.nonzero(g >= gmax - tie_tol)[0]
        fmax = float(f[tied].max())
        # Enumeration is lexicographic, so the first optimistic candidate
        # is the documented tie-break.
        chosen = int(tied[np.nonzero(f[tied] >= fmax - tie_tol)[0][0]])
        return BestResponseResult(
            responses=tuple(self.strategies[i] for i in tied),
            follower_value=gmax,
            chosen=self.strategies[chosen],
            leader_value=float(f[chosen]),
        )


_ORACLES: "weakref.WeakKeyDictionary[BipartiteInfluenceGame, FollowerOracle]" = \
    weakref.WeakKeyDictionary()


def follower_oracle(game: BipartiteInfluenceGame,
                    cap: int = DEFAULT_FOLLOWER_CAP) -> FollowerOracle:
    """The shared per-instance oracle; materialized on first request.

    ``cap`` holds on every call, cached or not.
    """
    oracle = _ORACLES.get(game)
    if oracle is None:
        oracle = FollowerOracle(game, cap)
        _ORACLES[game] = oracle
    elif len(oracle) > cap:
        raise _cap_exceeded(len(oracle), cap)
    return oracle


def best_response(game: BipartiteInfluenceGame, x: MixedStrategy,
                  tie_tol: float = TIE_TOL,
                  oracle: FollowerOracle | None = None) -> BestResponseResult:
    """Optimistic best response to a leader mixed strategy."""
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError(f"tie tolerance must be finite and >= 0, got {tie_tol}")
    if oracle is None:
        oracle = follower_oracle(game)
    return oracle.best_response(payoff.mixed_activation_vector(game, x), tie_tol)


def best_response_value(game: BipartiteInfluenceGame, x: MixedStrategy,
                        tie_tol: float = TIE_TOL,
                        oracle: FollowerOracle | None = None) -> float:
    """f_BR(x): the leader's value under the optimistic best response."""
    return best_response(game, x, tie_tol, oracle).leader_value
