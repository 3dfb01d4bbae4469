"""Follower side: strategy enumeration and optimistic best responses.

The follower's pure strategies are all media subsets of size at most
``k_F``.  A best response maximizes g(x, .); among responses tied within
tolerance the one maximizing f(x, .) is chosen (leader-favorable
tie-breaking, the strong-equilibrium convention), with a final
lexicographic tie-break for determinism.  A strategy set larger than
``DEFAULT_FOLLOWER_CAP`` raises CapExceededError before anything is
enumerated, so the cap holds for every caller and in any call order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import payoff
from .model import BipartiteInfluenceGame, MixedStrategy, PureStrategy, pure_strategies

DEFAULT_FOLLOWER_CAP = 10 ** 6
TIE_TOL = 1e-9


def enumerate_follower(game: BipartiteInfluenceGame) -> list[PureStrategy]:
    """All follower pure strategies, lexicographically ordered; at most
    ``DEFAULT_FOLLOWER_CAP`` of them, or CapExceededError."""
    return pure_strategies(game.n, game.k_F, DEFAULT_FOLLOWER_CAP, "follower",
                           "evaluating best responses is intractable for large k_F, "
                           "reduce k_F or raise the cap")


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
    vector reduce to matrix-vector products (``payoff.utilities``).
    Built once per instance (by prefix products, see
    ``payoff.activation_rows``) into the two slabs of one array and
    shared by every solver through ``follower_oracle``, so every table
    is read-only.  It holds only the follower's two tables and the
    scalar ``C``, computed on first read (only MWU and ``certify`` read
    it); an engine's derived tables live in its own run's store
    (``payoff.PrefixTables``).
    """

    def __init__(self, game: BipartiteInfluenceGame):
        self.strategies = enumerate_follower(game)
        # One block, not two: glibc sets its trim threshold to twice the largest mmap
        # block freed (mallopt(3)), so one block of both tables keeps a game's freed
        # tables on the heap for the next game instead of trimming and refaulting them.
        tables = np.empty((2, len(self.strategies), game.m))
        for out, table in zip(tables, (game.p_table, game.pf_table)):
            payoff.activation_rows(game, game.k_F, table, out)
        tables.flags.writeable = False
        self.activation, self.recapture = tables

    @cached_property
    def C(self) -> float:
        """max_y sum_v P_v(y), the shift that makes the MWU surrogate nonnegative."""
        return float(self.activation.sum(axis=1).max(initial=0.0))

    def __len__(self) -> int:
        return len(self.strategies)

    def utilities(self, pvx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f(x, y), g(x, y)) over all y, for rows of leader activations.

        Accepts one activation vector or a stack of them; returns arrays
        of shape (rows, |D_F|).
        """
        return payoff.utilities(pvx, self.activation, self.recapture)

    def best_response_values(self, pvx: np.ndarray) -> np.ndarray:
        """Optimistic leader value f_BR for each row of leader activations."""
        return self.optimistic_values(*self.utilities(pvx))

    @staticmethod
    def optimistic_values(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Per row of (f, g) tables: the largest f among the g-maximizers.

        Rows are utilities over the follower set as ``utilities`` returns
        them; f and g are linear and affine in the leader's activations,
        so callers may blend rows of tables instead of activation rows.
        """
        gmax = g.max(axis=1, keepdims=True)
        tied = g >= gmax - TIE_TOL
        return np.where(tied, f, -np.inf).max(axis=1)

    def best_response(self, pvx: np.ndarray) -> BestResponseResult:
        f, g = self.utilities(pvx)
        if len(f) != 1:
            raise ValueError(f"best_response takes one activation vector, not {len(f)} rows")
        f, g = f[0], g[0]
        gmax = float(g.max())
        tied = np.nonzero(g >= gmax - TIE_TOL)[0]
        fmax = float(f[tied].max())
        # Enumeration is lexicographic, so the first optimistic candidate
        # is the documented tie-break.
        chosen = int(tied[np.nonzero(f[tied] >= fmax - TIE_TOL)[0][0]])
        return BestResponseResult(
            responses=tuple(self.strategies[i] for i in tied),
            follower_value=gmax,
            chosen=self.strategies[chosen],
            leader_value=float(f[chosen]),
        )


_ORACLES: "weakref.WeakKeyDictionary[BipartiteInfluenceGame, FollowerOracle]" = \
    weakref.WeakKeyDictionary()


def follower_oracle(game: BipartiteInfluenceGame) -> FollowerOracle:
    """The shared per-instance oracle; materialized on first request."""
    oracle = _ORACLES.get(game)
    if oracle is None:
        oracle = _ORACLES[game] = FollowerOracle(game)
    return oracle


def best_response(game: BipartiteInfluenceGame, x: MixedStrategy) -> BestResponseResult:
    """Optimistic best response to a leader mixed strategy."""
    return follower_oracle(game).best_response(payoff.mixed_activation_vector(game, x))
