"""Approximation through a zero-sum surrogate game.

The surrogate payoff phi(x, y) = -g(x, y) + sum_v P_v(x) keeps the
follower's best-response sets unchanged, and the shifted family
h_y(z) = phi(z, y) + C is nonnegative, monotone and submodular in z.
Multiplicative weights run over the follower's strategies while the
leader answers each weight vector with a greedy (1 - 1/e) maximizer of
the weighted h; the uniform average of the leader's iterates is the
output mix.  The accompanying certificate bounds the loss of translating
the surrogate guarantee back to the original game.

The greedy's tables depend on the media it has funded so far and not on
the weights, so one run memoizes them by that ordered prefix
(``PrefixTables``): at the default learning rate the rounds replay
one or two strategies, and each step then costs one n x |D_F|
matrix-vector product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import follower as follower_mod
from . import payoff
from .follower import TIE_TOL, BestResponseResult, FollowerOracle, follower_oracle
from .lp import LpNumericsError
from .model import BipartiteInfluenceGame, MixedStrategy, PureStrategy, require_integer


@dataclass(frozen=True)
class MwuConfig:
    iterations: int = 100
    epsilon: float = 0.5
    learning_rate: float | str = "auto"  # "auto" = sqrt(ln|D_F| / T)

    def __post_init__(self):
        require_integer("iterations", self.iterations)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.learning_rate != "auto" and not (
                isinstance(self.learning_rate, numbers.Real)
                and 0.0 < self.learning_rate < math.inf):
            raise ValueError("learning rate must be positive and finite, or 'auto'")


@dataclass(frozen=True)
class ApproxCertificate:
    """Data for the (1-1/e-eps, beta) guarantee.

    epsilon1 is evaluated at the returned profile; epsilon2 and beta need
    an exact optimum and stay None without one.   empirical_regret is the
    average external regret of the weight player, a diagnostic for
    whether the iteration count was large enough.
    """

    epsilon1: float
    C: float
    alpha: float
    epsilon2: float | None = None
    beta: float | None = None
    value: float | None = None
    opt_value: float | None = None
    bound_holds: bool | None = None
    empirical_regret: float | None = None


def _surrogate_losses(oracle: FollowerOracle, pvz: np.ndarray, C: float) -> np.ndarray:
    """h_y(z) = phi(z, y) + C for every follower strategy y."""
    _, g = oracle.utilities(pvz)
    return pvz.sum() - g[0] + C


class PrefixTables:
    """The greedy's per-step tables, memoized by the ordered prefix S.

    With s_S the survival vector after funding S, in its order, and P
    the dense n x m table of p_uv: r(S) = (P * s_S).sum(1) and the
    n x |D_F| table PG(S) = (P * s_S) @ gain.T.  Neither depends on the
    weights, so a cached entry is exactly what recomputing it would
    give.  One instance serves one game and oracle; after c greedy calls
    it holds at most 1 + c * (budget - 1) entries of n * (|D_F| + 1) + m
    floats.
    """

    def __init__(self, game: BipartiteInfluenceGame, oracle: FollowerOracle):
        self._game = game
        self._p = np.zeros((game.n, game.m))
        self._p[game.edge_media, game.edge_customers] = game.edge_p
        self._gain_t = oracle.gain.T
        self._tables: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def get(self, prefix: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(r(S), PG(S)) for S = ``prefix``."""
        tables = self._tables.get(prefix)
        if tables is None:
            if prefix:
                self.get(prefix[:-1])
                survival = self._tables[prefix[:-1]][2].copy()
                payoff.fund(self._game, survival, prefix[-1])
            else:
                survival = np.ones(self._game.m)
            ps = self._p * survival
            tables = self._tables[prefix] = (ps.sum(axis=1), ps @ self._gain_t, survival)
        return tables[0], tables[1]


def greedy_weighted_submodular(game: BipartiteInfluenceGame, weights, budget: int,
                               oracle: FollowerOracle | None = None,
                               tables: PrefixTables | None = None) -> PureStrategy:
    """Greedy maximizer of sum_y w_y h_y(z) under |z| <= budget.

    The weighted objective collapses to sum_v c_v P_v(z) + const with
    c_v = sum_y w_y (1 - P_{F,v}(y) + P_v(y)) >= 0, so adding u to S
    gains sum_v c_v s_S(v) p_uv = w.sum() * r(S)[u] + (PG(S) @ w)[u]
    (see ``PrefixTables``).  ``tables`` carries those tables between the
    calls of one MWU run; without it the call builds its own.  Weights
    are scaled to sum 1 first.  Ties go to the smallest medium index.
    """
    if oracle is None:
        oracle = follower_oracle(game)
    w = np.asarray(weights, dtype=float)
    if (w.size != len(oracle) or not np.isfinite(w).all() or np.any(w < 0)
            or not w.max() > 0):
        raise ValueError("weights must be finite and nonnegative over the follower set, "
                         "not all zero")
    w = w / w.max()  # the sum below cannot overflow
    w = w / w.sum()
    total = w.sum()
    if tables is None:
        tables = PrefixTables(game, oracle)
    chosen: list[int] = []
    blocked = np.zeros(game.n, dtype=bool)
    for _ in range(min(budget, game.n)):
        r, pg = tables.get(tuple(chosen))
        gains = total * r + pg @ w
        if gains.min() < -1e-12:
            raise LpNumericsError(
                f"monotone objective produced a negative marginal gain {gains.min()}")
        gains[blocked] = -np.inf
        u = int(np.argmax(gains))
        if gains[u] <= 0.0:
            break
        chosen.append(u)
        blocked[u] = True
    return PureStrategy.of(chosen)


def solve_mwu(game: BipartiteInfluenceGame, config: MwuConfig = MwuConfig(),
              oracle: FollowerOracle | None = None,
              ) -> tuple[MixedStrategy, BestResponseResult, ApproxCertificate]:
    """Run T rounds of exponential weights against the greedy oracle."""
    if oracle is None:
        oracle = follower_oracle(game)
    T = config.iterations
    C = float(oracle.activation_sums.max(initial=0.0))
    H = game.m + C  # upper bound on every h_y
    if config.learning_rate == "auto":
        eta = math.sqrt(math.log(len(oracle)) / T) if len(oracle) > 1 else 0.0
    else:
        eta = float(config.learning_rate)

    w = np.full(len(oracle), 1.0 / len(oracle))
    counts: dict[PureStrategy, int] = {}
    losses: dict[PureStrategy, np.ndarray] = {}  # h per distinct played z
    cum_losses = np.zeros(len(oracle))
    played = 0.0
    tables = PrefixTables(game, oracle)
    for _ in range(T):
        z = greedy_weighted_submodular(game, w, game.k_L, oracle, tables)
        counts[z] = counts.get(z, 0) + 1
        h = losses.get(z)
        if h is None:
            h = losses[z] = _surrogate_losses(oracle, payoff.activation_vector(game, z), C)
        cum_losses += h
        played += float(w @ h)
        if H > 0 and eta > 0:
            w = w * np.exp(-eta * h / H)
        # Weights that underflow to 0 are fine (the greedy takes w >= 0);
        # losing all of them, or overflowing, is not.
        total = w.sum()
        if not (np.isfinite(total) and total > 0.0):
            raise ValueError(
                f"MWU weights vanished or overflowed at learning rate {eta}; "
                f"use a smaller learning rate")
        w = w / total

    x_prime = MixedStrategy({z: k / T for z, k in counts.items()})
    br = follower_mod.best_response(game, x_prime, oracle=oracle)
    regret = (played - float(cum_losses.min())) / T
    cert = certify(game, x_prime, br.chosen, epsilon=config.epsilon, oracle=oracle)
    return x_prime, br, replace(cert, empirical_regret=regret)


def certify(game: BipartiteInfluenceGame, x_prime: MixedStrategy,
            y_prime: PureStrategy,
            exact: tuple[MixedStrategy, PureStrategy] | None = None,
            epsilon: float = 0.5, tie_tol: float = TIE_TOL,
            oracle: FollowerOracle | None = None) -> ApproxCertificate:
    """Evaluate the translation terms; with an exact optimum supplied,
    also check f(x', y') >= (1 - 1/e - eps) OPT - beta and record it."""
    if oracle is None:
        oracle = follower_oracle(game)
    pvx = payoff.mixed_activation_vector(game, x_prime)
    f_all, g_all = oracle.utilities(pvx)
    f_all, g_all = f_all[0], g_all[0]
    yi = oracle.strategies.index(y_prime)
    if g_all[yi] < g_all.max() - tie_tol:
        raise ValueError(f"{y_prime} is not a best response to the given strategy")
    value = float(f_all[yi])
    eps1 = float((1.0 - pvx) @ payoff.activation_vector(game, y_prime))
    C = float(oracle.activation_sums.max(initial=0.0))
    alpha = 1.0 - 1.0 / math.e - epsilon
    if exact is None:
        return ApproxCertificate(epsilon1=eps1, C=C, alpha=alpha, value=value)
    x_star, y_star = exact
    pv_star = payoff.mixed_activation_vector(game, x_star)
    eps2 = float((1.0 - pv_star) @ payoff.activation_vector(game, y_star))
    beta = (1.0 - 1.0 / math.e) * eps2 - eps1 + (1.0 / math.e + epsilon) * C
    f_star, _ = oracle.utilities(pv_star)
    opt_value = float(f_star[0, oracle.strategies.index(y_star)])
    holds = value >= alpha * opt_value - beta - 1e-9
    return ApproxCertificate(epsilon1=eps1, C=C, alpha=alpha, epsilon2=eps2,
                             beta=beta, value=value, opt_value=opt_value,
                             bound_holds=holds)
