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
the weights, so one run keeps them by that ordered prefix
(``payoff.PrefixTables``, each prefix's PG grown from its parent's, G the
gain table P_v(y) - P_{F,v}(y) that the run builds for itself): at
the default learning rate the rounds replay one or two strategies, and
each step then costs one n x |D_F| matrix-vector product.

Most runs replay one strategy z in every round, so each pass of
``solve_mwu``'s loop either runs the greedy for one round or accepts a
batch of replayed rounds.  Once z has held for ``needed`` rounds in a
row (2 at first, doubled after each guess that stops short, so that a
run that switches often rarely pays for a guess), it guesses that the
next K = min(4 streak, rounds left, ``MAX_BATCH``) rounds play z too,
streak being the rounds z has held: a run that keeps z soon asks for
``MAX_BATCH``, and a guess that fails early costs few rows.  Either way
the rounds' cumulative losses are one ``np.add.accumulate`` down
[cum_losses, h, ..., h], which adds as a running ``+=`` does, and their
weights use ``sum(axis=1)``, which adds each C-ordered row as a 1-D
``sum`` does: K batched rounds leave the state of K single ones.
Each greedy step along z's picks scores all K rounds with one
product W @ PG(S).T, which rounds differently from the greedy's
matrix-vector product, but either evaluation of gain u lies within
gamma_k (total r_u + total max_j |PG(S)_uj|) of the exact sum of the
same floats, with gamma_k = k u / (1 - k u), u the unit roundoff and
k = |D_F| + 2 (Higham, *Accuracy and Stability of Numerical
Algorithms*, section 3.1).  E_u is twice that bound, which covers
total against the exact weight sum and the rounding of the checks.  A
round is certified when at every step each gain minus 2 E_u is at
least -GAIN_TOL, the pick's gain minus 2 E is positive and above every
other unfunded gain plus 2 E, and, where z stops short of the budget,
no unfunded gain plus 2 E is positive: the greedy's checks, argmax and
stop then come out as the batch's.  Rounds are accepted up to the
first one not certified (an exact tie never is), and the greedy plays
that round.  Without customers every h_y is 0, and the weights stay
uniform.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import payoff
from .follower import FollowerOracle, follower_oracle
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
                and not isinstance(self.learning_rate, bool)
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


GAIN_TOL = 1e-12  # a marginal gain below -GAIN_TOL is a numerics error
MAX_BATCH = 64  # rounds per replay batch, so a batch's rows do not grow with T


def greedy_weighted_submodular(game: BipartiteInfluenceGame, weights) -> PureStrategy:
    """Greedy maximizer of sum_y w_y h_y(z) under the leader's budget |z| <= k_L.

    The weighted objective collapses to sum_v c_v P_v(z) + const with
    c_v = sum_y w_y (1 - P_{F,v}(y) + P_v(y)) >= 0, so adding u to S
    gains sum_v c_v s_S(v) p_uv = w.sum() * r(S)[u] + (PG(S) @ w)[u]
    (see ``payoff.PrefixTables``).  Weights are scaled to sum 1 first.
    Ties go to the smallest medium index.
    """
    oracle = follower_oracle(game)
    w = np.asarray(weights, dtype=float)
    if (w.shape != (len(oracle),) or not np.isfinite(w).all() or np.any(w < 0)
            or not w.max() > 0):
        raise ValueError("weights must be finite and nonnegative over the follower set, "
                         "not all zero")
    tables = payoff.PrefixTables(game, oracle.activation - oracle.recapture)
    return PureStrategy.of(_greedy(tables, w, game.k_L))


def _greedy(tables: payoff.PrefixTables, w: np.ndarray, budget: int) -> list[int]:
    """The greedy's media in pick order, at most ``budget`` = k_L, for finite w >= 0 not all 0."""
    w = w / w.max()  # the sum below cannot overflow
    w = w / w.sum()
    total = w.sum()
    chosen: list[int] = []
    for _ in range(budget):
        r, pg = tables.get(tuple(chosen))
        gains = total * r + pg @ w
        if gains.min() < -GAIN_TOL:
            raise LpNumericsError(
                f"monotone objective produced a negative marginal gain {gains.min()}")
        gains[chosen] = -np.inf
        u = int(np.argmax(gains))
        if gains[u] <= 0.0:
            break
        chosen.append(u)
    return chosen


def _replayed_rounds(tables: payoff.PrefixTables, picks: list[int], budget: int,
                     weights: np.ndarray) -> int:
    """How many leading rows of ``weights`` the greedy certainly answers
    with ``picks``.

    Each row is the weight vector of one round, scaled as ``_greedy``
    scales it, so every row's inputs are the greedy's bit for bit; only
    the products are rounded differently.  A row is certified when, at
    every step, the margins of the greedy's checks exceed twice the
    forward error bound of either evaluation (see the module docstring).
    """
    g = weights / weights.max(axis=1, keepdims=True)
    g = g / g.sum(axis=1, keepdims=True)
    totals = g.sum(axis=1, keepdims=True)
    ku = (weights.shape[1] + 2) * np.finfo(float).eps / 2  # k u, u the unit roundoff
    gamma = ku / (1.0 - ku)
    ok = np.ones(len(g), dtype=bool)
    for i in range(min(len(picks) + 1, budget)):
        r, pg = tables.get(tuple(picks[:i]))
        gains = totals * r + g @ pg.T
        err = 2.0 * gamma * totals * (r + np.abs(pg).max(axis=1))
        low, high = gains - 2.0 * err, gains + 2.0 * err
        ok &= low.min(axis=1) >= -GAIN_TOL
        high[:, picks[:i]] = -np.inf
        if i < len(picks):
            chosen = low[:, picks[i]]
            high[:, picks[i]] = -np.inf
            ok &= (chosen > 0.0) & (chosen > high.max(axis=1))
        else:
            ok &= high.max(axis=1) <= 0.0
    return len(g) if ok.all() else int(np.argmin(ok))


def _trajectory(cum_losses: np.ndarray, w: np.ndarray, h: np.ndarray, rounds: int,
                eta: float, H: float) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative losses and weights after 0, 1, ..., ``rounds`` more plays
    of a strategy with losses h; row 0 is (cum_losses, w)."""
    # Row j sums as a running += would, and every array is C-ordered, so
    # that each weight row's sum and product with h are a 1-D vector's.
    cums = np.empty((rounds + 1, h.size))
    cums[0], cums[1:] = cum_losses, h
    np.add.accumulate(cums, axis=0, out=cums)
    if not np.isfinite(cums).all():
        raise ValueError("MWU losses are not finite")
    # The least-loss weight is exp(0) = 1, so the weights never all
    # vanish; the others may underflow to 0 (the greedy takes w >= 0).
    e = np.exp(-eta * (cums[1:] - cums[1:].min(axis=1, keepdims=True)) / H)
    weights = np.empty_like(cums)
    weights[0], weights[1:] = w, e / e.sum(axis=1, keepdims=True)
    return cums, weights


def solve_mwu(game: BipartiteInfluenceGame,
              config: MwuConfig = MwuConfig()) -> tuple[MixedStrategy, ApproxCertificate]:
    """Run T rounds of exponential weights against the greedy oracle;
    returns the uniform mix of the leader's iterates and its certificate."""
    oracle = follower_oracle(game)
    T = config.iterations
    H = max(game.m + oracle.C, 1.0)  # bounds every h_y; with m = 0, every h_y is 0
    if config.learning_rate == "auto":
        eta = math.sqrt(math.log(len(oracle)) / T)
    else:
        eta = float(config.learning_rate)

    w = np.full(len(oracle), 1.0 / len(oracle))
    counts: dict[PureStrategy, int] = {}
    losses: dict[PureStrategy, np.ndarray] = {}  # h per distinct played z
    cum_losses = np.zeros(len(oracle))
    played = 0.0
    tables = payoff.PrefixTables(game, oracle.activation - oracle.recapture)
    z, streak, needed, t = None, 0, 2, 0  # replay z once it has held `needed` rounds
    short = False  # the last guess stopped short: the greedy plays the next round
    while t < T:
        rounds = 0
        if streak >= needed and not short:
            # Guess that the next rounds replay z, and keep those the greedy
            # certainly plays so: their state is the greedy's, bit for bit.
            asked = min(4 * streak, T - t, MAX_BATCH)
            cums, weights = _trajectory(cum_losses, w, h, asked, eta, H)
            rounds = _replayed_rounds(tables, picks, game.k_L, weights[:asked])
            if rounds < asked:
                needed, short = 2 * needed, True
        if rounds == 0:
            picks = _greedy(tables, w, game.k_L)
            last, z = z, PureStrategy.of(picks)
            streak = streak if z == last else 0
            if z not in losses:
                losses[z] = _surrogate_losses(oracle, payoff.activation_vector(game, z), oracle.C)
            h = losses[z]
            cums, weights = _trajectory(cum_losses, w, h, 1, eta, H)
            rounds, short = 1, False
        for row in weights[:rounds]:
            played += float(row @ h)
        counts[z] = counts.get(z, 0) + rounds
        cum_losses, w = cums[rounds], weights[rounds]
        t += rounds
        streak += rounds

    x_prime = MixedStrategy({z: k / T for z, k in counts.items()})
    regret = (played - float(cum_losses.min())) / T
    cert = certify(game, x_prime, epsilon=config.epsilon)
    return x_prime, replace(cert, empirical_regret=regret)


def certify(game: BipartiteInfluenceGame, x_prime: MixedStrategy,
            exact: tuple[MixedStrategy, PureStrategy] | None = None,
            epsilon: float = MwuConfig.epsilon) -> ApproxCertificate:
    """Evaluate the translation terms at (x', y'), with y' the follower's
    optimistic best response to x'; ``value`` is f(x', y'), the leader's
    value f_BR.  With an exact optimum supplied, also check
    f(x', y') >= (1 - 1/e - eps) OPT - beta and record it."""
    MwuConfig(epsilon=epsilon)  # rejects an epsilon outside (0, 1) as a config does
    oracle = follower_oracle(game)
    pvx = payoff.mixed_activation_vector(game, x_prime)
    br = oracle.best_response(pvx)
    value = br.leader_value
    eps1 = float((1.0 - pvx) @ payoff.activation_vector(game, br.chosen))
    alpha = 1.0 - 1.0 / math.e - epsilon
    if exact is None:
        return ApproxCertificate(epsilon1=eps1, C=oracle.C, alpha=alpha, value=value)
    x_star, y_star = exact
    pv_star = payoff.mixed_activation_vector(game, x_star)
    eps2 = float((1.0 - pv_star) @ payoff.activation_vector(game, y_star))
    beta = (1.0 - 1.0 / math.e) * eps2 - eps1 + (1.0 / math.e + epsilon) * oracle.C
    try:
        yi = oracle.strategies.index(y_star)
    except ValueError:
        raise ValueError(f"y* = {y_star} is not a follower strategy of this game "
                         f"(n={game.n}, k_F={game.k_F})") from None
    f_star, _ = oracle.utilities(pv_star)
    opt_value = float(f_star[0, yi])
    holds = value >= alpha * opt_value - beta - 1e-9
    return ApproxCertificate(epsilon1=eps1, C=oracle.C, alpha=alpha, epsilon2=eps2,
                             beta=beta, value=value, opt_value=opt_value,
                             bound_holds=holds)
