"""Exact strong-equilibrium solvers: one LP per candidate follower response.

With f(x, y) = F[:, y] . x and g(x, y) = G0[y] + St[y] . x linear in the
leader's variables x, the LP for candidate y* keeps y* a (weak) best
response while maximizing the leader's utility:

    maximize F[:, y*] . x  subject to
    (St[y*] - St[y]) . x >= G0[y] - G0[y*] for every follower y,

plus the rows of the leader's domain.  The best feasible candidate wins.
The two solvers differ only in the domain and in decoding the optimal x:

* ``solve_multi_lp`` works on any instance (the multiple-LP method of
  Conitzer & Sandholm, EC 2006): x mixes the leader's pure strategies
  over the simplex {x >= 0, sum x = 1}, and G0 = 0.

* ``solve_disjoint_lp`` applies when every customer has at most one
  adjacent medium.  Utilities then depend on a mixed strategy only
  through its fractional allocation r (r_u = funding probability of u),
  so x = r has n variables over Q = {0 <= r <= 1, sum r <= k_L},
  G0 = g({}, .), and systematic sampling recovers a mixed strategy with
  support at most n+1 from the optimal r.

Most candidates cannot be induced, and most of those are decided before
any LP is built, by one screen for both domains.  y* is not inducible
when some incentive row cannot hold anywhere in the domain, and each
domain gives the largest value of a row over it, its reach, in closed
form: over the simplex, the row's largest entry; over Q, the sum of its
k_L largest positive coefficients.  A candidate with a row whose reach
falls short of its rhs by more than the LP's feasibility tolerance
``FEAS_TOL`` (scaled by max(1, |rhs|), as in ``lp``'s feasibility check)
is recorded as infeasible without solving.  In exact arithmetic its
phase 1 would end with a residual above ``FEAS_TOL``, which is how
``solve_lp`` reports infeasibility, and no point it could return would
pass its feasibility check.  Rows that only tie (reach exactly at the
rhs) still go to the LP.

The screen runs in two passes.  The first tests every candidate at once
against the rows of B, the follower's pure best responses to the
utility rows the solver already holds (the leader's pure strategies for
the multi-LP, {}, {u0}, ... for the disjoint LP), one row of B at a
time, so no step holds more than one array of the utility table's size.
At the paper's shape B's rows caught every candidate that the screen
rules out.  Only the candidates that pass build their full incentive
block, for the second pass and the LP.  Row b of a candidate's block is
computed from the same floats in both passes, so the verdicts, the LPs
and the answers are the same as with the full block alone.

Every reported equilibrium is re-verified through the payoff and
follower modules; LP bookkeeping is never trusted for the final value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import follower as follower_mod
from . import payoff
from .lp import FEAS_TOL, LinearProgram, LpNumericsError, solve_lp
from .model import (BipartiteInfluenceGame, CapExceededError, MixedStrategy,
                    PureStrategy, count_subsets, is_disjoint, iter_subsets,
                    require_integer)

DEFAULT_LEADER_CAP = 10 ** 5
VALUE_TIE_TOL = 1e-9
REVERIFY_TOL = 1e-6
PRUNE_TOL = 1e-12
Q_TOL = 1e-9


@dataclass(frozen=True)
class EquilibriumResult:
    """Solver output plus the per-candidate audit trail."""

    leader: MixedStrategy
    follower: PureStrategy
    value: float
    per_y_values: dict[PureStrategy, tuple[str, float | None]]


def enumerate_leader(game: BipartiteInfluenceGame) -> list[PureStrategy]:
    """All leader pure strategies, lexicographically ordered; at most
    ``DEFAULT_LEADER_CAP`` of them, or CapExceededError."""
    total = count_subsets(game.n, game.k_L)
    if total > DEFAULT_LEADER_CAP:
        raise CapExceededError(
            f"leader strategy set has {total} elements (cap {DEFAULT_LEADER_CAP}); "
            f"use the disjoint solver or an approximation instead")
    return [PureStrategy(s) for s in iter_subsets(game.n, game.k_L)]


def _finish(game: BipartiteInfluenceGame, x: MixedStrategy, yi: int,
            lp_value: float, oracle: follower_mod.FollowerOracle,
            per_y: dict[PureStrategy, tuple[str, float | None]]) -> EquilibriumResult:
    """Re-verify the candidate equilibrium (x, y*), y* the oracle's
    strategy ``yi``, from scratch and package it."""
    pvx = payoff.mixed_activation_vector(game, x)
    f_all, g_all = oracle.utilities(pvx)
    f_all, g_all = f_all[0], g_all[0]
    y_star = oracle.strategies[yi]
    if g_all[yi] < g_all.max() - REVERIFY_TOL:
        raise LpNumericsError(
            f"recovered strategy does not induce {y_star} as a best response "
            f"(g={g_all[yi]}, max={g_all.max()})")
    value = float(f_all[yi])
    if abs(value - lp_value) > REVERIFY_TOL:
        raise LpNumericsError(
            f"re-evaluated value {value} disagrees with LP value {lp_value}")
    return EquilibriumResult(leader=x, follower=y_star, value=value, per_y_values=per_y)


def _best_candidate(oracle: follower_mod.FollowerOracle, G: np.ndarray, F: np.ndarray,
                    St: np.ndarray, G0: np.ndarray, rows: np.ndarray, sense: list[str],
                    bounds: np.ndarray, reach):
    """Screen and solve each candidate's LP; return the audit trail and the winner.

    The domain is ``rows`` with their ``sense`` and right-hand sides
    ``bounds``, and ``reach(coef)``, the largest value of each row of
    ``coef`` over it.  The best-response pass comes first: B holds the
    follower's best responses to the rows of the utility table G, and
    row b of every candidate is screened at once.  Only candidates that
    no row of B rules out build their full block, for its screen and the
    LP.  The winner ``(value, yi, x)`` is the first candidate that no
    later one beats by more than ``VALUE_TIE_TOL``.
    """
    def fails(coef: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return reach(coef) < rhs - FEAS_TOL * np.maximum(1.0, np.abs(rhs))

    ruled_out = np.zeros(G.shape[1], dtype=bool)
    for b in np.flatnonzero(np.bincount(G.argmax(axis=1), minlength=G.shape[1])):
        ruled_out |= fails(St - St[b], G0[b] - G0)
    sense = [">="] * len(St) + sense
    per_y: dict[PureStrategy, tuple[str, float | None]] = {}
    best: tuple[float, int, np.ndarray] | None = None
    for yi, y_star in enumerate(oracle.strategies):
        per_y[y_star] = ("infeasible", None)
        if ruled_out[yi]:
            continue
        coef, rhs = St[yi] - St, G0 - G0[yi]
        if fails(coef, rhs).any():
            continue
        out = solve_lp(LinearProgram(F[:, yi], np.vstack([coef, rows]), sense,
                                     np.concatenate([rhs, bounds])))
        per_y[y_star] = (out.status, out.value)
        if out.status == "optimal" and (best is None or out.value > best[0] + VALUE_TIE_TOL):
            best = (out.value, yi, out.x)
    if best is None:
        raise LpNumericsError(
            "no candidate LP was feasible, but some response is always inducible")
    return per_y, best


def solve_multi_lp(game: BipartiteInfluenceGame) -> EquilibriumResult:
    """Exact equilibrium by one LP per candidate over the leader's simplex.

    Infeasible candidates are not inducible (recorded in the audit trail).
    """
    leaders = enumerate_leader(game)
    oracle = follower_mod.follower_oracle(game)
    F, G = oracle.utilities(payoff.activation_rows(game, leaders))  # f(z, y), g(z, y)
    # Over the simplex a row's largest value is its largest entry.
    per_y, (lp_value, yi, weights) = _best_candidate(
        oracle, G, F, G.T, G0=np.zeros(G.shape[1]), rows=np.ones((1, len(leaders))),
        sense=["="], bounds=np.ones(1), reach=lambda coef: coef.max(axis=1))
    kept = {leaders[i]: float(w) for i, w in enumerate(weights) if w > PRUNE_TOL}
    total = sum(kept.values())
    x = MixedStrategy({s: w / total for s, w in kept.items()})
    return _finish(game, x, yi, lp_value, oracle, per_y)


def decompose_allocation(r, k_L: int) -> MixedStrategy:
    """Write r in Q as a mix of at most n+1 budget-respecting subsets.

    Systematic sampling (Madow 1949): medium u owns [R_u, R_{u+1}) of the
    cumulative sums R of r, and the comb t, t+1, ..., t+k_L-1 funds every
    medium whose interval holds a tooth, so u is funded with probability
    r_u when t is uniform on [0, 1).  Each segment of [0, 1) between the
    cuts R_u mod 1 gives one atom, weighted by its length; rounding
    slivers of at most ``PRUNE_TOL`` are dropped and the rest renormalized.
    """
    require_integer("k_L", k_L)
    rho = np.asarray(r, dtype=float)
    if rho.ndim != 1:
        raise ValueError(f"allocation must be a vector, got shape {rho.shape}")
    # Q = {0 <= r <= 1, sum r <= k_L}, within Q_TOL; NaN fails every test.
    if not (np.all(rho >= -Q_TOL) and np.all(rho <= 1.0 + Q_TOL)
            and float(rho.sum()) <= k_L + Q_TOL):
        raise ValueError(f"allocation outside Q (budget {k_L}): {rho}")
    rho = np.clip(rho, 0.0, 1.0)
    total = float(rho.sum())
    if total > k_L:
        rho *= k_L / total

    R = np.concatenate(([0.0], np.cumsum(rho)))          # R_0 = 0, ..., R_n
    cuts = np.sort(np.concatenate((R - np.floor(R), [1.0])))
    atoms: dict[PureStrategy, float] = {}
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        if hi - lo <= PRUNE_TOL:
            continue
        # For t inside the segment, R_u - t is no integer, so t + j < R_u
        # for floor(R_u - t) + 1 of the teeth j < k_L.  u's interval holds
        # those below R_{u+1} but not below R_u.
        below = np.clip(np.floor(R - 0.5 * (lo + hi)) + 1.0, 0.0, k_L)
        z = PureStrategy(tuple(np.flatnonzero(below[1:] > below[:-1]).tolist()))
        atoms[z] = atoms.get(z, 0.0) + (hi - lo)
    mass = sum(atoms.values())
    return MixedStrategy({z: w / mass for z, w in atoms.items()})


def solve_disjoint_lp(game: BipartiteInfluenceGame) -> EquilibriumResult:
    """Exact equilibrium for disjoint customers via the n-variable LPs.

    P_v(x) = sum_u r_u P_v({u}) when every customer has at most one
    medium, so f(r, y) = sum_u r_u f({u}, y) (f({}, y) = 0) and
    g(r, y) = g({}, y) + sum_u r_u (g({u}, y) - g({}, y)), with the
    coefficients read from one kernel call on the rows {}, {u0}, ...
    The optimal allocation is decomposed back into a mixed strategy.
    """
    if not is_disjoint(game):
        raise ValueError("instance has a customer with several media; use solve_multi_lp")
    oracle = follower_mod.follower_oracle(game)
    n = game.n
    singles = [PureStrategy(s) for s in iter_subsets(n, 1)]  # {}, {u0}, {u1}, ...
    F, G = oracle.utilities(payoff.activation_rows(game, singles))
    G0, St = G[0], (G[1:] - G[0]).T  # g({}, y), and row y holds g's slope in r
    top = min(game.k_L, n)
    # The budget row sum r <= k_L, then the box rows r_u <= 1.  Over Q a
    # row's largest value is the sum of its k_L largest positive entries.
    per_y, (lp_value, yi, r) = _best_candidate(
        oracle, G, F[1:], St, G0=G0, rows=np.vstack([np.ones(n), np.eye(n)]),
        sense=["<="] * (n + 1), bounds=np.r_[game.k_L, np.ones(n)],
        reach=lambda coef: np.sort(np.maximum(coef, 0.0), axis=1)[:, n - top:].sum(axis=1))
    x = decompose_allocation(r, game.k_L)
    return _finish(game, x, yi, lp_value, oracle, per_y)
