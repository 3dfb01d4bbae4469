"""Brute-force reference implementations for the test suite.

Everything here is deliberately independent of the package's vectorized
paths: plain dict/loop arithmetic, activation expectations computed by
enumerating the underlying success/failure events, and best responses by
exhaustive subset enumeration; a strong equilibrium by one scipy LP per
follower response on those brute-force tables; scipy's HiGHS on any
``LinearProgram``, as the reference status and optimum for ``solve_lp``;
and the per-line instance loader that ``load_instance`` replaced, as the reference for its
differential tests; the recursive subset generator that ``iter_subsets``
replaced, as the reference for its order; and the per-customer
generation loop that ``generate_instance`` replaced, as the byte-for-byte
reference for its raw-word sampler.

The exceptions reuse package pieces on purpose, so that outcomes can be
compared bit for bit: the reference for the exact solvers' infeasibility
screen (every candidate LP built as the solvers build it and solved with
``solve_lp`` and no screen), and the MWU greedy and heuristic kernels as
they scored each step before their per-prefix memoization (an edge
gather plus ``bincount`` per greedy step; ``best_response_values`` on
every blended candidate row), and the MWU loop before it accepted
replayed rounds in batches (one greedy call per round, with the
package's losses and certificate).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import weakref

import numpy as np

from stackalloc import BipartiteInfluenceGame, InstanceFormatError, MixedStrategy, PureStrategy
from stackalloc import mwu, payoff
from stackalloc.exact import enumerate_leader
from stackalloc.follower import follower_oracle
from stackalloc.heuristic import ACCEPT_TOL
from stackalloc.lp import LinearProgram, solve_lp


def subsets_up_to(n, k):
    """Every media subset of size <= k, as sorted tuples (size order)."""
    out = []
    for size in range(min(n, k) + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


def lexicographic_subsets(n, max_size):
    """The recursive generator ``iter_subsets`` replaced: every subset of
    range(n) with at most max_size elements, each prefix before its
    extensions: (), (0,), (0, 1), ..."""
    max_size = min(max_size, n)

    def rec(prefix, start):
        yield tuple(prefix)
        if len(prefix) == max_size:
            return
        for u in range(start, n):
            prefix.append(u)
            yield from rec(prefix, u + 1)
            prefix.pop()

    return rec([], 0)


def _hit_probability(probs):
    """P(at least one independent event fires), by event enumeration."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(probs)):
        weight = 1.0
        for q, b in zip(probs, bits):
            weight *= q if b else 1.0 - q
        if any(bits):
            total += weight
    return total


def edge_maps(game):
    """({(u, v): p_uv}, {(u, v): p_F,uv}), plain dicts built from the edge columns."""
    edges = list(zip(game.edge_media.tolist(), game.edge_customers.tolist()))
    return dict(zip(edges, game.edge_p.tolist())), dict(zip(edges, game.edge_pf.tolist()))


_NEIGHBORS = weakref.WeakKeyDictionary()


def _neighbors(game):
    """Per customer v, a plain dict {u: (p_uv, p_F,uv)} over its media in
    increasing order; built from the edge columns once per game."""
    table = _NEIGHBORS.get(game)
    if table is None:
        table = [{} for _ in range(game.m)]
        p, p_F = edge_maps(game)
        for (u, v), q in p.items():
            table[v][u] = (q, p_F[(u, v)])
        _NEIGHBORS[game] = table
    return table


def activation(game, v, media):
    media = set(media)
    return _hit_probability([q for u, (q, _) in _neighbors(game)[v].items() if u in media])


def recapture(game, v, media):
    media = set(media)
    return _hit_probability([q for u, (_, q) in _neighbors(game)[v].items() if u in media])


def f_pure(game, z, y):
    return sum(activation(game, v, z) * (1.0 - recapture(game, v, y))
               for v in range(game.m))


def g_pure(game, z, y):
    total = 0.0
    for v in range(game.m):
        pv = activation(game, v, z)
        total += pv * recapture(game, v, y) + (1.0 - pv) * activation(game, v, y)
    return total


def phi_constant(game):
    """C = max over follower strategies y of sum_v P_v(y), by enumeration."""
    return max(sum(activation(game, v, y) for v in range(game.m))
               for y in subsets_up_to(game.n, game.k_F))


def f_mixed(game, weights, y):
    """weights: mapping from media tuples/sets to probabilities."""
    return sum(w * f_pure(game, z, y) for z, w in weights.items())


def g_mixed(game, weights, y):
    return sum(w * g_pure(game, z, y) for z, w in weights.items())


def phi(game, weights, y):
    """The zero-sum surrogate -g(x, y) + sum_v P_v(x) at the mix ``weights``."""
    reach = sum(w * activation(game, v, z) for z, w in weights.items() for v in range(game.m))
    return reach - g_mixed(game, weights, y)


def best_response_value(game, weights, tie_tol=1e-9):
    """Optimistic f_BR by exhaustive enumeration of the follower set."""
    candidates = subsets_up_to(game.n, game.k_F)
    g_vals = [g_mixed(game, weights, y) for y in candidates]
    g_max = max(g_vals)
    return max(f_mixed(game, weights, y)
               for y, gv in zip(candidates, g_vals) if gv >= g_max - tie_tol)


def best_pure_leader_value(game):
    """max over leader pure strategies of f_BR, by double enumeration."""
    return max(best_response_value(game, {z: 1.0})
               for z in subsets_up_to(game.n, game.k_L))


def strong_equilibrium_value(game):
    """Leader value of a strong Stackelberg equilibrium, by brute force.

    For each follower response y, scipy's HiGHS maximizes f(x, y) over
    mixes x of the leader's pure strategies subject to g(x, y) >= g(x, y')
    for every y'; the answer is the best feasible value.
    """
    from scipy.optimize import linprog

    leaders = subsets_up_to(game.n, game.k_L)
    followers = subsets_up_to(game.n, game.k_F)
    F = np.array([[f_pure(game, z, y) for y in followers] for z in leaders])
    G = np.array([[g_pure(game, z, y) for y in followers] for z in leaders])
    best = None
    for yi in range(len(followers)):
        out = linprog(-F[:, yi], A_ub=(G - G[:, [yi]]).T, b_ub=np.zeros(len(followers)),
                      A_eq=np.ones((1, len(leaders))), b_eq=[1.0], method="highs")
        if out.status == 0 and (best is None or -out.fun > best):
            best = -out.fun
    return best


def candidate_lps(game, disjoint=False):
    """Every candidate response's LP, built as the exact solvers build it.

    Returns {y*: LinearProgram} in the follower oracle's order: the
    multi-LP over leader pure strategies, or with ``disjoint`` the
    n-variable LP over Q.  Nothing is screened.
    """
    oracle = follower_oracle(game)
    lps = {}
    if not disjoint:
        leaders = enumerate_leader(game)
        F, G = oracle.utilities(payoff.activation_rows(game, game.k_L))
        Gt = G.T
        sense = [">="] * len(Gt) + ["="]
        for yi, y_star in enumerate(oracle.strategies):
            rows = np.vstack([Gt[yi] - Gt, np.ones(len(leaders))])
            lps[y_star] = LinearProgram(F[:, yi], rows, sense, np.r_[np.zeros(len(Gt)), 1.0])
        return lps
    n = game.n
    F, G = oracle.utilities(payoff.activation_rows(game, 1))  # rows {}, {u0}, {u1}, ...
    St, G0 = (G[1:] - G[0]).T, G[0]
    sense = [">="] * len(St) + ["<="] * (n + 1)
    for yi, y_star in enumerate(oracle.strategies):
        rows = np.vstack([St[yi] - St, np.ones(n), np.eye(n)])
        lps[y_star] = LinearProgram(F[1:, yi], rows, sense,
                                    np.r_[G0 - G0[yi], game.k_L, np.ones(n)])
    return lps


def scipy_lp(lp):
    """HiGHS on a ``LinearProgram``: (status, optimum), status 0 optimal,
    2 infeasible, 3 unbounded; the optimum is None unless optimal."""
    from scipy.optimize import linprog

    le, ge, eq = lp.sense > 0, lp.sense < 0, lp.sense == 0
    A_ub = np.vstack([lp.rows[le], -lp.rows[ge]])
    b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]])
    out = linprog(-lp.objective, A_ub=A_ub if b_ub.size else None,
                  b_ub=b_ub if b_ub.size else None,
                  A_eq=lp.rows[eq] if eq.any() else None, b_eq=lp.rhs[eq] if eq.any() else None,
                  method="highs")  # x >= 0 is linprog's default bound
    return out.status, (-out.fun if out.status == 0 else None)


def unscreened_outcomes(game, disjoint=False):
    """{y*: (status, value)} from ``solve_lp`` on every candidate LP."""
    outcomes = {}
    for y_star, lp in candidate_lps(game, disjoint).items():
        out = solve_lp(lp)
        outcomes[y_star] = (out.status, out.value)
    return outcomes


def _edges_of(game, u):
    """(customer, p) on each of medium u's edges, from the edge columns."""
    return [(v, q) for (a, v), q in edge_maps(game)[0].items() if a == u]


def _fund(game, survival, u):
    """Multiply (1 - p_uv) into ``survival`` over medium u's edges, in place."""
    for v, q in _edges_of(game, u):
        survival[v] *= 1.0 - q


def greedy_weighted_edges(game, weights, budget, oracle):
    """The MWU greedy scored from the edge list: c = 1 + w @ (P - P_F) once per
    call, then per step an edge gather of c_v * s(v) * p_uv summed per
    medium by ``bincount``.  Ties go to the smallest medium index."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    c = w.sum() + w @ (oracle.activation - oracle.recapture)
    edge_c = c[game.edge_customers]
    survival = np.ones(game.m)
    chosen = []
    blocked = np.zeros(game.n, dtype=bool)
    for _ in range(min(budget, game.n)):
        contrib = edge_c * survival[game.edge_customers] * game.edge_p
        gains = np.bincount(game.edge_media, weights=contrib,
                            minlength=game.n).astype(float, copy=False)
        gains[blocked] = -np.inf
        u = int(np.argmax(gains))
        if gains[u] <= 0.0:
            break
        chosen.append(u)
        blocked[u] = True
        _fund(game, survival, u)
    return PureStrategy.of(chosen)


def mwu_reference(game, config):
    """``solve_mwu`` as a plain per-round loop: one ``greedy_weighted_edges``
    call per round, and no batches.  Losses and the certificate come from
    the package, so that the outputs compare bit for bit."""
    oracle = follower_oracle(game)
    T = config.iterations
    C = float(oracle.activation.sum(axis=1).max(initial=0.0))
    H = game.m + C
    if config.learning_rate == "auto":
        eta = math.sqrt(math.log(len(oracle)) / T) if len(oracle) > 1 else 0.0
    else:
        eta = float(config.learning_rate)
    w = np.full(len(oracle), 1.0 / len(oracle))
    counts = {}
    cum_losses = np.zeros(len(oracle))
    played = 0.0
    for _ in range(T):
        z = greedy_weighted_edges(game, w, game.k_L, oracle)
        counts[z] = counts.get(z, 0) + 1
        h = mwu._surrogate_losses(oracle, payoff.activation_vector(game, z), C)
        cum_losses += h
        played += float(w @ h)
        if H > 0 and eta > 0:
            w = np.exp(-eta * (cum_losses - cum_losses.min()) / H)
        w = w / w.sum()
    x = MixedStrategy({z: k / T for z, k in counts.items()})
    cert = mwu.certify(game, x, epsilon=config.epsilon)
    return x, dataclasses.replace(cert, empirical_regret=(played - float(cum_losses.min())) / T)


def solve_heuristic_blended(game, ell, oracle):
    """The fictitious-play heuristic scoring every candidate by
    ``best_response_values`` of its blended activation row
    keep * P(x) + P(S + u) / i, with no memoization."""
    weights = {PureStrategy.empty(): 1.0}
    pvx = np.zeros(game.m)
    fbr_x = 0.0
    best_weights, best_value = dict(weights), fbr_x
    for i in range(1, ell + 1):
        keep = (i - 1) / i
        selected = []
        survival = np.ones(game.m)
        for _ in range(min(game.k_L, game.n)):
            candidates = np.array([u for u in range(game.n) if u not in selected],
                                  dtype=np.intp)
            rows = np.tile(1.0 - survival, (candidates.size, 1))
            for r, u in enumerate(candidates.tolist()):
                for v, q in _edges_of(game, u):
                    rows[r, v] += survival[v] * q
            values = oracle.best_response_values(keep * pvx + rows / i)
            r = int(np.argmax(values))
            if values[r] < fbr_x - ACCEPT_TOL:
                break
            selected.append(int(candidates[r]))
            _fund(game, survival, selected[-1])
        chosen = PureStrategy.of(selected)
        weights = {s: w * keep for s, w in weights.items() if w * keep > 0.0}
        weights[chosen] = weights.get(chosen, 0.0) + 1.0 / i
        pvx = keep * pvx + (1.0 - survival) / i
        fbr_x = float(oracle.best_response_values(pvx)[0])
        if best_value < fbr_x:
            best_weights, best_value = dict(weights), fbr_x
    return MixedStrategy(best_weights)


def weights_of(x):
    """Convert a package MixedStrategy into plain {tuple: weight}."""
    return {tuple(s.media): w for s, w in x.weights.items()}


def load_instance(stream):
    """Reference loader: every check on each line as it is read.

    Checks run in the order token count, number, index range, duplicate
    edge, probability range, and the first failing line raises.  The one
    addition to the original per-line loader is the header size bound:
    edge indices are stored as ``np.intp``.
    """
    header = None
    edges = []
    seen = set()
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 4:
                raise InstanceFormatError(line_no, "header must be 'n m k_L k_F'")
            try:
                n, m, k_L, k_F = (int(t) for t in tokens)
            except ValueError:
                raise InstanceFormatError(line_no, f"bad integer in header {tokens!r}") from None
            if n < 0 or m < 0:
                raise InstanceFormatError(line_no, "negative size in header")
            if max(n, m) > np.iinfo(np.intp).max:
                raise InstanceFormatError(line_no, "size too large in header")
            if not (0 <= k_L <= n and 0 <= k_F <= n):
                raise InstanceFormatError(line_no, "budget outside [0, n]")
            header = (n, m, k_L, k_F)
            continue
        if len(tokens) != 4:
            raise InstanceFormatError(line_no, "edge line must be 'u v p pF'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
            pv, pfv = float(tokens[2]), float(tokens[3])
        except ValueError:
            raise InstanceFormatError(line_no, f"bad number in edge line {tokens!r}") from None
        n, m, _, _ = header
        if not (0 <= u < n and 0 <= v < m):
            raise InstanceFormatError(line_no, f"edge index out of range ({u}, {v})")
        if (u, v) in seen:
            raise InstanceFormatError(line_no, f"duplicate edge ({u}, {v})")
        if not (0.0 <= pv <= 1.0 and 0.0 <= pfv <= 1.0):
            raise InstanceFormatError(line_no, "probability out of range")
        seen.add((u, v))
        edges.append((u, v, pv, pfv))
    if header is None:
        raise InstanceFormatError(0, "empty instance file")
    return BipartiteInfluenceGame.build(header[0], header[1], edges, header[2], header[3])


def generate_instance(n, m, mean_degree, p_dist, pf_dist, seed, k_L=None, k_F=None):
    """Reference generator: one ``rng.choice`` and one ``rng.random`` call
    per customer, the loop whose stream ``generate_instance`` reproduces.

    Argument checks are left to the package function; call it first.
    """
    k_L = min(1, n) if k_L is None else k_L
    k_F = min(2, n) if k_F is None else k_F
    degree = max(1, int(round(mean_degree))) if m > 0 else 0
    degree = min(degree, n)
    rng = np.random.default_rng(seed)
    media = np.empty((m, degree), dtype=np.intp)
    draws = np.empty((m, 2 * degree))
    for v in range(m):
        media[v] = rng.choice(n, size=degree, replace=False)
        rng.random(out=draws[v])
    media.sort(axis=1)
    (p_lo, p_hi), (pf_lo, pf_hi) = map(float, p_dist), map(float, pf_dist)
    pv = p_lo + (p_hi - p_lo) * draws[:, 0::2]
    pfv = pf_lo + (pf_hi - pf_lo) * draws[:, 1::2]
    return BipartiteInfluenceGame.from_arrays(n, m, media.ravel(), np.repeat(np.arange(m), degree),
                                              pv.ravel(), pfv.ravel(), k_L, k_F)
