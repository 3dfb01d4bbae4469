"""Brute-force reference implementations for the test suite.

Everything here is deliberately independent of the package's vectorized
paths: plain dict/loop arithmetic, activation expectations computed by
enumerating the underlying success/failure events, and best responses by
exhaustive subset enumeration; a strong equilibrium by one scipy LP per
follower response on those brute-force tables; and the per-line instance
loader that ``load_instance`` replaced, as the reference for its
differential tests; and the per-customer generation loop that
``generate_instance`` replaced, as the byte-for-byte reference for its
raw-word sampler.

The exceptions reuse package pieces on purpose, so that outcomes can be
compared bit for bit: the reference for the exact solvers' infeasibility
screen (every candidate LP built as the solvers build it and solved with
``solve_lp`` and no screen), and the MWU greedy and heuristic kernels as
they scored each step before their per-prefix memoization (an edge
gather plus ``bincount`` per greedy step; ``best_response_values`` on
every blended candidate row).
"""

from __future__ import annotations

import itertools

import numpy as np

from stackalloc import (BipartiteInfluenceGame, InstanceFormatError, MixedStrategy,
                        PureStrategy, validate)
from stackalloc import payoff
from stackalloc.exact import enumerate_leader
from stackalloc.follower import best_response, follower_oracle
from stackalloc.heuristic import ACCEPT_TOL, _candidate_rows
from stackalloc.lp import LinearProgram, solve_lp


def subsets_up_to(n, k):
    """Every media subset of size <= k, as sorted tuples (size order)."""
    out = []
    for size in range(min(n, k) + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


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


def activation(game, v, media):
    media = set(media)
    return _hit_probability([game.p[(u, v)] for u in game.customer_neighbors[v]
                             if u in media])


def recapture(game, v, media):
    media = set(media)
    return _hit_probability([game.p_F[(u, v)] for u in game.customer_neighbors[v]
                             if u in media])


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
        F, G = oracle.utilities(payoff.activation_rows(game, leaders))
        Gt = G.T
        for yi, y_star in enumerate(oracle.strategies):
            rows = list(zip(Gt[yi] - Gt, itertools.repeat(">="), itertools.repeat(0.0)))
            rows.append((np.ones(len(leaders)), "=", 1.0))
            lps[y_star] = LinearProgram(objective=F[:, yi], rows=rows)
        return lps
    n = game.n
    a = np.bincount(game.edge_media, weights=game.edge_p, minlength=n)
    d = np.bincount(game.edge_media, weights=game.edge_p * game.edge_pf, minlength=n)
    bq = np.bincount(game.edge_media,
                     weights=game.edge_p * (game.edge_p - game.edge_pf), minlength=n)
    ymat = np.array([y.mask(n) for y in oracle.strategies], dtype=float)
    for yi, y_star in enumerate(oracle.strategies):
        diff = ymat[yi] - ymat
        rows = list(zip(-diff * bq, itertools.repeat(">="), (-diff @ a).tolist()))
        rows.append((np.ones(n), "<=", float(game.k_L)))
        lps[y_star] = LinearProgram(objective=a - ymat[yi] * d, rows=rows,
                                    bounds=[(0.0, 1.0)] * n)
    return lps


def unscreened_outcomes(game, disjoint=False):
    """{y*: (status, value)} from ``solve_lp`` on every candidate LP."""
    outcomes = {}
    for y_star, lp in candidate_lps(game, disjoint).items():
        out = solve_lp(lp)
        outcomes[y_star] = (out.status, out.value)
    return outcomes


def greedy_weighted_edges(game, weights, budget, oracle):
    """The MWU greedy scored from the edge list: c = w @ gain once per
    call, then per step an edge gather of c_v * s(v) * p_uv summed per
    medium by ``bincount``.  Ties go to the smallest medium index."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    c = w.sum() + w @ oracle.gain
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
        payoff.fund(game, survival, u)
    return PureStrategy.of(chosen)


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
            rows = _candidate_rows(game, 1.0 - survival, survival, candidates)
            values = oracle.best_response_values(keep * pvx + rows / i)
            r = int(np.argmax(values))
            if values[r] < fbr_x - ACCEPT_TOL:
                break
            selected.append(int(candidates[r]))
            payoff.fund(game, survival, selected[-1])
        chosen = PureStrategy.of(selected)
        weights = {s: w * keep for s, w in weights.items() if w * keep > 0.0}
        weights[chosen] = weights.get(chosen, 0.0) + 1.0 / i
        pvx = keep * pvx + (1.0 - survival) / i
        fbr_x = float(oracle.best_response_values(pvx)[0])
        if best_value < fbr_x:
            best_weights, best_value = dict(weights), fbr_x
    x_star = MixedStrategy(best_weights)
    return x_star, best_response(game, x_star, oracle=oracle)


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
    game = BipartiteInfluenceGame.build(header[0], header[1], edges, header[2], header[3])
    problem = validate(game)
    if problem is not None:
        raise InstanceFormatError(0, problem)
    return game


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
