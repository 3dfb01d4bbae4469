"""Brute-force reference implementations for the test suite.

Everything here is deliberately independent of the package's vectorized
paths: plain dict/loop arithmetic, activation expectations computed by
enumerating the underlying success/failure events, and best responses by
exhaustive subset enumeration; and the per-line instance loader that
``load_instance`` replaced, as the reference for its differential tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from stackalloc import BipartiteInfluenceGame, InstanceFormatError, validate


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
