"""Domain model: game instances, strategies, validation, text I/O, generation.

An instance is a bipartite graph between ``n`` media and ``m`` customers.
Each edge ``uv`` carries two probabilities: ``p[uv]``, the chance that
funding medium ``u`` activates customer ``v``, and ``p_F[uv]``, the chance
that the follower's medium ``u`` flips a customer already won by the
leader.  The leader funds at most ``k_L`` media, the follower at most
``k_F``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

# Default comparison tolerance used across the package.
FEASIBILITY_TOL = 1e-9

Edge = tuple[int, int]


class CapExceededError(RuntimeError):
    """A strategy enumeration would exceed its configured size cap."""


class InstanceFormatError(ValueError):
    """Malformed instance text; remembers the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, order=True)
class PureStrategy:
    """A budget allocation: the set of funded media, as a sorted index tuple.

    Ordering (and therefore every deterministic tie-break in the package)
    is plain lexicographic comparison of the sorted tuples.
    """

    media: tuple[int, ...] = ()

    @staticmethod
    def of(media: Iterable[int]) -> "PureStrategy":
        return PureStrategy(tuple(sorted(set(int(u) for u in media))))

    @staticmethod
    def empty() -> "PureStrategy":
        return PureStrategy(())

    def __len__(self) -> int:
        return len(self.media)

    def __contains__(self, u: int) -> bool:
        return u in self.media

    def __iter__(self) -> Iterator[int]:
        return iter(self.media)

    def mask(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[list(self.media)] = True
        return out

    def __repr__(self) -> str:
        return "{" + ",".join(f"u{u}" for u in self.media) + "}" if self.media else "{}"


@dataclass(frozen=True)
class MixedStrategy:
    """A finite-support distribution over leader pure strategies."""

    weights: Mapping[PureStrategy, float]

    def __post_init__(self):
        total = 0.0
        for s, w in self.weights.items():
            if w <= 0.0:
                raise ValueError(f"non-positive weight {w} on {s}")
            total += w
        if abs(total - 1.0) > FEASIBILITY_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")

    @staticmethod
    def point_mass(strategy: PureStrategy) -> "MixedStrategy":
        return MixedStrategy({strategy: 1.0})

    def __iter__(self) -> Iterator[tuple[PureStrategy, float]]:
        # Deterministic iteration order regardless of insertion history.
        return iter(sorted(self.weights.items()))


@dataclass(frozen=True, eq=False)
class FractionalAllocation:
    """A vector r in [0,1]^n of per-medium funding probabilities."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 1:
            raise ValueError("allocation must be a vector")
        if np.any(r < -1e-12) or np.any(r > 1.0 + 1e-12):
            raise ValueError("allocation coordinate outside [0, 1]")

    def total(self) -> float:
        return float(self.r.sum())


@dataclass(frozen=True, eq=False, init=False)
class BipartiteInfluenceGame:
    """One game instance; immutable after construction.

    Edges live only in four aligned arrays sorted by (medium, customer),
    i.e. CSR order by medium; they are read-only because games are shared
    through the follower-oracle cache.  ``edges``, ``p``, ``p_F`` and
    ``customer_neighbors`` are read-only views built on first access.
    """

    n: int
    m: int
    k_L: int
    k_F: int
    edge_media: np.ndarray
    edge_customers: np.ndarray
    edge_p: np.ndarray
    edge_pf: np.ndarray

    def __init__(self, n: int, m: int, edges: Iterable[Edge], p: Mapping[Edge, float],
                 p_F: Mapping[Edge, float], k_L: int, k_F: int):
        """Construct from edge tuples and ``p``/``p_F`` maps keyed by exactly those edges."""
        edges = [(int(u), int(v)) for u, v in edges]
        for name, table in (("p", p), ("p_F", p_F)):
            if missing := set(edges).difference(table):
                raise ValueError(f"missing {name} value on edge {min(missing)}")
            if unknown := set(table).difference(edges):
                raise ValueError(f"{name} value on unknown edge {min(unknown)}")
        self._store(n, m, [u for u, _ in edges], [v for _, v in edges],
                    [p[e] for e in edges], [p_F[e] for e in edges], k_L, k_F)

    @classmethod
    def from_arrays(cls, n: int, m: int, edge_media, edge_customers, edge_p, edge_pf,
                    k_L: int, k_F: int) -> "BipartiteInfluenceGame":
        """Construct from the four edge columns, in any edge order."""
        game = cls.__new__(cls)
        game._store(n, m, edge_media, edge_customers, edge_p, edge_pf, k_L, k_F)
        return game

    @classmethod
    def build(cls, n: int, m: int, edge_rows: Iterable[tuple[int, int, float, float]],
              k_L: int, k_F: int) -> "BipartiteInfluenceGame":
        """Construct from ``(u, v, p, p_F)`` rows."""
        return cls.from_arrays(n, m, *(tuple(zip(*edge_rows)) or ((),) * 4), k_L, k_F)

    def _store(self, n, m, media, customers, p, pf, k_L, k_F) -> None:
        columns = (np.asarray(media, dtype=np.intp), np.asarray(customers, dtype=np.intp),
                   np.asarray(p, dtype=float), np.asarray(pf, dtype=float))
        order = np.lexsort(columns[1::-1])
        for name, value in zip(("n", "m", "k_L", "k_F"), (n, m, k_L, k_F)):
            object.__setattr__(self, name, int(value))
        for name, column in zip(("edge_media", "edge_customers", "edge_p", "edge_pf"), columns):
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.edge_media.tolist(), self.edge_customers.tolist()))

    @cached_property
    def p(self) -> Mapping[Edge, float]:
        return MappingProxyType(dict(zip(self.edges, self.edge_p.tolist())))

    @cached_property
    def p_F(self) -> Mapping[Edge, float]:
        return MappingProxyType(dict(zip(self.edges, self.edge_pf.tolist())))

    @cached_property
    def customer_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """N_v: media adjacent to each customer, in increasing order."""
        adj: list[list[int]] = [[] for _ in range(self.m)]
        for u, v in self.edges:
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def media_ptr(self) -> np.ndarray:
        """CSR row pointer: medium u's edges are ``media_ptr[u]:media_ptr[u+1]``
        (edges are sorted by medium)."""
        ptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.edge_media, minlength=self.n), out=ptr[1:])
        return ptr


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    return next(iter(np.flatnonzero(mask).tolist()), None)


def validate(game: BipartiteInfluenceGame) -> str | None:
    """Return None when every instance invariant holds, else a description
    of the first violated one: sizes, budgets, then edges in (u, v) order
    for index range and duplicates, then for p and p_F.  Violations are
    values, not exceptions."""
    if game.n < 0 or game.m < 0:
        return "negative media or customer count"
    for who, name, k in (("leader", "k_L", game.k_L), ("follower", "k_F", game.k_F)):
        if not 0 <= k <= game.n:
            return f"{who} budget exceeds media count ({name}={k}, n={game.n})" \
                if k > game.n else f"negative {who} budget {name}={k}"
    u, v = game.edge_media, game.edge_customers
    out_of_range = (u < 0) | (u >= game.n) | (v < 0) | (v >= game.m)
    repeated = np.r_[False, (u[1:] == u[:-1]) & (v[1:] == v[:-1])]
    if (i := _first(out_of_range | repeated)) is not None:
        kind = "edge index out of range" if out_of_range[i] else "duplicate edge"
        return f"{kind} ({u[i]}, {v[i]})"
    p_ok, pf_ok = ((0.0 <= q) & (q <= 1.0) for q in (game.edge_p, game.edge_pf))  # NaN fails
    if (i := _first(~(p_ok & pf_ok))) is not None:
        name, q = ("p", game.edge_p) if not p_ok[i] else ("p_F", game.edge_pf)
        return f"probability out of range: {name}({u[i]}, {v[i]}) = {float(q[i])}"
    return None


def is_disjoint(game: BipartiteInfluenceGame) -> bool:
    """True when no customer is adjacent to more than one medium.

    Isolated customers count as disjoint; they contribute nothing to any
    utility and do not break the bilinear structure.
    """
    return len(set(game.edge_customers.tolist())) == game.edge_customers.size


def allocation_of(x: MixedStrategy, n: int) -> FractionalAllocation:
    """Aggregate a mixed strategy: r_u = total probability of funding u."""
    r = np.zeros(n)
    for s, w in x.weights.items():
        for u in s:
            r[u] += w
    return FractionalAllocation(np.clip(r, 0.0, 1.0))


def iter_subsets(n: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """All subsets of range(n) with at most max_size elements, in
    lexicographic order of the sorted tuples: (), (0,), (0,1), ..."""
    max_size = min(max_size, n)

    def rec(prefix: list[int], start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        if len(prefix) == max_size:
            return
        for u in range(start, n):
            prefix.append(u)
            yield from rec(prefix, u + 1)
            prefix.pop()

    return rec([], 0)


def count_subsets(n: int, max_size: int) -> int:
    return sum(math.comb(n, i) for i in range(min(max_size, n) + 1))


def load_instance(stream: TextIO | Iterable[str]) -> BipartiteInfluenceGame:
    """Parse the line-oriented instance format.

    Lines starting with ``#`` are comments and blank lines are skipped.
    The first data line is ``n m k_L k_F``; every further data line is
    ``u v p pF``.  Probabilities are read as the decimal literals in the
    file, so a save/load round trip is exact.  A bad file raises on its
    first bad line, with that line's first failing check in the order:
    token count, number, index range, duplicate edge, probability range.
    """
    header, rows, seen = None, [], set()
    for line_no, raw in enumerate(stream, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if header is None:
            if len(tokens) != 4:
                raise InstanceFormatError(line_no, "header must be 'n m k_L k_F'")
            try:
                n, m, k_L, k_F = header = tuple(int(t) for t in tokens)
            except ValueError:
                raise InstanceFormatError(line_no, f"bad integer in header {tokens!r}") from None
            if n < 0 or m < 0:
                raise InstanceFormatError(line_no, "negative size in header")
            if max(n, m) > np.iinfo(np.intp).max:
                raise InstanceFormatError(line_no, "size too large in header")
            if not (0 <= k_L <= n and 0 <= k_F <= n):
                raise InstanceFormatError(line_no, "budget outside [0, n]")
            continue
        if len(tokens) != 4:
            raise InstanceFormatError(line_no, "edge line must be 'u v p pF'")
        try:
            u, v, p, pf = int(tokens[0]), int(tokens[1]), float(tokens[2]), float(tokens[3])
        except ValueError:
            raise InstanceFormatError(line_no, f"bad number in edge line {tokens!r}") from None
        if not (0 <= u < n and 0 <= v < m):
            raise InstanceFormatError(line_no, f"edge index out of range ({u}, {v})")
        if (u, v) in seen:
            raise InstanceFormatError(line_no, f"duplicate edge ({u}, {v})")
        if not (0.0 <= p <= 1.0 and 0.0 <= pf <= 1.0):
            raise InstanceFormatError(line_no, "probability out of range")
        seen.add((u, v))
        rows.append((u, v, p, pf))
    if header is None:
        raise InstanceFormatError(0, "empty instance file")
    return BipartiteInfluenceGame.build(n, m, rows, k_L, k_F)


def dump_instance(game: BipartiteInfluenceGame, stream: TextIO,
                  comment: str | None = None) -> None:
    """Write the text format; floats use repr so reloads are bit-exact."""
    if comment:
        for line in comment.splitlines():
            stream.write(f"# {line}\n")
    stream.write(f"{game.n} {game.m} {game.k_L} {game.k_F}\n")
    stream.writelines(f"{u} {v} {p!r} {pf!r}\n" for u, v, p, pf in zip(
        game.edge_media.tolist(), game.edge_customers.tolist(),
        game.edge_p.tolist(), game.edge_pf.tolist()))


def generate_instance(n: int, m: int, mean_degree: float,
                      p_dist: tuple[float, float], pf_dist: tuple[float, float],
                      seed: int, k_L: int | None = None,
                      k_F: int | None = None) -> BipartiteInfluenceGame:
    """Seeded synthetic instance with dataset-shaped bipartite topology.

    Every customer gets the same number of neighbors, the rounded mean
    degree (at least 1), drawn uniformly without replacement; edge
    probabilities are drawn from the given uniform ranges.  The output is
    a pure function of the arguments.  Each customer's media come from
    one ``rng.choice`` and its ``2 * degree`` probabilities from one
    ``rng.random`` call, read pairwise (p, p_F) per sorted medium: the
    same doubles, in the same order, as one scalar ``rng.uniform`` per
    probability, mapped as ``lo + (hi - lo) * d`` like ``uniform`` does.
    Budgets default to k_L=1, k_F=2 (the benchmark defaults), clamped to
    the media count.
    """
    for name, (a, b) in (("p", p_dist), ("pf", pf_dist)):
        if not (0.0 <= a <= b <= 1.0):
            raise ValueError(f"{name} distribution bounds must satisfy 0 <= a <= b <= 1, got ({a}, {b})")
    if mean_degree > n:
        raise ValueError(f"mean degree {mean_degree} exceeds media count {n}")
    if n <= 0 and m > 0:
        raise ValueError("cannot attach customers to an empty media set")
    k_L = min(1, n) if k_L is None else k_L
    k_F = min(2, n) if k_F is None else k_F
    if m < 0 or not (0 <= k_L <= n and 0 <= k_F <= n):
        raise ValueError(f"need m >= 0 and budgets in [0, n], got n={n}, m={m}, k_L={k_L}, k_F={k_F}")
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
