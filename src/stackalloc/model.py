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
import numbers
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

# Default comparison tolerance used across the package.
FEASIBILITY_TOL = 1e-9

Edge = tuple[int, int]


def require_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's too) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")


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
        self._keep(n, m, k_L, k_F, *(column[order] for column in columns))

    def _keep(self, n, m, k_L, k_F, *columns: np.ndarray) -> None:
        """Take ownership of fresh edge columns already in (u, v) order."""
        for name, value in zip(("n", "m", "k_L", "k_F"), (n, m, k_L, k_F)):
            object.__setattr__(self, name, int(value))
        for name, column in zip(("edge_media", "edge_customers", "edge_p", "edge_pf"), columns):
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


# Generator.choice(n, d, replace=False) uses Floyd's sampling up to this
# population, or while d <= n // _FLOYD_FRACTION, and a tail shuffle beyond.
_FLOYD_MAX_N = 10000
_FLOYD_FRACTION = 50


def _raw_draws(seed: int, m: int, degree: int, bounds: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Replay the stream of a per-customer ``rng.choice`` + ``rng.random``
    loop from one block of raw PCG64 words.

    Customer v makes one bounded draw per entry of ``bounds``, then takes
    ``2 * degree`` doubles.  A bounded draw on [0, b] is Lemire's: a
    32-bit draw x gives (x * (b + 1)) >> 32, and is redrawn while the low
    32 bits of that product are below 2**32 mod (b + 1).  A 32-bit draw is
    the low half of a fresh raw word, and the next one its buffered high
    half; a double is a whole word, (raw >> 11) * 2**-53, and leaves that
    buffer alone.  Returns the accepted bounded values (m, len(bounds)),
    as uint32, and the doubles (m, 2 * degree).

    The layout assumes no rejections.  Each one found, first in stream
    order, is dropped from the 32-bit draws, raises its customer's draw
    count by one and lays the stream out again, since every later word
    moves; earlier draws keep their places.  At paper shape a rejection
    happens in about one instance in 180,000.
    """
    k = bounds.size
    span = bounds.astype(np.uint64) + np.uint64(1)
    threshold = (np.uint64(1 << 32) % span).astype(np.uint32)
    dropped = np.zeros(0, dtype=np.intp)  # rejected 32-bit draws, by stream index
    extra = np.zeros(m, dtype=np.intp)
    while True:
        counts = k + extra
        first = np.cumsum(counts) - counts  # 32-bit draws made before each customer
        fresh = (first + counts + 1) // 2 - (first + 1) // 2  # raw words its draws open
        is_pair = np.repeat(np.tile([True, False], m),
                            np.column_stack([fresh, np.full(m, 2 * degree)]).ravel())
        raw = np.random.PCG64(seed).random_raw(is_pair.size)
        halves = _halves(raw[is_pair]).ravel()[:m * k + dropped.size]
        if dropped.size:
            halves = np.delete(halves, dropped)
        product = _halves(halves.reshape(m, k) * span)
        rejected = product[..., 0] < threshold
        if not rejected.any():
            break
        v, at = divmod(int(rejected.argmax()), k)
        kept = v * k + at
        dropped = np.append(dropped, kept + np.searchsorted(dropped - np.arange(dropped.size),
                                                            kept, side="right"))
        extra[v] += 1
    doubles = raw[~is_pair]
    doubles >>= np.uint64(11)
    doubles = doubles.view(np.int64) * (1.0 / (1 << 53))
    return product[..., 1], doubles.reshape(m, 2 * degree)


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of uint64 ``words``, low then high, as a view with
    a trailing axis of two whatever the host's byte order."""
    return words.astype("<u8", copy=False).view("<u4").reshape(*words.shape, 2)


def _sort_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``values`` sorted, ties by column, and the column each
    sorted entry came from.  Entries and row length must be below 2**32."""
    bits = np.uint64(max(values.shape[1] - 1, 0).bit_length())
    keys = np.sort(values.astype(np.uint64) << bits | np.arange(values.shape[1], dtype=np.uint64),
                   axis=1)
    return keys >> bits, (keys & ((np.uint64(1) << bits) - np.uint64(1))).astype(np.intp)


def _floyd(values: np.ndarray, n: int) -> np.ndarray:
    """Floyd's sample per row: step t draws ``values[:, t]`` on [0, j] for
    j = n - d + t and takes j instead when the draw is already taken.

    Picks below n - d are only ever draws, so such a draw is taken iff
    drawn at an earlier step.  A draw h in [n - d, j) is also taken when
    step h - (n - d), whose j is h, took its j.  Memory stays O(m * d)
    whatever n is.
    """
    m, d = values.shape
    rows = np.arange(m)
    ordered, column = _sort_rows(values)
    taken = np.zeros(d * m, dtype=bool)  # step-major, flat
    taken[(column[:, 1:] * m + rows[:, None]).ravel()] = (ordered[:, 1:] == ordered[:, :-1]).ravel()
    source = np.ascontiguousarray(values.T) - (n - d)  # the step whose j is the draw
    chain = (source >= 0) & (source < np.arange(d)[:, None])
    link = np.where(chain, source, 0) * m + rows  # that step's flat index in taken
    for t in np.flatnonzero(chain.any(axis=1)).tolist():
        taken[t * m:(t + 1) * m] |= chain[t] & taken[link[t]]
    return np.where(taken.reshape(d, m).T, np.arange(n - d, n), values)


def _tail_shuffle(values: np.ndarray, n: int) -> np.ndarray:
    """The last d entries of ``arange(n)`` per row after the Fisher-Yates
    steps i = n-1, ..., n-d, step t swapping positions i and ``values[:, t]``.

    Only the positions the steps touch are held, by their rank in the row.
    """
    m, d = values.shape
    rows = np.arange(m)
    positions = np.concatenate([values, np.broadcast_to(np.arange(n - 1, n - d - 1, -1), (m, d))],
                               axis=1)
    ordered, column = _sort_rows(positions)
    rank = np.empty((2 * d, m), dtype=np.intp)  # step-major
    rank[column, rows[:, None]] = np.cumsum(np.diff(ordered, axis=1, prepend=ordered[:, :1]) != 0,
                                            axis=1)
    slot = rank * m + rows
    held = np.empty(2 * d * m, dtype=np.intp)
    held[slot] = positions.T
    picks = np.empty((d, m), dtype=np.intp)
    for t in range(d):
        picks[t] = held[slot[t]]
        held[slot[t]] = held[slot[d + t]]
    return picks.T


def generate_instance(n: int, m: int, mean_degree: float,
                      p_dist: tuple[float, float], pf_dist: tuple[float, float],
                      seed: int, k_L: int | None = None,
                      k_F: int | None = None) -> BipartiteInfluenceGame:
    """Seeded synthetic instance with dataset-shaped bipartite topology.

    Every customer gets the same number of neighbors, the rounded mean
    degree (at least 1), drawn uniformly without replacement; edge
    probabilities are drawn from the given uniform ranges.  The output is
    a pure function of the arguments.  Budgets default to k_L=1, k_F=2
    (the benchmark defaults), clamped to the media count.

    The random stream is defined on the raw 64-bit words of
    ``np.random.PCG64(seed)``, which NEP 19 keeps stable across numpy
    releases.  It is the stream of a loop that, per customer, calls
    ``rng.choice(n, degree, replace=False)`` and then ``rng.random`` for
    ``2 * degree`` doubles, read pairwise (p, p_F) per sorted medium and
    mapped as ``lo + (hi - lo) * d`` like ``uniform`` does; numpy 2.4's
    ``choice`` is Floyd's algorithm with a shuffle, or a tail shuffle for
    large n, over Lemire's bounded integers.  ``_raw_draws`` computes
    every draw of that loop from one ``random_raw`` block.  Media counts
    from 2**32 up would need 64-bit draws and are rejected.
    """
    for name, (a, b) in (("p", p_dist), ("pf", pf_dist)):
        if not (0.0 <= a <= b <= 1.0):
            raise ValueError(f"{name} distribution bounds must satisfy 0 <= a <= b <= 1, got ({a}, {b})")
    if mean_degree > n:
        raise ValueError(f"mean degree {mean_degree} exceeds media count {n}")
    if n <= 0 and m > 0:
        raise ValueError("cannot attach customers to an empty media set")
    if n >= 1 << 32 and m > 0:
        raise ValueError(f"media count {n} is too large to generate: need n < 2**32")
    k_L = min(1, n) if k_L is None else k_L
    k_F = min(2, n) if k_F is None else k_F
    if m < 0 or not (0 <= k_L <= n and 0 <= k_F <= n):
        raise ValueError(f"need m >= 0 and budgets in [0, n], got n={n}, m={m}, k_L={k_L}, k_F={k_F}")
    degree = max(1, int(round(mean_degree))) if m > 0 else 0
    degree = min(degree, n)
    floyd = n <= _FLOYD_MAX_N or degree <= n // _FLOYD_FRACTION
    low = max(n - degree, 1)  # Floyd makes no draw on [0, 0]; the tail shuffle stops at 1
    if floyd:  # the picks, then a shuffle whose draws are only consumed: media get sorted
        bounds = np.r_[np.arange(low, n), np.arange(degree - 1, 0, -1)]
    else:
        bounds = np.arange(n - 1, low - 1, -1)
    bounded, draws = _raw_draws(seed, m, degree, bounds)
    bounded = bounded[:, :n - low].astype(np.intp)  # the picks' draws; the rest only shuffle
    if degree == n:
        media = np.tile(np.arange(n), (m, 1))
    elif floyd:
        media = _floyd(bounded, n)
    else:
        media = _tail_shuffle(bounded, n)
    media.sort(axis=1)
    (p_lo, p_hi), (pf_lo, pf_hi) = map(float, p_dist), map(float, pf_dist)
    pv = (p_hi - p_lo) * draws[:, 0::2]
    pv += p_lo
    pfv = (pf_hi - pf_lo) * draws[:, 1::2]
    pfv += pf_lo
    # A stable sort by medium of these customer-major edges is the game's (u, v) order.
    order = np.argsort(media.ravel().astype(np.min_scalar_type(n)), kind="stable")
    game = BipartiteInfluenceGame.__new__(BipartiteInfluenceGame)
    game._keep(n, m, k_L, k_F, media.ravel()[order], order // max(degree, 1),
               pv.ravel()[order], pfv.ravel()[order])
    return game
