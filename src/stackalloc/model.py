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
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

# How far a mixed strategy's weights may sum from 1.
FEASIBILITY_TOL = 1e-9

Edge = tuple[int, int]
_BOOLS = {bool, np.bool_}


def require_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's too) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def _bool_medium(u) -> bool:
    """Raise for a Python bool medium index (numpy's bools have no __index__)."""
    raise TypeError(f"medium indices must be integers, got the bool {u}")


class StackallocError(RuntimeError):
    """A run the package stopped before its answer; ``exit_code`` is the CLI's."""

    exit_code = 3


class CapExceededError(StackallocError):
    """A strategy enumeration would exceed its size cap:
    ``exact.DEFAULT_LEADER_CAP`` or ``follower.DEFAULT_FOLLOWER_CAP``."""


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
        """From medium indices; a float or a bool (a mask entry) raises TypeError."""
        return PureStrategy(tuple(sorted({operator.index(u) for u in media
                                          if type(u) is not bool or _bool_medium(u)})))

    @staticmethod
    def empty() -> "PureStrategy":
        return PureStrategy(())

    def __len__(self) -> int:
        return len(self.media)

    def __iter__(self) -> Iterator[int]:
        return iter(self.media)

    def require_within(self, n: int) -> None:
        """Raise ValueError unless every medium lies in [0, n)."""
        for u in self.media:  # in tuple order: the constructor does not sort
            if not 0 <= u < n:
                raise ValueError(f"medium {u} is out of range for a game of n={n} media")

    def __repr__(self) -> str:
        return "{" + ",".join(f"u{u}" for u in self.media) + "}" if self.media else "{}"


@dataclass(frozen=True)
class MixedStrategy:
    """A finite-support distribution over leader pure strategies."""

    weights: Mapping[PureStrategy, float]

    def __post_init__(self):
        total = 0.0
        for s, w in self.weights.items():
            if not isinstance(s, PureStrategy):
                raise TypeError(f"support element {s!r} is not a PureStrategy")
            if not w > 0.0:  # NaN too
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


@dataclass(frozen=True, eq=False, init=False)
class BipartiteInfluenceGame:
    """One valid game instance; immutable after construction.

    Every constructor (``build``, ``load_instance`` and
    ``generate_instance``) ends in ``from_arrays``, which checks the
    instance invariants, so every game satisfies them.  Edges live only in four
    aligned arrays sorted by (medium, customer); they are read-only
    because games are shared through the follower-oracle cache.
    ``edges`` is a tuple view of the (u, v) pairs, and ``p_table`` and
    ``pf_table`` read-only dense (n, m) tables that every survival product
    reads; all are built on first access, so loading, dumping and
    generating never build them.
    """

    n: int
    m: int
    k_L: int
    k_F: int
    edge_media: np.ndarray
    edge_customers: np.ndarray
    edge_p: np.ndarray
    edge_pf: np.ndarray

    @classmethod
    def from_arrays(cls, n: int, m: int, edge_media, edge_customers, edge_p, edge_pf,
                    k_L: int, k_F: int) -> "BipartiteInfluenceGame":
        """Construct from the four edge columns, in any edge order; the game
        keeps fresh copies of them in (u, v) order.

        Raises ValueError on the first violation: columns that are not 1-D
        or not of one length, sizes and budgets that are not integers, index
        columns whose dtype is not an integer type (bool included; empty
        columns pass) or lists and tuples holding a bool, which numpy would
        read as an integer, sizes, budgets, then edges in (u, v) order for
        index range and duplicates, then for p and p_F.
        """
        given = (edge_media, edge_customers)
        columns = [*map(np.asarray, given), np.asarray(edge_p, dtype=float),
                   np.asarray(edge_pf, dtype=float)]
        if any(column.ndim != 1 for column in columns) or len({c.size for c in columns}) > 1:
            raise ValueError("edge columns must be 1-D and of equal length, got shapes "
                             + ", ".join(str(column.shape) for column in columns))
        names = ("n", "m", "k_L", "k_F")
        for name, value in zip(names, (n, m, k_L, k_F)):
            require_integer(name, value)
        for name, column, entries in zip(("media", "customers"), columns, given):
            if column.size and column.dtype.kind not in "iu":
                raise ValueError(f"edge {name} must be integers, got dtype {column.dtype}")
            if isinstance(entries, (list, tuple)) and not _BOOLS.isdisjoint(map(type, entries)):
                raise ValueError(f"edge {name} must be integers, got a bool entry")
        n, m, k_L, k_F = sizes = tuple(int(value) for value in (n, m, k_L, k_F))
        if n < 0 or m < 0:
            raise ValueError("negative media or customer count")
        for who, name, k in (("leader", "k_L", k_L), ("follower", "k_F", k_F)):
            if k > n:
                raise ValueError(f"{who} budget exceeds media count ({name}={k}, n={n})")
            if k < 0:
                raise ValueError(f"negative {who} budget {name}={k}")
        u, v = (column.astype(np.intp, copy=False) for column in columns[:2])
        order, out_of_range, repeated, bad_p = _edge_faults(n, m, u, v, *columns[2:])
        order = slice(None) if order is None else order  # indexes the edges in (u, v) order
        if (i := _first((out_of_range | repeated)[order])) is not None:
            kind = "edge index out of range" if out_of_range[order][i] else "duplicate edge"
            # Named as given: a uint64 index beyond intp has wrapped negative in u or v.
            raise ValueError(f"{kind} ({columns[0][order][i]}, {columns[1][order][i]})")
        u, v, p, pf = columns = [column[order].copy() for column in (u, v, *columns[2:])]
        if (i := _first(bad_p[order])) is not None:
            name, q = ("p", p) if not _in_unit(p[i]) else ("p_F", pf)
            raise ValueError(f"probability out of range: {name}({u[i]}, {v[i]}) = {float(q[i])}")
        game = cls.__new__(cls)
        for name, value in zip(names, sizes):
            object.__setattr__(game, name, value)
        for name, column in zip(("edge_media", "edge_customers", "edge_p", "edge_pf"), columns):
            column.flags.writeable = False
            object.__setattr__(game, name, column)
        return game

    @classmethod
    def build(cls, n: int, m: int, edge_rows: Iterable[tuple[int, int, float, float]],
              k_L: int, k_F: int) -> "BipartiteInfluenceGame":
        """Construct from ``(u, v, p, p_F)`` rows."""
        return cls.from_arrays(n, m, *(tuple(zip(*edge_rows)) or ((),) * 4), k_L, k_F)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.edge_media.tolist(), self.edge_customers.tolist()))

    @cached_property
    def p_table(self) -> np.ndarray:
        """Dense (n, m) table of p: p_uv on the edges, exactly 0 elsewhere."""
        return self._dense(self.edge_p)

    @cached_property
    def pf_table(self) -> np.ndarray:
        """Dense (n, m) table of p_F, laid out like ``p_table``."""
        return self._dense(self.edge_pf)

    def _dense(self, values: np.ndarray) -> np.ndarray:
        table = np.zeros((self.n, self.m))
        table[self.edge_media, self.edge_customers] = values
        table.flags.writeable = False
        return table


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    return next(iter(np.flatnonzero(mask).tolist()), None)


def _edge_faults(n: int, m: int, u, v, p, pf) -> tuple[np.ndarray | None, ...]:
    """The order that sorts the edges by (u, v), or None if they are strictly
    sorted already, and per edge, in the given order, three flags: out of
    range, repeat of an earlier edge, and p or p_F outside [0, 1]."""
    order, repeated = None, np.zeros(u.size, dtype=bool)
    if not ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
        order = np.lexsort((v, u))  # stable: a repeat sorts after the edge it repeats
        su, sv = u[order], v[order]
        repeated[order[1:][(su[1:] == su[:-1]) & (sv[1:] == sv[:-1])]] = True
    out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= m)
    return order, out_of_range, repeated, ~(_in_unit(p) & _in_unit(pf))


def _in_unit(q):
    return (0.0 <= q) & (q <= 1.0)  # NaN is not in [0, 1]


def is_disjoint(game: BipartiteInfluenceGame) -> bool:
    """True when no customer is adjacent to more than one medium.

    Isolated customers count as disjoint; they contribute nothing to any
    utility and do not break the bilinear structure.
    """
    return len(set(game.edge_customers.tolist())) == game.edge_customers.size


def allocation_of(x: MixedStrategy, n: int) -> np.ndarray:
    """Aggregate a mixed strategy: r_u = total probability of funding u, in [0, 1]."""
    r = np.zeros(n)
    for s, w in x.weights.items():
        s.require_within(n)
        for u in s:
            r[u] += w
    return np.clip(r, 0.0, 1.0)


def iter_subsets(n: int, max_size: int) -> list[tuple[int, ...]]:
    """All subsets of range(n) with at most max_size elements, in
    lexicographic order of the sorted tuples: (), (0,), (0,1), ..."""
    return sorted(chain.from_iterable(combinations(range(n), k)
                                      for k in range(min(max_size, n) + 1)))


def count_subsets(n: int, max_size: int) -> int:
    return sum(math.comb(n, i) for i in range(min(max_size, n) + 1))


def pure_strategies(n: int, budget: int, cap: int, player: str, advice: str) -> list[PureStrategy]:
    """The subsets of at most ``budget`` media, or CapExceededError if over ``cap``."""
    total = count_subsets(n, budget)
    if total > cap:
        raise CapExceededError(f"{player} strategy set has {total} elements (cap {cap}); {advice}")
    return [PureStrategy(s) for s in iter_subsets(n, budget)]


# Edge lines are parsed this many at a time, which bounds the tokens held.
_CHUNK_LINES = 512
_EDGE_ROW = np.dtype([("u", np.intp), ("v", np.intp), ("p", float), ("pf", float)])


def load_instance(stream: TextIO | Iterable[str]) -> BipartiteInfluenceGame:
    """Parse the line-oriented instance format.

    Lines starting with ``#`` are comments and blank lines are skipped.
    The first data line is ``n m k_L k_F``; every further data line is
    ``u v p pF``.  Probabilities are read as the decimal literals in the
    file, so a save/load round trip is exact.  A bad file raises on its
    first bad line, with that line's first failing check in the order:
    token count, number, index range, duplicate edge, probability range.

    Edge lines are read in chunks of ``_CHUNK_LINES``.  numpy's C reader
    parses a chunk to the bits ``int`` and ``float`` give; one it rejects
    takes the token path, which drops comment and blank lines and converts
    a column at a time.  Only a chunk that fails there too is searched line
    by line, and the edges are checked in file order only to name a bad line.
    """
    lines = iter(stream)
    line_no, header = 0, None
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            header = _header(tokens, line_no)
            break
    if header is None:
        raise InstanceFormatError(0, "empty instance file")
    n, m, k_L, k_F = header
    parts = [_edge_columns([])]  # per chunk, its edge columns
    numbers: list[Iterable[int]] = [()]  # per chunk, the line number of each edge
    while chunk := list(islice(lines, _CHUNK_LINES)):
        lines_here = range(line_no + 1, line_no + 1 + len(chunk))
        line_no += len(chunk)
        if (columns := _read_columns(chunk)) is None:  # the token path
            rows = list(map(str.split, chunk))
            kept = [i for i, row in enumerate(rows) if row and not row[0].startswith("#")]
            rows, lines_here = [rows[i] for i in kept], [lines_here[i] for i in kept]
            if (columns := _edge_columns(rows)) is None:
                bad = next(i for i, row in enumerate(rows) if _edge_columns([row]) is None)
                parts.append(_edge_columns(rows[:bad]))
                numbers.append(lines_here[:bad])
                raise (_bad_edge(n, m, parts, numbers)  # an earlier bad edge wins
                       or InstanceFormatError(lines_here[bad], _line_error(rows[bad])))
        parts.append(columns)
        numbers.append(lines_here)
    try:
        return BipartiteInfluenceGame.from_arrays(n, m, *map(np.concatenate, zip(*parts)),
                                                  k_L, k_F)
    except ValueError as error:
        raise _bad_edge(n, m, parts, numbers) or error from None


def _header(tokens: list[str], line_no: int) -> tuple[int, int, int, int]:
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
    return header


def _read_columns(chunk: list[str]) -> tuple[np.ndarray, ...] | None:
    """The edge columns numpy's C reader parses, or None on an error, warning or skipped line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 1.x reads an index 3.0 with only a warning
        try:
            table = np.loadtxt(chunk, dtype=_EDGE_ROW, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    return tuple(table[name] for name in _EDGE_ROW.names) if table.size == len(chunk) else None


def _edge_columns(rows: list[list[str]]) -> tuple[np.ndarray, ...] | None:
    """The u, v, p and p_F columns of edge token rows, or None if a row is
    not four numbers or an index does not fit in an intp."""
    if not rows:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0)
    try:
        u, v, p, pf = zip(*rows, strict=True)
        return (np.fromiter(map(int, u), np.intp, len(u)), np.fromiter(map(int, v), np.intp, len(v)),
                np.fromiter(map(float, p), float, len(p)), np.fromiter(map(float, pf), float, len(pf)))
    except (ValueError, OverflowError):
        return None


def _line_error(tokens: list[str]) -> str:
    """Why an edge line that ``_edge_columns`` rejects is bad."""
    if len(tokens) != 4:
        return "edge line must be 'u v p pF'"
    try:
        u, v, _, _ = int(tokens[0]), int(tokens[1]), float(tokens[2]), float(tokens[3])
    except ValueError:
        return f"bad number in edge line {tokens!r}"
    return f"edge index out of range ({u}, {v})"  # beyond intp, so beyond n or m


def _bad_edge(n: int, m: int, parts: list[tuple[np.ndarray, ...]],
              numbers: list[Iterable[int]]) -> InstanceFormatError | None:
    """The error naming the line of the first bad edge in file order, or
    None; within one edge, range goes before repeat before probability."""
    u, v, p, pf = map(np.concatenate, zip(*parts))
    _, out_of_range, repeated, bad_p = _edge_faults(n, m, u, v, p, pf)
    if (i := _first(out_of_range | repeated | bad_p)) is None:
        return None
    line_no = list(chain.from_iterable(numbers))[i]
    if out_of_range[i] or repeated[i]:
        kind = "edge index out of range" if out_of_range[i] else "duplicate edge"
        return InstanceFormatError(line_no, f"{kind} ({u[i]}, {v[i]})")
    return InstanceFormatError(line_no, "probability out of range")


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


def require_generator_ranges(n: int, m: int, mean_degree: float, p_dist, pf_dist,
                             seed: int, k_L: int, k_F: int) -> None:
    """Raise ValueError unless ``generate_instance`` takes these: integers; both
    ranges 0 <= a <= b <= 1; a finite mean degree in [0, n]; m >= 0, seed >= 0
    and budgets in [0, n]; and, when m > 0, 0 < n < 2**32."""
    for name, value in (("n", n), ("m", m), ("seed", seed), ("k_L", k_L), ("k_F", k_F)):
        require_integer(name, value)
    for name, dist in (("p", p_dist), ("pf", pf_dist)):
        dist = tuple(dist)
        if len(dist) != 2 or not 0.0 <= dist[0] <= dist[1] <= 1.0:
            raise ValueError(f"{name} range must be two numbers with "
                             f"0 <= a <= b <= 1, got {dist}")
    if not math.isfinite(mean_degree):
        raise ValueError(f"mean degree must be finite, got {mean_degree}")
    if mean_degree < 0:
        raise ValueError(f"mean degree must be non-negative, got {mean_degree}")
    if mean_degree > n:
        raise ValueError(f"mean degree {mean_degree} exceeds media count {n}")
    if n <= 0 and m > 0:
        raise ValueError("cannot attach customers to an empty media set")
    if n >= 1 << 32 and m > 0:
        raise ValueError(f"media count {n} is too large to generate: need n < 2**32")
    if m < 0 or seed < 0 or not (0 <= k_L <= n and 0 <= k_F <= n):
        raise ValueError(f"need m >= 0, seed >= 0 and budgets in [0, n], got n={n}, m={m}, "
                         f"seed={seed}, k_L={k_L}, k_F={k_F}")


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
    require_integer("n", n)
    k_L = min(1, n) if k_L is None else k_L
    k_F = min(2, n) if k_F is None else k_F
    require_generator_ranges(n, m, mean_degree, p_dist, pf_dist, seed, k_L, k_F)
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
    edges = (media.ravel(), np.repeat(np.arange(m), degree), pv.ravel(), pfv.ravel())
    return BipartiteInfluenceGame.from_arrays(n, m, *(column[order] for column in edges), k_L, k_F)
