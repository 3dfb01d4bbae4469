"""load_instance and ``build`` against the per-line reference loader in
``oracles``.

On any text the two loaders must agree: the same game, or an
``InstanceFormatError`` with the same line number and message.  Any other
exception fails the test.  On any rows ``build`` must accept exactly what
the reference loader accepts once the rows are written out as a file.
"""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackalloc import (BipartiteInfluenceGame, InstanceFormatError, dump_instance,
                        generate_instance, load_instance, model)

import oracles
from conftest import random_game

INTP_MAX = int(np.iinfo(np.intp).max)


def outcome(loader, text):
    try:
        game = loader(io.StringIO(text))
    except InstanceFormatError as err:
        return "error", err.line_no, str(err)
    return described(game)


def described(game):
    return loaded(game.n, game.m, game.k_L, game.k_F, game.edge_media.tolist(),
                  game.edge_customers.tolist(), game.edge_p.tolist(), game.edge_pf.tolist())


def loaded(n, m, k_L, k_F, u, v, p, pf):
    """A game's outcome; probabilities by ``float.hex``, so -0.0 is not 0.0."""
    return "game", n, m, k_L, k_F, u, v, [*map(float.hex, p)], [*map(float.hex, pf)]


def assert_agrees(text):
    expected = outcome(oracles.load_instance, text)
    assert outcome(load_instance, text) == expected
    return expected


# Tokens that hit every check: bad numbers, indices out of range in both
# directions and beyond int64, probabilities outside [0, 1], NaN and inf,
# and literals whose rounding is hard: the smallest subnormal, just below
# and far below half of it, 0.1 written out exactly, overflow and -0.
TOKENS = ["0", "1", "2", "3", "-1", "7", "0.5", "1.0", "0.0", "-0.0", "1.5", "1e-3",
          "nan", "inf", "-inf", "x", "1_0", "0x1", str(INTP_MAX), str(INTP_MAX + 1),
          str(-INTP_MAX - 2), "99999999999999999999999", "# c", "4.9e-324",
          "2.4703282292062327e-324", "0.1000000000000000055511151231257827021181583404541015625",
          "1e-400", "1e309", "-0"]


@st.composite
def mutated_files(draw):
    """A valid small instance file with a few lines edited."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    buf = io.StringIO()
    dump_instance(random_game(rng, n_max=4, m_max=5, decimals=2), buf)
    lines = buf.getvalue().splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "drop", "extra", "dup", "swap", "blank",
                                     "comment", "header"]))
        tokens = lines[i].split()
        if kind == "token" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
        elif kind == "drop" and tokens:
            lines[i] = " ".join(tokens[:-1])
        elif kind == "extra":
            lines[i] += " " + draw(st.sampled_from(TOKENS))
        elif kind == "dup":
            lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind in ("blank", "comment"):
            lines.insert(i, "   " if kind == "blank" else "# note")
        elif kind == "header" and len(lines[0].split()) == 4:
            lines[0] = " ".join([lines[0].split()[0], draw(st.sampled_from(
                ["0", "1", "10", str(10**12), str(INTP_MAX), str(INTP_MAX + 1)]))]
                + lines[0].split()[2:])
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=400, deadline=None)
@given(mutated_files())
def test_mutated_files_match_reference(text):
    assert_agrees(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=5), max_size=8))
def test_token_soup_matches_reference(rows):
    assert_agrees("\n".join(" ".join(row) for row in rows))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_arbitrary_text_matches_reference(text):
    assert_agrees(text)


@st.composite
def mutated_rows(draw):
    """The header and rows of a valid small game with a few entries replaced:
    indices and budgets by values in and out of range, probabilities by
    values outside [0, 1] and NaN, and rows by repeats and shuffles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = random_game(rng, n_max=4, m_max=5, decimals=2)
    n, m = game.n, game.m
    header = [n, m, game.k_L, game.k_F]
    rows = [list(row) for row in zip(game.edge_media.tolist(), game.edge_customers.tolist(),
                                     game.edge_p.tolist(), game.edge_pf.tolist())]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["index", "probability", "duplicate", "shuffle", "header"]))
        if kind == "index":
            rows[i][draw(st.integers(0, 1))] = draw(st.sampled_from([-1, 0, 1, n - 1, n, m - 1, m]))
        elif kind == "probability":
            rows[i][draw(st.integers(2, 3))] = draw(st.sampled_from(
                [0.0, 1.0, 0.25, -0.5, 1.5, math.nan, math.inf, -math.inf]))
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), rows[i][:2] + [0.5, 0.5])
        elif kind == "shuffle":
            rows = [rows[j] for j in rng.permutation(len(rows))]
        else:
            header[draw(st.integers(0, 3))] = draw(st.sampled_from([-1, 0, 1, n, n + 1]))
    return header, [tuple(row) for row in rows]


@settings(max_examples=400, deadline=None)
@given(mutated_rows())
def test_build_accepts_what_the_reference_loader_accepts(header_rows):
    (n, m, k_L, k_F), rows = header_rows
    text = f"{n} {m} {k_L} {k_F}\n" + "".join(f"{u} {v} {p!r} {pf!r}\n" for u, v, p, pf in rows)
    expected = outcome(oracles.load_instance, text)
    try:
        game = BipartiteInfluenceGame.build(n, m, rows, k_L, k_F)
    except ValueError:
        assert expected[0] == "error"
    else:
        assert described(game) == expected


@pytest.mark.parametrize("text,expected", [
    # Header only, and no customers at all.
    ("3 4 1 1\n", loaded(3, 4, 1, 1, [], [], [], [])),
    ("2 0 1 0\n", loaded(2, 0, 1, 0, [], [], [], [])),
    ("2 0 1 0\n0 0 0.5 0.5\n", ("error", 2, "line 2: edge index out of range (0, 0)")),
    # Comments and blank lines are skipped but still count as lines.
    ("# c\n\n   \n2 2 1 1\n# mid\n1 1 0.25 0.75\n\n0 1 1 0\n",
     loaded(2, 2, 1, 1, [0, 1], [1, 1], [1.0, 0.25], [0.0, 0.75])),
    ("# c\n\n2 2 1 1\n# mid\n1 1 0.25\n", ("error", 5, "line 5: edge line must be 'u v p pF'")),
    # The first bad line wins, whichever check fails on a later line.
    ("3 4 1 1\n7 0 0.5 0.5\n0 0 0.5\n", ("error", 2, "line 2: edge index out of range (7, 0)")),
    ("3 4 1 1\n0 0 0.5\n7 0 0.5 0.5\n", ("error", 2, "line 2: edge line must be 'u v p pF'")),
    ("3 4 1 1\n0 0 2 0.5\n0 x 0.5 0.5\n", ("error", 2, "line 2: probability out of range")),
    ("3 4 1 1\n0 0 0.5 0.5\n0 x 0.5 0.5\n0 0 2 0.5\n",
     ("error", 3, "line 3: bad number in edge line ['0', 'x', '0.5', '0.5']")),
    # Within a line: index range before duplicate before probability.
    ("3 4 1 1\n0 0 0.5 0.5\n0 0 2 0.5\n", ("error", 3, "line 3: duplicate edge (0, 0)")),
    ("3 4 1 1\n-1 9 2 0.5\n", ("error", 2, "line 2: edge index out of range (-1, 9)")),
    # Index tokens beyond int64 are out of range, not an OverflowError.
    ("3 4 1 1\n99999999999999999999999 0 0.5 0.5\n",
     ("error", 2, "line 2: edge index out of range (99999999999999999999999, 0)")),
    ("3 4 1 1\n0 0 0.5 0.5\n1 -99999999999999999999999 0.5 0.5\n",
     ("error", 3, "line 3: edge index out of range (1, -99999999999999999999999)")),
    # A huge customer count needs no memory of its size.
    ("2 1000000000000 1 1\n1 999999999999 0.5 0.25\n0 5 1 0\n",
     loaded(2, 10**12, 1, 1, [0, 1], [5, 999999999999], [1.0, 0.5], [0.0, 0.25])),
    ("2 1000000000000 1 1\n0 999999999999 0.5 0.25\n0 999999999999 1 0\n",
     ("error", 3, "line 3: duplicate edge (0, 999999999999)")),
    (f"2 {INTP_MAX + 1} 1 1\n", ("error", 1, "line 1: size too large in header")),
    # NaN and infinite probabilities are out of range.
    ("1 1 0 0\n0 0 nan 0.5\n", ("error", 2, "line 2: probability out of range")),
    ("1 1 0 0\n0 0 0.5 inf\n", ("error", 2, "line 2: probability out of range")),
    ("1 1 0 0\n0 0 -inf 0.5\n", ("error", 2, "line 2: probability out of range")),
    # Duplicates need not be adjacent.
    ("3 4 1 1\n0 0 .5 .5\n2 3 .5 .5\n1 1 .5 .5\n2 3 .25 .5\n",
     ("error", 5, "line 5: duplicate edge (2, 3)")),
    ("", ("error", 0, "line 0: empty instance file")),
    # A blank line before a bad edge of its chunk still counts.
    ("3 4 1 1\n\n0 0 0.5 0.5\n0 0 0.5 0.5\n", ("error", 4, "line 4: duplicate edge (0, 0)")),
    # Literals that Python reads and numpy's C reader does not, and
    # separators and line ends that both read.
    ("31 1 1 1\n3_0 0 0.5 0.5\n", loaded(31, 1, 1, 1, [30], [0], [0.5], [0.5])),
    ("4 1 1 1\n\u0663 0 0.5 0.5\n", loaded(4, 1, 1, 1, [3], [0], [0.5], [0.5])),
    ("4 1 1 1\n3.0 0 0.5 0.5\n",
     ("error", 2, "line 2: bad number in edge line ['3.0', '0', '0.5', '0.5']")),
    ("1 1 0 0\n0 0 1_0 0.5\n", ("error", 2, "line 2: probability out of range")),
    ("1 1 0 0\n0 0 \uff11 -0\n", loaded(1, 1, 0, 0, [0], [0], [1.0], [-0.0])),
    ("2 2 1 1\n0\xa01 0.5\x0b0.25\n1\x1c0 1 0\n",
     loaded(2, 2, 1, 1, [0, 1], [1, 0], [0.5, 1.0], [0.25, 0.0])),
    ("2 2 1 1\r\n0 1 0.5 0.25\r\n1 0 1 0\r\n",
     loaded(2, 2, 1, 1, [0, 1], [1, 0], [0.5, 1.0], [0.25, 0.0])),
    ("2 2 1 1\n0 1 0.5 0.25 # c\n", ("error", 2, "line 2: edge line must be 'u v p pF'")),
    ("3 -4 1 1\n", ("error", 1, "line 1: negative size in header")),
])
def test_pinned_cases(text, expected):
    assert assert_agrees(text) == expected


def test_paper_shaped_round_trip_matches_reference():
    game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), (0.1, 0.9), seed=3)
    buf = io.StringIO()
    dump_instance(game, buf, comment="paper shape")
    assert assert_agrees(buf.getvalue())[0] == "game"


def paper_lines():
    """A paper-shaped file, one string per line: the header, then 3,376
    edge lines, so its edges span seven chunks of the loader."""
    game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), (0.1, 0.9), seed=3)
    buf = io.StringIO()
    dump_instance(game, buf)
    return buf.getvalue().splitlines()


def edited(lines, edits):
    """``lines`` with the 1-based line numbers in ``edits`` replaced, joined as a file."""
    lines = list(lines)
    for line_no, text in edits.items():
        lines[line_no - 1] = text
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("last,message", [
    ("0 1 x 0.5", "bad number in edge line ['0', '1', 'x', '0.5']"),
    ("{line2}", "duplicate edge ({u2}, {v2})"),
    ("20 0 0.5 0.5", "edge index out of range (20, 0)"),
    ("{u} {v} 1.5 0.5", "probability out of range"),
], ids=["number", "duplicate", "range", "probability"])
def test_paper_shaped_file_whose_last_line_is_bad(last, message):
    lines = paper_lines()
    u, v = lines[-1].split()[:2]
    u2, v2 = lines[1].split()[:2]
    fields = dict(line2=lines[1], u=u, v=v, u2=u2, v2=v2)
    text = edited(lines, {len(lines): last.format(**fields)})
    assert assert_agrees(text) == ("error", len(lines),
                                   f"line {len(lines)}: {message.format(**fields)}")


@pytest.mark.parametrize("edits,line_no,message", [
    ({100: "0 0 1.5 0.5", 600: "0 1 x 0.5"}, 100, "probability out of range"),
    ({100: "0 0 0.5", 600: "20 0 0.5 0.5"}, 100, "edge line must be 'u v p pF'"),
    ({100: "99999999999999999999999 0 0.5 0.5", 3000: "0 0"}, 100,
     "edge index out of range (99999999999999999999999, 0)"),
    ({520: "{line3}", 1100: "0 1 x 0.5"}, 520, "duplicate edge ({u3}, {v3})"),
    ({1100: "0 1 x 0.5", 3300: "{line3}"}, 1100, "bad number in edge line ['0', '1', 'x', '0.5']"),
], ids=["probability-then-number", "tokens-then-range", "overflow-then-tokens",
        "duplicate-then-number", "number-then-duplicate"])
def test_bad_lines_in_two_chunks_the_earlier_wins(edits, line_no, message):
    lines = paper_lines()
    u3, v3 = lines[2].split()[:2]
    fields = dict(line3=lines[2], u3=u3, v3=v3)
    text = edited(lines, {k: e.format(**fields) for k, e in edits.items()})
    assert assert_agrees(text) == ("error", line_no, f"line {line_no}: {message.format(**fields)}")


@pytest.mark.parametrize("bad", [None, "0 1 x 0.5", "0 0 1.5 0.5"], ids=["good", "number", "probability"])
def test_comments_and_blank_lines_across_chunks(bad):
    # Every 97th line turned into a comment or a blank line: chunks that
    # skip lines must still number the rest as the file does.
    lines = paper_lines()
    for i in range(5, len(lines), 97):
        lines.insert(i, "# note" if i % 2 else "   ")
    if bad is not None:
        lines[2900] = bad
    expected = assert_agrees("\n".join(lines) + "\n")
    assert expected[0] == ("game" if bad is None else "error")
    if bad is not None:
        assert expected[1] == 2901


@pytest.mark.parametrize("last", [None, "0 0 0.5", "20 0 0.5 0.5"], ids=["good", "tokens", "range"])
def test_lines_without_trailing_newlines(last):
    # A stream may be any iterable of lines, here a generator whose lines
    # carry no newline.
    lines = paper_lines()
    if last is not None:
        lines[-1] = last

    def read(loader):
        try:
            return described(loader(line for line in lines))
        except InstanceFormatError as err:
            return "error", err.line_no, str(err)

    assert read(load_instance) == read(oracles.load_instance)
    assert read(load_instance) == outcome(load_instance, "\n".join(lines))


def recorded_token_rows(monkeypatch):
    """From now on, record the rows each call of the token converter gets."""
    rows_seen, edge_columns = [], model._edge_columns

    def recording(rows):
        rows_seen.append(rows)
        return edge_columns(rows)

    monkeypatch.setattr(model, "_edge_columns", recording)
    return rows_seen


def test_a_dumped_file_takes_no_token_path(monkeypatch):
    # numpy's C reader parses every chunk of a dumped file; the token
    # converter sees only the empty rows the loader starts from.
    text = "\n".join(paper_lines()) + "\n"
    rows_seen = recorded_token_rows(monkeypatch)
    game = load_instance(io.StringIO(text))
    assert rows_seen and not any(rows_seen)
    monkeypatch.undo()
    assert described(game) == outcome(oracles.load_instance, text)


def test_a_reader_warning_sends_its_chunk_to_the_token_path(monkeypatch):
    # numpy 1.x reads an index written 3.0 with only a DeprecationWarning,
    # so a chunk the reader warns on must not keep the reader's columns.
    text = "\n".join(paper_lines()) + "\n"
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsed with a warning", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    rows_seen = recorded_token_rows(monkeypatch)
    game = load_instance(io.StringIO(text))
    assert sum(map(len, rows_seen)) == len(paper_lines()) - 1  # every edge line
    monkeypatch.undo()
    assert described(game) == outcome(oracles.load_instance, text)


@pytest.mark.parametrize("where", ["blank-chunk", "comment-after-header"])
def test_chunks_the_reader_rejects_load_with_no_warning(where):
    # An all-blank chunk makes numpy's reader warn, and a comment makes it
    # raise; both chunks take the token path, and no warning escapes whether
    # warnings are errors or shown.
    lines = paper_lines()
    if where == "blank-chunk":  # the header, one chunk of edges, then a blank one
        lines[1 + model._CHUNK_LINES:1 + model._CHUNK_LINES] = [""] * model._CHUNK_LINES
    else:
        lines.insert(1, "# note")
    text = "\n".join(lines) + "\n"
    expected = outcome(oracles.load_instance, text)
    for action in ("error", "always"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            game = load_instance(io.StringIO(text))
        assert not caught and described(game) == expected


def counted_checks(monkeypatch):
    """From now on, record each call of the edge checker and of ``np.lexsort``."""
    calls = {"check": 0, "lexsort": 0}
    check, lexsort = model._edge_faults, np.lexsort

    def counting_check(*args):
        calls["check"] += 1
        return check(*args)

    def counting_lexsort(keys):
        calls["lexsort"] += 1
        return lexsort(keys)

    monkeypatch.setattr(model, "_edge_faults", counting_check)
    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    return calls


def test_a_good_load_checks_its_edges_once(monkeypatch):
    text = "\n".join(paper_lines()) + "\n"
    calls = counted_checks(monkeypatch)
    game = load_instance(io.StringIO(text))
    # The file is in (u, v) order, so nothing is sorted either.
    assert calls == {"check": 1, "lexsort": 0}
    monkeypatch.undo()
    assert described(game) == outcome(oracles.load_instance, text)


# A bad edge costs the game's check and one in file order to name its
# line; a bad number costs only the second, on the edges before it.
@pytest.mark.parametrize("third,message,checks", [
    ("{line2}", "duplicate edge ({u2}, {v2})", 2),
    ("20 0 0.5 0.5", "edge index out of range (20, 0)", 2),
    ("{u4} {v4} 0.5 -0.5", "probability out of range", 2),
    ("0 1 x 0.5", "bad number in edge line ['0', '1', 'x', '0.5']", 1),
], ids=["duplicate", "range", "probability", "number"])
def test_a_bad_third_edge_line_is_named(monkeypatch, third, message, checks):
    lines = paper_lines()
    (u2, v2), (u4, v4) = lines[1].split()[:2], lines[3].split()[:2]
    fields = dict(line2=lines[1], u2=u2, v2=v2, u4=u4, v4=v4)
    text = edited(lines, {4: third.format(**fields)})
    calls = counted_checks(monkeypatch)
    with pytest.raises(InstanceFormatError) as raised:
        load_instance(io.StringIO(text))
    assert (raised.value.line_no, str(raised.value)) == (4, f"line 4: {message.format(**fields)}")
    assert calls["check"] == checks
    monkeypatch.undo()
    assert_agrees(text)
