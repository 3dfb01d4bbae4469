"""load_instance against the per-line reference loader in ``oracles``.

On any text the two must agree: the same game, or an
``InstanceFormatError`` with the same line number and message.  Any other
exception fails the test.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackalloc import InstanceFormatError, dump_instance, generate_instance, load_instance

import oracles
from conftest import random_game

INTP_MAX = int(np.iinfo(np.intp).max)


def outcome(loader, text):
    try:
        game = loader(io.StringIO(text))
    except InstanceFormatError as err:
        return "error", err.line_no, str(err)
    return ("game", game.n, game.m, game.k_L, game.k_F, game.edge_media.tolist(),
            game.edge_customers.tolist(), game.edge_p.tolist(), game.edge_pf.tolist())


def assert_agrees(text):
    expected = outcome(oracles.load_instance, text)
    assert outcome(load_instance, text) == expected
    return expected


# Tokens that hit every check: bad numbers, indices out of range in both
# directions and beyond int64, probabilities outside [0, 1], NaN and inf.
TOKENS = ["0", "1", "2", "3", "-1", "7", "0.5", "1.0", "0.0", "-0.0", "1.5", "1e-3",
          "nan", "inf", "-inf", "x", "1_0", "0x1", str(INTP_MAX), str(INTP_MAX + 1),
          str(-INTP_MAX - 2), "99999999999999999999999", "# c"]


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


@pytest.mark.parametrize("text,expected", [
    # Header only, and no customers at all.
    ("3 4 1 1\n", ("game", 3, 4, 1, 1, [], [], [], [])),
    ("2 0 1 0\n", ("game", 2, 0, 1, 0, [], [], [], [])),
    ("2 0 1 0\n0 0 0.5 0.5\n", ("error", 2, "line 2: edge index out of range (0, 0)")),
    # Comments and blank lines are skipped but still count as lines.
    ("# c\n\n   \n2 2 1 1\n# mid\n1 1 0.25 0.75\n\n0 1 1 0\n",
     ("game", 2, 2, 1, 1, [0, 1], [1, 1], [1.0, 0.25], [0.0, 0.75])),
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
     ("game", 2, 10**12, 1, 1, [0, 1], [5, 999999999999], [1.0, 0.5], [0.0, 0.25])),
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
])
def test_pinned_cases(text, expected):
    assert assert_agrees(text) == expected


def test_paper_shaped_round_trip_matches_reference():
    game = generate_instance(20, 844, 3506 / 844, (0.0, 0.2), (0.1, 0.9), seed=3)
    buf = io.StringIO()
    dump_instance(game, buf, comment="paper shape")
    assert assert_agrees(buf.getvalue())[0] == "game"
