import re

import numpy as np
import pytest

from stackalloc import LinearProgram, PivotLimitError, solve_lp
from stackalloc import lp as lp_mod

import oracles

LESS, EQUAL, GREATER = "<=", "=", ">="


def test_single_bounded_variable():
    out = solve_lp(LinearProgram([1.0], [[1.0]], [LESS], [1.0]))
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_pair():
    out = solve_lp(LinearProgram([1.0], [[1.0], [1.0]], [GREATER, LESS], [2.0, 1.0]))
    assert out.status == "infeasible"
    assert out.x is None and out.value is None


def test_box_and_budget_polytope():
    # x + y <= 1.5 over the unit box, the box stated as rows.
    out = solve_lp(LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [LESS] * 3,
                                 [1.5, 1.0, 1.0]))
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.5, abs=1e-9)


def test_unbounded():
    out = solve_lp(LinearProgram([1.0, 0.0], [[0.0, 1.0]], [LESS], [1.0]))
    assert out.status == "unbounded"


def test_equality_and_shifted_lower_bounds():
    # maximize x + 2y s.t. x + y = 3, y <= 2, x >= 1
    out = solve_lp(LinearProgram([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
                                 [EQUAL, LESS, GREATER], [3.0, 2.0, 1.0]))
    assert out.status == "optimal"
    assert out.value == pytest.approx(5.0, abs=1e-9)
    assert out.x == pytest.approx([1.0, 2.0], abs=1e-9)


def each_stall_limit(monkeypatch):
    """Set lp.STALL_LIMIT to its default, then to 1, which turns on
    Bland's rule at the first pivot that does not raise the objective."""
    for limit in (lp_mod.STALL_LIMIT, 1):
        monkeypatch.setattr(lp_mod, "STALL_LIMIT", limit)
        yield limit


def test_degenerate_lp_terminates(monkeypatch):
    # Klee-Minty-flavoured degeneracy: many redundant rows through one vertex.
    n = 4
    rows = np.vstack([np.eye(n)] + [np.ones(n)] * 3)
    for _ in each_stall_limit(monkeypatch):
        out = solve_lp(LinearProgram(np.ones(n), rows, [LESS] * (n + 3), np.zeros(n + 3)))
        assert out.status == "optimal"
        assert out.value == pytest.approx(0.0, abs=1e-9)


def test_pivot_cap_raises(monkeypatch):
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 8))
    x0 = np.abs(rng.normal(size=8))
    rows = np.vstack([A, np.ones(8)])
    rhs = np.r_[A @ x0 + 1.0, x0.sum() + 5.0]
    lp = LinearProgram(rng.normal(size=8), rows, [LESS] * 7, rhs)
    monkeypatch.setattr(lp_mod, "MAX_PIVOTS", 1)
    with pytest.raises(PivotLimitError):
        solve_lp(lp)


def test_pivot_cap_holds_while_driving_out_artificials(monkeypatch):
    # Phase 1 takes one pivot and leaves the second row's artificial basic
    # at level 0; removing it takes one more, after which the basis is
    # already optimal for phase 2.
    lp = LinearProgram([1.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [2.0, 2.0, -1.0]],
                       [EQUAL, EQUAL], [1.0, 2.0])
    monkeypatch.setattr(lp_mod, "MAX_PIVOTS", 1)
    with pytest.raises(PivotLimitError):
        solve_lp(lp)
    monkeypatch.setattr(lp_mod, "MAX_PIVOTS", 2)
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.x == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_incentive_rows_start_on_slacks(monkeypatch):
    # The multi-LP shape: rows g(., y*) - g(., y') >= 0 for every y' plus
    # sum x = 1.  Only the simplex row needs an artificial, so every
    # candidate solves in well under 30 pivots; with one artificial per
    # >= row, each of these took 36-80.
    rng = np.random.default_rng(1)
    G = rng.uniform(size=(12, 30))
    F = rng.uniform(size=(12, 30))
    statuses = []
    monkeypatch.setattr(lp_mod, "MAX_PIVOTS", 30)
    for yi in range(30):
        rows = np.vstack([G[:, [yi]].T - G.T, np.ones(12)])
        lp = LinearProgram(F[:, yi], rows, [GREATER] * 30 + [EQUAL], np.r_[np.zeros(30), 1.0])
        out = solve_lp(lp)
        statuses.append(out.status)
        if out.status == "optimal":
            assert out.value == pytest.approx(oracles.scipy_lp(lp)[1], abs=1e-9)
    assert "optimal" in statuses and "infeasible" in statuses


def _random_feasible_lp(rng, box=False, zero_rhs=False):
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 7))
    A = rng.normal(size=(m, n))
    x0 = np.abs(rng.normal(size=n))
    if box:
        x0 = np.minimum(x0, 1.0)
    rows, senses, rhs = [], [], []
    for j in range(m):
        sense = (LESS, GREATER, EQUAL)[int(rng.integers(3))]
        base = float(A[j] @ x0)
        rows.append(A[j])
        senses.append(sense)
        if sense == LESS:
            rhs.append(base + float(abs(rng.normal())))
        elif sense == GREATER:
            rhs.append(base - float(abs(rng.normal())))
        else:
            rhs.append(base)
    rows.append(np.ones(n))
    senses.append(LESS)
    rhs.append(float(x0.sum() + abs(rng.normal()) + 1.0))
    if zero_rhs:
        # Rows through the origin that x0 satisfies: a.x >= 0 and a.x = 0.
        for _ in range(int(rng.integers(1, 4))):
            a = rng.normal(size=n)
            rows.append(a if a @ x0 >= 0 else -a)
            senses.append(GREATER)
            rhs.append(0.0)
        a = rng.normal(size=n)
        rows.append(a - (a @ x0) / (x0 @ x0) * x0)
        senses.append(EQUAL)
        rhs.append(0.0)
    if box:
        rows.extend(np.eye(n))
        senses.extend([LESS] * n)
        rhs.extend([1.0] * n)
    return LinearProgram(rng.normal(size=n), np.array(rows), senses, rhs)


def test_duality_gap_on_random_feasible_lps(monkeypatch):
    for _ in each_stall_limit(monkeypatch):
        rng = np.random.default_rng(5)
        for zero_rhs in [False] * 200 + [True] * 200:
            lp = _random_feasible_lp(rng, zero_rhs=zero_rhs)
            out = solve_lp(lp)
            assert out.status == "optimal"
            # every row re-checked from the raw data
            for a, rel, b in zip(lp.rows, lp.sense, lp.rhs):
                lhs = float(np.dot(a, out.x))
                if rel > 0:  # <=
                    assert lhs <= b + 1e-7
                elif rel < 0:  # >=
                    assert lhs >= b - 1e-7
                else:
                    assert lhs == pytest.approx(b, abs=1e-7)
            assert out.value == pytest.approx(oracles.scipy_lp(lp)[1], abs=1e-6)


def test_box_bounded_lps_match_scipy(monkeypatch):
    for _ in each_stall_limit(monkeypatch):
        rng = np.random.default_rng(6)
        for zero_rhs in [False] * 60 + [True] * 60:
            lp = _random_feasible_lp(rng, box=True, zero_rhs=zero_rhs)
            out = solve_lp(lp)
            assert out.status == "optimal"
            assert out.value == pytest.approx(oracles.scipy_lp(lp)[1], abs=1e-6)


@pytest.mark.parametrize("sense,x,message", [
    (LESS, [-1.0, 0.0], "variable 0 is negative: -1.0"),
    (LESS, [2.0, 0.0], "row violated: 2.0 <= 1.0"),
    (GREATER, [0.0, 0.5], "row violated: 0.5 >= 1.0"),
    (EQUAL, [0.5, 0.0], "row violated: 0.5 = 1.0"),
], ids=["negative", "less", "greater", "equal"])
def test_check_feasible_names_the_first_fault(sense, x, message):
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [sense], [1.0])
    with pytest.raises(lp_mod.LpNumericsError, match=re.escape(message)):
        lp_mod._check_feasible(lp, np.array(x))


def test_redundant_rows_through_a_boxed_vertex():
    # Three equalities meet at the box corner (1, 1), so phase 1 drops a
    # redundant tableau row; the box rows come last.
    lp = LinearProgram([-1.0, 3.0], [[0.0, 1.0], [-3.0, 1.0], [3.0, 2.0], [1.0, 0.0], [0.0, 1.0]],
                       [EQUAL] * 3 + [LESS] * 2, [1.0, -2.0, 5.0, 1.0, 1.0])
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.x == pytest.approx([1.0, 1.0], abs=1e-9)
    assert out.value == pytest.approx(oracles.scipy_lp(lp)[1], abs=1e-9)


def test_deterministic_resolve():
    rng = np.random.default_rng(7)
    lp = _random_feasible_lp(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status == "optimal"
    assert np.array_equal(a.x, b.x)
    assert a.value == b.value


def test_rejects_bad_programs():
    none = np.zeros((0, 1)), [], []
    with pytest.raises(ValueError):
        LinearProgram([np.nan], *none)
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0, 2.0]], [LESS], [1.0])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0]], ["<"], [1.0])
    cases = [
        (([1.0, 2.0], [[1.0, 2.0]], [LESS, LESS], [1.0]), "sense has 2 entries for 1 rows"),
        (([1.0], [[1.0]], ["=="], [1.0]), "unknown relation '=='"),
        (([1.0, 2.0], np.ones((3, 2)), [LESS] * 2, [1.0] * 2),
         "row width does not match objective: rows have shape (3, 2), expected (2, 2)"),
        (([1.0, 2.0], np.ones((3, 2)).T, [LESS] * 3, [1.0] * 3),
         "row width does not match objective: rows have shape (2, 3), expected (3, 2)"),
        (([1.0, 2.0], [1.0, 2.0], [LESS], [1.0]),
         "row width does not match objective: rows have shape (2,), expected (1, 2)"),
        (([1.0, 2.0], np.zeros((0, 2)), [], np.zeros((0, 2))),
         "rhs must be a vector, got shape (0, 2)"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearProgram(*args)
