"""Dense two-phase primal simplex used by the exact solvers.

Problems are stated in the standard form both exact solvers pose:
maximize c.x subject to A x {<=,=,>=} b, one relation per row, and
x >= 0.  Any other bound on a variable is a row (the disjoint solver
states r <= 1 as unit rows).  The caller passes A as a matrix, and the
tableau is built from it with whole-array operations: every row with a
negative rhs, or a >= row with rhs 0, is negated so that it starts on a
slack.  Only = rows and >= rows with a positive rhs need an artificial
variable in phase 1.

The solver certifies its answer: the returned point is re-checked
against x >= 0 and every row of the original data, and the objective is
recomputed from it.

Pivoting is Dantzig's rule with a deterministic ratio test; after a run
of degenerate pivots the solver switches to Bland's rule, which cannot
cycle.  Every pivot, including those that drive artificials out of the
basis after phase 1, counts against the hard cap ``MAX_PIVOTS`` (read on
every call), so a wrong answer is never returned silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_PIVOTS = 10 ** 6
STALL_LIMIT = 100  # degenerate pivots before switching to Bland's rule


class PivotLimitError(RuntimeError):
    """The pivot cap was exceeded; no answer is returned."""


class LpNumericsError(RuntimeError):
    """An answer failed an independent numerical re-check."""


_SENSE = {"<=": 1, "=": 0, ">=": -1}
_RELATION = {sense: rel for rel, sense in _SENSE.items()}


@dataclass
class LinearProgram:
    """maximize objective.x s.t. rows.x {<=,=,>=} rhs, x >= 0.

    ``rows`` is the (R, n) constraint matrix, ``sense`` names each row's
    relation (``"<="``, ``"="`` or ``">="``; stored as +1, 0 and -1), and
    ``rhs`` is (R,).  Each field is converted to a float array (``sense``
    to an int array) on construction.
    """

    objective: np.ndarray
    rows: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective has non-finite coefficients")
        n = self.objective.size
        self.rows = np.asarray(self.rows, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.ndim != 1:
            raise ValueError(f"rhs must be a vector, got shape {self.rhs.shape}")
        R = self.rhs.size
        if self.rows.shape != (R, n):
            raise ValueError(f"row width does not match objective: rows have shape "
                             f"{self.rows.shape}, expected ({R}, {n})")
        if not (np.all(np.isfinite(self.rows)) and np.all(np.isfinite(self.rhs))):
            raise ValueError("row has non-finite coefficients")
        if len(self.sense) != R:
            raise ValueError(f"sense has {len(self.sense)} entries for {R} rows")
        unknown = [rel for rel in self.sense if rel not in _SENSE]
        if unknown:
            raise ValueError(f"unknown relation {unknown[0]!r}")
        self.sense = np.array([_SENSE[rel] for rel in self.sense], dtype=int)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T: np.ndarray, i: int, j: int) -> None:
    T[i] /= T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= np.outer(col, T[i])
    T[:, j] = 0.0
    T[i, j] = 1.0


def _spend(budget: list[int]) -> None:
    """Count one pivot against the cap."""
    if budget[0] <= 0:
        raise PivotLimitError("pivot cap exceeded")
    budget[0] -= 1


def _simplex(T: np.ndarray, basis: list[int], budget: list[int]) -> str:
    """Run pivots until optimal/unbounded; T's last row holds z-c and the objective."""
    bland = False
    stall = 0
    nrows = T.shape[0] - 1
    while True:
        red = T[-1, :-1]
        if bland:
            candidates = np.nonzero(red < -PIVOT_TOL)[0]
            if candidates.size == 0:
                return "optimal"
            j = int(candidates[0])
        else:
            j = int(np.argmin(red))
            if red[j] >= -PIVOT_TOL:
                return "optimal"
        col = T[:nrows, j]
        positive = col > PIVOT_TOL
        if not positive.any():
            return "unbounded"
        ratios = np.full(nrows, np.inf)
        ratios[positive] = T[:nrows, -1][positive] / col[positive]
        best = ratios.min()
        # Deterministic leaving rule: smallest basic-variable index among
        # the minimum ratios (also mildly anti-degenerate).
        tied = np.nonzero(ratios <= best + PIVOT_TOL * max(1.0, abs(best)))[0]
        i = int(min(tied, key=lambda r: basis[r]))
        _spend(budget)
        before = T[-1, -1]
        _pivot(T, i, j)
        basis[i] = j
        if T[-1, -1] <= before + 1e-12:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0


def _cost_row(T: np.ndarray, basis: list[int], costs: np.ndarray) -> None:
    """Recompute reduced costs z-c and the (negated) objective in T's last row."""
    c_basis = costs[basis]
    T[-1, :-1] = c_basis @ T[:-1, :-1] - costs
    T[-1, -1] = c_basis @ T[:-1, -1]


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve to a certified status; see module docstring."""
    n = lp.objective.size

    # Negate rows with a negative rhs, and >= rows with rhs 0, so that the
    # rhs is nonnegative and as many rows as possible start on a slack.
    flip = (lp.rhs < 0) | ((lp.rhs == 0) & (lp.sense < 0))
    sense = np.where(flip, -lp.sense, lp.sense)

    # Columns: structural, slacks (<= rows), surpluses (>= rows), then
    # artificials (= and >= rows), each group in row order.
    R = lp.rhs.size
    slack_rows = np.flatnonzero(sense > 0)
    surp_rows = np.flatnonzero(sense < 0)
    art_rows = np.flatnonzero(sense <= 0)
    C2 = n + slack_rows.size + surp_rows.size
    slack_cols = n + np.arange(slack_rows.size)
    art_cols = C2 + np.arange(art_rows.size)
    T = np.zeros((R + 1, C2 + art_rows.size + 1))
    T[:R, :n] = np.where(flip[:, None], -lp.rows, lp.rows)
    T[slack_rows, slack_cols] = 1.0
    T[surp_rows, n + slack_rows.size + np.arange(surp_rows.size)] = -1.0
    T[art_rows, art_cols] = 1.0
    T[:R, -1] = np.abs(lp.rhs)
    basis_arr = np.empty(R, dtype=int)
    basis_arr[slack_rows] = slack_cols
    basis_arr[art_rows] = art_cols
    basis = basis_arr.tolist()
    budget = [MAX_PIVOTS]

    if art_rows.size:
        costs1 = np.zeros(T.shape[1] - 1)
        costs1[C2:] = -1.0
        _cost_row(T, basis, costs1)
        status = _simplex(T, basis, budget)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise LpNumericsError(f"phase 1 ended {status}")
        if T[-1, -1] < -FEAS_TOL:
            return LpOutcome(status="infeasible")
        # Remove artificials still in the basis: pivot them out, or drop the
        # row entirely when it has become redundant.
        drop_rows = []
        for i, j in enumerate(basis):
            if j < C2:
                continue
            candidates = np.flatnonzero(np.abs(T[i, :C2]) > PIVOT_TOL)
            if candidates.size:
                _spend(budget)
                _pivot(T, i, int(candidates[0]))
                basis[i] = int(candidates[0])
            else:
                drop_rows.append(i)
        if drop_rows:
            T = np.delete(T, drop_rows, axis=0)
            basis = np.delete(basis, drop_rows).tolist()

    # Artificial columns sit at the end; drop them (basis indices unchanged).
    T = np.hstack([T[:, :C2], T[:, -1:]])
    if any(j >= C2 for j in basis):
        raise LpNumericsError("an artificial variable is still basic after phase 1")

    costs2 = np.zeros(C2)
    costs2[:n] = lp.objective
    _cost_row(T, basis, costs2)
    status = _simplex(T, basis, budget)
    if status == "unbounded":
        return LpOutcome(status="unbounded")

    x_std = np.zeros(C2)
    x_std[basis] = T[:-1, -1]
    x = x_std[:n]
    value = float(lp.objective @ x)
    _check_feasible(lp, x)
    return LpOutcome(status="optimal", x=x, value=value)


def _check_feasible(lp: LinearProgram, x: np.ndarray) -> None:
    negative = np.flatnonzero(x < -FEAS_TOL)
    if negative.size:
        j = negative[0]
        raise LpNumericsError(f"variable {j} is negative: {x[j]}")
    lhs = lp.rows @ x
    b = lp.rhs
    tol = FEAS_TOL * np.maximum(1.0, np.abs(b))
    violated = np.where(lp.sense > 0, lhs > b + tol,
                        np.where(lp.sense < 0, lhs < b - tol, np.abs(lhs - b) > tol))
    if violated.any():
        i = np.flatnonzero(violated)[0]
        raise LpNumericsError(f"row violated: {lhs[i]} {_RELATION[lp.sense[i]]} {b[i]}")
