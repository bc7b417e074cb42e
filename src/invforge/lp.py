"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule (terminating, no cycling).
Variables are free; internally each is split into a difference of two
nonnegative columns. The tableau is fraction-free (Bareiss 1968; compare
the exact LP of QSopt_ex, Applegate, Cook, Dash and Espinoza 2007): each
row, and the cost row, holds Python ints equal to the true rational row
times some positive scale. A pivot cross-multiplies and divides out the
row's gcd, and the ratio test compares by cross-multiplication, so every
decision is the one the rational tableau makes. Feasibility answers,
optimal points and optimal values are exact Fractions, read back as
rhs / (the basic column's entry).

A constraint row is stored as integers over one positive scale, reduced by
their gcd with it, so the scale is the lcm of the true row's denominators
and the tableau row is the integers themselves. A point given as
(integers, D) is checked against a row with one integer dot product.

A solve may start from such a point: each variable is shifted to it, every
non-EQ row the point satisfies starts with its slack basic, and only the
violated and EQ rows get artificials (none at all: no phase 1). Feasibility
and the optimal value do not depend on the start; the point returned may.
With no start nothing is shifted and every row gets an artificial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .relunet import as_fraction, integer_point

LE, GE, EQ = "<=", ">=", "=="
_RELATIONS = (LE, GE, EQ)


class UnboundedError(RuntimeError):
    """The requested objective decreases without bound."""


@dataclass(frozen=True)
class LinearConstraint:
    """ints . x (relation) rhs_int, every number over one positive scale."""

    ints: tuple[int, ...]
    relation: str
    rhs_int: int
    scale: int

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"bad relation {self.relation!r}")
        g = math.gcd(self.scale, self.rhs_int, *self.ints)
        if g > 1:
            object.__setattr__(self, "ints", tuple(c // g for c in self.ints))
            object.__setattr__(self, "rhs_int", self.rhs_int // g)
            object.__setattr__(self, "scale", self.scale // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.scale) for c in self.ints)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_int, self.scale)

    def holds(self, nums, den: int) -> bool:
        """Whether the point nums / den (den > 0) satisfies the row."""
        lhs, rhs = sum(map(operator.mul, self.ints, nums)), self.rhs_int * den
        if self.relation == LE:
            return lhs <= rhs
        if self.relation == GE:
            return lhs >= rhs
        return lhs == rhs


@dataclass
class LinearProgram:
    """Rational constraint rows plus an optional linear objective (minimized)."""

    num_vars: int
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: tuple[Fraction, ...] | None = None

    def constrain(self, coeffs, relation: str, rhs) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError(f"constraint arity {len(coeffs)} != num_vars {self.num_vars}")
        values, scale = integer_point(tuple(coeffs) + (rhs,))
        self.constraints.append(LinearConstraint(values[:-1], relation, values[-1], scale))

    def set_objective(self, coeffs) -> None:
        coeffs = tuple(as_fraction(c) for c in coeffs)
        if len(coeffs) != self.num_vars:
            raise ValueError("objective arity mismatch")
        self.objective = coeffs

    def satisfied_by(self, point) -> bool:
        if len(point) != self.num_vars:
            return False
        nums, den = integer_point(point)
        return all(con.holds(nums, den) for con in self.constraints)


_ZERO = Fraction(0)
_SLACK = {LE: 1, GE: -1, EQ: 0}  # the slack column's sign in a row as given


def _reduce(row, pivot_row, pivot, factor) -> list[int]:
    """row * pivot - factor * pivot_row, divided by the gcd of its entries.

    With pivot > 0 the result is the eliminated row times a positive scale.
    """
    out = [pivot * v - factor * w for v, w in zip(row, pivot_row)]
    g = math.gcd(*out)
    if g > 1:
        out = [v // g for v in out]
    return out


def _pivot(rows, cost, basis, pivot_row, pivot_col, stats) -> None:
    prow = rows[pivot_row]
    pivot = prow[pivot_col]
    if pivot < 0:  # only when a leftover artificial is driven out
        prow = rows[pivot_row] = [-v for v in prow]
        pivot = -pivot
    for i, row in enumerate(rows):
        factor = row[pivot_col]
        if i != pivot_row and factor:
            rows[i] = _reduce(row, prow, pivot, factor)
    factor = cost[pivot_col]
    if factor:
        cost[:] = _reduce(cost, prow, pivot, factor)
    basis[pivot_row] = pivot_col
    if stats is not None:
        stats["pivots"] = stats.get("pivots", 0) + 1


def _simplex_min(rows, cost, basis, num_cols, stats) -> str:
    """Run Bland-rule simplex to optimality; returns 'optimal' or 'unbounded'."""
    while True:
        entering = next((j for j in range(num_cols) if cost[j] < 0), None)
        if entering is None:
            return "optimal"
        pivot_row = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if pivot_row is None:
                    pivot_row, best_rhs, best_a = i, row[-1], a
                    continue
                # rhs_i / a_i against the best ratio; each row's scale cancels
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                    pivot_row, best_rhs, best_a = i, row[-1], a
        if pivot_row is None:
            return "unbounded"
        _pivot(rows, cost, basis, pivot_row, entering, stats)


def _solve(lp: LinearProgram, objective, stats, start=None):
    """Shared two-phase core. Returns (point, value) or None; may raise UnboundedError.

    A start (integers P, D) solves for u = D x - P, so the start is u = 0.
    """
    n = lp.num_vars
    num_struct = 2 * n  # u_k = col(2k) - col(2k+1)
    shift, den = ((0,) * n, 1) if start is None else start
    slack_count = sum(1 for c in lp.constraints if c.relation != EQ)
    art_start = num_struct + slack_count
    shifted = [con.rhs_int * den - sum(map(operator.mul, con.ints, shift)) for con in lp.constraints]
    # a row owns its slack as basic when the start satisfies it: the slack is then >= 0
    owned = [start is not None and con.relation != EQ and _SLACK[con.relation] * rhs >= 0
             for con, rhs in zip(lp.constraints, shifted)]
    num_cols = art_start + owned.count(False)  # artificials at the end

    rows = []
    basis = []
    slack_col, art_col = num_struct, art_start
    for con, rhs, own in zip(lp.constraints, shifted, owned):
        slack = _SLACK[con.relation] * den * con.scale
        sign = _SLACK[con.relation] if own else -1 if rhs < 0 else 1
        row = [0] * (num_cols + 1)
        for k, c in enumerate(con.ints):
            row[2 * k] = sign * c
            row[2 * k + 1] = -sign * c
        if slack:
            row[slack_col] = sign * slack
            slack_col += 1
        row[-1] = sign * rhs
        if own:
            basis.append(slack_col - 1)
        else:
            row[art_col] = den * con.scale
            basis.append(art_col)
            art_col += 1
        rows.append(row)

    if num_cols > art_start:
        # Phase 1: minimize the artificial total. Row i holds its true row times
        # row[basis[i]]; the cost row is the true cost times the lcm of those.
        arts = [(row, b) for row, b in zip(rows, basis) if b >= art_start]
        total = math.lcm(*(row[b] for row, b in arts))
        cost = [0] * (num_cols + 1)
        for row, b in arts:
            weight = total // row[b]
            cost = [c - weight * v for c, v in zip(cost, row)]
        for b in basis:
            cost[b] = 0  # each artificial's own row cancels its unit cost
        _simplex_min(rows, cost, basis, num_cols, stats)
        if cost[-1] != 0:
            return None  # artificials cannot all vanish: infeasible

    # Drive leftover artificials out of the basis (or drop redundant rows).
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art_start:
            pivot_col = next(
                (j for j in range(art_start) if rows[i][j] != 0), None
            )
            if pivot_col is None:
                continue  # redundant row
            _pivot(rows, cost, basis, i, pivot_col, stats)
        keep.append(i)
    # artificial columns can never re-enter, so phase 2 drops them
    rows = [rows[i][:art_start] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]

    def extract_point():
        values = [_ZERO] * num_struct
        for row, b in zip(rows, basis):
            if b < num_struct:
                values[b] = Fraction(row[-1], row[b])
        return tuple((values[2 * k] - values[2 * k + 1] + shift[k]) / den for k in range(n))

    if objective is None:
        return extract_point(), _ZERO

    # Phase 2 over the real objective.
    cost = [0] * (art_start + 1)
    for k, c in enumerate(integer_point(objective)[0]):
        cost[2 * k] = c
        cost[2 * k + 1] = -c
    for row, b in zip(rows, basis):
        if cost[b] != 0:
            cost = _reduce(cost, row, row[b], cost[b])
    status = _simplex_min(rows, cost, basis, art_start, stats)
    if status == "unbounded":
        raise UnboundedError("objective is unbounded below")
    point = extract_point()
    value = sum(c * x for c, x in zip(objective, point))
    return point, value


def lp_feasible(lp: LinearProgram, stats: dict | None = None, start=None):
    """An exact feasible point, or None when the system is infeasible.

    `start`, an optional point (integers, D) as LinearConstraint.holds takes
    it, is where the simplex starts (see the module docstring).
    """
    result = _solve(lp, None, stats, start)
    return None if result is None else result[0]


def lp_minimize(lp: LinearProgram, stats: dict | None = None, start=None):
    """Minimize lp.objective; returns (point, value), None if infeasible.

    Raises UnboundedError when the objective has no finite minimum. `start`
    is as in lp_feasible.
    """
    if lp.objective is None:
        raise ValueError("lp has no objective")
    return _solve(lp, lp.objective, stats, start)
