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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .relunet import as_fraction

LE, GE, EQ = "<=", ">=", "=="
_RELATIONS = (LE, GE, EQ)


class UnboundedError(RuntimeError):
    """The requested objective decreases without bound."""


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"bad relation {self.relation!r}")

    def holds(self, point) -> bool:
        lhs = sum(c * x for c, x in zip(self.coeffs, point))
        if self.relation == LE:
            return lhs <= self.rhs
        if self.relation == GE:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass
class LinearProgram:
    """Rational constraint rows plus an optional linear objective (minimized)."""

    num_vars: int
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: tuple[Fraction, ...] | None = None

    def constrain(self, coeffs, relation: str, rhs) -> None:
        coeffs = tuple(as_fraction(c) for c in coeffs)
        if len(coeffs) != self.num_vars:
            raise ValueError(f"constraint arity {len(coeffs)} != num_vars {self.num_vars}")
        self.constraints.append(LinearConstraint(coeffs, relation, as_fraction(rhs)))

    def set_objective(self, coeffs) -> None:
        coeffs = tuple(as_fraction(c) for c in coeffs)
        if len(coeffs) != self.num_vars:
            raise ValueError("objective arity mismatch")
        self.objective = coeffs

    def satisfied_by(self, point) -> bool:
        if len(point) != self.num_vars:
            return False
        return all(con.holds(point) for con in self.constraints)


_ZERO = Fraction(0)


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


def _int_row(values, scale: int) -> list[int]:
    """Fractions times `scale`, a common multiple of their denominators."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _solve(lp: LinearProgram, objective, stats):
    """Shared two-phase core. Returns (point, value) or None; may raise UnboundedError."""
    n = lp.num_vars
    num_struct = 2 * n  # x_k = col(2k) - col(2k+1)
    slack_count = sum(1 for c in lp.constraints if c.relation != EQ)
    m = len(lp.constraints)
    art_start = num_struct + slack_count
    num_cols = art_start + m  # artificials at the end

    rows = []
    basis = []
    slack_index = 0
    for row_idx, con in enumerate(lp.constraints):
        scale = math.lcm(con.rhs.denominator, *(c.denominator for c in con.coeffs))
        sign = -1 if con.rhs < 0 else 1
        *coeffs, rhs = _int_row(con.coeffs + (con.rhs,), sign * scale)
        row = [0] * (num_cols + 1)
        for k, c in enumerate(coeffs):
            row[2 * k] = c
            row[2 * k + 1] = -c
        if con.relation != EQ:
            row[num_struct + slack_index] = sign * scale if con.relation == LE else -sign * scale
            slack_index += 1
        row[-1] = rhs
        art_col = art_start + row_idx
        row[art_col] = scale
        rows.append(row)
        basis.append(art_col)

    # Phase 1: minimize the artificial total. Row i holds its true row times
    # row[basis[i]]; the cost row is the true cost times the lcm of those.
    total = math.lcm(*(row[b] for row, b in zip(rows, basis)))
    cost = [0] * (num_cols + 1)
    for row, b in zip(rows, basis):
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
        return tuple(values[2 * k] - values[2 * k + 1] for k in range(n))

    if objective is None:
        return extract_point(), _ZERO

    # Phase 2 over the real objective.
    cost = [0] * (art_start + 1)
    scale = math.lcm(*(c.denominator for c in objective))
    for k, c in enumerate(_int_row(objective, scale)):
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


def lp_feasible(lp: LinearProgram, stats: dict | None = None):
    """An exact feasible point, or None when the system is infeasible."""
    result = _solve(lp, None, stats)
    return None if result is None else result[0]


def lp_minimize(lp: LinearProgram, stats: dict | None = None):
    """Minimize lp.objective; returns (point, value), None if infeasible.

    Raises UnboundedError when the objective has no finite minimum.
    """
    if lp.objective is None:
        raise ValueError("lp has no objective")
    return _solve(lp, lp.objective, stats)
