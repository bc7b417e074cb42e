import random
from collections import Counter
from fractions import Fraction

import pytest

from invforge.lp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    UnboundedError,
    lp_feasible,
    lp_minimize,
)
from invforge.relunet import integer_point


def test_infeasible_pair():
    lp = LinearProgram(1)
    lp.constrain((1,), GE, 1)
    lp.constrain((1,), LE, 0)
    assert lp_feasible(lp) is None


def test_minimize_interval():
    lp = LinearProgram(1)
    lp.constrain((1,), GE, 1)
    lp.constrain((1,), LE, 2)
    lp.set_objective((1,))
    point, value = lp_minimize(lp)
    assert point == (Fraction(1),)
    assert value == 1


def test_unbounded_detected():
    lp = LinearProgram(1)
    lp.constrain((1,), LE, 5)
    lp.set_objective((1,))
    with pytest.raises(UnboundedError):
        lp_minimize(lp)


def test_equalities_and_free_variables():
    lp = LinearProgram(2)
    lp.constrain((1, 1), EQ, 3)
    lp.constrain((1, -1), EQ, -7)
    point = lp_feasible(lp)
    assert point == (Fraction(-2), Fraction(5))


def test_minimize_abs_value_encoding():
    # min e with e >= z - 3, e >= 3 - z: optimum 0 at z = 3
    lp = LinearProgram(2)
    lp.constrain((-1, 1), GE, -3)
    lp.constrain((1, 1), GE, 3)
    lp.set_objective((0, 1))
    point, value = lp_minimize(lp)
    assert value == 0
    assert point[0] == 3


def _random_feasible_lp(rng):
    n = rng.randint(1, 4)
    anchor = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    lp = LinearProgram(n)
    for _ in range(rng.randint(1, 6)):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        value = sum(c * a for c, a in zip(coeffs, anchor))
        relation = rng.choice((LE, GE, EQ))
        slack = Fraction(rng.randint(0, 3))
        rhs = value + slack if relation == LE else value - slack if relation == GE else value
        lp.constrain(coeffs, relation, rhs)
    return lp


def test_feasible_points_reverify_exactly():
    rng = random.Random(2024)
    solved = 0
    for _ in range(200):
        lp = _random_feasible_lp(rng)
        point = lp_feasible(lp)
        assert point is not None  # built around an anchor point
        assert lp.satisfied_by(point)
        solved += 1
    assert solved == 200


def test_minimize_reverifies_and_dominates_anchor():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 3)
        lp = LinearProgram(n)
        # box constraints keep every objective bounded
        for i in range(n):
            unit = [Fraction(1 if j == i else 0) for j in range(n)]
            lp.constrain(unit, GE, Fraction(rng.randint(-4, 0)))
            lp.constrain(unit, LE, Fraction(rng.randint(0, 4)))
        lp.set_objective([Fraction(rng.randint(-3, 3)) for _ in range(n)])
        point, value = lp_minimize(lp)
        assert lp.satisfied_by(point)
        assert sum(c * x for c, x in zip(lp.objective, point)) == value
        # spot-check optimality against the box corners
        corners = [()]
        for con_lo, con_hi in zip(lp.constraints[::2], lp.constraints[1::2]):
            corners = [c + (v,) for c in corners for v in (con_lo.rhs, con_hi.rhs)]
        best = min(sum(c * x for c, x in zip(lp.objective, corner)) for corner in corners)
        assert value == best


# -- differential check against a Fraction-tableau reference ------------------


def _reference_solve(lp, objective, stats, paths):
    """The two-phase Bland simplex over a Fraction tableau.

    The same pivot rules as invforge.lp, with every entry kept as its true
    rational value. `paths` counts the drive-out pivots (and those on a
    negative element) and the redundant rows dropped after phase 1.
    """
    n = lp.num_vars
    num_struct = 2 * n
    slack_count = sum(1 for c in lp.constraints if c.relation != EQ)
    art_start = num_struct + slack_count
    num_cols = art_start + len(lp.constraints)

    def pivot(rows, cost, basis, r, e):
        factor = rows[r][e]
        rows[r] = [v / factor for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[e] != 0:
                scale = row[e]
                rows[i] = [v - scale * w for v, w in zip(row, rows[r])]
        scale = cost[e]
        cost[:] = [v - scale * w for v, w in zip(cost, rows[r])]
        basis[r] = e
        stats["pivots"] = stats.get("pivots", 0) + 1

    def simplex(rows, cost, basis, cols):
        while True:
            e = next((j for j in range(cols) if cost[j] < 0), None)
            if e is None:
                return "optimal"
            best = None
            for i, row in enumerate(rows):
                if row[e] > 0:
                    key = (row[-1] / row[e], basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return "unbounded"
            pivot(rows, cost, basis, best[1], e)

    rows, basis, slack = [], [], 0
    for idx, con in enumerate(lp.constraints):
        row = [Fraction(0)] * (num_cols + 1)
        for k, c in enumerate(con.coeffs):
            row[2 * k], row[2 * k + 1] = c, -c
        if con.relation != EQ:
            row[num_struct + slack] = Fraction(1 if con.relation == LE else -1)
            slack += 1
        row[-1] = con.rhs
        if con.rhs < 0:
            row = [-v for v in row]
        row[art_start + idx] = Fraction(1)
        rows.append(row)
        basis.append(art_start + idx)
    cost = [-sum(row[j] for row in rows) for j in range(num_cols + 1)]
    for b in basis:
        cost[b] = Fraction(0)
    simplex(rows, cost, basis, num_cols)
    if cost[-1] != 0:
        return None
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art_start:
            col = next((j for j in range(art_start) if rows[i][j] != 0), None)
            if col is None:
                paths["dropped"] += 1
                continue
            paths["drive_out"] += 1
            paths["negative_pivot"] += rows[i][col] < 0
            pivot(rows, cost, basis, i, col)
        keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]

    def point():
        values = [Fraction(0)] * num_struct
        for row, b in zip(rows, basis):
            if b < num_struct:
                values[b] = row[-1]
        return tuple(values[2 * k] - values[2 * k + 1] for k in range(n))

    if objective is None:
        return point(), Fraction(0)
    cost = [Fraction(0)] * (num_cols + 1)
    for k, c in enumerate(objective):
        cost[2 * k], cost[2 * k + 1] = c, -c
    for row, b in zip(rows, basis):
        scale = cost[b]
        cost = [v - scale * w for v, w in zip(cost, row)]
    if simplex(rows, cost, basis, art_start) == "unbounded":
        raise UnboundedError("objective is unbounded below")
    x = point()
    return x, sum(c * v for c, v in zip(objective, x))


def _rational(rng, lo=-4, hi=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 6))


def _random_lp(rng):
    """A small LP with rational data; about half are EQ-heavy with redundant rows."""
    n = rng.randint(1, 4)
    lp = LinearProgram(n)
    if rng.random() < 0.5:
        # equalities through an anchor point, plus rational combinations of them
        # a zero anchor makes every equality homogeneous: phase 1 then ends
        # degenerate, with artificials still basic that must be driven out
        zero = rng.random() < 0.4
        anchor = [Fraction(0) if zero else _rational(rng) for _ in range(n)]
        base = []
        for _ in range(rng.randint(1, n)):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            base.append((coeffs, sum(c * a for c, a in zip(coeffs, anchor))))
        rows = list(base)
        for _ in range(rng.randint(1, 3)):
            weights = [_rational(rng) for _ in base]
            rows.append((
                [sum(w * c[j] for w, (c, _) in zip(weights, base)) for j in range(n)],
                sum(w * r for w, (_, r) in zip(weights, base)),
            ))
        rng.shuffle(rows)
        for coeffs, rhs in rows:
            lp.constrain(coeffs, EQ, rhs)
        for _ in range(rng.randint(0, 3)):
            coeffs = [_rational(rng) for _ in range(n)]
            relation = rng.choice((LE, GE))
            if zero:  # homogeneous, or a cut the origin satisfies
                rhs = rng.choice((Fraction(0), abs(_rational(rng, 1, 8))))
                rhs = rhs if relation == LE else -rhs
            else:
                rhs = _rational(rng, -8, 8)
            lp.constrain(coeffs, relation, rhs)
    else:
        for _ in range(rng.randint(1, 6)):
            coeffs = [_rational(rng) for _ in range(n)]
            lp.constrain(coeffs, rng.choice((LE, GE, EQ)), _rational(rng, -8, 8))
    if rng.random() < 0.5:
        lp.set_objective([_rational(rng) for _ in range(n)])
    return lp


def _outcome(solve):
    try:
        return solve()
    except UnboundedError:
        return "unbounded"


def test_integer_simplex_matches_fraction_reference():
    rng = random.Random(20240)
    seen = dict.fromkeys(
        ("feasible", "infeasible", "unbounded", "negative_rhs", "denominator_6"), 0
    )
    paths = dict.fromkeys(("drive_out", "negative_pivot", "dropped"), 0)
    for _ in range(400):
        lp = _random_lp(rng)
        stats, ref_stats = {}, {}
        if lp.objective is None:
            got = _outcome(lambda: lp_feasible(lp, stats))
            ref = _reference_solve(lp, None, ref_stats, paths)
            ref = None if ref is None else ref[0]
        else:
            got = _outcome(lambda: lp_minimize(lp, stats))
            ref = _outcome(lambda: _reference_solve(lp, lp.objective, ref_stats, paths))
        assert got == ref
        assert stats.get("pivots", 0) == ref_stats.get("pivots", 0)
        if got is None:
            seen["infeasible"] += 1
        elif got == "unbounded":
            seen["unbounded"] += 1
        else:
            seen["feasible"] += 1
            point = got if lp.objective is None else got[0]
            assert lp.satisfied_by(point)
        seen["negative_rhs"] += any(c.rhs < 0 for c in lp.constraints)
        seen["denominator_6"] += any(
            v.denominator == 6 for c in lp.constraints for v in c.coeffs + (c.rhs,)
        )
    assert all(seen.values()), seen
    assert all(paths.values()), paths


# -- warm starts ---------------------------------------------------------------


def _start_points(rng, lp):
    """(kind, point): a random point, a solution of all rows but one, and a
    point on one row's hyperplane."""
    n = lp.num_vars
    point = [_rational(rng, -8, 8) for _ in range(n)]
    yield "random", point
    i = rng.randrange(len(lp.constraints))
    rest = lp_feasible(LinearProgram(n, lp.constraints[:i] + lp.constraints[i + 1:]))
    if rest is not None:
        yield "all but one", rest
    con = rng.choice(lp.constraints)
    norm = sum(c * c for c in con.coeffs)
    if norm:
        step = (con.rhs - sum(c * x for c, x in zip(con.coeffs, point))) / norm
        yield "hyperplane", [x + step * c for x, c in zip(point, con.coeffs)]


def test_warm_start_matches_cold():
    rng = random.Random(5151)
    seen = Counter()
    for _ in range(400):
        lp = _random_lp(rng)
        solve = lp_feasible if lp.objective is None else lp_minimize
        cold = _outcome(lambda: solve(lp))
        for kind, start in _start_points(rng, lp):
            warm = _outcome(lambda: solve(lp, start=integer_point(start)))
            if cold is None or cold == "unbounded":
                assert warm == cold
            else:
                assert warm is not None and warm != "unbounded"
                assert lp.satisfied_by(warm if lp.objective is None else warm[0])
                if lp.objective is not None:
                    assert warm[1] == cold[1]
            nums, den = integer_point(start)
            violated = sum(not con.holds(nums, den) for con in lp.constraints)
            seen[kind, "infeasible" if cold is None else "unbounded" if cold == "unbounded" else "feasible"] += 1
            seen["violated", min(violated, 2)] += 1
            seen["on a non-EQ hyperplane"] += kind == "hyperplane" and any(
                con.relation != EQ and sum(map(lambda c, x: c * x, con.ints, nums)) == con.rhs_int * den
                for con in lp.constraints
            )
    assert len(seen) == 13 and all(seen.values()), seen
