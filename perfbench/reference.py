"""The benchmark's own exact checks, written apart from invforge's oracles.

Every YES witness the program returns is re-checked here, and the verdicts
recorded in expected.json come from the brute-force solvers below. Nothing
in this file calls invforge, so a defect in an oracle under test cannot hide
itself. All arithmetic is on ints and Fractions.

Each check takes the `truth` tuple of an instance (see workloads.py):
  sat         (num_vars, clauses)             witness: tuple of bools
  cvp         (basis, target, radius, p)      witness: tuple of 0/1 ints
  halfclique  (n, roots, bound, p)            witness: set of 1-based vertices
  vertexcover (n, edges, size)                witness: set of 1-based vertices
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def sat_ok(truth, assignment) -> bool:
    num_vars, clauses = truth
    if len(assignment) != num_vars:
        return False
    return all(
        any(bool(assignment[abs(lit) - 1]) == (lit > 0) for lit in clause)
        for clause in clauses
    )


def cvp_ok(truth, coefficients) -> bool:
    basis, target, radius, p = truth
    if len(coefficients) != len(basis[0]) or any(c not in (0, 1) for c in coefficients):
        return False
    total = Fraction(0)
    for row, t in zip(basis, target):
        residual = sum((w for w, c in zip(row, coefficients) if c), Fraction(0)) - t
        total += abs(residual) ** p
    return total <= radius**p


def clique_ok(truth, vertices) -> bool:
    n, roots, bound, p = truth
    chosen = sorted(vertices)
    if len(chosen) != n // 2 or len(set(chosen)) != len(chosen):
        return False
    weight = Fraction(0)
    for pair in itertools.combinations(chosen, 2):
        if pair not in roots:
            return False
        weight += roots[pair] ** p
    return weight < bound


def cover_ok(truth, vertices) -> bool:
    n, edges, size = truth
    chosen = set(vertices)
    if len(chosen) != size or not chosen <= set(range(1, n + 1)):
        return False
    return all(i in chosen or j in chosen for i, j in edges)


CHECKS = {"sat": sat_ok, "cvp": cvp_ok, "halfclique": clique_ok, "vertexcover": cover_ok}


def check(kind: str, truth, witness) -> bool:
    """Does `witness` solve the source instance? kind is the family without -real."""
    return CHECKS[kind](truth, witness)


def solve(kind: str, truth) -> bool:
    """Brute-force decision: is there any witness `check` accepts?"""
    if kind == "sat":
        return any(
            sat_ok(truth, bits) for bits in itertools.product((False, True), repeat=truth[0])
        )
    if kind == "cvp":
        n = len(truth[0][0])
        return any(cvp_ok(truth, bits) for bits in itertools.product((0, 1), repeat=n))
    if kind == "halfclique":
        n = truth[0]
        return any(
            clique_ok(truth, subset)
            for subset in itertools.combinations(range(1, n + 1), n // 2)
        )
    n, _, size = truth
    return any(
        cover_ok(truth, subset) for subset in itertools.combinations(range(1, n + 1), size)
    )
