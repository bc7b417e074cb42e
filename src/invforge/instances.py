"""Source-problem instances: parsers, emitters, and seeded generators.

Formats:
  * DIMACS CNF: standard "p cnf <vars> <clauses>" header, 0-terminated
    clause lines, "c" comments. Strict: every clause must have the same
    number of distinct variables.
  * Graph: line 1 "graph <n>", then one line per edge "i j num/den" where
    the rational is the edge's root-weight (effective weight = root**p).
  * CVP: line 1 "cvp <d> <n> <p>", then d basis rows of n rationals, one
    line of d rationals (target), one line radius, optional line gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .ratio import check_p, format_ratio, parse_ratio
from .relunet import as_fraction


class ParseError(ValueError):
    """A document violates its format or a type invariant."""


@dataclass(frozen=True)
class CnfFormula:
    """Uniform-width CNF: clauses are tuples of signed 1-based literals."""

    num_vars: int
    clause_width: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if self.clause_width < 1:
            raise ValueError("clause width must be at least 1")
        for clause in self.clauses:
            if len(clause) != self.clause_width:
                raise ValueError(f"clause {clause} does not have width {self.clause_width}")
            variables = [abs(lit) for lit in clause]
            if len(set(variables)) != len(variables):
                raise ValueError(f"clause {clause} repeats a variable")
            if any(v < 1 or v > self.num_vars for v in variables):
                raise ValueError(f"clause {clause} has a variable out of range")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class CvpInstance:
    """Basis rows (d x n), target (length d), radius, norm exponent, gap."""

    basis: tuple[tuple[Fraction, ...], ...]
    target: tuple[Fraction, ...]
    radius: Fraction
    p: int
    gap: Fraction | None = None

    def __post_init__(self):
        if not self.basis or not self.basis[0]:
            raise ValueError("basis must be nonempty")
        n = len(self.basis[0])
        if any(len(row) != n for row in self.basis):
            raise ValueError("ragged basis")
        if len(self.target) != len(self.basis):
            raise ValueError("target length must equal basis row count")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        check_p(self.p)
        if self.gap is not None and self.gap < 0:
            raise ValueError("gap must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def num_vectors(self) -> int:
        return len(self.basis[0])


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph; every edge carries a positive rational root-weight.

    The effective weight of an edge under exponent p is root_weight**p;
    storing the root keeps all downstream network entries rational.
    """

    num_vertices: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("need at least one vertex")
        seen = set()
        for i, j, root in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i < j <= self.num_vertices):
                raise ValueError(f"edge ({i},{j}) out of range or unnormalized")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            if root <= 0:
                raise ValueError(f"edge ({i},{j}) has nonpositive root-weight")
            seen.add((i, j))

    def root_weights(self) -> dict[tuple[int, int], Fraction]:
        return {(i, j): root for i, j, root in self.edges}


def graph(num_vertices: int, edges) -> WeightedGraph:
    """Build a WeightedGraph, normalizing edge endpoints to i < j."""
    normalized = []
    for entry in edges:
        i, j, root = entry
        if i > j:
            i, j = j, i
        normalized.append((i, j, as_fraction(root)))
    normalized.sort(key=lambda e: (e[0], e[1]))
    return WeightedGraph(num_vertices, tuple(normalized))


@dataclass(frozen=True)
class HalfCliqueQuery:
    graph: WeightedGraph
    bound: Fraction

    def __post_init__(self):
        if self.graph.num_vertices % 2 != 0:
            raise ValueError("half-clique needs an even vertex count")


@dataclass(frozen=True)
class VertexCoverQuery:
    graph: WeightedGraph
    size: int

    def __post_init__(self):
        if not (0 <= self.size <= self.graph.num_vertices):
            raise ValueError("cover size out of range")


# -- parsing ------------------------------------------------------------


def _content_lines(text: str, comment_prefix: str = "#") -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(comment_prefix):
            continue
        lines.append(line)
    return lines


def parse_dimacs(text: str) -> CnfFormula:
    lines = _content_lines(text, comment_prefix="c")
    if not lines or not lines[0].startswith("p"):
        raise ParseError("missing 'p cnf' header")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "p" or header[1] != "cnf":
        raise ParseError(f"malformed header: {lines[0]!r}")
    try:
        num_vars, num_clauses = int(header[2]), int(header[3])
    except ValueError as exc:
        raise ParseError(f"malformed header counts: {lines[0]!r}") from exc
    if num_vars < 1:
        raise ParseError("header declares no variables")

    tokens = []
    for line in lines[1:]:
        tokens.extend(line.split())
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for token in tokens:
        try:
            literal = int(token)
        except ValueError as exc:
            raise ParseError(f"bad literal token {token!r}") from exc
        if literal == 0:
            if not current:
                raise ParseError("empty clause")
            clauses.append(tuple(current))
            current = []
        else:
            if abs(literal) > num_vars:
                raise ParseError(f"literal {literal} out of range (n={num_vars})")
            current.append(literal)
    if current:
        raise ParseError("unterminated clause (missing 0)")
    if len(clauses) != num_clauses:
        raise ParseError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    widths = {len(c) for c in clauses}
    if len(widths) > 1:
        raise ParseError(f"mixed clause widths {sorted(widths)}; strict mode requires uniform width")
    width = widths.pop() if widths else 1
    try:
        return CnfFormula(num_vars, width, tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def emit_dimacs(formula: CnfFormula) -> str:
    out = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        out.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> WeightedGraph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph document")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "graph":
        raise ParseError(f"malformed graph header: {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad vertex count: {header[1]!r}") from exc
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"malformed edge line: {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            root = parse_ratio(parts[2])
        except ValueError as exc:
            raise ParseError(f"malformed edge line {line!r}: {exc}") from exc
        edges.append((i, j, root))
    try:
        return graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def emit_graph(g: WeightedGraph) -> str:
    out = [f"graph {g.num_vertices}"]
    for i, j, root in g.edges:
        out.append(f"{i} {j} {format_ratio(root)}")
    return "\n".join(out) + "\n"


def parse_cvp(text: str) -> CvpInstance:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty cvp document")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "cvp":
        raise ParseError(f"malformed cvp header: {lines[0]!r}")
    try:
        d, n, p = int(header[1]), int(header[2]), int(header[3])
    except ValueError as exc:
        raise ParseError(f"bad cvp header numbers: {lines[0]!r}") from exc
    expected = 1 + d + 2
    if len(lines) not in (expected, expected + 1):
        raise ParseError(f"cvp document has {len(lines)} lines, expected {expected} or {expected + 1}")

    def row(line: str, count: int) -> tuple[Fraction, ...]:
        parts = line.split()
        if len(parts) != count:
            raise ParseError(f"expected {count} rationals, got {len(parts)}: {line!r}")
        return tuple(parse_ratio(tok) for tok in parts)

    basis = tuple(row(lines[1 + r], n) for r in range(d))
    target = row(lines[1 + d], d)
    radius = parse_ratio(lines[2 + d])
    gap = parse_ratio(lines[3 + d]) if len(lines) == expected + 1 else None
    try:
        return CvpInstance(basis, target, radius, p, gap)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def emit_cvp(inst: CvpInstance) -> str:
    out = [f"cvp {inst.dim} {inst.num_vectors} {inst.p}"]
    for row in inst.basis:
        out.append(" ".join(format_ratio(v) for v in row))
    out.append(" ".join(format_ratio(v) for v in inst.target))
    out.append(format_ratio(inst.radius))
    if inst.gap is not None:
        out.append(format_ratio(inst.gap))
    return "\n".join(out) + "\n"


# -- witness checks -------------------------------------------------------


def assignment_satisfies(formula: CnfFormula, assignment) -> bool:
    """Does the bool tuple (x1..xn) satisfy every clause?"""
    if len(assignment) != formula.num_vars:
        raise ValueError("assignment length mismatch")
    for clause in formula.clauses:
        if not any(
            bool(assignment[abs(lit) - 1]) == (lit > 0) for lit in clause
        ):
            return False
    return True


def is_clique(g: WeightedGraph, vertices) -> bool:
    """Every pair inside the set is an edge (1-based vertices)."""
    roots = g.root_weights()
    chosen = sorted(set(vertices))
    return all(
        (a, b) in roots for idx, a in enumerate(chosen) for b in chosen[idx + 1 :]
    )


def clique_weight(g: WeightedGraph, vertices, p: int) -> Fraction:
    """Sum of root_weight**p over the pairs inside the set."""
    roots = g.root_weights()
    chosen = sorted(set(vertices))
    total = Fraction(0)
    for idx, a in enumerate(chosen):
        for b in chosen[idx + 1 :]:
            if (a, b) not in roots:
                raise ValueError(f"pair ({a},{b}) is not an edge")
            total += roots[(a, b)] ** p
    return total


def cvp_distance_pow(basis, target, y, p: int) -> Fraction:
    """The (0,1)-CVP objective sum_r |(B y)_r - t_r|**p at coefficient vector y."""
    residuals = (sum(w * v for w, v in zip(row, y)) - t for row, t in zip(basis, target))
    return sum((abs(r) ** p for r in residuals), Fraction(0))


def is_cover(g: WeightedGraph, vertices) -> bool:
    """Does the vertex set touch every edge?"""
    chosen = set(vertices)
    return all(i in chosen or j in chosen for i, j, _ in g.edges)


# -- generators (pure functions of their arguments) ----------------------


def gen_random_ksat(n: int, m: int, k: int, seed: int) -> CnfFormula:
    """m clauses over n variables, each with k distinct uniformly-signed variables."""
    if k > n:
        raise ValueError(f"clause width {k} exceeds variable count {n}")
    if k < 1 or n < 1 or m < 0:
        raise ValueError("sizes must be positive (m may be zero)")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in sorted(variables)))
    return CnfFormula(n, k, tuple(clauses))


def gen_random_graph(n: int, edge_prob: float, seed: int = 0, denom_max: int = 1) -> WeightedGraph:
    """G(n, edge_prob) with root-weights num/den, 1 <= num <= 3, den <= denom_max."""
    rng = random.Random(seed)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < edge_prob:
                root = Fraction(rng.randint(1, 3), rng.randint(1, denom_max))
                edges.append((i, j, root))
    return WeightedGraph(n, tuple(edges))


def gen_random_cvp(n: int, d: int, seed: int = 0, p: int = 1, denom_max: int = 8) -> CvpInstance:
    """Random basis/target with entries num/den, -4 <= num <= 4, den <= denom_max.

    The radius is anchored at the distance of a random {0,1} combination and
    jittered, so YES and NO instances both occur across seeds.
    """
    rng = random.Random(seed)

    def entry() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, denom_max))

    basis = tuple(tuple(entry() for _ in range(n)) for _ in range(d))
    target = tuple(entry() for _ in range(d))
    anchor = [rng.randint(0, 1) for _ in range(n)]
    dist_pow = cvp_distance_pow(basis, target, anchor, p)
    root = float(dist_pow) ** (1.0 / p) if dist_pow > 0 else 0.0
    jitter = rng.uniform(0.7, 1.3)
    radius = Fraction(max(0.0, root * jitter)).limit_denominator(denom_max)
    return CvpInstance(basis, target, radius, p)
