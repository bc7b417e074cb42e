"""Compile source-problem instances into ReLU-network inversion queries.

Each compiler returns a ReductionArtifact: the query (network, target,
norm exponent, threshold on the p-th power, latent domain) plus the
constants it chose and a witness map describing how source witnesses
translate to latents and back.

Conventions shared by every construction here:

  * All queries are non-strict: YES iff some latent reaches p-th-powered
    distance <= threshold_pow.
  * Latent-tight: a source of size n (variables, coefficients, vertices)
    compiles to n latents, so a 2^n bound in n is one in the latent size.
  * "+/- stacking" (_stacked_query, the cvp and both graph routes): a
    1-layer network [W; -W], [b; -b] satisfies ||ReLU(stacked)||_p^p ==
    sum_rows |W_r z + b_r|^p exactly: per row one of the two copies fires.
  * Pair rows (_pair_rows): both graph routes charge each vertex pair
    2s(z_i + z_j) - s, then the subset size.
  * Per-coordinate rows (_diagonal): row i has a weight in column i only;
    they build the clamp and |v - c| stages of sat-real and the gadget.
  * Semantic clamp/abs stages are realized with ReLU pairs whose additive
    constants cancel exactly, so the networks obey the one uniform rule
    "ReLU after every layer" without changing any quantitative claim.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .instances import CnfFormula, CvpInstance, HalfCliqueQuery, VertexCoverQuery
from .ratio import check_p, format_ratio, int_root_ceil, json_int, parse_ratio, pth_power_split, rational_root_ceil
from .relunet import (
    ReluNetwork,
    as_fraction,
    forward_layers,
    layer,
    network_from_dict,
    network_to_dict,
)

DOMAIN_PM1 = "pm1"
DOMAIN_01 = "01"
DOMAIN_REAL = "real"

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Non-edge penalties whose p-th root is irrational are realized exactly as
# k scaled row-pairs; beyond this many copies we round the penalty up to
# the next integer p-th power instead (see halfclique_to_approx).
EXACT_SPLIT_MAX = 64


class UnsupportedReduction(ValueError):
    """The requested family/parameter combination has no construction."""


@dataclass(frozen=True)
class LatentDomain:
    """Where latents live: {-1,1}^dim, {0,1}^dim, or R^dim."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (DOMAIN_PM1, DOMAIN_01, DOMAIN_REAL):
            raise ValueError(f"bad domain kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("domain dimension must be positive")


@dataclass(frozen=True)
class InversionQuery:
    """Does some latent z in the domain satisfy dist_p(G(z), target)^p <= threshold_pow?"""

    network: ReluNetwork
    target: tuple[Fraction, ...]
    p: int
    threshold_pow: Fraction
    domain: LatentDomain

    def __post_init__(self):
        if len(self.target) != self.network.output_dim:
            raise ValueError("target length != network output dimension")
        check_p(self.p)
        if self.threshold_pow < 0:
            raise ValueError("threshold must be nonnegative")
        if self.domain.dim != self.network.input_dim:
            raise ValueError(
                f"domain dimension {self.domain.dim} != network input_dim {self.network.input_dim}"
            )


@dataclass
class ReductionArtifact:
    query: InversionQuery
    constants: dict = field(default_factory=dict)
    witness_map: dict = field(default_factory=dict)


# -- constant choosers ----------------------------------------------------
#
# The constructions need "sufficiently large" penalty constants; these
# choosers pick deterministic values and each value carries a validity
# predicate checked by constants_valid().


def choose_alpha_halfclique(p: int, total_weight, bound) -> Fraction:
    """Non-edge penalty, returned as its p-th power.

    Validity: (3**p - 1) * alpha_pow > total_weight + (3**p - 1) * bound,
    which makes any latent selecting a non-adjacent pair overshoot the
    acceptance threshold.
    """
    alpha_pow = as_fraction(bound) + as_fraction(total_weight) + 1
    if alpha_pow <= 0:
        raise ValueError("bound too negative: penalty would be nonpositive")
    return alpha_pow


def choose_alpha_vc() -> Fraction:
    """Edge penalty for the cover reduction; any positive value is valid."""
    return _ONE


def beta_root(threshold_pow, p: int) -> int:
    """Subset-size penalty beta, the integer placed in the size-penalty row.

    The smallest integer whose p-th power exceeds the threshold, so the
    penalty row itself stays rational. Validity: beta_pow = beta**p >
    threshold_pow.
    """
    threshold_pow = as_fraction(threshold_pow)
    if threshold_pow < 0:
        raise ValueError("threshold must be nonnegative")
    return int_root_ceil(threshold_pow + 1, p)


def choose_c(delta) -> int:
    """Clamp multiplier for the general binarization gadget.

    Smallest integer with (c - 2) * delta >= 1, plus one for margin.
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    need = 2 + 1 / delta  # smallest integer >= this
    c0 = -((-need.numerator) // need.denominator)
    return c0 + 1


# -- the shared blocks ------------------------------------------------------


def _stacked_query(rows, bias, p: int, theta, metadata: dict) -> InversionQuery:
    """The one-layer {0,1}-latent query of [W; -W], [b; -b] against target 0 (+/- stacking)."""
    net = ReluNetwork(
        len(rows[0]),
        (layer(rows + [[-w for w in r] for r in rows], bias + [-b for b in bias]),),
        metadata=metadata,
    )
    return InversionQuery(
        net, (_ZERO,) * net.output_dim, p, theta, LatentDomain(DOMAIN_01, net.input_dim)
    )


def _pair_rows(n: int, scales, beta: Fraction, picked: Fraction):
    """Pair rows, then the size row, over latents z in {0,1}^n: (rows, bias).

    Each vertex pair i < j gets one row 2s(z_i + z_j) - s per scale s in
    scales(i, j): |.| is 3s when both of the pair are picked and s
    otherwise. The size row beta * (sum z - picked) is 0 exactly when
    `picked` latents are set.
    """
    rows: list[list[Fraction]] = []
    bias: list[Fraction] = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for s in scales(i, j):
            row = [_ZERO] * n
            row[i - 1] = 2 * s
            row[j - 1] = 2 * s
            rows.append(row)
            bias.append(-s)
    rows.append([beta] * n)
    bias.append(-picked * beta)
    return rows, bias


def _diagonal(count: int, weight, width: int) -> list[list]:
    """The per-coordinate rows: row i holds weight in column i and 0 in the other width - 1."""
    return [[weight if j == i else _ZERO for j in range(width)] for i in range(count)]


# -- satisfiability, binary latents ---------------------------------------


def _clause_matrix(formula: CnfFormula) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Clause rows: -1 per positive literal, +1 per negative, 0 otherwise.

    With latents in {-1,1} a satisfied clause scores <= k-2 and an
    unsatisfied one exactly k, so bias -(k-1) sends satisfied clauses to 0
    and unsatisfied ones to 1 after the ReLU.
    """
    n = formula.num_vars
    rows = []
    for clause in formula.clauses:
        row = [_ZERO] * n
        for lit in clause:
            row[abs(lit) - 1] = Fraction(-1) if lit > 0 else _ONE
        rows.append(row)
    bias = [Fraction(-(formula.clause_width - 1))] * len(rows)
    if not rows:
        # Degenerate empty formula: a single dead row keeps the stack valid
        # and evaluates to 0 everywhere (always YES, as it should be).
        rows = [[_ZERO] * n]
        bias = [_ZERO]
    return rows, bias


def sat_to_exact_binary(formula: CnfFormula) -> ReductionArtifact:
    """Two-layer network whose range contains 0 iff the formula is satisfiable.

    Latents are assignments in {-1,1}^n (TRUE -> +1). Layer 1 scores each
    clause (0 = satisfied, 1 = violated); layer 2 sums the scores. Target 0,
    threshold 0.
    """
    rows, bias = _clause_matrix(formula)
    m = len(rows)
    net = ReluNetwork(
        formula.num_vars,
        (
            layer(rows, bias),
            layer([[1] * m], [0]),
        ),
        metadata={
            "construction": "sat-exact-binary",
            "clauses": formula.num_clauses,
            "clause_width": formula.clause_width,
        },
    )
    query = InversionQuery(
        net, (_ZERO,), 1, _ZERO, LatentDomain(DOMAIN_PM1, formula.num_vars)
    )
    return ReductionArtifact(query, constants={}, witness_map={"kind": "sat-pm1"})


def sat_to_exact_real(formula: CnfFormula) -> ReductionArtifact:
    """Four-layer network extending the binary construction to real latents.

    Layers 1-2 clamp each coordinate into [-1,1]; layer 3 holds the clause
    scores plus per-coordinate |v_i| split into positive/negative parts;
    layer 4 emits (sum of clause scores, sum |v_i|). Target (0, n): the
    second coordinate can only reach n when every clamped coordinate sits
    at -1 or +1, which reduces the question to the binary case.
    """
    n = formula.num_vars
    clause_rows, clause_bias = _clause_matrix(formula)
    m = len(clause_rows)

    layer1 = layer(_diagonal(n, 1, n), [1] * n)
    layer2 = layer(_diagonal(n, -1, n), [2] * n)

    # Layer 2 outputs bv with semantic v = 1 - bv; fold that affine change
    # into layer 3.
    layer3 = layer(
        [[-w for w in row] for row in clause_rows]
        + _diagonal(n, -1, n)  # ReLU(v_i) = ReLU(1 - bv_i)
        + _diagonal(n, 1, n),  # ReLU(-v_i) = ReLU(bv_i - 1)
        [sum(row, _ZERO) + b for row, b in zip(clause_rows, clause_bias)] + [1] * n + [-1] * n,
    )

    out_clause = [1] * m + [0] * (2 * n)
    out_abs = [0] * m + [1] * (2 * n)
    layer4 = layer([out_clause, out_abs], [0, 0])

    net = ReluNetwork(
        n,
        (layer1, layer2, layer3, layer4),
        metadata={
            "construction": "sat-exact-real",
            "clauses": formula.num_clauses,
            "clause_width": formula.clause_width,
        },
    )
    query = InversionQuery(
        net, (_ZERO, Fraction(n)), 1, _ZERO, LatentDomain(DOMAIN_REAL, n)
    )
    return ReductionArtifact(query, constants={}, witness_map={"kind": "sat-real"})


# -- lattice instances, binary latents ------------------------------------


def cvp_to_approx_binary(inst: CvpInstance) -> ReductionArtifact:
    """One-layer network matching binary lattice combinations within the radius.

    Latents are the coefficient vectors y in {0,1}^n themselves, one latent
    per basis vector. The +/- stacked rows of B with bias -t give
    ||ReLU([B; -B] y - [t; -t])||_p^p == ||By - t||_p^p exactly, so the
    query accepts y iff the lattice point By lies within the radius of t
    (threshold r^p). No penalty constant is needed.

    Built for every p >= 1. The paper uses it for odd p; `invforge reduce`
    refuses even p, which goes through the half-clique and vertex-cover
    routes instead.
    """
    metadata = {"construction": "cvp-approx-binary", "lattice_rows": inst.dim}
    query = _stacked_query(
        list(inst.basis), [-t for t in inst.target], inst.p, inst.radius**inst.p, metadata
    )
    return ReductionArtifact(query, witness_map={"kind": "cvp-01"})


# -- the binarization gadget ----------------------------------------------

MODE_QUARTER = "quarter"
MODE_GENERAL = "general"


def binarization_gadget(inner: ReductionArtifact, delta, mode: str) -> ReductionArtifact:
    """Wrap a 1-layer binary-latent query so real latents behave binarily.

    Five layers: clamp into [0, U] (U = 1 in quarter mode, U = c*delta in
    general mode), per-coordinate collapse scores, per-coordinate deviation
    |v_i - U/2| split into ReLU pairs, a hard 0/1 collapse, and finally the
    inner layer plus one node carrying the total deviation. The appended
    target coordinate N*U/2 is reachable only when every clamped coordinate
    sits within delta of {0, U}, at which point the collapse is exactly 0/1
    and the inner (binary) question takes over. Threshold unchanged.

    Quarter mode follows the small-delta analysis (delta < 1/4, collapse
    slope 4); general mode accepts any delta > 0 via the clamp multiplier
    c with (c - 2) * delta >= 1.
    """
    delta = as_fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    inner_net = inner.query.network
    if inner_net.depth != 1:
        raise ValueError("gadget wraps 1-layer constructions only")
    if inner.query.domain.kind != DOMAIN_01:
        raise ValueError("gadget wraps {0,1}-latent queries only")
    N = inner.query.domain.dim

    if mode == MODE_QUARTER:
        if delta >= Fraction(1, 4):
            raise ValueError("quarter mode requires delta < 1/4")
        clamp_hi = _ONE
        collapse_bias = Fraction(1, 2)
        slope = Fraction(4)
        c = None
    elif mode == MODE_GENERAL:
        if delta <= 0:
            raise ValueError("general mode requires delta > 0")
        c = choose_c(delta)
        clamp_hi = c * delta
        collapse_bias = (c - 1) * delta
        slope = _ONE
    else:
        raise ValueError(f"unknown gadget mode {mode!r}")
    half = clamp_hi / 2

    layer1 = layer(_diagonal(N, 1, N), [0] * N)
    layer2 = layer(_diagonal(N, -1, N), [clamp_hi] * N)

    # Layer 2 outputs bv with semantic v = clamp_hi - bv.
    layer3 = layer(
        _diagonal(N, 1, N)  # collapse score ReLU(collapse_bias - v_i)
        + _diagonal(N, -1, N)  # ReLU(v_i - half)
        + _diagonal(N, 1, N),  # ReLU(half - v_i)
        [collapse_bias - clamp_hi] * N + [half] * N + [-half] * N,
    )

    deviation_row = [_ZERO] * N + [_ONE] * (2 * N)
    layer4 = layer(
        _diagonal(N, -slope, 3 * N)  # hard collapse: 1 when v_i is high, 0 when low
        + [deviation_row],
        [_ONE] * N + [_ZERO],
    )

    inner_layer = inner_net.layers[0]
    layer5 = layer(
        [row + (_ZERO,) for row in inner_layer.weights] + [[_ZERO] * N + [_ONE]],
        inner_layer.bias + (_ZERO,),
    )

    tail = Fraction(N) * clamp_hi / 2
    net = ReluNetwork(
        N,
        (layer1, layer2, layer3, layer4, layer5),
        metadata={
            "construction": "binarized:" + inner_net.metadata.get("construction", "?"),
            "gadget_mode": mode,
        },
    )
    query = InversionQuery(
        net,
        inner.query.target + (tail,),
        inner.query.p,
        inner.query.threshold_pow,
        LatentDomain(DOMAIN_REAL, N),
    )
    constants = dict(inner.constants)
    constants.update(
        {
            "gadget_mode": mode,
            "delta": delta,
            "clamp_hi": clamp_hi,
            "collapse_bias": collapse_bias,
            "collapse_slope": slope,
        }
    )
    if c is not None:
        constants["c"] = c
    return ReductionArtifact(
        query,
        constants=constants,
        witness_map={"kind": "binarized", "scale": clamp_hi, "inner": inner.witness_map},
    )


def cvp_to_approx_real(inst: CvpInstance) -> ReductionArtifact:
    """Five-layer real-latent variant: gadget around the binary lattice query.

    Built for every p >= 1, like the binary query. Quarter mode when the
    radius is below 1/4, general mode otherwise.
    """
    inner = cvp_to_approx_binary(inst)
    mode = MODE_QUARTER if inst.radius < Fraction(1, 4) else MODE_GENERAL
    return binarization_gadget(inner, inst.radius, mode)


# -- graph queries, even p ------------------------------------------------


def halfclique_to_approx(query: HalfCliqueQuery, p: int) -> ReductionArtifact:
    """One-layer network accepting exactly the light half-cliques.

    Each vertex pair gets a row: edges are scaled by their root-weight,
    non-adjacent pairs by the non-edge penalty, and a final row charges the
    subset-size penalty unless exactly n/2 vertices are picked. For a
    half-clique indicator the powered distance evaluates to
    (3**p - 1) * clique_weight + alpha_pow * Z + total_weight, so the
    threshold encodes "clique weight < bound".

    The non-edge penalty alpha_pow = bound + total_weight + 1 rarely has a
    rational p-th root, so each non-edge is realized as k scaled row-pairs
    with k * s**p == alpha_pow exactly; when that k would exceed
    EXACT_SPLIT_MAX the penalty is rounded up to the next integer p-th
    power instead (the validity predicate is preserved either way).
    """
    if p < 2 or p % 2 != 0:
        raise UnsupportedReduction("the half-clique route requires a positive even p")
    g = query.graph
    n = g.num_vertices
    roots = g.root_weights()
    nonedge_count = n * (n - 1) // 2 - len(roots)
    total_weight = sum((root**p for root in roots.values()), _ZERO)

    alpha_pow = choose_alpha_halfclique(p, total_weight, query.bound)
    copies, alpha_root = pth_power_split(alpha_pow, p)
    if copies > EXACT_SPLIT_MAX:
        alpha_root = Fraction(int_root_ceil(alpha_pow, p))
        alpha_pow = alpha_root**p
        copies = 1

    theta = total_weight + alpha_pow * nonedge_count + (Fraction(3) ** p - 1) * query.bound
    if theta < 0:
        raise ValueError("bound so small the threshold would be negative")
    beta = Fraction(beta_root(theta, p))

    def scales(i, j):
        return [roots[(i, j)]] if (i, j) in roots else [alpha_root] * copies

    rows, bias = _pair_rows(n, scales, beta, Fraction(n, 2))
    metadata = {
        "construction": "halfclique-approx",
        "nonedge_copies": copies,
        "pair_rows": len(rows) - 1,
    }
    inv_query = _stacked_query(rows, bias, p, theta, metadata)
    return ReductionArtifact(
        inv_query,
        constants={
            "alpha_pow": alpha_pow,
            "alpha_root": alpha_root,
            "alpha_copies": copies,
            "beta": beta,
            "beta_pow": beta**p,
            "total_weight": total_weight,
            "nonedge_count": nonedge_count,
            "bound": query.bound,
        },
        witness_map={"kind": "clique-indicator"},
    )


def halfclique_to_approx_real(query: HalfCliqueQuery, p: int) -> ReductionArtifact:
    """Gadget-wrapped half-clique query for real latents, in general mode.

    delta is the smallest value on the 1/64 grid whose p-th power is at
    least the threshold. Any rational delta with delta**p >= threshold would
    do: the YES witness is the scaled binary witness, and an accepted real
    latent still pins every clamped coordinate within the true root of the
    threshold of {0, U}.
    """
    inner = halfclique_to_approx(query, p)
    delta = rational_root_ceil(inner.query.threshold_pow, p)
    return binarization_gadget(inner, delta, MODE_GENERAL)


def vertexcover_to_approx(query: VertexCoverQuery, p: int) -> ReductionArtifact:
    """One-layer network accepting exactly the complements of size-q covers.

    Vertices outside the cover get latent value 1. Every covered edge
    contributes exactly alpha**p = 1, an uncovered edge 3**p, and the size
    row charges beta unless exactly n - q vertices are picked; the
    threshold is the edge count, reached exactly by cover complements.
    Edge weights are ignored, and non-adjacent pairs get no row.
    """
    if p < 2 or p % 2 != 0:
        raise UnsupportedReduction("the vertex-cover route requires a positive even p")
    g = query.graph
    n = g.num_vertices
    edge_set = {(i, j) for i, j, _ in g.edges}
    alpha = choose_alpha_vc()
    edge_count = len(edge_set)
    theta = Fraction(edge_count) * alpha**p
    beta = Fraction(beta_root(theta, p))

    rows, bias = _pair_rows(
        n,
        lambda i, j: [alpha] if (i, j) in edge_set else [],
        beta,
        Fraction(n - query.size),
    )
    metadata = {"construction": "vertexcover-approx", "edge_count": edge_count}
    inv_query = _stacked_query(rows, bias, p, theta, metadata)
    return ReductionArtifact(
        inv_query,
        constants={
            "alpha": alpha,
            "beta": beta,
            "beta_pow": beta**p,
            "edge_count": edge_count,
        },
        witness_map={"kind": "cover-complement"},
    )


# -- witness maps and constant validity ------------------------------------


@dataclass(frozen=True)
class WitnessKind:
    """One witness-map kind: its witness translations and constant predicate."""

    forward: Callable[[object, int], tuple]  # (source witness, latent dim) -> latent
    backward: Callable[[tuple], object]  # latent -> source witness, else ValueError
    valid: Callable[[dict, int, Fraction], bool] = lambda consts, p, theta: True


def _pm1(assignment, dim: int) -> tuple:
    return tuple(_ONE if v else Fraction(-1) for v in assignment)


def _clamped_pm1_back(latent) -> tuple:
    clamped = [min(max(v, Fraction(-1)), _ONE) for v in latent]
    if any(abs(v) != 1 for v in clamped):
        raise ValueError("latent does not clamp to a +/-1 assignment")
    return tuple(v == 1 for v in clamped)


def _zero_one(values, what: str) -> tuple:
    if any(v not in (0, 1) for v in values):
        raise ValueError(f"{what} is not a 0/1 vector")
    return tuple(values)


def _indicator(vertices, dim: int, inside: Fraction) -> tuple:
    chosen = set(vertices)
    if not chosen <= set(range(1, dim + 1)):
        raise ValueError(f"vertex set {sorted(chosen)} is not within 1..{dim}")
    return tuple(inside if i + 1 in chosen else _ONE - inside for i in range(dim))


def _indicated(latent, inside: Fraction) -> frozenset:
    return frozenset(i + 1 for i, v in enumerate(_zero_one(latent, "latent")) if v == inside)


def _clique_constants_valid(consts, p, theta) -> bool:
    three_p = Fraction(3) ** p - 1
    return (
        three_p * consts["alpha_pow"] > consts["total_weight"] + three_p * consts["bound"]
        and consts["alpha_copies"] * consts["alpha_root"] ** p == consts["alpha_pow"]
        and consts["beta_pow"] > theta
    )


WITNESS_KINDS = {
    "sat-pm1": WitnessKind(_pm1, lambda latent: tuple(v > 0 for v in latent)),
    "sat-real": WitnessKind(_pm1, _clamped_pm1_back),
    "cvp-01": WitnessKind(
        lambda y, dim: tuple(Fraction(v) for v in _zero_one(y, "coefficient vector")),
        lambda latent: tuple(int(v) for v in _zero_one(latent, "latent")),
    ),
    "clique-indicator": WitnessKind(
        lambda vertices, dim: _indicator(vertices, dim, _ONE),
        lambda latent: _indicated(latent, _ONE),
        _clique_constants_valid,
    ),
    "cover-complement": WitnessKind(
        lambda cover, dim: _indicator(cover, dim, _ZERO),
        lambda latent: _indicated(latent, _ZERO),
        lambda consts, p, theta: consts["alpha"] > 0 and consts["beta_pow"] > theta,
    ),
}


def _witness_kind(witness_map: dict) -> tuple[dict | None, WitnessKind]:
    """(the gadget's "binarized" map or None, the entry of the kind it wraps)."""
    gadget = None
    if witness_map.get("kind") == "binarized":
        gadget, witness_map = witness_map, witness_map["inner"]
    kind = witness_map.get("kind")
    if kind not in WITNESS_KINDS:
        raise ValueError(f"unknown witness map kind {kind!r}")
    return gadget, WITNESS_KINDS[kind]


def constants_valid(artifact: ReductionArtifact) -> bool:
    """Machine check of every chooser's validity predicate for this artifact."""
    gadget, kind = _witness_kind(artifact.witness_map)
    consts = artifact.constants
    if gadget is not None:
        delta = consts["delta"]
        if consts["gadget_mode"] == MODE_GENERAL:
            if (consts["c"] - 2) * delta < 1:
                return False
        else:
            if not delta < Fraction(1, 4):
                return False
            if consts["collapse_slope"] * (consts["collapse_bias"] - delta) < 1:
                return False
    return kind.valid(consts, artifact.query.p, artifact.query.threshold_pow)


def _check_dim(values: tuple, artifact: ReductionArtifact, what: str) -> None:
    """A ValueError naming both lengths unless values holds one entry per latent."""
    dim = artifact.query.domain.dim
    if len(values) != dim:
        raise ValueError(f"{what} has {len(values)} entries, the domain {dim} latents")


def forward_witness(artifact: ReductionArtifact, source_witness) -> tuple[Fraction, ...]:
    """Map a source-problem witness to a latent in the query's domain.

    Source forms: a bool tuple (assignments), an int 0/1 tuple (lattice
    coefficients), or a vertex set (cliques and covers, 1-based).
    """
    gadget, kind = _witness_kind(artifact.witness_map)
    latent = kind.forward(source_witness, artifact.query.domain.dim)
    _check_dim(latent, artifact, "source witness")
    if gadget is None:
        return latent
    scale = as_fraction(gadget["scale"])
    return tuple(scale * v for v in latent)


def backward_witness(artifact: ReductionArtifact, latent) -> object:
    """Map an accepted latent back to a source-problem witness."""
    gadget, kind = _witness_kind(artifact.witness_map)
    latent = tuple(as_fraction(v) for v in latent)
    _check_dim(latent, artifact, "latent")
    if gadget is not None:
        # Read the exactly-collapsed 0/1 coordinates out of layer 4.
        collapsed = forward_layers(artifact.query.network, latent)[3][: artifact.query.domain.dim]
        latent = _zero_one(collapsed, "collapsed latent")
    return kind.backward(latent)


# -- artifact (de)serialization --------------------------------------------


def _jsonify(value):
    if isinstance(value, Fraction):
        return format_ratio(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def artifact_to_json(artifact: ReductionArtifact) -> str:
    doc = {
        "network": network_to_dict(artifact.query.network),
        "target": [format_ratio(v) for v in artifact.query.target],
        "p": artifact.query.p,
        "threshold_pow": format_ratio(artifact.query.threshold_pow),
        "domain": {"kind": artifact.query.domain.kind, "dim": artifact.query.domain.dim},
        "constants": _jsonify(artifact.constants),
        "witness_map": _jsonify(artifact.witness_map),
    }
    return json.dumps(doc, sort_keys=True)


def _constants_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError(f"malformed artifact document: {type(doc).__name__} for an object")
    out = {}
    for key, value in doc.items():
        if isinstance(value, str) and "/" in value:
            out[key] = parse_ratio(value)
        elif isinstance(value, dict):
            out[key] = _constants_from_json(value)
        else:
            out[key] = value
    return out


def artifact_from_json(text: str | bytes) -> ReductionArtifact:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting raises RecursionError
        raise ValueError(f"malformed artifact document: {exc}") from exc
    try:
        net = network_from_dict(doc["network"])
        target = tuple(parse_ratio(v) for v in doc["target"])
        p = json_int(doc, "p")
        theta = parse_ratio(doc["threshold_pow"])
        domain = LatentDomain(doc["domain"]["kind"], json_int(doc["domain"], "dim"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed artifact document: {exc}") from exc
    query = InversionQuery(net, target, p, theta, domain)
    constants = _constants_from_json(doc.get("constants", {}))
    clamp_hi = constants.get("clamp_hi", 1)
    if isinstance(clamp_hi, bool) or not isinstance(clamp_hi, (int, Fraction)):
        raise ValueError(
            f"malformed artifact document: constants.clamp_hi {clamp_hi!r} is not a rational"
        )
    witness_map = _constants_from_json(doc.get("witness_map", {}))
    return ReductionArtifact(query, constants=constants, witness_map=witness_map)
