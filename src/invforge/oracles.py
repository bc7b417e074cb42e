"""Independent ground-truth solvers.

Brute force for the four source problems, brute force for binary-latent
inversion, exact activation-pattern enumeration (with rational LP) for
real-latent inversion, and a heuristic float falsifier that can only
certify YES.

Exactness contract: no verdict ever depends on floating point. Every
exact network evaluation runs on relunet's integer view (ReluNetwork.integer),
over an exact common scale. One chunked numpy scan (_scan) serves both
exhaustive binary oracles, binary-latent inversion and the (0,1)-CVP source oracle,
through one helper (_binary_verdict), on {0,1} latents: a {-1,1} query
is folded into a {0,1} one first (z = 2y - 1). Every value the scan
forms is an integer partial sum of the terms of one layer-0 row, of one
layer-1 row, or of the nonnegative distance terms, so proved bounds per
unit and on the distance (_scan_dtype, on the folded layer) pick its
dtype by their peak: float32 up to 2^24, where every integer is a float
and every sum or product formed is exact in any order; int64 up to
2^63 - 1; else object (exact Python ints). Powers are taken by
multiplication, never np.power, since libm's pow need not be exact. The
latent bits split into high bits, fixed within a chunk, and low bits,
which vary within it. A layer-0 unit with low weights belongs to the
group of its high support S; where room allows, a group's share is
tabulated once per setting of S (see _scan).
The falsifier searches in float64 copies of the same view, and answers
YES only for a candidate the exact forward pass accepts (falsify_real).

_binary_verdict sends a +/--stacked query, one layer [W; -W], [b; -b]
against target 0 at p = 2 (_gram_form), to _gram_scan: as ReLU(x)^2 +
ReLU(-x)^2 = x^2, its distance is the quadratic form ||W z + b||^2, which
the n x n Gram matrix holds whatever the row count, so 2^(n+1) exact
additions find every value; in int64 while its bound fits, else object,
in tables of one chunk, the first minimizer taken as in _scan.

The pattern enumeration branches on one ReLU unit at a time, in the order
of a layer's masks 0, 1, ..., 2^fan_out - 1. Each trie node carries an
exact point of its region (the zero vector at the root); a child whose
row that point satisfies needs no LP, so only the other child calls
lp_feasible, and the leaves and witnesses are those of one LP per mask.
Rows and points are integers: each layer's pre-activations over its scale
L_l, read off ReluNetwork.integer. Every LP starts from the carried
point, which satisfies all of its rows but the new ones. A leaf decides
from there, since feasibility and the optimal value do not depend on the
start; only the leaf that answers YES is solved once more from no start,
and that cold solve gives the witness.

decide picks a query's oracle and its settings from the query alone: the
scan for a binary domain; for a real one, the pattern enumeration where it
applies (threshold 0 or p = 1) within the pattern_units cap, else the
falsifier at its default restarts and seed, its corners at the latent box
that the network's first two layers clamp to (_clamp_box). It calls each
by module-global name, so patching a name reaches decide. It is the CLI's
only route to a query oracle: no command names or tunes one.

Enumeration caps are configuration: the INVFORGE_CAP environment
variable, else the defaults below.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .instances import CnfFormula, CvpInstance, HalfCliqueQuery, VertexCoverQuery
from .lp import GE, LE, EQ, LinearConstraint, LinearProgram, lp_feasible, lp_minimize
from .ratio import format_ratio, scaled_int
from .relunet import dense_columns, distance_pow, distance_pows, float_layers, forward, integer_point
from .reductions import DOMAIN_01, DOMAIN_REAL, InversionQuery

YES, NO = "YES", "NO"
CERT_EXHAUSTIVE = "exhaustive"
CERT_PATTERN = "pattern-enumeration"
CERT_FALSIFIER = "falsifier-only"

DEFAULT_CAPS = {
    "sat_vars": 24,
    "latent_bits": 24,
    "subset_vertices": 16,
    "pattern_units": 18,
}

_ZERO = Fraction(0)
_ONE = Fraction(1)
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of magnitude up to 2^24, and no larger set
_INT64_SAFE = (1 << 63) - 1  # rigorous bound: no intermediate may exceed this
_CHUNK_ELEMENTS = 1 << 21  # elements a binary scan's arrays share (8 MiB in float32, 16 in int64)
_SAT_CHUNK_BITS = 12  # the SAT source oracle evaluates 2^12 assignments at a time, as 512-byte ints


class CapExceeded(RuntimeError):
    """The instance is larger than the configured enumeration cap."""


def resolve_cap(name: str) -> int:
    env = os.environ.get("INVFORGE_CAP")
    if env is not None:
        return int(env)
    return DEFAULT_CAPS[name]


def _check_cap(name: str, size: int, what: str) -> None:
    limit = resolve_cap(name)
    if size > limit:
        raise CapExceeded(f"{size} {what} exceeds cap {limit}")


@dataclass
class VerdictStats:
    latents_enumerated: int = 0
    patterns_enumerated: int = 0
    lp_pivots: int = 0


@dataclass
class Verdict:
    decision: str
    witness: tuple[Fraction, ...] | None
    certificate: str
    stats: VerdictStats = field(default_factory=VerdictStats)

    @property
    def is_yes(self) -> bool:
        return self.decision == YES

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "witness": None if self.witness is None else [format_ratio(v) for v in self.witness],
            "certificate": self.certificate,
            "stats": asdict(self.stats),
        }


def _bits_msb(index: int, width: int) -> tuple[int, ...]:
    """Bits of index, most significant first, so numeric order = lex order."""
    return tuple((index >> (width - 1 - pos)) & 1 for pos in range(width))


# -- SAT -------------------------------------------------------------------


@functools.cache
def _truth_tables(width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(true, false): bit a of true[b] is bit b of a, for a < 2^width, and false[b] is its complement.

    Built from repeated bytes (a period of bit b is 2^b zeros, then 2^b ones)
    and kept: at most _SAT_CHUNK_BITS + 1 widths, 12 KiB at the widest.
    """
    size, full = 1 << width, (1 << (1 << width)) - 1
    blocks = [bytes([(0xAA, 0xCC, 0xF0)[b]]) if b < 3 else bytes(1 << b >> 3) + b"\xff" * (1 << b >> 3)
              for b in range(width)]
    true = tuple(int.from_bytes(block * max(1, size // (8 * len(block))), "little") & full for block in blocks)
    return true, tuple(full ^ table for table in true)


def _sat_models(formula: CnfFormula):
    """(first assignment, models) per chunk of 2^_SAT_CHUNK_BITS assignments, ascending.

    Bit a of models is set when assignment first + a satisfies the formula:
    each literal has a truth table over the chunk, constant for the high
    variables, and models is the AND over clauses of the OR of their
    literals' tables.
    """
    n = formula.num_vars
    lo = min(n, _SAT_CHUNK_BITS)
    full = (1 << (1 << lo)) - 1
    true, false = _truth_tables(lo)
    for h in range(1 << (n - lo)):
        high = [full if h >> bit & 1 else 0 for bit in range(n - lo - 1, -1, -1)]
        # tables[lit] for literals -n..n: variable 1 is the most significant bit
        tables = [0, *high, *true[::-1], *false, *(full ^ t for t in high[::-1])]
        models = full
        for clause in formula.clauses:
            satisfied = 0
            for lit in clause:
                satisfied |= tables[lit]
            models &= satisfied
            if not models:
                break
        yield h << lo, models


def solve_sat_bruteforce(formula: CnfFormula) -> Verdict:
    """2^n scan that stops at the lexicographically smallest model (F < T), the witness."""
    n = formula.num_vars
    _check_cap("sat_vars", n, "variables")
    for first, models in _sat_models(formula):
        if models:
            found = first + (models & -models).bit_length() - 1
            witness = tuple(Fraction(b) for b in _bits_msb(found, n))
            stats = VerdictStats(latents_enumerated=found + 1)
            return Verdict(YES, witness, CERT_EXHAUSTIVE, stats)
    return Verdict(NO, None, CERT_EXHAUSTIVE, VerdictStats(latents_enumerated=1 << n))


def count_sat_assignments(formula: CnfFormula) -> tuple[int, int]:
    """(satisfying assignments, states scanned); full scan, used by the bench."""
    _check_cap("sat_vars", formula.num_vars, "variables")
    return sum(models.bit_count() for _, models in _sat_models(formula)), 1 << formula.num_vars


# -- (0,1)-CVP ---------------------------------------------------------------


def solve_cvp01_bruteforce(inst: CvpInstance) -> Verdict:
    """Exhaustive over {0,1}^n coefficient vectors; exact comparison.

    The basis and target are scaled by lam, the lcm of their denominators.
    As |r|^p = ReLU(r)^p + ReLU(-r)^p, the distance is that of one layer,
    weights [B; -B] and bias [-t; t], to target 0, which _scan_dtype
    bounds unit by unit (a row and its mirror each). The first minimizer
    is the lex smallest. The oracle builds that layer itself; as it is the
    layer cvp_to_approx_binary compiles, tests check these decisions
    against a plain Fraction loop over {0,1}^n, not another network.
    """
    n = inst.num_vectors
    _check_cap("latent_bits", n, "coefficients")
    lam = math.lcm(*(v.denominator for v in itertools.chain(*inst.basis, inst.target)))
    basis = [[(j, scaled_int(w, lam)) for j, w in enumerate(row) if w] for row in inst.basis]
    target = [scaled_int(t, lam) for t in inst.target]
    weights = basis + [[(j, -w) for j, w in row] for row in basis]
    bias = [-t for t in target] + target
    threshold = inst.radius**inst.p * lam**inst.p
    return _binary_verdict([(weights, bias)], [0] * len(bias), inst.p, n, threshold)


# -- graph problems ----------------------------------------------------------


def _masks_of_popcount(n: int, k: int) -> np.ndarray:
    """Every n-bit mask with exactly k bits set, ascending (= indicator-lex order)."""
    counts = np.zeros(1, dtype=np.int8)
    for _ in range(n):  # doubling popcount table: bit j set adds one
        counts = np.concatenate([counts, counts + 1])
    return np.flatnonzero(counts == k)


def _pair_mask(n: int, a: int, b: int) -> int:
    """Mask of vertices a and b (1-based) in the msb-first indicator."""
    return (1 << (n - a)) | (1 << (n - b))


def _subset_verdict(masks: np.ndarray, hit: int | None, n: int) -> Verdict:
    """YES with masks[hit] as witness after hit + 1 subsets, or NO after all of them."""
    if hit is None:
        return Verdict(NO, None, CERT_EXHAUSTIVE, VerdictStats(latents_enumerated=len(masks)))
    witness = tuple(Fraction(b) for b in _bits_msb(int(masks[hit]), n))
    return Verdict(YES, witness, CERT_EXHAUSTIVE, VerdictStats(latents_enumerated=hit + 1))


def solve_halfclique_bruteforce(query: HalfCliqueQuery, p: int) -> Verdict:
    """All C(n, n/2) subsets; YES iff some clique weighs strictly below the bound.

    Effective edge weights are root_weight**p, so the oracle needs the same
    exponent the downstream reduction uses. Subsets containing a non-edge
    are dropped in numpy; the cliques left are weighed exactly, in
    ascending indicator order.
    """
    g = query.graph
    n = g.num_vertices
    _check_cap("subset_vertices", n, "vertices")
    weights = {pair: root**p for pair, root in g.root_weights().items()}
    masks = _masks_of_popcount(n, n // 2)
    clique = np.ones(len(masks), dtype=bool)
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if (a, b) not in weights:
            pair = _pair_mask(n, a, b)
            clique &= (masks & pair) != pair
    for pos in np.flatnonzero(clique):
        bits = _bits_msb(int(masks[pos]), n)
        vertices = [i + 1 for i, b in enumerate(bits) if b]
        weight = sum((weights[e] for e in itertools.combinations(vertices, 2)), _ZERO)
        if weight < query.bound:
            return _subset_verdict(masks, int(pos), n)
    return _subset_verdict(masks, None, n)


def solve_vertexcover_bruteforce(query: VertexCoverQuery) -> Verdict:
    """All C(n, q) subsets of exactly the requested size; weights ignored."""
    g = query.graph
    n = g.num_vertices
    _check_cap("subset_vertices", n, "vertices")
    masks = _masks_of_popcount(n, query.size)
    cover = np.ones(len(masks), dtype=bool)
    for i, j, _ in g.edges:
        cover &= (masks & _pair_mask(n, i, j)) != 0
    hits = np.flatnonzero(cover)
    return _subset_verdict(masks, int(hits[0]) if hits.size else None, n)


# -- binary-latent inversion -------------------------------------------------


def _integerized(query: InversionQuery):
    """ReluNetwork.integer's sparse rows and biases, with target and threshold scaled to match.

    The last layer also takes in the target's denominators: it is scaled by
    k = lcm(L, target denominators) / L for the last L when k > 1. ReLU
    commutes with positive scaling, so distances come out scaled by (k L)^p.
    """
    layers = [(rows, bias) for rows, bias, _ in query.network.integer]
    scale = query.network.integer[-1][2]
    k = math.lcm(scale, *(t.denominator for t in query.target)) // scale
    if k > 1:
        rows, bias = layers[-1]
        layers[-1] = ([[(j, w * k) for j, w in row] for row in rows], [b * k for b in bias])
        scale *= k
    target = [scaled_int(t, scale) for t in query.target]
    threshold_scaled = query.threshold_pow * Fraction(scale) ** query.p
    return layers, target, threshold_scaled, scale


def _scan_dtype(layers, target, p: int):
    """The narrowest dtype in which every value the scan forms is exact (see _scan).

    Per unit r, from upper bounds u on its inputs (1 for the {0,1} bits):
    M_r = sum |w_rj| u_j + |b_r| bounds every value formed from its row and
    every entry of it; U_r = max(1, sum max(w_rj, 0) u_j + b_r) bounds its
    ReLU output and is the next layer's u. The distance is bounded by
    sum_r max(|U_r - t_r|, |t_r|)^p. The peak of these bounds picks float32
    up to 2^24, int64 up to 2^63 - 1, object beyond.
    """
    peak, u = 1, None  # u is None for the bits, which need no product
    for rows, bias in layers:
        bounds = []
        for row, b in zip(rows, bias):
            terms = [w for _, w in row] if u is None else [w * u[j] for j, w in row]
            total, signed = sum(map(abs, terms)), sum(terms)
            peak = max(peak, total + abs(b))
            bounds.append(max(1, (total + signed) // 2 + b))
        if peak > _INT64_SAFE:
            return object
        u = bounds
    peak = max(peak, sum(max(abs(v - t), abs(t)) ** p for v, t in zip(u, target)))
    if peak > _INT64_SAFE:
        return object
    return np.float32 if peak <= _FLOAT32_EXACT else np.int64


def invert_binary_bruteforce(query: InversionQuery) -> Verdict:
    """Exhaustive scan of a binary latent domain.

    YES iff the minimum p-th-powered distance is <= the threshold; the
    witness is the lexicographically smallest minimizer (-1 < 1, 0 < 1).
    A {-1,1} query is folded into a {0,1} one first: z = 2y - 1 turns
    W z + b into 2W y + (b - W 1), and y's order is z's.
    """
    kind = query.domain.kind
    if kind == DOMAIN_REAL:
        raise ValueError("binary brute force cannot search a real domain")
    n = query.domain.dim
    _check_cap("latent_bits", n, "latent bits")
    layers, target, threshold_scaled, _ = _integerized(query)
    if kind == DOMAIN_01:
        return _binary_verdict(layers, target, query.p, n, threshold_scaled)
    (w0, b0), rest = layers[0], layers[1:]
    folded = ([[(j, 2 * w) for j, w in r] for r in w0], [b - sum(w for _, w in r) for r, b in zip(w0, b0)])
    verdict = _binary_verdict([folded] + rest, target, query.p, n, threshold_scaled)
    if verdict.is_yes:
        verdict.witness = tuple(_ONE if y else -_ONE for y in verdict.witness)
    return verdict


def _binary_verdict(layers, target, p, n, threshold) -> Verdict:
    """Exhaustive verdict of integer layers (sparse rows, bias) over n {0,1} latents against a scaled threshold.

    _gram_form's queries go to _gram_scan, every other to _scan: each gives the minimum and its first minimizer.
    """
    gram = _gram_form(layers, target, p)
    if gram is not None:
        best_val, best_index = _gram_scan(*gram, n, _gram_dtype(*gram))
    else:
        best_val, best_index = _scan(layers, target, p, n, _scan_dtype(layers, target, p))
    stats = VerdictStats(latents_enumerated=1 << n)
    if best_val <= threshold:
        witness = tuple(Fraction(b) for b in _bits_msb(best_index, n))
        return Verdict(YES, witness, CERT_EXHAUSTIVE, stats)
    return Verdict(NO, None, CERT_EXHAUSTIVE, stats)


def _gram_form(layers, target, p):
    """(rows, bias) of the first half when the query is one layer [W; -W], [b; -b] against target 0 at p = 2, else None."""
    if p != 2 or len(layers) != 1 or any(target):
        return None
    rows, bias = layers[0]
    half, odd = divmod(len(rows), 2)
    if odd or not all(bias[r + half] == -bias[r] and tuple(rows[r + half]) == tuple((j, -w) for j, w in rows[r])
                      for r in range(half)):
        return None
    return rows[:half], bias[:half]


def _gram_dtype(rows, bias):
    """int64 while sum_r M_r^2 <= 2^63 - 1, M_r = |b_r| + sum_j |w_rj|, else object (see _gram_scan)."""
    bound = sum((abs(b) + sum(abs(w) for _, w in row)) ** 2 for row, b in zip(rows, bias))
    return np.int64 if bound <= _INT64_SAFE else object


def _gram_scan(rows, bias, n, dtype):
    """(minimum, first minimizer) of ||W z + b||^2 over z in {0,1}^n, from its Gram form.

    As z_j^2 = z_j, the value is c + sum_j z_j d_j + sum_{j<k} z_j z_k e_jk,
    c = sum_r b_r^2, d_j = sum_r w_rj (w_rj + 2 b_r), e_jk = 2 sum_r w_rj w_rk.
    A chunk fixes the hi high bits, which fold into its constant and d_j. Its
    table is doubled: latents n-1 down to hi each become the top bit,
    table[k:2k] = table[:k] + d_j + (e_jk's subset sums over later latents).
    Exactness: every value formed is a sum of distinct terms of the expanded
    (b_r + sum_j w_rj z_j)^2, so within sum_r M_r^2, the bound of _gram_dtype.
    Memory: one table of 2^lo entries within the dtype's chunk. Cost: 2^(n+1)
    additions whatever the row count, after an n^2 R Gram build. Order: see _first_min.
    """
    cols = dense_columns(rows, n, dtype)
    gram = cols @ cols.T
    c = sum(b * b for b in bias)
    d = (gram.diagonal() + 2 * (cols @ np.array(bias, dtype=dtype))).tolist()
    e = [[2 * v for v in row] for row in gram.tolist()]  # e[j][k], k > j, is read
    lo = min(n, max(0, _chunk_elements(dtype).bit_length() - 1))
    hi = n - lo
    table = np.empty(1 << lo, dtype=dtype)

    def chunks():
        for h in range(1 << hi):
            on = [k for k, bit in enumerate(_bits_msb(h, hi)) if bit]
            table[0] = c + sum(d[k] + sum(e[i][k] for i in on if i < k) for k in on)
            for j in range(n - 1, hi - 1, -1):
                size = 1 << (n - 1 - j)
                seg = table[size : 2 * size]
                seg[0] = d[j] + sum(e[k][j] for k in on)
                for i, k in enumerate(range(n - 1, j, -1)):
                    np.add(seg[: 1 << i], e[j][k], out=seg[1 << i : 2 << i])
                seg += table[:size]
            yield table

    return _first_min(chunks(), lo)


def _chunk_elements(dtype) -> int:
    # an object element points to a Python int of several words, so take an eighth
    return _CHUNK_ELEMENTS // 8 if dtype is object else _CHUNK_ELEMENTS


def _low_bits(n: int, width: int, dtype) -> int:
    """Latent bits that vary within a chunk: 2^lo rows of 2 * `width` fit in the dtype's chunk."""
    return min(n, max(0, (_chunk_elements(dtype) // (2 * width)).bit_length() - 1))


def _subset_sums(cols):
    """Row r: sum over i of bit_i(r) * cols[i], cols[0] the most significant bit.

    Built by doubling in place from the least significant bit, no matmul:
    table[:2k] = [table[:k], table[:k] + col].
    """
    table = np.zeros((1 << len(cols), cols.shape[1]), dtype=cols.dtype)
    for j, col in enumerate(cols[::-1]):
        k = 1 << j
        np.add(table[:k], col, out=table[k : 2 * k])
    return table


def _high_sums(cols, base):
    """base + high @ cols per setting of the high bits, ascending: one per chunk (one if none)."""
    for h in range(1 << len(cols)):
        yield base + np.array(_bits_msb(h, len(cols)), dtype=cols.dtype) @ cols


def _pow_sum(values, p: int):
    """Row sums of values**p, overwriting values; for odd p they must be >= 0.

    Powers are in-place products, never np.power: its float loops call
    libm's pow, which need not be exact. einsum sums rows several times
    faster than .sum(axis=1) on these narrow arrays (object from numpy 1.25).
    """
    if p == 2:
        return np.einsum("ij,ij->i", values, values)
    if p != 1:
        base = values.copy()
        for _ in range(p - 1):
            values *= base
    return np.einsum("ij->i", values)


def _first_min(dists, lo: int):
    """(value, index) of the first minimum over per-chunk distance vectors.

    Chunks come in ascending order of their high bits; argmin takes a
    chunk's first minimum and a later chunk wins only on a strictly
    smaller value, so the index is the smallest minimizer's.
    """
    best_val = None
    best_index = -1
    for h, dist in enumerate(dists):
        pos = int(dist.argmin())
        val = int(dist[pos])
        if best_val is None or val < best_val:
            best_val = val
            best_index = (h << lo) + pos
    return best_val, best_index


def _unit_groups(cols, hi: int, room: int, vector: int):
    """Layer-0 units as (tabulated groups, per-chunk units, high-only or constant units).

    cols holds one row per latent bit, msb first, the `hi` high bits first.
    A unit with low weights belongs to the group of its high support S.
    Groups with |S| < hi are tabulated, as (S, units), in increasing |S|
    while all that is held fits in `room` columns of 2^lo entries: the
    `vector` columns of each of a group's 2^|S| settings, and the larger of
    its own subset-sum table (a buffer too if S is not empty) and the table
    and buffer of the units still left per chunk. The rest go per chunk.
    """
    if not hi:  # one chunk shares nothing: every unit is evaluated in it
        return [], slice(None), np.empty(0, dtype=np.intp)
    low = (cols[hi:] != 0).any(axis=0)
    units = np.flatnonzero(low)
    keys = (cols[:hi, units] != 0).T @ (1 << np.arange(hi - 1, -1, -1))  # S as a bit mask
    tabulated, per_chunk, left = [], [units[:0]], len(units)
    for key in sorted(set(keys.tolist()), key=lambda key: (key.bit_count(), key)):
        group, settings = units[keys == key], 1 << key.bit_count()
        size = settings * vector
        if settings < 1 << hi and size + max(2 * (left - len(group)), len(group) << (key > 0)) <= room:
            room, left = room - size, left - len(group)
            tabulated.append((tuple(np.flatnonzero(cols[:hi, group[0]])), group))
        else:
            per_chunk.append(group)
    return tabulated, np.concatenate(per_chunk), np.flatnonzero(~low)


def _distance(acts, target, p: int):
    """Row sums of |acts - target|^p, in place; acts are ReLU outputs, so >= 0."""
    if target.any():  # a zero target needs no |a - t|
        acts -= target
        if p % 2:
            np.abs(acts, out=acts)
    return _pow_sum(acts, p)


def _scan(layers, target, p, n, dtype):
    """Scan in chunks of dtype, each layer-0 unit group's share tabulated once per setting.

    Split: of the n latent bits, the `hi` high bits are fixed within a
    chunk and the `lo` low bits vary within it. A layer-0 unit with low
    weights belongs to the group of its high support S (_unit_groups). A
    group's share of the next stage, its part of the layer-1
    pre-activations relu(table + offset) @ W1_G or, for one layer, its
    distance terms, depends on the chunk only through the 2^|S| settings
    of S. A tabulated group (|S| < hi) builds one 2^lo x (next-stage width)
    vector per setting, from one subset-sum table of its low columns and
    one buffer. Chunk h adds the vectors for its setting to what it
    evaluates itself: the other groups, from their own subset-sum table
    plus bias0 + high @ cols[:hi], and the high-only or constant units, as
    one row of that vector. One chunk (hi = 0) tabulates nothing.

    Exactness: every table entry, every partial sum met while building it
    and every layer-0 pre-activation is a sum of some of one layer-0 row's
    terms (the bias and the w_j). Every layer-1 value formed, a group's
    vector, a per-chunk share or a sum of them, is a sum of some of one
    layer-1 row's terms; every distance formed is a sum of some of the
    nonnegative distance terms, and a term's powers are at most its p-th.
    So every magnitude, in any order of summation, stays within its row's
    bound M_r or the distance bound, which _scan_dtype checked from inputs
    within the bounds U of the layer below, as do the later layers' partial
    sums: float32 is exact within 2^24 (BLAS blocking and FMA included),
    int64 within 2^63 - 1, and object holds Python ints, which cannot overflow.

    Memory: lo is the largest value with 2^lo rows of twice the widest
    layer within the dtype's chunk (_low_bits), so a subset-sum table and
    its buffer, held together, fit in one chunk between them (one row each
    if a row alone is wider), whatever n is. Tabulating a group takes its
    units out of the per-chunk table, and _unit_groups tabulates it only if
    the vectors, with the larger of its own table and that of the units left
    per chunk, fit in the chunk: the tables and vectors held never exceed it.

    Order: see _first_min.
    """
    (w0, b0), rest = layers[0], layers[1:]
    cols = dense_columns(w0, n, dtype)  # row i: latent bit i's column, msb first
    bias0 = np.array(b0, dtype=dtype)
    widths = [len(b) for _, b in layers]
    np_rest = [(dense_columns(w, k, dtype), np.array(b, dtype=dtype)) for (w, b), k in zip(rest, widths)]
    np_target = np.array(target, dtype=dtype)
    width = max(widths)
    lo = _low_bits(n, width, dtype)
    hi = n - lo
    share_shape = (1 << lo,) + np_rest[0][1].shape if np_rest else (1 << lo,)
    vector = len(np_rest[0][1]) if np_rest else 1  # columns of 2^lo entries per setting
    tabulated, per_chunk, high = _unit_groups(cols, hi, _chunk_elements(dtype) >> lo, vector)

    def share(acts, units):
        """The next stage's share of these layer-0 units' activations."""
        if np_rest:
            return acts @ np_rest[0][0][units]
        return _distance(acts, np_target[units], p)

    def setting_shares(support, units):
        """The group's share for each setting of its high support, ascending."""
        vectors = np.empty((1 << len(support),) + share_shape, dtype=dtype)
        table = _subset_sums(cols[hi:, units])
        buf = np.empty_like(table) if support else table
        for s, offset in enumerate(_high_sums(cols[list(support)][:, units], bias0[units])):
            vectors[s] = share(np.maximum(np.add(table, offset, out=buf), 0, out=buf), units)
        return vectors

    # a setting reads h's bits on the support, the support's first bit most significant
    groups = [([hi - 1 - i for i in s[::-1]], setting_shares(s, units)) for s, units in tabulated]
    table = _subset_sums(cols[hi:, per_chunk])
    buf = np.empty_like(table) if hi else table  # a single chunk may overwrite its table

    def chunks():
        for h, offset in enumerate(_high_sums(cols[:hi], bias0)):
            acts = np.add(table, offset[per_chunk], out=buf)
            total = share(np.maximum(acts, 0, out=acts), per_chunk)
            for shifts, vectors in groups:
                total += vectors[sum((h >> shift & 1) << k for k, shift in enumerate(shifts))]
            if high.size:
                total += share(np.maximum(offset[None, high], 0), high)
            if np_rest:  # total holds layer-1 pre-activations less the bias
                total += np_rest[0][1]
                np.maximum(total, 0, out=total)
                for w_t, b in np_rest[1:]:
                    total = total @ w_t
                    total += b
                    np.maximum(total, 0, out=total)
                total = _distance(total, np_target, p)
            yield total

    return _first_min(chunks(), lo)


# -- activation patterns and real-latent inversion ---------------------------


def branching_units(query: InversionQuery) -> int:
    """The units the pattern DFS branches on, which the pattern_units cap counts.

    With threshold 0 the target fixes the output layer's mask.
    """
    net = query.network
    return net.hidden_units - (net.output_dim if query.threshold_pow == 0 else 0)


def enumerate_patterns_invert(query: InversionQuery) -> Verdict:
    """Exact real-latent decision by activation-pattern enumeration.

    Supported: threshold 0 with any p (range membership), or p = 1 with any
    threshold (per-region L1 minimization is an LP). The DFS decides one
    unit at a time (a layer's highest unit first, inactive before active)
    and extends only feasible prefixes, so it enumerates a subset of the
    2^H patterns with identical verdict. A child whose row the node's
    carried point satisfies needs no LP; the other child's lp_feasible,
    started from that point, gives its point. A leaf LP starts from its
    node's point too (with errors 0 when thresholded) and decides; the YES
    leaf is solved once more cold for the witness. With threshold 0 the
    target fixes the output layer's mask (units with target > 0 active),
    so those units have one choice.
    """
    if query.domain.kind != DOMAIN_REAL:
        raise ValueError("pattern enumeration needs a real latent domain")
    exact = query.threshold_pow == 0
    if not exact and query.p != 1:
        raise ValueError("thresholded pattern enumeration supports p = 1 only")
    net = query.network
    _check_cap("pattern_units", branching_units(query), "branching units")

    n = net.input_dim
    stats = VerdictStats()
    lp_stats: dict = {}
    target, t = integer_point(query.target)  # target_k = target[k] / t

    def leaf(constraints, affine, scale, point):
        # affine: the output units as (ints, const) over scale; out_k = (ints . z + const) / scale
        stats.patterns_enumerated += 1
        if exact:
            lp = LinearProgram(n, constraints + [
                LinearConstraint(tuple(t * c for c in ints), EQ, scale * x - t * const, t * scale)
                for (ints, const), x in zip(affine, target)
            ])
            if lp_feasible(lp, lp_stats, start=point) is None:
                return None
            return tuple(lp_feasible(lp, lp_stats))  # the cold solve gives the witness
        out_dim = len(affine)
        pad = (0,) * out_dim
        lp = LinearProgram(n + out_dim, [
            LinearConstraint(con.ints + pad, con.relation, con.rhs_int, con.scale) for con in constraints
        ])
        for k, ((ints, const), x) in enumerate(zip(affine, target)):
            err = tuple(t * scale if j == k else 0 for j in range(out_dim))
            row, rhs = tuple(t * c for c in ints), t * const - scale * x
            # e_k >= (out_k - x) and e_k >= -(out_k - x)
            lp.constraints.append(LinearConstraint(tuple(-c for c in row) + err, GE, rhs, t * scale))
            lp.constraints.append(LinearConstraint(row + err, GE, -rhs, t * scale))
        lp.set_objective((0,) * n + (1,) * out_dim)
        result = lp_minimize(lp, lp_stats, start=(point[0] + pad, point[1]))  # at e = 0
        if result is None or result[1] > query.threshold_pow:
            return None
        return tuple(lp_minimize(lp, lp_stats)[0][:n])  # the cold solve gives the witness

    zero_row = ((0,) * n, 0)

    def dfs(layer_idx, affine, constraints, point):
        # affine: the inputs as (ints, const) over the scale below (1 at layer 0); point: (ints, D) in the region
        if layer_idx == net.depth:
            return leaf(constraints, affine, net.integer[-1][2], point)
        weights, bias, scale = net.integer[layer_idx]
        pre = []
        for row, b in zip(weights, bias):
            coeffs, const = [0] * n, b
            for j, w in row:
                acoeffs, aconst = affine[j]
                const += w * aconst
                coeffs = [c + w * a for c, a in zip(coeffs, acoeffs)]
            pre.append((tuple(coeffs), const))
        rows = [(LinearConstraint(c, LE, -b, scale), LinearConstraint(c, GE, -b, scale)) for c, b in pre]
        if exact and layer_idx == net.depth - 1:
            # Output unit k equals target_k >= 0: it must be active when
            # target_k > 0. Activating a target-0 unit as well only adds
            # pre_k >= 0 to its leaf's pre_k == 0, a subset of this region,
            # and such masks come later, so one choice per unit finds the
            # same first witness. The leaf LP holds its rows: no LP here.
            choices = [(x > 0,) for x in query.target]
        else:
            choices = [(False, True)] * len(pre)

        def branch(j, decided, point):
            # `decided` holds the rows chosen for the units above j, highest first
            if j < 0:
                decided = decided[::-1]
                next_affine = [u if r.relation == GE else zero_row for u, r in zip(pre, decided)]
                return dfs(layer_idx + 1, next_affine, constraints + decided, point)
            for active in choices[j]:
                row, child = rows[j][active], point
                if len(choices[j]) > 1 and not row.holds(*point):
                    z = lp_feasible(LinearProgram(n, constraints + decided + [row]), lp_stats, start=point)
                    if z is None:
                        continue
                    child = integer_point(z)
                found = branch(j - 1, decided + [row], child)
                if found is not None:
                    return found
            return None

        return branch(len(pre) - 1, [], point)

    # ReLU outputs are nonnegative, so a negative target entry has no pattern
    negative = exact and min(query.target) < 0
    identity = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    witness = None if negative else dfs(0, identity, [], ((0,) * n, 1))
    stats.lp_pivots = lp_stats.get("pivots", 0)
    if witness is None:
        return Verdict(NO, None, CERT_PATTERN, stats)
    check = distance_pow(forward(net, witness), query.target, query.p)
    if check.value > query.threshold_pow:
        raise AssertionError("pattern witness failed exact re-verification")
    return Verdict(YES, witness, CERT_PATTERN, stats)


# -- float falsifier ---------------------------------------------------------


_LADDER = (1, 2, 4, 8, 16, 64, 256, 4096, 1 << 16)  # denominators a float point is rounded to


def _ladder(x: float) -> list[Fraction]:
    """[Fraction(x).limit_denominator(d) for d in _LADDER], from one continued-fraction pass.

    limit_denominator(d) walks the convergents p1/q1 of x while their
    denominators stay within d, then takes the closer of p1/q1 and the
    semiconvergent (p0 + k p1)/(q0 + k q1) with the largest k that d
    allows, p1/q1 on a tie. The walk for a larger d passes through the state
    where the walk for a smaller d stopped, so one walk, resumed at each
    rung, serves the whole increasing ladder.
    """
    num, den = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    rungs = []
    for limit in _LADDER:
        if den <= limit:
            rungs.append((num, den))
            continue
        while q0 + (a := n // d) * q1 <= limit:
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            n, d = d, n - a * d
        k = (limit - q0) // q1
        q = q0 + k * q1
        # x lies d / (q1 den) from p1/q1, and the semiconvergent 1 / (q1 q) from p1/q1 on x's other side
        rungs.append((p1, q1) if 2 * d * q <= den else (p0 + k * p1, q))
    values = {pq: Fraction(*pq) for pq in set(rungs)}  # one Fraction per distinct rung
    return [values[pq] for pq in rungs]


def falsify_real(
    query: InversionQuery,
    restarts: int = 10_000,
    seed: int = 0,
    corner_levels: tuple = (0, 1),
) -> Verdict:
    """Multi-start float search; YES only after exact rational re-verification.

    Seeds every {lo,hi}-corner of the latent cube first (up to the restart
    budget), then random points. Seeds whose float distance is near or
    below the threshold are checked exactly at once, lazily and in order: a
    corner as the exact point of corner_levels, a random seed through its
    rounding ladder. Only when none passes does a batched coordinate descent
    run. Its best points and those near the threshold form the shortlist.

    The rounding ladder of a point rounds each coordinate x to
    Fraction(x).limit_denominator(d) for every d in _LADDER, all rungs from
    one continued-fraction pass (_ladder). After the descent, every ladder
    candidate of the shortlist is built at once, in shortlist and ladder
    order, each distinct point once and none already checked. One exact
    integer batch (relunet.distance_pows) gives each its distance, and the
    first within the threshold, re-verified by the exact forward pass, is
    the witness: the decision and the witness are those of checking every
    candidate in order.

    A NO answer is explicitly non-certifying. With 2^N <= restarts, every YES
    of a gadget or sat-real query is found at a corner of _clamp_box's levels:
    {0, clamp_hi}, as forward_witness scales the binary witness by clamp_hi, or
    {-1, 1}, where a satisfying +/-1 assignment lies at float distance exactly 0.
    When the query overflows float64, only the corners are checked, exactly, in index order.
    """
    if query.domain.kind != DOMAIN_REAL:
        raise ValueError("the falsifier searches real latent domains only")
    n = query.domain.dim
    stats = VerdictStats()
    if restarts <= 0:
        return Verdict(NO, None, CERT_FALSIFIER, stats)

    corner_count = min(1 << n, restarts) if n <= 20 else 0
    bits = (np.arange(corner_count)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    levels = (Fraction(corner_levels[0]), Fraction(corner_levels[1]))
    p = query.p
    checked: set[tuple] = set()  # rational points already found too far

    def first_hit(candidates):
        for z in candidates:
            if z in checked:
                continue
            checked.add(z)
            exact = distance_pow(forward(query.network, z), query.target, p)
            if exact.value <= query.threshold_pow:
                return z
        return None

    def corner(i):  # corner i exactly, as a point of corner_levels
        return tuple(levels[b] for b in bits[i])

    try:
        lo, hi = float(corner_levels[0]), float(corner_levels[1])
        net_layers = float_layers(query.network)
        target = np.array([float(v) for v in query.target])
        theta = float(query.threshold_pow)
        span = max(hi - lo, 1.0)
        randoms = np.random.default_rng(seed).uniform(
            lo - 0.5 * span, hi + 0.5 * span, size=(restarts - corner_count, n)
        )
        points = np.vstack([lo + bits * (hi - lo), randoms])
    except OverflowError:  # the float search cannot represent this query
        z = first_hit(map(corner, range(corner_count)))
        return Verdict(NO if z is None else YES, z, CERT_FALSIFIER, VerdictStats(latents_enumerated=len(checked)))
    acts_out = [np.empty((len(points), w.shape[1])) for w, _ in net_layers]
    power_out = np.empty_like(acts_out[-1])

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing point gets inf or nan; exact checks decide
    def dist(batch):
        acts = batch
        for (w, b), out in zip(net_layers, acts_out):
            np.matmul(acts, w, out=out)
            out += b
            acts = np.maximum(out, 0.0, out=out)
        acts -= target
        np.abs(acts, out=acts)
        np.copyto(power_out, acts)
        for _ in range(p - 1):
            np.multiply(power_out, acts, out=power_out)
        return power_out.sum(axis=1)

    def rationalized(i):
        return zip(*(_ladder(float(v)) for v in points[i]))

    def seed_candidates(i):
        return [corner(i)] if i < corner_count else rationalized(i)  # an unmoved corner is exact

    def near(values):
        return [int(i) for i in np.nonzero(values <= theta * (1 + 1e-9) + 1e-9)[0][:64]]

    values = dist(points)
    stats.latents_enumerated += len(points)
    z = first_hit(z for i in near(values) for z in seed_candidates(i))
    if z is not None:
        return Verdict(YES, z, CERT_FALSIFIER, stats)

    step = span / 2.0
    candidate = points.copy()
    for _ in range(4):
        for j in range(n):
            for direction in (step, -step):
                np.add(points[:, j], direction, out=candidate[:, j])
                cand_values = dist(candidate)
                stats.latents_enumerated += len(points)
                better = cand_values < values
                np.copyto(points[:, j], candidate[:, j], where=better)
                np.copyto(values, cand_values, where=better)
                candidate[:, j] = points[:, j]
        step /= 2.0

    shortlist = dict.fromkeys([int(i) for i in np.argsort(values, kind="stable")[:16]] + near(values))
    fresh = dict.fromkeys(z for i in shortlist for z in rationalized(i))
    for z in checked:
        fresh.pop(z, None)
    candidates = list(fresh)
    exact = distance_pows(query.network, candidates, query.target, p)
    z = first_hit(z for z, value in zip(candidates, exact) if value <= query.threshold_pow)
    return Verdict(NO if z is None else YES, z, CERT_FALSIFIER, stats)


# -- decision entry point ----------------------------------------------------


def _clamp_box(net) -> tuple:
    """(-a, c - a) if layers 0-1 are ReLU(z_i + a) then ReLU(c - v_i), c > 0, on every latent; else (0, 1)."""
    eye = tuple(tuple(int(i == j) for j in range(net.input_dim)) for i in range(net.input_dim))
    first, second = (*net.layers, None)[:2]
    if second and (first.weights, second.weights) == (eye, tuple(tuple(-v for v in row) for row in eye)):
        a, c = first.bias[0], second.bias[0]
        if c > 0 and {*first.bias} == {a} and {*second.bias} == {c}:
            return -a, c - a
    return 0, 1


def decide(query: InversionQuery) -> Verdict:
    """The query's oracle, picked as the module docstring says, with settings read off the query alone."""
    if query.domain.kind != DOMAIN_REAL:
        return invert_binary_bruteforce(query)
    if (query.threshold_pow == 0 or query.p == 1) and branching_units(query) <= resolve_cap("pattern_units"):
        return enumerate_patterns_invert(query)
    return falsify_real(query, corner_levels=_clamp_box(query.network))
