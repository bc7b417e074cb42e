"""Seeded instance texts for the three benchmark workloads.

A workload is one round: a fixed list of cells (family and size), each of
which draws its content from the seed through invforge's `gen_random_*`
generators and `emit_*` emitters. The timed pass repeats that round until
its time is up, so every run measures the same instances whatever the
program's speed, and the spread between seeds comes from instance content.

Why these workloads:
  binary-large     30 binary-latent queries of 0.05-1 s each (sat n 16-18
                   near the 3-SAT threshold, halfclique and vertexcover
                   n 14-16, cvp n 8-10). The int64 scan of the latent cube
                   and the Python source oracles do ~95% of the work.
  roundtrip-small  960 tiny instances of the four binary routes. The scan
                   is a minority; (de)serialization, witness maps, exact
                   forward passes and per-call overhead dominate.
  real-latent      real-latent queries: sat-real through the pattern oracle
                   (Fraction simplex and pattern DFS), halfclique-real and
                   cvp-real through the float falsifier with exact
                   re-verification. YES and NO both occur in fixed numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from invforge.instances import (
    emit_cvp,
    emit_dimacs,
    emit_graph,
    gen_random_cvp,
    gen_random_graph,
    gen_random_ksat,
)
from invforge.ratio import pth_power_split
from invforge.reductions import choose_alpha_halfclique

import reference

DEFAULT_SEED = 0
SAT_DENSITY = 4.26  # clauses per variable near the 3-SAT threshold: YES and NO both occur
FALSIFY_RESTARTS = 2000


@dataclass(frozen=True)
class Instance:
    """One query as the program receives it, plus what the benchmark checks it with."""

    id: str
    family: str  # sat, cvp, halfclique, vertexcover, or one of those with "-real"
    text: str  # the emitted source document, the only data the program parses
    p: int = 1  # norm exponent of the graph routes (cvp carries its own in the text)
    bound: str | None = None  # half-clique weight bound, as the CLI's --bound
    size: int | None = None  # vertex-cover size, as the CLI's --size
    falsify_seed: int = 0
    truth: tuple = ()  # the generated instance, for reference.py
    expect: str | None = None  # verdict from reference.solve, when generation needed it

    @property
    def kind(self) -> str:
        return self.family.removesuffix("-real")


# -- per-family instance makers; rng is the cell's own random.Random --------


def _sat(rng, n, m, k, family="sat", **_):
    formula = gen_random_ksat(n, m, k, rng.getrandbits(32))
    truth = (formula.num_vars, formula.clauses)
    return dict(family=family, text=emit_dimacs(formula), truth=truth)


def _cvp(rng, n, d, p, family="cvp", **_):
    inst = gen_random_cvp(n, d, seed=rng.getrandbits(32), p=p)
    truth = (inst.basis, inst.target, inst.radius, inst.p)
    return dict(family=family, text=emit_cvp(inst), truth=truth)


# Prime above invforge's EXACT_SPLIT_MAX (64). With it in the bound's
# denominator, the non-edge penalty bound + total + 1 never splits into
# k * s**p with k <= 64, so every non-edge of a seeded cell compiles to one
# row pair. Without it about one draw in fourteen gets 10-62 rows per
# non-edge, multiplying the scan's width, time and memory (one such draw
# reached 2.1 GB), and runs on different seeds would not compare. The
# multi-copy construction is measured instead by fixed cells with a known
# copy count (see _split_bound).
BOUND_PRIME = 67


def _weights(g, p: int) -> tuple[int, Fraction]:
    """(D, total): every clique weight lies in (1/D)Z, and total is the sum of all edge weights."""
    denom = 1
    for _, _, root in g.edges:
        denom = math.lcm(denom, (root**p).denominator)
    return denom, sum((root**p for _, _, root in g.edges), Fraction(0))


def _tie_free_bound(g, p: int, rng: random.Random) -> Fraction:
    """A bound no clique weight equals: an odd numerator over 2D*67."""
    denom, total = _weights(g, p)
    denom *= 2 * BOUND_PRIME
    while True:
        numerator = 2 * rng.randint(0, int(denom * (total + 1))) + 1
        if numerator % BOUND_PRIME:
            return Fraction(numerator, denom)


def _split_bound(g, p: int, copies: int) -> Fraction:
    """The tie-free bound nearest (total + 1) / 2 whose non-edge penalty splits into `copies` row pairs."""
    denom, total = _weights(g, p)
    numerator = int(denom * (total + 1)) | 1
    while True:
        bound = Fraction(numerator, 2 * denom)
        if pth_power_split(choose_alpha_halfclique(p, total, bound), p)[0] == copies:
            return bound
        numerator += 2


def _halfclique(rng, n, edge_prob, p=2, denom_max=1, copies=None, family="halfclique", **_):
    g = gen_random_graph(n, edge_prob, seed=rng.getrandbits(32), denom_max=denom_max)
    bound = _tie_free_bound(g, p, rng) if copies is None else _split_bound(g, p, copies)
    truth = (n, g.root_weights(), bound, p)
    return dict(family=family, text=emit_graph(g), p=p, bound=f"{bound.numerator}/{bound.denominator}",
                truth=truth)


def _vertexcover(rng, n, edge_prob, size, p=2, **_):
    g = gen_random_graph(n, edge_prob, seed=rng.getrandbits(32))
    size = rng.randint(0, n) if size is None else size
    truth = (n, tuple((i, j) for i, j, _ in g.edges), size)
    return dict(family="vertexcover", text=emit_graph(g), p=p, size=size, truth=truth)


MAKERS = {"sat": _sat, "cvp": _cvp, "halfclique": _halfclique, "vertexcover": _vertexcover}

# -- cells ------------------------------------------------------------------


def _cell(maker, want=None, seeded=True, **params):
    """(maker, its parameters, reference verdict the draw must have, whether --seed varies it)."""
    return (maker, params, want, seeded)


def _sat_cell(n):
    return _cell("sat", n=n, m=round(SAT_DENSITY * n), k=3)


# Ordered by cost. The median (15th/16th of 30) and the tail (11th-largest,
# the 20th) both land inside the ten cvp n = 9 queries, whose scan and
# source oracle are exhaustive, so their cost does not depend on the
# verdict; the sat, halfclique and vertexcover queries, whose source
# oracles stop at the first witness, sit well below or above them. The two
# fixed half-clique cells compile every non-edge to six row pairs
# (invforge's exact multi-copy split); their content is the same for every
# seed, so that wider scan is measured at a steady cost. One query of each
# largest size keeps a round near 10 s, so a run repeats it about three
# times.
BINARY_LARGE = (
    [_cell("cvp", n=8, d=3, p=1)] * 4
    + [_cell("vertexcover", n=14, edge_prob=0.5, size=9)] * 3
    + [_cell("halfclique", n=14, edge_prob=0.8)] * 2
    + [_sat_cell(16)] * 2
    + [_cell("cvp", n=9, d=3, p=1)] * 10
    + [_cell("halfclique", seeded=False, n=14, edge_prob=0.8, copies=6)] * 2
    + [_sat_cell(17)] * 3
    + [_sat_cell(18)]
    + [_cell("halfclique", n=16, edge_prob=0.8)]
    + [_cell("vertexcover", n=16, edge_prob=0.5, size=11)]
    + [_cell("cvp", n=10, d=3, p=1)]
)

ROUNDTRIP_SMALL = 40 * (
    [_sat_cell(n) for n in range(3, 9)]
    + [_cell("cvp", n=n, d=1 + n % 3, p=p) for n in range(1, 5) for p in (1, 3)]
    + [_cell("halfclique", n=n, edge_prob=0.6, denom_max=2) for n in (4, 6, 8)]
    + [_cell("vertexcover", n=n, edge_prob=0.5, size=None) for n in range(2, 9)]
)


def _sat_real(n, m, k, want):
    return _cell("sat", want, seeded=False, n=n, m=m, k=k, family="sat-real")


# sat-real sizes follow `invforge verify --family sat-real`: n, m <= 2, a
# universe of 46 formulas whose pattern-search costs differ up to 500-fold,
# so a random draw from it would swamp every run-to-run comparison; these
# cells are the same for every seed. The unsatisfiable n = 2 formulas are
# left out: one takes ~6 s (13,700 pivots), as long as the rest of the round,
# and would leave too few repetitions in a run for a steady median.
REAL_LATENT = (
    [_sat_real(1, 2, 1, "NO")] * 6
    + [_sat_real(n, m, k, "YES") for n, m, k in
       ((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2))] * 2
    + [_cell("halfclique", want, n=4, edge_prob=0.6, family="halfclique-real")
       for want in ("YES",) * 6 + ("NO",) * 2]
    + [_cell("cvp", want, n=n, d=2, p=3, family="cvp-real")
       for n, want in ((2, "YES"), (2, "YES"), (2, "YES"), (3, "YES"), (3, "YES"), (3, "YES"),
                       (2, "NO"), (3, "NO"))]
)

CELLS = {
    "binary-large": BINARY_LARGE,
    "roundtrip-small": ROUNDTRIP_SMALL,
    "real-latent": REAL_LATENT,
}

_MAX_DRAWS = 10_000


def _make(workload: str, seed: int, index: int, cell) -> Instance:
    maker, params, want, seeded = cell
    key = f"{workload}:{seed}:{index}" if seeded else f"{workload}:{index}"
    rng = random.Random(key)
    for _ in range(_MAX_DRAWS):
        fields = MAKERS[maker](rng, **params)
        kind = fields["family"].removesuffix("-real")
        expect = None
        if want is not None:
            expect = "YES" if reference.solve(kind, fields["truth"]) else "NO"
            if expect != want:
                continue
        return Instance(
            id=f"{index:03d}.{fields['family']}",
            falsify_seed=rng.getrandbits(32),
            expect=expect,
            **fields,
        )
    raise RuntimeError(f"no {want} instance for cell {cell} after {_MAX_DRAWS} draws")


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances, in the order a round runs them; the same seed gives the same texts."""
    return [_make(workload, seed, i, cell) for i, cell in enumerate(CELLS[workload])]
