import dataclasses
import itertools
import math
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invforge import oracles
from invforge.cli import FAMILIES
from invforge.instances import (
    CnfFormula,
    CvpInstance,
    HalfCliqueQuery,
    VertexCoverQuery,
    gen_random_cvp,
    gen_random_graph,
    gen_random_ksat,
    graph,
    parse_dimacs,
)
from invforge.lp import EQ, GE, LE, LinearProgram, lp_feasible, lp_minimize
from invforge.oracles import (
    CapExceeded,
    CERT_EXHAUSTIVE,
    CERT_FALSIFIER,
    CERT_PATTERN,
    _integerized,
    _scan,
    _scan_dtype,
    branching_units,
    count_sat_assignments,
    decide,
    enumerate_patterns_invert,
    falsify_real,
    invert_binary_bruteforce,
    solve_cvp01_bruteforce,
    solve_halfclique_bruteforce,
    solve_sat_bruteforce,
    solve_vertexcover_bruteforce,
)
from invforge.ratio import pth_power_split
from invforge.reductions import (
    DOMAIN_01,
    DOMAIN_PM1,
    DOMAIN_REAL,
    InversionQuery,
    LatentDomain,
    _pair_rows,
    _stacked_query,
    backward_witness,
    beta_root,
    choose_alpha_halfclique,
    choose_alpha_vc,
    cvp_to_approx_binary,
    cvp_to_approx_real,
    halfclique_to_approx,
    sat_to_exact_binary,
    sat_to_exact_real,
    vertexcover_to_approx,
)
from invforge.relunet import (
    ReluNetwork,
    distance_pow,
    distance_pows,
    float_layers,
    forward,
    forward_float,
    layer,
    preactivations,
)


def identity_query(n, target, theta=Fraction(0), domain=DOMAIN_01, p=1):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    net = ReluNetwork(n, (layer(rows, [0] * n),))
    return InversionQuery(net, tuple(Fraction(t) for t in target), p, theta, LatentDomain(domain, n))


# -- source oracles ---------------------------------------------------------


def test_sat_bruteforce_examples():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    verdict = solve_sat_bruteforce(f)
    assert verdict.is_yes
    assert verdict.witness == (Fraction(0), Fraction(1))  # (F, T) is lex smallest

    contradiction = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert not solve_sat_bruteforce(contradiction).is_yes

    empty = CnfFormula(2, 1, ())
    verdict = solve_sat_bruteforce(empty)
    assert verdict.is_yes
    assert verdict.witness == (Fraction(0), Fraction(0))  # all-false


def test_sat_cap(monkeypatch):
    f = CnfFormula(5, 1, ((1,),))
    monkeypatch.setenv("INVFORGE_CAP", "4")
    with pytest.raises(CapExceeded):
        solve_sat_bruteforce(f)


def test_cvp_bruteforce_examples():
    one = Fraction(1)
    assert solve_cvp01_bruteforce(CvpInstance(((one,),), (Fraction(0),), Fraction(0), 1)).is_yes
    verdict = solve_cvp01_bruteforce(CvpInstance(((one,),), (Fraction(2),), Fraction(1, 2), 1))
    assert not verdict.is_yes  # min distance is 1
    eye = ((one, Fraction(0)), (Fraction(0), one))
    verdict = solve_cvp01_bruteforce(CvpInstance(eye, (one, one), Fraction(0), 2))
    assert verdict.is_yes
    assert verdict.witness == (one, one)


def test_cvp_int64_scan_matches_fraction_loop(monkeypatch):
    """Several chunks per scan, and small entries, so minimizers tie across chunk borders.

    Each instance is scanned through solve_cvp01_bruteforce in the dtype
    its bound picks (float32 within 2^24, else int64) and in object (an
    _INT64_SAFE of -1 forces it), with the same split into chunks. The CVP
    route's query scans the very layer the source oracle builds, so both
    are checked against the Fraction loop, not against each other: the
    route's decision and its backward-mapped witness must be the loop's.
    """
    rng = random.Random(29)
    _scan_only(monkeypatch)  # p = 2 would take the Gram path, tested in test_gram_path_matches_scan_and_naive
    scans = _spy_scans(monkeypatch)
    int64_safe = oracles._INT64_SAFE

    def entry():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

    outcomes = set()
    split_ties = 0
    for _ in range(100):
        chunk = rng.choice((1, 2, 4, 8, 16))
        n, d, p = rng.randint(1, 10), rng.randint(1, 3), rng.randint(1, 3)
        basis = tuple(tuple(entry() for _ in range(n)) for _ in range(d))
        inst = CvpInstance(basis, tuple(entry() for _ in range(d)), entry() + 2, p)
        distances = [_cvp_distance(inst, i) for i in range(1 << n)]
        best = min(distances)
        index = distances.index(best)
        lam = math.lcm(*(v.denominator for row in basis for v in row + inst.target))
        verdicts = []
        exact = _dtype_of(_proved_bound([_stacked_layer(basis, inst.target, lam)], [0] * 2 * d, p))
        assert exact is not object
        for dtype, elements, safe in ((exact, chunk, int64_safe), (object, 8 * chunk, -1)):
            monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", elements)
            monkeypatch.setattr(oracles, "_INT64_SAFE", safe)
            verdicts.append(solve_cvp01_bruteforce(inst).to_dict())
            assert scans.pop() == (dtype, (best * lam**p, index))
            artifact = cvp_to_approx_binary(inst)
            route = invert_binary_bruteforce(artifact.query)
            assert scans.pop() == (dtype, (best * lam**p, index))
            assert route.is_yes == (best <= inst.radius**p)
            if route.is_yes:
                assert backward_witness(artifact, route.witness) == tuple(map(int, _msb_bits(index, n)))
        assert verdicts[0] == verdicts[1]
        verdict = solve_cvp01_bruteforce(inst)
        assert verdict.is_yes == (best <= inst.radius**p)
        assert verdict.witness == (_msb_bits(index, n) if verdict.is_yes else None)
        assert verdict.stats.latents_enumerated == 1 << n
        outcomes.add(verdict.is_yes)
        ties = [i for i, v in enumerate(distances) if v == best]
        split_ties += ties[-1] - index >= 16  # 16 apart: never in one chunk
    assert outcomes == {True, False}
    assert split_ties >= 10


def _cvp_distance(inst, index):
    """sum_r |(B y)_r - t_r|^p for the coefficient vector y with this msb-first index."""
    y = _msb_bits(index, inst.num_vectors)
    rows = zip(inst.basis, inst.target)
    residuals = (sum((c for c, b in zip(row, y) if b), -t) for row, t in rows)
    return sum((abs(r) ** inst.p for r in residuals), Fraction(0))


def _stacked_layer(basis, target, lam=1):
    """The layer solve_cvp01_bruteforce scans, entries scaled by lam: weights [B; -B], bias [-t; t]."""
    rows = [[int(v * lam) for v in row] for row in basis]
    shifts = [int(t * lam) for t in target]
    return rows + [[-v for v in row] for row in rows], [-t for t in shifts] + shifts


def _spy_scans(monkeypatch):
    """Record (dtype, (min, first minimizer)) for every call to the binary scan."""
    scans = []
    scan = oracles._scan

    def spy(*args):
        result = scan(*args)
        scans.append((args[-1], result))
        return result

    monkeypatch.setattr(oracles, "_scan", spy)
    return scans


def _scan_only(monkeypatch):
    """Turn the Gram path off, so that every binary verdict comes from _scan."""
    _gram_toggle(monkeypatch)[0] = False


def _spy_grams(monkeypatch):
    """Record (dtype, (min, first minimizer)) for every call to the Gram path."""
    grams = []
    gram_scan = oracles._gram_scan

    def spy(*args):
        result = gram_scan(*args)
        grams.append((args[-1], result))
        return result

    monkeypatch.setattr(oracles, "_gram_scan", spy)
    return grams


def test_cvp_bruteforce_fallback_beyond_int64(monkeypatch):
    """Entries near 2^62 overflow the int64 bound, so the object scan decides."""
    scans = _spy_scans(monkeypatch)
    big = 1 << 62
    basis = (
        (Fraction(big), Fraction(big - 3), Fraction(-big, 3)),
        (Fraction(1), Fraction(big + 1), Fraction(2)),
    )
    target = (Fraction(2 * big - 3), Fraction(big + 3))
    inst = CvpInstance(basis, target, Fraction(1), 1)
    verdict = solve_cvp01_bruteforce(inst)
    distances = [_cvp_distance(inst, i) for i in range(8)]
    assert min(distances) == 1 and distances.index(1) == 0b110  # y = (1, 1, 0)
    assert verdict.witness == _msb_bits(0b110, 3)
    assert not solve_cvp01_bruteforce(CvpInstance(basis, target, Fraction(1, 2), 1)).is_yes
    assert [dtype for dtype, _ in scans] == [object, object]


def test_cvp_bruteforce_band_takes_object(monkeypatch):
    """Two basis scales c, 8 apart, straddle the int64 edge of the stacked [B; -B] layer.

    With target 0, each of the 2d stacked units adds the cube of its ReLU
    bound U to the per-unit distance bound, which is the peak here: it fits
    int64 at the first c, which scans in int64, and not at the second,
    which takes object. Both keep the minimum 2 at y = (1, 0, 1).
    """
    scans = _spy_scans(monkeypatch)
    for c, dtype in ((3_123_256, np.int64), (3_123_264, object)):
        basis = ((Fraction(c // 2), Fraction(c // 4), Fraction(-c // 8)), (Fraction(5), Fraction(-7), Fraction(c // 2)))
        target = (Fraction(c // 2 - c // 8 + 1), Fraction(c // 2 + 4))
        bound = _proved_bound([_stacked_layer(basis, target)], [0] * 4, 3)
        assert (bound > oracles._INT64_SAFE) == (dtype is object)
        distances = [_cvp_distance(CvpInstance(basis, target, Fraction(0), 3), i) for i in range(8)]
        assert min(distances) == 2 and distances.index(2) == 0b101
        for radius, decision in ((1, "NO"), (2, "YES")):
            verdict = solve_cvp01_bruteforce(CvpInstance(basis, target, Fraction(radius), 3))
            assert verdict.decision == decision
            assert verdict.witness == (_msb_bits(0b101, 3) if radius == 2 else None)
        assert scans == [(dtype, (2, 0b101))] * 2
        scans.clear()
    assert bound - oracles._INT64_SAFE < 1 << 46  # just past the edge


def test_halfclique_bruteforce_examples():
    cycle = graph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
    assert solve_halfclique_bruteforce(HalfCliqueQuery(cycle, Fraction(2)), 2).is_yes
    assert not solve_halfclique_bruteforce(HalfCliqueQuery(cycle, Fraction(1, 2)), 2).is_yes
    edgeless = graph(4, [])
    assert not solve_halfclique_bruteforce(HalfCliqueQuery(edgeless, Fraction(5)), 2).is_yes


def test_vertexcover_bruteforce_examples():
    triangle = graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    assert not solve_vertexcover_bruteforce(VertexCoverQuery(triangle, 1)).is_yes
    assert solve_vertexcover_bruteforce(VertexCoverQuery(triangle, 2)).is_yes
    edgeless = graph(3, [])
    assert solve_vertexcover_bruteforce(VertexCoverQuery(edgeless, 0)).is_yes


def _msb_bits(index, n):
    return tuple(Fraction((index >> (n - 1 - i)) & 1) for i in range(n))


def _naive_sat_models(formula):
    """Every model's index (variable 1 most significant), by direct clause evaluation."""
    n = formula.num_vars
    models = []
    for index in range(1 << n):
        value = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        if all(any(value[abs(l) - 1] == (l > 0) for l in c) for c in formula.clauses):
            models.append(index)
    return models


def test_sat_chunks_match_loop_reference(monkeypatch):
    monkeypatch.setattr(oracles, "_SAT_CHUNK_BITS", 3)  # several chunks from n = 4 on
    rng = random.Random(17)
    outcomes = set()
    for t in range(80):
        n = rng.randint(1, 8)
        k = rng.randint(1, min(3, n))
        formula = gen_random_ksat(n, rng.randint(0, 5 * n), k, seed=t)
        models = _naive_sat_models(formula)
        outcomes.add(bool(models))
        assert count_sat_assignments(formula) == (len(models), 1 << n)
        first = solve_sat_bruteforce(formula)
        if models:
            assert first.witness == _msb_bits(models[0], n)
            assert first.stats.latents_enumerated == models[0] + 1
        else:
            assert not first.is_yes
            assert first.stats.latents_enumerated == 1 << n
    assert outcomes == {True, False}


def test_sat_edge_cases_match_loop_reference(monkeypatch):
    """Truth tables narrower than a byte (n = 1-3) against a plain loop, at every chunk split.

    The formulas have no clauses, unit clauses, repeated literals and
    tautological clauses (x or not x), alone and mixed at random. CnfFormula
    refuses a repeated variable, so each formula is a bare record of
    num_vars and clauses, which is all the oracle reads.
    """
    rng = random.Random(23)
    cases = []
    for n in (1, 2, 3):
        lits = [v for v in range(-n, n + 1) if v]
        cases.append((n, ()))
        cases += [(n, ((a,), (b,))) for a in lits for b in lits]  # units, x and not x among them
        cases += [(n, ((a, a), (b, -b, a))) for a in lits for b in range(1, n + 1)]
        cases += [(n, tuple(tuple(rng.choices(lits, k=rng.randint(1, 4))) for _ in range(rng.randint(1, 5))))
                  for _ in range(40)]
    outcomes = set()
    for chunk_bits in (oracles._SAT_CHUNK_BITS, 2, 1, 0):
        monkeypatch.setattr(oracles, "_SAT_CHUNK_BITS", chunk_bits)
        for n, clauses in cases:
            formula = types.SimpleNamespace(num_vars=n, clauses=clauses)
            models = _naive_sat_models(formula)
            outcomes.add(bool(models))
            assert count_sat_assignments(formula) == (len(models), 1 << n)
            verdict = solve_sat_bruteforce(formula)
            if models:
                assert verdict.witness == _msb_bits(models[0], n)
                assert verdict.stats.latents_enumerated == models[0] + 1
            else:
                assert not verdict.is_yes and verdict.stats.latents_enumerated == 1 << n
    assert outcomes == {True, False}


def _naive_subset(n, size, accept):
    """(witness, subsets checked): ascending indicators with `size` ones until one is accepted."""
    checked = 0
    for index in range(1 << n):
        bits = _msb_bits(index, n)
        if sum(bits) != size:
            continue
        checked += 1
        if accept({i + 1 for i, b in enumerate(bits) if b}):
            return bits, checked
    return None, checked


def test_subset_oracles_match_loop_reference():
    rng = random.Random(23)
    outcomes = set()
    for t in range(60):
        n = rng.choice((2, 4, 6, 8))
        g = gen_random_graph(n, rng.choice((0.0, 0.4, 0.8, 1.0)), seed=t, denom_max=2)
        roots = g.root_weights()
        bound = Fraction(rng.randint(0, 60), rng.randint(1, 3))

        def light_clique(chosen):
            pairs = list(itertools.combinations(sorted(chosen), 2))
            if not all(pair in roots for pair in pairs):
                return False
            return sum((roots[pair] ** 2 for pair in pairs), Fraction(0)) < bound

        def covers(chosen):
            return all(i in chosen or j in chosen for i, j, _ in g.edges)

        size = rng.randint(0, n)
        halfclique = solve_halfclique_bruteforce(HalfCliqueQuery(g, bound), 2)
        cover = solve_vertexcover_bruteforce(VertexCoverQuery(g, size))
        for kind, verdict, (witness, checked) in (
            ("halfclique", halfclique, _naive_subset(n, n // 2, light_clique)),
            ("vertexcover", cover, _naive_subset(n, size, covers)),
        ):
            assert verdict.witness == witness
            assert verdict.is_yes == (witness is not None)
            assert verdict.stats.latents_enumerated == checked
            outcomes.add((kind, verdict.is_yes))
    assert len(outcomes) == 4  # YES and NO from both oracles


# -- binary inversion --------------------------------------------------------


def test_invert_binary_direct_hit():
    verdict = invert_binary_bruteforce(identity_query(2, (1, 0)))
    assert verdict.is_yes
    assert verdict.witness == (Fraction(1), Fraction(0))


def test_invert_binary_on_sat_artifacts():
    sat = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert invert_binary_bruteforce(sat_to_exact_binary(sat).query).is_yes
    unsat = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert not invert_binary_bruteforce(sat_to_exact_binary(unsat).query).is_yes


def test_invert_binary_rejects_real_domain():
    q = identity_query(2, (1, 0), domain=DOMAIN_REAL)
    with pytest.raises(ValueError):
        invert_binary_bruteforce(q)


def test_invert_binary_cap(monkeypatch):
    monkeypatch.setenv("INVFORGE_CAP", "4")
    with pytest.raises(CapExceeded):
        invert_binary_bruteforce(identity_query(8, (0,) * 8))


def _naive_invert(query):
    """Independent reference: plain Fraction scan of the whole domain."""
    n = query.domain.dim
    values = (Fraction(-1), Fraction(1)) if query.domain.kind == DOMAIN_PM1 else (
        Fraction(0),
        Fraction(1),
    )
    best = None
    best_z = None
    for index in range(1 << n):
        z = tuple(values[(index >> (n - 1 - i)) & 1] for i in range(n))
        d = distance_pow(forward(query.network, z), query.target, query.p).value
        if best is None or d < best:
            best, best_z = d, z
    return (best <= query.threshold_pow), best, best_z


def test_invert_binary_matches_naive_reference():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 4)
        depth = rng.randint(1, 4)
        layers = []
        fan_in = n
        for _ in range(depth):
            fan_out = rng.randint(1, 4)
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(fan_in)]
                for _ in range(fan_out)
            ]
            bias = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(fan_out)]
            layers.append(layer(rows, bias))
            fan_in = fan_out
        net = ReluNetwork(n, tuple(layers))
        kind = rng.choice((DOMAIN_01, DOMAIN_PM1))
        p = rng.choice((1, 2, 3))
        target = tuple(Fraction(rng.randint(-3, 3)) for _ in range(net.output_dim))
        theta = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        query = InversionQuery(net, target, p, theta, LatentDomain(kind, n))
        expect_yes, best, best_z = _naive_invert(query)
        verdict = invert_binary_bruteforce(query)
        assert verdict.is_yes == expect_yes
        if verdict.is_yes:
            assert verdict.witness == best_z  # lex-smallest minimizer
            d = distance_pow(forward(net, verdict.witness), target, p)
            assert d.value == best


def _all_distances(layers, target, p, n, pm1):
    """Every latent's integer distance, in index order, by plain Python evaluation."""
    out = []
    for index in range(1 << n):
        acts = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        if pm1:
            acts = [2 * a - 1 for a in acts]
        for rows, bias in layers:
            acts = [
                max(sum(w * a for w, a in zip(row, acts)) + b, 0) for row, b in zip(rows, bias)
            ]
        out.append(sum(abs(a - t) ** p for a, t in zip(acts, target)))
    return out


def _sparse_rows(rng, fan_out, n, hi):
    """Rows whose weights sit on the high bits only, the low bits only, both, or neither."""
    rows = []
    for _ in range(fan_out):
        kind = rng.choice(("high", "low", "both", "both", "none"))
        support = set()
        if kind in ("high", "both") and hi:
            support |= set(rng.sample(range(hi), min(hi, rng.choice((1, 2, 2, 3, hi)))))
        if kind in ("low", "both") and hi < n:
            support |= set(rng.sample(range(hi, n), rng.randint(1, n - hi)))
        rows.append([rng.choice((-2, -1, 1, 2)) if i in support else 0 for i in range(n)])
    return rows


def _sparse(layers):
    """Dense (rows, bias) layers in the scan's format: each row's nonzero weights as (column, weight)."""
    return [([[(j, w) for j, w in enumerate(row) if w] for row in rows], list(bias)) for rows, bias in layers]


def _dense(layers, n):
    """The scan's sparse layers as dense (rows, bias) lists, layer 0 over n latents."""
    out = []
    for rows, bias in layers:
        out.append(([[dict(row).get(j, 0) for j in range(n)] for row in rows], list(bias)))
        n = len(bias)
    return out


def _fold_pm1(layers):
    """Layer 0 over {0,1} bits y of a query over {-1,1} bits z = 2y - 1: weights 2W, bias b - W 1."""
    (rows, bias), rest = layers[0], layers[1:]
    return [([[2 * w for w in r] for r in rows], [b - sum(r) for r, b in zip(rows, bias)])] + rest


def _ulp_low_power(power):
    """np.power whose float results come out one ulp low, as an inexact libm pow may."""

    def inexact(x, p, *args, **kwargs):
        out = power(x, p, *args, **kwargs)
        if isinstance(out, np.ndarray) and out.dtype.kind == "f":
            np.nextafter(out, -np.inf, out=out)
        return out

    return inexact


def _spy_groups(monkeypatch):
    """Record (hi, the grouping) of every scan's layer-0 units."""
    plans = []
    unit_groups = oracles._unit_groups

    def spy(cols, hi, room, vector):
        plans.append((hi, unit_groups(cols, hi, room, vector)))
        return plans[-1][1]

    monkeypatch.setattr(oracles, "_unit_groups", spy)
    return plans


def test_scan_int64_chunks_match_bigint(monkeypatch):
    """Many chunks per scan, and small weights, so minimizers tie across chunk borders.

    Each case is scanned in float32 where its bound allows, in int64 and in
    object, with the same split into chunks. The second half uses sparse
    layer-0 rows and chunks of several sizes, so that every kind of unit
    group occurs at depth 1 and at depth 2: the S = {} group, tabulated
    groups with |S| = 1 and with |S| >= 2, units evaluated per chunk, and
    high-only (or constant) units. np.power gives float results one ulp low
    here, so a float scan that called it would fail. The scan takes {0,1}
    bits; a {-1,1} case scans its folded layers against the reference's own
    {-1,1} evaluation of the unfolded ones.
    """
    monkeypatch.setattr(np, "power", _ulp_low_power(np.power))
    plans = _spy_groups(monkeypatch)
    rng = random.Random(41)
    split_ties = 0
    names = ("S={}", "|S|=1", "|S|>=2", "per-chunk", "high")
    kinds = {depth: dict.fromkeys(names, 0) for depth in (1, 2)}
    dtypes_run = {np.float32: 0, np.int64: 0}
    for case in range(250):
        sparse = case >= 100
        n = rng.randint(5, 10)
        depth = rng.randint(1, 2)
        # a sparse case's layer 1 is narrow, so a group's vectors are short
        widths = [rng.randint(3, 8), rng.randint(1, 2)] if sparse else [rng.randint(1, 4) for _ in range(2)]
        widths = widths[:depth]
        # at most 16 rows per chunk, so every n >= 5 takes two or more chunks; a
        # sparse case's chunk holds 1 to 8 rows and leaves room for some groups' vectors
        if sparse:
            rows = rng.choice((1, 2, 4, 8))
            chunk = rows * (4 * max(widths) - rng.randint(1, max(widths)))
        else:
            chunk = rng.choice((1, 2, 4, 8, 16))
        monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", chunk)
        hi = n - oracles._low_bits(n, max(widths), np.int64)
        layers = []
        fan_in = n
        for fan_out in widths:
            if sparse and fan_in == n:
                rows = _sparse_rows(rng, fan_out, n, hi)
            else:
                rows = [[rng.randint(-2, 2) for _ in range(fan_in)] for _ in range(fan_out)]
            layers.append((rows, [rng.randint(-2, 2) for _ in range(fan_out)]))
            fan_in = fan_out
        target = [rng.randint(-2, 2) for _ in range(fan_in)]
        p = rng.choice((1, 2, 3))
        pm1 = rng.random() < 0.5
        values = _all_distances(layers, target, p, n, pm1)
        if pm1:
            layers = _fold_pm1(layers)
        best = min(values)
        sparse = _sparse(layers)
        exact = _scan_dtype(sparse, target, p)
        assert exact in (np.float32, np.int64)
        assert exact is _dtype_of(_proved_bound(layers, target, p))
        assert _WIDTHS.index(exact) <= _WIDTHS.index(_dtype_of(_layer_rule_bound(layers, target, p)))
        for dtype in (np.float32, np.int64) if exact is np.float32 else (np.int64,):
            assert _scan(sparse, target, p, n, dtype) == (best, values.index(best))
            assert plans[-1][0] == hi
            dtypes_run[dtype] += 1
        monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", 8 * chunk)
        assert n - oracles._low_bits(n, max(widths), object) == hi
        assert _scan(sparse, target, p, n, object) == (best, values.index(best))
        ties = [i for i, v in enumerate(values) if v == best]
        split_ties += ties[-1] - ties[0] >= 16  # 16 apart: never in one chunk
        tabulated, per_chunk, high = plans[-1][1]
        if hi:
            supports = {len(support) for support, _ in tabulated}
            kinds[depth]["S={}"] += 0 in supports
            kinds[depth]["|S|=1"] += 1 in supports
            kinds[depth]["|S|>=2"] += max(supports, default=0) >= 2
            kinds[depth]["per-chunk"] += len(per_chunk) > 0
            kinds[depth]["high"] += len(high) > 0
    assert split_ties >= 25
    assert min(dtypes_run.values()) >= 100
    assert min(min(count.values()) for count in kinds.values()) >= 10  # each kind at both depths


def test_scan_of_three_and_four_layers_matches_reference(monkeypatch):
    """Depth 3 and 4, so every chunk runs the layers after layer 1, each with its bias.

    Nonzero targets, both domains and chunks of 1 to 512 elements, each case
    scanned in every dtype from the narrowest its bound allows up to object.
    """
    rng = random.Random(43)
    dtypes_run = dict.fromkeys(_WIDTHS, 0)
    for _ in range(60):
        n = rng.randint(3, 8)
        layers, fan_in = [], n
        for _ in range(rng.randint(3, 4)):
            fan_out = rng.randint(1, 4)
            rows = [[rng.randint(-2, 2) for _ in range(fan_in)] for _ in range(fan_out)]
            layers.append((rows, [rng.randint(-2, 2) for _ in range(fan_out)]))
            fan_in = fan_out
        target = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(fan_in)]
        p = rng.choice((1, 2, 3))
        pm1 = rng.random() < 0.5
        values = _all_distances(layers, target, p, n, pm1)
        sparse = _sparse(_fold_pm1(layers) if pm1 else layers)
        exact = _scan_dtype(sparse, target, p)
        for dtype in _WIDTHS[_WIDTHS.index(exact):]:
            monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", rng.choice((1, 8, 64, 512)))
            assert _scan(sparse, target, p, n, dtype) == (min(values), values.index(min(values)))
            dtypes_run[dtype] += 1
    assert min(dtypes_run.values()) >= 20


def _proved_bound(layers, target, p):
    """The per-unit rule's peak, by plain loops: the rule _scan_dtype computes with C-level sums.

    Row r of a layer whose inputs are bounded by u (1 for the bits) is
    bounded by M_r = sum |w_rj| u_j + |b_r|, and its ReLU output by
    U_r = max(1, sum max(w_rj, 0) u_j + b_r), the next layer's u. The
    distance is bounded by sum_r max(|U_r - t_r|, |t_r|)^p.
    """
    u, bounds = None, [1]
    for rows, bias in layers:
        ins = [1] * len(rows[0]) if u is None else u
        bounds += [sum(abs(w) * x for w, x in zip(row, ins)) + abs(b) for row, b in zip(rows, bias)]
        u = [max(1, sum(max(w, 0) * x for w, x in zip(row, ins)) + b) for row, b in zip(rows, bias)]
    return max(bounds + [sum(max(abs(v - t), abs(t)) ** p for v, t in zip(u, target))])


def _layer_rule_bound(layers, target, p):
    """The rule per-unit bounds replaced: one bound per layer, from inputs in [0, 1], or the distance bound."""
    bound, bounds = 1, []
    for rows, bias in layers:
        bound = max(sum(map(abs, row)) * bound + abs(b) for row, b in zip(rows, bias))
        bounds.append(bound)
    return max(bounds + [len(target) * (bound + max(map(abs, target))) ** p])


_WIDTHS = (np.float32, np.int64, object)


def _dtype_of(bound):
    """The dtype a proved bound picks: float32 within 2^24, int64 within 2^63 - 1, else object."""
    return _WIDTHS[(bound > 1 << 24) + (bound > (1 << 63) - 1)]


def test_scan_dtype_edge_at_2_24(monkeypatch):
    """A bound of exactly 2^24 takes float32, and 2^24 + 1 takes int64.

    One unit over five {0,1} latents, weights (-16, 8, -4, 2, -1), bias b,
    target -t and p = 1: the row bound is M = 31 + |b|, the ReLU bound is
    U = 10 + b and the distance bound U + t. The distances b + t + (the
    weighted bit sum) are 32 distinct integers from b + t - 21, at 10101,
    to b + t + 10, at 01010. With t = 5 the row bound sits on the edge;
    with t = 100 the distance bound does, and the largest distance is it.
    """
    scans = _spy_scans(monkeypatch)
    weights = [-16, 8, -4, 2, -1]
    for t, (bound, dtype) in itertools.product((5, 100), ((1 << 24, np.float32), ((1 << 24) + 1, np.int64))):
        b = bound - max(31, 10 + t)
        layers = [([weights], [b])]
        assert _proved_bound(layers, [-t], 1) == bound
        assert max(31 + b, 10 + b + t) == bound
        assert _scan_dtype(_sparse(layers), [-t], 1) is dtype
        values = _all_distances(layers, [-t], 1, 5, False)
        assert sorted(values) == list(range(b + t - 21, b + t + 11))
        assert (max(values) == bound) == (t == 100)
        best = (b + t - 21, 0b10101)
        assert values[0b10101] == best[0]
        net = ReluNetwork(5, (layer(*layers[0]),))
        for chunk in (8, oracles._CHUNK_ELEMENTS):  # eight chunks, then one
            monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", chunk)
            for theta in (best[0] - 1, best[0]):
                query = InversionQuery(net, (Fraction(-t),), 1, Fraction(theta), LatentDomain(DOMAIN_01, 5))
                expect_yes, naive_best, best_z = _naive_invert(query)
                assert naive_best == best[0]
                verdict = invert_binary_bruteforce(query)
                assert scans.pop() == (dtype, best)
                assert verdict.is_yes == expect_yes == (theta == best[0])
                assert verdict.witness == (best_z if expect_yes else None)


def test_per_unit_dtype_is_never_wider_and_its_narrower_scans_are_exact(monkeypatch):
    """Where the per-unit bound picks a narrower dtype than the layer rule, the scan stays exact.

    Entries sit at a power-of-two scale drawn so that the bounds land near
    2^24 or near 2^63, on rows with about 40% zeros. No draw's dtype is
    wider than the layer rule's. Each strictly narrower draw is scanned in
    its dtype and in object, at a chunk of 4 elements and at the default,
    and all must give the reference minimum and its first minimizer.
    """
    rng = random.Random(59)
    narrower = {np.float32: 0, np.int64: 0}
    for _ in range(240):
        n, p, depth = rng.randint(3, 7), rng.choice((1, 2, 3)), rng.randint(1, 2)
        e = max(0, rng.choice((24, 63)) // (p * depth) - rng.randint(1, 4))
        fan_in, layers = n, []
        for fan_out in [rng.randint(2, 5) for _ in range(depth)]:
            rows = [[rng.randint(-3, 3) << e if rng.random() < 0.6 else 0 for _ in range(fan_in)]
                    for _ in range(fan_out)]
            layers.append((rows, [rng.randint(-3, 3) << e for _ in range(fan_out)]))
            fan_in = fan_out
        target = [rng.randint(-3, 3) << (e * depth) for _ in range(fan_in)]
        sparse = _sparse(layers)
        exact = _scan_dtype(sparse, target, p)
        layer_rule = _dtype_of(_layer_rule_bound(layers, target, p))
        assert exact is _dtype_of(_proved_bound(layers, target, p))
        assert _WIDTHS.index(exact) <= _WIDTHS.index(layer_rule)
        if exact is layer_rule:
            continue
        narrower[exact] += 1
        values = _all_distances(layers, target, p, n, False)
        best = (min(values), values.index(min(values)))
        for chunk in (4, oracles._CHUNK_ELEMENTS):
            monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", chunk)
            assert _scan(sparse, target, p, n, exact) == best
            assert _scan(sparse, target, p, n, object) == best
        monkeypatch.undo()
    assert min(narrower.values()) >= 25  # float32 where the layer rule took int64, int64 where object


def _halfclique_bounds(g, p, copies):
    """Two half-clique bounds of the kinds binary-large draws.

    The tie-free one nearest (total + 1) / 2, an odd numerator over 2D * 67,
    and the nearest one whose non-edge penalty splits into `copies` row pairs.
    """
    denom, total = 1, sum((root**p for _, _, root in g.edges), Fraction(0))
    for _, _, root in g.edges:
        denom = math.lcm(denom, (root**p).denominator)
    numerator = int(denom * (total + 1)) | 1
    while pth_power_split(choose_alpha_halfclique(p, total, Fraction(numerator, 2 * denom)), p)[0] != copies:
        numerator += 2
    return Fraction(int(denom * 67 * (total + 1)) | 1, 2 * denom * 67), Fraction(numerator, 2 * denom)


def _benchmark_graph_artifacts():
    """Half-cliques n = 16, 14, 14 at their middle bound, the last at its six-copy split; a cover n = 16."""
    halfcliques = []
    for n, seed in ((16, 3), (14, 2), (14, 1)):
        g = gen_random_graph(n, 0.8, seed=seed)
        middle, split = _halfclique_bounds(g, 2, 6)
        halfcliques.append(halfclique_to_approx(HalfCliqueQuery(g, middle), 2))
    halfcliques.append(halfclique_to_approx(HalfCliqueQuery(g, split), 2))
    return halfcliques, vertexcover_to_approx(VertexCoverQuery(gen_random_graph(16, 0.5, seed=4), 11), 2)


def test_graph_routes_at_benchmark_sizes_scan_in_float32(monkeypatch):
    """Half-clique (n = 14, 16, edge_prob 0.8, p = 2, one six-copy split) and vertex cover n = 16 scan in float32.

    The layer rule put each of these half-clique scans in int64. The Gram
    path is off, so that _scan decides (see test_graph_routes_at_benchmark_sizes_decide_by_gram).
    """
    halfcliques, cover = _benchmark_graph_artifacts()
    assert [a.constants["alpha_copies"] for a in halfcliques] == [1, 1, 1, 6]
    _scan_only(monkeypatch)
    scans = _spy_scans(monkeypatch)
    for artifact in halfcliques + [cover]:
        layers, target, _, _ = _integerized(artifact.query)
        if artifact is not cover:
            dense = _dense(layers, artifact.query.domain.dim)
            assert _dtype_of(_layer_rule_bound(dense, target, 2)) is np.int64
        invert_binary_bruteforce(artifact.query)
        assert scans.pop()[0] is np.float32


def _pm1_query(layers, target, p, theta):
    n = len(layers[0][0][0])
    net = ReluNetwork(n, tuple(layer(rows, bias) for rows, bias in layers))
    target = tuple(Fraction(t) for t in target)
    return InversionQuery(net, target, p, Fraction(theta), LatentDomain(DOMAIN_PM1, n))


def test_invert_binary_pm1_chunks_match_reference(monkeypatch):
    """{-1,1} queries at several chunk sizes: the folded scan keeps the verdict and the witness.

    Integer weights keep _integerized's scale at 1, so _all_distances' own
    {-1,1} evaluation of the query's layers is the reference distance.
    Every third case draws entries up to 300, so that int64 scans occur.
    """
    scans = _spy_scans(monkeypatch)
    rng = random.Random(43)
    yes = 0
    dtypes = set()
    for case in range(60):
        n = rng.randint(4, 9)
        span = 300 if case % 3 == 0 else 3
        fan_in, layers = n, []
        for fan_out in [rng.randint(1, 5) for _ in range(rng.randint(1, 2))]:
            rows = [[rng.randint(-span, span) for _ in range(fan_in)] for _ in range(fan_out)]
            layers.append((rows, [rng.randint(-span, span) for _ in range(fan_out)]))
            fan_in = fan_out
        target = [rng.randint(-2, 2) for _ in range(fan_in)]
        p = rng.choice((1, 2, 3))
        values = _all_distances(layers, target, p, n, True)
        best = min(values)
        theta = max(best - rng.randint(0, 1), 0)
        query = _pm1_query(layers, target, p, theta)
        exact = np.float32 if _proved_bound(_fold_pm1(layers), target, p) <= 1 << 24 else np.int64
        for chunk in (4, 16, 64, 1 << 21):
            monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", chunk)
            verdict = invert_binary_bruteforce(query)
            assert verdict.is_yes == (best <= theta)
            if verdict.is_yes:
                bits = _msb_bits(values.index(best), n)
                assert verdict.witness == tuple(2 * b - 1 for b in bits)
            assert scans[-1] == (exact, (best, values.index(best)))
        yes += verdict.is_yes
        dtypes.add(exact)
    assert 15 <= yes <= 45
    assert dtypes == {np.float32, np.int64}


def test_invert_binary_pm1_fold_band_takes_object(monkeypatch):
    """A {-1,1} query whose bound fits int64 unfolded but not folded: the object scan decides.

    Folding onto {0,1} bits doubles the weights and moves b to b - sum w,
    so row 1's bound M = sum |w| + |b| grows from 3c + 7 + k to
    7c + 21 + k, which is 2^63 - 1 + k at c = (2^63 - 1) / 7 - 3. With
    k = 1 it leaves int64 and the object scan decides; with k = 0 it sits
    on the edge, and the int64 scan decides. The distance bound, to target
    (1, 1) at p = 1, is 4c + 7 - k.
    """
    scans = _spy_scans(monkeypatch)
    c = oracles._INT64_SAFE // 7 - 3
    for k, dtype in ((0, np.int64), (1, object)):
        rows = [[c, c, -c], [c - 1, 3, c + 5]]
        layers = [(rows, [2, -c - k])]
        assert _proved_bound(layers, [1, 1], 1) == 3 * c + 7 + k
        assert _proved_bound(_fold_pm1(layers), [1, 1], 1) == oracles._INT64_SAFE + k
        assert _scan_dtype(_sparse(layers), [1, 1], 1) is np.int64
        values = _all_distances(layers, [1, 1], 1, 3, True)
        best = min(values)
        assert best >= 1
        for theta, decision in ((best - 1, "NO"), (best, "YES")):
            verdict = invert_binary_bruteforce(_pm1_query(layers, [1, 1], 1, theta))
            assert verdict.decision == decision
            if verdict.is_yes:
                assert verdict.witness == tuple(2 * b - 1 for b in _msb_bits(values.index(best), 3))
        assert scans == [(dtype, (best, values.index(best)))] * 2
        scans.clear()


def test_invert_binary_bigint_fallback_matches_naive_reference(monkeypatch):
    """Depth-2 queries with ~2^40 weights overflow int64 and take the object scan."""
    scans = _spy_scans(monkeypatch)
    big = 1 << 40
    rng = random.Random(7)
    outcomes = set()
    for t in range(12):
        n = 3
        rows1 = [
            [rng.randint(-3, 3) * big + rng.randint(-2, 2) for _ in range(n)] for _ in range(3)
        ]
        rows2 = [[rng.randint(-3, 3) * big + 1 for _ in range(3)] for _ in range(2)]
        net = ReluNetwork(
            n,
            (
                layer(rows1, [rng.randint(-3, 3) * big for _ in range(3)]),
                layer(rows2, [rng.randint(-3, 3) * big for _ in range(2)]),
            ),
        )
        kind = rng.choice((DOMAIN_01, DOMAIN_PM1))
        p = rng.choice((1, 2))
        target = tuple(Fraction(rng.randint(0, 3) * big * big) for _ in range(2))
        probe = InversionQuery(net, target, p, Fraction(0), LatentDomain(kind, n))
        _, best, _ = _naive_invert(probe)
        theta = best if t % 2 == 0 else max(best - 1, Fraction(0))
        query = InversionQuery(net, target, p, theta, LatentDomain(kind, n))
        layers, int_target, _, _ = _integerized(query)
        assert _scan_dtype(layers, int_target, p) is object
        expect_yes, _, best_z = _naive_invert(query)
        verdict = invert_binary_bruteforce(query)
        assert verdict.is_yes == expect_yes
        assert verdict.witness == (best_z if expect_yes else None)
        outcomes.add(expect_yes)
    assert [dtype for dtype, _ in scans] == [object] * 12
    assert outcomes == {True, False}


def _reference_integerized(query):
    """The layer-by-layer lcm loop that _integerized replaced."""

    def lcm(values):
        out = 1
        for v in values:
            out = out * v // math.gcd(out, v)
        return out

    scale = 1
    layers = []
    for lyr in query.network.layers:
        denoms = [w.denominator for row in lyr.weights for w in row]
        denoms += [b.denominator // math.gcd(b.denominator, scale) for b in lyr.bias]
        lam = lcm(denoms)
        weights = [[w.numerator * (lam // w.denominator) for w in row] for row in lyr.weights]
        scale *= lam
        layers.append((weights, [b.numerator * (scale // b.denominator) for b in lyr.bias]))
    target_lam = lcm([t.denominator // math.gcd(t.denominator, scale) for t in query.target])
    if target_lam != 1:
        weights, bias = layers[-1]
        layers[-1] = (
            [[w * target_lam for w in row] for row in weights],
            [b * target_lam for b in bias],
        )
        scale *= target_lam
    target = [t.numerator * (scale // t.denominator) for t in query.target]
    return layers, target, query.threshold_pow * Fraction(scale) ** query.p, scale


def test_integerized_matches_reference_on_every_family():
    from invforge.cli import FAMILIES

    checked = set()
    for name, fam in FAMILIES.items():
        for p in (fam.default_p, fam.default_p + 2):
            sources = [fam.draw(random.Random(ts), ts, 4, p) for ts in range(8)]
            if fam.boundary is not None:
                sources.append(fam.boundary(0, p))
            for source in sources:
                query = fam.compile(source, p).query
                layers, *rest = _integerized(query)
                assert (_dense(layers, query.domain.dim), *rest) == _reference_integerized(query)
                weights = [w for rows, _ in layers for row in rows for _, w in row]
                assert all(type(v) is int for v in itertools.chain(rest[0], weights, *(b for _, b in layers)))
                assert all(weights)  # the rows list nonzero weights only
                checked.add((name, p))
    assert len(checked) == 2 * len(FAMILIES)


def test_integerized_matches_reference_on_fractional_targets():
    rng = random.Random(17)

    def entry(top):
        return Fraction(rng.randint(-top, top), rng.randint(1, 12))

    folded = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        layers, fan_in = [], n
        for _ in range(rng.randint(1, 4)):
            fan_out = rng.randint(1, 4)
            rows = [[entry(5) for _ in range(fan_in)] for _ in range(fan_out)]
            layers.append(layer(rows, [entry(5) for _ in range(fan_out)]))
            fan_in = fan_out
        net = ReluNetwork(n, tuple(layers))
        target = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 40)) for _ in range(fan_in))
        theta = abs(entry(9))
        query = InversionQuery(net, target, rng.randint(1, 3), theta, LatentDomain(DOMAIN_01, n))
        expected = _reference_integerized(query)
        layers, *rest = _integerized(query)
        assert (_dense(layers, n), *rest) == expected
        unfolded = dataclasses.replace(query, target=(Fraction(0),) * fan_in)
        folded += expected[3] != _reference_integerized(unfolded)[3]
    assert folded > 50


def test_invert_binary_scan_memory_is_bounded():
    """A 16-bit query on a 242-unit layer: chunk arrays stay small whatever the width."""
    g = gen_random_graph(16, 1.0, seed=3)  # complete: 120 edges
    query = vertexcover_to_approx(VertexCoverQuery(g, 11), 2).query
    assert query.domain.dim == 16
    assert query.network.layers[0].fan_out >= 240
    tracemalloc.start()
    try:
        invert_binary_bruteforce(query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 10**6


def test_scan_tabulates_a_layer_whose_table_fills_the_chunk(monkeypatch):
    """63 edges on 16 vertices: a 128-unit cover layer, 2 * 128 * 2^13 entries, the whole float32 chunk.

    No room is left beside a per-chunk table of every unit, yet tabulating a
    group takes its units out of that table. So the groups are tabulated,
    and the peak is one group's table and the vectors, not the 8 MiB table
    of every unit and its buffer.
    """
    rng = random.Random(0)
    pairs = list(itertools.combinations(range(1, 17), 2))
    g = graph(16, [(i, j, 1) for i, j in sorted(rng.sample(pairs, 63))])
    _scan_only(monkeypatch)
    plans = _spy_groups(monkeypatch)
    for size in (10, 11):
        vq = VertexCoverQuery(g, size)
        query = vertexcover_to_approx(vq, 2).query
        width = query.network.width
        assert (width, oracles._low_bits(16, width, np.float32)) == (128, 13)
        assert 2 * width << 13 == oracles._CHUNK_ELEMENTS
        tracemalloc.start()
        try:
            verdict = invert_binary_bruteforce(query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # half the float32 chunk
        assert verdict.is_yes == solve_vertexcover_bruteforce(vq).is_yes == (size == 11)
        hi, (tabulated, per_chunk, _) = plans[-1]
        # every group but the size row's, whose support is all hi = 3 high bits
        assert (hi, len(tabulated), len(per_chunk)) == (3, 4, 2)


def _vertexcover_with_zero_rows(vq, p):
    """The cover query as once compiled: every non-adjacent pair kept an all-zero +/- row pair."""
    n = vq.graph.num_vertices
    edges = {(i, j) for i, j, _ in vq.graph.edges}
    alpha = choose_alpha_vc()
    theta = len(edges) * alpha**p
    beta = Fraction(beta_root(theta, p))
    rows, bias = _pair_rows(n, lambda i, j: [alpha if (i, j) in edges else Fraction(0)], beta, Fraction(n - vq.size))
    return _stacked_query(rows, bias, p, theta, {})


def test_vertexcover_without_zero_rows_keeps_every_answer(monkeypatch):
    """Against the zero-row construction: the same decision, witness and minimum distance.

    Over random graphs with n <= 8 at edge probability 0, 1/2 and 1, every
    cover size and p = 2 and 4. The compiled layer has no all-zero row with
    bias 0, and 2(|E| + 1) rows. The Gram path is off, so that _scan decides
    both (test_vertexcover_gram_path_keeps_every_answer has the Gram path).
    """
    _scan_only(monkeypatch)
    scans = _spy_scans(monkeypatch)
    for n, prob, p in itertools.product(range(1, 9), (0, 0.5, 1), (2, 4)):
        g = gen_random_graph(n, prob, seed=n)
        for size in range(n + 1):
            vq = VertexCoverQuery(g, size)
            query = vertexcover_to_approx(vq, p).query
            reference = _vertexcover_with_zero_rows(vq, p)
            assert query.threshold_pow == reference.threshold_pow
            verdicts = [invert_binary_bruteforce(q).to_dict() for q in (query, reference)]
            assert verdicts[0] == verdicts[1]
            assert scans[-2][1] == scans[-1][1]  # (minimum, first minimizer) at scale 1
            stacked = query.network.layers[0]
            assert query.network.width == 2 * (len(g.edges) + 1)
            assert not any(b == 0 and not any(row) for row, b in zip(stacked.weights, stacked.bias))


def test_invert_binary_sat_scan_memory_is_bounded(monkeypatch):
    """n = 16 4-SAT with 68 clauses and the chunk cut 64-fold: 9 high bits, 7 low.

    The float32 scan's tables and tabulated vectors fit in the chunk's
    element count together, so 3 chunks of float32 bound the peak with room
    for the per-chunk temporaries. At 3/4 of that chunk not every group's
    vectors fit, and the rest are evaluated per chunk. (A 3-SAT formula's
    groups have at most 4 settings, and the table rows they spare pay for
    them at every cut.) Either way the result must be the minimum number of
    violated clauses and its first assignment (variable 1 most significant,
    False < True), counted here clause by clause.
    """
    n = 16
    formula = gen_random_ksat(n, 68, 4, seed=12)
    query = sat_to_exact_binary(formula).query
    index = np.arange(1 << n)
    violated = np.zeros(1 << n, dtype=np.int64)
    for clause in formula.clauses:
        false = np.ones(1 << n, dtype=bool)
        for lit in clause:
            false &= (index >> (n - abs(lit)) & 1) == (lit < 0)
        violated += false
    best = int(violated.min())
    scans = _spy_scans(monkeypatch)
    plans = _spy_groups(monkeypatch)
    chunk = oracles._CHUNK_ELEMENTS >> 6
    for elements in (chunk, chunk * 3 // 4):
        monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", elements)
        tracemalloc.start()
        try:
            verdict = invert_binary_bruteforce(query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * elements * np.dtype(np.float32).itemsize
        assert scans.pop() == (np.float32, (best, int(violated.argmin())))
        assert verdict.is_yes == (best == 0)
    hi, (tabulated, per_chunk, _) = plans[-1]
    low_clauses = [c for c in formula.clauses if any(abs(lit) > hi for lit in c)]
    supports = {frozenset(abs(lit) - 1 for lit in c if abs(lit) <= hi) for c in low_clauses}
    assert (hi, max(map(len, supports))) == (9, 3)  # every group has |S| < hi
    assert len(plans[0][1][0]) == len(supports)
    assert 0 < len(tabulated) < len(supports) and len(per_chunk) > 0


def test_invert_binary_object_scan_memory_is_bounded(monkeypatch):
    """A 12-bit query with ~2^40 weights takes the object scan; its arrays stay chunk-sized.

    The chunk and the bound are both cut 64-fold from the int64 test's, to
    keep the run short: one object table of all 2^12 latents peaks near 4 MB.
    """
    scans = _spy_scans(monkeypatch)
    monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", oracles._CHUNK_ELEMENTS >> 6)
    rng = random.Random(5)
    big = 1 << 40
    n, width = 12, 24

    def rows(fan_out, fan_in):
        return [[rng.randint(-3, 3) * big + rng.randint(-2, 2) for _ in range(fan_in)]
                for _ in range(fan_out)]

    net = ReluNetwork(
        n,
        (
            layer(rows(width, n), [rng.randint(-3, 3) * big for _ in range(width)]),
            layer(rows(4, width), [rng.randint(-3, 3) * big for _ in range(4)]),
        ),
    )
    target = tuple(Fraction(rng.randint(0, 3) * big * big) for _ in range(4))
    query = InversionQuery(net, target, 2, Fraction(0), LatentDomain(DOMAIN_01, n))
    tracemalloc.start()
    try:
        invert_binary_bruteforce(query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [dtype for dtype, _ in scans] == [object]
    assert peak < (64 * 10**6) >> 6


# -- the Gram path of +/- stacked p = 2 queries ------------------------------


def _gram_toggle(monkeypatch):
    """A switch for the Gram path: set on[0] = False to send every query to _scan."""
    on = [True]
    gram_form = oracles._gram_form
    monkeypatch.setattr(oracles, "_gram_form", lambda *args: gram_form(*args) if on[0] else None)
    return on


def _stacked_net(rows, bias, n):
    """One layer [W; -W], [b; -b] over n latents."""
    return ReluNetwork(n, (layer(rows + [[-w for w in r] for r in rows], bias + [-b for b in bias]),))


def test_gram_path_matches_scan_and_naive(monkeypatch):
    """Random +/- stacked p = 2 queries, n = 1..12, both domains: the Gram path, _scan and _naive_invert agree.

    Entries in {-2..2}/{1, 2} make minima tie, so the lex-first witness is
    tested. Each query runs at a chunk of 1, 4 or 64 entries (several
    chunks) or the default one, in int64 and in object (_INT64_SAFE = -1).
    The Gram path must give _scan's (minimum, first minimizer) at the same
    scale, and the same verdict, witness and stats; both must match the
    Fraction reference. The (0,1)-CVP source oracle at p = 2 is checked
    against _scan the same way.
    """
    rng = random.Random(2027)
    on = _gram_toggle(monkeypatch)
    scans, grams = _spy_scans(monkeypatch), _spy_grams(monkeypatch)
    int64_safe = oracles._INT64_SAFE

    def entry():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))

    outcomes, ties, split = set(), 0, 0
    for n in list(range(1, 13)) * 3:
        count = rng.randint(1, 4)
        rows = [[entry() for _ in range(n)] for _ in range(count)]
        bias = [entry() for _ in range(count)]
        kind = rng.choice((DOMAIN_01, DOMAIN_PM1))
        probe = InversionQuery(_stacked_net(rows, bias, n), (Fraction(0),) * 2 * count, 2, Fraction(0),
                               LatentDomain(kind, n))
        _, best, _ = _naive_invert(probe)
        theta = rng.choice((best, best, best + Fraction(1, 2), max(best - Fraction(1, 4), Fraction(0))))
        query = dataclasses.replace(probe, threshold_pow=theta)
        expect_yes, _, best_z = _naive_invert(query)
        chunk = rng.choice((1, 4, 64, oracles._CHUNK_ELEMENTS))
        for safe, dtype in ((int64_safe, np.int64), (-1, object)):
            monkeypatch.setattr(oracles, "_CHUNK_ELEMENTS", chunk)
            monkeypatch.setattr(oracles, "_INT64_SAFE", safe)
            verdicts = {}
            for on[0] in (True, False):
                verdicts[on[0]] = invert_binary_bruteforce(query)
            assert grams.pop() == (dtype, scans.pop()[1])
            assert not grams and not scans
            assert verdicts[True].to_dict() == verdicts[False].to_dict()
            assert verdicts[True].is_yes == expect_yes
            assert verdicts[True].witness == (best_z if expect_yes else None)
            assert verdicts[True].stats.latents_enumerated == 1 << n
        monkeypatch.setattr(oracles, "_INT64_SAFE", int64_safe)
        outcomes.add(expect_yes)
        values = [distance_pow(forward(query.network, z), query.target, 2).value
                  for z in itertools.product(*[(-1, 1) if kind == DOMAIN_PM1 else (0, 1)] * n)]
        minimizers = [i for i, v in enumerate(values) if v == best]
        ties += len(minimizers) > 1
        split += minimizers[-1] - minimizers[0] >= chunk
        if kind == DOMAIN_01:  # the same layer as a (0,1)-CVP instance: basis rows W, target -b
            inst = CvpInstance(tuple(map(tuple, rows)), tuple(-b for b in bias), Fraction(rng.randint(0, 4)), 2)
            cvp = []
            for on[0] in (True, False):
                cvp.append(solve_cvp01_bruteforce(inst).to_dict())
            assert grams.pop()[1] == scans.pop()[1]
            assert cvp[0] == cvp[1]
    assert outcomes == {True, False}
    assert ties >= 10 and split >= 10


def test_gram_routing_table(monkeypatch):
    """Only one layer that mirrors itself, bias included, against target 0 at p = 2 takes the Gram path.

    Every variant still gets the Fraction reference's verdict and witness.
    """
    scans, grams = _spy_scans(monkeypatch), _spy_grams(monkeypatch)
    n = 3
    rows = [[Fraction(1), Fraction(-2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    bias = [Fraction(1), Fraction(-1)]
    stacked = _stacked_net(rows, bias, n)
    weights, biases = [list(r) for r in stacked.layers[0].weights], list(stacked.layers[0].bias)

    def query(net=stacked, target=(0,) * 4, p=2, kind=DOMAIN_01):
        return InversionQuery(net, tuple(map(Fraction, target)), p, Fraction(1), LatentDomain(kind, n))

    unmirrored = [r[:] for r in weights]
    unmirrored[3][2] = Fraction(2)  # row 3 is no longer -row 1
    deep = ReluNetwork(n, (stacked.layers[0], layer([[int(i == j) for j in range(4)] for i in range(4)], [0] * 4)))
    cases = [
        ("mirrored {0,1}", query(), True),
        ("mirrored {-1,1}", query(kind=DOMAIN_PM1), True),
        ("p = 1", query(p=1), False),
        ("p = 3", query(p=3), False),
        ("p = 4", query(p=4), False),
        ("one nonzero target entry", query(target=(0, 0, 1, 0)), False),
        ("one unmirrored row", query(ReluNetwork(n, (layer(unmirrored, biases),))), False),
        ("bias not mirrored", query(ReluNetwork(n, (layer(weights, biases[:3] + [biases[3] + 1]),))), False),
        ("depth 2", query(deep), False),
    ]
    for name, q, gram in cases:
        verdict = invert_binary_bruteforce(q)
        assert (len(grams), len(scans)) == ((1, 0) if gram else (0, 1)), name
        grams.clear(), scans.clear()
        expect_yes, _, best_z = _naive_invert(q)
        assert verdict.is_yes == expect_yes, name
        assert verdict.witness == (best_z if expect_yes else None), name
    basis, target = ((Fraction(1), Fraction(2)),), (Fraction(2),)
    for p in (1, 2, 3):
        solve_cvp01_bruteforce(CvpInstance(basis, target, Fraction(1), p))
        assert (len(grams), len(scans)) == ((1, 0) if p == 2 else (0, 1))
        grams.clear(), scans.clear()


def test_graph_routes_at_benchmark_sizes_decide_by_gram(monkeypatch):
    """The half-cliques and the cover of the float32 test take the Gram path in int64, with _scan's answers."""
    halfcliques, cover = _benchmark_graph_artifacts()
    on = _gram_toggle(monkeypatch)
    scans, grams = _spy_scans(monkeypatch), _spy_grams(monkeypatch)
    for artifact in halfcliques + [cover]:
        verdicts = []
        for on[0] in (True, False):
            verdicts.append(invert_binary_bruteforce(artifact.query).to_dict())
        dtype, best = grams.pop()
        assert dtype is np.int64 and best == scans.pop()[1]
        assert verdicts[0] == verdicts[1]


def test_vertexcover_gram_path_keeps_every_answer(monkeypatch):
    """p = 2 covers by the Gram path, with and without the zero rows: _scan's decision, witness and minimum."""
    on = _gram_toggle(monkeypatch)
    scans, grams = _spy_scans(monkeypatch), _spy_grams(monkeypatch)
    for n, prob in itertools.product(range(1, 9), (0, 0.5, 1)):
        g = gen_random_graph(n, prob, seed=n)
        for size in range(n + 1):
            vq = VertexCoverQuery(g, size)
            for query in (vertexcover_to_approx(vq, 2).query, _vertexcover_with_zero_rows(vq, 2)):
                verdicts = []
                for on[0] in (True, False):
                    verdicts.append(invert_binary_bruteforce(query).to_dict())
                assert verdicts[0] == verdicts[1]
                assert grams.pop()[1] == scans.pop()[1]
            assert grams == [] and scans == []


def test_gram_dtype_edge_at_int64(monkeypatch):
    """int64 up to sum_r M_r^2 = _INT64_SAFE, object past it; at w = 2.5e9 int64 would wrap.

    Rows (w, 0) and (0, w) have sum_r M_r^2 = 2 w^2 = 1.25e19, past 2^63 - 1,
    though every Gram entry fits in int64; z = (1, 1) is at distance 2 w^2.
    """
    w = 2_500_000_000
    rows, bias = [[(0, w)], [(1, w)]], [0, 0]
    monkeypatch.setattr(oracles, "_INT64_SAFE", 2 * w * w)
    assert oracles._gram_dtype(rows, bias) is np.int64
    monkeypatch.setattr(oracles, "_INT64_SAFE", 2 * w * w - 1)
    assert oracles._gram_dtype(rows, bias) is object
    monkeypatch.undo()
    assert oracles._gram_dtype(rows, bias) is object
    net = _stacked_net([[Fraction(w), Fraction(0)], [Fraction(0), Fraction(w)]], [Fraction(0)] * 2, 2)
    query = InversionQuery(net, (Fraction(0),) * 4, 2, Fraction(w * w), LatentDomain(DOMAIN_01, 2))
    verdict = invert_binary_bruteforce(query)
    assert verdict.witness == (Fraction(0), Fraction(0))
    far = dataclasses.replace(query, domain=LatentDomain(DOMAIN_PM1, 2))  # every corner at 2 w^2
    assert not invert_binary_bruteforce(far).is_yes
    assert invert_binary_bruteforce(dataclasses.replace(far, threshold_pow=Fraction(2 * w * w))).witness == (-1, -1)


def test_gram_memory_stays_within_the_chunk(monkeypatch):
    """A cover query with n = 22 holds one int64 table of 2^21 entries, one chunk's bytes, and runs two chunks.

    The 63-edge graph on 16 vertices of test_scan_tabulates_a_layer_whose_table_fills_the_chunk
    takes the Gram path in 2^16 entries, far within half the chunk.
    """
    grams = _spy_grams(monkeypatch)
    monkeypatch.setenv("INVFORGE_CAP", "22")
    budget = 8 * oracles._CHUNK_ELEMENTS  # bytes of one int64 chunk
    vq = VertexCoverQuery(gen_random_graph(22, 0.2, seed=7), 15)
    tracemalloc.start()
    try:
        verdict = invert_binary_bruteforce(vertexcover_to_approx(vq, 2).query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [dtype for dtype, _ in grams] == [np.int64]
    assert budget <= peak < budget + 2**20
    assert verdict.is_yes == solve_vertexcover_bruteforce(vq).is_yes
    rng = random.Random(0)
    pairs = list(itertools.combinations(range(1, 17), 2))
    g = graph(16, [(i, j, 1) for i, j in sorted(rng.sample(pairs, 63))])
    for size in (10, 11):
        vq = VertexCoverQuery(g, size)
        tracemalloc.start()
        try:
            verdict = invert_binary_bruteforce(vertexcover_to_approx(vq, 2).query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # half the float32 chunk
        assert verdict.is_yes == solve_vertexcover_bruteforce(vq).is_yes == (size == 11)


# -- pattern enumeration -----------------------------------------------------


def test_patterns_identity_exact():
    q = identity_query(2, (2, 3), domain=DOMAIN_REAL)
    verdict = enumerate_patterns_invert(q)
    assert verdict.is_yes
    assert forward(q.network, verdict.witness) == (Fraction(2), Fraction(3))


def test_patterns_on_real_sat_artifact():
    art = sat_to_exact_real(parse_dimacs("p cnf 1 1\n1 0\n"))
    verdict = enumerate_patterns_invert(art.query)
    assert verdict.is_yes
    assert verdict.witness[0] >= 1


def test_patterns_thresholded_needs_p1():
    q = identity_query(1, (2,), theta=Fraction(1), domain=DOMAIN_REAL, p=2)
    with pytest.raises(ValueError):
        enumerate_patterns_invert(q)


def test_patterns_thresholded_p1():
    # range of ReLU(z) on 1 unit is [0, inf); distance to -2 is at least 2
    rows = [[1]]
    net = ReluNetwork(1, (layer(rows, [0]),))
    q = InversionQuery(net, (Fraction(-2),), 1, Fraction(1), LatentDomain(DOMAIN_REAL, 1))
    assert not enumerate_patterns_invert(q).is_yes
    q2 = InversionQuery(net, (Fraction(-2),), 1, Fraction(2), LatentDomain(DOMAIN_REAL, 1))
    assert enumerate_patterns_invert(q2).is_yes


def test_patterns_cap(monkeypatch):
    art = sat_to_exact_real(parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n"))
    monkeypatch.setenv("INVFORGE_CAP", "5")
    with pytest.raises(CapExceeded):
        enumerate_patterns_invert(art.query)


def _identity_affine(n: int) -> list:
    return [(tuple(Fraction(int(j == i)) for j in range(n)), Fraction(0)) for i in range(n)]


def _affine_step(lyr, affine, n: int) -> list:
    """The layer's pre-activations as (coeffs, const) rows of Fractions over the n latents.

    `affine` gives the layer's inputs the same way, one row per input.
    """
    pre = []
    for row, b in zip(lyr.weights, lyr.bias):
        coeffs = [Fraction(0)] * n
        const = b
        for w, (acoeffs, aconst) in zip(row, affine):
            if w != 0:
                const += w * aconst
                for j in range(n):
                    coeffs[j] += w * acoeffs[j]
        pre.append((tuple(coeffs), const))
    return pre


def _reference_patterns(query):
    """Witness of the full-mask DFS: every layer, the output layer too, tries
    all 2^fan_out masks in order and checks each prefix for feasibility."""
    net, n = query.network, query.network.input_dim
    zero_row = ((Fraction(0),) * n, Fraction(0))

    def leaf(constraints, affine):
        if query.threshold_pow == 0:
            lp = LinearProgram(n)
            lp.constraints.extend(constraints)
            for (coeffs, const), x in zip(affine, query.target):
                lp.constrain(coeffs, EQ, x - const)
            return lp_feasible(lp)
        out_dim = len(affine)
        lp = LinearProgram(n + out_dim)
        for con in constraints:
            lp.constrain(con.coeffs + (0,) * out_dim, con.relation, con.rhs)
        for k, ((coeffs, const), x) in enumerate(zip(affine, query.target)):
            err = tuple(1 if j == n + k else 0 for j in range(n + out_dim))
            row = tuple(coeffs) + (0,) * out_dim
            lp.constrain([e - c for e, c in zip(err, row)], GE, const - x)
            lp.constrain([e + c for e, c in zip(err, row)], GE, x - const)
        lp.set_objective((0,) * n + (1,) * out_dim)
        result = lp_minimize(lp)
        if result is None or result[1] > query.threshold_pow:
            return None
        return result[0][:n]

    def dfs(depth, affine, constraints):
        if depth == net.depth:
            return leaf(constraints, affine)
        pre = _affine_step(net.layers[depth], affine, n)
        for mask in range(1 << len(pre)):
            branch = LinearProgram(n)
            branch.constraints.extend(constraints)
            next_affine = []
            for j, (coeffs, const) in enumerate(pre):
                active = mask >> j & 1
                branch.constrain(coeffs, GE if active else LE, -const)
                next_affine.append((coeffs, const) if active else zero_row)
            if lp_feasible(branch) is not None:
                found = dfs(depth + 1, next_affine, branch.constraints)
                if found is not None:
                    return tuple(found)
        return None

    return dfs(0, _identity_affine(n), [])


def _assert_matches_reference(query):
    leaves, cold = [], []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("lp_feasible", "lp_minimize"):
            solver = getattr(oracles, name)

            def spy(lp, stats=None, start=None, solver=solver, name=name):
                if start is None:
                    cold.append(lp)
                elif name == "lp_minimize" or any(c.relation == EQ for c in lp.constraints):
                    leaves.append(lp)
                return solver(lp, stats, start=start)

            mp.setattr(oracles, name, spy)
        verdict = enumerate_patterns_invert(query)
    # Every leaf decides warm; only a YES leaf is solved once more, cold, for its witness.
    assert len(leaves) == verdict.stats.patterns_enumerated
    assert cold == (leaves[-1:] if verdict.is_yes else [])
    # Only feasible prefixes are extended. A leaf LP ends in 2 rows per output
    # unit: the target's, and in exact mode the fixed output layer's.
    out = 2 * len(query.target)
    for lp in leaves:
        assert lp_feasible(LinearProgram(lp.num_vars, lp.constraints[:-out])) is not None
    assert verdict.witness == _reference_patterns(query)
    assert verdict.is_yes == (verdict.witness is not None)
    return verdict


def _criterion_02_queries():
    """The sat-real queries of acceptance criterion 02's 100 formulas."""
    for t in range(100):
        ts = 2 * 1_000_003 + t
        rng = random.Random(ts)
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        k = rng.randint(1, min(2, n))
        yield sat_to_exact_real(gen_random_ksat(n, m, k, ts)).query


# every 2-clause over two variables: unsatisfiable, 14 units, 128 leaves
_UNSAT_2_4 = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def test_patterns_match_full_mask_reference_on_criterion_02():
    decisions = {_assert_matches_reference(query).decision for query in _criterion_02_queries()}
    assert decisions == {"YES", "NO"}
    verdict = _assert_matches_reference(sat_to_exact_real(parse_dimacs(_UNSAT_2_4)).query)
    assert not verdict.is_yes and verdict.stats.patterns_enumerated == 128


def test_patterns_lp_work_on_criterion_02(monkeypatch):
    # A loop that solves one LP per mask made 7,847 solves and 51,977
    # pivots here; branching one unit at a time with a carried point must
    # at least halve both and reach the same 779 leaves. Solved cold, that
    # branching took 12,555 pivots; started from the carried point, at
    # most a quarter of that.
    solves = []
    for name in ("lp_feasible", "lp_minimize"):
        solver = getattr(oracles, name)
        monkeypatch.setattr(oracles, name, lambda *a, solver=solver, **k: solves.append(1) or solver(*a, **k))
    pivots = leaves = 0
    for query in _criterion_02_queries():
        stats = enumerate_patterns_invert(query).stats
        pivots += stats.lp_pivots
        leaves += stats.patterns_enumerated
    assert leaves == 779
    assert len(solves) <= 7847 // 2 and pivots <= 12555 // 4


def test_patterns_cap_counts_branching_units_only(monkeypatch):
    monkeypatch.delenv("INVFORGE_CAP", raising=False)
    # n = 3: 20 units, of which the target fixes the 2 output units
    text = "p cnf 3 6\n1 2 0\n1 -2 0\n-1 3 0\n-1 -3 0\n2 3 0\n-2 -3 0\n"
    query = sat_to_exact_real(parse_dimacs(text)).query
    assert query.network.hidden_units == 20 and oracles.branching_units(query) == 18
    assert not enumerate_patterns_invert(query).is_yes


def _two_layer_net(rng, n, hidden, out):
    rows = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(hidden)
    ]
    bias = [Fraction(rng.randint(-2, 2)) for _ in range(hidden)]
    rows2 = [[Fraction(rng.randint(-2, 2)) for _ in range(hidden)] for _ in range(out)]
    bias2 = [Fraction(rng.randint(-2, 2)) for _ in range(out)]
    return ReluNetwork(n, (layer(rows, bias), layer(rows2, bias2)))


def _zero_bias(net, depth):
    """net with its first `depth` layers' biases set to 0. The DFS's root point
    0 then lies on every first-layer unit's hyperplane, and with depth 2 the
    second layer's too, so both children of those units are taken without an LP."""
    layers = [
        layer(lyr.weights, [0] * lyr.fan_out) if i < depth else lyr
        for i, lyr in enumerate(net.layers)
    ]
    return ReluNetwork(net.input_dim, tuple(layers))


def test_patterns_point_on_hyperplane_takes_both_children_free(monkeypatch):
    # Both first-layer units have pre-activation 0 at the root point 0, so
    # every first-layer mask is feasible without an LP: only the leaves
    # solve, two warm decisions, then the YES leaf once more, cold.
    net = ReluNetwork(2, (layer([[1, 0], [0, 1]], [0, 0]), layer([[1, 1]], [0])))
    query = InversionQuery(net, (Fraction(1),), 1, Fraction(0), LatentDomain(DOMAIN_REAL, 2))
    starts = []
    solver = oracles.lp_feasible
    monkeypatch.setattr(oracles, "lp_feasible", lambda *a, **k: starts.append(k.get("start")) or solver(*a, **k))
    verdict = _assert_matches_reference(query)
    assert verdict.witness == (Fraction(1), Fraction(0))
    assert verdict.stats.patterns_enumerated == 2
    assert len(starts) == 3 and None not in starts[:2] and starts[2] is None


def test_patterns_zero_target_entries_match_reference():
    rng = random.Random(11)
    zeros = yes = 0
    drawn = []
    for _ in range(60):
        net = _two_layer_net(rng, rng.randint(1, 2), rng.randint(1, 3), rng.randint(2, 3))
        z = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(net.input_dim))
        # forward images hit their target; half of them have an entry moved
        target = list(forward(net, z))
        if rng.random() < 0.5:
            target[rng.randrange(len(target))] = Fraction(rng.randint(0, 2))
        zeros += 0 in target
        domain = LatentDomain(DOMAIN_REAL, net.input_dim)
        query = InversionQuery(net, tuple(target), 2, Fraction(0), domain)
        yes += _assert_matches_reference(query).is_yes
        drawn.append((net, z))
    assert zeros > 0 and 0 < yes < 60
    outcomes = set()
    for net, z in drawn[:20]:
        domain = LatentDomain(DOMAIN_REAL, net.input_dim)
        for flat in (_zero_bias(net, 1), _zero_bias(net, 2)):
            for target in (forward(flat, z), (Fraction(1),) * net.output_dim):
                query = InversionQuery(flat, target, 2, Fraction(0), domain)
                outcomes.add(_assert_matches_reference(query).decision)
    assert outcomes == {"YES", "NO"}


def test_patterns_negative_target_is_no(monkeypatch):
    calls = []
    for name in ("lp_feasible", "lp_minimize"):
        monkeypatch.setattr(oracles, name, lambda *args, name=name: calls.append(name))
    net = _two_layer_net(random.Random(3), 2, 3, 2)
    target = (Fraction(1), Fraction(-1, 2))
    deep = InversionQuery(net, target, 1, Fraction(0), LatentDomain(DOMAIN_REAL, 2))
    for query in (identity_query(2, (-1, 0), domain=DOMAIN_REAL), deep):
        verdict = enumerate_patterns_invert(query)
        assert not verdict.is_yes and verdict.certificate == oracles.CERT_PATTERN
    assert calls == []  # ReLU outputs are nonnegative: no LP is needed


def test_patterns_thresholded_p1_match_reference():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(30):
        net = _two_layer_net(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))
        target = tuple(Fraction(rng.randint(-3, 3)) for _ in range(net.layers[-1].fan_out))
        theta = Fraction(rng.randint(1, 4), 2)
        query = InversionQuery(net, target, 1, theta, LatentDomain(DOMAIN_REAL, net.input_dim))
        outcomes.add(_assert_matches_reference(query).decision)
        for flat in (_zero_bias(net, 1), _zero_bias(net, 2)):
            _assert_matches_reference(dataclasses.replace(query, network=flat))
    assert outcomes == {"YES", "NO"}


def _pattern_region(net, z):
    """(constraints, output affine map) of z's activation region, built through _affine_step.

    A unit is active when the kernel's pre-activation at z is >= 0. The
    constraints are non-strict on both sides, so neighbouring regions share
    their boundary; the affine map gives the network output on the region.
    """
    n = net.input_dim
    affine = _identity_affine(n)
    zero_row = (tuple(Fraction(0) for _ in range(n)), Fraction(0))
    lp = LinearProgram(n)
    for lyr, (pre, _) in zip(net.layers, preactivations(net, z)):
        rows = _affine_step(lyr, affine, n)
        for (coeffs, const), value in zip(rows, pre):
            lp.constrain(coeffs, GE if value >= 0 else LE, -const)
        affine = [row if value >= 0 else zero_row for row, value in zip(rows, pre)]
    return lp, affine


def test_pattern_region_covers_forward_evaluation():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(1, 3)
        fan_out = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(fan_out)]
        bias = [Fraction(rng.randint(-5, 5)) for _ in range(fan_out)]
        rows2 = [[Fraction(rng.randint(-3, 3)) for _ in range(fan_out)]]
        net = ReluNetwork(n, (layer(rows, bias), layer(rows2, [Fraction(1)])))
        z = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n))
        lp, affine = _pattern_region(net, z)
        assert lp.satisfied_by(z)
        reproduced = tuple(
            sum(c * v for c, v in zip(coeffs, z)) + const for coeffs, const in affine
        )
        assert reproduced == forward(net, z)


# -- falsifier ---------------------------------------------------------------


def test_falsify_zero_restarts_is_non_certifying_no():
    art = sat_to_exact_real(parse_dimacs("p cnf 1 1\n1 0\n"))
    verdict = falsify_real(art.query, restarts=0)
    assert not verdict.is_yes
    assert verdict.certificate == CERT_FALSIFIER


def test_falsify_finds_corner_witness():
    # the satisfiable instance has a +/-1 witness; corners at (0,1) scaled
    # don't contain it, so seed the true corner levels
    art = sat_to_exact_real(parse_dimacs("p cnf 2 1\n1 2 0\n"))
    verdict = falsify_real(art.query, restarts=64, seed=0, corner_levels=(-1, 1))
    assert verdict.is_yes
    d = distance_pow(forward(art.query.network, verdict.witness), art.query.target, 1)
    assert d.value <= art.query.threshold_pow


def test_falsify_yes_always_reverifies(monkeypatch):
    # Every YES, from the seed stage or after the descent, follows an exact
    # distance_pow of exactly that witness's image, at or below the threshold.
    exact_checks = []
    exact_distance = oracles.distance_pow

    def spy(y, x, p):
        d = exact_distance(y, x, p)
        exact_checks.append((tuple(y), d.value))
        return d

    monkeypatch.setattr(oracles, "distance_pow", spy)
    rng = random.Random(13)
    restarts = 300
    stages = set()
    for seed in range(30):
        n = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(2)]
        net = ReluNetwork(n, (layer(rows, [Fraction(rng.randint(-2, 2)) for _ in range(2)]),))
        target = tuple(Fraction(rng.randint(0, 6), 2) for _ in range(2))
        theta = rng.choice((Fraction(0), Fraction(1, 2)))
        q = InversionQuery(net, target, 2, theta, LatentDomain(DOMAIN_REAL, n))
        exact_checks.clear()
        verdict = falsify_real(q, restarts=restarts, seed=seed)
        if verdict.is_yes:
            image, value = exact_checks[-1]
            assert image == forward(net, verdict.witness) and value <= theta
            stages.add("seed" if verdict.stats.latents_enumerated == restarts else "descent")
    assert stages == {"seed", "descent"}


# Seeded gadget routes of the falsifier: (verify family, p). N <= 8 for each.
GADGET_ROUTES = [("halfclique-real", 2), ("cvp-real", 1), ("cvp-real", 3)]


def _gadget_cases(name, p, want_yes, count):
    """The first `count` seeded (source, artifact) pairs of a route whose source answer is want_yes."""
    family = FAMILIES[name]
    cases = []
    for ts in itertools.count():
        source = family.draw(random.Random(ts), ts, 3, p)
        if family.solve(source, p).is_yes == want_yes:
            artifact = family.compile(source, p)
            assert artifact.query.domain.dim <= 8
            cases.append((source, artifact))
            if len(cases) == count:
                return cases


@pytest.mark.parametrize("name, p", GADGET_ROUTES)
def test_falsify_yes_is_found_at_a_seed(name, p):
    # forward_witness scales the source indicator by clamp_hi, so with every
    # corner seeded the seed stage answers and no descent pass runs.
    family = FAMILIES[name]
    for source, artifact in _gadget_cases(name, p, True, 8):
        n = artifact.query.domain.dim
        hi = artifact.constants["clamp_hi"]
        verdict = falsify_real(artifact.query, restarts=1 << n, seed=0, corner_levels=(0, hi))
        assert verdict.is_yes and verdict.stats.latents_enumerated == 1 << n
        assert set(verdict.witness) <= {0, hi}
        assert family.accepts(source, backward_witness(artifact, verdict.witness), p)


def _reference_falsify(query, restarts, seed, corner_levels):
    """The falsifier before its seed stage: descend first, then check the shortlist.

    It calls forward and distance_pow through the oracles module, so a spy
    patched there sees both falsifiers' exact checks.
    """
    n = query.domain.dim
    stats = oracles.VerdictStats()
    lo, hi = float(corner_levels[0]), float(corner_levels[1])
    net_layers = float_layers(query.network)
    target = np.array([float(v) for v in query.target])
    theta = float(query.threshold_pow)
    p = query.p

    def dist(points):
        acts = points
        for w, b in net_layers:
            acts = np.maximum(acts @ w + b, 0.0)
        return (np.abs(acts - target) ** p).sum(axis=1)

    blocks = []
    corner_count = min(1 << n, restarts) if n <= 20 else 0
    if corner_count:
        idx = np.arange(corner_count, dtype=np.int64)
        shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        blocks.append(lo + bits * (hi - lo))
    remaining = restarts - corner_count
    if remaining > 0:
        rng = np.random.default_rng(seed)
        span = max(hi - lo, 1.0)
        blocks.append(rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(remaining, n)))
    points = np.vstack(blocks)
    values = dist(points)
    stats.latents_enumerated += len(points)

    step = max(hi - lo, 1.0) / 2.0
    for _ in range(4):
        for j in range(n):
            for direction in (step, -step):
                candidate = points.copy()
                candidate[:, j] += direction
                cand_values = dist(candidate)
                stats.latents_enumerated += len(points)
                better = cand_values < values
                points[better] = candidate[better]
                values[better] = cand_values[better]
        step /= 2.0

    order = np.argsort(values, kind="stable")
    shortlist = [int(i) for i in order[:16]]
    shortlist += [int(i) for i in np.nonzero(values <= theta * (1 + 1e-9) + 1e-9)[0][:64]]
    seen: set[int] = set()
    checked: set[tuple] = set()
    for i in shortlist:
        if i in seen:
            continue
        seen.add(i)
        for denom in (1, 2, 4, 8, 16, 64, 256, 4096, 1 << 16):
            z = tuple(Fraction(float(v)).limit_denominator(denom) for v in points[i])
            if z in checked:
                continue
            checked.add(z)
            exact = oracles.distance_pow(oracles.forward(query.network, z), query.target, p)
            if exact.value <= query.threshold_pow:
                return oracles.Verdict(oracles.YES, z, CERT_FALSIFIER, stats)
    return oracles.Verdict(oracles.NO, None, CERT_FALSIFIER, stats)


def test_falsify_descent_matches_reference(monkeypatch):
    # On NO queries both falsifiers run every descent pass. For p <= 2 the
    # in-place float arithmetic is bitwise the reference's, so the batch is
    # given the candidates the reference checks, in the same order; for p = 3
    # the cube is a product, not a pow, and only the decisions must agree.
    # Every candidate the batch finds within the threshold is re-verified,
    # in order, and every other one is checked here and is too far.
    checked, screened = [], []
    exact_forward = oracles.forward
    exact_batch = oracles.distance_pows
    monkeypatch.setattr(oracles, "forward", lambda net, z: checked.append(z) or exact_forward(net, z))

    def batch_spy(net, points, target, p):
        screened.extend(points)
        return exact_batch(net, points, target, p)

    monkeypatch.setattr(oracles, "distance_pows", batch_spy)
    skipped_total = 0
    for name, p in GADGET_ROUTES:
        for ts, (_, artifact) in enumerate(_gadget_cases(name, p, False, 14)):
            query = artifact.query
            n = query.domain.dim
            kwargs = dict(restarts=(1 << n) + 100, seed=ts,
                          corner_levels=(0, artifact.constants["clamp_hi"]))
            runs = []
            for falsify in (_reference_falsify, falsify_real):
                checked.clear()
                screened.clear()
                verdict = falsify(query, **kwargs)
                runs.append((verdict.decision, verdict.stats.latents_enumerated, list(checked), list(screened)))
            (ref_decision, ref_points, ref_checked, _), (decision, points, now_checked, now_screened) = runs
            assert ref_decision == decision == oracles.NO
            assert points == ref_points
            assert ref_checked  # the shortlist was checked exactly
            if p <= 2:
                assert now_screened == ref_checked
            kept = set(now_checked)
            assert now_checked == [z for z in now_screened if z in kept]
            skipped = [z for z in now_screened if z not in kept]
            for z in skipped:
                exact = distance_pow(exact_forward(query.network, z), query.target, p)
                assert exact.value > query.threshold_pow
            skipped_total += len(skipped)
    assert skipped_total  # the batch ruled candidates out


_LADDER_FLOATS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),  # +-0, subnormals and negatives included
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=2.0**52, max_value=2.0**54),
    st.integers(-(2**70), 2**70).map(float),
    st.builds(lambda m, e: m / 2.0**e, st.integers(-(2**40), 2**40), st.integers(0, 60)),  # rung ties
)


@settings(max_examples=600, deadline=None)
@given(_LADDER_FLOATS)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.5)
@example(0.5)
@example(2.0**53 - 1)
@example(2.0**53 + 2)
@example(3 / 2.0**17)
@example(1e300)
def test_ladder_matches_limit_denominator(x):
    assert oracles._ladder(x) == [Fraction(x).limit_denominator(d) for d in oracles._LADDER]


def _odd_net(rng, n):
    """A random net whose weights and biases are +-{1/3, 7/10, 1, 5/7} times 2^e, e in [-40, 40], or bias 0."""
    def entry():
        return rng.choice((-1, 1)) * rng.choice((Fraction(1, 3), Fraction(7, 10), Fraction(1), Fraction(5, 7))) \
            * Fraction(2) ** rng.choice((-40, -20, -1, 0, 1, 20, 40))

    layers, fan_in = [], n
    for _ in range(rng.randint(1, 3)):
        fan_out = rng.randint(1, 4)
        bias = [entry() if rng.random() < 0.6 else 0 for _ in range(fan_out)]
        layers.append(layer([[entry() for _ in range(fan_in)] for _ in range(fan_out)], bias))
        fan_in = fan_out
    return ReluNetwork(n, tuple(layers))


def _odd_point(rng, n):
    """Rationals of every kind a float rounds: non-dyadic, dyadic, 2^+-40 and below the normal range."""
    return tuple(rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.uniform(-3, 3)),
                             Fraction(rng.randint(-5, 5), 3) * Fraction(2) ** rng.choice((-40, 0, 40)),
                             Fraction(rng.randint(-7, 7), 2 ** rng.randint(1070, 1078)))) for _ in range(n))


def test_distance_pows_match_distance_pow():
    # Weights of 2^+-40, points below 2^-1070 and non-dyadic rationals give
    # every point its own denominator D, and outputs over wildly different scales.
    rng = random.Random(20)
    for _ in range(150):
        n = rng.randint(1, 4)
        net = _odd_net(rng, n)
        points = [_odd_point(rng, n) for _ in range(11)]
        points.append(tuple(Fraction(rng.randint(1, 7), 2 ** rng.randint(1070, 1078)) for _ in range(n)))
        images = [forward(net, z) for z in points]
        for p in (1, 2, 3):
            target = rng.choice((images[0], images[-1], _odd_point(rng, net.output_dim)))
            assert distance_pows(net, points, target, p) == [distance_pow(y, target, p).value for y in images]
    assert distance_pows(net, [], target, 1) == []
    with pytest.raises(ValueError):
        distance_pows(net, points, tuple(target) + (Fraction(1),), 1)
    with pytest.raises(ValueError):
        distance_pows(net, [points[0] + (Fraction(1),)], target, 1)


def test_falsify_never_skips_a_tie(monkeypatch):
    # With theta at a batched candidate's exact distance, that candidate
    # passes its exact check, so a batch that ruled it out would answer NO.
    # After the batch, the exact checks are the candidates within theta in
    # order, up to the witness, and every one skipped before it is too far.
    screened, checked = [], []
    exact_batch, exact_forward = oracles.distance_pows, oracles.forward

    def batch_spy(net, points, target, p):
        screened.append((len(checked), list(points)))
        return exact_batch(net, points, target, p)

    monkeypatch.setattr(oracles, "distance_pows", batch_spy)
    monkeypatch.setattr(oracles, "forward", lambda net, z: checked.append(z) or exact_forward(net, z))
    rng = random.Random(21)
    ties = skipped = 0
    for trial in range(100):
        n = rng.randint(1, 3)
        net = _odd_net(rng, n)
        p = rng.choice((1, 2, 3))
        target = _odd_point(rng, net.output_dim)
        query = InversionQuery(net, target, p, Fraction(0), LatentDomain(DOMAIN_REAL, n))
        screened.clear()
        if falsify_real(query, restarts=40, seed=trial).is_yes or not screened[0][1]:
            continue
        candidates = screened[0][1]
        distances = [distance_pow(exact_forward(net, z), target, p).value for z in candidates]
        tie = dataclasses.replace(query, threshold_pow=min(distances))
        z_tie = candidates[distances.index(min(distances))]
        screened.clear()
        checked.clear()
        verdict = falsify_real(tie, restarts=40, seed=trial)
        if not screened or z_tie not in screened[0][1]:
            continue  # the seed stage answered, or z_tie was checked there
        start, candidates = screened[0]
        assert verdict.is_yes
        after = checked[start:]
        assert after[-1] == verdict.witness
        before_hit = candidates[: candidates.index(verdict.witness) + 1]
        kept = set(after)
        assert after == [z for z in before_hit if z in kept]
        for z in before_hit:
            if z not in kept:
                assert distance_pow(exact_forward(net, z), target, p).value > tie.threshold_pow
                skipped += 1
        assert distance_pow(exact_forward(net, verdict.witness), target, p).value <= tie.threshold_pow
        ties += 1
    assert ties >= 30 and skipped


def _overflow_net(nan: bool) -> ReluNetwork:
    """Weights of 2^600 in two layers: the float forward reaches inf, then inf - inf = nan if asked."""
    big = Fraction(2) ** 600
    last = [[1, -1]] if nan else [[1, 1]]
    return ReluNetwork(2, (layer([[big, big], [big, 2 * big]], [0, 0]),
                           layer([[big, big], [big, big]], [0, 0]),
                           layer(last, [0])))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("nan", [False, True])
def test_falsify_never_skips_when_the_float_forward_overflows(monkeypatch, nan):
    net = _overflow_net(nan)
    target = (Fraction(1),)

    def overflows(z):
        return not np.isfinite(forward_float(net, [float(v) for v in z])).all()

    points = [(Fraction(1), Fraction(1)), (Fraction(3, 7), Fraction(1, 3))]
    assert all(map(overflows, points))
    assert np.isnan(forward_float(net, [1.0, 1.0])).all() == nan
    # Through the falsifier: the batch gives every candidate, overflowing
    # ones included, its exact distance, and none is within theta = 0.
    batches = []
    exact_batch, exact_forward = oracles.distance_pows, oracles.forward

    def batch_spy(*args):
        batches.append((list(args[1]), exact_batch(*args)))
        return batches[-1][1]

    monkeypatch.setattr(oracles, "distance_pows", batch_spy)
    query = InversionQuery(net, target, 2, Fraction(0), LatentDomain(DOMAIN_REAL, 2))
    assert not falsify_real(query, restarts=20, seed=0).is_yes
    [(candidates, values)] = batches
    assert values == [distance_pow(exact_forward(net, z), target, 2).value for z in candidates]
    assert all(v > 0 for v in values) and any(map(overflows, candidates))
    if nan:
        # Both layer-2 units are equal, so the exact output is 0 and every
        # distance is 1. With corners at {1, 2} every seed overflows and no
        # descent step moves, so theta = 1, a tie at the first overflowing
        # candidate, is decided by the batch alone.
        batches.clear()
        tie = dataclasses.replace(query, threshold_pow=Fraction(1))
        verdict = falsify_real(tie, restarts=20, seed=0, corner_levels=(1, 2))
        [(candidates, values)] = batches
        assert verdict.is_yes and verdict.witness == candidates[0] and overflows(verdict.witness)
        assert values[0] == tie.threshold_pow


def test_falsify_checks_corners_exactly_past_float_range():
    """theta at the exact distance of (1, 1), about 2^2406, overflows float64: the corners decide."""
    net, target = _overflow_net(False), (Fraction(1),)
    theta = distance_pow(forward(net, (Fraction(1), Fraction(1))), target, 2).value
    assert theta > 2**2406
    with pytest.raises(OverflowError):
        float(theta)
    verdict = falsify_real(InversionQuery(net, target, 2, theta, LatentDomain(DOMAIN_REAL, 2)), restarts=20)
    assert verdict.is_yes and verdict.certificate == CERT_FALSIFIER
    assert verdict.witness == (0, 0)  # the first corner in index order
    assert distance_pow(forward(net, verdict.witness), target, 2).value <= theta


def test_falsify_rejects_binary_domain():
    with pytest.raises(ValueError):
        falsify_real(identity_query(2, (1, 0)), restarts=10)


def test_cap_env_override(monkeypatch):
    f = CnfFormula(5, 1, ((1,),))
    monkeypatch.setenv("INVFORGE_CAP", "4")
    with pytest.raises(CapExceeded):
        solve_sat_bruteforce(f)
    monkeypatch.setenv("INVFORGE_CAP", "6")
    assert solve_sat_bruteforce(f).is_yes


# -- decide ------------------------------------------------------------------


def _cvp_real(n, p, radius=None, seed=0):
    inst = gen_random_cvp(n, 1, seed, p=p)
    if radius is not None:
        inst = dataclasses.replace(inst, radius=Fraction(radius))
    return cvp_to_approx_real(inst).query


def _sat_real():
    return sat_to_exact_real(parse_dimacs("p cnf 1 1\n1 0\n")).query


# (query, INVFORGE_CAP as an offset from the query's branching units or None, certificate)
ROUTES = {
    "01-scan": (lambda: identity_query(2, (1, 0)), None, CERT_EXHAUSTIVE),
    "pm1-scan": (lambda: identity_query(2, (1, -1), domain=DOMAIN_PM1), None, CERT_EXHAUSTIVE),
    "sat-real-pattern": (_sat_real, None, CERT_PATTERN),
    "cvp-real-p1-n1-pattern": (lambda: _cvp_real(1, 1), None, CERT_PATTERN),
    "cvp-real-p1-n2-pattern": (lambda: _cvp_real(2, 1), None, CERT_PATTERN),
    "cvp-real-p1-n3-over-cap-falsify": (lambda: _cvp_real(3, 1), None, CERT_FALSIFIER),
    "cvp-real-p3-radius-falsify": (lambda: _cvp_real(2, 3, radius=1), None, CERT_FALSIFIER),
    "cvp-real-p3-radius0-pattern": (lambda: _cvp_real(2, 3, radius=0), None, CERT_PATTERN),
    "at-cap-pattern": (_sat_real, 0, CERT_PATTERN),
    "below-cap-falsify": (_sat_real, -1, CERT_FALSIFIER),
}


@pytest.mark.parametrize("build, cap, certificate", list(ROUTES.values()), ids=list(ROUTES))
def test_decide_routes_by_the_query(monkeypatch, build, cap, certificate):
    query = build()
    if cap is not None:
        monkeypatch.setenv("INVFORGE_CAP", str(branching_units(query) + cap))
    assert decide(query, restarts=200).certificate == certificate


def test_decide_calls_each_oracle_by_module_name(monkeypatch):
    calls = []
    for name in ("invert_binary_bruteforce", "enumerate_patterns_invert", "falsify_real"):
        monkeypatch.setattr(oracles, name, lambda *args, name=name, **kwargs: calls.append((name, args, kwargs)))
    binary, pattern, falsify = identity_query(2, (1, 0)), _sat_real(), _cvp_real(2, 3, radius=1)
    for query in (binary, pattern, falsify):
        decide(query, restarts=7, seed=5, corner_levels=(0, 3))
    assert calls == [
        ("invert_binary_bruteforce", (binary,), {}),
        ("enumerate_patterns_invert", (pattern,), {}),
        ("falsify_real", (falsify,), {"restarts": 7, "seed": 5, "corner_levels": (0, 3)}),
    ]
