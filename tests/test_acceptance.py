"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1-7 stash every
artifact they build so criterion 8 can re-check the constant validity
predicates across the whole run.
"""

import math
import random
import time
from fractions import Fraction

from invforge.cli import iter_all_formulas, run_bench
from invforge.instances import (
    CvpInstance,
    HalfCliqueQuery,
    VertexCoverQuery,
    WeightedGraph,
    assignment_satisfies,
    clique_weight,
    gen_random_cvp,
    gen_random_graph,
    gen_random_ksat,
    graph,
    is_clique,
    is_cover,
)
from invforge.lp import EQ, GE, LE, LinearProgram, lp_feasible, lp_minimize
from invforge.oracles import (
    enumerate_patterns_invert,
    falsify_real,
    invert_binary_bruteforce,
    solve_cvp01_bruteforce,
    solve_halfclique_bruteforce,
    solve_sat_bruteforce,
    solve_vertexcover_bruteforce,
)
from invforge.ratio import rational_root_ceil
from invforge.reductions import (
    MODE_GENERAL,
    MODE_QUARTER,
    backward_witness,
    constants_valid,
    cvp_to_approx_binary,
    cvp_to_approx_real,
    forward_witness,
    halfclique_to_approx,
    sat_to_exact_binary,
    sat_to_exact_real,
    vertexcover_to_approx,
)
from invforge.relunet import (
    ReluNetwork,
    deserialize,
    distance_pow,
    forward,
    forward_float,
    layer,
    serialize,
)

ONE = Fraction(1)
ZERO = Fraction(0)

ARTIFACTS: list = []  # populated by criteria 1-7, checked by criterion 8


def _report(num: int, failures: list, detail: str):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance {num:02d}] {status} {detail}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _seed(base: int, t: int) -> int:
    return base * 1_000_003 + t


# -- criterion 1: exact binary round trip ------------------------------------


def test_criterion_01_sat_binary_roundtrip():
    started = time.perf_counter()
    failures = []
    count = 0

    def check(formula, tag):
        nonlocal count
        count += 1
        artifact = sat_to_exact_binary(formula)
        ARTIFACTS.append(artifact)
        source = solve_sat_bruteforce(formula)
        target = invert_binary_bruteforce(artifact.query)
        if source.is_yes != target.is_yes:
            failures.append((tag, source.decision, target.decision))

    for formula in iter_all_formulas(3, 2, 3):
        check(formula, f"exhaustive-{formula.clauses}")
    rng = random.Random(101)
    for t in range(500):
        n = rng.randint(1, 10)
        m = rng.randint(1, 20)
        k = rng.randint(1, min(3, n))
        check(gen_random_ksat(n, m, k, _seed(1, t)), f"random-{t}")

    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report(1, failures, f"{count} formulas, zero disagreements, {elapsed:.1f}s")


# -- criterion 2: exact real round trip ---------------------------------------


def test_criterion_02_sat_real_roundtrip():
    failures = []
    for t in range(100):
        ts = _seed(2, t)
        rng = random.Random(ts)
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        k = rng.randint(1, min(2, n))
        formula = gen_random_ksat(n, m, k, ts)
        artifact = sat_to_exact_real(formula)
        ARTIFACTS.append(artifact)
        if artifact.query.network.hidden_units > 14:
            failures.append((t, "unit budget exceeded"))
            continue
        source = solve_sat_bruteforce(formula)
        target = enumerate_patterns_invert(artifact.query)
        if source.is_yes != target.is_yes:
            failures.append((t, source.decision, target.decision))
        # every model maps to a latent hitting the target exactly
        for index in range(1 << n):
            assignment = tuple(bool(index >> (n - 1 - i) & 1) for i in range(n))
            if not assignment_satisfies(formula, assignment):
                continue
            latent = forward_witness(artifact, assignment)
            if forward(artifact.query.network, latent) != artifact.query.target:
                failures.append((t, assignment, "inexact forward"))
    _report(2, failures, "100 formulas, pattern oracle agrees, models map exactly")


# -- criterion 3: lattice round trip ------------------------------------------


def _boundary_instance(seed: int) -> CvpInstance:
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    p = rng.choice((1, 3))
    radius = Fraction(1, 2)
    basis = tuple(
        tuple(Fraction(2 if r == i else 0) for i in range(n)) for r in range(n)
    )
    anchor = [rng.randint(0, 1) for _ in range(n)]
    target = [Fraction(2 * anchor[r]) for r in range(n)]
    target[0] -= radius
    return CvpInstance(basis, tuple(target), radius, p)


def test_criterion_03_cvp_roundtrip():
    failures = []
    rng = random.Random(303)
    for t in range(500):
        n = rng.randint(1, 8)
        d = rng.randint(1, 5)
        p = rng.choice((1, 3))
        inst = gen_random_cvp(n, d, seed=_seed(3, t), p=p, denom_max=8)
        artifact = cvp_to_approx_binary(inst)
        ARTIFACTS.append(artifact)
        source = solve_cvp01_bruteforce(inst)
        target = invert_binary_bruteforce(artifact.query)
        if source.is_yes != target.is_yes:
            failures.append((t, source.decision, target.decision))
    boundary_yes = 0
    for t in range(20):
        inst = _boundary_instance(_seed(33, t))
        source = solve_cvp01_bruteforce(inst)
        best = min(
            distance_pow(
                tuple(
                    sum(inst.basis[r][i] * ((index >> (inst.num_vectors - 1 - i)) & 1)
                        for i in range(inst.num_vectors))
                    for r in range(inst.dim)
                ),
                inst.target,
                inst.p,
            ).value
            for index in range(1 << inst.num_vectors)
        )
        if best != inst.radius**inst.p:
            failures.append((t, "not a boundary instance"))
            continue
        artifact = cvp_to_approx_binary(inst)
        ARTIFACTS.append(artifact)
        target = invert_binary_bruteforce(artifact.query)
        if source.is_yes and target.is_yes:
            boundary_yes += 1
        else:
            failures.append((t, "boundary", source.decision, target.decision))
    if boundary_yes != 20:
        failures.append(("boundary count", boundary_yes))
    _report(3, failures, "500 random + 20 boundary instances, zero disagreements")


# -- criterion 4: stacking exactness ------------------------------------------


def test_criterion_04_stacking_identity():
    failures = []
    rng = random.Random(404)
    for t in range(50):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        p = rng.choice((1, 3))
        inst = gen_random_cvp(n, d, seed=_seed(4, t), p=p)
        artifact = cvp_to_approx_binary(inst)
        ARTIFACTS.append(artifact)
        stacked = artifact.query.network.layers[0]
        half = len(stacked.weights) // 2
        inner = list(zip(stacked.weights[:half], stacked.bias[:half]))
        N = artifact.query.domain.dim
        for index in range(1 << N):
            z = tuple(Fraction((index >> (N - 1 - i)) & 1) for i in range(N))
            lhs = distance_pow(
                forward(artifact.query.network, z), artifact.query.target, p
            ).value
            rhs = sum(
                abs(sum(w * v for w, v in zip(row, z)) + b) ** p for row, b in inner
            )
            if lhs != rhs:
                failures.append((t, z))
                break
    _report(4, failures, "50 instances, every binary latent matches the row-sum identity")


# -- criterion 5: binarization gadget ------------------------------------------


def _random_basis(rng, n, d):
    return tuple(
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        for _ in range(d)
    )


def test_criterion_05_gadget():
    failures = []
    modes_yes = set()
    modes_no = set()

    # 200 YES instances: the mapped witness must satisfy the 5-layer query
    # exactly and pin the deviation coordinate at N*U/2.
    for t in range(200):
        ts = _seed(5, t)
        rng = random.Random(ts)
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        p = rng.choice((1, 3))
        basis = _random_basis(rng, n, d)
        anchor = tuple(rng.randint(0, 1) for _ in range(n))
        if t % 2 == 0:  # quarter mode: radius below 1/4, anchored hit inside
            radius = rng.choice((Fraction(1, 8), Fraction(3, 16)))
            miss = radius * rng.choice((ZERO, Fraction(1, 2), ONE))
            target = [
                sum(basis[r][i] * anchor[i] for i in range(n)) for r in range(d)
            ]
            target[0] -= miss
            inst = CvpInstance(basis, tuple(target), radius, p)
        else:  # general mode: radius at least 1/4 dominating the true minimum
            inst0 = gen_random_cvp(n, d, seed=ts, p=p)
            best = solve_cvp01_bruteforce(inst0)
            dmin = _exact_min_distance(inst0)
            radius = max(Fraction(1, 4), rational_root_ceil(dmin, p))
            inst = CvpInstance(inst0.basis, inst0.target, radius, p)
        source = solve_cvp01_bruteforce(inst)
        if not source.is_yes:
            failures.append((t, "expected YES instance"))
            continue
        artifact = cvp_to_approx_real(inst)
        ARTIFACTS.append(artifact)
        modes_yes.add(artifact.constants["gadget_mode"])
        y = tuple(int(v) for v in source.witness)
        latent = forward_witness(artifact, y)
        out = forward(artifact.query.network, latent)
        dist = distance_pow(out, artifact.query.target, p)
        if dist.value > artifact.query.threshold_pow:
            failures.append((t, "witness misses threshold"))
        N, U = artifact.query.domain.dim, artifact.constants["clamp_hi"]
        if out[-1] != Fraction(N) * U / 2:
            failures.append((t, "deviation coordinate off"))

    # 50 NO instances at brute-checkable size: the falsifier finds nothing.
    found = 0
    t = 0
    while found < 50:
        ts = _seed(55, t)
        t += 1
        rng = random.Random(ts)
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        p = rng.choice((1, 3))
        inst0 = gen_random_cvp(n, d, seed=ts, p=p)
        dmin = _exact_min_distance(inst0)
        if found % 2 == 0:
            radius = Fraction(1, 8)
            if dmin <= radius**p:
                continue
        else:
            root_ceil = rational_root_ceil(dmin, p)
            radius = root_ceil - Fraction(1, 64)
            if radius < Fraction(1, 4) or radius**p >= dmin:
                continue
        inst = CvpInstance(inst0.basis, inst0.target, radius, p)
        found += 1
        artifact = cvp_to_approx_real(inst)
        ARTIFACTS.append(artifact)
        modes_no.add(artifact.constants["gadget_mode"])
        verdict = falsify_real(
            artifact.query,
            restarts=10_000,
            seed=ts,
            corner_levels=(0, artifact.constants["clamp_hi"]),
        )
        if verdict.is_yes:
            failures.append((ts, "falsifier accepted a NO instance"))
    if modes_yes != {MODE_QUARTER, MODE_GENERAL}:
        failures.append(("modes on YES side", modes_yes))
    if modes_no != {MODE_QUARTER, MODE_GENERAL}:
        failures.append(("modes on NO side", modes_no))
    _report(5, failures, "200 YES witnesses exact, 50 NO falsifier-clean, both modes")


def _exact_min_distance(inst: CvpInstance) -> Fraction:
    best = None
    n = inst.num_vectors
    for index in range(1 << n):
        y = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        total = ZERO
        for r in range(inst.dim):
            residual = sum(inst.basis[r][i] * y[i] for i in range(n)) - inst.target[r]
            total += abs(residual) ** inst.p
        best = total if best is None else min(best, total)
    return best


# -- criterion 6: half-clique round trip ---------------------------------------


def test_criterion_06_halfclique_roundtrip():
    failures = []

    def check(hq, p, tag):
        source = solve_halfclique_bruteforce(hq, p)
        artifact = halfclique_to_approx(hq, p)
        ARTIFACTS.append(artifact)
        verdict = invert_binary_bruteforce(artifact.query)
        if source.is_yes != verdict.is_yes:
            failures.append((tag, source.decision, verdict.decision))
            return
        if verdict.is_yes:
            chosen = backward_witness(artifact, verdict.witness)
            if not (
                is_clique(hq.graph, chosen)
                and len(chosen) == hq.graph.num_vertices // 2
                and clique_weight(hq.graph, chosen, p) < hq.bound
            ):
                failures.append((tag, "bad witness back-translation"))

    # exhaustive n = 4 with unit root-weights
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for mask in range(1 << 6):
        edges = [(i, j, ONE) for bit, (i, j) in enumerate(pairs) if mask >> bit & 1]
        g = WeightedGraph(4, tuple(edges))
        for bound in (Fraction(1, 2), Fraction(3, 2)):
            check(HalfCliqueQuery(g, bound), 2, f"exhaustive-{mask}-{bound}")

    # 200 random weighted graphs
    for t in range(200):
        ts = _seed(6, t)
        rng = random.Random(ts)
        n = (4, 6, 8)[t % 3]
        p = (2, 4)[t % 2]
        g = gen_random_graph(n, 0.5, seed=ts, denom_max=1)
        total = sum((root**p for _, _, root in g.edges), ZERO)
        denom = 1
        for _, _, root in g.edges:
            denom = denom * (root**p).denominator // math.gcd(denom, (root**p).denominator)
        top = max(2, int(2 * denom * (total + 1)))
        bound = Fraction(2 * rng.randint(0, top) + 1, 2 * denom)
        check(HalfCliqueQuery(g, bound), p, f"random-{t}")

    # the worked 4-vertex example: threshold 53 and accepted distance 45
    g = graph(4, [(1, 2, 1), (3, 4, 2)])
    artifact = halfclique_to_approx(HalfCliqueQuery(g, Fraction(2)), 2)
    ARTIFACTS.append(artifact)
    if artifact.query.threshold_pow != 53:
        failures.append(("worked threshold", artifact.query.threshold_pow))
    dist = distance_pow(
        forward(artifact.query.network, (ONE, ONE, ZERO, ZERO)),
        artifact.query.target,
        2,
    )
    if dist.value != 45:
        failures.append(("worked distance", dist.value))
    if not invert_binary_bruteforce(artifact.query).is_yes:
        failures.append(("worked verdict",))
    _report(6, failures, "64 exhaustive graphs x 2 bounds + 200 random, worked example exact")


# -- criterion 7: vertex-cover round trip --------------------------------------


def test_criterion_07_vertexcover_roundtrip():
    failures = []
    cases = 0
    import itertools

    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [(i, j, ONE) for bit, (i, j) in enumerate(pairs) if mask >> bit & 1]
            g = WeightedGraph(n, tuple(edges))
            for q in range(n + 1):
                cases += 1
                vq = VertexCoverQuery(g, q)
                source = solve_vertexcover_bruteforce(vq)
                artifact = vertexcover_to_approx(vq, 2)
                if cases % 16 == 0:  # keep a sample for criterion 8
                    ARTIFACTS.append(artifact)
                verdict = invert_binary_bruteforce(artifact.query)
                if source.is_yes != verdict.is_yes:
                    failures.append((n, mask, q, source.decision, verdict.decision))
                    continue
                if verdict.is_yes:
                    dist = distance_pow(
                        forward(artifact.query.network, verdict.witness),
                        artifact.query.target,
                        2,
                    )
                    if dist.value != artifact.query.threshold_pow:
                        failures.append((n, mask, q, "distance not Z*alpha^p"))
                    cover = backward_witness(artifact, verdict.witness)
                    if not (is_cover(g, cover) and len(cover) == q):
                        failures.append((n, mask, q, "bad witness"))
    _report(7, failures, f"{cases} exhaustive (graph, q) cases at p = 2")


# -- criterion 8: constant validity --------------------------------------------


def test_criterion_08_constant_validity():
    pool = ARTIFACTS or [
        sat_to_exact_binary(gen_random_ksat(3, 4, 2, 0)),
        cvp_to_approx_binary(gen_random_cvp(2, 2, seed=0, p=1)),
        cvp_to_approx_real(gen_random_cvp(2, 2, seed=1, p=1)),
        halfclique_to_approx(
            HalfCliqueQuery(graph(4, [(1, 2, 1), (3, 4, 2)]), Fraction(2)), 2
        ),
        vertexcover_to_approx(VertexCoverQuery(graph(3, [(1, 2, 1)]), 1), 2),
    ]
    failures = []
    for i, artifact in enumerate(pool):
        if not constants_valid(artifact):
            failures.append((i, artifact.witness_map.get("kind")))
        consts = artifact.constants
        kind = artifact.witness_map.get("kind")
        inner = consts if kind != "binarized" else consts
        if "radius" in consts and not consts["alpha"] > consts["radius"]:
            failures.append((i, "alpha <= radius"))
        if kind == "binarized" and consts.get("gadget_mode") == MODE_GENERAL:
            if (consts["c"] - 2) * consts["delta"] < 1:
                failures.append((i, "(c-2)*delta < 1"))
        if "alpha_pow" in consts:
            p = artifact.query.p
            lhs = (Fraction(3) ** p - 1) * consts["alpha_pow"]
            rhs = consts["total_weight"] + (Fraction(3) ** p - 1) * consts["bound"]
            if not lhs > rhs:
                failures.append((i, "half-clique penalty too small"))
        if "beta_pow" in consts and not consts["beta_pow"] > artifact.query.threshold_pow:
            failures.append((i, "beta_pow <= threshold"))
    _report(8, failures, f"{len(pool)} artifacts, all chooser predicates hold")


# -- criterion 9: exactness of the stack ---------------------------------------


def _random_network(rng):
    def entry():
        return Fraction(rng.randint(-10, 10), rng.randint(1, 4))

    n = rng.randint(1, 16)
    depth = rng.randint(1, 5)
    layers = []
    fan_in = n
    for _ in range(depth):
        fan_out = rng.randint(1, 16)
        rows = [[entry() for _ in range(fan_in)] for _ in range(fan_out)]
        layers.append(layer(rows, [entry() for _ in range(fan_out)]))
        fan_in = fan_out
    return ReluNetwork(n, tuple(layers))


def test_criterion_09_stack_exactness():
    failures = []
    rng = random.Random(909)
    for t in range(1000):
        net = _random_network(rng)
        if deserialize(serialize(net)) != net:
            failures.append((t, "serialize round trip"))
        z = [Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(net.input_dim)]
        exact = forward(net, z)
        approx = forward_float(net, [float(v) for v in z])
        for e, a in zip(exact, approx):
            if abs(float(e)) > 1e6:
                continue
            if abs(float(e) - a) > 1e-6 * max(1.0, abs(float(e))):
                failures.append((t, "float drift", float(e), a))
                break

    lp_rng = random.Random(911)
    for t in range(200):
        n = lp_rng.randint(1, 4)
        anchor = [Fraction(lp_rng.randint(-5, 5), lp_rng.randint(1, 3)) for _ in range(n)]
        lp = LinearProgram(n)
        for _ in range(lp_rng.randint(1, 6)):
            coeffs = [Fraction(lp_rng.randint(-4, 4)) for _ in range(n)]
            value = sum(c * a for c, a in zip(coeffs, anchor))
            relation = lp_rng.choice((LE, GE, EQ))
            slack = Fraction(lp_rng.randint(0, 3))
            rhs = value + slack if relation == LE else value - slack if relation == GE else value
            lp.constrain(coeffs, relation, rhs)
        point = lp_feasible(lp)
        if point is None or not lp.satisfied_by(point):
            failures.append((t, "lp re-verification"))
    _report(9, failures, "1000 networks float-consistent and bit-exact, 200 LPs re-verified")


# -- criterion 10: scaling demonstration ---------------------------------------


def test_criterion_10_scaling():
    failures = []
    started = time.perf_counter()
    records = run_bench("sat", 14, 22, trials=3)
    elapsed = time.perf_counter() - started
    for r in records:
        if r.states != 1 << r.n:
            failures.append((r.n, "state count", r.states))
    xs = [r.n for r in records]
    ys = [math.log2(r.median_ms) for r in records]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    if not 0.8 <= slope <= 1.2:
        failures.append(("slope", slope))
    if elapsed >= 600:
        failures.append(("runtime", elapsed))
    _report(10, failures, f"states exact, slope {slope:.3f}, {elapsed:.0f}s")
