"""Command-line front end: compile reductions, run oracles, verify, bench.

Each verify family (a source problem on binary or real latents) is declared
once, as a `Family` record in `FAMILIES` below: its parser, compiler, source
oracle, random-instance draws, witness forms and default p. `reduce`,
`verify` and `bench` look families up there and derive their argparse
choices from it. No command names or tunes a query oracle: oracles.decide
picks it and its settings from the query alone.

Exit codes: 0 YES/success, 1 NO (or disagreements found), 2 usage/parse
error or any other failure (so a crash never reads as NO), 3 enumeration
cap exceeded. The INVFORGE_CAP environment variable overrides every
enumeration cap.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import instances
from .instances import (
    CnfFormula,
    CvpInstance,
    HalfCliqueQuery,
    VertexCoverQuery,
    assignment_satisfies,
    clique_weight,
    cvp_distance_pow,
    gen_random_cvp,
    gen_random_graph,
    gen_random_ksat,
    is_clique,
    is_cover,
    parse_cvp,
    parse_dimacs,
    parse_graph,
)
from .oracles import (
    YES,
    CapExceeded,
    Verdict,
    count_sat_assignments,
    decide,
    solve_cvp01_bruteforce,
    solve_halfclique_bruteforce,
    solve_sat_bruteforce,
    solve_vertexcover_bruteforce,
)
from .ratio import check_p, parse_ratio
from .relunet import distance_pow, forward
from .reductions import (
    ReductionArtifact,
    UnsupportedReduction,
    artifact_from_json,
    artifact_to_json,
    backward_witness,
    constants_valid,
    cvp_to_approx_binary,
    cvp_to_approx_real,
    forward_witness,
    halfclique_to_approx,
    halfclique_to_approx_real,
    sat_to_exact_binary,
    sat_to_exact_real,
    vertexcover_to_approx,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAP = 3

CSV_COLUMNS = ("family", "n", "trials", "median_ms", "states")


@dataclass
class VerifyReport:
    family: str
    trials: int
    agreements: int
    disagreements: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def passed(self) -> bool:
        return not self.disagreements


@dataclass
class BenchRecord:
    family: str
    n: int
    trials: int
    median_ms: float
    states: int


# -- source families ------------------------------------------------------------


def _needs(value, flag: str):
    if value is None:
        raise UnsupportedReduction(f"this route needs {flag}")
    return value


def _read_cvp(text: str, args) -> CvpInstance:
    inst = parse_cvp(text)
    if inst.p % 2 == 0:
        raise UnsupportedReduction("even p is handled by the half-clique / vertex-cover route")
    return inst


def _draw_ksat(rng: random.Random, ts: int, n_max: int, m_max: int, k_max: int) -> CnfFormula:
    n = rng.randint(1, n_max)
    m = rng.randint(1, min(m_max, max(1, 2 * n)))
    k = rng.randint(1, min(k_max, n))
    return gen_random_ksat(n, m, k, ts)


def _draw_cvp(rng: random.Random, ts: int, n_max: int, d_max: int, p: int) -> CvpInstance:
    n = rng.randint(1, n_max)
    d = rng.randint(1, d_max)
    return gen_random_cvp(n, d, seed=ts, p=p)


def _draw_halfclique(rng: random.Random, ts: int, n: int, density: float, p: int):
    g = gen_random_graph(n, density, seed=ts)
    return HalfCliqueQuery(g, _tie_free_bound(g, p, rng))


def _draw_vertexcover(rng: random.Random, ts: int, n_max: int, p: int) -> VertexCoverQuery:
    n = rng.randint(1, n_max)
    g = gen_random_graph(n, 0.5, seed=ts)
    return VertexCoverQuery(g, rng.randint(0, n))


def _all_small_covers(n_max: int):
    for n in range(1, min(n_max, 5) + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [
                (i, j, Fraction(1))
                for bit, (i, j) in enumerate(pairs)
                if mask >> bit & 1
            ]
            g = instances.WeightedGraph(n, tuple(edges))
            for q in range(n + 1):
                yield f"n{n}-m{mask}-q{q}", VertexCoverQuery(g, q)


def _boundary_cvp(seed: int, p: int) -> CvpInstance:
    """A diagonal-dominant instance whose minimum distance is exactly the radius."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    radius = Fraction(1, 2)
    basis = tuple(
        tuple(Fraction(2 if r == i else 0) for i in range(n)) for r in range(n)
    )
    anchor = [rng.randint(0, 1) for _ in range(n)]
    target = list(Fraction(2 * anchor[r]) for r in range(n))
    target[0] -= radius
    return CvpInstance(basis, tuple(target), radius, p)


def _tie_free_bound(g, p: int, rng: random.Random) -> Fraction:
    """A half-clique bound no clique weight can equal exactly.

    Achievable weights lie in (1/D)Z for D = lcm of the weight denominators,
    so an odd numerator over 2D can never tie.
    """
    denom = math.lcm(*((root**p).denominator for _, _, root in g.edges))
    total = sum((root**p for _, _, root in g.edges), Fraction(0))
    top = max(2, int(2 * denom * (total + 1)))
    return Fraction(2 * rng.randint(0, top) + 1, 2 * denom)


def _vertex_set(bits) -> frozenset:
    return frozenset(i + 1 for i, v in enumerate(bits) if v == 1)


def _halfclique_accepts(hq: HalfCliqueQuery, chosen, p: int) -> bool:
    return (
        is_clique(hq.graph, chosen)
        and len(chosen) == hq.graph.num_vertices // 2
        and clique_weight(hq.graph, chosen, p) < hq.bound
    )


def _bench_query(artifact: ReductionArtifact):
    return (lambda: decide(artifact.query)), 1 << artifact.query.domain.dim


def _bench_halfclique(n: int, seed: int):
    if n % 2 != 0:
        return None
    g = gen_random_graph(n, 0.5, seed=seed + n)
    bound = _tie_free_bound(g, 2, random.Random(seed + n))
    return _bench_query(halfclique_to_approx(HalfCliqueQuery(g, bound), 2))


def _bench_sat(n: int, seed: int):
    formula = gen_random_ksat(n, m=min(12, 2 * n), k=min(3, n), seed=seed + n)
    return (lambda: count_sat_assignments(formula)), 1 << n


@dataclass(frozen=True)
class Family:
    """One verify family: a source problem and its route; oracles.decide picks the query oracle."""

    parse: Callable  # (file text, reduce args) -> source; rejects flags the route cannot honour
    compile: Callable  # (source, p) -> ReductionArtifact
    solve: Callable  # (source, p) -> source Verdict
    draw: Callable  # (rng, trial seed, n_max, p) -> a random source instance for verify
    accepts: Callable  # (source, backward-mapped witness, p) -> does it solve the source?
    default_p: int
    witness: Callable = tuple  # the source oracle's 0/1 witness -> what forward_witness takes
    reaches: Callable = operator.le  # (distance of the forward-mapped witness, threshold)
    exhaustive: Callable | None = None  # n_max -> (label, source) pairs for verify --exhaustive
    boundary: Callable | None = None  # (seed, p) -> a YES instance verify always adds
    bench: Callable | None = None  # (n, seed) -> (timed job, states), or None to skip n


_SAT = Family(
    parse=lambda text, args: parse_dimacs(text),
    compile=lambda formula, p: sat_to_exact_binary(formula),
    solve=lambda formula, p: solve_sat_bruteforce(formula),
    draw=lambda rng, ts, n_max, p: _draw_ksat(rng, ts, n_max, 2 * n_max, 3),
    accepts=lambda formula, assignment, p: assignment_satisfies(formula, assignment),
    default_p=1,
    exhaustive=lambda n_max: (("exhaustive", f) for f in iter_all_formulas(min(n_max, 3), 2, 3)),
    bench=_bench_sat,
)
_CVP = Family(
    parse=_read_cvp,
    compile=lambda inst, p: cvp_to_approx_binary(inst),
    solve=lambda inst, p: solve_cvp01_bruteforce(inst),
    draw=lambda rng, ts, n_max, p: _draw_cvp(rng, ts, n_max, min(5, n_max), p),
    accepts=lambda inst, y, p: cvp_distance_pow(inst.basis, inst.target, y, inst.p)
    <= inst.radius**inst.p,
    default_p=1,
    boundary=_boundary_cvp,
    bench=lambda n, seed: _bench_query(
        cvp_to_approx_binary(gen_random_cvp(n, d=min(3, n), seed=seed + n))
    ),
)
_HALFCLIQUE = Family(
    parse=lambda text, args: HalfCliqueQuery(
        parse_graph(text), parse_ratio(_needs(args.bound, "--bound"))
    ),
    compile=halfclique_to_approx,
    solve=solve_halfclique_bruteforce,
    draw=lambda rng, ts, n_max, p: _draw_halfclique(
        rng, ts, rng.choice(range(4, n_max + 1, 2) or [4]), 0.5, p
    ),
    accepts=_halfclique_accepts,
    default_p=2,
    witness=_vertex_set,
    bench=_bench_halfclique,
)

# The family NAME + REAL_SUFFIX is the binarization-gadget route of the family NAME,
# which `reduce --from NAME --latent real` compiles.
REAL_SUFFIX = "-real"
FAMILIES = {
    "sat": _SAT,
    "sat-real": replace(
        _SAT,
        compile=lambda formula, p: sat_to_exact_real(formula),
        draw=lambda rng, ts, n_max, p: _draw_ksat(rng, ts, min(n_max, 2), 2, 2),
        exhaustive=None,
        bench=None,
    ),
    "cvp": _CVP,
    "cvp-real": replace(
        _CVP,
        compile=lambda inst, p: cvp_to_approx_real(inst),
        draw=lambda rng, ts, n_max, p: _draw_cvp(rng, ts, min(n_max, 3), 2, p),
        boundary=None,
        bench=None,
    ),
    "halfclique": _HALFCLIQUE,
    "halfclique-real": replace(
        _HALFCLIQUE,
        compile=halfclique_to_approx_real,
        draw=lambda rng, ts, n_max, p: _draw_halfclique(rng, ts, 4, 0.6, p),
        bench=None,
    ),
    "vertexcover": Family(
        parse=lambda text, args: VertexCoverQuery(
            parse_graph(text), _needs(args.size, "--size")
        ),
        compile=vertexcover_to_approx,
        solve=lambda vq, p: solve_vertexcover_bruteforce(vq),
        draw=_draw_vertexcover,
        accepts=lambda vq, cover, p: is_cover(vq.graph, cover) and len(cover) == vq.size,
        default_p=2,
        witness=_vertex_set,
        reaches=operator.eq,  # every edge costs exactly alpha**p, so a cover hits theta
        exhaustive=_all_small_covers,
        bench=lambda n, seed: _bench_query(
            vertexcover_to_approx(
                VertexCoverQuery(gen_random_graph(n, 0.5, seed=seed + n), n // 2), 2
            )
        ),
    ),
}


# -- reduce ------------------------------------------------------------------


def _build_artifact(args) -> ReductionArtifact:
    name = args.family + (REAL_SUFFIX if args.latent == "real" else "")
    if name not in FAMILIES:
        raise UnsupportedReduction(
            f"no {args.latent}-latent route for {args.family}; use --latent binary"
        )
    family = FAMILIES[name]
    source = family.parse(Path(args.in_file).read_text(), args)
    artifact = family.compile(source, family.default_p if args.p is None else check_p(args.p))
    if args.p not in (None, artifact.query.p):
        raise UnsupportedReduction(
            f"--p {args.p} does not apply: this route fixes p = {artifact.query.p}"
        )
    return artifact


def cmd_reduce(args) -> int:
    artifact = _build_artifact(args)
    Path(args.out_file).write_text(artifact_to_json(artifact))
    net = artifact.query.network
    summary = {
        "out": args.out_file,
        "width": net.width,
        "depth": net.depth,
        "latent_dim": artifact.query.domain.dim,
        "domain": artifact.query.domain.kind,
        "p": artifact.query.p,
        "threshold_pow": str(artifact.query.threshold_pow),
        "constants": {k: str(v) for k, v in artifact.constants.items()},
        "constants_valid": constants_valid(artifact),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_YES


# -- invert -------------------------------------------------------------------


def cmd_invert(args) -> int:
    artifact = artifact_from_json(Path(args.query).read_text())
    verdict = decide(artifact.query)
    print(json.dumps(verdict.to_dict(), sort_keys=True))
    return EXIT_YES if verdict.is_yes else EXIT_NO


# -- verify -------------------------------------------------------------------


def _check(family: Family, source, artifact: ReductionArtifact, verdict: Verdict):
    """Compare the query verdict with the source oracle and check both witness maps."""
    query = artifact.query
    truth = family.solve(source, query.p)
    agree = truth.is_yes == verdict.is_yes
    detail = {
        "source": truth.decision,
        "query": verdict.decision,
        "certificate": verdict.certificate,
    }
    if truth.is_yes:
        latent = forward_witness(artifact, family.witness(truth.witness))
        dist = distance_pow(forward(query.network, latent), query.target, query.p)
        if not family.reaches(dist.value, query.threshold_pow):
            agree, detail["witness_forward"] = False, "failed"
    if verdict.is_yes:
        try:
            back_ok = family.accepts(source, backward_witness(artifact, verdict.witness), query.p)
        except ValueError:
            back_ok = False
        if not back_ok:
            agree, detail["witness_back"] = False, "failed"
    if not constants_valid(artifact):
        agree, detail["constants"] = False, "invalid"
    return agree, detail


def run_verify(
    family: str,
    n_max: int,
    trials: int,
    seed: int,
    p: int | None = None,
    exhaustive: bool = False,
) -> VerifyReport:
    """Generate instances, solve both sides, and record agreements."""
    started = time.perf_counter()
    if family not in FAMILIES:
        raise ValueError(f"unknown verify family {family!r}")
    fam = FAMILIES[family]
    p = fam.default_p if p is None else check_p(p)
    if exhaustive and fam.exhaustive is None:
        raise ValueError(f"verify --exhaustive: family {family} has no exhaustive cases")
    report = VerifyReport(family=family, trials=0, agreements=0)

    def trial(label, source, must_be_yes: bool = False):
        artifact = fam.compile(source, p)
        verdict = decide(artifact.query)
        agree, detail = _check(fam, source, artifact, verdict)
        report.trials += 1
        if agree and (detail["source"] == YES or not must_be_yes):
            report.agreements += 1
        else:
            report.disagreements.append({"seed": label, **detail})

    if exhaustive:
        for label, source in fam.exhaustive(n_max):
            trial(label, source)
    else:
        for ts in range(seed * 100_003, seed * 100_003 + trials):
            trial(ts, fam.draw(random.Random(ts), ts, n_max, p))
    if fam.boundary is not None:
        trial("boundary", fam.boundary(seed, p), must_be_yes=True)

    report.disagreements.sort(key=lambda d: str(d.get("seed")))
    report.wall_time_s = time.perf_counter() - started
    return report


def iter_all_formulas(n_max: int, k_max: int, m_max: int):
    """Every clause-set formula with n <= n_max, k <= k_max, 1 <= m <= m_max.

    Clause sets (not sequences), so formulas differing only in clause order
    appear once.
    """
    for n in range(1, n_max + 1):
        for k in range(1, min(k_max, n) + 1):
            pool = []
            for variables in itertools.combinations(range(1, n + 1), k):
                for signs in itertools.product((1, -1), repeat=k):
                    pool.append(tuple(v * s for v, s in zip(variables, signs)))
            for m in range(1, m_max + 1):
                for clause_set in itertools.combinations(pool, m):
                    yield CnfFormula(n, k, clause_set)


def cmd_verify(args) -> int:
    report = run_verify(
        args.family,
        args.n_max,
        args.trials,
        args.seed,
        p=args.p,
        exhaustive=args.exhaustive,
    )
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_YES if report.passed else EXIT_NO


# -- bench --------------------------------------------------------------------


def run_bench(family: str, n_from: int, n_to: int, trials: int, seed: int = 0):
    """Time the exhaustive oracles; state counts are exact: 2^n for every family, CVP included."""
    bench = FAMILIES[family].bench if family in FAMILIES else None
    if bench is None:
        raise ValueError(f"unknown bench family {family!r}")
    records = []
    for n in range(n_from, n_to + 1):
        drawn = bench(n, seed)
        if drawn is None:
            continue
        job, states = drawn
        times_ms = []
        for _ in range(trials):
            t0 = time.perf_counter()
            job()
            times_ms.append((time.perf_counter() - t0) * 1000.0)
        records.append(
            BenchRecord(family, n, trials, statistics.median(times_ms), states)
        )
    return records


def write_bench_csv(records, path) -> list[str]:
    """Write the header and one row per record to path; return the rows."""
    rows = [f"{r.family},{r.n},{r.trials},{r.median_ms:.3f},{r.states}" for r in records]
    Path(path).write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
    return rows


def cmd_bench(args) -> int:
    records = run_bench(args.family, args.n_from, args.n_to, args.trials, seed=args.seed)
    for row in write_bench_csv(records, args.out):
        print(row)
    return EXIT_YES


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invforge",
        description="Compile SAT/CVP/graph instances into ReLU-network "
        "inversion queries and check them with exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="compile an instance into a query artifact")
    reduce_p.add_argument("--from", dest="family", required=True,
                          choices=[name for name in FAMILIES if not name.endswith(REAL_SUFFIX)])
    reduce_p.add_argument("--latent", required=True, choices=["binary", "real"])
    reduce_p.add_argument("--p", type=int, default=None)
    reduce_p.add_argument("--in", dest="in_file", required=True)
    reduce_p.add_argument("--out", dest="out_file", required=True)
    reduce_p.add_argument("--bound", default=None, help="half-clique weight bound (rational)")
    reduce_p.add_argument("--size", type=int, default=None, help="vertex-cover size")
    reduce_p.set_defaults(func=cmd_reduce)

    invert_p = sub.add_parser("invert", help="decide a query artifact; its query picks the oracle and its settings")
    invert_p.add_argument("--query", required=True)
    invert_p.set_defaults(func=cmd_invert)

    verify_p = sub.add_parser("verify", help="round-trip reductions against the oracles")
    verify_p.add_argument("--family", required=True, choices=list(FAMILIES))
    verify_p.add_argument("--n-max", dest="n_max", type=int, required=True)
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--p", type=int, default=None)
    verify_p.add_argument("--exhaustive", action="store_true")
    verify_p.set_defaults(func=cmd_verify)

    bench_p = sub.add_parser("bench", help="time the exhaustive oracles across sizes")
    bench_p.add_argument("--family", required=True,
                         choices=[name for name, family in FAMILIES.items() if family.bench])
    bench_p.add_argument("--n-from", dest="n_from", type=int, required=True)
    bench_p.add_argument("--n-to", dest="n_to", type=int, required=True)
    bench_p.add_argument("--trials", type=int, default=3)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--out", required=True)
    bench_p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:  # ParseError and UnsupportedReduction included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - a traceback exits 1, which would read as NO
        print(f"error: {type(exc).__name__}: {exc}".replace("\n", " "), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
