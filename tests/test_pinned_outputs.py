"""Every oracle output on a fixed corpus, pinned as one digest per entry.

An entry is one oracle call: its decision, witness, certificate and stats
(none of which depend on timing), and, for a query oracle, the sha256 of the
artifact it decided. The corpus is drawn from invforge's own generators:
`run_verify` for every family (cvp and cvp-real also at p = 3), logged
through a wrapped `cli.decide` and wrapped `FAMILIES` entries, plus direct
calls of the two exhaustive binary oracles on a fixed set that includes
queries beyond int64, and of the pattern oracle in thresholded mode (p = 1,
threshold > 0) on cvp-real queries.

A change that moves an output on purpose re-records the pins and names the
moved entries in CHANGES.md. To re-record, and first print how many entries
moved per key pattern (numeric path parts and seeds read as *):

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import collections
import dataclasses
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

from invforge import cli, oracles
from invforge.instances import (
    CvpInstance,
    HalfCliqueQuery,
    VertexCoverQuery,
    gen_random_cvp,
    gen_random_graph,
    gen_random_ksat,
)
from invforge.oracles import enumerate_patterns_invert, invert_binary_bruteforce, solve_cvp01_bruteforce
from invforge.reductions import (
    DOMAIN_01,
    DOMAIN_PM1,
    InversionQuery,
    LatentDomain,
    artifact_to_json,
    cvp_to_approx_binary,
    cvp_to_approx_real,
    halfclique_to_approx,
    sat_to_exact_binary,
    vertexcover_to_approx,
)
from invforge.relunet import ReluNetwork, forward, layer

PINS = Path(__file__).with_name("pinned_outputs.json")

VERIFY_SEEDS = (1, 2)
# (family, n_max, trials, p)
VERIFY_RUNS = (
    ("sat", 4, 30, None),
    ("sat-real", 2, 30, None),
    ("cvp", 4, 30, None),
    ("cvp", 4, 30, 3),
    ("cvp-real", 3, 30, None),
    ("cvp-real", 3, 20, 3),
    ("halfclique", 8, 30, None),
    ("halfclique-real", 4, 20, None),
    ("vertexcover", 6, 30, None),
)
# (n, seed) of gen_random_cvp(n, 1, seed, p=1): six YES, and six NO (n = 1: 4, 10, 16; n = 2: 4, 5, 18)
PATTERN_DRAWS = ((1, 0), (1, 1), (1, 2), (1, 4), (1, 10), (1, 16), (2, 0), (2, 3), (2, 16), (2, 4), (2, 5), (2, 18))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verify_entries(log):
    for (name, n_max, trials, p), seed in itertools.product(VERIFY_RUNS, VERIFY_SEEDS):
        prefix = f"verify/{name}/p={p}/seed={seed}"
        fam, decide = cli.FAMILIES[name], cli.decide
        label, compiled = [], []

        def compile_kept(source, p, fam=fam, compiled=compiled):  # decide sees only the query
            compiled[:] = [fam.compile(source, p)]
            return compiled[0]

        def invert(query, restarts, trial, corner_levels, prefix=prefix, label=label, compiled=compiled):
            label[:] = [trial]
            verdict = decide(query, restarts, trial, corner_levels)
            log(f"{prefix}/{trial}/invert", artifact=_sha(artifact_to_json(compiled[0])), **verdict.to_dict())
            return verdict

        def solve(source, p, fam=fam, prefix=prefix, label=label):
            verdict = fam.solve(source, p)
            log(f"{prefix}/{label[0]}/solve", **verdict.to_dict())
            return verdict

        cli.FAMILIES[name] = dataclasses.replace(fam, compile=compile_kept, solve=solve)
        cli.decide = invert
        try:
            report = cli.run_verify(name, n_max, trials, seed, p=p).to_dict()
        finally:
            cli.FAMILIES[name], cli.decide = fam, decide
        del report["wall_time_s"]
        log(f"{prefix}/report", **report)


def _layer_query(rng, n, domain, scale):
    """A two-layer query with entries up to `scale`; most targets are the output at some latent."""

    def entry():
        return Fraction(rng.randint(-scale, scale), rng.randint(1, 3))

    width = rng.randint(1, 3)
    first = layer([[entry() for _ in range(n)] for _ in range(width)], [entry() for _ in range(width)])
    net = ReluNetwork(n, (first, layer([[entry() for _ in range(width)]], [entry()])))
    levels = (-1, 1) if domain == DOMAIN_PM1 else (0, 1)
    target = forward(net, [Fraction(rng.choice(levels)) for _ in range(n)])
    if rng.random() < 0.3:
        target = (target[0] + rng.randint(1, 3),)
    theta = Fraction(rng.choice((0, 1, 2)))
    return InversionQuery(net, target, rng.choice((1, 2, 3)), theta, LatentDomain(domain, n))


def _binary_queries():
    for seed in range(4):
        formula = gen_random_ksat(6 + seed, 2 * (6 + seed), 3, seed)
        yield f"sat/{seed}", sat_to_exact_binary(formula).query
        yield f"cvp/{seed}", cvp_to_approx_binary(gen_random_cvp(3 + seed % 2, 2, seed, p=1 + 2 * (seed % 2))).query
        g = gen_random_graph(6, 0.6, seed=seed)
        bound = cli._tie_free_bound(g, 2, random.Random(seed))
        yield f"halfclique/{seed}", halfclique_to_approx(HalfCliqueQuery(g, bound), 2).query
        yield f"vertexcover/{seed}", vertexcover_to_approx(VertexCoverQuery(gen_random_graph(6, 0.5, seed=seed), 3), 2).query
    rng = random.Random(16)
    for index in range(12):
        scale = (1 << 62) if index % 2 else 40
        domain = (DOMAIN_01, DOMAIN_PM1)[index // 2 % 2]
        yield f"layers/{index}", _layer_query(rng, rng.randint(1, 7), domain, scale)


def _cvp_instances():
    for seed in range(12):
        n, d, p = 2 + seed % 6, 1 + seed % 3, (1, 3, 5)[seed % 3]
        inst = gen_random_cvp(n, d, seed, p=p)
        yield f"random/{seed}", inst
        for shift in (29, 60):  # near the int64 boundary and far beyond it
            factor = 1 << shift
            scaled = CvpInstance(
                tuple(tuple(v * factor for v in row) for row in inst.basis),
                tuple(t * factor for t in inst.target),
                inst.radius * factor,
                inst.p,
            )
            yield f"random/{seed}/x2^{shift}", scaled
    # d * c^p <= 2^63 - 1 < 2 * d * c^p, for c the largest sum_i |B_ri| + |t_r|: the
    # layer rule scanned these in object; the per-unit bound scans them in int64
    big = 1 << 61
    basis = ((Fraction(big), Fraction(big - 5), Fraction(3)),)
    for radius in (0, 1, 2):  # the nearest point, y = (1, 0, 1), is at distance 1
        yield f"band/p1/{radius}", CvpInstance(basis, (Fraction(big + 4),), Fraction(radius), 1)
    c = 1_300_000
    basis = ((Fraction(c // 2), Fraction(c // 4), Fraction(-c // 8)), (Fraction(5), Fraction(-7), Fraction(c // 2)))
    target = (Fraction(c // 2 - c // 8 + 1), Fraction(c // 2 + 4))
    for radius in (0, 1, 2):  # the nearest point, y = (1, 0, 1), is at distance^3 2
        yield f"band/p3/{radius}", CvpInstance(basis, target, Fraction(radius), 3)


def collect() -> dict:
    """Every corpus entry, in order: key -> the sha256 of its record."""
    entries = {}

    def log(key, **record):
        assert key not in entries, key
        entries[key] = _sha(json.dumps(record, sort_keys=True))

    _verify_entries(log)
    default = oracles._CHUNK_ELEMENTS
    for chunk in (default, 64):  # 64 elements: most scans take several chunks
        oracles._CHUNK_ELEMENTS = chunk
        try:
            for key, query in _binary_queries():
                log(f"binary/{chunk}/{key}", **invert_binary_bruteforce(query).to_dict())
            for key, inst in _cvp_instances():
                log(f"cvp01/{chunk}/{key}", **solve_cvp01_bruteforce(inst).to_dict())
        finally:
            oracles._CHUNK_ELEMENTS = default
    for n, seed in PATTERN_DRAWS:
        query = cvp_to_approx_real(gen_random_cvp(n, 1, seed, p=1)).query
        log(f"pattern/cvp-real/{n}/{seed}", **enumerate_patterns_invert(query).to_dict())
    return entries


def _pattern(key: str) -> str:
    """The key with its numeric path parts and seeds read as *."""
    return "/".join("*" if part.isdigit() else re.sub(r"^seed=\d+$", "seed=*", part) for part in key.split("/"))


def moved(pinned: dict, current: dict) -> collections.Counter:
    """Entries that moved, appeared or vanished, counted per key pattern."""
    keys = pinned.keys() | current.keys()
    return collections.Counter(_pattern(k) for k in keys if pinned.get(k) != current.get(k))


def test_outputs_are_pinned():
    pinned = json.loads(PINS.read_text())
    current = collect()
    count = sum(moved(pinned, current).values())
    for key, digest in pinned.items():
        assert current.get(key) == digest, f"{count} of {len(pinned)} entries moved; first: {key}"
    assert list(current) == list(pinned), "the corpus gained entries the pins lack"


if __name__ == "__main__":
    current = collect()
    for pattern, count in sorted(moved(json.loads(PINS.read_text()), current).items()):
        print(f"{count:6d}  {pattern}")
    PINS.write_text(json.dumps(current, indent=1) + "\n")
