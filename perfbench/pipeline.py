"""One instance through invforge's public API, and the checks on its output.

parse -> compile -> serialize -> load -> query oracle -> source oracle ->
witness maps + exact re-verify -> constants_valid. Everything after the
load works on the loaded artifact, as `invforge invert` would.

Each call into a layer goes through `call(name, fn, *args)`, which is a
plain call on untraced runs and a span on traced runs (see spans.py).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field

from invforge.instances import HalfCliqueQuery, VertexCoverQuery, parse_cvp, parse_dimacs, parse_graph
from invforge.oracles import (
    enumerate_patterns_invert,
    falsify_real,
    invert_binary_bruteforce,
    solve_cvp01_bruteforce,
    solve_halfclique_bruteforce,
    solve_sat_bruteforce,
    solve_vertexcover_bruteforce,
)
from invforge.ratio import parse_ratio
from invforge.reductions import (
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
from invforge.relunet import distance_pow, forward

import reference
from workloads import FALSIFY_RESTARTS, Instance


def direct(name, fn, *args, **kwargs):
    """The untraced `call`."""
    return fn(*args, **kwargs)


@dataclass
class Outcome:
    id: str
    family: str
    decision: str | None = None
    errors: list = field(default_factory=list)
    artifact_bytes: int = 0
    scan_states: int = 0
    source_states: int = 0
    pattern_leaves: int = 0
    lp_pivots: int = 0
    falsify_points: int = 0
    falsify_calls: int = 0


def _parse(inst: Instance):
    if inst.kind == "sat":
        return parse_dimacs(inst.text)
    if inst.kind == "cvp":
        return parse_cvp(inst.text)
    g = parse_graph(inst.text)
    if inst.kind == "halfclique":
        return HalfCliqueQuery(g, parse_ratio(inst.bound))
    return VertexCoverQuery(g, inst.size)


COMPILERS = {
    "sat": lambda inst, src: sat_to_exact_binary(src),
    "sat-real": lambda inst, src: sat_to_exact_real(src),
    "cvp": lambda inst, src: cvp_to_approx_binary(src),
    "cvp-real": lambda inst, src: cvp_to_approx_real(src),
    "halfclique": lambda inst, src: halfclique_to_approx(src, inst.p),
    "halfclique-real": lambda inst, src: halfclique_to_approx_real(src, inst.p),
    "vertexcover": lambda inst, src: vertexcover_to_approx(src, inst.p),
}

SOURCE_ORACLES = {
    "sat": lambda inst, src: solve_sat_bruteforce(src),
    "cvp": lambda inst, src: solve_cvp01_bruteforce(src),
    "halfclique": lambda inst, src: solve_halfclique_bruteforce(src, inst.p),
    "vertexcover": lambda inst, src: solve_vertexcover_bruteforce(src),
}


def _source_form(kind: str, bits):
    """A 0/1 witness tuple in the form forward_witness and reference.check take."""
    if kind == "sat":
        return tuple(bool(b) for b in bits)
    if kind == "cvp":
        return tuple(int(b) for b in bits)
    return frozenset(i + 1 for i, b in enumerate(bits) if b == 1)


def _query_oracle(call, inst: Instance, query, constants, out: Outcome):
    if inst.family == "sat-real":
        verdict = call("oracles.pattern", enumerate_patterns_invert, query)
        out.pattern_leaves = verdict.stats.patterns_enumerated
        out.lp_pivots = verdict.stats.lp_pivots
    elif inst.family.endswith("-real"):
        verdict = call(
            "oracles.falsify",
            falsify_real,
            query,
            restarts=FALSIFY_RESTARTS,
            seed=inst.falsify_seed,
            corner_levels=(0, constants["clamp_hi"]),
        )
        out.falsify_points = verdict.stats.latents_enumerated
        out.falsify_calls = 1
    else:
        verdict = call("oracles.scan", invert_binary_bruteforce, query)
        out.scan_states = verdict.stats.latents_enumerated
    return verdict


def run_instance(call, inst: Instance, expected: str | None) -> Outcome:
    """Decide and check one instance; every failure lands in Outcome.errors."""
    out = Outcome(inst.id, inst.family)
    try:
        _pipeline(call, inst, expected, out)
    except Exception:  # noqa: BLE001 - an escaped exception is an error, and the run goes on
        out.errors.append("exception: " + traceback.format_exc(limit=4).strip().splitlines()[-1])
    return out


def _pipeline(call, inst: Instance, expected: str | None, out: Outcome) -> None:
    source = call("instances.parse", _parse, inst)
    artifact = call("reductions.compile", COMPILERS[inst.family], inst, source)
    text = call("reductions.serialize", artifact_to_json, artifact)
    out.artifact_bytes = len(text.encode())
    loaded = call("reductions.load", artifact_from_json, text)
    query = loaded.query

    verdict = _query_oracle(call, inst, query, loaded.constants, out)
    src_verdict = call("oracles.source", SOURCE_ORACLES[inst.kind], inst, source)
    out.source_states = src_verdict.stats.latents_enumerated
    out.decision = verdict.decision

    if verdict.decision != src_verdict.decision:
        out.errors.append(f"verdict: query {verdict.decision}, source {src_verdict.decision}")
    if expected is not None and verdict.decision != expected:
        out.errors.append(f"expected {expected}, got {verdict.decision}")

    if src_verdict.is_yes:
        witness = _source_form(inst.kind, src_verdict.witness)
        if not call("bench.check", reference.check, inst.kind, inst.truth, witness):
            out.errors.append("source witness fails the reference check")
        latent = call("reductions.witness", forward_witness, loaded, witness)
        image = call("relunet.forward", forward, query.network, latent)
        dist = call("relunet.distance_pow", distance_pow, image, query.target, query.p)
        if dist.value > query.threshold_pow:
            out.errors.append("forward witness misses the threshold")
    if verdict.is_yes:
        back = call("reductions.witness", backward_witness, loaded, verdict.witness)
        if not call("bench.check", reference.check, inst.kind, inst.truth, back):
            out.errors.append("backward witness fails the reference check")

    if not call("reductions.constants", constants_valid, loaded):
        out.errors.append("constants invalid")
