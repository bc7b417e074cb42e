from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invforge.instances import (
    CnfFormula,
    CvpInstance,
    HalfCliqueQuery,
    ParseError,
    VertexCoverQuery,
    WeightedGraph,
    assignment_satisfies,
    emit_cvp,
    emit_dimacs,
    emit_graph,
    gen_random_cvp,
    gen_random_graph,
    gen_random_ksat,
    graph,
    parse_cvp,
    parse_dimacs,
    parse_graph,
)
from invforge.reductions import artifact_from_json, artifact_to_json, cvp_to_approx_real
from invforge.relunet import deserialize, serialize


def test_parse_dimacs_basic():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert f.num_vars == 2
    assert f.num_clauses == 2
    assert f.clause_width == 2
    assert f.clauses == ((1, 2), (-1, 2))


def test_parse_dimacs_width_one():
    f = parse_dimacs("c comment\np cnf 1 1\n1 0\n")
    assert (f.num_vars, f.num_clauses, f.clause_width) == (1, 1, 1)


def test_parse_dimacs_rejections():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n0\n")  # empty clause
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 2\n1 0\n1 2 0\n")  # mixed widths
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n2 0\n")  # literal out of range
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")  # no header
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 3\n1 2 0\n")  # clause count mismatch
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 1 0\n")  # repeated variable


def test_parse_graph_basic():
    g = parse_graph("graph 2\n1 2 1/1\n")
    assert g.num_vertices == 2
    assert g.edges == ((1, 2, Fraction(1)),)


def test_parse_graph_rejections():
    with pytest.raises(ParseError):
        parse_graph("graph 2\n1 2 1\n2 1 1\n")  # duplicate edge
    with pytest.raises(ParseError):
        parse_graph("graph 2\n1 1 1\n")  # self loop
    with pytest.raises(ParseError):
        parse_graph("graph 2\n1 2 0\n")  # nonpositive root-weight
    with pytest.raises(ParseError):
        parse_graph("graph 2\n1 3 1\n")  # vertex out of range


def test_parse_cvp_basic():
    inst = parse_cvp("cvp 1 1 1\n1\n2\n1/2\n")
    assert inst.basis == ((Fraction(1),),)
    assert inst.target == (Fraction(2),)
    assert inst.radius == Fraction(1, 2)
    assert inst.gap is None


def test_parse_cvp_with_gap_and_rejections():
    inst = parse_cvp("cvp 1 2 3\n1 2\n3\n1/2\n1/8\n")
    assert inst.gap == Fraction(1, 8)
    with pytest.raises(ParseError):
        parse_cvp("cvp 2 1 1\n1\n2\n1/2\n")  # missing basis row
    with pytest.raises(ParseError):
        parse_cvp("cvp 1 1 1\n1 2\n2\n1/2\n")  # row arity


def test_emitters_roundtrip_bitexact():
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n-1 3 0\n")
    assert parse_dimacs(emit_dimacs(f)) == f
    g = parse_graph("graph 3\n1 2 3/4\n2 3 2/1\n")
    assert parse_graph(emit_graph(g)) == g
    inst = parse_cvp("cvp 2 2 3\n1 1/2\n-1 2\n1 0\n5/8\n1/16\n")
    assert parse_cvp(emit_cvp(inst)) == inst


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_generated_graphs_roundtrip(seed, n):
    g = gen_random_graph(n, 0.5, seed=seed, denom_max=4)
    assert parse_graph(emit_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 10))
def test_generated_formulas_roundtrip_and_uniform(seed, n, m):
    k = min(2, n)
    f = gen_random_ksat(n, m, k, seed)
    assert parse_dimacs(emit_dimacs(f)) == f
    assert all(len(c) == k for c in f.clauses)
    assert all(len({abs(l) for l in c}) == k for c in f.clauses)


def test_generators_deterministic():
    assert gen_random_ksat(5, 8, 3, 42) == gen_random_ksat(5, 8, 3, 42)
    assert gen_random_graph(6, 0.4, seed=42) == gen_random_graph(6, 0.4, seed=42)
    assert gen_random_cvp(3, 2, seed=42) == gen_random_cvp(3, 2, seed=42)


def test_gen_ksat_rejects_wide_clauses():
    with pytest.raises(ValueError):
        gen_random_ksat(2, 1, 3, 0)


def test_gen_cvp_covers_both_verdicts():
    from invforge.oracles import solve_cvp01_bruteforce

    verdicts = set()
    for seed in range(1000):
        inst = gen_random_cvp(2, 2, seed=seed)
        verdicts.add(solve_cvp01_bruteforce(inst).decision)
        if len(verdicts) == 2:
            break
    assert verdicts == {"YES", "NO"}


def test_assignment_satisfies():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert assignment_satisfies(f, (False, True))
    assert not assignment_satisfies(f, (True, False))


def test_type_invariants():
    with pytest.raises(ValueError):
        CnfFormula(2, 2, ((1, 1),))
    with pytest.raises(ValueError):
        WeightedGraph(3, ((1, 1, Fraction(1)),))
    with pytest.raises(ValueError):
        HalfCliqueQuery(graph(3, []), Fraction(1))  # odd n
    with pytest.raises(ValueError):
        VertexCoverQuery(graph(3, []), 4)  # size out of range
    with pytest.raises(ValueError):
        CvpInstance(((Fraction(1),),), (Fraction(0),), Fraction(-1), 1)


_GADGET = cvp_to_approx_real(parse_cvp("cvp 1 1 1\n1\n2\n1/8\n"))
_DOCUMENTS = (
    "p cnf 3 2\n1 -2 0\n2 3 0\n",
    "graph 4\n1 2 1/1\n3 4 2/1\n",
    "cvp 2 2 1\n1 1/2\n0 2\n3/2 2\n1/2\n1/8\n",
    artifact_to_json(_GADGET),
    serialize(_GADGET.query.network),
)
# arbitrary text, and each valid document with a few characters replaced at some point
_TEXTS = st.one_of(
    st.text(),
    st.builds(
        lambda doc, at, cut, insert: doc[: at % (len(doc) + 1)] + insert + doc[at % (len(doc) + 1) + cut :],
        st.sampled_from(_DOCUMENTS), st.integers(0, 1 << 16), st.integers(0, 8), st.text(max_size=8),
    ),
)


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
@example("[" * 100000)  # nesting past the recursion limit
def test_loaders_raise_only_value_error(text):
    for load in (parse_dimacs, parse_graph, parse_cvp, artifact_from_json, deserialize):
        try:
            load(text)
        except ValueError:
            pass
