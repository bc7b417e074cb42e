import random
from fractions import Fraction

import pytest

from invforge import reductions
from invforge.cli import FAMILIES
from invforge.instances import (
    CvpInstance,
    HalfCliqueQuery,
    VertexCoverQuery,
    cvp_distance_pow,
    gen_random_cvp,
    gen_random_ksat,
    graph,
    parse_dimacs,
)
from invforge.oracles import (
    enumerate_patterns_invert,
    falsify_real,
    invert_binary_bruteforce,
    solve_cvp01_bruteforce,
    solve_halfclique_bruteforce,
    solve_sat_bruteforce,
)
from invforge.reductions import (
    DOMAIN_01,
    DOMAIN_PM1,
    DOMAIN_REAL,
    MODE_GENERAL,
    MODE_QUARTER,
    ReductionArtifact,
    UnsupportedReduction,
    artifact_from_json,
    artifact_to_json,
    backward_witness,
    beta_root,
    binarization_gadget,
    choose_alpha_halfclique,
    choose_alpha_vc,
    choose_c,
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
from invforge.relunet import distance_pow, forward, forward_layers

ONE = Fraction(1)
ZERO = Fraction(0)


# -- exact satisfiability reductions ----------------------------------------


def test_sat_binary_worked_matrix():
    art = sat_to_exact_binary(parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n"))
    net = art.query.network
    assert net.layers[0].weights == ((Fraction(-1), Fraction(-1)), (ONE, Fraction(-1)))
    assert net.layers[0].bias == (Fraction(-1), Fraction(-1))
    assert net.layers[1].weights == ((ONE, ONE),)
    assert art.query.target == (ZERO,)
    assert art.query.domain.kind == DOMAIN_PM1
    assert net.width == 2  # clause count


def test_sat_binary_roundtrip_examples():
    art = sat_to_exact_binary(parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n"))
    assert invert_binary_bruteforce(art.query).is_yes
    # witness (1,1) corresponds to the all-true satisfying assignment
    d = distance_pow(forward(art.query.network, (ONE, ONE)), art.query.target, 1)
    assert d.value == 0

    contradiction = sat_to_exact_binary(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n"))
    assert contradiction.query.network.layers[0].bias == (ZERO, ZERO)  # k = 1
    verdict = invert_binary_bruteforce(contradiction.query)
    assert not verdict.is_yes
    # the minimum output is exactly 1
    best = min(
        distance_pow(forward(contradiction.query.network, (Fraction(v),)), (ZERO,), 1).value
        for v in (-1, 1)
    )
    assert best == 1


def test_sat_real_target_and_clamp():
    art = sat_to_exact_real(parse_dimacs("p cnf 2 1\n1 2 0\n"))
    assert art.query.target == (ZERO, Fraction(2))
    assert art.query.domain.kind == DOMAIN_REAL
    assert art.query.network.depth == 4
    # clamping (5, -7) to [-1, 1] gives |v| sum of 2 in the last coordinate
    out = forward(art.query.network, (Fraction(5), Fraction(-7)))
    assert out[1] == 2


def test_sat_real_satisfying_assignment_maps_exactly():
    formula = parse_dimacs("p cnf 2 2\n1 -2 0\n1 2 0\n")
    art = sat_to_exact_real(formula)
    source = solve_sat_bruteforce(formula)
    assert source.is_yes
    latent = forward_witness(art, tuple(bool(v) for v in source.witness))
    assert forward(art.query.network, latent) == art.query.target
    assert backward_witness(art, latent) == tuple(bool(v) for v in source.witness)
    with pytest.raises(ValueError, match="latent does not clamp to a"):
        backward_witness(art, (latent[0], Fraction(1, 2)))


def test_sat_real_yes_via_patterns():
    art = sat_to_exact_real(parse_dimacs("p cnf 1 1\n1 0\n"))
    verdict = enumerate_patterns_invert(art.query)
    assert verdict.is_yes
    assert verdict.witness[0] >= 1


# -- lattice reduction --------------------------------------------------------


def test_cvp_binary_shape_and_examples():
    inst = CvpInstance(((ONE,),), (Fraction(2),), Fraction(1, 2), 1)
    art = cvp_to_approx_binary(inst)
    assert art.query.network.width == 2  # 2 * d: one +/- pair per lattice row
    assert art.query.domain == art.query.domain.__class__(DOMAIN_01, 1)  # one latent per coefficient
    assert art.query.network.layers[0].weights == ((ONE,), (-ONE,))
    assert art.query.network.layers[0].bias == (Fraction(-2), Fraction(2))
    assert art.constants == {}
    assert not invert_binary_bruteforce(art.query).is_yes

    exact_hit = CvpInstance(((ONE,),), (ONE,), ZERO, 1)
    verdict = invert_binary_bruteforce(cvp_to_approx_binary(exact_hit).query)
    assert verdict.is_yes
    assert verdict.witness == (ONE,)


def test_cvp_compilers_build_even_p():
    # the compilers build every p; `reduce` refuses even p (tests/test_cli.py)
    inst = CvpInstance(((ONE,),), (ONE,), ONE, 2)
    binary = cvp_to_approx_binary(inst)
    assert binary.query.p == 2 and binary.query.threshold_pow == 1
    assert cvp_to_approx_real(inst).query.p == 2


def test_cvp_stacking_identity_exact():
    rng = random.Random(4)
    for seed in range(25):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        p = rng.choice((1, 3))
        inst = gen_random_cvp(n, d, seed=seed, p=p)
        art = cvp_to_approx_binary(inst)
        stacked = art.query.network.layers[0]
        inner_rows = stacked.weights[: len(stacked.weights) // 2]
        inner_bias = stacked.bias[: len(stacked.bias) // 2]
        assert art.query.domain.dim == n
        for index in range(1 << n):
            z = tuple(Fraction((index >> (n - 1 - i)) & 1) for i in range(n))
            lhs = distance_pow(forward(art.query.network, z), art.query.target, p).value
            rhs = sum(
                abs(sum(w * v for w, v in zip(row, z)) + b) ** p
                for row, b in zip(inner_rows, inner_bias)
            )
            assert lhs == rhs == cvp_distance_pow(inst.basis, inst.target, z, p)


def test_cvp_witness_translation_both_ways():
    inst = CvpInstance(((ONE, Fraction(2)),), (Fraction(2),), ZERO, 1)
    art = cvp_to_approx_binary(inst)
    latent = forward_witness(art, (0, 1))
    assert latent == (ZERO, ONE)
    assert backward_witness(art, latent) == (0, 1)
    assert all(type(y) is int for y in backward_witness(art, latent))
    with pytest.raises(ValueError):
        backward_witness(art, (ONE, Fraction(1, 2)))  # not a 0/1 latent
    with pytest.raises(ValueError):
        forward_witness(art, (0, 2))  # not a 0/1 coefficient vector


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_witness_maps_check_the_length(name):
    """Both maps refuse a witness one entry too long or too short, naming both lengths.

    A vertex set has no length of its own; its vertices must lie in 1..dim,
    so vertex dim + 1 and vertex 0 stand in for the long and the short one.
    """
    family = FAMILIES[name]
    art = family.compile(family.draw(random.Random(3), 3, 4, family.default_p), family.default_p)
    dim = art.query.domain.dim
    witness = family.witness(tuple(Fraction(i % 2) for i in range(dim)))
    assert len(forward_witness(art, witness)) == dim
    if isinstance(witness, frozenset):
        for vertex in (dim + 1, 0):
            with pytest.raises(ValueError, match=rf"is not within 1\.\.{dim}$"):
                forward_witness(art, witness | {vertex})
    else:
        for wrong in (witness + (ONE,), witness[:-1]):
            with pytest.raises(ValueError, match=f"has {len(wrong)} entries, the domain {dim} latents"):
                forward_witness(art, wrong)
    for length in (dim + 1, dim - 1):
        with pytest.raises(ValueError, match=f"has {length} entries, the domain {dim} latents"):
            backward_witness(art, (ZERO,) * length)


# -- binarization gadget ------------------------------------------------------


def test_gadget_quarter_mode_shape():
    inst = CvpInstance(((ONE,), (ONE,)), (ONE, ZERO), Fraction(1, 8), 1)
    art = cvp_to_approx_real(inst)
    assert art.constants["gadget_mode"] == MODE_QUARTER
    net = art.query.network
    assert net.depth == 5
    N = art.query.domain.dim
    assert art.query.target[-1] == Fraction(N) / 2  # appended coordinate N*U/2


def test_gadget_quarter_requires_small_delta():
    inst = CvpInstance(((ONE,),), (ONE,), Fraction(1, 2), 1)
    inner = cvp_to_approx_binary(inst)
    with pytest.raises(ValueError):
        binarization_gadget(inner, Fraction(1, 2), MODE_QUARTER)


def test_gadget_binary_latents_hit_the_sum_coordinate():
    inst = CvpInstance(((ONE, Fraction(3)),), (Fraction(2),), Fraction(1, 8), 1)
    art = cvp_to_approx_real(inst)
    N = art.query.domain.dim
    U = art.constants["clamp_hi"]
    for index in range(1 << N):
        z = tuple(U * ((index >> (N - 1 - i)) & 1) for i in range(N))
        out = forward(art.query.network, z)
        assert out[-1] == Fraction(N) * U / 2


def test_gadget_general_mode_constants():
    assert choose_c(Fraction(1, 2)) == 5
    inst = CvpInstance(((ONE,),), (Fraction(2),), Fraction(1, 2), 1)
    art = cvp_to_approx_real(inst)
    assert art.constants["gadget_mode"] == MODE_GENERAL
    c, delta = art.constants["c"], art.constants["delta"]
    assert (c - 2) * delta >= 1
    assert constants_valid(art)


def test_gadget_mode_selection_rule():
    assert cvp_to_approx_real(CvpInstance(((ONE,),), (ONE,), Fraction(1, 8), 1)).constants[
        "gadget_mode"
    ] == MODE_QUARTER
    assert cvp_to_approx_real(CvpInstance(((ONE,),), (ONE,), Fraction(1, 4), 1)).constants[
        "gadget_mode"
    ] == MODE_GENERAL


@pytest.mark.parametrize(
    "route, mode, tamper",
    [
        ("cvp-real", MODE_GENERAL, {"c": Fraction(2)}),  # (c - 2) delta < 1
        ("cvp-real", MODE_QUARTER, {"delta": Fraction(1, 4)}),  # delta >= 1/4
        ("cvp-real", MODE_QUARTER, {"collapse_slope": ONE}),  # slope (bias - delta) < 1
        ("halfclique-real", MODE_GENERAL, {"c": Fraction(2)}),
    ],
    ids=["cvp-general-c", "cvp-quarter-delta", "cvp-quarter-collapse", "halfclique-general-c"],
)
def test_constants_valid_rejects_tampered_gadget_constants(route, mode, tamper):
    if route == "cvp-real":
        radius = Fraction(1, 8) if mode == MODE_QUARTER else Fraction(1, 2)
        art = cvp_to_approx_real(CvpInstance(((ONE,), (ONE,)), (ONE, ZERO), radius, 1))
    else:
        art = halfclique_to_approx_real(worked_halfclique(), 2)
    assert art.constants["gadget_mode"] == mode and constants_valid(art)
    tampered = ReductionArtifact(art.query, {**art.constants, **tamper}, art.witness_map)
    assert not constants_valid(tampered)


def test_gadget_witness_forwarding_and_backtranslation():
    for radius in (Fraction(1, 8), Fraction(1, 2)):
        inst = CvpInstance(((ONE, Fraction(2)),), (Fraction(2),), radius, 1)
        source = solve_cvp01_bruteforce(inst)
        assert source.is_yes
        art = cvp_to_approx_real(inst)
        y = tuple(int(v) for v in source.witness)
        latent = forward_witness(art, y)
        d = distance_pow(forward(art.query.network, latent), art.query.target, 1)
        assert d.value <= art.query.threshold_pow
        assert backward_witness(art, latent) == y


def test_gadget_accepted_latents_collapse_to_binary():
    # perturb a witness inside the acceptance ball: layer-4 bits stay exactly 0/1
    inst = CvpInstance(((ONE, ONE),), (ONE,), Fraction(1, 8), 1)
    art = cvp_to_approx_real(inst)
    eps = Fraction(1, 100)
    z = (ONE - eps, ZERO + eps)
    outs = forward_layers(art.query.network, z)
    bits = outs[3][: art.query.domain.dim]
    assert bits == (ONE, ZERO)
    assert backward_witness(art, z) == (1, 0)


# -- half-clique reduction ----------------------------------------------------


def worked_halfclique():
    g = graph(4, [(1, 2, 1), (3, 4, 2)])
    return HalfCliqueQuery(g, Fraction(2))


def test_halfclique_worked_example():
    art = halfclique_to_approx(worked_halfclique(), 2)
    assert art.constants["alpha_pow"] == 8
    assert art.query.threshold_pow == 53
    z = (ONE, ONE, ZERO, ZERO)
    d = distance_pow(forward(art.query.network, z), art.query.target, 2)
    assert d.value == 45
    assert invert_binary_bruteforce(art.query).is_yes
    assert solve_halfclique_bruteforce(worked_halfclique(), 2).is_yes
    assert constants_valid(art)


def test_halfclique_size_row_bias():
    art = halfclique_to_approx(worked_halfclique(), 2)
    stacked = art.query.network.layers[0]
    inner_count = len(stacked.weights) // 2
    beta = art.constants["beta"]
    assert stacked.bias[inner_count - 1] == -2 * beta  # -(n/2) * beta with n = 4


def test_halfclique_rejects_odd_p():
    with pytest.raises(UnsupportedReduction):
        halfclique_to_approx(worked_halfclique(), 3)


def test_halfclique_chooser_predicate():
    alpha_pow = choose_alpha_halfclique(2, Fraction(5), Fraction(2))
    assert alpha_pow == 8
    assert 8 * (9 - 1) > 5 + 8 * 2  # (3^p - 1) alpha^p > total + (3^p - 1) M


def test_halfclique_exact_split_realizes_penalty():
    art = halfclique_to_approx(worked_halfclique(), 2)
    assert art.constants["alpha_copies"] == 2
    assert art.constants["alpha_root"] == 2
    k, s = art.constants["alpha_copies"], art.constants["alpha_root"]
    assert k * s**2 == art.constants["alpha_pow"]


def test_halfclique_integer_fallback_when_split_large(monkeypatch):
    monkeypatch.setattr(reductions, "EXACT_SPLIT_MAX", 1)
    g = graph(4, [(1, 2, 1), (3, 4, 2)])
    hq = HalfCliqueQuery(g, Fraction(2))
    art = halfclique_to_approx(hq, 2)
    assert art.constants["alpha_copies"] == 1
    assert art.constants["alpha_root"] == 3  # ceil(sqrt(8))
    assert art.constants["alpha_pow"] == 9
    assert constants_valid(art)
    # with single-row penalties the stacked width is the canonical 2*(C(n,2)+1)
    assert art.query.network.width == 2 * (6 + 1)
    # round trip still agrees
    assert invert_binary_bruteforce(art.query).is_yes == solve_halfclique_bruteforce(hq, 2).is_yes


def test_halfclique_real_composition():
    hq = worked_halfclique()
    art = halfclique_to_approx_real(hq, 2)
    assert art.query.network.depth == 5
    assert art.query.domain.kind == DOMAIN_REAL
    assert art.constants["delta"] ** 2 >= art.query.threshold_pow
    # the scaled binary witness satisfies the real query exactly
    source = solve_halfclique_bruteforce(hq, 2)
    chosen = frozenset(i + 1 for i, v in enumerate(source.witness) if v == 1)
    latent = forward_witness(art, chosen)
    d = distance_pow(forward(art.query.network, latent), art.query.target, 2)
    assert d.value <= art.query.threshold_pow
    assert backward_witness(art, latent) == chosen


def test_halfclique_real_falsifier_roundtrip():
    rng = random.Random(8)
    for seed in range(6):
        from invforge.instances import gen_random_graph

        g = gen_random_graph(4, 0.6, seed=seed)
        denom = 1
        bound = Fraction(2 * rng.randint(0, 6) + 1, 2 * denom)
        hq = HalfCliqueQuery(g, bound)
        source = solve_halfclique_bruteforce(hq, 2)
        art = halfclique_to_approx_real(hq, 2)
        verdict = falsify_real(
            art.query, restarts=800, seed=seed, corner_levels=(0, art.constants["clamp_hi"])
        )
        assert verdict.is_yes == source.is_yes


# -- vertex-cover reduction ---------------------------------------------------


def test_vertexcover_path_example():
    g = graph(3, [(1, 2, 1), (2, 3, 1)])
    art = vertexcover_to_approx(VertexCoverQuery(g, 1), 2)
    assert art.query.threshold_pow == 2  # Z * alpha^p with Z = 2
    d = distance_pow(forward(art.query.network, (ONE, ZERO, ONE)), art.query.target, 2)
    assert d.value == 2
    verdict = invert_binary_bruteforce(art.query)
    assert verdict.is_yes
    assert backward_witness(art, verdict.witness) == frozenset({2})


def test_vertexcover_size_row_bias():
    g = graph(3, [(1, 2, 1), (2, 3, 1)])
    art = vertexcover_to_approx(VertexCoverQuery(g, 1), 2)
    beta = art.constants["beta"]
    stacked = art.query.network.layers[0]
    size_rows = [b for row, b in zip(stacked.weights, stacked.bias) if row == (beta,) * 3]
    assert size_rows == [-2 * beta]  # n - q = 2
    assert art.query.network.width == 2 * (2 + 1)  # 2 * (|E| + 1)


def test_vertexcover_triangle_no():
    g = graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    art = vertexcover_to_approx(VertexCoverQuery(g, 1), 2)
    assert not invert_binary_bruteforce(art.query).is_yes


def test_vertexcover_rejects_odd_p():
    g = graph(2, [(1, 2, 1)])
    with pytest.raises(UnsupportedReduction):
        vertexcover_to_approx(VertexCoverQuery(g, 1), 3)


# -- choosers and serialization ---------------------------------------------


def test_choosers():
    assert choose_alpha_vc() == 1
    assert beta_root(Fraction(53), 2) == 8  # 8**2 = 64, the smallest integer square > 53
    assert beta_root(Fraction(64), 2) == 9  # beta_pow must exceed the threshold
    assert choose_c(Fraction(1, 2)) == 5
    assert choose_c(Fraction(2)) == 4


def test_artifact_json_roundtrip():
    for art in (
        sat_to_exact_binary(gen_random_ksat(3, 4, 2, 0)),
        cvp_to_approx_binary(gen_random_cvp(2, 2, seed=1, p=1)),
        cvp_to_approx_real(gen_random_cvp(2, 2, seed=2, p=1)),
        halfclique_to_approx(worked_halfclique(), 2),
        vertexcover_to_approx(VertexCoverQuery(graph(3, [(1, 2, 1)]), 1), 2),
    ):
        doc = artifact_to_json(art)
        again = artifact_from_json(doc)
        assert again.query == art.query
        assert artifact_to_json(again) == doc
        assert constants_valid(again)


@pytest.mark.parametrize(
    "witness_map",
    [{"kind": "nope"}, {}, {"kind": "binarized", "scale": "1/1", "inner": {"kind": "nope"}}],
)
def test_unknown_witness_kind_raises(witness_map):
    compiled = sat_to_exact_binary(parse_dimacs("p cnf 2 1\n1 2 0\n"))
    art = ReductionArtifact(compiled.query, compiled.constants, witness_map)
    with pytest.raises(ValueError, match="unknown witness map kind"):
        constants_valid(art)
    with pytest.raises(ValueError, match="unknown witness map kind"):
        forward_witness(art, (True, False))
    with pytest.raises(ValueError, match="unknown witness map kind"):
        backward_witness(art, (ONE, -ONE))
