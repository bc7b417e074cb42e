import dataclasses
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from invforge.instances import parse_dimacs
from invforge.reductions import artifact_from_json, artifact_to_json, sat_to_exact_binary
from invforge.relunet import (
    Layer,
    ReluNetwork,
    as_fraction,
    deserialize,
    distance_pow,
    float_layers,
    forward,
    forward_float,
    forward_layers,
    layer,
    preactivations,
    serialize,
)


def identity_net(n=2):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return ReluNetwork(n, (layer(rows, [0] * n),))


def kernel_pattern(net, z):
    """Each unit's activation flag under the integer kernel; pre-activation 0 counts active."""
    return tuple(tuple(v >= 0 for v in pre) for pre, _ in preactivations(net, z))


def random_net(rng, max_depth=3, max_width=6, entry_bound=10):
    def entry():
        return Fraction(rng.randint(-entry_bound, entry_bound), rng.randint(1, 4))

    n = rng.randint(1, max_width)
    layers = []
    fan_in = n
    for _ in range(rng.randint(1, max_depth)):
        fan_out = rng.randint(1, max_width)
        rows = [[entry() for _ in range(fan_in)] for _ in range(fan_out)]
        layers.append(layer(rows, [entry() for _ in range(fan_out)]))
        fan_in = fan_out
    return ReluNetwork(n, tuple(layers))


def test_forward_identity_on_nonnegative():
    net = identity_net(2)
    assert forward(net, (Fraction(1), Fraction(2))) == (Fraction(1), Fraction(2))


def test_forward_relu_annihilates_negative():
    net = ReluNetwork(1, (layer([[-1]], [0]),))
    assert forward(net, (Fraction(3),)) == (Fraction(0),)


def test_forward_clause_row_zeroes_out():
    # a satisfied 2-literal clause scores <= 0 before the ReLU
    net = ReluNetwork(2, (layer([[-1, -1]], [-1]),))
    assert forward(net, (Fraction(1), Fraction(1))) == (Fraction(0),)


def test_forward_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        forward(identity_net(2), (Fraction(1),))
    with pytest.raises(ValueError):
        forward_float(identity_net(2), [1.0, 2.0, 3.0])


def test_outputs_always_nonnegative():
    rng = random.Random(7)
    for _ in range(60):
        net = random_net(rng)
        z = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(net.input_dim)]
        assert all(v >= 0 for v in forward(net, z))


def test_piecewise_affine_within_a_region():
    # if two points share an activation pattern, the midpoint is affine
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        net = random_net(rng, max_depth=2, max_width=4)
        z1 = [Fraction(rng.randint(-8, 8), 2) for _ in range(net.input_dim)]
        z2 = [Fraction(rng.randint(-8, 8), 2) for _ in range(net.input_dim)]
        if kernel_pattern(net, z1) != kernel_pattern(net, z2):
            continue
        mid = [(a + b) / 2 for a, b in zip(z1, z2)]
        lhs = forward(net, mid)
        rhs = tuple((a + b) / 2 for a, b in zip(forward(net, z1), forward(net, z2)))
        assert lhs == rhs
        checked += 1


def test_distance_pow_examples():
    assert distance_pow((Fraction(1),), (Fraction(1),), 2).value == 0
    assert distance_pow((Fraction(3),), (Fraction(1),), 2).value == 4
    assert distance_pow((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)), 3).value == 9


def test_distance_pow_zero_iff_equal():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(1, 5)
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k))
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k))
        d = distance_pow(y, x, rng.randint(1, 4))
        assert (d.value == 0) == (y == x)


def _reference_distance_pow(y, x, p):
    """The per-coordinate Fraction loop that distance_pow replaced."""
    total = Fraction(0)
    for a, b in zip(y, x):
        total += abs(as_fraction(a) - as_fraction(b)) ** p
    return total


def test_distance_pow_matches_fraction_reference():
    rng = random.Random(17)
    kinds = set()

    def entry():
        kind = rng.choice(("int", "str", "fraction"))
        kinds.add(kind)
        num, den = rng.randint(-30, 30), rng.randint(1, 12)
        if kind == "int":
            return num
        return f"{num}/{den}" if kind == "str" else Fraction(num, den)

    for _ in range(400):
        k = rng.randint(0, 6)
        y = [entry() for _ in range(k)]
        x = [entry() for _ in range(k)]
        p = rng.randint(1, 5)
        d = distance_pow(y, x, p)
        assert d.value == _reference_distance_pow(y, x, p)
        assert d.exponent == p and isinstance(d.value, Fraction)
    assert kinds == {"int", "str", "fraction"}


def test_distance_pow_length_mismatch():
    with pytest.raises(ValueError):
        distance_pow((Fraction(1),), (Fraction(1), Fraction(2)), 1)
    with pytest.raises(ValueError):
        distance_pow((Fraction(1),), (Fraction(1),), 0)


def test_serialize_roundtrip_identity():
    net = identity_net(3)
    assert deserialize(serialize(net)) == net


def test_serialize_roundtrip_random():
    rng = random.Random(23)
    for _ in range(100):
        net = random_net(rng)
        again = deserialize(serialize(net))
        assert again == net
        assert serialize(again) == serialize(net)


def test_deserialize_rejects_bad_documents():
    net = identity_net(1)
    import json

    doc = json.loads(serialize(net))
    bad = dict(doc)
    bad["layers"] = [dict(doc["layers"][0], bias=["0/1", "0/1"])]
    with pytest.raises(ValueError):
        deserialize(json.dumps(bad))
    with pytest.raises(ValueError):
        deserialize("not json at all {{{")
    with pytest.raises(ValueError):
        deserialize(json.dumps(dict(doc, version="relunet-999")))
    mismatched = dict(doc)
    mismatched["layers"] = [dict(doc["layers"][0], cols=7)]
    with pytest.raises(ValueError):
        deserialize(json.dumps(mismatched))


def test_layer_invariants():
    with pytest.raises(ValueError):
        Layer(1, (((0, 1),),), (0, 0))  # one row, two biases
    with pytest.raises(ValueError):
        ReluNetwork(2, (layer([[1]], [0]),))  # fan-in mismatch
    bad = {
        "no rows": (1, (), ()),
        "no columns": (0, ((),), (0,)),
        "column past fan_in": (2, (((2, 1),),), (0,)),
        "negative column": (2, (((-1, 1),),), (0,)),
        "zero scale": (1, ((),), (0,), 0),
        "scale not the least": (2, (((0, 6), (1, -4)), ()), (2, 0), 8),
        "all zero over 5": (1, ((),), (0,), 5),
    }
    for args in bad.values():
        with pytest.raises(ValueError):
            Layer(*args)
    with pytest.raises(ValueError):
        layer([[1, 2], [3]], [0, 0])  # ragged
    assert Layer(2, (((0, 3), (1, -2)), ()), (1, 0), 4) == layer([["6/8", "-1/2"], [0, 0]], ["1/4", 0])
    assert Layer(1, ((),), (0,)) == layer([[0]], ["0/5"])


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"version": "relunet-1", "input_dim": 1, "layers": 5}', "layers is not an array"),
        ('{"version": "relunet-1", "input_dim": 1, "layers": "[]"}', "layers is not an array"),
        ('{"version": "relunet-1", "input_dim": 2, "layers": [{"rows": 1, "cols": 2, "weights": "12", "bias": ["7"]}]}',
         "layer 0: malformed entry: weights is not an array"),
        ('{"version": "relunet-1", "input_dim": 2, "layers": [{"rows": 1, "cols": 2, "weights": ["1", "2"], "bias": "7"}]}',
         "layer 0: malformed entry: bias is not an array"),
    ],
    ids=["layers-int", "layers-string", "weights-string", "bias-string"],
)
def test_loader_refuses_a_non_array(doc, message):
    """A string where an array belongs is refused, not read character by character."""
    with pytest.raises(ValueError, match=message):
        deserialize(doc)


def test_artifact_loader_refuses_a_string_target():
    """The string "0" once loaded as the target (0,) of a one-output query."""
    doc = json.loads(artifact_to_json(sat_to_exact_binary(parse_dimacs("p cnf 1 1\n1 0\n"))))
    with pytest.raises(ValueError, match="target is not an array"):
        artifact_from_json(json.dumps(dict(doc, target="0")))


def test_float_path_tracks_exact_path():
    rng = random.Random(41)
    for _ in range(120):
        net = random_net(rng, max_depth=5, max_width=16)
        z = [Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(net.input_dim)]
        exact = forward(net, z)
        approx = forward_float(net, [float(v) for v in z])
        for e, a in zip(exact, approx):
            scale = max(1.0, abs(float(e)))
            assert abs(float(e) - a) / scale <= 1e-6


# -- the integer kernel against the Fraction loops it replaced ----------------


def _reference_forward_layers(net, z):
    current = tuple(as_fraction(v) for v in z)
    outputs = []
    for lyr in net.layers:
        current = tuple(
            max(sum(w * v for w, v in zip(row, current)) + b, Fraction(0))
            for row, b in zip(lyr.weights, lyr.bias)
        )
        outputs.append(current)
    return outputs


def _reference_preactivations(net, z):
    current = tuple(as_fraction(v) for v in z)
    out = []
    for lyr in net.layers:
        pre = [
            sum(w * v for w, v in zip(row, current)) + b for row, b in zip(lyr.weights, lyr.bias)
        ]
        out.append(pre)
        current = tuple(max(v, Fraction(0)) for v in pre)
    return out


def _reference_pattern(net, z):
    return tuple(tuple(v >= 0 for v in pre) for pre in _reference_preactivations(net, z))


def _kernel_case(rng):
    """A random network and input; some units are steered to pre-activation exactly 0."""

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    n = rng.randint(1, 5)
    z = tuple(
        Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        for _ in range(n)
    )
    current, fan_in, layers = z, n, []
    for _ in range(rng.randint(1, 6)):
        fan_out = rng.randint(1, 5)
        rows = [
            [Fraction(0)] * fan_in if rng.random() < 0.15 else [entry() for _ in range(fan_in)]
            for _ in range(fan_out)
        ]
        bias = [entry() for _ in range(fan_out)]
        if rng.random() < 0.5:
            r = rng.randrange(fan_out)
            bias[r] = -sum(w * v for w, v in zip(rows[r], current))
        lyr = layer(rows, bias)
        current = _reference_forward_layers(ReluNetwork(fan_in, (lyr,)), current)[0]
        layers.append(lyr)
        fan_in = fan_out
    return ReluNetwork(n, tuple(layers)), z


def test_kernel_matches_fraction_reference():
    rng = random.Random(2024)
    seen = {"zero_pre": 0, "zero_row": 0, "negative_input": 0, "zero_input": 0, "den_12": 0}
    depths = set()
    for _ in range(400):
        net, z = _kernel_case(rng)
        assert forward_layers(net, z) == _reference_forward_layers(net, z)
        assert forward(net, z) == _reference_forward_layers(net, z)[-1]
        assert kernel_pattern(net, z) == _reference_pattern(net, z)
        for (pre, scale), ref in zip(preactivations(net, z), _reference_preactivations(net, z)):
            assert [Fraction(v, scale) for v in pre] == ref
        for rows, bias, scale in net.integer:  # only ints, and the rows list nonzero weights only
            assert all(type(w) is int and w for row in rows for _, w in row)
            assert all(type(v) is int for v in (*bias, scale))
        for lyr, pre in zip(net.layers, _reference_preactivations(net, z)):
            seen["zero_pre"] += pre.count(0)
            seen["zero_row"] += sum(not any(row) for row in lyr.weights)
            seen["den_12"] += any(w.denominator == 12 for row in lyr.weights for w in row)
        seen["negative_input"] += any(v < 0 for v in z)
        seen["zero_input"] += any(v == 0 for v in z)
        seen["den_12"] += any(v.denominator == 12 for v in z)
        depths.add(net.depth)
    assert all(count > 0 for count in seen.values()), seen
    assert depths == set(range(1, 7))


def test_kernel_accepts_ints_and_strings():
    net = ReluNetwork(2, (layer([["1/3", "-1/2"]], ["1/4"]), layer([["3/5"]], ["-1/7"])))
    assert forward(net, (1, "2/3")) == forward(net, (Fraction(1), Fraction(2, 3)))
    assert forward(net, (3, 0)) == _reference_forward_layers(net, (3, 0))[-1]


def test_network_is_immutable_after_forward():
    net = ReluNetwork(1, (layer([[2]], [0]),))
    assert forward(net, (Fraction(1),)) == (Fraction(2),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers = (layer([[3]], [0]),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.input_dim = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers[0].weights = ((Fraction(3),),)
    assert forward(net, (Fraction(1),)) == (Fraction(2),)


def test_float_layers_match_float_of_each_entry():
    big = [
        Fraction((1 << 60) + 1, (1 << 55) + 3),
        Fraction(-(1 << 70) - 7, 3),
        Fraction(5, (1 << 58) + 1),
        Fraction((1 << 53) + 1),
        Fraction(1, 3),
        Fraction(0),
    ]
    rng = random.Random(9)
    nets = [ReluNetwork(3, (layer([big[:3], big[3:]], big[1:3]), layer([big[2:4]], [big[0]])))]
    nets += [random_net(rng, max_depth=4, max_width=8) for _ in range(40)]
    for net in nets:
        for (w, b), lyr in zip(float_layers(net), net.layers):
            w_ref = np.array([[float(v) for v in col] for col in zip(*lyr.weights)], dtype=np.float64)
            b_ref = np.array([float(v) for v in lyr.bias], dtype=np.float64)
            assert w.dtype == b.dtype == np.float64
            assert w.tobytes() == w_ref.tobytes() and b.tobytes() == b_ref.tobytes()
