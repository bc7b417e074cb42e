"""Exact-arithmetic ReLU networks.

A network is a stack of layers, each applying ``ReLU(W v + b)`` elementwise
(the last layer included). Weights, biases, inputs and outputs are
arbitrary-precision rationals (`fractions.Fraction`). Exact evaluation runs in
integers on one view per network (`ReluNetwork.integer`), layer l over
L_l = lcm(s_l L_(l-1), t_l): for inputs X / D, `preactivations` forms its
pre-activations as integers over L_l D. `forward` returns Fractions, and
`distance_pows` gives many points' exact distances to a target in one batch.
`float_layers` rounds the same view to float64 for the falsifier's search and
for `forward_float`; no float value decides anything.

File format ("relunet-1"): a UTF-8 JSON document with fields

    version    "relunet-1"
    input_dim  positive integer
    layers     array of {rows, cols, weights, bias}, weights row-major,
               every entry a "num/den" string
    metadata   free-form object

`serialize` and `deserialize` are the network codec for this format, and
round-tripping through them is bit-exact (acceptance criterion 09).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .ratio import check_p, format_ratio, json_int, parse_ratio, scaled_int

NETWORK_FORMAT_VERSION = "relunet-1"

_ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to a Fraction.

    Floats are rejected on purpose: exact data must be supplied exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_ratio(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Layer:
    """One affine-then-ReLU stage: weights (fan_out x fan_in) and bias."""

    weights: tuple[tuple[Fraction, ...], ...]
    bias: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("layer needs at least one row")
        cols = len(self.weights[0])
        if cols < 1:
            raise ValueError("layer needs at least one column")
        if any(len(row) != cols for row in self.weights):
            raise ValueError("ragged weight matrix")
        if len(self.bias) != len(self.weights):
            raise ValueError(
                f"bias length {len(self.bias)} != row count {len(self.weights)}"
            )

    @property
    def fan_out(self) -> int:
        return len(self.weights)

    @property
    def fan_in(self) -> int:
        return len(self.weights[0])


def layer(weights: Iterable[Iterable], bias: Iterable) -> Layer:
    """Build a Layer, coercing entries to Fractions."""
    rows = tuple(tuple(as_fraction(w) for w in row) for row in weights)
    return Layer(rows, tuple(as_fraction(b) for b in bias))


@dataclass(frozen=True)
class ReluNetwork:
    """Dimension-checked layer stack. Immutable after construction."""

    input_dim: int
    layers: tuple[Layer, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("network needs at least one layer")
        fan_in = self.input_dim
        for index, lyr in enumerate(self.layers):
            if lyr.fan_in != fan_in:
                raise ValueError(
                    f"layer {index}: fan-in {lyr.fan_in} != expected {fan_in}"
                )
            fan_in = lyr.fan_out

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def width(self) -> int:
        return max(lyr.fan_out for lyr in self.layers)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    @property
    def hidden_units(self) -> int:
        """Total ReLU unit count across all layers."""
        return sum(lyr.fan_out for lyr in self.layers)

    @cached_property
    def integer(self) -> tuple[tuple[tuple, tuple[int, ...], int], ...]:
        """Per layer (rows, bias, L_l), built on first use: weights scaled by L_l / L_(l-1), bias by L_l.

        L_l = lcm(s_l L_(l-1), t_l), L_(-1) = 1, for s_l and t_l the lcms of the layer's
        weight and bias denominators. Each row lists (column, weight) of its nonzero weights only.
        """
        out, prev = [], 1
        for lyr in self.layers:
            s = math.lcm(*(w.denominator for row in lyr.weights for w in row))
            scale = math.lcm(s * prev, *(b.denominator for b in lyr.bias))
            wf = scale // prev
            rows = tuple(tuple((j, scaled_int(w, wf)) for j, w in enumerate(row) if w) for row in lyr.weights)
            out.append((rows, tuple(scaled_int(b, scale) for b in lyr.bias), scale))
            prev = scale
        return tuple(out)


def integer_point(z: Sequence) -> tuple[tuple[int, ...], int]:
    """Rationals z as (integers x, scale D), D the lcm of their denominators: z = x / D."""
    values = [as_fraction(v) for v in z]
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(scaled_int(v, scale) for v in values), scale


def preactivations(net: ReluNetwork, z: Sequence) -> list[tuple[list[int], int]]:
    """Every layer's exact pre-activations as (integers x, scale S): value x / S, S = L_l D for z = X / D."""
    if len(z) != net.input_dim:
        raise ValueError(f"input length {len(z)} != input_dim {net.input_dim}")
    current, d = integer_point(z)
    out = []
    for rows, bias, scale in net.integer:
        pre = [sum(w * current[j] for j, w in row) + b * d for row, b in zip(rows, bias)]
        out.append((pre, scale * d))
        current = [v if v > 0 else 0 for v in pre]
    return out


def _relu_fractions(pre: list[int], scale: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, scale) if v > 0 else _ZERO for v in pre)


def forward_layers(net: ReluNetwork, z: Sequence) -> list[tuple[Fraction, ...]]:
    """Exact forward pass returning every layer's output, in order."""
    return [_relu_fractions(pre, scale) for pre, scale in preactivations(net, z)]


def forward(net: ReluNetwork, z: Sequence) -> tuple[Fraction, ...]:
    """Exact forward pass: ReLU after every layer, no rounding anywhere."""
    return _relu_fractions(*preactivations(net, z)[-1])


def dense_columns(rows, fan_in: int, dtype) -> np.ndarray:
    """Sparse rows of (column, weight) as a dense fan_in x fan_out array: column r is row r."""
    out = np.zeros((fan_in, len(rows)), dtype=dtype)
    entries = [(j, r, w) for r, row in enumerate(rows) for j, w in row]
    if entries:
        cols, units, values = zip(*entries)
        out[cols, units] = values
    return out


def float_layers(net: ReluNetwork) -> list[tuple[np.ndarray, np.ndarray]]:
    """float64 copies of each layer's weights (fan_in x fan_out) and bias: int / int, correctly rounded."""
    out, fan_in, prev = [], net.input_dim, 1
    for rows, bias, scale in net.integer:
        w = (dense_columns(rows, fan_in, object) * prev / scale).astype(np.float64)
        out.append((w, np.array([b / scale for b in bias], dtype=np.float64)))
        fan_in, prev = len(bias), scale
    return out


def forward_float(net: ReluNetwork, z: Sequence[float]) -> np.ndarray:
    """Same computation as `forward` in hardware floating point."""
    if len(z) != net.input_dim:
        raise ValueError(f"input length {len(z)} != input_dim {net.input_dim}")
    current = np.asarray(z, dtype=np.float64)
    for w, b in float_layers(net):
        current = np.maximum(current @ w + b, 0.0)
    return current


@dataclass(frozen=True)
class DistancePow:
    """A p-th-powered l_p distance; comparisons stay rational this way."""

    value: Fraction
    exponent: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("distance power must be nonnegative")


def distance_pow(y: Sequence, x: Sequence, p: int) -> DistancePow:
    """Exact sum of |y_i - x_i|**p, summed in integers over one common denominator."""
    if len(y) != len(x):
        raise ValueError(f"length mismatch: {len(y)} vs {len(x)}")
    check_p(p)
    pairs = [(as_fraction(a), as_fraction(b)) for a, b in zip(y, x)]
    scale = math.lcm(*(v.denominator for pair in pairs for v in pair))
    total = sum(abs(scaled_int(a, scale) - scaled_int(b, scale)) ** p for a, b in pairs)
    return DistancePow(Fraction(total, scale**p), p)


def distance_pows(net: ReluNetwork, points: Sequence[Sequence], target: Sequence, p: int) -> list[Fraction]:
    """distance_pow(forward(net, z), target, p).value for every point z, exactly, in one batch.

    Point z is X / D over its own D. Each unit is one object column of Python
    ints across the points, layer l's pre-activations over L_l D, formed from
    each row's nonzero weights in net.integer only; nothing is rounded.
    """
    check_p(p)
    if len(target) != net.output_dim:
        raise ValueError(f"length mismatch: {net.output_dim} vs {len(target)}")
    if any(len(z) != net.input_dim for z in points):
        raise ValueError(f"every point needs input_dim {net.input_dim} entries")
    if not points:
        return []
    xs, ds = zip(*(integer_point(z) for z in points))
    d = np.array(ds, dtype=object)
    current = [np.array(column, dtype=object) for column in zip(*xs)]
    for rows, bias, _ in net.integer:
        pre = [sum((w * current[j] for j, w in row), b * d) for row, b in zip(rows, bias)]
        current = [np.maximum(v, 0) for v in pre]
    t, t_scale = integer_point(target)
    scale = net.integer[-1][2] * d  # outputs are current / scale
    total = sum(abs(v * t_scale - ti * scale) ** p for v, ti in zip(current, t))
    return [Fraction(num, den) for num, den in zip(total, (scale * t_scale) ** p)]


def serialize(net: ReluNetwork) -> str:
    return json.dumps(network_to_dict(net), sort_keys=True)


def network_to_dict(net: ReluNetwork) -> dict:
    return {
        "version": NETWORK_FORMAT_VERSION,
        "input_dim": net.input_dim,
        "layers": [
            {
                "rows": lyr.fan_out,
                "cols": lyr.fan_in,
                "weights": [format_ratio(w) for row in lyr.weights for w in row],
                "bias": [format_ratio(b) for b in lyr.bias],
            }
            for lyr in net.layers
        ],
        "metadata": net.metadata,
    }


def deserialize(text: str | bytes) -> ReluNetwork:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting raises RecursionError
        raise ValueError(f"malformed network document: {exc}") from exc
    return network_from_dict(doc)


def network_from_dict(doc) -> ReluNetwork:
    if not isinstance(doc, dict):
        raise ValueError("network document must be a JSON object")
    if doc.get("version") != NETWORK_FORMAT_VERSION:
        raise ValueError(f"unsupported network version: {doc.get('version')!r}")
    try:
        input_dim = json_int(doc, "input_dim")
        raw_layers = doc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed network document: {exc}") from exc
    layers = []
    for index, raw in enumerate(raw_layers):
        try:
            rows, cols = json_int(raw, "rows"), json_int(raw, "cols")
            flat = [parse_ratio(w) for w in raw["weights"]]
            bias = [parse_ratio(b) for b in raw["bias"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"layer {index}: malformed entry: {exc}") from exc
        if rows < 1 or cols < 1:
            raise ValueError(f"layer {index}: nonpositive shape {rows}x{cols}")
        if len(flat) != rows * cols:
            raise ValueError(
                f"layer {index}: {len(flat)} weights for declared {rows}x{cols}"
            )
        weights = tuple(tuple(flat[r * cols : (r + 1) * cols]) for r in range(rows))
        layers.append(Layer(weights, tuple(bias)))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be an object")
    return ReluNetwork(input_dim, tuple(layers), metadata)
