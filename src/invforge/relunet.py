"""Exact-arithmetic ReLU networks.

A network is a stack of layers, each applying ``ReLU(W v + b)`` elementwise
(the last layer included). Weights, biases, inputs and outputs are
arbitrary-precision rationals (`fractions.Fraction`). Exact evaluation runs in
integers (`preactivations`): each layer caches an integer view
(`Layer.integer`) and, for inputs X / D, forms its pre-activations as integers
over L = lcm(s D, t), the next layer's D. `forward` returns Fractions;
`forward_float` is a float64 path for search heuristics, and
`distance_pow_lower_bounds` a float64 batch with a proved error enclosure.

File format ("relunet-1"): a UTF-8 JSON document with fields

    version    "relunet-1"
    input_dim  positive integer
    layers     array of {rows, cols, weights, bias}, weights row-major,
               every entry a "num/den" string
    metadata   free-form object

Round-tripping through serialize/deserialize is bit-exact.
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

    @cached_property
    def integer(self) -> tuple:
        """(rows, s, bias, t), built on first use: weights over s, biases over t.

        s and t are the lcms of the weight and of the bias denominators; each
        row lists (column, numerator) of its nonzero weights only.
        """
        s = math.lcm(*(w.denominator for row in self.weights for w in row))
        t = math.lcm(*(b.denominator for b in self.bias))
        rows = tuple(
            tuple((j, scaled_int(w, s)) for j, w in enumerate(row) if w) for row in self.weights
        )
        return rows, s, tuple(scaled_int(b, t) for b in self.bias), t

    def scale(self, d: int) -> int:
        """The scale L = lcm(s d, t) of the pre-activations, for inputs over d."""
        _, s, _, t = self.integer
        return math.lcm(s * d, t)


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


def integer_point(z: Sequence) -> tuple[tuple[int, ...], int]:
    """Rationals z as (integers x, scale D), D the lcm of their denominators: z = x / D."""
    values = [as_fraction(v) for v in z]
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(scaled_int(v, scale) for v in values), scale


def preactivations(net: ReluNetwork, z: Sequence) -> list[tuple[list[int], int]]:
    """Every layer's exact pre-activations, as (integers x, scale L): value x / L."""
    if len(z) != net.input_dim:
        raise ValueError(f"input length {len(z)} != input_dim {net.input_dim}")
    current, scale = integer_point(z)
    out = []
    for lyr in net.layers:
        rows, s, bias, t = lyr.integer
        d, scale = scale, lyr.scale(scale)
        wf, bf = scale // (s * d), scale // t
        pre = [sum(w * current[j] for j, w in row) * wf + b * bf for row, b in zip(rows, bias)]
        out.append((pre, scale))
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


def float_layers(net: ReluNetwork) -> list[tuple[np.ndarray, np.ndarray]]:
    """float64 copies of the weight matrices and biases, each correctly rounded."""
    out = []
    for lyr in net.layers:
        rows, s, bias, t = lyr.integer
        w = np.zeros((lyr.fan_out, lyr.fan_in), dtype=np.float64)
        for r, row in enumerate(rows):
            w[r, [j for j, _ in row]] = [v / s for _, v in row]
        out.append((w, np.array([b / t for b in bias], dtype=np.float64)))
    return out


_U = 2.0**-53  # unit roundoff of float64, round to nearest
_ETA = 2.0**-1074  # the smallest subnormal: bounds the error of any underflowing rounding


def _up(v):
    return np.nextafter(v, np.inf)


def _down(v):
    return np.nextafter(v, -np.inf)


def _conversion_error(v: np.ndarray) -> np.ndarray:
    """An upper bound on |q - v| for every rational q that rounds to v: 2u|v| + eta."""
    return _up(_up(np.abs(v) * (2 * _U)) + _ETA)


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught: such a point gets bound 0
def distance_pow_lower_bounds(
    net: ReluNetwork, points: Sequence[Sequence], target: Sequence, p: int
) -> np.ndarray:
    """Proved lower bounds on distance_pow(forward(net, z), target, p).value, one per point.

    Each point runs in float64 as a center with a radius that encloses the
    exact value: x~ = float(z) and |z - x~| <= rho, entrywise. Write u = 2^-53
    for the unit roundoff, eta = 2^-1074 for the smallest subnormal, and
    gamma_m = m u / (1 - m u) <= 2 m u.

    Rounding. Every float used here is nearest-rounded: float(Fraction) and
    the weights and biases of float_layers (int / int) are correctly
    rounded, and so is every numpy add, multiply or subtract. A correctly
    rounded v of a rational q has |q - v| <= u|q| <= 2u|v| in the normal
    range and <= eta / 2 below it (the conversion term 2u|v| + eta), and q
    lies between nextafter(v, -inf) and nextafter(v, inf).

    Lemma (nonnegative expressions). If an expression in nonnegative floats
    uses + and * only, every leaf passes through at most m roundings and it
    has at most N products, then its computed value c satisfies
    c >= (1 - u)^m e - N eta for its exact value e, in any evaluation order,
    blocking or FMA: each rounding is v (1 + delta) + epsilon with
    |delta| <= u, where epsilon = 0 except at a product that underflows
    (|epsilon| <= eta / 2, carried by at most m later factors <= 1 + u).
    So e <= (c + N eta)(1 + gamma_m) <= (c + N eta)(1 + 2 m u), evaluated
    upward with nextafter after each of its two roundings.

    Layer step. Exact y = W x + b on exact x with |x - x~| <= rho, and the
    computed center c = fl(W~ x~ + b~), a sum of k + 1 terms for fan-in k.
    Then y - c = (W - W~) x + W~ (x - x~) + (b - b~) + (W~ x~ + b~ - c), and
    with M = |W~| (|x~| + rho) + |b~| the four terms are at most:
      - weights: (2u|W~| + eta)(|x~| + rho) = 2u |W~|(|x~| + rho) + eta S,
        where S = sum_j (|x~_j| + rho_j);
      - inputs: |W~| rho;
      - biases: 2u|b~| + eta;
      - the matmul's own rounding (Higham 2002, Accuracy and Stability of
        Numerical Algorithms, section 3.1, with underflow): at most
        gamma_(k+1) (|W~||x~| + |b~|) + (k + 1) eta, for any summation
        order, BLAS blocking or FMA.
    Their sum is at most |W~| rho + g M + eta (S + k + 2), where
    g = 2(k + 2) u >= 2u + gamma_(k+1). As computed, every leaf of that
    expression passes through at most k + 4 roundings and it has at most
    2k + 2 products, so the lemma with m = k + 5 bounds it: the radius
    rho' of y about c. |x~| + rho is itself rounded upward first.
    ReLU is 1-Lipschitz, so |ReLU(y) - ReLU(c)| <= rho': the next layer
    gets center max(c, 0) and the same radius.

    Distance. With the output center x~, radius rho and t~ = float(target),
    |F_i - t_i| >= |x~_i - t~_i| - rho_i - (2u|t~_i| + eta) =: l_i. The
    computed l_i rounds |x~ - t~| and the difference downward and the
    subtrahend upward, and is clipped at 0, so it is at most the exact
    |F_i - t_i|. Powers and the sum over outputs are formed one rounding
    at a time, each rounded downward with nextafter; every operand is a
    lower bound on a nonnegative quantity, so the result is at most
    sum_i |F_i - t_i|^p.

    Overflow. The lemma and the layer step assume no overflow. A point
    whose center or radius is not finite at any layer gets the trivial
    bound 0, as does the whole batch if a point or the target does not fit
    in a float.
    """
    try:
        x = np.array([[float(v) for v in z] for z in points], dtype=np.float64)
        t = np.array([float(v) for v in target], dtype=np.float64)
        layers = float_layers(net)
    except OverflowError:
        return np.zeros(len(points))
    x = x.reshape(len(points), net.input_dim)
    radius = _conversion_error(x)
    finite = np.ones(len(points), dtype=bool)
    for w, b in layers:
        k = w.shape[1]
        magnitudes = np.abs(w.T)
        center = x @ w.T + b
        reach = _up(np.abs(x) + radius)
        spread = (
            radius @ magnitudes
            + (2 * (k + 2) * _U) * (reach @ magnitudes + np.abs(b))
            + _ETA * (reach.sum(axis=1, keepdims=True) + (k + 2))
        )
        radius = _up(_up(spread + (2 * k + 2) * _ETA) * (1.0 + 2 * (k + 5) * _U))  # the lemma
        finite &= np.isfinite(center).all(axis=1) & np.isfinite(radius).all(axis=1)
        x = np.maximum(center, 0.0)
    slack = _up(radius + _conversion_error(t))
    gap = np.maximum(_down(_down(np.abs(x - t)) - slack), 0.0)
    term = gap
    for _ in range(p - 1):
        term = _down(term * gap)
    total = np.zeros(len(points))
    for column in term.T:
        total = _down(total + column)
    return np.where(finite, np.maximum(total, 0.0), 0.0)


def forward_float(net: ReluNetwork, z: Sequence[float]) -> np.ndarray:
    """Same computation as `forward` in hardware floating point."""
    if len(z) != net.input_dim:
        raise ValueError(f"input length {len(z)} != input_dim {net.input_dim}")
    current = np.asarray(z, dtype=np.float64)
    for w, b in float_layers(net):
        current = np.maximum(w @ current + b, 0.0)
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
    except json.JSONDecodeError as exc:
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
