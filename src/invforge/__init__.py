"""invforge: ReLU-network inversion gadgets from SAT/CVP/graph instances.

A reduction compiler plus independent exact oracles and a CLI harness.
Everything numeric is an arbitrary-precision rational; YES/NO verdicts
never depend on floating point.
"""

from .relunet import (
    DistancePow,
    Layer,
    ReluNetwork,
    deserialize,
    distance_pow,
    forward,
    forward_float,
    serialize,
)
from .instances import (
    CnfFormula,
    CvpInstance,
    HalfCliqueQuery,
    ParseError,
    VertexCoverQuery,
    WeightedGraph,
    gen_random_cvp,
    gen_random_graph,
    gen_random_ksat,
    parse_cvp,
    parse_dimacs,
    parse_graph,
)
from .reductions import (
    InversionQuery,
    LatentDomain,
    ReductionArtifact,
    UnsupportedReduction,
    artifact_from_json,
    artifact_to_json,
    binarization_gadget,
    choose_alpha_halfclique,
    choose_alpha_vc,
    choose_c,
    constants_valid,
    cvp_to_approx_binary,
    cvp_to_approx_real,
    halfclique_to_approx,
    halfclique_to_approx_real,
    sat_to_exact_binary,
    sat_to_exact_real,
    vertexcover_to_approx,
)
from .oracles import (
    CapExceeded,
    Verdict,
    enumerate_patterns_invert,
    falsify_real,
    invert_binary_bruteforce,
    solve_cvp01_bruteforce,
    solve_halfclique_bruteforce,
    solve_sat_bruteforce,
    solve_vertexcover_bruteforce,
)
from .lp import LinearProgram, UnboundedError, lp_feasible, lp_minimize

__version__ = "0.1.0"
