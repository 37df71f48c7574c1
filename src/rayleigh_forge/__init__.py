"""Exact negative-correlation analysis for weighted set systems and matroids.

Everything verdict-bearing runs over the rationals: pair-difference
polynomials, square certificates, exchangeable sequence tests, Potts slice
identities, two-sum composition, support structure, and the log-concavity
condition ladder.  Sampling only ever falsifies; verification is always a
coefficient or identity argument.
"""

__version__ = "0.1.0"

from .corpus import (
    ItemResult,
    corpus_matroid,
    corpus_matroids,
    corpus_polys,
    k4_certificates,
    run_corpus,
    weight_fuzz,
)
from .matroids import (
    Graph,
    Matroid,
    complete_graph,
    cycle_graph,
    enumerate_family,
    forest_identity_at,
    forest_weights,
    graphic_matroid,
    invariant_sequences,
    matroid_from_bases,
    parallel_extend,
    path_graph,
    two_sum,
    uniform_matroid,
)
from .polynomials import (
    GroundSet,
    QuadPoly,
    SubsetPoly,
    from_weights,
    mmatrix_weights,
    rayleigh_diff,
    theta,
)
from .potts import (
    Model,
    ModelPoly,
    model_poly,
    potts_poly,
    potts_slices,
    scaling_limit_support,
    slice_inequality_scan,
    twosum_compose,
    uniform_potts_symseq,
)
from .prng import DEFAULT_SEED, SplitMix64, derive
from .rayleigh import (
    CoeffStrategy,
    PairSweep,
    RayleighVerdict,
    SampleStrategy,
    SquareCertificate,
    check_all,
    check_pair,
    conjecture_probe,
    covariance,
    estimate_qc,
    exchangeable_check,
    negative_association_check,
    scalar_pair_diff,
    symmetrize_and_check,
    triple_condition_check,
)
from .scalars import SYMBOLIC_Q, format_rat, parse_rat, q_exponent
from .sequences import (
    Seq,
    check_condition,
    convolution_identity,
    convolve,
    mason_report,
    seq_from_values,
    symmetrize,
    symseq_to_poly,
)
from .supports import (
    exchange_props_check,
    flatten,
    flattened_fresh_profile,
    is_convex,
    is_convex_delta_matroid,
    layers,
    log_submodular_check,
    sea_check,
    size_window_sums,
)
