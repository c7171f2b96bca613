"""Tail limits of extreme-value models on decomposable graphs."""

from .errors import (
    ConfigError,
    DegenerateCorrelation,
    DimensionTooLarge,
    EmptySubset,
    IncompatibleSeparators,
    InvalidVariogram,
    MissingNorming,
    NormingIncompatible,
    NormingUnavailable,
    NotBlockGraph,
    NotChordal,
    NotConnected,
    NotSPD,
    NumericalBreakdown,
    QuantileOutOfRange,
    TailgraphError,
    UnsupportedCliqueShape,
    UnsupportedNormingFamily,
)
from .graphs import (
    CliqueOrdering,
    Graph,
    JunctionTree,
    check_separator_models,
    clique_ordering,
    goldner_harary,
    junction_tree,
)
from .linalg import GaussianLaw, IndexedMatrix, IndexedVector, spd_inverse
from .mvn import CdfEstimate, bvn_cdf, mvn_cdf
from .husler_reiss import (
    HuslerReissModel,
    VariogramMatrix,
    transition_kernel,
)
from .gaussian import (
    CorrelationMatrix,
    GaussianCopulaModel,
    limit_law,
)
from .limits import (
    NormingPair,
    NormingVerdict,
    SampleMatrix,
    TailGraphicalModel,
    TailNoiseModel,
    build_tail_model,
    build_tail_noise,
    classify_norming,
    sample_tail_model,
    tail_model_moments,
    verify_remainders,
)
from .simulate import conditional_exceedance, renormalize, simulate_graphical
from .diagnostics import (
    ConvergenceReport,
    MRVReport,
    chi_estimator,
    convergence_study,
    factorized_density,
    mrv_checks,
)
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"
