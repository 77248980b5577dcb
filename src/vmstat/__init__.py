"""V-statistics of measure-preserving dynamical systems.

Exact operator algebra for trigonometric kernels under m-adic circle
maps and for finite Markov chains, Hoeffding and martingale-coboundary
decompositions, limit-law derivation, trajectory simulation and a
reproducible Monte Carlo harness.
"""

from .fourier import (
    FourierPoly,
    apply_koopman,
    apply_transfer,
    integral,
    lp_norm,
    poly_product,
)
from .markov import (
    MarkovChain,
    NotErgodicError,
    StateFunction,
    mixing_coefficients,
    solve_poisson,
    stationary_dist,
)
from .kernels import (
    BaseMismatchError,
    CircleBase,
    KernelTerm,
    MarkovBase,
    PiecewiseConstant,
    SeparableKernel,
    coordinate_op,
    diag_restrict,
    kernel_eval,
    kernel_mean,
    kernels_allclose,
    partition_restrict,
    projective_bound,
)
from .hoeffding import (
    HoeffdingParts,
    SymmetryError,
    hoeffding_components,
    integrate_out,
    is_canonical,
    is_symmetric,
    symmetric_parts,
)
from .martingale import (
    LimitLaw,
    MartingaleCoboundaryParts,
    adjoint_series_sum,
    clt_variance,
    degenerate_limit_law,
    growth_bound,
    growth_ratios,
    martingale_coboundary_d2,
    reconstruct_from_parts,
    sample_limit_law,
    spectral_decompose,
)
from .dynamics import (
    BudgetError,
    Trajectory,
    gen_madic_trajectory,
    gen_markov_trajectory,
    normalized_stat,
    vstat_fast,
    vstat_naive,
)
from .mc import (
    ExperimentConfig,
    ExperimentResult,
    ks_critical,
    ks_one_sample_gaussian,
    ks_two_sample,
    moment_summary,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
