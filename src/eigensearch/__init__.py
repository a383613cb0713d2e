"""Desk-scale simulator for amplitude search with phase-estimated inversion.

The package splits into construction (``spectra``), spectral analysis of the
search walk (``search_core``), phase-register machinery
(``phase_estimation``), the approximate selective inverter
(``selective_inversion``), and end-to-end flows with query accounting
(``pipeline``).  ``cli`` exposes the same stages as subcommands.
"""

from .numerics import (
    TOL,
    AssumptionViolation,
    EigenDecomposition,
    GapGuessTooCoarse,
    InternalInvariantError,
    ResourceCapExceeded,
    Tolerances,
    eig_unitary,
    inside_gap,
    make_rng,
    round_half_away,
    split_seed,
)
from .spectra import (
    DiffusionSpec,
    SearchInstance,
    assemble_diffusion,
    build_grover_spec,
    build_symmetric_spec,
    diffusion_operator,
    find_targets,
    moments,
    spec_to_json,
)
from .search_core import (
    HalfwayState,
    RelevantPair,
    build_search_operator,
    evolve_to_halfway,
    find_relevant_pair,
    halfway_step_count,
    mixing_angle,
    predicted_pair_phases,
    reconstruct_source,
    search_decomposition,
    search_operator,
    secular_pair,
    secular_residual,
)
from .phase_estimation import (
    DENSE_CAP,
    RegisterLayout,
    StateVector,
    embed_mainspace,
    estimate_amplitudes,
    gap_window_mask,
)
from .selective_inversion import (
    GUARD_FRACTION,
    EpsilonReport,
    InversionOperator,
    InversionScheme,
    basic_error_bound,
    binomial_tail_wrong_half,
    instance_epsilon_report,
    measure_epsilon,
    predicted_epsilon,
)
from .pipeline import (
    BaselineReport,
    PipelineResult,
    QueryLedger,
    RoundRecord,
    ScheduleResult,
    amplification_round_count,
    amplify_to_target,
    budget_constants,
    classical_baseline,
    complexity_report,
    result_row,
    run_full,
    run_schedule,
    target_flip,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
