"""Desk-scale simulator for amplitude search with phase-estimated inversion.

The package splits into construction (``spectra``), spectral analysis of the
search walk (``search_core``), phase-register machinery
(``phase_estimation``), the approximate selective inverter
(``selective_inversion``), and end-to-end flows with query accounting
(``pipeline``).  ``cli`` exposes the same stages as subcommands.

The package exports the steps of the search flow a caller drives, the types
they return, the error kinds and the constants a caller handles: the names
the README's library tour lists.  Every other public name is imported from
its module.
"""

from .numerics import (
    TOL,
    AssumptionViolation,
    EigenDecomposition,
    GapGuessTooCoarse,
    InternalInvariantError,
    ResourceCapExceeded,
    eig_unitary,
    split_seed,
)
from .spectra import (
    DiffusionSpec,
    SearchInstance,
    build_grover_spec,
    build_symmetric_spec,
    find_targets,
)
from .search_core import (
    HalfwayState,
    RelevantPair,
    build_search_operator,
    evolve_to_halfway,
    find_relevant_pair,
    halfway_step_count,
)
from .phase_estimation import (
    DENSE_CAP,
    StateVector,
    embed_mainspace,
)
from .selective_inversion import (
    GUARD_FRACTION,
    EpsilonReport,
    InversionOperator,
    InversionScheme,
    instance_epsilon_report,
)
from .pipeline import (
    BaselineReport,
    PipelineResult,
    QueryLedger,
    ScheduleResult,
    amplification_round_count,
    classical_baseline,
    run_full,
    run_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "AssumptionViolation",
    "EigenDecomposition",
    "GapGuessTooCoarse",
    "InternalInvariantError",
    "ResourceCapExceeded",
    "eig_unitary",
    "split_seed",
    "DiffusionSpec",
    "SearchInstance",
    "build_grover_spec",
    "build_symmetric_spec",
    "find_targets",
    "HalfwayState",
    "RelevantPair",
    "build_search_operator",
    "evolve_to_halfway",
    "find_relevant_pair",
    "halfway_step_count",
    "DENSE_CAP",
    "StateVector",
    "embed_mainspace",
    "GUARD_FRACTION",
    "EpsilonReport",
    "InversionOperator",
    "InversionScheme",
    "instance_epsilon_report",
    "BaselineReport",
    "PipelineResult",
    "QueryLedger",
    "ScheduleResult",
    "amplification_round_count",
    "classical_baseline",
    "run_full",
    "run_schedule",
]
