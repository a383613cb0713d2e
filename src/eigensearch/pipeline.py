"""End-to-end flows: source to halfway state to target, with accounting.

The full pipeline rotates the source onto the halfway state with uncontrolled
search-operator applications, then amplifies the halfway state onto the
target by alternating a target phase flip with the approximate selective
inversion of the two gap eigenstates.  The amplification runs in the search
operator's estimate frame (see ``StateVector``): the halfway n-vector is
embedded there directly as n frame coefficients, and every inversion
returns the nu + 1 Dicke columns of the vote register per eigenvector and
phase value, never the 2^nu vote values, and a boosted first round keeps
them as vote-plane coefficients.  Each target flip is a rank-one
reflection of the main axis that the next inversion or readout applies, and
success, leakage and the main marginal are read out of the frame with one
Gram sum.  Everything a run spends is tallied in a QueryLedger; the
classical repeat-until-success baseline and the gap-guess retry schedule
live here too, so the cost comparison is one import away.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .numerics import (
    TOL,
    GapGuessTooCoarse,
    InternalInvariantError,
    inside_gap,
    make_rng,
    round_half_away,
)
from .numerics import eig_unitary  # noqa: F401 - perfbench's tracer test rebinds it here
from .phase_estimation import DENSE_CAP, StateVector, embed_mainspace
from .search_core import evolve_to_halfway, search_decomposition, search_operator
from .selective_inversion import (
    GUARD_FRACTION,
    InversionOperator,
    InversionScheme,
)
from .spectra import SearchInstance


@dataclass
class QueryLedger:
    """Monotone counters for everything a run spends.

    ``oracle_queries`` counts every target phase flip, including the one
    inside each search-operator application, controlled or not.
    """

    ds_applications: int = 0
    oracle_queries: int = 0
    controlled_s: int = 0
    i_zero_prime: int = 0
    hadamards_vote: int = 0

    def charge(self, **counts: int) -> None:
        """Add each count to the field it names; the one writer of a ledger."""
        for name, count in counts.items():
            setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict:
        return asdict(self)

    def merge(self, other: "QueryLedger") -> None:
        self.charge(**other.as_dict())


def target_flip(state: StateVector, target_index: int, ledger=None) -> StateVector:
    """Sign flip of the target mainspace index; one oracle query.

    In the state's estimate frame this is the rank-one reflection
    1 - 2 x x^dagger on the main axis, with x = V^dagger e_target
    (``StateVector.reflect_main``): a product state reflects its n
    coefficients, and a slab or plane state keeps the reflection pending
    for the next inversion or readout, so no flip writes a register.
    """
    if ledger is not None:
        ledger.charge(oracle_queries=1)
    return state.reflect_main(state.frame.vectors[target_index].conj())


def amplification_round_count(boost: float) -> int:
    """Optimal amplitude-amplification rounds from overlap 1/boost.

    Nearest integer to pi / (4 asin(1/boost)) - 1/2; zero when the halfway
    state already coincides with the target up to phases.
    """
    if boost < 1.0:
        raise ValueError(f"boost {boost} below 1")
    return round_half_away(math.pi / (4.0 * math.asin(1.0 / boost)) - 0.5)


def amplify_to_target(state: StateVector, op: InversionOperator,
                      target_index: int, rounds: int, ledger=None) -> StateVector:
    """Alternate the target flip and the selective inversion ``rounds`` times."""
    for _ in range(rounds):
        state = target_flip(state, target_index, ledger)
        state = op.apply(state, ledger)
    return state


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Outcome and full cost accounting of one end-to-end run.

    ``success_probability`` is the squared target amplitude with the ancilla
    registers projected onto their nominal zero branch; the weight that left
    that branch is ``ancilla_leakage``.  ``main_marginal`` is the physical
    mainspace distribution with ancillas traced out, which is what a
    measurement of the system register would sample.
    """

    instance_id: str
    main_dim: int
    target_index: int
    overlap: float
    boost: float
    scheme: InversionScheme
    halfway_steps: int
    amplification_rounds: int
    halfway_target_overlap: float
    success_probability: float
    ancilla_leakage: float
    predicted_error: float
    main_marginal: np.ndarray
    ledger: QueryLedger


def run_full(inst: SearchInstance, scheme: InversionScheme,
             dense_cap: int = DENSE_CAP) -> PipelineResult:
    """Prepare the halfway state, then amplify it onto the target.

    The amplification stage is skipped entirely when the optimal round count
    is zero (boost 1), so such runs spend no controlled operations at all.
    """
    ledger = QueryLedger()
    halfway = evolve_to_halfway(inst, ledger)
    rounds = amplification_round_count(inst.boost)
    if rounds == 0:
        marginal = np.abs(halfway.state) ** 2
        success = float(marginal[inst.target_index])
        leakage = predicted = 0.0
    else:
        # the instance's one diagonalization, which gave the halfway state,
        # is the frame the amplification runs in and gives the error prediction
        dec = search_decomposition(inst)
        op = InversionOperator.build(scheme, search_operator(inst), dense_cap, dec)
        predicted = float(np.max(op.predicted_epsilon(
            inside_gap(dec.phases, scheme.phase_gap))))
        state = amplify_to_target(embed_mainspace(op.layout, halfway.state, dec),
                                  op, inst.target_index, rounds, ledger)
        branch, marginal = state.readouts()
        branch = np.abs(branch) ** 2
        success = float(branch[inst.target_index])
        leakage = _leakage(branch)
    return PipelineResult(
        instance_id=inst.instance_id,
        main_dim=inst.spec.n,
        target_index=inst.target_index,
        overlap=inst.overlap,
        boost=inst.boost,
        scheme=scheme,
        halfway_steps=halfway.steps,
        amplification_rounds=rounds,
        halfway_target_overlap=float(np.abs(halfway.state[inst.target_index])),
        success_probability=success,
        ancilla_leakage=leakage,
        predicted_error=predicted,
        main_marginal=marginal,
        ledger=ledger,
    )


def _leakage(branch: np.ndarray) -> float:
    """1 minus the zero-branch mass ``branch``, clipped at 0.

    The readout has checked the state's norm to ``TOL.state_norm``, so the
    mass exceeds 1 by at most about twice that; a larger excess is a fault.
    """
    leakage = float(1.0 - branch.sum())
    if leakage < -2.0 * TOL.state_norm:
        raise InternalInvariantError(
            f"zero-branch mass {1.0 - leakage!r} exceeds the state's norm of 1")
    return max(0.0, leakage)


@dataclass(frozen=True)
class BaselineReport:
    """Repeat-until-success cost of measuring the halfway state directly."""

    trials: int
    halfway_steps: int
    target_probability: float
    mean_repetitions: float
    mean_queries: float
    expected_repetitions: float


def classical_baseline(inst: SearchInstance, trials: int = 1000,
                       seed: int = 0) -> BaselineReport:
    """Monte Carlo estimate of the no-postprocessing strategy.

    Each repetition pays the full halfway preparation and measures the
    halfway state once; a trial stops when the measurement hits the target.
    Its repetition count is therefore geometric in the target probability,
    and that is what each trial draws.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a stable mean")
    halfway = evolve_to_halfway(inst)
    p = np.abs(halfway.state) ** 2
    p_target = float(p[inst.target_index] / p.sum())
    counts = make_rng(seed).geometric(p_target, size=trials)
    mean_reps = float(counts.mean())
    return BaselineReport(
        trials=trials,
        halfway_steps=halfway.steps,
        target_probability=p_target,
        mean_repetitions=mean_reps,
        mean_queries=mean_reps * halfway.steps,
        expected_repetitions=float(1.0 / p_target),
    )


@dataclass(frozen=True)
class RoundRecord:
    """One retry-schedule round: the gap guess and what came of it."""

    gap_guess: float
    ran: bool
    success_probability: float
    drawn_index: int
    verified: bool


@dataclass(frozen=True, eq=False)
class ScheduleResult:
    """Outcome of the geometric gap-guess schedule.

    Whether it succeeded, the rounds it used and the guess of each round are
    read off ``final`` and ``records``.
    """

    budget: int
    records: list[RoundRecord]
    final: PipelineResult | None
    ledger: QueryLedger

    @property
    def succeeded(self) -> bool:
        return self.final is not None

    @property
    def rounds_used(self) -> int:
        return len(self.records)

    @property
    def theta_guesses(self) -> list[float]:
        return [r.gap_guess for r in self.records]


def run_schedule(inst: SearchInstance, initial_guess: float, seed: int,
                 scheme_kind: str = "basic", extra_bits: int = 7,
                 offset_bits: int = 8, guard_fraction: float = GUARD_FRACTION,
                 r_max: int | None = None,
                 dense_cap: int = DENSE_CAP) -> ScheduleResult:
    """Retry the pipeline with geometrically shrinking gap guesses.

    The true gap of the instance is treated as hidden: it enters only the
    default round budget, which is the documented geometric-schedule bound.
    Each round runs the full pipeline at the current guess, draws one
    verification sample from the physical mainspace distribution (one oracle
    query, charged), and stops on a verified target hit.  A guess whose
    window cannot be built counts as a failed round.  Runs are deterministic
    for a fixed seed.
    """
    if not (0.0 < guard_fraction < 1.0):
        raise ValueError(f"guard fraction must sit in (0, 1), not {guard_fraction}")
    if not (math.isfinite(initial_guess) and initial_guess > 0.0):
        raise ValueError(f"initial_guess must be a finite positive gap guess, "
                         f"not {initial_guess}")
    if r_max is None:
        span = max(0.0, math.log(initial_guess / inst.spec.phase_gap))
        r_max = math.ceil(span * 10.0 / guard_fraction) + 32
    elif r_max < 1:
        raise ValueError(f"the round budget r_max must be at least 1, not {r_max}")
    rng = make_rng(seed)
    total = QueryLedger()
    records: list[RoundRecord] = []
    final: PipelineResult | None = None
    guess = float(initial_guess)
    for _ in range(r_max):
        try:
            if scheme_kind == "basic":
                scheme = InversionScheme.basic(inst.boost, guess, extra_bits,
                                               guard_fraction)
            else:
                scheme = InversionScheme.boosted(inst.boost, guess, offset_bits,
                                                 guard_fraction)
            result = run_full(inst, scheme, dense_cap)
        except GapGuessTooCoarse:
            # no window fits the guess on this register (or the guess is
            # outside (0, pi]); the round is spent with nothing to measure
            records.append(RoundRecord(gap_guess=guess, ran=False,
                                       success_probability=0.0,
                                       drawn_index=-1, verified=False))
        else:
            total.merge(result.ledger)
            marginal = result.main_marginal / result.main_marginal.sum()
            cdf = np.cumsum(marginal)
            cdf[-1] = 1.0
            drawn = int(np.searchsorted(cdf, rng.random(), side="right"))
            total.charge(oracle_queries=1)
            verified = drawn == inst.target_index
            records.append(RoundRecord(gap_guess=guess, ran=True,
                                       success_probability=result.success_probability,
                                       drawn_index=drawn, verified=verified))
            if verified:
                final = result
                break
        guess *= 1.0 - guard_fraction / 10.0
    return ScheduleResult(budget=r_max, records=records, final=final, ledger=total)


# ---------------------------------------------------------------------------
# Complexity table and serialization.

def result_row(result: PipelineResult) -> dict:
    """The one report row of a pipeline run: the columns of the ``pipeline``
    and ``compare`` CSV and of every ``complexity_report`` row, in order."""
    return {
        "instance_id": result.instance_id,
        "N": result.main_dim,
        "alpha": result.overlap,
        "B": result.boost,
        "theta_min": result.scheme.phase_gap,
        "scheme": result.scheme.kind,
        "mu": result.scheme.phase_bits,
        "nu": result.scheme.vote_bits,
        "q_m": result.halfway_steps,
        "n_qaa": result.amplification_rounds,
        "oracle_queries": result.ledger.oracle_queries,
        "controlled_s": result.ledger.controlled_s,
        "success": result.success_probability,
        "epsilon": result.predicted_error,
    }


def budget_constants(result: PipelineResult) -> dict:
    """Measured totals divided by the two cost models.

    The classical constant uses the expected repetition count from the
    halfway overlap, so it is available without running a baseline; the
    postprocessed constant divides the full oracle total by
    boost / overlap + boost * log(boost) / gap.
    """
    gap = result.scheme.phase_gap
    post_budget = result.boost / result.overlap
    if result.boost > 1.0:
        post_budget += result.boost * math.log(result.boost) / gap
    expected_baseline = result.halfway_steps / result.halfway_target_overlap**2
    return {
        "classical": expected_baseline / (result.boost**3 / result.overlap),
        "post": result.ledger.oracle_queries / post_budget,
    }


def _loglog_slope(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if keep.sum() < 3 or np.ptp(np.log(xs[keep])) < 1e-9:
        return None
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


def complexity_report(results, baselines) -> dict:
    """Per-instance costs, budget constants and fitted scaling exponents.

    ``baselines`` pairs with ``results`` by position.  The two budget
    constants divide the measured totals by their cost model: the baseline
    against boost^3 / overlap, the postprocessed route against
    boost / overlap + boost log(boost) / gap.
    """
    results, baselines = list(results), list(baselines)
    if len(results) < 3:
        raise ValueError("a scaling comparison needs at least 3 instances")
    if len(baselines) != len(results):
        raise ValueError("one baseline per result, in the same order")
    rows = []
    for r, b in zip(results, baselines):
        rows.append({
            **result_row(r),
            "post_budget_constant": budget_constants(r)["post"],
            "baseline_queries": b.mean_queries,
            "baseline_over_post": (b.mean_queries / r.ledger.oracle_queries
                                   if r.ledger.oracle_queries else None),
            "classical_budget_constant": b.mean_queries / (r.boost**3 / r.overlap),
        })
    fits = {
        "oracle_queries_vs_inverse_overlap": _loglog_slope(
            [1.0 / r.overlap for r in results],
            [r.ledger.oracle_queries for r in results]),
        "controlled_s_vs_boost": _loglog_slope(
            [r.boost for r in results],
            [r.ledger.controlled_s for r in results]),
        "baseline_ratio_vs_boost": _loglog_slope(
            [r.boost for r in results],
            [row["baseline_over_post"] or np.nan for row in rows]),
    }
    return {"rows": rows, "fits": fits}


def scheme_to_json(scheme: InversionScheme) -> dict:
    return {
        "kind": scheme.kind,
        "mu": scheme.phase_bits,
        "nu": scheme.vote_bits,
        "theta_min": float(scheme.phase_gap),
        "delta": float(scheme.guard_fraction),
    }


def pipeline_result_to_json(result: PipelineResult) -> dict:
    return {
        "instance_id": result.instance_id,
        "N": result.main_dim,
        "target": result.target_index,
        "alpha": float(result.overlap),
        "B": float(result.boost),
        "scheme": scheme_to_json(result.scheme),
        "q_m": result.halfway_steps,
        "n_qaa": result.amplification_rounds,
        "w_overlap": float(result.halfway_target_overlap),
        "success_probability": float(result.success_probability),
        "ancilla_leakage": float(result.ancilla_leakage),
        "epsilon_used": float(result.predicted_error),
        "ledger": result.ledger.as_dict(),
        "budget_constants": budget_constants(result),
    }


def baseline_to_json(report: BaselineReport) -> dict:
    return {
        "trials": report.trials,
        "q_m": report.halfway_steps,
        "target_probability": float(report.target_probability),
        "mean_repetitions": float(report.mean_repetitions),
        "mean_queries": float(report.mean_queries),
        "expected_repetitions": float(report.expected_repetitions),
    }


def schedule_to_json(result: ScheduleResult) -> dict:
    return {
        "succeeded": result.succeeded,
        "rounds_used": result.rounds_used,
        "budget": result.budget,
        "theta_guesses": [float(g) for g in result.theta_guesses],
        "rounds": [
            {
                "theta_guess": float(rec.gap_guess),
                "ran": rec.ran,
                "success_probability": float(rec.success_probability),
                "drawn_index": rec.drawn_index,
                "verified": rec.verified,
            }
            for rec in result.records
        ],
        "final": None if result.final is None else pipeline_result_to_json(result.final),
        "ledger": result.ledger.as_dict(),
    }
