"""Search operator, its relevant eigenpair, and rotation to the halfway state.

The product of the diffusion operator with a target-phase flip has exactly two
eigenstates carrying most of the source state.  Their eigenphases are the two
roots of a weighted cotangent sum adjacent to zero; when the first moment of
the spectrum vanishes they sit at plus and minus twice the source-target
overlap divided by the boost factor.  Both routes to the pair, dense
diagonalization and safeguarded Newton roots of the sum, are kept and
compared; neither is trusted alone.

Each instance is prepared once: its dense search operator is the spec's
shared diffusion operator with the target column flipped, built on first use
and kept read-only, and its one eigendecomposition serves the pair, the
halfway state and the inversion frame.  For symmetric and Grover specs the
operator is real, and ``eig_unitary`` diagonalizes it in real arithmetic:
real eigenvectors at 0 and pi, and each pair at +-lambda as a vector and
its exact conjugate.  The halfway state is a spectral power of that
decomposition, V e^{i q lambda} V^dagger s with s the instance's gauged
``source``; the ledger still charges the q_m search-operator applications
the circuit makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    TOL,
    AssumptionViolation,
    EigenDecomposition,
    eig_unitary,
    inside_gap,
    round_half_away,
)
from .spectra import SearchInstance, diffusion_operator


def build_search_operator(inst: SearchInstance) -> np.ndarray:
    """Dense product of the spec's shared diffusion operator and the target
    phase flip, as a fresh writable array."""
    s = np.array(diffusion_operator(inst.spec))
    s[:, inst.target_index] *= -1.0
    return s


def search_operator(inst: SearchInstance) -> np.ndarray:
    """The instance's search operator, built on first use and kept read-only."""
    operator = inst.prepared.get("operator")
    if operator is None:
        operator = build_search_operator(inst)
        operator.flags.writeable = False
        inst.prepared["operator"] = operator
    return operator


def search_decomposition(inst: SearchInstance) -> EigenDecomposition:
    """The one eigendecomposition of the instance's search operator,
    computed on first use and kept with read-only arrays."""
    dec = inst.prepared.get("decomposition")
    if dec is None:
        dec = eig_unitary(search_operator(inst), TOL.system_unitarity)
        dec.phases.flags.writeable = False
        dec.vectors.flags.writeable = False
        inst.prepared["decomposition"] = dec
    return dec


def _weighted_poles(inst: SearchInstance):
    weights = np.abs(inst.spec.eigenbasis[inst.target_index, :]) ** 2
    keep = weights > 0.0
    return inst.spec.eigenphases[keep], weights[keep]


def _secular_sum(poles: np.ndarray, weights: np.ndarray, lam: float) -> tuple[float, float]:
    """The secular sum at ``lam`` and its derivative, from one sine and cosine
    a pole; |sin(x/2)| is sin(d/2), d the distance of x from 0 on the circle."""
    half = 0.5 * (lam - poles)
    sin = np.sin(half)
    if np.min(np.abs(sin)) < math.sin(0.5 * TOL.pole_proximity):
        raise ValueError(f"lambda {lam!r} sits on a pole of the secular sum")
    cot = np.cos(half) / sin
    return float(weights @ cot), -0.5 * float(weights @ (1.0 + cot * cot))


def secular_residual(inst: SearchInstance, lam: float) -> float:
    """Weighted cotangent sum whose zeros are the search eigenphases.

    Sum over every diffusion eigenstate l, the source included, of
    |<l|t>|^2 cot((lam - theta_l) / 2).  Monotone decreasing between
    consecutive poles.
    """
    return _secular_sum(*_weighted_poles(inst), lam)[0]


def _secular_root(poles: np.ndarray, weights: np.ndarray, lo: float, hi: float) -> float:
    # The sum falls from +inf above the pole lo to -inf below the pole hi.
    # Safeguarded Newton: a step leaving the bracket [a, b] of the sign
    # change bisects it instead, unless it is at most TOL.secular_bisection
    # and ends the search (rounding can put so small a step on an end).
    width = hi - lo
    a = lo + max(TOL.pole_proximity * 10.0, width * 1e-9)
    b = hi - max(TOL.pole_proximity * 10.0, width * 1e-9)
    if not (_secular_sum(poles, weights, a)[0] > 0.0 > _secular_sum(poles, weights, b)[0]):
        raise AssumptionViolation(
            f"secular sum does not change sign on ({lo:.6g}, {hi:.6g}); "
            "pole bookkeeping is off for this instance"
        )
    lam, step = 0.5 * (a + b), b - a
    while step > TOL.secular_bisection:
        f, df = _secular_sum(poles, weights, lam)
        a, b = (lam, b) if f > 0.0 else (a, lam)
        new = lam - f / df
        if not (a < new < b or abs(new - lam) <= TOL.secular_bisection):
            new = 0.5 * (a + b)
        step, lam = abs(new - lam), new
    return lam


def secular_pair(inst: SearchInstance) -> tuple[float, float]:
    """The two secular roots bracketing zero, found by safeguarded Newton.

    Returns (positive root, negative root).  Works on the phase circle, so a
    spectrum with no positive pole besides the wrap of a negative one is still
    handled.
    """
    poles, weights = _weighted_poles(inst)
    above = poles[poles > 0.0]
    below = poles[poles < 0.0]
    next_above = float(np.min(above)) if above.size else float(np.min(poles)) + 2.0 * np.pi
    next_below = float(np.max(below)) if below.size else float(np.max(poles)) - 2.0 * np.pi
    lam_plus = _secular_root(poles, weights, 0.0, next_above)
    lam_minus = _secular_root(poles, weights, next_below, 0.0)
    return lam_plus, lam_minus


def mixing_angle(inst: SearchInstance) -> float:
    """Rotation angle set by the first moment; pi/4 when the moment vanishes."""
    return 0.5 * np.arctan2(2.0 * inst.overlap * inst.boost, inst.first_moment)


def predicted_pair_phases(inst: SearchInstance) -> tuple[float, float]:
    """Small-overlap prediction for the two eigenphases adjacent to zero.

    With a vanishing first moment both collapse to plus and minus twice the
    overlap over the boost.
    """
    eta = mixing_angle(inst)
    scale = 2.0 * inst.overlap / inst.boost
    return scale * np.tan(eta), -scale / np.tan(eta)


@dataclass(frozen=True, eq=False)
class RelevantPair:
    """The two search eigenstates that carry the source state.

    Eigenvectors are gauged so the target amplitude of each is real and
    positive.  ``secular_plus`` and ``secular_minus`` come from independent
    root-finding and are kept alongside the diagonalization values.
    """

    phase_plus: float
    phase_minus: float
    state_plus: np.ndarray
    state_minus: np.ndarray
    target_overlap_plus: float
    target_overlap_minus: float
    secular_plus: float
    secular_minus: float
    mixing: float


def find_relevant_pair(inst: SearchInstance) -> RelevantPair:
    """Locate, gauge and cross-check the eigenpair adjacent to phase zero.

    Raises AssumptionViolation when the instance does not actually have
    exactly two eigenphases inside the declared spectral gap, when either has
    a vanishing target amplitude, or when diagonalization and root-finding
    disagree.
    """
    dec = search_decomposition(inst)
    inside = np.flatnonzero(inside_gap(dec.phases, inst.spec.phase_gap))
    if inside.size != 2:
        raise AssumptionViolation(
            f"expected 2 eigenphases inside the gap (+-{inst.spec.phase_gap:.6g}), "
            f"found {inside.size}"
        )
    lams = dec.phases[inside]
    if not (lams.min() < 0.0 < lams.max()):
        raise AssumptionViolation(
            f"gap eigenphases {lams.tolist()} do not straddle zero"
        )

    states = {}
    overlaps = {}
    for k in inside:
        vec = np.array(dec.vectors[:, k])
        amp = vec[inst.target_index]
        if np.abs(amp) < 1e-12:
            raise AssumptionViolation("a gap eigenstate has no target amplitude")
        vec *= amp.conjugate() / np.abs(amp)
        key = "+" if dec.phases[k] > 0.0 else "-"
        states[key] = vec
        overlaps[key] = float(np.abs(amp))

    sec_plus, sec_minus = secular_pair(inst)
    for got, want in ((lams.max(), sec_plus), (lams.min(), sec_minus)):
        if abs(got - want) > TOL.secular_agreement:
            raise AssumptionViolation(
                f"diagonalization gives eigenphase {got:.12g} but root-finding "
                f"gives {want:.12g}; disagreement exceeds {TOL.secular_agreement:g}"
            )

    return RelevantPair(
        phase_plus=float(lams.max()),
        phase_minus=float(lams.min()),
        state_plus=states["+"],
        state_minus=states["-"],
        target_overlap_plus=overlaps["+"],
        target_overlap_minus=overlaps["-"],
        secular_plus=sec_plus,
        secular_minus=sec_minus,
        mixing=float(mixing_angle(inst)),
    )


def reconstruct_source(pair: RelevantPair) -> np.ndarray:
    """Rebuild the source state from the pair, global phase included.

    In the gauge fixed by ``find_relevant_pair`` (real positive target
    amplitudes, and the instance's ``source`` rephased the same way) the
    source is -i/sqrt(2) (e^{i p+/2} |+> - e^{i p-/2} |->) up to the
    weight the pair fails to carry.
    """
    return (-1j / np.sqrt(2.0)) * (
        np.exp(0.5j * pair.phase_plus) * pair.state_plus
        - np.exp(0.5j * pair.phase_minus) * pair.state_minus
    )


@dataclass(frozen=True, eq=False)
class HalfwayState:
    """Rotated source after the first stage, with its preparation cost."""

    state: np.ndarray
    steps: int


def halfway_step_count(inst: SearchInstance) -> int:
    """Search-operator applications rotating the source onto the halfway mix.

    Nearest integer to pi boost / (4 overlap) - 1/2, exact .5 going up.
    """
    return round_half_away(np.pi * inst.boost / (4.0 * inst.overlap) - 0.5)


def evolve_to_halfway(inst: SearchInstance, ledger=None) -> HalfwayState:
    """Rotate the source toward halfway with q_m search-operator applications.

    The power is taken in the instance's eigendecomposition,
    V (e^{i q_m lambda} * V^dagger s), with s the instance's ``source``.  The
    ledger, when given, is charged what the circuit spends: one diffusion
    application and one oracle query per application.
    """
    dec = search_decomposition(inst)
    steps = halfway_step_count(inst)
    # V^dagger s as the conjugate of s^dagger V: no conjugated copy of V
    coefficients = (inst.source.conj() @ dec.vectors).conj()
    state = dec.vectors @ (np.exp(1j * steps * dec.phases) * coefficients)
    if ledger is not None:
        ledger.charge(ds_applications=steps, oracle_queries=steps)
    return HalfwayState(state=state, steps=steps)
