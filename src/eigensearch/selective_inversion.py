"""Approximate sign flip of the two gap eigenstates of a search operator.

The eigenstates are unknown, but their eigenphases are the only ones inside
the spectral gap, so phase estimation can tag them: estimate the phase into
an ancilla register, flip the sign of everything inside a zero-centered
window that stops a guard margin short of the gap edge, then uncompute.

Two schemes are implemented.  The basic one flips directly on the window and
its error per eigenstate is twice the square root of the estimate mass on
the wrong side of the window.  The boosted one converts the window test into
independent one-qubit votes, flips on a strict majority of ones, and turns
that linear error into a binomial tail.

The operator is simulated in the estimate frame of its unitary (see
``StateVector``): main axis in the eigenbasis, phase axis Walsh-Hadamard
transformed.  It takes a state in that frame and returns one there, so
amplification rounds need no basis change between them, and callers embed
their mainspace vectors straight into the frame.  In the frame every
register operator is block-diagonal, one block per eigenvector k.  The
estimate-reflect-unestimate inside each vote kickback, E (I - 2|0><0|)
E^dagger, is the rank-one reflection I - 2 |phi_k><phi_k| of the phase
register about the closed-form estimate profile
phi_k = ``estimate_amplitudes(mu, lambda_k)``, so it costs no transform at
all.

Split phi_k into its in-window and off-window parts.  A kickback leaves the
in-window rows of the phase register alone, swaps its vote bit on the
off-window rows and adds a multiple of phi_k that depends only on the
projections onto the two parts.  The boosted vote stage, 2 nu kickbacks
around the majority flip, is therefore a fixed sign per (phase, vote) value
plus a rank-two update in the plane of the two parts.  It runs as one
projection of the register onto that plane, the kickbacks and the flip on
two coefficients per eigenvector and vote value, and one pass applying the
signs and the update.  The query ledger still charges the physical circuit:
2^mu controlled applications per estimate, two estimates per kickback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    TOL,
    AssumptionViolation,
    EigenDecomposition,
    GapGuessTooCoarse,
    eig_unitary,
    inside_gap,
    is_unitary,
)
from .phase_estimation import (
    DENSE_CAP,
    RegisterLayout,
    StateVector,
    SubspaceMask,
    embed_mainspace,
    estimate_amplitudes,
    estimate_window_mass,
    gap_window_mask,
    raw_estimate_forward,
    raw_estimate_inverse,
    raw_flip,
)

GUARD_FRACTION = 2.0 * math.pi / 128.0


@dataclass(frozen=True)
class InversionScheme:
    """Register sizing and window geometry for one inversion operator.

    ``phase_gap`` is the declared spectral gap the windows are built from; it
    is part of the scheme, not of the instance, because a caller that only
    guesses the gap still has to commit the guess to hardware sizes.
    """

    kind: str
    phase_bits: int
    vote_bits: int
    phase_gap: float
    guard_fraction: float = GUARD_FRACTION

    def __post_init__(self):
        if self.kind not in ("basic", "boosted"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.phase_bits < 1:
            raise ValueError("need at least one phase-register bit")
        if not (0.0 < self.phase_gap <= math.pi):
            raise GapGuessTooCoarse(f"phase gap {self.phase_gap} outside (0, pi]")
        if not (0.0 < self.guard_fraction < 1.0):
            raise ValueError("guard fraction must sit in (0, 1)")
        if self.kind == "basic" and self.vote_bits != 0:
            raise ValueError("the basic scheme has no vote register")
        if self.kind == "boosted" and (self.vote_bits < 2 or self.vote_bits % 2):
            raise ValueError("the boosted scheme needs an even vote count >= 2")

    @classmethod
    def basic(cls, boost: float, phase_gap: float, extra_bits: int = 7,
              guard_fraction: float = GUARD_FRACTION) -> "InversionScheme":
        """Size the register so the window error stays of order 2^-extra_bits.

        The wrong-side mass of an in-gap eigenstate scales like the square of
        boost over the guard margin in register units, so the bit count grows
        with twice the log of the boost minus the log of the gap.
        """
        bits = math.ceil(2.0 * math.log2(boost) - math.log2(phase_gap)) + extra_bits
        return cls("basic", max(1, bits), 0, float(phase_gap), guard_fraction)

    @classmethod
    def boosted(cls, boost: float, phase_gap: float, offset_bits: int = 16,
                guard_fraction: float = GUARD_FRACTION) -> "InversionScheme":
        """Fixed-margin register plus enough votes to crush the error tail.

        The vote count only needs to grow logarithmically in the boost; it is
        kept even so a strict majority leaves a deliberate tie band.
        """
        bits = math.ceil(-math.log2(phase_gap)) + offset_bits
        votes = math.ceil(5.0 * math.log(boost)) if boost > 1.0 else 0
        votes = max(2, votes + (votes % 2))
        return cls("boosted", max(1, bits), votes, float(phase_gap), guard_fraction)


def vote_majority_mask(vote_bits: int) -> SubspaceMask:
    """Vote values with strictly more ones than zeros; ties stay outside."""
    if vote_bits < 2 or vote_bits % 2:
        raise ValueError("majority voting needs an even vote count >= 2")
    need = vote_bits // 2 + 1
    idx = [v for v in range(1 << vote_bits) if v.bit_count() >= need]
    return SubspaceMask(1 << vote_bits, np.array(idx))


def binomial_tail_wrong_half(vote_bits: int, p: float, invert: bool) -> float:
    """Probability that the independent votes at success rate p miss majority.

    For a state meant to be inverted the wrong half is at most half the votes
    coming up one (ties included); for a state meant to pass through it is a
    strict majority of ones.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"vote probability {p} outside [0, 1]")
    votes = vote_bits
    ks = range(0, votes // 2 + 1) if invert else range(votes // 2 + 1, votes + 1)
    return float(sum(math.comb(votes, k) * p**k * (1.0 - p) ** (votes - k) for k in ks))


def _charge(ledger, **counts):
    if ledger is None:
        return
    for name, value in counts.items():
        setattr(ledger, name, getattr(ledger, name) + value)


def _split_estimates(estimates: np.ndarray,
                     off_window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit in-window and off-window parts of every estimate profile.

    Returns ``units`` of shape (main, 2, phase), rows u_in and u_out of each
    eigenvector, and their norms of shape (main, 2), so that
    phi_k = norms[k, 0] u_in + norms[k, 1] u_out.  A part of norm exactly 0
    gets a zero row: nothing couples to it, so the split stays exact.
    """
    parts = np.stack([np.where(off_window, 0.0, estimates),
                      np.where(off_window, estimates, 0.0)], axis=1)
    norms = np.linalg.norm(parts, axis=2)
    units = np.divide(parts, norms[..., None], out=np.zeros_like(parts),
                      where=norms[..., None] > 0.0)
    return units, norms


def _vote_coefficients(p: np.ndarray, norms: np.ndarray,
                       vote_sign: np.ndarray) -> np.ndarray:
    """The 2 nu kickbacks and the majority flip on (main, 2, vote) coefficients.

    Row 0 of ``p`` is the amplitude along u_in, row 1 along u_out.  In that
    basis phi = (r_in, r_out) and W phi = (-r_in, r_out), so each kickback
    is the register one restricted to the plane: with e the difference of
    the vote-bit-j halves, (I - A) / 2 e keeps e's off-window row and adds
    -/+ phi times (W phi . e) or (phi . e).
    """
    n, _, v = p.shape
    q = p.copy()
    r_in, r_out = norms[:, 0, None, None], norms[:, 1, None, None]

    def kick(j, sign):
        b = q.reshape(n, 2, v >> (j + 1), 2, 1 << j)
        x0, x1 = b[:, :, :, 0], b[:, :, :, 1]
        e = x0 - x1
        c = sign * r_in * e[:, 0] + r_out * e[:, 1]
        e[:, 0] = sign * r_in * c
        e[:, 1] -= r_out * c
        x0 -= e
        x1 += e

    nu = v.bit_length() - 1
    for j in range(nu):
        kick(j, -1.0)
    q *= vote_sign
    for j in reversed(range(nu)):
        kick(j, 1.0)
    return q


@dataclass(eq=False)
class InversionOperator:
    """A sized inversion scheme bound to one mainspace unitary.

    ``decomposition`` is the unitary's eigendecomposition, whose estimate
    frame the operator runs in, read through ``frame``.  Unless ``build`` is
    handed one it is computed on first use and kept; a boosted operator also
    keeps the split of every eigenphase's estimate profile at the gap window.
    """

    scheme: InversionScheme
    unitary: np.ndarray
    layout: RegisterLayout
    gap_window: SubspaceMask
    vote_window: SubspaceMask | None
    decomposition: EigenDecomposition | None = None
    _plane: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False,
                                                         repr=False)

    @classmethod
    def build(cls, scheme: InversionScheme, unitary: np.ndarray,
              dense_cap: int = DENSE_CAP,
              decomposition: EigenDecomposition | None = None) -> "InversionOperator":
        unitary = np.asarray(unitary, dtype=complex)
        if not is_unitary(unitary, TOL.system_unitarity):
            raise ValueError("inversion target operator is not unitary")
        if decomposition is not None and decomposition.vectors.shape != unitary.shape:
            raise ValueError("eigendecomposition does not match the operator's dimension")
        layout = RegisterLayout(unitary.shape[0], scheme.phase_bits,
                                scheme.vote_bits, dense_cap)
        window = gap_window_mask(scheme.phase_bits, scheme.phase_gap,
                                 scheme.guard_fraction)
        votes = vote_majority_mask(scheme.vote_bits) if scheme.kind == "boosted" else None
        return cls(scheme=scheme, unitary=unitary, layout=layout,
                   gap_window=window, vote_window=votes, decomposition=decomposition)

    @property
    def frame(self) -> EigenDecomposition:
        """The decomposition whose estimate frame the operator runs in.

        Callers embed their states with ``frame=op.frame``.  It is
        diagonalized here on first use unless ``build`` was handed one, so
        building an operator stays cheap.
        """
        if self.decomposition is None:
            self.decomposition = eig_unitary(self.unitary, TOL.system_unitarity)
        return self.decomposition

    def _vote_plane(self) -> tuple[np.ndarray, np.ndarray]:
        if self._plane is None:
            estimates = estimate_amplitudes(self.scheme.phase_bits, self.frame.phases)
            self._plane = _split_estimates(estimates, self.gap_window.sign_vector() > 0.0)
        return self._plane

    def apply(self, state: StateVector, ledger=None) -> StateVector:
        """One application of the inversion; charges the full query bill.

        ``state`` must be in the operator's estimate frame, and so is the
        result: the estimate writes the one working array, so the input is
        never copied.  A computational state, or one in another operator's
        frame, raises.
        """
        if state.layout != self.layout:
            raise ValueError("state layout does not match the operator")
        dec = self.frame
        if state.frame is not dec:
            where = ("the computational basis" if state.frame is None
                     else "the estimate frame of another operator")
            raise ValueError(f"state is in {where}; the inversion takes states "
                             "in its own frame")
        m = self.layout.phase_dim
        a = raw_estimate_forward(state.reshaped(), dec.phases)
        _charge(ledger, controlled_s=m, oracle_queries=m)
        if self.scheme.kind == "basic":
            raw_flip(a, self.gap_window.sign_vector(), 1, out=a)
        else:
            self._vote_stage(a, ledger)
        raw_estimate_inverse(a, dec.phases, out=a)
        _charge(ledger, controlled_s=m, oracle_queries=m)
        return StateVector(a.reshape(-1), self.layout, dec)

    def _vote_stage(self, a: np.ndarray, ledger):
        """The 2 nu kickbacks around the majority flip, in place on the
        estimated array.

        The stage fixes everything orthogonal to the plane of u_in and u_out
        up to a sign per (phase, vote) value: a kickback swaps vote bit j on
        the off-window rows, so the off-window rows see the majority sign of
        the complemented vote value.  Within the plane it runs on the
        projections, two coefficients per eigenvector and vote value, and
        the difference is added back as one rank-two update per main index,
        with the phase x vote slab in cache.
        """
        m, nu = self.layout.phase_dim, self.scheme.vote_bits
        units, norms = self._vote_plane()
        off_window = self.gap_window.sign_vector() > 0.0
        vote_sign = self.vote_window.sign_vector()
        plane_sign = np.stack([vote_sign, vote_sign[::-1]])
        sign = np.where(off_window[:, None], plane_sign[1], plane_sign[0])
        p = np.matmul(units.conj(), a)
        delta = _vote_coefficients(p, norms, vote_sign) - plane_sign * p
        for k in range(self.layout.main_dim):
            slab = a[k]
            slab *= sign
            slab += units[k].T @ delta[k]
        # each of the 2 nu kickbacks: the estimate and unestimate inside its
        # amplification, one zero reflection and two vote Hadamards
        _charge(ledger, controlled_s=4 * nu * m, oracle_queries=4 * nu * m,
                i_zero_prime=2 * nu, hadamards_vote=4 * nu)


def predicted_epsilon(scheme: InversionScheme, lam: float, invert: bool) -> float:
    """Analytic inversion error for one eigenphase.

    Basic scheme: twice the root of the estimate mass on the wrong side of
    the window.  Boosted scheme: twice the root of the binomial tail at the
    per-vote in-window probability.
    """
    mask = gap_window_mask(scheme.phase_bits, scheme.phase_gap, scheme.guard_fraction)
    p = estimate_window_mass(scheme.phase_bits, lam, mask)
    if scheme.kind == "basic":
        wrong = 1.0 - p if invert else p
        return 2.0 * math.sqrt(max(0.0, wrong))
    return 2.0 * math.sqrt(binomial_tail_wrong_half(scheme.vote_bits, p, invert))


def basic_error_bound(scheme: InversionScheme) -> float:
    """Closed-form ceiling on the basic scheme's worst inversion error."""
    if scheme.kind != "basic":
        raise ValueError("the closed-form bound covers the basic scheme only")
    return math.sqrt(1.0 / (2.0 ** (scheme.phase_bits - 6) * scheme.phase_gap))


@dataclass(frozen=True, eq=False)
class EpsilonReport:
    """Measured and predicted inversion errors over a set of eigenstates."""

    scheme: InversionScheme
    eigenphases: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray
    inverted: np.ndarray
    bound: float | None = None

    @property
    def epsilon_max(self) -> float:
        return float(self.measured.max())

    @property
    def worst_inverted(self) -> float:
        return float(self.measured[self.inverted].max())

    @property
    def worst_passthrough(self) -> float:
        return float(self.measured[~self.inverted].max())

    @property
    def worst_prediction_gap(self) -> float:
        return float(np.max(np.abs(self.measured - self.predicted)))


def measure_epsilon(op: InversionOperator, eigenphases, eigenvectors,
                    invert) -> EpsilonReport:
    """Drive every given eigenstate through the operator and compare against
    the intended sign, alongside the analytic prediction.

    Each eigenstate is embedded straight into the operator's estimate frame
    and compared there; the norm of ``out - sign * in`` does not depend on
    the frame.
    """
    phases = np.asarray(eigenphases, dtype=float)
    vectors = np.asarray(eigenvectors, dtype=complex)
    invert = np.asarray(invert, dtype=bool)
    frame = op.frame
    measured = np.empty(phases.shape[0])
    predicted = np.empty(phases.shape[0])
    for k in range(phases.shape[0]):
        sv = embed_mainspace(op.layout, vectors[:, k], frame=frame)
        out = op.apply(sv)
        sign = -1.0 if invert[k] else 1.0
        measured[k] = float(np.linalg.norm(out.amps - sign * sv.amps))
        predicted[k] = predicted_epsilon(op.scheme, float(phases[k]), bool(invert[k]))
    bound = basic_error_bound(op.scheme) if op.scheme.kind == "basic" else None
    return EpsilonReport(scheme=op.scheme, eigenphases=phases,
                         measured=measured, predicted=predicted,
                         inverted=invert, bound=bound)


def instance_epsilon_report(op: InversionOperator, inst,
                            operator: np.ndarray | None = None) -> EpsilonReport:
    """Epsilon report over the full eigensystem of an instance's search
    operator; the two gap eigenstates are the ones marked for inversion."""
    from .search_core import build_search_operator

    if operator is None:
        operator = build_search_operator(inst)
    dec = eig_unitary(operator, TOL.system_unitarity)
    invert = inside_gap(dec.phases, op.scheme.phase_gap)
    if int(invert.sum()) != 2:
        raise AssumptionViolation(
            f"expected 2 eigenphases inside the declared gap, found {int(invert.sum())}"
        )
    return measure_epsilon(op, dec.phases, dec.vectors, invert)
