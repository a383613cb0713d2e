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

Every inversion is one unestimate of a few phase columns per eigenvector,
and none writes a register.  An embedded state, a product
c (x) H|0> (x) |0> with c = V^dagger w that the frame keeps as c alone (the
first round's input, and each eigenstate of an epsilon report), has one
estimated column c_k phi_k per eigenvector, on vote value 0.  The basic
flip signs it.  It lies in the plane of u_in and u_out, so the boosted vote
stage maps it to its signed self on vote value 0 plus u_in and u_out times
the plane update on every vote value.  The unestimate acts on the phase axis
alone, so it runs on those r = 1 or 3 columns, and the output is kept as
them and their coefficients, a factored state.  The second round's target
flip adds one shared rank-one term to it.

Any other input is kept as it is, with the plane update delta (an inverted
state): slab k of the output is F_k^dagger (S (.) F_k psi_k + Y_k delta_k)
with F_k the estimate, S the fixed signs and Y_k = (u_in, u_out).  delta
needs only the projections Y_k^dagger F_k psi_k, and those are
Q_k^dagger psi_k with Q_k = F_k^dagger Y_k, the two plane columns
unestimated, taken from the input's factors or amplitudes.  The amplitudes
themselves are computed a block of vote values at a time when they are
read, so a two-round run writes no register.

The vote stage keeps a weight-symmetric state symmetric (see
``StateVector.vote_symmetric``).  Each kickback acts alike on the phase
register and its own vote bit: it keeps the part of the state even in
that bit and applies one fixed reflection of the phase register to the
odd part.  Kickbacks on different vote bits therefore commute, and the
majority flip and the fixed signs depend on a vote value only through its
number of ones, so the stage commutes with every permutation of the vote
bits.  An apply of a weight-symmetric state checks that its plane update
is equal across each weight class and marks its output symmetric, and
``measure_epsilon`` sums its errors on one vote value per weight.
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
    InternalInvariantError,
    eig_unitary,
    inside_gap,
    is_unitary,
)
from .phase_estimation import (
    DENSE_CAP,
    Inversion,
    RegisterLayout,
    StateVector,
    check_computed_norm,
    embed_mainspace,
    estimate_amplitudes,
    estimate_window_mass,
    gap_window_mask,
    raw_estimate_forward,
    raw_estimate_inverse,
)
from .search_core import search_decomposition

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


def vote_majority_mask(vote_bits: int) -> np.ndarray:
    """Boolean mask of the vote values with strictly more ones than zeros;
    ties stay outside."""
    if vote_bits < 2 or vote_bits % 2:
        raise ValueError("majority voting needs an even vote count >= 2")
    return _hamming_weights(vote_bits) > vote_bits // 2


def _hamming_weights(vote_bits: int) -> np.ndarray:
    """The number of ones of every vote value."""
    return np.array([v.bit_count() for v in range(1 << vote_bits)])


def binomial_tail_wrong_half(vote_bits: int, p, invert):
    """Probability that the independent votes at success rate p miss majority.

    For a state meant to be inverted the wrong half is at most half the votes
    coming up one (ties included); for a state meant to pass through it is a
    strict majority of ones.  ``p`` and ``invert`` broadcast to one tail
    each.  Every tail is summed term by term in scalar arithmetic: a numpy
    power of an array rounds differently from a float's.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"vote probability {p} outside [0, 1]")

    def tail(q, inv):
        ks = [k for k in range(vote_bits + 1) if (k <= vote_bits // 2) == inv]
        return sum(math.comb(vote_bits, k) * q**k * (1.0 - q) ** (vote_bits - k) for k in ks)

    return np.vectorize(tail, otypes=[float])(p, invert)[()]


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

    ``gap_window`` and ``vote_window`` are boolean masks over the phase and
    vote registers; the flips are -1 on them.  ``decomposition`` is the
    unitary's eigendecomposition, whose estimate frame the operator runs in,
    read through ``frame``.  Unless ``build`` is handed one it is computed on
    first use and kept.  A boosted operator also keeps the split of every
    eigenphase's estimate profile at the gap window, its vote plane: ``build``
    makes it at once when handed the decomposition, so that its temporaries
    are gone before any register exists, and otherwise the first ``apply``
    makes it.
    """

    scheme: InversionScheme
    unitary: np.ndarray
    layout: RegisterLayout
    gap_window: np.ndarray
    vote_window: np.ndarray | None
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
        op = cls(scheme=scheme, unitary=unitary, layout=layout,
                 gap_window=window, vote_window=votes, decomposition=decomposition)
        if decomposition is not None and votes is not None:
            op._vote_plane()
        return op

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
        """Row k is the conjugate of eigenvector k's u_in + u_out, with the
        norms of ``_split_estimates``; the two parts have disjoint supports,
        so one row keeps both exactly in half the memory."""
        if self._plane is None:
            estimates = estimate_amplitudes(self.scheme.phase_bits, self.frame.phases)
            units, norms = _split_estimates(estimates, ~self.gap_window)
            self._plane = (units.sum(axis=1).conj(), norms)
        return self._plane

    def apply(self, state: StateVector, ledger=None) -> StateVector:
        """One application of the inversion; charges the full query bill.

        ``state`` must be in the operator's estimate frame, and so is the
        result.  A state in another operator's frame raises.  The inversion
        runs on a few phase columns per eigenvector (see ``_inverted``), so
        no apply writes a register.  A product state (``state.main`` set:
        the ancillas still on |0> |0>) comes out as a factored state, any
        other as an inverted state whose amplitudes are computed when they
        are read.  The circuit and its charges are the same for every kind
        of state.
        """
        if state.layout != self.layout:
            raise ValueError("state layout does not match the operator")
        if state.frame is not self.frame:
            raise ValueError("state is in the estimate frame of another operator; "
                             "the inversion takes states in its own frame")
        out = self._inverted(state)
        out._vote_symmetric = state.vote_symmetric
        # the estimate and the unestimate, and for each of the 2 nu
        # kickbacks the estimate and unestimate inside its amplification,
        # one zero reflection and two vote Hadamards
        m = self.layout.phase_dim
        _charge(ledger, controlled_s=2 * m, oracle_queries=2 * m)
        if self.vote_window is not None:
            nu = self.scheme.vote_bits
            _charge(ledger, controlled_s=4 * nu * m, oracle_queries=4 * nu * m,
                    i_zero_prime=2 * nu, hadamards_vote=4 * nu)
        return out

    def _inverted(self, state: StateVector) -> StateVector:
        """The inversion of ``state``, from one unestimate of r phase
        columns per eigenvector (see the module docstring).

        The columns are the estimate of a product state and, for the
        boosted scheme, the plane Y_k = (u_in, u_out).  A product state
        comes out as the factored state of the unestimated columns, with
        coefficient 1 on vote value 0 for the signed estimate and the plane
        update delta_k for u_in and u_out.  Any other state comes out as the
        inverted state that keeps it, with the projections Q_k^dagger psi_k
        taken from its factors or its amplitudes (an inverted input is
        written out); the basic scheme needs no column for it.
        """
        _, sign = self._vote_signs()
        product = state.main is not None
        boosted = self.vote_window is not None
        if not (product or boosted):
            return StateVector.inverted(Inversion(state, sign))
        n, m, v = self.layout.shape
        phases = self.frame.phases
        cols = np.empty((n, m, product + 2 * boosted), dtype=complex)
        if boosted:
            self._plane_columns(cols[:, :, -2:])
        if product:
            column = state.main * (1.0 / math.sqrt(m))
            raw_estimate_forward(np.broadcast_to(column[:, None, None], (n, m, 1)),
                                 phases, out=cols[:, :, :1])
            coefs = np.zeros((n, cols.shape[2], v), dtype=complex)
            coefs[:, 0, 0] = 1.0
            if boosted:
                # Y_k^dagger e_k from the kept conjugated rows, not a copy of Y
                rows, _ = self._vote_plane()
                sides = np.stack([self.gap_window, ~self.gap_window], axis=1)
                p = np.zeros((n, 2, v), dtype=complex)
                p[:, :, 0] = np.einsum("kw,kw,wj->kj", rows, cols[:, :, 0], sides)
                coefs[:, 1:] = self._plane_update(p, state.vote_symmetric)
            cols[:, :, 0] *= sign[:, 0]
        raw_estimate_inverse(cols, phases, out=cols)
        if product:
            return StateVector.factored(cols, coefs, self.layout, self.frame)
        qh = np.conjugate(cols, out=cols).transpose(0, 2, 1)
        if state.factors is not None:
            factors, coefs = state.factors
            p = (qh @ factors) @ coefs
            if state.shared is not None:
                x, g = state.shared
                p += x[:, None, None] * (qh @ g)
        else:
            p = qh @ state.reshaped()
        delta = self._plane_update(p, state.vote_symmetric)
        delta.flags.writeable = False
        rows, _ = self._vote_plane()
        return StateVector.inverted(Inversion(state, sign, delta, rows, self.gap_window), p)

    def _vote_signs(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The majority flip over vote values, and the fixed sign of the
        stage per (phase, vote) value.

        The basic scheme flips the gap window and has no majority flip.  A
        kickback swaps vote bit j on the off-window rows, so all 2 nu of
        them complement the vote value there: in-window rows see the
        majority sign of their vote value, off-window rows that of the
        complemented one.
        """
        if self.vote_window is None:
            return None, np.where(self.gap_window, -1.0, 1.0)[:, None]
        vote_sign = np.where(self.vote_window, -1.0, 1.0)
        sign = np.where(self.gap_window[:, None], vote_sign, vote_sign[::-1])
        return vote_sign, sign

    def _plane_update(self, p: np.ndarray, symmetric: bool) -> np.ndarray:
        """The vote stage's update within the plane of u_in and u_out, as
        (main, 2, vote) coefficients along them.

        ``p`` holds the projections of the estimated slabs onto the plane.
        They run through the kickbacks and the flip, and the fixed signs the
        stage applies to the whole register are taken off again.  For the
        projections of a weight-symmetric state the update must be weight
        symmetric too (see the module docstring): every vote value must
        match the representative 2^h - 1 of its Hamming weight h within
        ``TOL.norm_preservation`` of the largest coefficient, or the output
        could not be read on the representatives.
        """
        _, norms = self._vote_plane()
        vote_sign, _ = self._vote_signs()
        plane_sign = np.stack([vote_sign, vote_sign[::-1]])
        delta = _vote_coefficients(p, norms, vote_sign) - plane_sign * p
        if symmetric:
            representative = (1 << _hamming_weights(self.scheme.vote_bits)) - 1
            spread = np.max(np.abs(delta - delta[:, :, representative]))
            if spread > TOL.norm_preservation * np.max(np.abs(delta)):
                raise InternalInvariantError(
                    f"the plane update of a weight-symmetric state differs within "
                    f"a Hamming-weight class by {spread:.3g}")
        return delta

    def _plane_columns(self, out: np.ndarray):
        """Write u_in and u_out of every eigenvector into the (main, phase, 2)
        array ``out``."""
        rows, _ = self._vote_plane()
        out.fill(0.0)
        np.conjugate(rows, out=out[:, :, 0], where=self.gap_window)
        np.conjugate(rows, out=out[:, :, 1], where=~self.gap_window)


def predicted_epsilon(scheme: InversionScheme, lam, invert):
    """Analytic inversion error per eigenphase; ``lam`` and ``invert`` may
    be arrays, which share one window and one batch of estimate profiles.

    Basic scheme: twice the root of the estimate mass on the wrong side of
    the window.  Boosted scheme: twice the root of the binomial tail at the
    per-vote in-window probability.
    """
    mask = gap_window_mask(scheme.phase_bits, scheme.phase_gap, scheme.guard_fraction)
    p = estimate_window_mass(scheme.phase_bits, lam, mask)
    if scheme.kind == "basic":
        wrong = np.where(invert, 1.0 - p, p)
        return 2.0 * np.sqrt(np.maximum(0.0, wrong))
    return 2.0 * np.sqrt(binomial_tail_wrong_half(scheme.vote_bits, p, invert))


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
    the frame.  The input is a product state, nonzero on vote value 0
    alone, and the output factored and weight-symmetric, so the squared
    norm is summed one main index's (phase, vote) slab at a time, each
    slab one (M, r) @ (r, nu + 1) product of the factors on one vote value
    per Hamming weight h, its coefficients scaled by sqrt(C(nu, h)) so
    that each value counts once per vote value of its weight, and the
    output's norm is checked from the same slabs: no register is written.
    """
    phases = np.asarray(eigenphases, dtype=float)
    vectors = np.asarray(eigenvectors, dtype=complex)
    invert = np.asarray(invert, dtype=bool)
    measured = np.empty(phases.shape[0])
    n, m, _ = op.layout.shape
    for k in range(phases.shape[0]):
        sv = embed_mainspace(op.layout, vectors[:, k], op.frame)
        out = op.apply(sv)
        cols, coefs = out.factors
        values, weights = out._vote_classes()
        coefs = coefs[:, :, values] * np.sqrt(weights)
        slab = np.empty((m, values.size), dtype=complex)
        column = sv.main * ((-1.0 if invert[k] else 1.0) / math.sqrt(m))
        total = norm_sq = 0.0
        for j in range(n):
            np.matmul(cols[j], coefs[j], out=slab)
            norm_sq += np.vdot(slab, slab).real
            slab[:, 0] -= column[j]
            total += np.vdot(slab, slab).real
        check_computed_norm(norm_sq)
        measured[k] = math.sqrt(total)
    predicted = predicted_epsilon(op.scheme, phases, invert)
    bound = basic_error_bound(op.scheme) if op.scheme.kind == "basic" else None
    return EpsilonReport(scheme=op.scheme, eigenphases=phases,
                         measured=measured, predicted=predicted,
                         inverted=invert, bound=bound)


def instance_epsilon_report(op: InversionOperator, inst,
                            operator: np.ndarray | None = None) -> EpsilonReport:
    """Epsilon report over the full eigensystem of an instance's search
    operator; the two gap eigenstates are the ones marked for inversion.

    Without ``operator`` the eigensystem is the instance's own
    decomposition; a given operator is diagonalized here.
    """
    if operator is None:
        dec = search_decomposition(inst)
    else:
        dec = eig_unitary(operator, TOL.system_unitarity)
    invert = inside_gap(dec.phases, op.scheme.phase_gap)
    if int(invert.sum()) != 2:
        raise AssumptionViolation(
            f"expected 2 eigenphases inside the declared gap, found {int(invert.sum())}"
        )
    return measure_epsilon(op, dec.phases, dec.vectors, invert)
