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
plus a rank-two update in the plane of the two parts.  The estimate E_k is
unitary, so the operator keeps the plane unestimated,
Q_k = E_k^dagger (u_in, u_out): the stage is the projections of the input
onto Q, the kickbacks and the flip on two coefficients per eigenvector and
Dicke column, the fixed signs between one estimate and one unestimate, and
the update along Q.  The query ledger still charges the physical circuit:
2^mu controlled applications per estimate, two estimates per kickback.

The vote stage runs in closed form in the Hadamard basis H of the vote
register (MacWilliams and Sloane, The Theory of Error-Correcting Codes,
ch. 5).  In the plane a kickback on vote bit j keeps the part of the
coefficients even in that bit and rotates the odd part by
M_sigma = Z (I - 2 phi phi^T), with Z = diag(1, -1), phi = (sigma |in|,
|out|), and sigma = -1 before the majority flip and +1 after it.
Kickbacks on different bits commute, so the nu of them on one side of the
flip act on a Hadamard basis column of weight s as M_sigma^s, and the
stage is H M_+^s H F H M_-^s H, with F the majority sign of each vote
column's weight.  It commutes with every permutation of the vote bits, so
the inversion keeps a state in the Dicke basis of the vote register (see
``phase_estimation``): there H is the (nu + 1) x (nu + 1) Krawtchouk
matrix, and the complement of weight h is weight nu - h.  The update never
leaves that basis, so only the norm of its output is left to check.

A state held as slabs runs a few eigenvectors at a time, on its Dicke
columns, through one estimate and one unestimate.  An embedded state, a
product c (x) H|0> (x) |0> with c = V^dagger w that the frame keeps as c
alone (the first round's input, and each eigenstate of an epsilon report),
estimates to c_k (|in| u_in + |out| u_out) on vote value 0, which lies in
the plane.  So a boosted apply of it runs no transform and writes no slab:
its output is each eigenvector's (nu + 1, 2) coefficients c_k along Q_k,
and the next round reads its projections off them.
"""

from __future__ import annotations

import functools
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
    embed_mainspace,
    gap_window_mask,
    main_projection,
    power_table,
    raw_estimate_forward,
    raw_estimate_inverse,
    raw_reflect_main,
    window_split,
)
from .search_core import search_decomposition

GUARD_FRACTION = 2.0 * math.pi / 128.0
_CHUNK = 1 << 15
# the largest vote count a scheme takes.  Its Krawtchouk matrix stays finite
# and its own inverse within 2e-15 up to nu = 340, but the O(nu^3) integer
# build grows from 0.04 s at nu = 64 to 0.5 s at 128 (2-core x86 box)
_MAX_VOTE_BITS = 64


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
        if self.vote_bits > _MAX_VOTE_BITS:
            raise ValueError(f"a scheme takes at most {_MAX_VOTE_BITS} votes, "
                             f"not {self.vote_bits}")

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


def binomial_tail_wrong_half(vote_bits: int, p_one, p_zero, invert):
    """Probability that independent votes, each one with probability
    ``p_one`` and zero with ``p_zero``, miss majority.

    For a state meant to be inverted the wrong half is at most half the votes
    coming up one (ties included); for a state meant to pass through it is a
    strict majority of ones.  Both probabilities are given, so that neither
    is a rounded complement 1 - p.  The arguments broadcast to one tail
    each.  Every tail is summed term by term in scalar arithmetic: a numpy
    power of an array rounds differently from a float's.
    """
    p_one, p_zero = np.asarray(p_one, dtype=float), np.asarray(p_zero, dtype=float)
    if not np.all((p_one >= 0.0) & (p_one <= 1.0) & (p_zero >= 0.0) & (p_zero <= 1.0)):
        raise ValueError(f"vote probabilities {p_one}, {p_zero} outside [0, 1]")

    def tail(one, zero, inv):
        ks = [k for k in range(vote_bits + 1) if (k <= vote_bits // 2) == inv]
        return sum(math.comb(vote_bits, k) * one**k * zero ** (vote_bits - k) for k in ks)

    return np.vectorize(tail, otypes=[float])(p_one, p_zero, invert)[()]


def _chunks(n: int, width: int) -> list[slice]:
    """Runs of eigenvectors an apply works on together: at most an eighth
    of the n, holding at most ``_CHUNK`` values of ``width`` each, and at
    least one."""
    step = max(1, min(n >> 3, _CHUNK // width))
    return [slice(first, first + step) for first in range(0, n, step)]


# plane coefficients to their circular components p_in +- i p_out, on
# which a rotation by alpha of the plane is the phase e^{+-i alpha}
_CIRCULAR = np.array([[1.0, 1j], [1.0, -1j]]) / math.sqrt(2.0)


@functools.cache
def _vote_basis(nu: int) -> tuple[np.ndarray, np.ndarray]:
    """The vote Hadamard H^{(x) nu} on the nu + 1 Dicke columns, the
    Krawtchouk matrix K[s, h] = <D_s| H^{(x) nu} |D_h>, built in integers
    and scaled once in floats, and the majority sign F of each column's
    weight, -1 on strictly more ones than zeros.  K is real, symmetric and
    its own inverse."""
    c = [math.comb(nu, h) for h in range(nu + 1)]
    counts = np.array([[c[h] * sum((-1) ** j * math.comb(h, j) * math.comb(nu - h, s - j)
                                   for j in range(s + 1))
                        for h in range(nu + 1)] for s in range(nu + 1)], dtype=float)
    c = np.array(c, dtype=float)
    k = counts / np.sqrt(np.outer(c, c) * 2.0 ** nu)
    flip = np.where(np.arange(nu + 1) > nu // 2, -1.0, 1.0)
    k.flags.writeable = flip.flags.writeable = False
    return k, flip


@dataclass(eq=False)
class InversionOperator:
    """A sized inversion scheme bound to one mainspace unitary.

    ``gap_window`` is a boolean mask over the phase register, -1 under the
    basic flip.  ``decomposition`` is the unitary's eigendecomposition,
    whose estimate frame the operator runs in, read through ``frame``.
    Unless ``build`` is handed one it is computed on first use and kept.  A
    real unitary is kept real, so its unitarity check and eigensolve run in
    real arithmetic.  The operator also keeps the split of every
    eigenvector's estimate profile at the gap window: its norms (|in|,
    |out|), and for the boosted scheme its vote plane Q, the two unit parts
    unestimated, (main, 2, phase).  A ``build`` handed the decomposition
    makes Q at once, before any register exists.  Controlled powers are not
    kept: an apply builds them a few eigenvectors at a time.
    """

    scheme: InversionScheme
    unitary: np.ndarray
    layout: RegisterLayout
    gap_window: np.ndarray
    decomposition: EigenDecomposition | None = None
    _split: tuple[np.ndarray | None, np.ndarray] | None = field(
        default=None, init=False, repr=False)
    _gram: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, scheme: InversionScheme, unitary: np.ndarray,
              dense_cap: int = DENSE_CAP,
              decomposition: EigenDecomposition | None = None) -> "InversionOperator":
        unitary = np.asarray(unitary)
        if not is_unitary(unitary, TOL.system_unitarity):
            raise ValueError("inversion target operator is not unitary")
        if decomposition is not None and decomposition.vectors.shape != unitary.shape:
            raise ValueError("eigendecomposition does not match the operator's dimension")
        layout = RegisterLayout(unitary.shape[0], scheme.phase_bits,
                                scheme.vote_bits, dense_cap)
        window = gap_window_mask(scheme.phase_bits, scheme.phase_gap,
                                 scheme.guard_fraction)
        op = cls(scheme=scheme, unitary=unitary, layout=layout,
                 gap_window=window, decomposition=decomposition)
        if decomposition is not None and scheme.kind == "boosted":
            op._window_split()
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

    def _window_split(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The vote plane Q and the norms of ``window_split`` for every
        eigenvector at the gap window, made on first use and kept; Q is the
        unit parts unestimated in place, and the basic scheme keeps none.
        With Q it keeps ``_gram``, the measured Gram matrices Q_k Q_k^dagger,
        from which plane states take their norms and projections."""
        if self._split is None:
            phases, m = self.frame.phases, self.layout.phase_dim
            plane = (None if self.scheme.kind == "basic"
                     else np.empty((phases.size, 2, m), dtype=complex))
            norms = window_split(self.scheme.phase_bits, phases, self.gap_window, out=plane)
            if plane is not None:
                for part in _chunks(phases.size, 2 * m):
                    raw_estimate_inverse(plane[part], power_table(phases[part], m),
                                         out=plane[part])
                self._gram = np.matmul(plane, plane.conj().transpose(0, 2, 1))
            self._split = (plane, norms)
        return self._split

    def predicted_epsilon(self, invert) -> np.ndarray:
        """``predicted_epsilon`` of every eigenvector of the frame, from the
        kept norms; ``invert`` marks the eigenvectors meant to be flipped."""
        return _split_epsilon(self.scheme, self._window_split()[1], invert)

    def apply(self, state: StateVector, ledger=None) -> StateVector:
        """One application of the inversion; charges the full query bill.

        ``state`` must be in the operator's estimate frame, and so is the
        result.  A state in another operator's frame raises.  The result
        is held as Dicke slabs, and a boosted apply of a product state's as
        plane coefficients.  The circuit and its charges are the same for
        every form of state.
        """
        if state.layout != self.layout:
            raise ValueError("state layout does not match the operator")
        if state.frame is not self.frame:
            raise ValueError("state is in the estimate frame of another operator; "
                             "the inversion takes states in its own frame")
        out = self._invert(state)
        if ledger is not None:
            # the estimate and the unestimate, and for each of the 2 nu
            # kickbacks the estimate and unestimate inside its amplification,
            # one zero reflection and two vote Hadamards: 2M + 4 nu M queries
            nu = self.scheme.vote_bits
            queries = (2 + 4 * nu) * self.layout.phase_dim
            ledger.charge(controlled_s=queries, oracle_queries=queries,
                          i_zero_prime=2 * nu, hadamards_vote=4 * nu)
        return out

    def _invert(self, state: StateVector) -> StateVector:
        """The inversion of ``state`` (see the module docstring).  The
        boosted scheme runs the vote stage on the projections
        p = Q^dagger psi of all eigenvectors first; an embedded state's are
        c (x) (|in|, |out|), and its output stays plane coefficients.  Any
        other state is written into one output array a few eigenvectors at
        a time: its slabs, or c_k Q_k for a state held on this plane, plus a
        pending reflection (its projection is formed once, beforehand),
        then their controlled powers, the estimate in place, the signs, the
        unestimate and the update along Q.
        """
        n, cols, m = self.layout.shape
        plane, norms = self._window_split()
        product = state.main is not None
        if product and plane is not None:
            p = np.zeros((n, 2, cols), dtype=complex)
            p[:, :, 0] = state.main[:, None] * norms
            coefs = self._plane_update(p)
            # Dicke column 0 keeps its signed estimate, +1 on the window
            # and -1 off it, which lies in the plane too
            coefs[:, :, 0] += p[:, :, 0] * [1.0, -1.0]
            return StateVector.from_plane(coefs.transpose(0, 2, 1), plane, self._gram,
                                          self.layout, self.frame)
        out = np.empty((n, cols, m), dtype=complex)
        held = state.coefs is not None and state.plane is plane
        src = None if held else state.slabs if not product else np.broadcast_to(
            (state.main * (1.0 / math.sqrt(m)))[:, None, None], (n, 1, m))
        x = state.reflection                # None for a product state
        if x is not None:
            # -2 x^dagger psi on the main axis: -2 sum_k conj(x_k) c_k Q_k if held
            proj = main_projection(src, x) if not held else np.tensordot(
                -2.0 * x.conj()[:, None, None] * state.coefs, plane, axes=([0, 2], [0, 1]))
        parts = _chunks(n, cols * m)
        if plane is not None:
            if held:
                # c_k Q_k projects onto Q_k as c_k G_k, G_k the kept Gram
                p = np.matmul(state.coefs, self._gram).transpose(0, 2, 1)
            else:
                p = np.empty((n, 2, cols), dtype=complex)
                for part in parts:
                    np.matmul(plane[part].conj(), src[part].transpose(0, 2, 1),
                              out=p[part])
            if x is not None:
                # Q^dagger of a reflected slab adds x_k Q_k^dagger proj
                p += x[:, None, None] * (plane.reshape(-1, m) @ proj.conj().T).reshape(
                    n, 2, cols).conj()
            delta = self._plane_update(p).transpose(0, 2, 1)
        signs = self._signs()
        for part in parts:
            powers = power_table(self.frame.phases[part], m)
            run = np.matmul(state.coefs[part], plane[part]) if held else src[part]
            if x is not None:
                run = raw_reflect_main(run, x[part], proj, out=out[part])
            block = raw_estimate_forward(run, powers, out=out[part])
            block *= signs
            raw_estimate_inverse(block, powers, out=block)
            if plane is not None:
                block += np.matmul(delta[part], plane[part])
        return StateVector.from_slabs(out, self.layout, self.frame, computed=True)

    def _signs(self) -> np.ndarray:
        """The fixed sign of the stage per (Dicke column, phase value),
        complex so that signing the slabs in place casts nothing.

        The basic scheme flips the gap window.  A boosted kickback swaps
        vote bit j on the off-window rows, so all 2 nu of them complement
        the vote value there: in-window rows see the majority sign F of
        their column, off-window rows that of the mirrored column.
        """
        if self.scheme.kind == "basic":
            return np.where(self.gap_window, -1.0 + 0j, 1.0)[None]
        flip = _vote_basis(self.scheme.vote_bits)[1].astype(complex)
        return np.where(self.gap_window, flip[:, None], flip[::-1, None])

    def _plane_update(self, p: np.ndarray) -> np.ndarray:
        """The vote stage's update within the plane of u_in and u_out, as
        (main, 2, nu + 1) coefficients along them.

        ``p`` holds the projections of the input's Dicke columns onto the
        plane Q.  They run through the stage H M_+^s H F H M_-^s H of the
        module docstring, and the fixed signs it applies to the whole
        register are taken off again.  M_+ is the
        rotation by theta_k, e^{i theta_k} = (|out| + i |in|)^2, and M_- its
        inverse, so on the circular components p_in +- i p_out M_sigma^s
        is the phase e^{+-i sigma s theta_k}.
        """
        nu = self.scheme.vote_bits
        hadamard, flip = _vote_basis(nu)
        norms = self._window_split()[1]
        turn = (norms[:, 1] + 1j * norms[:, 0]) ** 2
        rotations = turn ** np.arange(nu + 1)[:, None]
        rotations = np.stack([rotations, rotations.conj()], axis=1)
        q = np.matmul(_CIRCULAR, p.T)
        for factor in (rotations.conj(), flip[:, None, None], rotations):
            q = np.tensordot(hadamard, q, axes=1)
            q *= factor
        q = np.matmul(_CIRCULAR.conj().T, np.tensordot(hadamard, q, axes=1)).T
        return q - np.stack([flip, flip[::-1]]) * p


def predicted_epsilon(scheme: InversionScheme, lam, invert):
    """Analytic inversion error per eigenphase; ``lam`` and ``invert`` may
    be arrays, which share one window.

    Each estimate profile is split at the gap window (``window_split``).
    Basic scheme: twice the norm of the part on the wrong side of the
    window.  Boosted scheme: twice the root of the binomial tail of votes
    that come up one with the in-window probability |in|^2 and zero with
    the off-window |out|^2.
    """
    mask = gap_window_mask(scheme.phase_bits, scheme.phase_gap, scheme.guard_fraction)
    return _split_epsilon(scheme, window_split(scheme.phase_bits, lam, mask), invert)


def _split_epsilon(scheme: InversionScheme, norms: np.ndarray, invert):
    """``predicted_epsilon`` from the (..., 2) norms (|in|, |out|)."""
    if scheme.kind == "basic":
        return 2.0 * np.where(invert, norms[..., 1], norms[..., 0])
    p_one, p_zero = norms[..., 0] ** 2, norms[..., 1] ** 2
    return 2.0 * np.sqrt(binomial_tail_wrong_half(scheme.vote_bits, p_one, p_zero, invert))


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
    alone, and the output Dicke slabs, an orthonormal basis, so the error
    is the plain norm of the slabs, written out once, minus the signed
    input on column 0.  The operator's own frame phases are predicted from
    its kept split.
    """
    phases = np.asarray(eigenphases, dtype=float)
    vectors = np.asarray(eigenvectors, dtype=complex)
    invert = np.asarray(invert, dtype=bool)
    measured = np.empty(phases.shape[0])
    m = op.layout.phase_dim
    for k in range(phases.shape[0]):
        sv = embed_mainspace(op.layout, vectors[:, k], op.frame)
        diff = np.require(op.apply(sv).slabs, requirements="W")
        diff[:, 0] -= (sv.main * ((-1.0 if invert[k] else 1.0) / math.sqrt(m)))[:, None]
        measured[k] = math.sqrt(np.vdot(diff, diff).real)
    predicted = (op.predicted_epsilon(invert) if phases is op.frame.phases
                 else predicted_epsilon(op.scheme, phases, invert))
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
