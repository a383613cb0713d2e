"""Multi-register simulation of phase estimation, in the unitary's estimate frame.

A register state is a complex vector over (mainspace) x (phase register) x
(vote register), stored flat in C order, so index ((m * P) + w) * V + v with
P and V the register sizes addresses mainspace index m, phase value w and
vote bits v.  All operators act on one axis of the reshaped array and batch
over the others; the raw kernels below take any (main, phase, trailing)
array, or with ``axis=2`` a (main, trailing, phase) one, so callers can
slice the trailing axis however they need.

The estimation circuit is: Walsh-Hadamard on the phase register, powers of
the mainspace unitary controlled on the phase value, then an inverse Fourier
transform of the phase register.  Every step is block-diagonal in the
eigenbasis of the unitary U = V diag(e^{i lambda}) V^dagger, so the kernels
run in the estimate frame of U (see ``StateVector``): main index k stands
for eigenvector k, the controlled power U^w becomes the phase
e^{i w lambda_k}, and the phase axis is already Walsh-Hadamard transformed,
so the estimate is the controlled powers and the inverse Fourier transform
alone.  A ``StateVector`` exists only in such a frame: callers embed their
mainspace vectors straight into it, keep their states there and read the
main marginal and the zero branch out of it, so no kernel here changes
basis.  An embedded vector, whose ancillas are still on |0> |0>, stays n
frame coefficients (``StateVector.product``), a state spanned by r phase
columns per main index, as the inversion of a product state is, stays
those columns and their coefficients (``StateVector.factored``), and the
inversion of any other state stays its input and the coefficients of its
vote stage (``StateVector.inverted``).  ``StateVector.blocks`` computes the
amplitudes of any of them a few vote values at a time, phase last, and the
readouts and ``amps`` read them through it, so none of them writes a
register until its ``amps`` are read.  Fed eigenvector k, the estimate
leaves the phase register in the peaked profile
``estimate_amplitudes(phase_bits, lambda_k)``.

The states an amplification run makes are weight-symmetric
(``StateVector.vote_symmetric``): the amplitude at vote value v depends on
v only through its Hamming weight.  An embedded vector has every vote on
0, the target flip acts on the main axis alone, and the vote stage of the
inversion commutes with every permutation of the vote bits (see
``selective_inversion``), so every round keeps the symmetry.  The
readouts of such a state compute one vote value per weight h, 2^h - 1,
and count its share C(nu, h) times: nu + 1 vote values instead of 2^nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import (
    TOL,
    EigenDecomposition,
    GapGuessTooCoarse,
    InternalInvariantError,
    ResourceCapExceeded,
    dagger,
    round_half_away,
)

DENSE_CAP = 1 << 22
"""Largest joint register, in amplitudes: 64 MiB of complex128.

The cap bounds memory only together with the working set of the kernels.
No ``InversionOperator.apply`` writes a register.  An apply of a product
state keeps r phase columns per eigenvector, r / vote_dim of the register:
the basic scheme's one column is the size of the register, the boosted
scheme's three are 0.98x with two votes, where they are three quarters of
the register.  A target flip of such a factored state adds one phase x
vote array (0.17x for a basic round-two flip on ref12 at mu=12).  Any
other apply returns an inverted state (see ``StateVector``), its input and
small coefficients: 0.26x the register for a boosted mu=10, nu=4 apply of a
register state on ref12, 0.68x for a flipped factored state with two votes,
where the two unestimated plane columns are half the register.  The
amplitudes of those states are computed when they are read, one block of at
most ``_GRAM_BLOCK`` phase x vote values at a time, and the readouts hold
one block of the nu + 1 vote values they compute, one per Hamming weight.
So the two rounds of a boosted ``run_full`` write no register: 0.35x for a
boosted mu=9, nu=6 run on ref12, whose one block is 7 of the 64 vote
values; 2.12x for mu=10, nu=2, where the block is 3 of the 4, next to the
three columns; 0.93x for criterion-08's one-round mu=5, nu=4 runs, 5 of
16.  A basic run has one vote value, so its block is the whole register:
2.52x for a basic mu=12 run on ref12, next to the round-two input's
column.  A block holds at most main_dim x max(_GRAM_BLOCK, phase_dim)
amplitudes.  A target flip of an inverted state (round 3 and later)
writes its amplitudes, and the state drops its input, so later rounds
hold at most two registers, the state and its successor.  A boosted
operator also keeps its vote plane, one main x phase table (1 / vote_dim
of the register), which ``run_full`` builds before the first round.  The
multiples are measured and pinned by the tests
``test_boosted_apply_allocates_twice_the_register``,
``test_a_product_state_apply_writes_only_its_output_register``,
``test_a_flipped_factored_state_apply_writes_one_register``,
``test_a_boosted_run_holds_one_register``,
``test_a_boosted_run_writes_no_register``,
``test_a_one_round_run_reads_its_factors``,
``test_a_basic_round_two_flip_keeps_the_factors``,
``test_a_basic_run_predicts_its_epsilons_a_few_eigenphases_at_a_time``,
``test_boosted_amplification_holds_two_registers`` and
``test_a_two_vote_run_builds_its_vote_plane_before_the_register``.
"""

_GRAM_BLOCK = 1 << 12
_GRAM_COLUMNS = 1 << 8


@dataclass(frozen=True)
class RegisterLayout:
    """Shape bookkeeping for a joint register vector."""

    main_dim: int
    phase_bits: int
    vote_bits: int = 0
    dense_cap: int = DENSE_CAP

    def __post_init__(self):
        if self.main_dim < 1 or self.phase_bits < 1 or self.vote_bits < 0:
            raise ValueError(
                f"bad layout: main {self.main_dim}, phase {self.phase_bits} bits, "
                f"vote {self.vote_bits} bits"
            )
        if self.dim > self.dense_cap:
            raise ResourceCapExceeded(
                f"register of {self.dim} amplitudes exceeds the dense cap "
                f"{self.dense_cap}; lower the register sizes or raise the cap"
            )

    @property
    def phase_dim(self) -> int:
        return 1 << self.phase_bits

    @property
    def vote_dim(self) -> int:
        return 1 << self.vote_bits

    @property
    def dim(self) -> int:
        return self.main_dim * self.phase_dim * self.vote_dim

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.main_dim, self.phase_dim, self.vote_dim)


class Inversion(NamedTuple):
    """What an inversion keeps of its output (see ``StateVector.inverted``).

    ``source`` is the state it was applied to and ``sign`` the fixed
    (phase, vote) signs of its flip.  A boosted inversion also has the
    plane update ``delta``, (main, 2, vote) coefficients along u_in and
    u_out, and the plane they span: ``rows`` (main, phase) is the conjugated
    u_in + u_out of every eigenvector and ``window`` the boolean support of
    u_in on the phase register.
    """

    source: StateVector
    sign: np.ndarray
    delta: np.ndarray | None = None
    rows: np.ndarray | None = None
    window: np.ndarray | None = None


class StateVector:
    """Normalized amplitudes over a RegisterLayout, in an estimate frame.

    ``frame`` is the eigendecomposition (V, lambda) of a mainspace unitary
    U, and ``amps`` are the amplitudes in the estimate frame of U:

        a_F = (V^dagger (x) H^{(x) mu} (x) 1) a,

    the main axis written in U's eigenbasis, the phase axis Walsh-Hadamard
    transformed and the vote axis untouched.  Estimation circuits of U and
    the target flip run in that frame without a basis change, and the
    readouts below answer for the computational basis without leaving it.
    Frames are compared by identity: a state belongs to the operator whose
    decomposition object it carries.

    Besides a register, a state comes in three kinds that hold none.  A
    state with the ancillas still on |0> |0>, made by ``product``, is
    main (x) H|0> (x) |0> in the frame and is kept as its n main
    coefficients ``main`` (read-only).  A state whose main slabs all lie in
    the span of r phase columns, made by ``factored``, is kept as those
    columns and their coefficients, ``factors``, plus at most one rank-one
    ``shared`` term.  The inversion of any other state, made by
    ``inverted``, is kept as its input and what the vote stage did to it,
    ``inversion``.
    ``main``, ``factors``, ``shared`` and ``inversion`` are None wherever
    they do not apply, and ``norm`` is the norm checked at construction.

    ``blocks`` writes the amplitudes of any kind a few vote columns at a
    time; the readouts and ``amps`` read through it.  The readouts of a
    ``vote_symmetric`` state compute one vote column per Hamming weight.
    ``amps`` writes the register on first read and keeps it.  A product or
    factored state keeps its coefficients too, and its blocks still come
    from them; an inverted state drops its inversion, so the register it
    wrote is then its only copy.
    """

    __slots__ = ("_amps", "main", "factors", "shared", "inversion", "norm",
                 "layout", "frame", "_vote_symmetric")

    def __init__(self, amps, layout: RegisterLayout, frame: EigenDecomposition):
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if amps.shape != (layout.dim,):
            raise ValueError(f"amplitude count {amps.shape[0]} != layout dim {layout.dim}")
        self._bind(layout, frame, _vector_norm(amps))
        self._amps = amps

    @classmethod
    def product(cls, main, layout: RegisterLayout,
                frame: EigenDecomposition) -> "StateVector":
        """The state main (x) H|0> (x) |0> of the frame, held as ``main``:
        the n frame coefficients of the main register.  Its norm is the
        norm of ``main``."""
        main = np.array(main, dtype=complex)
        if main.shape != (layout.main_dim,):
            raise ValueError(f"{main.size} main coefficients do not match the "
                             f"main dimension {layout.main_dim}")
        main.flags.writeable = False
        state = cls.__new__(cls)
        state._bind(layout, frame, _vector_norm(main))
        state.main = main
        state._vote_symmetric = True
        return state

    @classmethod
    def factored(cls, cols: np.ndarray, coefs: np.ndarray, layout: RegisterLayout,
                 frame: EigenDecomposition, shared=None) -> "StateVector":
        """The state whose slab k is cols[k] @ coefs[k] + x[k] g.

        ``cols`` are (main, phase, r) columns and ``coefs`` (main, r, vote)
        coefficients, for any column count r; ``shared`` is None or the
        pair (x, g) of an n-vector and one (phase, vote) array.  The arrays
        are kept, read-only, not copied, and the norm is taken from them
        (``factored_norm``).
        """
        n, m, v = layout.shape
        r = cols.shape[-1]
        if cols.shape != (n, m, r) or coefs.shape != (n, r, v):
            raise ValueError(f"factors of shapes {cols.shape} and {coefs.shape} do "
                             f"not match the layout {layout.shape}")
        state = cls.__new__(cls)
        state._bind(layout, frame, factored_norm(cols, coefs, shared))
        for array in (cols, coefs) + (shared or ()):
            array.flags.writeable = False
        state.factors, state.shared = (cols, coefs), shared
        return state

    @classmethod
    def inverted(cls, inversion: Inversion, projections=None) -> "StateVector":
        """The state whose slab k is F_k^dagger (S (.) F_k psi_k + Y_k delta_k).

        psi_k is slab k of ``inversion.source``, F_k its estimate
        (``raw_estimate_forward``), S the (phase, vote) signs and
        Y_k = (u_in, u_out) the plane of ``inversion``; the basic scheme has
        no plane term.  Nothing is computed here: ``blocks`` computes the
        amplitudes when they are read.  The norm is checked from the
        pieces.  The signs keep the norm of psi, Y_k has orthonormal (or
        zero) columns and the signs act on u_in and u_out as one sign per
        vote value and column, sigma = (S on u_in's rows, S on u_out's), so
        the squared norm is

            |psi|^2 + sum_k 2 Re<p_k, sigma (.) delta_k> + |delta_k|^2,

        with ``projections`` p_k = Y_k^dagger F_k psi_k, (main, 2, vote).
        """
        source = inversion.source
        norm_sq = source.norm ** 2
        if inversion.delta is not None:
            delta, sign, window = inversion.delta, inversion.sign, inversion.window
            sigma = np.stack([sign[window][0], sign[~window][0]])
            norm_sq += (2.0 * np.vdot(projections, sigma * delta).real
                        + np.vdot(delta, delta).real)
        state = cls.__new__(cls)
        state._bind(source.layout, source.frame, math.sqrt(abs(norm_sq)))
        state.inversion = inversion
        return state

    def _bind(self, layout: RegisterLayout, frame: EigenDecomposition, norm: float):
        if not isinstance(frame, EigenDecomposition):
            raise TypeError("a state needs the eigendecomposition of its estimate frame")
        if frame.dim != layout.main_dim:
            raise ValueError(f"frame of dimension {frame.dim} does not match the "
                             f"main dimension {layout.main_dim}")
        if abs(norm - 1.0) > TOL.state_norm:
            raise ValueError(f"state norm {norm!r} is not 1 within {TOL.state_norm:g}")
        self.layout = layout
        self.frame = frame
        self.norm = norm
        self._amps = self.main = self.factors = self.shared = self.inversion = None
        self._vote_symmetric = False

    @property
    def vote_symmetric(self) -> bool:
        """Whether the amplitude at vote value v depends on v only through
        its Hamming weight (see the module docstring).  ``product`` states
        are; the inversion and the target flip carry it to their outputs,
        and a state built from amplitudes is not."""
        return self._vote_symmetric

    def _vote_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The vote values a readout computes and the weight of each.

        A weight-symmetric state is read on one representative per Hamming
        weight h, 2^h - 1, weighted by C(nu, h); any other on every vote
        value, weighted by 1.
        """
        nu = self.layout.vote_bits
        if self._vote_symmetric:
            return (np.array([(1 << h) - 1 for h in range(nu + 1)]),
                    np.array([float(math.comb(nu, h)) for h in range(nu + 1)]))
        return np.arange(1 << nu), np.ones(1 << nu)

    def blocks(self, columns=None):
        """Yield (chunk, block) pairs that cover the vote values
        ``columns``, all of them by default: ``chunk`` is the next few of
        them and ``block`` their amplitudes for every main index, phase
        last, block[k, j, w] = a[k, w, chunk[j]].

        A block spans at most ``_GRAM_BLOCK`` phase x vote values (one vote
        value if the phase register alone is larger), so a readout holds
        one block, not the register.  The same buffer is written for every
        block; a caller may change it in place but must copy what it keeps.
        A product, factored or inverted state computes its blocks from what
        it holds, even after ``amps`` was read, so every reader sees the
        same bits; only a register state reads ``amps``.
        """
        n, m, v = self.layout.shape
        columns = np.arange(v) if columns is None else np.asarray(columns)
        width = _block_width(self.layout)
        if self.inversion is not None:
            yield from self._inverted_blocks(columns, width)
            return
        buffer = np.empty((n, min(width, columns.size), m), dtype=complex)
        for first in range(0, columns.size, width):
            chunk = columns[first:first + width]
            yield chunk, self._write_block(chunk, buffer[:, :chunk.size])

    def _write_block(self, chunk: np.ndarray, block: np.ndarray) -> np.ndarray:
        if self.factors is not None:
            cols, coefs = self.factors
            np.matmul(coefs[:, :, chunk].transpose(0, 2, 1),
                      cols.transpose(0, 2, 1), out=block)
            if self.shared is not None:
                x, g = self.shared
                g = g[:, chunk].T
                for k in range(block.shape[0]):
                    block[k] += x[k] * g
        elif self.main is not None:
            block.fill(0.0)
            if chunk[0] == 0:
                block[:, 0] = (self.main * (1.0 / math.sqrt(self.layout.phase_dim)))[:, None]
        else:
            a = self.reshaped()
            for j, value in enumerate(chunk):
                block[:, j] = a[:, :, value]
        return block

    def _inverted_blocks(self, columns: np.ndarray, width: int):
        # the source's blocks, estimated, signed, plane-updated and
        # unestimated in place.  Each controlled-power factor is computed
        # once: as a table if there are several blocks, and inside the
        # kernel for a single one, which then needs no table
        source, sign, delta, rows, window = self.inversion
        m = self.layout.phase_dim
        powers = self.frame.phases
        if columns.size > width:
            powers = power_table(powers, m)
        for chunk, block in source.blocks(columns):
            raw_estimate_forward(block, powers, out=block, axis=2)
            signs = sign.T[chunk]
            if delta is not None:
                chunk_delta = delta[:, :, chunk, None]
            for k, slab in enumerate(block):
                slab *= signs
                if delta is not None:
                    update = np.where(window, chunk_delta[k, 0], chunk_delta[k, 1])
                    update *= rows[k].conj()
                    slab += update
            raw_estimate_inverse(block, powers, out=block, axis=2)
            yield chunk, block

    @property
    def amps(self) -> np.ndarray:
        if self._amps is None:
            a = np.empty(self.layout.shape, dtype=complex)
            for chunk, block in self.blocks():
                # every vote value in order: each chunk is a run of them
                a[:, :, chunk[0]:chunk[-1] + 1] = block.transpose(0, 2, 1)
            a = a.reshape(-1)
            check_computed_norm(np.vdot(a, a).real)
            self._amps, self.inversion = a, None
        return self._amps

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.layout.shape)

    def readouts(self) -> tuple[np.ndarray, np.ndarray]:
        """The computational main-register amplitudes with the phase and
        vote registers on 0, and the probability marginal of the main
        register, from one pass over ``blocks``.

        Row 0 of the phase Walsh-Hadamard matrix is flat, so the amplitudes
        are V sum_w a[:, w, 0] / sqrt(M).  The marginal is diag(V G V^dagger),
        with G the n x n Gram matrix of the register's main rows, summed
        over at most ``_GRAM_COLUMNS`` phase values of one vote value at a
        time, so its conjugated copy stays small next to a block; its
        trace, the squared norm of the amplitudes just computed, is
        checked.  A weight-symmetric state computes one vote value per
        Hamming weight and counts its share of G once per vote value of
        that weight (``_vote_classes``).
        """
        n, m, _ = self.layout.shape
        gram = np.zeros((n, n), dtype=complex)
        step = min(m, _GRAM_COLUMNS)
        columns, weights = self._vote_classes()
        done = 0
        for chunk, block in self.blocks(columns):
            if chunk[0] == 0:
                branch = block[:, 0].sum(axis=1)
            for j, weight in enumerate(weights[done:done + chunk.size]):
                for first in range(0, m, step):
                    part = block[:, j, first:first + step]
                    gram += weight * (part @ part.conj().T)
            done += chunk.size
        check_computed_norm(np.trace(gram).real)
        v = self.frame.vectors
        return (v @ (branch / math.sqrt(m)),
                np.einsum("ij,jk,ik->i", v, gram, v.conj()).real)


def _block_width(layout: RegisterLayout) -> int:
    """Vote values per block of ``StateVector.blocks``."""
    return max(1, min(layout.vote_dim, _GRAM_BLOCK // layout.phase_dim))


def check_computed_norm(norm_sq: float):
    """Raise unless amplitudes of squared norm ``norm_sq``, just computed
    from a state, keep its norm of 1 within ``TOL.state_norm``."""
    norm = math.sqrt(abs(norm_sq))
    if abs(norm - 1.0) > TOL.state_norm:
        raise InternalInvariantError(
            f"computed amplitudes have norm {norm!r}, not 1 within {TOL.state_norm:g}")


def _vector_norm(values: np.ndarray) -> float:
    return math.sqrt(abs(np.vdot(values, values)))


def factored_norm(cols: np.ndarray, coefs: np.ndarray, shared=None) -> float:
    """Norm of the state whose slab k is cols[k] @ coefs[k] + x[k] g (see
    ``StateVector.factored``), from the factors alone, one slab's r x r
    Gram matrices at a time.  With L_k = cols[k] and R_k = coefs[k] its
    square is

        sum_k <R_k R_k^dagger, L_k^dagger L_k>
              + 2 Re(x_k <R_k, L_k^dagger g>) + |x|^2 |g|^2.
    """
    norm_sq = 0.0
    for k in range(cols.shape[0]):
        norm_sq += np.vdot(coefs[k] @ coefs[k].conj().T, cols[k].conj().T @ cols[k]).real
    if shared is not None:
        x, g = shared
        norm_sq += np.vdot(x, x).real * np.vdot(g, g).real
        for k in range(cols.shape[0]):
            norm_sq += 2.0 * (x[k] * np.vdot(coefs[k], cols[k].conj().T @ g)).real
    return math.sqrt(abs(norm_sq))


def embed_mainspace(layout: RegisterLayout, vec, frame: EigenDecomposition) -> StateVector:
    """Joint state |vec> |0> |0>, in the estimate frame ``frame``.

    There it is (V^dagger vec) (x) H|0> (x) |0>, a product state kept as
    the n coefficients V^dagger vec (see ``StateVector.product``): one
    n x n product, and no register until its amplitudes are read.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (layout.main_dim,):
        raise ValueError("mainspace vector has the wrong dimension")
    return StateVector.product(dagger(frame.vectors) @ vec, layout, frame)


# ---------------------------------------------------------------------------
# Raw kernels.  Arrays are (main_dim, phase_dim, trailing) in C order.  The
# input is never mutated unless it is also passed as ``out``: every kernel
# but ``raw_reflect_main``, which always writes a new array, can then update
# it in place; that keeps the working set of a chain of kernels at one
# register.

def raw_qft(a: np.ndarray, out: np.ndarray | None = None, axis: int = 1) -> np.ndarray:
    """Fourier transform of the phase axis, |w> -> sum_k e^{+2 pi i wk/M}."""
    return np.fft.ifft(a, axis=axis, norm="ortho", out=out)


def raw_inverse_qft(a: np.ndarray, out: np.ndarray | None = None,
                    axis: int = 1) -> np.ndarray:
    return np.fft.fft(a, axis=axis, norm="ortho", out=out)


def raw_reflect_main(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """I - 2 X X^dagger on the main axis, for X (main, r) with orthonormal
    columns, into a new array.

    One pass reads the projections X^dagger a; a second writes each main
    index's share of the update and adds its slab of ``a``, one slab at a
    time.
    """
    n = a.shape[0]
    rows = np.ascontiguousarray(a).reshape(n, -1)
    proj = (-2.0 * dagger(x)) @ rows
    out = np.empty(a.shape, dtype=np.result_type(a, x))
    dst = out.reshape(n, -1)
    for k in range(n):
        np.matmul(x[k], proj, out=dst[k])
        dst[k] += rows[k]
    return out


def power_table(phases: np.ndarray, phase_dim: int) -> np.ndarray:
    """The (main, phase) controlled-power factors e^{i w phases[k]}."""
    table = 1j * np.arange(phase_dim) * np.asarray(phases, dtype=float)[:, None]
    return np.exp(table, out=table)


def raw_controlled_powers(a: np.ndarray, phases: np.ndarray, inverse: bool = False,
                          out: np.ndarray | None = None, axis: int = 1) -> np.ndarray:
    """U^w on the main axis, controlled on phase value w, in U's eigenframe.

    Main index k is the eigenvector of eigenphase ``phases[k]``, so the
    controlled power multiplies its slab by e^{i w phases[k]} along the
    phase axis ``axis`` (conjugated for the inverse).  It runs one main
    index at a time, so no main x phase table of powers is built; a caller
    that transforms many blocks passes the table (``power_table``) as
    ``phases`` instead, and it is built once.
    """
    n, m = a.shape[0], a.shape[axis]
    phases = np.asarray(phases)
    if phases.shape not in ((n,), (n, m)):
        raise ValueError(f"eigenphases of shape {phases.shape} do not match main "
                         f"dimension {n} and phase dimension {m}")
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, complex))
    turn = (-1j if inverse else 1j) * np.arange(m)
    row = [1] * (a.ndim - 1)
    row[axis - 1] = m
    for k in range(n):
        if phases.ndim == 1:
            power = np.exp(turn * phases[k])
        else:
            power = phases[k].conj() if inverse else phases[k]
        np.multiply(a[k], power.reshape(row), out=out[k])
    return out


def raw_estimate_forward(a: np.ndarray, phases: np.ndarray,
                         out: np.ndarray | None = None, axis: int = 1) -> np.ndarray:
    """The estimate on an estimate-frame array: controlled powers, then the
    inverse Fourier transform.  The circuit's opening Walsh-Hadamard pass is
    part of the frame.  The result has the phase axis in the computational
    basis, main axis still in the eigenbasis."""
    out = raw_controlled_powers(a, phases, out=out, axis=axis)
    return raw_inverse_qft(out, out=out, axis=axis)


def raw_estimate_inverse(a: np.ndarray, phases: np.ndarray,
                         out: np.ndarray | None = None, axis: int = 1) -> np.ndarray:
    """Exact inverse of ``raw_estimate_forward``: Fourier transform, then
    inverse controlled powers, back into the estimate frame."""
    out = raw_qft(a, out, axis=axis)
    return raw_controlled_powers(out, phases, inverse=True, out=out, axis=axis)


# ---------------------------------------------------------------------------
# Closed-form register distribution and window bookkeeping.

def estimate_amplitudes(phase_bits: int, lam) -> np.ndarray:
    """Phase-register amplitudes after estimating an eigenphase ``lam``.

    Entry k is the average over control values z of e^{i z (lam - 2 pi k/M)}
    with M the register size, evaluated in closed form.  The ratio of sines
    is stable arbitrarily close to its removable poles; the branch handles
    only an exactly-zero denominator, where the defining sum is exactly 1.
    An array of eigenphases gives one profile per eigenphase, along a new
    last axis.
    """
    m = 1 << phase_bits
    x = np.asarray(lam, dtype=float)[..., None] - 2.0 * np.pi * np.arange(m) / m
    half = 0.5 * x
    den = np.sin(half)
    num = np.sin(m * half)
    ratio = np.divide(num, den, out=np.full(x.shape, float(m)), where=den != 0.0)
    amps = np.exp(1j * (m - 1) * half) * ratio / m
    return np.where(den == 0.0, 1.0 + 0.0j, amps)


def k_nearest(phase_bits: int, lam: float) -> int:
    """Phase-register value closest to lam, on the register's own circle."""
    m = 1 << phase_bits
    return round_half_away(m * lam / (2.0 * np.pi)) % m


def window_mask(phase_bits: int, center: int, halfwidth: int) -> np.ndarray:
    """Boolean mask of the 2*halfwidth + 1 register values centered on
    ``center``, wrapping.

    A window that covers the register exactly is allowed and gives the full
    mask; anything wider is an error.
    """
    m = 1 << phase_bits
    if halfwidth < 0:
        raise ValueError("window halfwidth must be >= 0")
    if 2 * halfwidth + 1 > m:
        raise ValueError(
            f"window of halfwidth {halfwidth} exceeds the {m}-value register"
        )
    mask = np.zeros(m, dtype=bool)
    mask[(center + np.arange(-halfwidth, halfwidth + 1)) % m] = True
    return mask


def peak_window_mass(phase_bits: int, lam: float, halfwidth: int) -> float:
    """Probability that the estimate of ``lam`` lands within ``halfwidth``
    register values of the nearest one."""
    mask = window_mask(phase_bits, k_nearest(phase_bits, lam), halfwidth)
    return estimate_window_mass(phase_bits, lam, mask)


def peak_mass_bound(halfwidth: int) -> float:
    """Guaranteed probability mass inside a peak window, 1 - 1/(2(c-1))."""
    if halfwidth < 2:
        raise ValueError("the mass bound needs halfwidth >= 2")
    return 1.0 - 1.0 / (2.0 * (halfwidth - 1))


def gap_window_halfwidth(phase_bits: int, phase_gap: float,
                         guard_fraction: float) -> int:
    """Halfwidth of the zero-centered window: nearest integer to
    M (1 - guard) gap / 2 pi."""
    if not (0.0 < guard_fraction < 1.0):
        raise ValueError("guard fraction must sit in (0, 1)")
    m = 1 << phase_bits
    return round_half_away(m * (1.0 - guard_fraction) * phase_gap / (2.0 * np.pi))


def gap_window_mask(phase_bits: int, phase_gap: float,
                    guard_fraction: float) -> np.ndarray:
    """Zero-centered register window reaching almost to the spectral gap.

    Unlike a peak window this one must leave room on the register; covering
    it entirely would flip everything and is rejected.
    """
    m = 1 << phase_bits
    halfwidth = gap_window_halfwidth(phase_bits, phase_gap, guard_fraction)
    if 2 * halfwidth + 1 >= m:
        raise GapGuessTooCoarse(
            f"gap window of halfwidth {halfwidth} covers the whole "
            f"{m}-value register; the gap guess is too coarse for it"
        )
    return window_mask(phase_bits, 0, halfwidth)


def gap_guard_margin(phase_bits: int, phase_gap: float,
                     guard_fraction: float) -> float:
    """Register-units distance M guard gap / 2 pi kept between the window
    edge and the nearest eigenphase outside the gap."""
    m = 1 << phase_bits
    return m * guard_fraction * phase_gap / (2.0 * np.pi)


def estimate_window_mass(phase_bits: int, lam, mask: np.ndarray):
    """Analytic probability that the estimate of ``lam`` lands in the
    boolean register mask; one per eigenphase for an array of them.

    The profiles are computed a few eigenphases at a time, at most
    ``_GRAM_BLOCK`` register values together, so their temporaries stay
    small next to a register of one main row per eigenphase.
    """
    mask = np.asarray(mask)
    m = 1 << phase_bits
    if mask.dtype != bool or mask.shape != (m,):
        raise ValueError(f"the mask must be a boolean array over the "
                         f"{m}-value register")
    lam = np.asarray(lam, dtype=float)
    flat = lam.reshape(-1)
    mass = np.empty(flat.shape)
    step = max(1, _GRAM_BLOCK // m)
    for first in range(0, flat.size, step):
        part = np.abs(estimate_amplitudes(phase_bits, flat[first:first + step])[:, mask]) ** 2
        # one sum per profile: a batched reduction adds in another order, and
        # the 1 - mass of an in-gap eigenphase would show the last-bit
        # difference
        mass[first:first + step] = [np.sum(profile) for profile in part]
    return mass.reshape(lam.shape)[()]
