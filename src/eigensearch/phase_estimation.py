"""Multi-register simulation of phase estimation, in the unitary's estimate frame.

A register state is a complex vector over (mainspace) x (phase register) x
(vote register), stored flat in C order, so index ((m * P) + w) * V + v with
P and V the register sizes addresses mainspace index m, phase value w and
vote bits v.  All operators act on one axis of the reshaped array and batch
over the others; the raw kernels below take any (main, phase, trailing)
array so callers can slice the trailing axis however they need.

The estimation circuit is: Walsh-Hadamard on the phase register, powers of
the mainspace unitary controlled on the phase value, then an inverse Fourier
transform of the phase register.  Every step is block-diagonal in the
eigenbasis of the unitary U = V diag(e^{i lambda}) V^dagger, so the kernels
run in the estimate frame of U (see ``StateVector``): main index k stands
for eigenvector k, the controlled power U^w becomes the phase
e^{i w lambda_k}, and the phase axis is already Walsh-Hadamard transformed,
so the estimate is the controlled powers and the inverse Fourier transform
alone.  Callers embed their mainspace vectors straight into the frame and
keep their states there.  Fed eigenvector k, the estimate leaves the phase
register in the peaked profile ``estimate_amplitudes(phase_bits, lambda_k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    TOL,
    EigenDecomposition,
    GapGuessTooCoarse,
    ResourceCapExceeded,
    dagger,
    round_half_away,
)

DENSE_CAP = 1 << 22
"""Largest joint register, in amplitudes: 64 MiB of complex128.

The cap bounds memory only together with the working set of the kernels.
An ``InversionOperator.apply`` allocates one register on top of its input:
the working array, updated in place, which becomes the output.  Every other
temporary is at most one main-index slab or a main x phase table, and in a
boosted apply the conjugated vote-plane rows (2 / vote_dim of the register).
The amplification rounds of ``run_full`` hold at most two registers at once,
the state and its successor, so a register at the cap peaks near 2 x 64 MiB
there.  A boosted operator also keeps its vote-plane rows between
applications.  The multiples are measured and pinned by the tests
``test_boosted_apply_allocates_twice_the_register`` and
``test_boosted_amplification_holds_two_registers``.
"""

_WALSH_GROUP_BITS = 4

_GRAM_BLOCK = 1 << 12

_AXES = {"main": 0, "phase": 1, "vote": 2}


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


class StateVector:
    """Normalized amplitudes over a RegisterLayout, in a named frame.

    ``frame`` None means the computational basis.  Otherwise it is the
    eigendecomposition (V, lambda) of a mainspace unitary U, and ``amps``
    are the amplitudes in the estimate frame of U:

        a_F = (V^dagger (x) H^{(x) mu} (x) 1) a,

    the main axis written in U's eigenbasis, the phase axis Walsh-Hadamard
    transformed and the vote axis untouched.  Estimation circuits of U and
    the target flip run in that frame without a basis change.  Frames are
    compared by identity: a state belongs to the operator whose
    decomposition object it carries.  Methods that cannot answer in a
    state's frame raise ``ValueError`` rather than answer in another basis.
    """

    __slots__ = ("amps", "layout", "frame")

    def __init__(self, amps, layout: RegisterLayout,
                 frame: EigenDecomposition | None = None):
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if amps.shape != (layout.dim,):
            raise ValueError(f"amplitude count {amps.shape[0]} != layout dim {layout.dim}")
        if frame is not None and frame.dim != layout.main_dim:
            raise ValueError(f"frame of dimension {frame.dim} does not match the "
                             f"main dimension {layout.main_dim}")
        norm = math.sqrt(abs(np.vdot(amps, amps)))
        if abs(norm - 1.0) > TOL.state_norm:
            raise ValueError(f"state norm {norm!r} is not 1 within {TOL.state_norm:g}")
        self.amps = amps
        self.layout = layout
        self.frame = frame

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.layout.shape)

    def marginal(self, register: str) -> np.ndarray:
        """Probability marginal of one register, in the computational basis.

        The estimate frame leaves the vote register alone.  On the main
        register it is read as diag(V G V^dagger), with G the n x n Gram
        matrix of the register's main rows; the phase marginal of a frame
        state would need the Walsh-Hadamard pass back and raises.
        """
        axis = _AXES[register]
        a = self.reshaped()
        if self.frame is not None and register == "phase":
            raise ValueError("the phase marginal of a state in an estimate frame "
                             "needs the Walsh-Hadamard pass back")
        if self.frame is not None and register == "main":
            v = self.frame.vectors
            gram = raw_gram(a)
            return np.einsum("ij,jk,ik->i", v, gram, v.conj()).real
        p = np.abs(a) ** 2
        other = tuple(x for x in range(3) if x != axis)
        return p.sum(axis=other)

    def branch_amplitudes(self, phase_value: int = 0, vote_value: int = 0) -> np.ndarray:
        """Computational main-register amplitudes on one (phase, vote) value.

        In an estimate frame that is V sum_w H[phase_value, w] a[:, w, vote]:
        one Walsh row and one n x n product, with no pass over the register.
        """
        a = self.reshaped()[:, :, vote_value]
        if self.frame is None:
            return a[:, phase_value].copy()
        return self.frame.vectors @ (a @ _walsh_row(self.layout.phase_dim, phase_value))

    def overlap(self, other: "StateVector") -> complex:
        if other.frame is not self.frame:
            raise ValueError("overlap of states in different frames")
        return complex(np.vdot(self.amps, other.amps))


def _walsh_row(phase_dim: int, value: int) -> np.ndarray:
    """Row ``value`` of the normalized phase-register Walsh-Hadamard matrix."""
    parity = np.bitwise_count(np.arange(phase_dim) & value) & 1
    return (1.0 - 2.0 * parity) / math.sqrt(phase_dim)


def embed_mainspace(layout: RegisterLayout, vec, phase_value: int = 0,
                    vote_value: int = 0,
                    frame: EigenDecomposition | None = None) -> StateVector:
    """Joint state |vec> |phase_value> |vote_value>, in ``frame`` if given.

    In an estimate frame the state is (V^dagger vec) (x) H|phase_value>
    (x) |vote_value>: one n x n product and one Walsh row.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (layout.main_dim,):
        raise ValueError("mainspace vector has the wrong dimension")
    if not (0 <= phase_value < layout.phase_dim and 0 <= vote_value < layout.vote_dim):
        raise ValueError("register value out of range")
    a = np.zeros(layout.shape, dtype=complex)
    if frame is None:
        a[:, phase_value, vote_value] = vec
    else:
        a[:, :, vote_value] = np.outer(dagger(frame.vectors) @ vec,
                                       _walsh_row(layout.phase_dim, phase_value))
    return StateVector(a.reshape(-1), layout, frame)


@dataclass(frozen=True, eq=False)
class SubspaceMask:
    """A set of basis values of one register, as sorted unique indices."""

    register_dim: int
    indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        idx = np.unique(np.asarray(self.indices, dtype=int))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.register_dim):
            raise ValueError("mask index out of register range")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def complement(self) -> "SubspaceMask":
        keep = np.setdiff1d(np.arange(self.register_dim), self.indices)
        return SubspaceMask(self.register_dim, keep)

    def indicator(self) -> np.ndarray:
        ind = np.zeros(self.register_dim)
        ind[self.indices] = 1.0
        return ind

    def sign_vector(self) -> np.ndarray:
        """+1 off the mask, -1 on it; the diagonal of a selective flip."""
        return 1.0 - 2.0 * self.indicator()


# ---------------------------------------------------------------------------
# Raw kernels.  Arrays are (main_dim, phase_dim, trailing) in C order.  The
# input is never mutated unless it is also passed as ``out``: every kernel
# but ``raw_reflect_main``, which always writes a new array, can then update
# it in place; that keeps the working set of a chain of kernels at one
# register.

def raw_flip(a: np.ndarray, sign: np.ndarray, axis: int,
             out: np.ndarray | None = None) -> np.ndarray:
    shape = [1] * a.ndim
    shape[axis] = sign.shape[0]
    return np.multiply(a, sign.reshape(shape), out=out)


def hadamard_block(bits: int) -> np.ndarray:
    """The normalized Hadamard matrix on ``bits`` qubits, by Sylvester doubling."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    return h / math.sqrt(h.shape[0])


def raw_walsh_hadamard(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hadamard on every phase-register qubit.

    The transform is a tensor product of one-qubit Hadamards.  It is applied
    ``_WALSH_GROUP_BITS`` qubits at a time, as a product with the matching
    Hadamard matrix, and one main index at a time, so only a slab of the
    register is ever held twice.
    """
    n, m = a.shape[0], a.shape[1]
    bits = m.bit_length() - 1
    src = np.ascontiguousarray(a).reshape(n, m, -1)
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, float))
    dst = out.reshape(n, m, -1)
    t = dst.shape[2]
    if bits == 0:
        dst[...] = src
    low = 0
    while low < bits:
        g = min(_WALSH_GROUP_BITS, bits - low)
        h = hadamard_block(g)
        blocks = (m >> (low + g), 1 << g, (1 << low) * t)
        for k in range(n):
            dst[k] = np.matmul(h, src[k].reshape(blocks)).reshape(m, t)
        src = dst
        low += g
    return out


def raw_qft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fourier transform of the phase axis, |w> -> sum_k e^{+2 pi i wk/M}."""
    return np.fft.ifft(a, axis=1, norm="ortho", out=out)


def raw_inverse_qft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.fft.fft(a, axis=1, norm="ortho", out=out)


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


def raw_gram(a: np.ndarray) -> np.ndarray:
    """The n x n Gram matrix a a^dagger of the main rows, taken in column
    blocks so the conjugated copy stays one block."""
    n = a.shape[0]
    rows = a.reshape(n, -1)
    gram = np.zeros((n, n), dtype=complex)
    for start in range(0, rows.shape[1], _GRAM_BLOCK):
        part = rows[:, start:start + _GRAM_BLOCK]
        gram += part @ part.conj().T
    return gram


def raw_controlled_powers(a: np.ndarray, phases: np.ndarray, inverse: bool = False,
                          out: np.ndarray | None = None) -> np.ndarray:
    """U^w on the main axis, controlled on phase value w, in U's eigenframe.

    Main index k is the eigenvector of eigenphase ``phases[k]``, so the
    controlled power multiplies its slab by e^{i w phases[k]} (conjugated
    for the inverse).  It runs one main index at a time, so no main x phase
    table of powers is built.
    """
    n, m = a.shape[0], a.shape[1]
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError(f"{phases.size} eigenphases do not match main dimension {n}")
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, complex))
    turn = (-1j if inverse else 1j) * np.arange(m)
    row = (m,) + (1,) * (a.ndim - 2)
    for k in range(n):
        np.multiply(a[k], np.exp(turn * phases[k]).reshape(row), out=out[k])
    return out


def raw_estimate_forward(a: np.ndarray, phases: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """The estimate on an estimate-frame array: controlled powers, then the
    inverse Fourier transform.  The circuit's opening Walsh-Hadamard pass is
    part of the frame.  The result has the phase axis in the computational
    basis, main axis still in the eigenbasis."""
    out = raw_controlled_powers(a, phases, out=out)
    return raw_inverse_qft(out, out=out)


def raw_estimate_inverse(a: np.ndarray, phases: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of ``raw_estimate_forward``: Fourier transform, then
    inverse controlled powers, back into the estimate frame."""
    out = raw_qft(a, out)
    return raw_controlled_powers(out, phases, inverse=True, out=out)


# ---------------------------------------------------------------------------
# StateVector operators.

def apply_register_flip(state: StateVector, mask: SubspaceMask,
                        register: str) -> StateVector:
    """Flip the sign of every amplitude whose ``register`` value is masked.

    The result is in the frame of ``state``.  In an estimate frame a vote
    flip is unchanged, a main flip is the reflection I - 2 X X^dagger with
    X = V^dagger restricted to the masked columns, and a phase flip is not
    diagonal, so it raises.
    """
    axis = _AXES[register]
    if mask.register_dim != state.layout.shape[axis]:
        raise ValueError("mask dimension does not match the register")
    if state.frame is not None and register == "phase":
        raise ValueError("a phase-register flip is not diagonal in an estimate "
                         "frame")
    if state.frame is not None and register == "main":
        x = dagger(state.frame.vectors[mask.indices, :])
        out = raw_reflect_main(state.reshaped(), x)
    else:
        out = raw_flip(state.reshaped(), mask.sign_vector(), axis)
    return StateVector(out.reshape(-1), state.layout, state.frame)


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


def window_mask(phase_bits: int, center: int, halfwidth: int) -> SubspaceMask:
    """2*halfwidth + 1 register values centered on ``center``, wrapping.

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
    idx = (center + np.arange(-halfwidth, halfwidth + 1)) % m
    return SubspaceMask(m, idx)


def peak_window_mask(phase_bits: int, lam: float, halfwidth: int) -> SubspaceMask:
    """Window around the register value nearest to a known eigenphase."""
    return window_mask(phase_bits, k_nearest(phase_bits, lam), halfwidth)


def peak_window_mass(phase_bits: int, lam: float, halfwidth: int) -> float:
    """Probability that the estimate of ``lam`` lands within ``halfwidth``
    register values of the nearest one."""
    mask = peak_window_mask(phase_bits, lam, halfwidth)
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
                    guard_fraction: float) -> SubspaceMask:
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


def estimate_window_mass(phase_bits: int, lam: float, mask: SubspaceMask) -> float:
    """Analytic probability that the estimate of ``lam`` lands in the mask."""
    if mask.register_dim != (1 << phase_bits):
        raise ValueError("mask dimension does not match the register")
    amps = estimate_amplitudes(phase_bits, lam)
    return float(np.sum(np.abs(amps[mask.indices]) ** 2))
