"""Multi-register simulation of phase estimation, in the unitary's estimate frame.

The joint register is (mainspace) x (phase register) x (vote register), of
P phase values and V = 2^nu vote values.  A state holds its amplitudes
phase last, as (main, nu + 1, phase) slabs over the Dicke basis of the vote
register (see ``StateVector``): that is the ``RegisterLayout`` shape, and
the raw kernels below take that one layout, any (main, ..., phase) array,
batched over the axes between.  The full layout, flat in C order with index
((m * P) + w) * V + v for mainspace index m, phase value w and vote bits v,
is only ever written out (``StateVector.amps``).

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
basis.  Fed eigenvector k, the estimate leaves the phase register in the
peaked profile ``estimate_amplitudes(phase_bits, lambda_k)``.

An embedded vector, whose ancillas are still on |0> |0>, stays n frame
coefficients (``StateVector.product``), and a boosted inversion's output
of one stays coefficients along the vote planes (``from_plane``).  Every
state is weight-symmetric: its amplitude at vote value v depends on v only
through its Hamming weight.  An embedded vector has every vote on 0, the
target flip acts on the main axis alone, and the vote stage of the
inversion commutes with every permutation of the vote bits (see
``selective_inversion``), so every round keeps the symmetry.  Such a state
lies in the symmetric subspace of the vote register, whose orthonormal
basis is the nu + 1 Dicke states |D_h>, the normalized sum of the vote
values of weight h (Dicke, Phys. Rev. 93, 99 (1954)), and it is stored as
nu + 1 columns per main index and phase value instead of 2^nu.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

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
"""Largest joint register, in stored values: 64 MiB of complex128.

The cap counts the values a state stores, main x (nu + 1) x phase Dicke
slab values (``RegisterLayout.dim``), not the 2^nu vote values of the full
layout, which only ``StateVector.amps`` writes and which it caps on its
own.  A run holds its input, its output and working arrays of a few
eigenvectors at a time, so it peaks at a small multiple of one stored
state; the multiple each entry point measures, and the bound its test
holds it to, are tabled above the memory tests in
``tests/test_pipeline.py``.
"""

_GRAM_BLOCK = 1 << 12


@dataclass(frozen=True)
class RegisterLayout:
    """The register a state stores: ``shape`` is its (main, nu + 1, phase)
    Dicke slabs (see ``StateVector``) and ``dim`` the number of values they
    hold, which ``dense_cap`` bounds.  The cap is checked when a layout is
    made and not kept: layouts of one shape are equal whatever cap they
    were made under."""

    main_dim: int
    phase_bits: int
    vote_bits: int = 0
    dense_cap: InitVar[int] = DENSE_CAP

    def __post_init__(self, dense_cap: int):
        if self.main_dim < 1 or self.phase_bits < 1 or self.vote_bits < 0:
            raise ValueError(
                f"bad layout: main {self.main_dim}, phase {self.phase_bits} bits, "
                f"vote {self.vote_bits} bits"
            )
        if dense_cap < 1:
            raise ValueError(f"the dense cap must be at least 1, not {dense_cap}")
        if self.dim > dense_cap:
            raise ResourceCapExceeded(
                f"register of {self.dim} stored values exceeds the dense cap "
                f"{dense_cap}; lower the register sizes or raise the cap"
            )

    @property
    def phase_dim(self) -> int:
        return 1 << self.phase_bits

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.main_dim, self.vote_bits + 1, self.phase_dim)


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

    A state is held in one of three forms.  A state with the ancillas still
    on |0> |0>, made by ``product``, is main (x) H|0> (x) |0> in the frame
    and is kept as its n main coefficients ``main``.  A boosted inversion's
    output of one is kept as its (main, nu + 1, 2) coefficients ``coefs``
    along the operator's (main, 2, phase) vote plane ``plane``
    (``from_plane``).  Any other is its (main, nu + 1, phase) slabs over
    the orthonormal Dicke basis of the vote register, phase last
    (``from_slabs``).  ``slabs`` reads that array, which a plane state
    writes out on every read.  A slab or plane state may carry one pending
    main-axis reflection 1 - 2 x x^dagger, ``reflection`` = x (see
    ``reflect_main``), which the next inversion and every reader apply.  The
    unused attributes are None, the held arrays are read-only, and ``norm``
    is the norm checked at construction.  A norm off 1 raises ``ValueError``
    for a caller's values, and ``InternalInvariantError`` for ``computed``
    ones, which the program made from states it had checked.  There is no
    public constructor: a state is made by one of the three classmethods.
    """

    __slots__ = ("main", "coefs", "plane", "_slabs", "reflection", "norm", "layout", "frame")

    @classmethod
    def product(cls, main, layout: RegisterLayout, frame: EigenDecomposition,
                computed: bool = False) -> "StateVector":
        """The state main (x) H|0> (x) |0> of the frame, held as ``main``:
        the n frame coefficients of the main register.  Its norm is the
        norm of ``main``."""
        main = np.array(main, dtype=complex)
        if main.shape != (layout.main_dim,):
            raise ValueError(f"{main.size} main coefficients do not match the "
                             f"main dimension {layout.main_dim}")
        main.flags.writeable = False
        state = cls.__new__(cls)
        state._bind(layout, frame, _vector_norm(main), computed)
        state.main = main
        return state

    @classmethod
    def from_slabs(cls, slabs: np.ndarray, layout: RegisterLayout,
                   frame: EigenDecomposition, computed: bool = False) -> "StateVector":
        """The state held as ``slabs``, its (main, nu + 1, phase) Dicke
        columns, the layout's shape, kept read-only, not copied."""
        if slabs.shape != layout.shape:
            raise ValueError(f"slabs of shape {slabs.shape} are not the {layout.shape} "
                             f"Dicke slabs of the layout")
        state = cls.__new__(cls)
        state._bind(layout, frame, _vector_norm(slabs), computed)
        slabs.flags.writeable = False
        state._slabs = slabs
        return state

    @classmethod
    def from_plane(cls, coefs: np.ndarray, plane: np.ndarray, gram: np.ndarray,
                   layout: RegisterLayout, frame: EigenDecomposition) -> "StateVector":
        """The Dicke state whose slab k is coefs[k] @ plane[k], held as the
        (main, nu + 1, 2) ``coefs``, kept read-only, and the shared (main, 2,
        phase) ``plane``.  Its norm is the root of sum_k tr(c_k G_k
        c_k^dagger), with ``gram`` the Gram matrices G_k = plane[k]
        plane[k]^dagger, so no slab is written.  The state is ``computed``."""
        state = cls.__new__(cls)
        state._bind(layout, frame, math.sqrt(abs(np.vdot(coefs, coefs @ gram))), True)
        coefs.flags.writeable = False
        state.coefs, state.plane = coefs, plane
        return state

    @property
    def slabs(self) -> np.ndarray | None:
        """The held slabs, a plane state's written into a new array."""
        return self._slabs if self.coefs is None else np.matmul(self.coefs, self.plane)

    def _bind(self, layout: RegisterLayout, frame: EigenDecomposition, norm: float,
              computed: bool = False):
        if not isinstance(frame, EigenDecomposition):
            raise TypeError("a state needs the eigendecomposition of its estimate frame")
        if frame.dim != layout.main_dim:
            raise ValueError(f"frame of dimension {frame.dim} does not match the "
                             f"main dimension {layout.main_dim}")
        if not abs(norm - 1.0) <= TOL.state_norm:
            raise (InternalInvariantError if computed else ValueError)(
                f"state norm {norm!r} is not 1 within {TOL.state_norm:g}")
        self.layout = layout
        self.frame = frame
        self.norm = norm
        self.main = self.coefs = self.plane = self._slabs = self.reflection = None

    def reflect_main(self, x: np.ndarray) -> "StateVector":
        """This state with 1 - 2 x x^dagger on the main axis, for a unit
        n-vector x.  A product state reflects its n coefficients.  A slab
        or plane state shares its slabs or coefficients and keeps x as its
        pending ``reflection``, after writing out the one it already had."""
        if self.main is not None:
            return StateVector.product(self.main - 2.0 * x * np.vdot(x, self.main),
                                       self.layout, self.frame, computed=True)
        state = StateVector.__new__(StateVector)
        state._bind(self.layout, self.frame, self.norm)
        if self.coefs is not None and self.reflection is None:
            state.coefs, state.plane = self.coefs, self.plane
        else:
            state._slabs = self._applied_slabs()
            state._slabs.flags.writeable = False
        state.reflection = x
        return state

    def _applied_slabs(self) -> np.ndarray:
        """``slabs`` with the pending reflection written into a new array,
        or ``slabs`` itself if there is none."""
        slabs = self.slabs
        if self.reflection is None:
            return slabs
        return raw_reflect_main(slabs, self.reflection,
                                main_projection(slabs, self.reflection))

    @property
    def amps(self) -> np.ndarray:
        """The amplitudes over the full layout, (main, phase, vote) flat,
        written into a new array on every read; the state keeps nothing, so
        reading changes no state.  This is the one writer of the 2^nu vote
        values, for the tests and for the tracer of ``perfbench``: vote value
        v of weight h holds Dicke column h over sqrt(C(nu, h)).  The layout's
        cap bounds the stored values, not these, so a full layout of more
        than ``DENSE_CAP`` values raises ``ResourceCapExceeded``."""
        n, cols, m = self.layout.shape
        votes = 1 << self.layout.vote_bits
        if n * m * votes > DENSE_CAP:
            raise ResourceCapExceeded(
                f"the full layout of {n * m * votes} amplitudes exceeds the dense "
                f"cap {DENSE_CAP}")
        if self.main is not None:
            a = np.zeros((n, m, votes), dtype=complex)
            a[:, :, 0] = (self.main * (1.0 / math.sqrt(m)))[:, None]
        else:
            roots = np.sqrt([float(math.comb(cols - 1, h)) for h in range(cols)])
            slabs = (self._applied_slabs() / roots[:, None])[:, np.bitwise_count(
                np.arange(votes))]
            a = np.ascontiguousarray(slabs.transpose(0, 2, 1))
        a = a.reshape(-1)
        check_computed_norm(np.vdot(a, a).real)
        return a

    def readouts(self) -> tuple[np.ndarray, np.ndarray]:
        """The computational main-register amplitudes with the phase and
        vote registers on 0, and the probability marginal of the main
        register.

        Row 0 of the phase Walsh-Hadamard matrix is flat and vote value 0
        is Dicke column 0, so the amplitudes are V sum_w slabs[:, 0, w] /
        sqrt(M).  The marginal is diag(V G V^dagger), with G the n x n Gram
        matrix of the main rows of the slabs, summed over blocks of at most
        ``_GRAM_BLOCK`` values with their n rows, which a plane state forms
        from its coefficients; the Dicke basis is orthonormal, so every
        column counts once.  A pending reflection R acts on both as
        R branch and R G R^dagger.  The trace of G, the squared norm of the
        state, is checked.
        """
        n, _, m = self.layout.shape
        if self.main is not None:
            branch = self.main * math.sqrt(m)
            gram = np.outer(self.main, self.main.conj())
        else:
            if self.coefs is None:
                branch = self._slabs[:, 0].sum(axis=1)
                rows = self._slabs.reshape(n, -1)
                step = max(1, _GRAM_BLOCK // n)
                parts = (rows[:, first:first + step]
                         for first in range(0, rows.shape[1], step))
            else:
                # slab k is c_k Q_k, so a block of it is c_k times a block
                # of Q_k's phase columns, and no slab is written whole
                branch = np.matmul(self.coefs[:, :1], self.plane)[:, 0].sum(axis=1)
                step = max(1, _GRAM_BLOCK // (n * self.coefs.shape[1]))
                parts = (np.matmul(self.coefs, self.plane[:, :, first:first + step])
                         .reshape(n, -1) for first in range(0, m, step))
            gram = np.zeros((n, n), dtype=complex)
            for part in parts:
                gram += part @ part.conj().T
        if self.reflection is not None:
            r = np.eye(n) - 2.0 * np.outer(self.reflection, self.reflection.conj())
            branch = r @ branch
            gram = r @ gram @ r.conj().T
        check_computed_norm(np.trace(gram).real)
        v = self.frame.vectors
        return (v @ (branch / math.sqrt(m)),
                ((v @ gram) * v.conj()).sum(axis=1).real)


def check_computed_norm(norm_sq: float):
    """Raise unless amplitudes of squared norm ``norm_sq``, just computed
    from a state, keep its norm of 1 within ``TOL.state_norm``."""
    norm = math.sqrt(abs(norm_sq))
    if not abs(norm - 1.0) <= TOL.state_norm:
        raise InternalInvariantError(
            f"computed amplitudes have norm {norm!r}, not 1 within {TOL.state_norm:g}")


def _vector_norm(values: np.ndarray) -> float:
    return math.sqrt(abs(np.vdot(values, values)))


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
# Raw kernels.  Arrays have one layout, (main_dim, ..., phase_dim): the
# main axis first and the phase axis last, as a state's slabs hold them.
# The input is never mutated unless it is also passed as ``out``: every
# kernel can then update it in place, which keeps the working set of a
# chain of kernels at one array.

def raw_qft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fourier transform of the phase axis, |w> -> sum_k e^{+2 pi i wk/M}."""
    return np.fft.ifft(a, norm="ortho", out=out)


def raw_inverse_qft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.fft.fft(a, norm="ortho", out=out)


def main_projection(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """-2 x^dagger a over the main axis, what ``raw_reflect_main`` adds."""
    return np.tensordot(-2.0 * np.conj(x), a, axes=(0, 0))


def raw_reflect_main(a: np.ndarray, x: np.ndarray, proj: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """I - 2 x x^dagger on the main axis, for a unit n-vector x: ``a`` plus x
    times ``main_projection(A, x)``, ``a`` being A or a run of its main rows."""
    out = np.multiply(x.reshape((-1,) + (1,) * (a.ndim - 1)), proj, out=out)
    out += a
    return out


def power_table(phases: np.ndarray, phase_dim: int) -> np.ndarray:
    """The (main, phase) controlled-power factors e^{i w phases[k]}: with
    w = a F + b, the outer product of a coarse table e^{i a F phases[k]}
    and a fine one e^{i b phases[k]} of about sqrt(M) exponentials each."""
    phases = np.asarray(phases, dtype=float)[:, None]
    fine = 1 << (phase_dim.bit_length() - 1) // 2
    table = (np.exp(1j * fine * np.arange(phase_dim // fine) * phases)[:, :, None]
             * np.exp(1j * np.arange(fine) * phases)[:, None, :])
    return table.reshape(phases.shape[0], phase_dim)


def raw_controlled_powers(a: np.ndarray, powers: np.ndarray, inverse: bool = False,
                          out: np.ndarray | None = None) -> np.ndarray:
    """U^w on the main axis, controlled on phase value w, in U's eigenframe.

    Main index k is the eigenvector of eigenphase lambda_k, so the
    controlled power multiplies its slab by e^{i w lambda_k} along the
    phase axis (conjugated for the inverse).  ``powers`` is the (main,
    phase) table of those factors, from ``power_table``.
    """
    n, m = a.shape[0], a.shape[-1]
    if powers.shape != (n, m):
        raise ValueError(f"power table of shape {powers.shape} does not match main "
                         f"dimension {n} and phase dimension {m}")
    if inverse:
        powers = powers.conj()
    return np.multiply(a, powers.reshape((n,) + (1,) * (a.ndim - 2) + (m,)), out=out)


def raw_estimate_forward(a: np.ndarray, powers: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """The estimate on an estimate-frame array: controlled powers, then the
    inverse Fourier transform.  The circuit's opening Walsh-Hadamard pass is
    part of the frame.  The result has the phase axis in the computational
    basis, main axis still in the eigenbasis."""
    out = raw_controlled_powers(a, powers, out=out)
    return raw_inverse_qft(out, out=out)


def raw_estimate_inverse(a: np.ndarray, powers: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of ``raw_estimate_forward``: Fourier transform, then
    inverse controlled powers, back into the estimate frame."""
    out = raw_qft(a, out)
    return raw_controlled_powers(out, powers, inverse=True, out=out)


# ---------------------------------------------------------------------------
# Closed-form register distribution and window bookkeeping.

# pi as three float32 heads, whose products with a register index are exact,
# and the float64 nearest the rest (Cody & Waite, 1980)
_PI_PARTS = (3.1415927410125732, -8.742277657347586e-08, -3.4302490200117637e-15,
             2.1125998133974855e-23)


def estimate_amplitudes(phase_bits: int, lam) -> np.ndarray:
    """Phase-register amplitudes after estimating an eigenphase ``lam``.

    Entry k is the average over control values z of e^{i z x}, with
    x = lam - 2 pi k/M and M the register size, evaluated in closed form at
    the k' = k (mod M) that puts x within pi of 0, as
    e^{iM lam/2} sin(M lam/2) e^{-ix/2} / (M sin(x/2)): M lam/2 is exact and
    x/2 = lam/2 - pi k'/M is reduced with pi in parts, so no rounding is
    amplified M-fold.  The ratio of sines is stable arbitrarily close to its
    removable poles; the branch handles only an exactly-zero denominator,
    where the defining sum is exactly 1.  An array of eigenphases gives one
    profile per eigenphase, along a new last axis.
    """
    m = 1 << phase_bits
    lam = np.asarray(lam, dtype=float)[..., None]
    k = np.arange(m)
    k = k + m * np.rint((m / (2.0 * np.pi) * lam - k) / m)
    half = 0.5 * lam
    for part in _PI_PARTS:
        half = half - k * (part / m)
    peak = 0.5 * m * lam
    amps = np.exp(-1j * half) * (np.exp(1j * peak) * np.sin(peak) / m)
    den = np.sin(half)
    return np.divide(amps, den, out=np.ones(amps.shape, dtype=complex), where=den != 0.0)


def gap_window_mask(phase_bits: int, phase_gap: float,
                    guard_fraction: float) -> np.ndarray:
    """Zero-centered register window reaching almost to the spectral gap:
    the 2 h + 1 register values within h of 0, wrapping, with h the nearest
    integer to M (1 - guard) gap / 2 pi.

    Unlike a peak window this one must leave room on the register; covering
    it entirely would flip everything and is rejected.
    """
    if not (0.0 < guard_fraction < 1.0):
        raise ValueError("guard fraction must sit in (0, 1)")
    m = 1 << phase_bits
    halfwidth = round_half_away(m * (1.0 - guard_fraction) * phase_gap / (2.0 * np.pi))
    if halfwidth < 0:
        raise ValueError(f"gap window of halfwidth {halfwidth}; the gap must be positive")
    if 2 * halfwidth + 1 >= m:
        raise GapGuessTooCoarse(
            f"gap window of halfwidth {halfwidth} covers the whole "
            f"{m}-value register; the gap guess is too coarse for it"
        )
    mask = np.zeros(m, dtype=bool)
    mask[np.arange(-halfwidth, halfwidth + 1)] = True
    return mask


def window_split(phase_bits: int, lam, mask: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Split the estimate profile of ``lam`` at a boolean register mask.

    Returns the norms (|in|, |out|) of its parts on and off the mask, whose
    squares are the probabilities that the estimate lands on and off the
    mask; one pair per eigenphase for an array of them.  Given ``out``, a
    complex lam.shape + (2, M) array, it also writes the unit parts u_in
    and u_out there, zero off their supports, so that the profile is
    |in| u_in + |out| u_out; a part of norm exactly 0 is all zeros.  The
    profiles are computed a few eigenphases at a time, at most
    ``_GRAM_BLOCK`` register values together, so no temporary nears a
    register of one row per eigenphase.
    """
    mask = np.asarray(mask)
    m = 1 << phase_bits
    if mask.dtype != bool or mask.shape != (m,):
        raise ValueError(f"the mask must be a boolean array over the "
                         f"{m}-value register")
    lam = np.asarray(lam, dtype=float)
    flat = lam.reshape(-1)
    units = None if out is None else out.reshape(flat.size, 2, m)
    norms = np.empty((flat.size, 2))
    step = max(1, _GRAM_BLOCK // m)
    for first in range(0, flat.size, step):
        part = slice(first, first + step)
        profile = estimate_amplitudes(phase_bits, flat[part])
        split = np.where([mask, ~mask], profile[:, None], 0.0)
        norms[part] = np.linalg.norm(split, axis=2)
        if units is not None:
            scale = norms[part, :, None]
            units[part] = 0.0
            np.divide(split, scale, out=units[part], where=scale > 0.0)
    return norms.reshape(lam.shape + (2,))
