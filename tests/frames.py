"""The estimate frame as dense matrices: a state in the frame of (V, lambda)
holds the amplitudes (V^dagger (x) H (x) 1) a of a computational state a
(see ``StateVector``), built here whole or one register axis at a time.
Computational states are plain (main, phase, vote) arrays; only frame
states are ``StateVector``s.
"""

import numpy as np

import oracles
from eigensearch.phase_estimation import StateVector


def dense_frame_change(dec, layout):
    """V^dagger (x) H (x) 1 as a dense matrix: computational amplitudes to
    those of the estimate frame of ``dec``."""
    return np.kron(np.kron(dec.vectors.conj().T, oracles.dense_walsh(layout.phase_bits)),
                   np.eye(layout.vote_dim))


def _change(a, main, axes):
    if "main" in axes:
        a = np.einsum("jk,kwv->jwv", main, a)
    if "phase" in axes:
        walsh = oracles.dense_walsh(a.shape[1].bit_length() - 1)
        a = np.einsum("xw,kwv->kxv", walsh, a)
    return a


def to_frame(a, dec, axes=("main", "phase")):
    """A (main, phase, vote) array into the estimate frame of ``dec`` on the
    named axes: V^dagger on the main axis, Walsh-Hadamard on the phase axis."""
    return _change(a, dec.vectors.conj().T, axes)


def from_frame(a, dec, axes=("main", "phase")):
    """The inverse of ``to_frame`` on the named axes."""
    return _change(a, dec.vectors, axes)


def computational(state):
    """A state in an estimate frame, taken out of it: a (main, phase, vote)
    array of computational amplitudes."""
    return from_frame(state.amps.reshape(state.layout.shape), state.frame)


def framed(a, dec, layout):
    """Computational amplitudes, taken into the estimate frame of ``dec``."""
    return StateVector(to_frame(a.reshape(layout.shape), dec).reshape(-1), layout, dec)


def inverter_matrix(op):
    """Dense matrix of ``op`` on computational amplitudes.

    Column i of the frame matrix is ``op.apply`` on frame basis state i; the
    frame change C then gives C^dagger R_F C.
    """
    dim = op.layout.dim
    cols = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        cols[:, i] = op.apply(StateVector(e, op.layout, op.frame)).amps
    change = dense_frame_change(op.frame, op.layout)
    return change.conj().T @ cols @ change
