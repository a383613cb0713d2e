"""The estimate frame as dense matrices: a state in the frame of (V, lambda)
holds the amplitudes (V^dagger (x) H (x) 1) a of a computational state a
(see ``StateVector``), built here whole or one register axis at a time.
Computational states are plain (main, phase, vote) arrays; only frame
states are ``StateVector``s.

A state holds its vote register as the nu + 1 Dicke columns of the
symmetric subspace, which the isometry P of ``dicke_isometry`` maps onto
the 2^nu vote values: ``StateVector.amps`` writes P c out, ``framed`` and
``slab_twin`` compress weight-symmetric amplitudes by P^dagger, and
``inverter_matrix`` is an operator on the Dicke span, P^dagger R P.
"""

import math

import numpy as np

import oracles
from eigensearch.phase_estimation import StateVector


def dicke_isometry(vote_bits):
    """The 2^nu x (nu + 1) isometry P whose column h is the Dicke state
    |D_h>, the normalized sum of the vote values of Hamming weight h."""
    weights = np.bitwise_count(np.arange(1 << vote_bits))
    roots = np.sqrt([math.comb(vote_bits, h) for h in range(vote_bits + 1)])
    return (weights[:, None] == np.arange(vote_bits + 1)) / roots


def on_dicke_span(r, layout):
    """P^dagger R P for a dense operator R on (main, phase, vote)
    amplitudes: R on the Dicke span, on (main, phase, Dicke) coefficients."""
    p = dicke_isometry(layout.vote_bits)
    rows = layout.main_dim * layout.phase_dim
    r = r.reshape(rows, p.shape[0], rows, p.shape[0]) @ p
    return np.einsum("vh,avbg->ahbg", p, r).reshape(rows * p.shape[1], -1)


def _frame_change(dec, phase_bits, vote_dim):
    return np.kron(np.kron(dec.vectors.conj().T, oracles.dense_walsh(phase_bits)),
                   np.eye(vote_dim))


def dense_frame_change(dec, layout):
    """V^dagger (x) H (x) 1 as a dense matrix: computational amplitudes to
    those of the estimate frame of ``dec``."""
    return _frame_change(dec, layout.phase_bits, layout.vote_dim)


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


def _dicke_state(a, layout, dec):
    """The state of the frame amplitudes ``a``, held as their Dicke slabs;
    amplitudes off the Dicke span fail."""
    a = a.reshape(layout.shape)
    p = dicke_isometry(layout.vote_bits)
    coefs = a @ p
    assert np.max(np.abs(coefs @ p.T - a)) <= 1e-12, "amplitudes off the Dicke span"
    return StateVector.from_slabs(np.ascontiguousarray(coefs.transpose(0, 2, 1)), layout, dec)


def framed(a, dec, layout):
    """Weight-symmetric computational amplitudes, taken into the estimate
    frame of ``dec``."""
    return _dicke_state(to_frame(a.reshape(layout.shape), dec), layout, dec)


def slab_twin(state):
    """``state`` written out from its amplitudes as Dicke slabs, with no
    pending reflection: the same state in the form every apply returns."""
    return _dicke_state(state.amps, state.layout, state.frame)


def inverter_matrix(op):
    """Dense matrix of ``op`` on the Dicke span of the computational
    register, P^dagger R P.

    Column j of the frame matrix is ``op.apply`` on Dicke basis state j of
    the frame, (main, phase, Dicke) coefficients, its amplitudes compressed
    by P^dagger; the frame change C of those coefficients then gives
    C^dagger R_F C.  R commutes with every swap of two vote bits, so it
    keeps the Dicke span, and on it this is R on every state a
    ``StateVector`` can hold.
    """
    lay = op.layout
    n, m, _ = lay.shape
    p = dicke_isometry(lay.vote_bits)
    size = n * m * p.shape[1]
    cols = np.empty((size, size), dtype=complex)
    for j in range(size):
        e = np.zeros((n, m, p.shape[1]), dtype=complex)
        e.flat[j] = 1.0
        state = StateVector.from_slabs(np.ascontiguousarray(e.transpose(0, 2, 1)),
                                       lay, op.frame)
        cols[:, j] = (op.apply(state).amps.reshape(n, m, -1) @ p).reshape(-1)
    change = _frame_change(op.frame, lay.phase_bits, p.shape[1])
    return change.conj().T @ cols @ change
