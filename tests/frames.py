"""The estimate frame as dense matrices, and the contract every state keeps.

A state in the frame of (V, lambda) holds the amplitudes
(V^dagger (x) H (x) 1) a of a computational state a (see ``StateVector``),
built here whole or one register axis at a time.  Computational states are
plain (main, phase, vote) arrays; only frame states are ``StateVector``s.
A state holds its vote register as the nu + 1 Dicke columns of the
symmetric subspace, which the isometry P of ``dicke_isometry`` maps onto
the 2^nu vote values: ``StateVector.amps`` writes P c out, ``framed`` and
``slab_twin`` compress weight-symmetric amplitudes by P^dagger, and
``inverter_matrix`` is an operator on the Dicke span, P^dagger R P.

``check_state`` holds one state, however it is held, to the dense
references: its norm and readouts to those of its amplitudes, its target
flip to its computational amplitudes with the target's rows negated, and
its apply to the dense oracle of ``oracles``, for the ledger's closed-form
charges.  ``reachable_states`` makes the states to run it on through
public calls alone: an embedding, its apply, a random Dicke slab draw,
their flips and reflections, and three amplification rounds.
"""

import math

import numpy as np

import eigensearch as es
import oracles
from eigensearch.phase_estimation import StateVector
from eigensearch.pipeline import target_flip


def dicke_isometry(vote_bits):
    """The 2^nu x (nu + 1) isometry P whose column h is the Dicke state
    |D_h>, the normalized sum of the vote values of Hamming weight h."""
    weights = np.bitwise_count(np.arange(1 << vote_bits))
    roots = np.sqrt([math.comb(vote_bits, h) for h in range(vote_bits + 1)])
    return (weights[:, None] == np.arange(vote_bits + 1)) / roots


def oracle_shape(layout):
    """The (main, phase, vote) shape of the computational amplitudes over
    all 2^nu vote values, which the dense oracles act on."""
    return (layout.main_dim, layout.phase_dim, 1 << layout.vote_bits)


def on_dicke_span(r, layout):
    """P^dagger R P for a dense operator R on (main, phase, vote)
    amplitudes: R on the Dicke span, on (main, phase, Dicke) coefficients."""
    p = dicke_isometry(layout.vote_bits)
    rows = layout.main_dim * layout.phase_dim
    r = r.reshape(rows, p.shape[0], rows, p.shape[0]) @ p
    return np.einsum("vh,avbg->ahbg", p, r).reshape(rows * p.shape[1], -1)


def _frame_change(dec, phase_bits, votes):
    return np.kron(np.kron(dec.vectors.conj().T, oracles.dense_walsh(phase_bits)),
                   np.eye(votes))


def dense_frame_change(dec, layout):
    """V^dagger (x) H (x) 1 as a dense matrix: computational amplitudes to
    those of the estimate frame of ``dec``."""
    return _frame_change(dec, layout.phase_bits, 1 << layout.vote_bits)


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
    return from_frame(state.amps.reshape(oracle_shape(state.layout)), state.frame)


def _dicke_state(a, layout, dec):
    """The state of the frame amplitudes ``a``, held as their Dicke slabs;
    amplitudes off the Dicke span fail."""
    a = a.reshape(oracle_shape(layout))
    p = dicke_isometry(layout.vote_bits)
    coefs = a @ p
    assert np.max(np.abs(coefs @ p.T - a)) <= 1e-12, "amplitudes off the Dicke span"
    return StateVector.from_slabs(np.ascontiguousarray(coefs.transpose(0, 2, 1)), layout, dec)


def framed(a, dec, layout):
    """Weight-symmetric computational amplitudes, taken into the estimate
    frame of ``dec``."""
    return _dicke_state(to_frame(a.reshape(oracle_shape(layout)), dec), layout, dec)


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
    n, _, m = lay.shape
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


def dense_oracle(u, op):
    """The dense oracle of ``op``'s scheme and gap window on the unitary
    ``u``, an operator on (main, phase, vote) computational amplitudes."""
    scheme = op.scheme
    if scheme.kind == "basic":
        return oracles.dense_basic_inversion(u, scheme.phase_bits, op.gap_window)
    return oracles.dense_boosted_inversion(u, scheme.phase_bits, scheme.vote_bits,
                                           op.gap_window,
                                           oracles.vote_majority_mask(scheme.vote_bits))


def frame_oracle(op):
    """The dense oracle of ``op`` as a function of a frame state: the
    oracle on the state's computational amplitudes, taken back into the
    frame.  It is built from the unitary the frame diagonalizes,
    V diag(e^{i lambda}) V^dagger, so the eigendecomposition's own residual
    (up to 1e-13 on a planted cluster) does not count against the frame's
    operator."""
    dec = op.frame
    change = dense_frame_change(dec, op.layout)
    oracle = dense_oracle((dec.vectors * np.exp(1j * dec.phases)) @ dec.vectors.conj().T, op)
    return lambda state: change @ (oracle @ (change.conj().T @ state.amps))


def amplitude_readouts(state):
    """The zero branch and the main marginal of the computational
    amplitudes of ``state``."""
    a = computational(state)
    return a[:, 0, 0], np.sum(np.abs(a) ** 2, axis=(1, 2))


def apply_charges(op):
    """The ledger of one apply of ``op``: an estimate and an unestimate of
    2^mu controlled powers, and per vote kickback two more estimates, one
    zero reflection and two vote Hadamards."""
    m, nu = op.layout.phase_dim, op.scheme.vote_bits
    queries = 2 * m + 4 * nu * m
    return {"ds_applications": 0, "oracle_queries": queries, "controlled_s": queries,
            "i_zero_prime": 2 * nu, "hadamards_vote": 4 * nu}


def check_state(state, ops, target):
    """Hold ``state`` to the dense references: its flip of ``target``; its
    apply by each of ``ops``, pairs of an operator of its frame and its
    ``frame_oracle``, with its charges; the norm and readouts of the state
    and of each output against those of its amplitudes, unchanged by
    reading them; and no bit of an apply changed by reading the state."""
    unread = ops[0][0].apply(state)
    ledger = es.QueryLedger()
    flipped = target_flip(state, target, ledger)
    negated = computational(state)
    negated[target] *= -1
    assert np.max(np.abs(flipped.amps - to_frame(negated, state.frame).reshape(-1))) <= 1e-13
    assert ledger == es.QueryLedger(oracle_queries=1)
    held = [state]
    for op, oracle in ops:
        ledger = es.QueryLedger()
        held.append(op.apply(state, ledger))
        assert ledger.as_dict() == apply_charges(op)
        assert np.max(np.abs(held[-1].amps - oracle(state))) <= 1e-13
    for each in held:
        readouts = each.readouts()
        assert abs(each.norm - np.linalg.norm(each.amps)) <= 1e-13
        for got, want, again in zip(readouts, amplitude_readouts(each), each.readouts()):
            assert np.max(np.abs(got - want)) <= 1e-13 and np.array_equal(again, got)
    assert np.array_equal(ops[0][0].apply(state).amps, unread.amps)


def _unit(rng, shape):
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return values / np.linalg.norm(values)


def reachable_states(op, seed):
    """States of ``op``'s frame made by public calls alone, by name: a
    random embedded vector, its apply (vote-plane coefficients when
    boosted) and a random Dicke slab draw; their target flips, a second
    flip of the apply to another target and their reflections about a
    random unit vector; and three rounds of flip and apply."""
    rng = np.random.default_rng(seed)
    lay, n = op.layout, op.layout.main_dim
    first = int(rng.integers(n))
    embedded = es.embed_mainspace(lay, _unit(rng, n), op.frame)
    applied = op.apply(embedded)
    drawn = StateVector.from_slabs(_unit(rng, lay.shape), lay, op.frame)
    x = _unit(rng, n)
    states = {"embedded": embedded, "applied": applied, "drawn": drawn,
              "applied, reflected": applied.reflect_main(x),
              "drawn, reflected": drawn.reflect_main(x)}
    for name in ("embedded", "applied", "drawn"):
        states[name + ", flipped"] = target_flip(states[name], first)
    states["applied, flipped twice"] = target_flip(states["applied, flipped"],
                                                   (first + 1) % n)
    state = embedded
    for r in range(1, 4):
        state = states[f"round {r}"] = op.apply(target_flip(state, first))
    return states
