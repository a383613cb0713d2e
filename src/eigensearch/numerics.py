"""Dense complex linear-algebra kernels shared by all other modules.

Everything here works on plain numpy arrays: unitaries are real or complex
``(n, n)`` ndarrays, states are complex ``(n,)`` ndarrays.  Values are
treated as immutable after construction; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class AssumptionViolation(RuntimeError):
    """A structural assumption of the algorithm failed on this input."""


class ResourceCapExceeded(RuntimeError):
    """A dense simulation would exceed the configured amplitude cap."""


class InternalInvariantError(RuntimeError):
    """A result the program computed failed its own consistency check."""


class GapGuessTooCoarse(ValueError):
    """A declared spectral gap leaves no room for an inversion window: it is
    outside (0, pi], or the window around zero covers the whole register."""


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance record; the single source of truth for tests."""

    unitarity: float = 1e-10            # max-entry norm of U†U - 1 at construction
    system_unitarity: float = 1e-9      # every operator assembled by the system
    eigen_reconstruction: float = 1e-8  # ||U - V diag V†||_max
    eigen_orthonormality: float = 1e-10
    eigen_modulus: float = 1e-8         # | |eigenvalue| - 1 |
    # Cosines of eigenphases closer than this share one block of eig_unitary's
    # split.  eigh's vectors err by about eps/gap between cosines, and U's
    # reconstruction by up to twice that, so a gap of at least 1e-4 keeps
    # the error near 1e-12, far inside eigen_reconstruction.  Inside a block
    # a second eigh resolves the phases linearly, so a larger value costs
    # only wider blocks: one pass over B per column of the widest block.
    cosine_cluster: float = 1e-4
    scalar_block: float = 1e-12         # distance of a block's split from a multiple of 1
    pole_proximity: float = 1e-12       # distance to a cotangent pole
    lambda1_budget: float = 1e-10       # |Lambda_1| allowed for symmetric builds
    secular_agreement: float = 1e-8     # diagonalization vs root-finding
    secular_bisection: float = 1e-12    # last step of the secular root search
    gap_edge: float = 1e-12             # eigenphases this close to +-gap count as outside
    state_norm: float = 1e-10           # register state normalization


TOL = Tolerances()


def round_half_away(x: float) -> int:
    """Nearest integer, with exact .5 ties rounded away from zero."""
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def inside_gap(phases, phase_gap: float) -> np.ndarray:
    """Which eigenphases lie strictly inside the spectral gap (-gap, gap).

    A phase within ``TOL.gap_edge`` of either edge counts as outside, so a
    spectrum with an eigenphase on the declared gap itself (pi for a Grover
    operator) is not split by the eigensolver's roundoff.
    """
    return np.abs(np.asarray(phases, dtype=float)) < phase_gap - TOL.gap_edge


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; splittable, reproducible across platforms."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def split_seed(seed: int, index: int) -> int:
    """Derive an independent child seed from a root seed and an index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def is_unitary(u: np.ndarray, tol: float = TOL.unitarity) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    gram = dagger(u) @ u if np.iscomplexobj(u) else u.T @ u
    gram.flat[::u.shape[0] + 1] -= 1
    return bool(np.max(np.abs(gram)) < tol)


def assert_unitary(u: np.ndarray, tol: float = TOL.unitarity, what: str = "operator"):
    if not is_unitary(u, tol):
        raise ValueError(f"{what} is not unitary within {tol:g}")


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenphases in (-pi, pi], ascending; column k of ``vectors`` pairs with
    ``phases[k]``."""

    phases: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.phases.shape[0]


def eig_unitary(u: np.ndarray, tol: float = TOL.unitarity) -> EigenDecomposition:
    """Orthonormal eigendecomposition of a unitary matrix, by Hermitian solves.

    A unitary is normal, so ``U + U†`` is Hermitian with U's eigenvectors
    and eigenvalues ``2 cos(lambda)``.  Its ``eigh`` basis B is orthonormal
    and leaves ``M = B† U B`` block diagonal, one block per run of cosines
    closer than ``TOL.cosine_cluster``: a conjugate pair +-lambda or a
    near-degenerate set.  V = B Q, with Q block diagonal and kept as its
    blocks (see ``_check_rotations``).  All blocks of one size are split by
    one stacked ``eigh`` of the Hermitian part of ``e^{-i phi} M`` on the
    block: the sine part (phi = pi/2), or phi = pi/4 for blocks whose
    cosine is near 0, where the sine is flat in lambda.  A block whose
    split is within ``TOL.scalar_block`` (Frobenius) of a multiple of 1 is
    one eigenvalue and keeps B; any other keeps eigh's split q.  The phases
    are the angles of the Rayleigh quotients, ``v† U v`` on a column of B
    and ``diag(q† M q)`` on a split block.

    A real U (every symmetric and Grover search operator) is solved in real
    arithmetic, and its complex eigenvalues come in exact conjugate pairs:
    a block of two is ``p = (b1 - i sgn b2)/sqrt(2)``, sgn the sign of
    ``M[1, 0] - M[0, 1]``, and ``conj(p)``; a larger block keeps the
    columns of positive split, their conjugates, and a real basis g of the
    real part of the middle's projector (its +-1 eigenspace).  V is then
    written as its real and imaginary parts.

    Non-unitary input raises ``ValueError``.  A Rayleigh quotient off
    modulus 1, or a bound of ``_check_rotations`` over its ``TOL`` entry,
    raises ``InternalInvariantError``; each bound is at least the max entry
    of the dense ``V†V - 1`` or ``V diag(e^{i phases}) V† - U`` it stands
    for, for real and complex B alike, so no dense product is formed.
    """
    u = np.asarray(u)
    if not is_unitary(u, tol):
        raise ValueError("eig_unitary: input is not unitary within tolerance")
    real = not np.iscomplexobj(u)
    u = np.asarray(u, dtype=float) if real else u
    n = u.shape[0]
    cosines, basis = np.linalg.eigh(u + dagger(u))
    cosines *= 0.5
    ub = u @ basis
    rayleigh = np.einsum("ij,ij->j", basis.conj(), ub).astype(complex)
    starts, sizes = _cosine_blocks(cosines)
    blocks = []     # (cols, q): the split blocks of one size, stacked
    if real:
        # (M[j + 1, j] - M[j, j + 1]) / 2 for every two neighbouring columns
        skew = 0.5 * (np.einsum("ij,ij->j", basis[:, 1:], ub[:, :-1])
                      - np.einsum("ij,ij->j", basis[:, :-1], ub[:, 1:]))
        first = starts[sizes == 2]
        # the block's split (U - U^T)/2i has Frobenius norm sqrt(2) |skew|
        first = first[math.sqrt(2.0) * np.abs(skew[first]) > TOL.scalar_block]
        pairs = np.full((first.size, 2, 2), math.sqrt(0.5), dtype=complex)
        pairs[:, 1] *= 1j * np.sign(skew[first])[:, None] * [-1.0, 1.0]
        rho = 0.5 * (rayleigh[first].real + rayleigh[first + 1].real) + 1j * np.abs(skew[first])
        blocks.append((first[:, None] + np.arange(2), pairs))
        rayleigh[blocks[0][0]] = np.stack([rho, rho.conj()], axis=1)
    for size in sorted(set(sizes[sizes > (2 if real else 1)].tolist())):
        cols, block, split = _split_blocks(cosines, basis, ub, starts, sizes, size)
        values, rotations = np.linalg.eigh(split)
        blocks.append((cols, rotations))
        if not real:
            rayleigh[cols] = np.sum(rotations.conj() * (block @ rotations), axis=1)
            continue
        for col, m, w, q in zip(cols, block, values, rotations):
            half = int(np.count_nonzero(w > TOL.scalar_block))
            p, middle = q[:, size - half:], q[:, half:size - half]
            g = np.linalg.eigh((middle @ dagger(middle)).real)[1][:, 2 * half:]
            rho = np.sum(p.conj() * (m @ p), axis=0)
            rayleigh[col] = np.hstack([np.sum(g * (m @ g), axis=0), rho, rho.conj()])
            q[:] = np.hstack([g, p, p.conj()])
    blocks = [(cols, q) for cols, q in blocks if cols.size]
    phases = _check_rotations(u, basis, ub, blocks, rayleigh)
    order = np.argsort(phases, kind="stable")
    vectors = np.zeros((n, n), dtype=complex)
    parts = ((vectors.real, np.real), (vectors.imag, np.imag)) if real else ((vectors, np.asarray),)
    for part, take in parts:     # ub is spent as scratch
        _add_block_columns(part, basis, [(cols, take(q)) for cols, q in blocks], take(1.0),
                           order, ub)
    return EigenDecomposition(phases=phases[order], vectors=vectors)


def _cosine_blocks(cosines):
    """First column and size of each run of cosines closer than
    ``TOL.cosine_cluster``."""
    starts = np.flatnonzero(np.diff(cosines, prepend=-np.inf) > TOL.cosine_cluster)
    return starts, np.diff(starts, append=cosines.shape[0])


def _split_blocks(cosines, basis, ub, starts, sizes, size):
    """The blocks of one size that are not one eigenvalue, stacked: their
    columns (blocks, size), M on each, and their splits."""
    # not np.unique: it imports numpy.ma, about 15 ms of every fresh process
    cols = starts[sizes == size, None] + np.arange(size)
    if not np.iscomplexobj(basis):
        # A real block at cosine s = +-1 is one eigenvalue when R = U B - s B
        # is small, without forming M: its skew part below is that of B^T R,
        # at most ||B||_2 ||R||_F, and ||B||_2^2 <= 1 + size * delta with
        # delta <= TOL.eigen_orthonormality in every decomposition returned.
        # Twice that covers rounding, so this keeps no block the test would
        # split; blocks that fail it form M.  R is taken over the span of
        # the blocks as slices, which is far cheaper than gathering columns.
        lo, hi = cols[0, 0], cols[-1, -1] + 1
        sign = np.zeros(hi - lo)
        sign[cols - lo] = np.sign(cosines[cols].mean(axis=1))[:, None]
        r = ub[:, lo:hi] - sign * basis[:, lo:hi]
        r = np.sqrt(np.einsum("ij,ij->j", r, r)[cols - lo].sum(axis=1))
        cols = cols[2.0 * math.sqrt(1.0 + size * TOL.eigen_orthonormality) * r
                    > TOL.scalar_block]
    block = dagger(np.moveaxis(basis[:, cols], 1, 0)) @ np.moveaxis(ub[:, cols], 1, 0)
    turn = np.where(np.abs(cosines[cols].mean(axis=1)) < 0.5,
                    np.exp(-0.25j * np.pi), -1j)[:, None, None]
    # M is one eigenvalue on a block whose split is a multiple of 1;
    # rotating it would only mix roundoff into phases its cosine basis
    # gives exactly (e.g. pi for the -1 eigenspace of a real U)
    if np.iscomplexobj(block):
        split = 0.5 * (turn * block + dagger(turn * block))
        centre = np.trace(split, axis1=1, axis2=2).real / size
        off = np.linalg.norm(split - centre[:, None, None] * np.eye(size), axis=(1, 2))
    else:
        # a real block is one eigenvalue, +1 or -1, iff its skew part
        # vanishes; at turn -i that part is the split, times -i
        skew = block - np.swapaxes(block, 1, 2)
        off = 0.5 * np.sqrt(np.einsum("kij,kij->k", skew, skew))
    mixed = off > TOL.scalar_block
    block, turn = block[mixed], turn[mixed]
    return cols[mixed], block, 0.5 * (turn * block + dagger(turn * block))


def _check_rotations(u: np.ndarray, basis: np.ndarray, ub: np.ndarray,
                     blocks: list, rayleigh: np.ndarray) -> np.ndarray:
    """eig_unitary's checks on ``V = B Q``, Q the identity but on its blocks
    (cols, q): ``q[k]`` is Q on the run of columns ``cols[k]``.  ``rayleigh``
    holds the Rayleigh quotients of V; returns their phases.  ``ub`` = U B
    becomes ``E = U B - B M``, with ``M = Q diag(e^{i phases}) Q^dagger``
    (its real part for a real B) one stacked product per block size.  With
    ``delta = max|B^dagger B - 1|``, ``V^dagger V - 1 = Q^dagger (B^dagger B
    - 1) Q + Q^dagger Q - 1`` is at most ``c^2 delta + ||Q Q^dagger - 1||_F``
    (square blocks: one spectrum), c the largest 1-norm of a column of a
    block or 1 (sqrt(2) for a pair) and ``||Q Q^dagger - 1||_F^2`` the sum
    of ``||q[k] q[k]^dagger - 1||_F^2``; ``U - V e^{i phases} V^dagger = U
    (1 - B B^dagger) + E B^dagger``, ``||1 - B B^dagger||_2 <= n delta``, is
    at most ``max||U_i|| n delta + max||E_i|| sqrt(1 + n delta)`` over rows
    i.  Both bounds hold for any B, real or complex, and each is at least
    the max-entry norm of its dense check ``max|V^dagger V - 1|`` or ``max|V
    e^{i phases} V^dagger - U|`` (up to the ulps of forming V).
    """
    if np.max(np.abs(np.abs(rayleigh) - 1.0)) > TOL.eigen_modulus:
        raise InternalInvariantError("eig_unitary: eigenvalue moduli deviate from 1")
    phases = np.angle(rayleigh)
    n = u.shape[0]
    gram = dagger(basis) @ basis
    gram.flat[::n + 1] -= 1.0
    delta = np.max(np.abs(gram))
    unit = math.sqrt(sum(np.linalg.norm(q @ dagger(q) - np.eye(q.shape[1])) ** 2
                         for _, q in blocks))
    ones = max([1.0] + [np.max(np.sum(np.abs(q), axis=1)) for _, q in blocks])
    if ones * ones * delta + unit > TOL.eigen_orthonormality:
        raise InternalInvariantError("eig_unitary: eigenvectors failed orthonormality")
    keep = np.asarray if np.iscomplexobj(basis) else np.real
    turns = -np.exp(1j * phases)
    m = [(cols, keep((q * turns[cols][:, None, :]) @ dagger(q))) for cols, q in blocks]
    _add_block_columns(ub, basis, m, keep(turns), slice(None), gram)
    rows, scale = (math.sqrt(np.max(np.einsum("ij,ij->i", a, a.conj()).real))
                   for a in (ub, u))
    if scale * n * delta + rows * math.sqrt(1.0 + n * delta) > TOL.eigen_reconstruction:
        raise InternalInvariantError("eig_unitary: reconstruction residual too large")
    return phases


def _add_block_columns(out, basis, blocks, fill, order, scratch):
    """Adds column ``order[k]`` of ``B X`` to column k of ``out``, X equal
    to ``diag(fill)`` but on its blocks (cols, x): one pass over B's columns
    ``start + a`` per offset a into a block, start the first column of each
    column's block (or the column).  ``scratch``, shaped like B, is spent."""
    start = np.arange(basis.shape[1])
    coef = np.zeros((max([1] + [x.shape[1] for _, x in blocks]), start.size),
                    dtype=np.result_type(fill, *(x for _, x in blocks)))
    coef[0] = fill
    for cols, x in blocks:
        start[cols] = cols[:, :1]
        coef[:x.shape[1], cols] = np.moveaxis(x, 1, 0)
    for a, c in enumerate(coef[:, order]):
        if c.any():
            np.take(basis, start[order] + a, axis=1, out=scratch, mode="clip")
            scratch *= c
            out += scratch
