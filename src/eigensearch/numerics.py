"""Dense complex linear-algebra kernels shared by all other modules.

Everything here works on plain numpy arrays: unitaries are complex
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
    # only the size of the blocks.
    cosine_cluster: float = 1e-4
    scalar_block: float = 1e-12         # distance of a block's split from a multiple of 1
    norm_preservation: float = 1e-12    # relative, per application
    pole_proximity: float = 1e-12       # distance to a cotangent pole
    lambda1_budget: float = 1e-10       # |Lambda_1| allowed for symmetric builds
    secular_agreement: float = 1e-8     # diagonalization vs root-finding
    secular_bisection: float = 1e-12    # bisection stopping width
    gap_edge: float = 1e-12             # eigenphases this close to +-gap count as outside
    state_norm: float = 1e-10           # register state normalization


TOL = Tolerances()


def round_half_away(x: float) -> int:
    """Nearest integer, with exact .5 ties rounded away from zero."""
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def wrap_angle(x):
    """Map angles to the branch (-pi, pi]."""
    wrapped = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.isscalar(x):
        return float(wrapped)
    return wrapped


def phase_distance(a, b):
    """Distance between eigenphases modulo 2*pi."""
    return np.abs(wrap_angle(np.asarray(a) - np.asarray(b)))


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
    gram = dagger(u) @ u
    return bool(np.max(np.abs(gram - np.eye(u.shape[0]))) < tol)


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

    A unitary is normal, so its cosine part ``(U + U†)/2`` is Hermitian with
    U's eigenvectors and eigenvalues ``cos(lambda)``.  Its ``eigh`` basis is
    orthonormal and leaves U block diagonal, one block per run of cosines
    closer than ``TOL.cosine_cluster``.  A block holds the phases that share
    a cosine: a conjugate pair +-lambda (a real orthogonal U has all its
    complex eigenvalues in such pairs) or a near-degenerate set.  All blocks
    of one size are split by one stacked ``eigh`` of the Hermitian part of
    ``e^{-i phi} U`` on the block.  That is the sine part ``(U - U†)/2i``
    (phi = pi/2), except for blocks whose cosine is near 0: there the sine
    is flat in lambda, and phi = pi/4 resolves the phases instead.  A block
    whose split is within ``TOL.scalar_block`` (Frobenius) of a multiple of 1
    is one eigenvalue and keeps its cosine basis.  The phases are the angles
    of the Rayleigh quotients ``v†Uv``.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol):
        raise ValueError("eig_unitary: input is not unitary within tolerance")
    n = u.shape[0]
    cosine_part = 0.5 * (u + dagger(u))
    if np.max(np.abs(cosine_part.imag)) <= np.finfo(float).eps:
        # real up to roundoff, as for every real orthogonal U: dropping an
        # imaginary part that small moves the vectors less than eigh's own
        # backward error, and the real solver is about 3x faster
        cosine_part = cosine_part.real
    cosines, vectors = np.linalg.eigh(cosine_part)
    vectors = vectors.astype(complex, copy=False)
    u_vectors = u @ vectors
    rayleigh = np.sum(vectors.conj() * u_vectors, axis=0)
    starts = np.flatnonzero(np.diff(cosines, prepend=-np.inf) > TOL.cosine_cluster)
    sizes = np.diff(starts, append=n)
    for size in np.unique(sizes[sizes > 1]):
        cols = starts[sizes == size, None] + np.arange(size)   # (blocks, size)
        basis = np.moveaxis(vectors[:, cols], 1, 0)            # (blocks, n, size)
        block = dagger(basis) @ np.moveaxis(u_vectors[:, cols], 1, 0)
        turn = np.where(np.abs(cosines[cols].mean(axis=1)) < 0.5,
                        np.exp(-0.25j * np.pi), -1j)[:, None, None]
        split = 0.5 * (turn * block + dagger(turn * block))
        # U is one eigenvalue on a block whose split is a multiple of 1;
        # rotating it would only mix roundoff into phases its cosine basis
        # gives exactly (e.g. pi for the -1 eigenspace of a real U)
        centre = np.trace(split, axis1=1, axis2=2).real / size
        off = np.linalg.norm(split - centre[:, None, None] * np.eye(size), axis=(1, 2))
        mixed = off > TOL.scalar_block
        cols, basis, block = cols[mixed], basis[mixed], block[mixed]
        _, q = np.linalg.eigh(split[mixed])
        rayleigh[cols] = np.sum(q.conj() * (block @ q), axis=1)
        vectors[:, cols] = np.moveaxis(basis @ q, 0, 1)
    if np.max(np.abs(np.abs(rayleigh) - 1.0)) > TOL.eigen_modulus:
        raise InternalInvariantError("eig_unitary: eigenvalue moduli deviate from 1")
    phases = np.angle(rayleigh)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = vectors[:, order]

    gram = dagger(vectors) @ vectors
    if np.max(np.abs(gram - np.eye(n))) > TOL.eigen_orthonormality:
        raise InternalInvariantError("eig_unitary: eigenvectors failed orthonormality")
    rebuilt = (vectors * np.exp(1j * phases)) @ dagger(vectors)
    if np.max(np.abs(rebuilt - u)) > TOL.eigen_reconstruction:
        raise InternalInvariantError("eig_unitary: reconstruction residual too large")
    return EigenDecomposition(phases=phases, vectors=vectors)

