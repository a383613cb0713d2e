"""Dense complex linear-algebra kernels shared by all other modules.

Everything here works on plain numpy arrays: unitaries are complex
``(n, n)`` ndarrays, states are complex ``(n,)`` ndarrays.  Values are
treated as immutable after construction; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


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
    degenerate_cluster: float = 1e-8    # eigenphase gap that counts as degenerate
    norm_preservation: float = 1e-12    # relative, per application
    pole_proximity: float = 1e-12       # distance to a cotangent pole
    lambda1_budget: float = 1e-10       # |Lambda_1| allowed for symmetric builds
    secular_agreement: float = 1e-8     # diagonalization vs root-finding
    secular_bisection: float = 1e-12    # bisection stopping width
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


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; splittable, reproducible across platforms."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def split_seed(seed: int, index: int) -> int:
    """Derive an independent child seed from a root seed and an index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


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
    """Orthonormal eigendecomposition of a unitary matrix.

    Uses the complex Schur form, which for a normal matrix is diagonal up to
    roundoff and whose transform is unitary by construction, so eigenvectors
    come out orthonormal even inside degenerate eigenvalue clusters.  A QR
    pass inside near-degenerate phase clusters tightens orthonormality.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol):
        raise ValueError("eig_unitary: input is not unitary within tolerance")
    t, z = scipy.linalg.schur(u, output="complex")
    w = np.diagonal(t)
    if np.max(np.abs(np.abs(w) - 1.0)) > TOL.eigen_modulus:
        raise ValueError("eig_unitary: eigenvalue moduli deviate from 1")
    phases = np.angle(w)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = np.array(z[:, order])

    n = phases.shape[0]
    i = 0
    while i < n:
        j = i + 1
        while j < n and phases[j] - phases[j - 1] < TOL.degenerate_cluster:
            j += 1
        if j - i > 1:
            q, _ = np.linalg.qr(vectors[:, i:j])
            vectors[:, i:j] = q
        i = j

    gram = dagger(vectors) @ vectors
    if np.max(np.abs(gram - np.eye(n))) > TOL.eigen_orthonormality:
        raise InternalInvariantError("eig_unitary: eigenvectors failed orthonormality")
    rebuilt = (vectors * np.exp(1j * phases)) @ dagger(vectors)
    if np.max(np.abs(rebuilt - u)) > TOL.eigen_reconstruction:
        raise InternalInvariantError("eig_unitary: reconstruction residual too large")
    return EigenDecomposition(phases=phases, vectors=vectors)


def unitary_power(u: np.ndarray, z: int) -> np.ndarray:
    """U^z for integer z >= 0, by repeated squaring."""
    if z < 0:
        raise ValueError("unitary_power: exponent must be >= 0")
    n = u.shape[0]
    result = np.eye(n, dtype=complex)
    base = np.asarray(u, dtype=complex)
    e = z
    while e:
        if e & 1:
            result = base @ result
        base = base @ base
        e >>= 1
    return result
