"""Diffusion-operator spectra and search-instance construction.

A diffusion operator is given by its eigenphases and eigenbasis.  Exactly one
eigenphase is zero; its eigenvector is the source state the algorithm can
prepare.  All other eigenphases stay at least ``phase_gap`` away from zero.
Moment sums of the squared target overlaps against cotangent powers of the
half phases control everything downstream: the first moment must vanish for
the eigenphase-pair analysis to apply, and the second moment sets the boost
factor, whose reciprocal is the halfway-state target overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import TOL, assert_unitary, dagger, make_rng


def half_cot(theta):
    """cot(theta / 2), vectorized."""
    th = np.asarray(theta, dtype=float)
    return np.cos(th / 2.0) / np.sin(th / 2.0)


@dataclass(frozen=True, eq=False)
class DiffusionSpec:
    """Eigensystem of a diffusion operator.

    ``eigenbasis`` holds eigenvectors as columns; column ``source_index`` is
    the source state and carries eigenphase 0.  ``phase_gap`` is the declared
    lower bound on the magnitude of every other eigenphase; it may sit below
    the smallest phase actually present.  ``prepared`` holds the read-only
    dense diffusion operator once ``diffusion_operator`` has assembled it;
    every instance built on the spec shares it.
    """

    n: int
    source_index: int
    eigenphases: np.ndarray
    eigenbasis: np.ndarray
    phase_gap: float
    seed: int | None = None
    prepared: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"invalid dimension {self.n}; need n >= 2")
        if not (0 <= self.source_index < self.n):
            raise ValueError(f"source index {self.source_index} out of range")
        phases = np.asarray(self.eigenphases, dtype=float)
        if phases.shape != (self.n,):
            raise ValueError("eigenphases must have shape (n,)")
        if not (0.0 < self.phase_gap <= np.pi):
            raise ValueError(f"phase gap {self.phase_gap} outside (0, pi]")
        zero = phases == 0.0
        if zero.sum() != 1 or not zero[self.source_index]:
            raise ValueError("exactly one zero eigenphase is required, at the source")
        others = np.delete(phases, self.source_index)
        if np.any(np.abs(others) < self.phase_gap - 1e-12):
            raise ValueError("an eigenphase lies inside the declared phase gap")
        if np.any(np.abs(others) > np.pi + 1e-12):
            raise ValueError("eigenphases must lie in (-pi, pi]")
        basis = np.asarray(self.eigenbasis, dtype=complex)
        if basis.shape != (self.n, self.n):
            raise ValueError("eigenbasis must have shape (n, n)")
        assert_unitary(basis, TOL.unitarity, "eigenbasis")
        object.__setattr__(self, "eigenphases", phases)
        object.__setattr__(self, "eigenbasis", basis)


def moments(spec: DiffusionSpec, target: int, p: int) -> float:
    """Sum over non-source eigenstates of |<l|t>|^2 cot^p(theta_l / 2)."""
    if not (0 <= target < spec.n):
        raise ValueError(f"target index {target} out of range")
    if p < 0:
        raise ValueError("moment order must be >= 0")
    phases = np.asarray(spec.eigenphases, dtype=float)
    keep = np.arange(spec.n) != spec.source_index
    if np.any(phases[keep] == 0.0):
        raise ValueError("degenerate spectrum: a non-source eigenphase is zero")
    weights = np.abs(np.asarray(spec.eigenbasis)[target, keep]) ** 2
    return float(np.sum(weights * half_cot(phases[keep]) ** p))


def build_grover_spec(n: int, source_index: int = 0) -> DiffusionSpec:
    """Unstructured-search preset: 2|s><s| - 1 with a uniform source.

    The source gets eigenphase 0 and the whole orthogonal complement sits at
    eigenphase pi, so both moment sums vanish and the boost factor is 1.  The
    complement basis comes from a Householder reflection mapping the
    ``source_index`` coordinate axis onto the uniform state, which keeps the
    construction deterministic and real.
    """
    if n < 2:
        raise ValueError(f"invalid dimension {n}; need n >= 2")
    if not (0 <= source_index < n):
        raise ValueError(f"source index {source_index} out of range")
    uniform = np.full(n, 1.0 / np.sqrt(n))
    v = uniform.copy()
    v[source_index] -= 1.0
    h = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    phases = np.full(n, np.pi)
    phases[source_index] = 0.0
    return DiffusionSpec(
        n=n,
        source_index=source_index,
        eigenphases=phases,
        eigenbasis=h.astype(complex),
        phase_gap=np.pi,
        seed=None,
    )


def _random_real_orthonormal(n: int, seed: int) -> np.ndarray:
    rng = make_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def build_symmetric_spec(
    n: int,
    pair_phases,
    seed: int,
    source_index: int = 0,
    phase_gap: float | None = None,
) -> DiffusionSpec:
    """Random spec whose first moment vanishes for every target.

    Each entry of ``pair_phases`` spends two dimensions on an eigenphase pair
    at +p and -p whose eigenvectors are (u + iv)/sqrt(2) and (u - iv)/sqrt(2)
    for consecutive columns u, v of a seeded real orthonormal matrix.  The two
    then have identical target overlap magnitudes for every basis target, so
    their first-moment contributions cancel exactly.  Dimensions left over
    after the source and the pairs sit at eigenphase pi, where the half-angle
    cotangent vanishes.  ``phase_gap`` defaults to the smallest pair phase but
    may be declared lower to leave a guard margin.
    """
    if n < 1:
        raise ValueError(f"invalid dimension {n}; need n >= 1")
    if not (0 <= source_index < n):
        raise ValueError(f"source index {source_index} out of range")
    pairs = [float(p) for p in pair_phases]
    if 1 + 2 * len(pairs) > n:
        raise ValueError(f"{len(pairs)} pairs do not fit in dimension {n}")
    for p in pairs:
        if not (0.0 < p < np.pi):
            raise ValueError(f"pair phase {p} outside (0, pi)")
    if phase_gap is None:
        phase_gap = min(pairs) if pairs else np.pi
    if any(p < phase_gap for p in pairs):
        raise ValueError("a pair phase lies below the declared phase gap")

    q = _random_real_orthonormal(n, seed)
    basis = np.zeros((n, n), dtype=complex)
    phases = np.zeros(n)
    slots = [i for i in range(n) if i != source_index]

    basis[:, source_index] = q[:, 0]
    col = 1
    k = 0
    for p in pairs:
        u, v = q[:, col], q[:, col + 1]
        col += 2
        basis[:, slots[k]] = (u + 1j * v) / np.sqrt(2.0)
        phases[slots[k]] = p
        basis[:, slots[k + 1]] = (u - 1j * v) / np.sqrt(2.0)
        phases[slots[k + 1]] = -p
        k += 2
    while col < n:
        basis[:, slots[k]] = q[:, col]
        phases[slots[k]] = np.pi
        col += 1
        k += 1

    return DiffusionSpec(
        n=n,
        source_index=source_index,
        eigenphases=phases,
        eigenbasis=basis,
        phase_gap=float(phase_gap),
        seed=seed,
    )


def assemble_diffusion(spec: DiffusionSpec) -> np.ndarray:
    """Dense diffusion operator V diag(e^{i theta}) V†, as a fresh array.

    The array is real when every imaginary part is within machine epsilon,
    as for symmetric and Grover specs, whose eigenvectors are real or come in
    conjugate pairs with opposite phases: downstream products then run in
    real arithmetic.  Unitarity is checked on the array returned.
    """
    v = spec.eigenbasis
    d = (v * np.exp(1j * spec.eigenphases)) @ dagger(v)
    if np.max(np.abs(d.imag)) <= np.finfo(float).eps:
        d = d.real.copy()
    assert_unitary(d, TOL.system_unitarity, "assembled diffusion operator")
    return d


def diffusion_operator(spec: DiffusionSpec) -> np.ndarray:
    """The spec's diffusion operator, assembled and checked on first use and
    kept read-only."""
    d = spec.prepared.get("diffusion")
    if d is None:
        d = assemble_diffusion(spec)
        d.flags.writeable = False
        spec.prepared["diffusion"] = d
    return d


@dataclass(frozen=True, eq=False)
class SearchInstance:
    """A diffusion spec together with a chosen basis-state target.

    ``spec`` is the caller's spec object, shared by every instance built on
    it.  ``source`` is the read-only source state in the instance's gauge:
    the spec's source column rephased so its target amplitude is real and
    non-negative.  With eigenvector gauges fixed the same way this makes the
    eigenphase-pair expansion of the source hold without a stray global
    phase; the diffusion operator does not depend on it, because the source
    eigenphase is 0.  ``overlap`` is derived from the eigenbasis, never
    prescribed.  ``prepared`` holds the read-only search operator and its one
    eigendecomposition once ``search_core`` has built them; they live and
    die with the instance.
    """

    spec: DiffusionSpec
    target_index: int
    source: np.ndarray
    overlap: float
    first_moment: float
    second_moment: float
    boost: float
    prepared: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, spec: DiffusionSpec, target: int) -> "SearchInstance":
        if not (0 <= target < spec.n):
            raise ValueError(f"target index {target} out of range")
        amp = spec.eigenbasis[target, spec.source_index]
        overlap = float(np.abs(amp))
        if overlap <= 0.0:
            raise ValueError("target has zero overlap with the source state")
        if overlap >= 1.0 - 1e-12:
            raise ValueError("target coincides with the source state")
        source = spec.eigenbasis[:, spec.source_index] * (amp.conjugate() / overlap)
        source[target] = overlap   # exactly, not up to the rephasing's roundoff
        source.flags.writeable = False

        first = moments(spec, target, 1)
        second = moments(spec, target, 2)
        if abs(first) > TOL.lambda1_budget:
            raise ValueError(
                f"first moment {first:.3e} exceeds budget {TOL.lambda1_budget:g}; "
                "the eigenphase-pair analysis needs it to vanish"
            )
        boost = float(np.sqrt(1.0 + second))
        return cls(spec=spec, target_index=target, source=source, overlap=overlap,
                   first_moment=first, second_moment=second, boost=boost)

    @property
    def instance_id(self) -> str:
        kind = "grover" if self.spec.seed is None else "sym"
        seed = "na" if self.spec.seed is None else str(self.spec.seed)
        return f"{kind}-n{self.spec.n}-seed{seed}-t{self.target_index}"


def find_targets(spec: DiffusionSpec, overlap_max: float | None = None,
                 overlap_min: float = 0.0) -> list[int]:
    """Basis targets whose source overlap lies in [overlap_min, overlap_max],
    sorted by increasing overlap.

    The default ceiling is a twentieth of the phase gap, the weak-coupling
    regime the eigenphase predictions assume.
    """
    if overlap_max is None:
        overlap_max = spec.phase_gap / 20.0
    overlaps = np.abs(spec.eigenbasis[:, spec.source_index])
    hits = [t for t in range(spec.n)
            if overlap_min <= overlaps[t] <= overlap_max and overlaps[t] > 0.0]
    return sorted(hits, key=lambda t: (overlaps[t], t))


def spec_to_json(spec: DiffusionSpec, target: int | None = None) -> dict:
    """JSON document for a spec; floats survive a round trip bit-exactly."""
    flat = spec.eigenbasis.reshape(-1)
    return {
        "N": spec.n,
        "s": spec.source_index,
        "t": target,
        "eigenphases": spec.eigenphases.tolist(),
        "eigenbasis": [[float(z.real), float(z.imag)] for z in flat],
        "theta_min": float(spec.phase_gap),
        "seed": spec.seed,
    }

