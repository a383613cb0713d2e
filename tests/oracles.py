"""Independent dense-matrix constructions used to check the fast kernels.

Everything here is built the slow, obvious way: explicit DFT matrices,
Hadamard krons, sum-over-controls block matrices, Lagrange projectors,
plain bisection for the secular roots, a symmetric spec laid out one pair
at a time, and an eigensolver checked with dense products.  Nothing
imports the fast paths it is checking beyond shared data types.  The
exception is the peak-window mass, which criterion-04 reads off the
simulator's own estimate profile: the concentration bound is a check on
that profile.
"""

import numpy as np

from eigensearch.numerics import (TOL, EigenDecomposition, InternalInvariantError,
                                  round_half_away)
from eigensearch.phase_estimation import estimate_amplitudes


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


def unitary_power(u: np.ndarray, z: int) -> np.ndarray:
    """U^z for integer z >= 0, by repeated squaring."""
    if z < 0:
        raise ValueError("unitary_power: exponent must be >= 0")
    result = np.eye(u.shape[0], dtype=complex)
    base = np.asarray(u, dtype=complex)
    while z:
        if z & 1:
            result = base @ result
        base = base @ base
        z >>= 1
    return result


def halfway_by_matvecs(operator: np.ndarray, source: np.ndarray,
                       steps: int) -> np.ndarray:
    """The source after ``steps`` dense search-operator applications, one
    matrix-vector product each."""
    state = np.array(source, dtype=complex)
    for _ in range(steps):
        state = operator @ state
    return state


def dense_dft(m: int) -> np.ndarray:
    """Forward transform with F[j, k] = exp(2*pi*i*j*k/m) / sqrt(m)."""
    j = np.arange(m)
    return np.exp(2j * np.pi * np.outer(j, j) / m) / np.sqrt(m)


def dense_walsh(bits: int) -> np.ndarray:
    """The normalized Hadamard matrix on ``bits`` qubits, as a kron of
    normalized one-qubit factors."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(bits):
        out = np.kron(out, h)
    return out


def dense_controlled_powers(unitary: np.ndarray, phase_bits: int,
                            inverse: bool = False) -> np.ndarray:
    """Sum over control values z of U^z on the main register.

    Layout is main-major: flat index m * 2**phase_bits + w.
    """
    m = 1 << phase_bits
    u = unitary.conj().T if inverse else unitary
    n = u.shape[0]
    out = np.zeros((n * m, n * m), dtype=complex)
    for z in range(m):
        sel = np.zeros((m, m))
        sel[z, z] = 1.0
        out += np.kron(unitary_power(u, z), sel)
    return out


def dense_estimate_forward(unitary: np.ndarray, phase_bits: int) -> np.ndarray:
    n = unitary.shape[0]
    eye = np.eye(n)
    walsh = np.kron(eye, dense_walsh(phase_bits))
    ctrl = dense_controlled_powers(unitary, phase_bits)
    inv_dft = np.kron(eye, dense_dft(1 << phase_bits).conj().T)
    return inv_dft @ ctrl @ walsh


def brute_estimate_amplitudes(phase_bits: int, lam: float) -> np.ndarray:
    """Direct geometric sum for the phase-register profile of an eigenstate."""
    m = 1 << phase_bits
    z = np.arange(m)
    # term (k, z) is e^{i z lam} e^{-2 pi i z k / m}; the second factor is
    # the m-th root of unity of index z k mod m (m is a power of two)
    roots = np.exp(-2j * np.pi * z / m)
    return roots[np.outer(z, z) & (m - 1)] @ np.exp(1j * z * lam) / m


def k_nearest(phase_bits: int, lam: float) -> int:
    """Phase-register value closest to lam, on the register's own circle."""
    m = 1 << phase_bits
    return round_half_away(m * lam / (2.0 * np.pi)) % m


def peak_window_mass(phase_bits: int, lam: float, halfwidth: int) -> float:
    """Probability that the estimate of ``lam`` lands within ``halfwidth``
    register values of the nearest one."""
    m = 1 << phase_bits
    window = (k_nearest(phase_bits, lam) + np.arange(-halfwidth, halfwidth + 1)) % m
    return float(np.sum(np.abs(estimate_amplitudes(phase_bits, lam)[window]) ** 2))


def mask_sign_diag(mask: np.ndarray) -> np.ndarray:
    """The selective flip of a boolean register mask: -1 on it, +1 off it."""
    return np.diag(np.where(mask, -1, 1))


def dense_basic_inversion(unitary: np.ndarray, phase_bits: int,
                          gap_mask: np.ndarray) -> np.ndarray:
    """The basic selective inverter as one dense matrix on main x phase."""
    n = unitary.shape[0]
    est = dense_estimate_forward(unitary, phase_bits)
    flip = np.kron(np.eye(n), mask_sign_diag(gap_mask))
    return est.conj().T @ flip @ est


def dense_amplification(unitary: np.ndarray, phase_bits: int,
                        gap_mask: np.ndarray) -> np.ndarray:
    """-(P (1 x |0..0><0..0| reflection) P^dag)(1 x window reflection)."""
    n = unitary.shape[0]
    m = 1 << phase_bits
    est = dense_estimate_forward(unitary, phase_bits)
    zero_sign = np.ones(m)
    zero_sign[0] = -1.0
    refl_zero = np.kron(np.eye(n), np.diag(zero_sign.astype(complex)))
    refl_win = np.kron(np.eye(n), mask_sign_diag(gap_mask))
    return -(est @ refl_zero @ est.conj().T) @ refl_win


def vote_majority_mask(vote_bits: int) -> np.ndarray:
    """Boolean mask of the vote values with strictly more ones than zeros;
    ties stay outside."""
    if vote_bits < 2 or vote_bits % 2:
        raise ValueError("majority voting needs an even vote count >= 2")
    values = np.arange(1 << vote_bits)
    ones = sum((values >> j) & 1 for j in range(vote_bits))
    return ones > vote_bits // 2


def dense_boosted_inversion(unitary: np.ndarray, phase_bits: int,
                            vote_bits: int, gap_mask: np.ndarray,
                            vote_mask: np.ndarray) -> np.ndarray:
    """The boosted inverter on main x phase x vote, vote register minor.

    The forward half is built row block by row block: a Hadamard on vote
    bit j mixes the rows with bit j = 0 and 1 as their sum and difference,
    and the amplification controlled on that bit multiplies each block of
    rows with bit j = 1 (one block per value of the other vote bits) by the
    dense amplification matrix.
    """
    n = unitary.shape[0]
    m = 1 << phase_bits
    v = 1 << vote_bits
    nm = n * m
    forward = np.kron(dense_estimate_forward(unitary, phase_bits), np.eye(v))
    amp = dense_amplification(unitary, phase_bits, gap_mask)

    def hadamard(rows):
        # rows[:, :, 0] and rows[:, :, 1] are the bit-0 and bit-1 halves
        x0, x1 = rows[:, :, 0].copy(), rows[:, :, 1].copy()
        rows[:, :, 0] = (x0 + x1) / np.sqrt(2.0)
        rows[:, :, 1] = (x0 - x1) / np.sqrt(2.0)

    for j in range(vote_bits):
        # single-qubit Hadamard on vote bit j (bit j has weight 2**j)
        high = 1 << (vote_bits - 1 - j)
        low = 1 << j
        rows = forward.reshape(nm, high, 2, low, nm * v)
        hadamard(rows)
        # amplification controlled on vote bit j being 1
        ones = rows[:, :, 1]
        ones[...] = (amp @ ones.reshape(nm, -1)).reshape(ones.shape)
        hadamard(rows)
    # the majority flip is diagonal: it scales the rows of the forward half
    flip = np.tile(np.where(vote_mask, -1.0, 1.0), nm)
    return forward.conj().T @ (flip[:, None] * forward)


def vote_coefficients(p: np.ndarray, norms: np.ndarray,
                      vote_sign: np.ndarray) -> np.ndarray:
    """The 2 nu kickbacks and the majority flip on (main, 2, vote) coefficients.

    Row 0 of ``p`` is the amplitude along u_in, row 1 along u_out.  In that
    basis phi = (r_in, r_out) and W phi = (-r_in, r_out), so each kickback
    is the register one restricted to the plane: with e the difference of
    the vote-bit-j halves, (I - A) / 2 e keeps e's off-window row and adds
    -/+ phi times (W phi . e) or (phi . e).
    """
    n, _, v = p.shape
    q = p.copy()
    r_in, r_out = norms[:, 0, None, None], norms[:, 1, None, None]

    def kick(j, sign):
        b = q.reshape(n, 2, v >> (j + 1), 2, 1 << j)
        x0, x1 = b[:, :, :, 0], b[:, :, :, 1]
        e = x0 - x1
        c = sign * r_in * e[:, 0] + r_out * e[:, 1]
        e[:, 0] = sign * r_in * c
        e[:, 1] -= r_out * c
        x0 -= e
        x1 += e

    nu = v.bit_length() - 1
    for j in range(nu):
        kick(j, -1.0)
    q *= vote_sign
    for j in reversed(range(nu)):
        kick(j, 1.0)
    return q


def lagrange_projector_weights(matrix: np.ndarray, phases: np.ndarray,
                               vec: np.ndarray) -> list[tuple[float, float]]:
    """<vec| P_j |vec> for each distinct eigenphase via matrix interpolation."""
    distinct = []
    for p in phases:
        if not any(abs(np.exp(1j * p) - np.exp(1j * q)) < 1e-9 for q in distinct):
            distinct.append(float(p))
    weights = []
    for p in distinct:
        proj = np.eye(matrix.shape[0], dtype=complex)
        for q in distinct:
            if q == p:
                continue
            proj = proj @ (matrix - np.exp(1j * q) * np.eye(matrix.shape[0]))
            proj /= np.exp(1j * p) - np.exp(1j * q)
        weights.append((p, float(np.real(vec.conj() @ proj @ vec))))
    return weights


def real_orthogonal(pair_phases, plus: int = 0, minus: int = 0, seed: int = 0) -> np.ndarray:
    """Q B Q^T for a seeded random orthogonal Q, with B a 2 x 2 rotation by
    each pair phase followed by ``plus`` ones and ``minus`` minus ones on
    the diagonal: a real orthogonal matrix with exactly that spectrum."""
    n = 2 * len(pair_phases) + plus + minus
    b = np.diag(np.r_[np.zeros(2 * len(pair_phases)), np.ones(plus), -np.ones(minus)])
    for k, lam in enumerate(pair_phases):
        c, s = np.cos(lam), np.sin(lam)
        b[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q @ b @ q.T


def symmetric_spec_columns(q: np.ndarray, pairs,
                           source_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenbasis, eigenphases) of a symmetric spec from the real orthonormal
    ``q``, one pair at a time: q's first column at the source, then each
    pair's (u +- iv)/sqrt(2) at +-p on the next two non-source slots, then
    the columns left over at pi."""
    n = q.shape[0]
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
    return basis, phases


def spectral_projectors(phases: np.ndarray, vectors: np.ndarray,
                        resolution: float = 1e-5) -> list[tuple[float, np.ndarray]]:
    """(phase, projector) for each run of eigenphases, taken in (-pi, pi]
    and sorted, that are closer than ``resolution`` around the circle; the
    phase is that of its first member.  Eigenvectors closer in phase than
    that are fixed only to about eps over their gap."""
    wrapped = np.pi - np.mod(np.pi - np.asarray(phases), 2.0 * np.pi)
    order = np.argsort(wrapped, kind="stable")
    wrapped, vectors = wrapped[order], vectors[:, order]
    runs = np.split(np.arange(wrapped.size), np.flatnonzero(np.diff(wrapped) > resolution) + 1)
    if len(runs) > 1 and wrapped[0] + 2.0 * np.pi - wrapped[-1] <= resolution:
        runs = runs[1:-1] + [np.concatenate([runs[-1], runs[0]])]
    return [(float(wrapped[run[0]]), vectors[:, run] @ vectors[:, run].conj().T)
            for run in runs]


def bisected_secular_pair(inst) -> tuple[float, float]:
    """The two secular roots next to 0, (positive, negative), by plain
    bisection on the sign of the cotangent sum with wrapped angles: each
    bracket runs from the pole at 0 to the next pole around the circle,
    and the root is its midpoint once it is at most
    ``TOL.secular_bisection`` wide."""
    weights = np.abs(inst.spec.eigenbasis[inst.target_index, :]) ** 2
    poles, weights = inst.spec.eigenphases[weights > 0.0], weights[weights > 0.0]

    def positive(lam):
        return np.sum(weights / np.tan(wrap_angle(lam - poles) / 2.0)) > 0.0

    def bisect(lo, hi):
        margin = max(TOL.pole_proximity * 10.0, (hi - lo) * 1e-9)
        a, b = lo + margin, hi - margin
        while b - a > TOL.secular_bisection:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if positive(mid) else (a, mid)
        return 0.5 * (a + b)

    above, below = poles[poles > 0.0], poles[poles < 0.0]
    hi = above.min() if above.size else poles.min() + 2.0 * np.pi
    lo = below.max() if below.size else poles.max() - 2.0 * np.pi
    return bisect(0.0, float(hi)), bisect(float(lo), 0.0)


def dense_eig_unitary(u: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a unitary in complex arithmetic, checked with
    the dense products ``V^dagger V`` and ``V diag(e^{i phases}) V^dagger``.

    ``eigh`` of the cosine part ``(U + U^dagger)/2`` (its real part when the
    imaginary part is at most machine epsilon), its runs of cosines closer
    than ``TOL.cosine_cluster`` split by a stacked ``eigh`` of the Hermitian
    part of ``e^{-i phi} U`` on each run (phi = pi/4 for cosines near 0,
    pi/2 otherwise) unless that split is a multiple of 1, and the phases
    taken from the Rayleigh quotients.
    """
    u = np.asarray(u)
    n = u.shape[0]
    cosine_part = 0.5 * (u + u.conj().T)
    if np.max(np.abs(cosine_part.imag)) <= np.finfo(float).eps:
        cosine_part = cosine_part.real
    cosines, vectors = np.linalg.eigh(cosine_part)
    u_vectors = u @ vectors
    rayleigh = np.sum(vectors.conj() * u_vectors, axis=0)
    vectors = vectors.astype(complex, copy=False)
    starts = np.flatnonzero(np.diff(cosines, prepend=-np.inf) > TOL.cosine_cluster)
    sizes = np.diff(starts, append=n)
    for size in sorted(set(sizes[sizes > 1].tolist())):
        cols = starts[sizes == size, None] + np.arange(size)
        basis = np.moveaxis(vectors[:, cols], 1, 0)
        block = np.swapaxes(basis.conj(), 1, 2) @ np.moveaxis(u_vectors[:, cols], 1, 0)
        turn = np.where(np.abs(cosines[cols].mean(axis=1)) < 0.5,
                        np.exp(-0.25j * np.pi), -1j)[:, None, None]
        split = turn * block
        split = 0.5 * (split + np.swapaxes(split.conj(), 1, 2))
        centre = np.trace(split, axis1=1, axis2=2).real / size
        off = np.linalg.norm(split - centre[:, None, None] * np.eye(size), axis=(1, 2))
        mixed = off > TOL.scalar_block
        cols, basis, block = cols[mixed], basis[mixed], block[mixed]
        _, q = np.linalg.eigh(split[mixed])
        rayleigh[cols] = np.sum(q.conj() * (block @ q), axis=1)
        vectors[:, cols] = np.moveaxis(basis @ q, 0, 1)
    if np.max(np.abs(np.abs(rayleigh) - 1.0)) > TOL.eigen_modulus:
        raise InternalInvariantError("dense_eig_unitary: eigenvalue moduli deviate from 1")
    phases = np.angle(rayleigh)
    order = np.argsort(phases, kind="stable")
    phases, vectors = phases[order], vectors[:, order]
    if np.max(np.abs(vectors.conj().T @ vectors - np.eye(n))) > TOL.eigen_orthonormality:
        raise InternalInvariantError("dense_eig_unitary: eigenvectors failed orthonormality")
    rebuilt = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    if np.max(np.abs(rebuilt - u)) > TOL.eigen_reconstruction:
        raise InternalInvariantError("dense_eig_unitary: reconstruction residual too large")
    return EigenDecomposition(phases=phases, vectors=vectors)
