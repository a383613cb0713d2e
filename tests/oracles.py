"""Independent dense-matrix constructions used to check the fast kernels.

Everything here is built the slow, obvious way: explicit DFT matrices,
Hadamard krons, sum-over-controls block matrices, and Lagrange projectors.
Nothing imports the fast paths it is checking beyond shared data types.
"""

import numpy as np

from eigensearch.phase_estimation import SubspaceMask


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


def dense_dft(m: int) -> np.ndarray:
    """Forward transform with F[j, k] = exp(2*pi*i*j*k/m) / sqrt(m)."""
    j = np.arange(m)
    return np.exp(2j * np.pi * np.outer(j, j) / m) / np.sqrt(m)


def dense_walsh(bits: int) -> np.ndarray:
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


def mask_sign_diag(mask: SubspaceMask) -> np.ndarray:
    return np.diag(mask.sign_vector().astype(complex))


def dense_basic_inversion(unitary: np.ndarray, phase_bits: int,
                          gap_mask: SubspaceMask) -> np.ndarray:
    """The basic selective inverter as one dense matrix on main x phase."""
    n = unitary.shape[0]
    est = dense_estimate_forward(unitary, phase_bits)
    flip = np.kron(np.eye(n), mask_sign_diag(gap_mask))
    return est.conj().T @ flip @ est


def dense_amplification(unitary: np.ndarray, phase_bits: int,
                        gap_mask: SubspaceMask) -> np.ndarray:
    """-(P (1 x |0..0><0..0| reflection) P^dag)(1 x window reflection)."""
    n = unitary.shape[0]
    m = 1 << phase_bits
    est = dense_estimate_forward(unitary, phase_bits)
    zero_sign = np.ones(m)
    zero_sign[0] = -1.0
    refl_zero = np.kron(np.eye(n), np.diag(zero_sign.astype(complex)))
    refl_win = np.kron(np.eye(n), mask_sign_diag(gap_mask))
    return -(est @ refl_zero @ est.conj().T) @ refl_win


def dense_boosted_inversion(unitary: np.ndarray, phase_bits: int,
                            vote_bits: int, gap_mask: SubspaceMask,
                            vote_mask: SubspaceMask) -> np.ndarray:
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
    flip = np.tile(vote_mask.sign_vector(), nm)
    return forward.conj().T @ (flip[:, None] * forward)


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
