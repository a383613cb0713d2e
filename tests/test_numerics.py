"""Unit checks for the shared numeric helpers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigensearch.numerics import (
    TOL,
    eig_unitary,
    inside_gap,
    make_rng,
    phase_distance,
    round_half_away,
    split_seed,
    wrap_angle,
)
from oracles import unitary_power


def qr_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def test_round_half_away_pushes_halves_outward():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.49) == 0
    assert round_half_away(-1.2) == -1
    assert round_half_away(7.0) == 7


def test_wrap_angle_returns_equivalent_angle_in_principal_interval():
    xs = np.linspace(-9.0, 9.0, 181)
    w = wrap_angle(xs)
    assert np.all(w > -np.pi - 1e-12)
    assert np.all(w <= np.pi + 1e-12)
    turns = (xs - w) / (2.0 * np.pi)
    assert_allclose(turns, np.round(turns), atol=1e-9)
    assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
    assert wrap_angle(0.3 + 2.0 * np.pi) == pytest.approx(0.3, abs=1e-12)


def test_phase_distance_is_a_circle_metric():
    assert phase_distance(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)
    assert phase_distance(0.1, 0.1 + 2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert phase_distance(-3.0, 3.0) == pytest.approx(2.0 * np.pi - 6.0, abs=1e-12)
    assert phase_distance(1.0, 2.0) == phase_distance(2.0, 1.0)
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-10, 10, size=(2, 50))
    d = np.array([phase_distance(x, y) for x, y in zip(a, b)])
    assert np.all(d >= 0.0)
    assert np.all(d <= np.pi + 1e-12)


def test_make_rng_streams_are_reproducible():
    a = make_rng(7).random(5)
    b = make_rng(7).random(5)
    c = make_rng(8).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert isinstance(make_rng(0), np.random.Generator)


def test_split_seed_children_are_stable_and_distinct():
    assert split_seed(11, 3) == split_seed(11, 3)
    kids = [split_seed(11, i) for i in range(50)]
    assert len(set(kids)) == 50
    assert split_seed(12, 3) != split_seed(11, 3)
    assert all(isinstance(k, int) for k in kids)


def test_eig_unitary_identity_and_reflection():
    dec = eig_unitary(np.eye(4, dtype=complex))
    assert_allclose(dec.phases, 0.0, atol=1e-12)
    assert_allclose(dec.vectors.conj().T @ dec.vectors, np.eye(4), atol=1e-12)

    dec = eig_unitary(np.diag([1.0, -1.0]).astype(complex))
    dists = sorted(phase_distance(p, t) for p, t in
                   zip(sorted(np.abs(dec.phases)), [0.0, np.pi]))
    assert max(dists) < 1e-12


def test_eig_unitary_reconstructs_a_random_unitary():
    u = qr_unitary(16, 2)
    dec = eig_unitary(u)
    rebuilt = (dec.vectors * np.exp(1j * dec.phases)) @ dec.vectors.conj().T
    assert np.linalg.norm(rebuilt - u) <= TOL.eigen_reconstruction
    assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(16)) \
        <= TOL.eigen_orthonormality
    reference = np.sort(np.angle(np.linalg.eigvals(u)))
    mine = np.sort(wrap_angle(dec.phases))
    assert np.all([phase_distance(a, b) < 1e-8
                   for a, b in zip(reference, mine)])


def test_eig_unitary_handles_degenerate_clusters():
    v = qr_unitary(8, 5)
    phases = np.array([0.3, 0.3, 0.3, -1.2, -1.2, 2.0, 2.0, 2.0])
    u = (v * np.exp(1j * phases)) @ v.conj().T
    dec = eig_unitary(u)
    rebuilt = (dec.vectors * np.exp(1j * dec.phases)) @ dec.vectors.conj().T
    assert np.linalg.norm(rebuilt - u) <= TOL.eigen_reconstruction
    assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(8)) \
        <= TOL.eigen_orthonormality
    assert_allclose(np.sort(dec.phases), np.sort(phases), atol=1e-7)


def test_eig_unitary_rejects_nonunitary_input():
    with pytest.raises(ValueError):
        eig_unitary(np.ones((2, 2), dtype=complex))


def test_unitary_power_matches_repeated_multiplication():
    u = qr_unitary(8, 3)
    direct = np.eye(8, dtype=complex)
    for _ in range(13):
        direct = u @ direct
    assert np.linalg.norm(unitary_power(u, 13) - direct) <= 1e-9
    assert np.array_equal(unitary_power(u, 0), np.eye(8, dtype=complex))
    with pytest.raises(ValueError):
        unitary_power(u, -3)


def test_inside_gap_counts_phases_on_the_edge_as_outside():
    phases = [0.0, -0.3, 0.5 - 1e-9, 0.5 - 1e-13, 0.5, -0.5 + 4e-16, 0.7]
    assert inside_gap(phases, 0.5).tolist() == [True, True, True, False, False,
                                                False, False]
    assert not inside_gap(np.pi - 4.4e-16, np.pi)
