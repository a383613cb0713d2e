"""Diffusion-spec construction, target moments, and serialization."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eigensearch as es
import instances
from eigensearch import numerics
import oracles


def test_grover_spec_assembles_the_rank_one_reflection():
    spec = es.build_grover_spec(8, 0)
    d = es.assemble_diffusion(spec)
    assert d.dtype == np.float64   # real up to roundoff, so kept real
    u = np.full(8, 1.0 / np.sqrt(8.0))
    assert np.linalg.norm(d - (2.0 * np.outer(u, u) - np.eye(8))) <= 1e-12
    assert spec.phase_gap == pytest.approx(np.pi)


def test_grover_target_overlap_is_inverse_root_dimension():
    inst = instances.grover_instance(64, 5)
    assert inst.overlap == 0.125
    assert inst.boost == 1.0
    # cot(pi/2) evaluates to ~6e-17, so the moments are zero only up to that
    assert abs(inst.first_moment) <= 1e-12
    assert abs(inst.second_moment) <= 1e-24


def test_moments_match_the_projector_oracle(ref12):
    spec = ref12.spec
    d = es.assemble_diffusion(spec)
    t = np.zeros(spec.n)
    t[ref12.target_index] = 1.0
    weights = oracles.lagrange_projector_weights(d, spec.eigenphases, t)
    for p in (1, 2):
        expected = sum(w / np.tan(ph / 2.0) ** p if p == 1
                       else w * (1.0 / np.tan(ph / 2.0)) ** p
                       for ph, w in weights if abs(ph) > 1e-9)
        assert es.moments(spec, ref12.target_index, p) == \
            pytest.approx(expected, abs=1e-8)


def test_instance_moments_are_consistent(ref12):
    assert abs(ref12.first_moment) <= 1e-10
    assert ref12.boost == pytest.approx(
        np.sqrt(1.0 + ref12.second_moment), rel=1e-12)
    assert ref12.overlap == pytest.approx(instances.REF12_ALPHA, rel=1e-12)
    assert ref12.boost == pytest.approx(instances.REF12_BOOST, rel=1e-12)


def test_symmetric_builder_is_deterministic_per_seed():
    a = es.build_symmetric_spec(12, [0.5, 0.9], 3, 0)
    b = es.build_symmetric_spec(12, [0.5, 0.9], 3, 0)
    c = es.build_symmetric_spec(12, [0.5, 0.9], 4, 0)
    assert np.array_equal(a.eigenbasis, b.eigenbasis)
    assert not np.array_equal(a.eigenbasis, c.eigenbasis)


def test_symmetric_builder_shares_basis_across_pair_families():
    # the overlap depends only on (n, seed, target); the pair phases only
    # move the moments
    lo = instances.symmetric_instance(
        instances.DOUBLE_N, instances.DOUBLE_PAIRS_LO, instances.DOUBLE_SEED,
        instances.DOUBLE_TARGET, instances.DOUBLE_GAP)
    hi = instances.symmetric_instance(
        instances.DOUBLE_N, instances.DOUBLE_PAIRS_HI, instances.DOUBLE_SEED,
        instances.DOUBLE_TARGET, instances.DOUBLE_GAP)
    assert lo.overlap == hi.overlap
    assert hi.boost > 1.9 * lo.boost


def test_symmetric_builder_rejects_bad_arguments():
    with pytest.raises(ValueError):
        es.build_symmetric_spec(4, [0.5, 0.9], 0)
    with pytest.raises(ValueError):
        es.build_symmetric_spec(12, [0.0], 0)
    with pytest.raises(ValueError):
        es.build_symmetric_spec(12, [np.pi], 0)
    with pytest.raises(ValueError):
        es.build_symmetric_spec(12, [3.2], 0)
    with pytest.raises(ValueError):
        es.build_symmetric_spec(12, [0.5, 0.9], 0, 0, 0.6)


def test_leftover_dimensions_sit_at_phase_pi():
    spec = es.build_symmetric_spec(12, [0.5, 0.9], 3, 0)
    phases = np.sort(spec.eigenphases)
    counts = {round(p, 9) for p in phases}
    assert 0.0 in counts
    assert round(np.pi, 9) in counts
    # one source at 0, two pairs, the remaining 7 at pi
    assert int(np.sum(np.isclose(np.abs(spec.eigenphases), np.pi))) == 7


def test_diffusion_matrix_is_unitary_with_declared_spectrum(ref12):
    d = es.assemble_diffusion(ref12.spec)
    assert d.dtype == np.float64   # conjugate pairs on a real basis
    assert np.linalg.norm(d.conj().T @ d - np.eye(ref12.spec.n)) <= 1e-10
    eigs = np.sort(np.angle(np.linalg.eigvals(d)))
    declared = np.sort(oracles.wrap_angle(ref12.spec.eigenphases))
    assert_allclose(eigs, declared, atol=1e-8)


def test_find_targets_sorts_by_overlap_and_applies_the_default_ceiling():
    spec = es.build_symmetric_spec(24, list(instances.PINNED_PAIRS), 0, 0)
    hits = es.find_targets(spec)
    assert hits
    overlaps = np.abs(spec.eigenbasis[:, spec.source_index])
    values = [overlaps[t] for t in hits]
    assert values == sorted(values)
    assert max(values) <= spec.phase_gap / 20.0
    wide = es.find_targets(spec, overlap_max=0.5)
    assert set(hits) <= set(wide)
    assert len(wide) > len(hits)
    banded = es.find_targets(spec, overlap_max=0.5, overlap_min=0.2)
    assert all(0.2 <= overlaps[t] <= 0.5 for t in banded)


def test_spec_json_round_trip_is_bit_exact(ref12):
    spec = ref12.spec
    doc = json.loads(json.dumps(es.spec_to_json(spec, ref12.target_index)))
    assert (doc["N"], doc["s"], doc["t"], doc["seed"]) == (
        spec.n, spec.source_index, ref12.target_index, spec.seed)
    assert doc["theta_min"] == spec.phase_gap
    assert np.array_equal(doc["eigenphases"], spec.eigenphases)
    basis = np.array([complex(re, im) for re, im in doc["eigenbasis"]])
    assert np.array_equal(basis.reshape(spec.n, spec.n), spec.eigenbasis)


def test_an_instance_keeps_the_callers_spec_and_a_gauged_source(call_counter):
    spec = es.build_symmetric_spec(instances.REF12_N, instances.REF12_PAIRS,
                                   instances.REF12_SEED, 0, instances.REF12_GAP)
    column = spec.eigenbasis[:, spec.source_index].copy()
    checks = call_counter(numerics, "is_unitary")
    built = [es.SearchInstance.build(spec, t) for t in range(1, spec.n)]
    assert checks == [0]
    # some targets see a negative source amplitude, so the gauge turns
    assert np.any(column[1:].real < 0.0)
    for inst in built:
        t = inst.target_index
        assert inst.spec is spec
        assert inst.source[t].imag == 0.0
        assert inst.source[t].real == inst.overlap
        assert abs(np.vdot(column, inst.source)) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            inst.source[t] = 0.0
    assert np.array_equal(spec.eigenbasis[:, spec.source_index], column)


def test_instance_id_encodes_the_construction(ref12, grover64):
    assert ref12.instance_id == "sym-n12-seed68-t4"
    assert grover64.instance_id == "grover-n64-seedna-t5"
