"""Property checks of the eigendecomposition and the eigenframe inverter
on small random instances.

``eig_unitary`` splits blocks of eigenphases that share a cosine, and the
inverter runs in the eigenframe it returns, so inside a degenerate cluster
both depend on an arbitrary choice of basis.  These checks draw small
layouts and unitaries: some real orthogonal, some with planted clusters (one
straddling the branch cut at +-pi), conjugate pairs, pairs whose cosines
differ by just under or just over the cosine-cluster threshold, pairs
straddling pi/2, and some with eigenphases exactly on register grid points,
where the in-window or the off-window part of an estimate profile vanishes.
They compare the operator against the dense oracles built from powers of the
unitary itself, its query charges against the ledger's closed forms, and the
search operator's gap eigenphases against the secular roots.  The dense
boosted oracle commutes with every swap of two vote bits, so it keeps the
span of the Dicke states that every state is held in, and the operator is
compared with it on that span.

Every state the program can make is held to one contract,
``frames.check_state``: its norm, readouts, target flip and apply against
the dense references, whatever form it is held in.
``frames.reachable_states`` makes the states through public calls: an
embedding, its apply, a random Dicke slab draw, their flips and
reflections, and three amplification rounds.  The frame operations are
checked against plain arrays of computational amplitudes through the dense
frame change V^dagger (x) H (x) 1, and the frame amplification of
``run_full`` against rounds run on such an array.
"""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import eigensearch as es
import frames
import instances
import oracles
from eigensearch import phase_estimation, pipeline, selective_inversion, spectra
from eigensearch.phase_estimation import gap_window_mask
from eigensearch.pipeline import target_flip
from eigensearch.search_core import search_operator, secular_pair
from eigensearch.selective_inversion import measure_epsilon
from eigensearch.spectra import diffusion_operator

# each test pins its example set with @seed, which takes precedence over
# derandomize's seed, a hash of the test's source; so editing a test's
# body keeps the examples it draws
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def unitaries(draw, n=None, window=None, planting=None):
    """A random unitary: real orthogonal (cast to complex), or with
    eigenphases free, in a cluster, split across the branch cut, in a
    conjugate pair, in a pair whose cosines differ by a hair under or over
    the cosine-cluster threshold, or in a pair straddling pi/2; given a gap
    window, also with one eigenphase on a register grid point inside it and
    one on a grid point outside it.  ``planting`` fixes the kind."""
    if n is None:
        n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, n)
    plantings = ("none", "cluster", "branch_cut", "conjugate", "cosine_threshold",
                 "quarter_turn", "real") + (("grid",) if window is not None else ())
    if planting is None:
        planting = draw(st.sampled_from(plantings))
    if planting == "real":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q.astype(complex)
    if n >= 2 and planting == "conjugate":
        phases[1] = -phases[0]
    elif n >= 2 and planting == "cosine_threshold":
        # move the cosine towards 0 by 0.99 or 1.01 thresholds, on either
        # side of the real axis
        step = draw(st.sampled_from((0.99, 1.01))) * es.TOL.cosine_cluster
        cosine = np.cos(phases[0]) - np.copysign(step, np.cos(phases[0]))
        phases[1] = draw(st.sampled_from((1.0, -1.0))) * np.arccos(cosine)
    elif n >= 2 and planting == "quarter_turn":
        # equal sines around +pi/2 and -pi/2, so the sine part alone cannot
        # split a block that holds more than one of them
        half = draw(st.sampled_from((1e-9, 1e-7, 1e-5)))
        phases[:] = (np.pi / 2 * np.array([1, 1, -1, -1])
                     + half * np.array([-1, 1, 1, -1]))[:n]
    elif n >= 2 and planting == "cluster":
        phases[1] = phases[0] + draw(st.sampled_from((0.0, 1e-13, 1e-10)))
    elif n >= 2 and planting == "branch_cut":
        phases[0] = np.pi - 1e-13
        phases[1] = -np.pi + draw(st.sampled_from((0.0, 1e-13)))
    elif planting == "grid":
        grid = [draw(st.sampled_from(np.flatnonzero(window).tolist())),
                draw(st.sampled_from(np.flatnonzero(~window).tolist()))]
        planted = oracles.wrap_angle(2.0 * np.pi * np.array(grid) / window.size)
        phases[:2] = planted[:n]
    basis = instances.haar_unitary(n, seed + 1)
    return (basis * np.exp(1j * phases)) @ basis.conj().T


@st.composite
def operators(draw, votes=(0, 2, 4)):
    n = draw(st.integers(1, 4))
    nu = draw(st.sampled_from(votes))
    # registers of at most 512 amplitudes keep the dense oracles quick
    mu = draw(st.integers(2, min(5, (512 // (n << nu)).bit_length() - 1)))
    gap = draw(st.floats(0.2, 3.0))
    kind = "basic" if nu == 0 else "boosted"
    try:
        scheme = es.InversionScheme(kind, mu, nu, gap)
        window = gap_window_mask(mu, gap, scheme.guard_fraction)
    except es.GapGuessTooCoarse:
        assume(False)
    u = draw(unitaries(n, window))
    return u, es.InversionOperator.build(scheme, u)


@SETTINGS
@seed(1)
@given(operators())
def test_eigenframe_inverter_is_a_unitary_involution(case):
    _, op = case
    r = frames.inverter_matrix(op)
    eye = np.eye(r.shape[0])
    assert np.max(np.abs(r.conj().T @ r - eye)) <= 1e-9
    assert np.max(np.abs(r @ r - eye)) <= 1e-9


@SETTINGS
@seed(2)
@given(operators())
def test_eigenframe_inverter_matches_the_dense_oracle(case):
    u, op = case
    want = frames.on_dicke_span(frames.dense_oracle(u, op), op.layout)
    assert np.max(np.abs(frames.inverter_matrix(op) - want)) <= 1e-9


def assert_commutes_with_vote_swaps(r, layout):
    """``r``, a dense operator on (main, phase, vote) amplitudes, is
    unchanged by every swap of two vote bits S, S r S = r within 1e-12:
    with one axis per vote bit, S swaps two axes of the rows and the same
    two of the columns."""
    nu, rows = layout.vote_bits, layout.main_dim * layout.phase_dim
    r = r.reshape((rows,) + (2,) * nu + (rows,) + (2,) * nu)
    for i in range(1, nu + 1):
        for j in range(i + 1, nu + 1):
            swapped = r.swapaxes(i, j).swapaxes(nu + 1 + i, nu + 1 + j)
            assert np.max(np.abs(swapped - r)) <= 1e-12


def test_the_boosted_oracle_commutes_with_vote_swaps_at_criterion_10(criterion10_boosted):
    # criterion-10 compares the boosted inverter with this oracle on the
    # Dicke span alone; a span kept by the oracle leaves out no state
    _, op, oracle = criterion10_boosted
    assert_commutes_with_vote_swaps(oracle, op.layout)


@SETTINGS
@seed(3)
@given(operators(votes=(2, 4)))
def test_the_boosted_oracle_commutes_with_vote_swaps(case):
    u, op = case
    assert_commutes_with_vote_swaps(frames.dense_oracle(u, op), op.layout)


@SETTINGS
@seed(4)
@given(unitaries())
def test_eig_unitary_handles_planted_clusters(u):
    dec = es.eig_unitary(u)
    v = dec.vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(u.shape[0]))) <= 1e-10
    assert np.max(np.abs((v * np.exp(1j * dec.phases)) @ v.conj().T - u)) <= 1e-9
    assert_matches_dense_solver(dec, u)


def assert_matches_dense_solver(dec, u):
    """The phases and spectral projectors of ``dec`` are those of the dense
    complex solver on ``u``, within 1e-12 and 1e-10."""
    ref = oracles.dense_eig_unitary(u.astype(complex))
    mine = oracles.spectral_projectors(dec.phases, dec.vectors)
    theirs = oracles.spectral_projectors(ref.phases, ref.vectors)
    assert len(mine) == len(theirs)
    for (p, a), (q, b) in zip(mine, theirs):
        assert oracles.phase_distance(p, q) <= 1e-12
        assert np.max(np.abs(a - b)) <= 1e-10


def test_eig_unitary_splits_one_wide_cluster():
    # every eigenphase within 1e-3 of 0.7: one mixed block of all 64
    # columns (test_numerics' REAL_OPERATORS["one_cluster"] is its real twin)
    basis = instances.haar_unitary(64, 6)
    u = (basis * np.exp(1j * np.linspace(0.7, 0.7 + 1e-3, 64))) @ basis.conj().T
    assert_matches_dense_solver(es.eig_unitary(u), u)


@st.composite
def real_orthogonals(draw):
    """A real orthogonal matrix: drawn at random, a Grover operator, or
    built with two pairs whose cosines coincide or nearly do, a pair next
    to pi beside a -1 eigenspace, a pair on either side of pi/2, a lone
    pair, or up to six pairs at random phases; each built one with 0 to 3
    eigenvalues +1 and -1 besides."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    planting = draw(st.sampled_from(("random", "grover", "cosine_cluster", "near_pi",
                                     "quarter_turn", "lone_pair", "pairs")))
    if planting == "random":
        n = draw(st.integers(1, 8))
        return np.linalg.qr(rng.normal(size=(n, n)))[0]
    if planting == "grover":
        n = draw(st.integers(4, 32))
        return es.build_search_operator(es.SearchInstance.build(
            es.build_grover_spec(n), draw(st.integers(1, n - 1))))
    lam = rng.uniform(0.1, 3.0)
    plus, minus = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if planting == "cosine_cluster":
        pairs = [lam, lam + draw(st.sampled_from((0.0, 1e-9, 1e-6, 3e-5)))]
    elif planting == "near_pi":
        pairs, minus = [np.pi - draw(st.sampled_from((1e-3, 1e-5, 1e-8)))], minus + 1
    elif planting == "quarter_turn":
        half = draw(st.sampled_from((1e-9, 1e-7, 1e-5)))
        pairs = [np.pi / 2 - half, np.pi / 2 + half]
    elif planting == "pairs":
        pairs = rng.uniform(0.0, np.pi, draw(st.integers(2, 6)))
    else:
        pairs = [lam]
    return oracles.real_orthogonal(pairs, plus, minus, seed)


@SETTINGS
@seed(5)
@given(real_orthogonals())
def test_eig_unitary_solves_a_real_unitary_in_real_arithmetic(u):
    # one construction: real arithmetic for the float array, complex for
    # its complex cast, and both agree with the dense complex solver
    real, cast = es.eig_unitary(u), es.eig_unitary(u.astype(complex))
    assert not np.iscomplexobj(u)
    assert np.max(np.abs(np.sort(oracles.wrap_angle(real.phases))
                         - np.sort(oracles.wrap_angle(cast.phases)))) <= 1e-12
    for dec in (real, cast):
        v = dec.vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(u.shape[0]))) <= 1e-10
        assert np.max(np.abs((v * np.exp(1j * dec.phases)) @ v.conj().T - u)) <= 1e-9
        assert_matches_dense_solver(dec, u)
    # the pairs of the real path are exact conjugates at exactly +-lambda
    phases, v = real.phases, real.vectors
    for lam in phases[(phases > 0.0) & (phases < np.pi)]:
        assert np.array_equal(v[:, phases == -lam], v[:, phases == lam].conj())


@SETTINGS
@seed(6)
@given(st.integers(3, 10), st.integers(0, 2**32 - 1))
def test_a_complex_basis_keeps_a_complex_diffusion_and_finds_its_pair(n, seed):
    # poles at +-gap and beyond on a Haar basis, so the secular roots next to
    # the source's 0 lie inside the gap; the first moment does not vanish,
    # so the moment budget is switched off in the tolerance record
    rng = np.random.default_rng(seed)
    gap = rng.uniform(0.4, 1.0)
    phases = rng.uniform(gap, np.pi, n) * rng.choice((-1.0, 1.0), n)
    phases[:3] = 0.0, gap, -gap
    spec = es.DiffusionSpec(n=n, source_index=0, eigenphases=phases,
                            eigenbasis=instances.haar_unitary(n, seed), phase_gap=gap)
    d = diffusion_operator(spec)
    assert np.max(np.abs(d.imag)) > np.finfo(float).eps
    target = int(rng.integers(1, n))
    with mock.patch.object(spectra, "TOL", dataclasses.replace(es.TOL, lambda1_budget=np.inf)):
        inst = es.SearchInstance.build(spec, target)
    assert np.iscomplexobj(search_operator(inst))
    assert inst.source[target] == inst.overlap
    pair = es.find_relevant_pair(inst)   # raises unless bisection agrees
    assert pair.phase_minus < 0.0 < pair.phase_plus


@SETTINGS
@seed(7)
@given(operators(), st.integers(1, 3))
def test_apply_charges_the_ledger_closed_forms(case, applications):
    _, op = case
    ledger = es.QueryLedger()
    sv = es.embed_mainspace(op.layout, np.eye(op.layout.main_dim)[0], frame=op.frame)
    for _ in range(applications):
        sv = op.apply(sv, ledger)
    assert ledger.as_dict() == {name: applications * count
                                for name, count in frames.apply_charges(op).items()}


@SETTINGS
@seed(17)
@given(st.integers(2, 40), st.sampled_from(("first", "middle", "last")), st.data())
def test_the_symmetric_spec_lays_out_its_columns_as_the_pair_loop(n, where, data):
    # any number of pairs from none to the most that fit, so 0, 1 or more
    # columns are left over at pi; bit for bit, signed zeros included, and
    # in C order, which the products downstream read as the loop's basis
    source = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    pairs = data.draw(st.lists(st.floats(0.01, 3.13), max_size=(n - 1) // 2))
    spec_seed = data.draw(st.integers(0, 2**32 - 1))
    spec = es.build_symmetric_spec(n, pairs, spec_seed, source)
    basis, phases = oracles.symmetric_spec_columns(
        spectra._random_real_orthonormal(n, spec_seed), pairs, source)
    assert np.array_equal(spec.eigenbasis, basis)
    assert np.array_equal(spec.eigenphases, phases)
    assert spec.eigenbasis.tobytes() == basis.tobytes()
    assert spec.eigenphases.tobytes() == phases.tobytes()
    assert spec.eigenbasis.flags.c_contiguous


@st.composite
def symmetric_instances(draw):
    """A small symmetric spec, possibly with a repeated pair phase, and a
    target other than the source."""
    n = draw(st.integers(3, 16))
    pairs = draw(st.lists(st.floats(0.3, 3.0), min_size=1, max_size=(n - 1) // 2))
    if len(pairs) < (n - 1) // 2 and draw(st.booleans()):
        pairs.append(pairs[0])
    spec = es.build_symmetric_spec(n, pairs, draw(st.integers(0, 2**32 - 1)))
    target = draw(st.integers(1, n - 1))
    return es.SearchInstance.build(spec, target)


@SETTINGS
@seed(8)
@given(symmetric_instances())
def test_secular_roots_match_the_diagonalization(inst):
    # the source pole sits at 0 and every other pole carries target weight,
    # so the eigenphases nearest 0 on either side are the two secular roots
    phases = es.eig_unitary(es.build_search_operator(inst), es.TOL.system_unitarity).phases
    root_plus, root_minus = secular_pair(inst)
    assert abs(phases[phases > 0].min() - root_plus) <= es.TOL.secular_agreement
    assert abs(phases[phases < 0].max() - root_minus) <= es.TOL.secular_agreement


@st.composite
def grover_instances(draw):
    n = draw(st.integers(4, 64))
    return es.SearchInstance.build(es.build_grover_spec(n), draw(st.integers(1, n - 1)))


@SETTINGS
@seed(9)
@given(st.one_of(symmetric_instances(), grover_instances()))
def test_secular_roots_match_plain_bisection(inst):
    # safeguarded Newton against the bisection it replaced, on the same
    # brackets: each stops within TOL.secular_bisection of the root
    for got, want in zip(secular_pair(inst), oracles.bisected_secular_pair(inst)):
        assert abs(got - want) <= 2.0 * es.TOL.secular_bisection


@SETTINGS
@seed(10)
@given(operators(), st.integers(0, 2**32 - 1))
def test_frame_operations_match_the_computational_ones(case, seed):
    # every frame operation against its computational counterpart, a numpy
    # expression on the plain array, taken through the dense frame change
    u, op = case
    dec = es.eig_unitary(u, es.TOL.system_unitarity)
    op = es.InversionOperator.build(op.scheme, u, decomposition=dec)
    lay = op.layout
    change = frames.dense_frame_change(dec, lay)
    rng = np.random.default_rng(seed)
    shape = (lay.main_dim, lay.phase_dim, lay.vote_bits + 1)
    coefs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    comp = coefs @ frames.dicke_isometry(lay.vote_bits).T / np.linalg.norm(coefs)
    framed = frames.framed(comp, dec, lay)

    out = op.apply(framed)
    assert out.frame is dec
    assert np.max(np.abs(out.amps - change @ frames.dense_oracle(u, op) @ comp.reshape(-1))) \
        <= 1e-12
    n = lay.main_dim
    target = int(rng.integers(n))
    flipped = target_flip(framed, target)
    assert flipped.frame is dec
    want = comp.copy()
    want[target] *= -1
    assert np.max(np.abs(flipped.amps - change @ want.reshape(-1))) <= 1e-12
    marginal = np.sum(np.abs(comp) ** 2, axis=(1, 2))
    branch, got = framed.readouts()
    assert np.max(np.abs(got - marginal)) <= 1e-12
    assert np.max(np.abs(branch - comp[:, 0, 0])) <= 1e-12
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec /= np.linalg.norm(vec)
    plain = np.zeros(frames.oracle_shape(lay), dtype=complex)
    plain[:, 0, 0] = vec
    embedded = es.embed_mainspace(lay, vec, dec)
    assert np.max(np.abs(embedded.amps - change @ plain.reshape(-1))) <= 1e-12
    # the amplitudes an embedding writes: V^dagger vec times the flat Walsh
    # row, on vote value 0
    plain[:, :, 0] = (dec.vectors.conj().T @ vec)[:, None] / np.sqrt(lay.phase_dim)
    assert np.max(np.abs(embedded.amps - plain.reshape(-1))) <= 1e-15


@SETTINGS
@seed(11)
@given(operators(), st.integers(0, 2**32 - 1))
def test_every_reachable_state_keeps_the_state_contract(case, seed):
    # each state against the dense references, whatever form it is held
    # in; applied by its own operator and by one in the same frame whose
    # gap window is narrower, and so whose vote plane is another
    _, op = case
    narrower = es.InversionOperator.build(
        dataclasses.replace(op.scheme, phase_gap=0.9 * op.scheme.phase_gap), op.unitary,
        decomposition=op.frame)
    ops = [(o, frames.frame_oracle(o)) for o in (op, narrower)]
    for state in frames.reachable_states(op, seed).values():
        frames.check_state(state, ops, seed % op.layout.main_dim)


@pytest.mark.parametrize("n, mu, nu", [(3, 5, 0), (3, 5, 2), (4, 4, 4)])
def test_a_product_state_apply_estimates_at_most_three_vote_columns(
        call_counter, n, mu, nu):
    # a basic apply estimates and unestimates one column per eigenvector.
    # A boosted one transforms nothing: its output lies in the vote plane,
    # whose two columns the operator unestimates once, on first use (one
    # estimated and three unestimated columns when the apply made the
    # plane's columns itself), whatever the vote register; a column is
    # main x phase amplitudes
    columns = {}
    for name in ("raw_estimate_forward", "raw_estimate_inverse"):
        seen = columns[name] = []
        call_counter(phase_estimation, name,
                     lambda a, *args, seen=seen, **kwargs: seen.append(a.size))
    u = instances.haar_unitary(n, 17 + nu)
    op = es.InversionOperator.build(
        es.InversionScheme("basic" if nu == 0 else "boosted", mu, nu, 1.0), u)
    product = es.embed_mainspace(op.layout, np.eye(n)[0], op.frame)

    def counted():
        return {name: sum(seen) // (n << mu) for name, seen in columns.items()}

    out = op.apply(product)
    assert counted() == {"raw_estimate_forward": 1 if nu == 0 else 0,
                         "raw_estimate_inverse": 1 if nu == 0 else 2}
    # a slab state is transformed on its nu + 1 Dicke columns each way
    op.apply(target_flip(out, 0))
    op.apply(frames.slab_twin(product))
    assert counted() == {"raw_estimate_forward": (1 if nu == 0 else 0) + 2 * (nu + 1),
                         "raw_estimate_inverse": (1 if nu == 0 else 2) + 2 * (nu + 1)}


@SETTINGS
@seed(12)
@given(operators())
def test_an_operator_keeps_the_window_split_of_its_eigenphases(case):
    # both schemes keep the norms (|in|, |out|) of every eigenvector's
    # estimate profile at the gap window: the ones a bare prediction
    # computes, the masses of the brute-force profile, and together the
    # profile's unit norm
    _, op = case
    mu, phases = op.scheme.phase_bits, op.frame.phases
    kept = op._window_split()[1] ** 2
    bare = phase_estimation.window_split(mu, phases, op.gap_window) ** 2
    assert np.array_equal(kept, bare)
    assert np.max(np.abs(kept.sum(axis=1) - 1.0)) <= 1e-15
    for k, lam in enumerate(phases):
        profile = np.abs(oracles.brute_estimate_amplitudes(mu, float(lam))) ** 2
        assert abs(kept[k, 0] - math.fsum(profile[op.gap_window])) <= 1e-15
        assert abs(kept[k, 1] - math.fsum(profile[~op.gap_window])) <= 1e-15


@SETTINGS
@seed(13)
@given(operators(votes=(2, 4)))
def test_a_boosted_operator_keeps_its_window_parts_unestimated(case):
    # the vote plane of eigenvector k is E_k^dagger applied to the unit
    # parts u_in and u_out of its profile; E_k is unitary and the parts
    # have disjoint supports, so its two columns are orthonormal, but for a
    # part of norm exactly 0, which stays a zero column
    _, op = case
    n, _, m = op.layout.shape
    phases = op.frame.phases
    plane, norms = op._window_split()
    parts = np.empty((n, 2, m), dtype=complex)
    phase_estimation.window_split(op.scheme.phase_bits, phases, op.gap_window, out=parts)
    powers = phase_estimation.power_table(phases, m)
    want = phase_estimation.raw_estimate_inverse(parts, powers)
    assert np.max(np.abs(plane - want)) <= 1e-15
    gram = plane.conj() @ plane.transpose(0, 2, 1)
    assert np.max(np.abs(gram - np.eye(2) * (norms > 0.0)[:, None, :])) <= 1e-13


@SETTINGS
@seed(14)
@given(operators())
def test_slab_wise_epsilons_match_the_register_norms(case):
    # measure_epsilon sums the error one slab at a time and writes no
    # register; the full-register difference of the same apply, summed
    # with fsum so that the reference is rounded once, agrees
    _, op = case
    dec = op.frame
    invert = np.arange(op.layout.main_dim) % 2 == 0
    report = measure_epsilon(op, dec.phases, dec.vectors, invert)
    for k in range(op.layout.main_dim):
        sv = es.embed_mainspace(op.layout, dec.vectors[:, k], dec)
        sign = -1.0 if invert[k] else 1.0
        diff = op.apply(sv).amps - sign * sv.amps
        want = math.sqrt(math.fsum(np.concatenate([diff.real ** 2, diff.imag ** 2])))
        assert abs(report.measured[k] - want) <= 1e-15


@st.composite
def vote_stages(draw):
    """A boosted operator with 2 to 8 votes, whose register is never
    built, and a seed for the plane projections run through its stage."""
    n = draw(st.integers(1, 4))
    nu = draw(st.sampled_from((2, 4, 6, 8)))
    mu, gap = draw(st.integers(2, 6)), draw(st.floats(0.2, 3.0))
    try:
        scheme = es.InversionScheme("boosted", mu, nu, gap)
        window = gap_window_mask(mu, gap, scheme.guard_fraction)
    except es.GapGuessTooCoarse:
        assume(False)
    return es.InversionOperator.build(scheme, draw(unitaries(n, window))), draw(
        st.integers(0, 2**32 - 1))


@SETTINGS
@seed(15)
@given(vote_stages())
def test_the_closed_form_vote_stage_matches_the_kick_loop(case):
    # the stage run in the vote Hadamard basis against the 2 nu kickbacks
    # and the flip run one vote bit at a time, less the fixed signs, on
    # unit projections per eigenvector: on Dicke columns, written out on
    # all 2^nu vote values through the Dicke isometry
    op, seed = case
    nu, n = op.scheme.vote_bits, op.layout.main_dim
    norms = op._window_split()[1]
    vote_sign = np.where(oracles.vote_majority_mask(nu), -1.0, 1.0)
    dicke = frames.dicke_isometry(nu).T
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, 2, nu + 1)) + 1j * rng.normal(size=(n, 2, nu + 1))
    p /= np.linalg.norm(p, axis=(1, 2), keepdims=True)
    got = op._plane_update(p) @ dicke
    p = p @ dicke
    fixed = np.stack([vote_sign, vote_sign[::-1]]) * p
    assert np.max(np.abs(got - oracles.vote_coefficients(p, norms, vote_sign) + fixed)) \
        <= 1e-13


def test_computed_amplitudes_are_norm_checked():
    # a state's norm is checked where it is made and where its amplitudes
    # are read, and NaN is no norm of 1.  A caller's scaled or NaN values
    # raise ValueError, computed ones InternalInvariantError.  Tripled
    # majority signs in the vote stage, a kept Gram off the plane's and a
    # plane unestimated off orthonormal each take an apply's output off its
    # norm, and slabs changed after their check are caught by the Gram
    # trace of the readouts and the norm of the written amplitudes
    op = es.InversionOperator.build(es.InversionScheme("boosted", 4, 2, 1.0),
                                    instances.haar_unitary(3, 23))
    product = es.embed_mainspace(op.layout, np.eye(3)[0], op.frame)
    flipped = target_flip(op.apply(product), 1)
    out = op.apply(flipped)
    for state, scale in itertools.product((flipped, out), (1.001, 0.999, math.nan)):
        with pytest.raises(ValueError):
            es.StateVector.from_slabs(scale * state.slabs, op.layout, op.frame)
    with pytest.raises(ValueError, match="nan"):
        es.StateVector.product([math.nan, 0.0, 0.0], op.layout, op.frame)
    with pytest.raises(es.InternalInvariantError, match="nan"):
        es.StateVector.product([math.nan, 0.0, 0.0], op.layout, op.frame, computed=True)
    original = selective_inversion._vote_basis

    def tripled(nu):
        hadamard, flip = original(nu)
        return hadamard, 3.0 * flip

    with mock.patch.object(selective_inversion, "_vote_basis", tripled):
        with pytest.raises(es.InternalInvariantError):
            op.apply(flipped)
    with mock.patch.object(op, "_gram", 1.001 * op._gram):
        with pytest.raises(es.InternalInvariantError):
            op.apply(product)
    unestimate = selective_inversion.raw_estimate_inverse

    def scaled_unestimate(a, powers, out=None):
        out = unestimate(a, powers, out)
        out *= 1.001
        return out

    with mock.patch.object(selective_inversion, "raw_estimate_inverse", scaled_unestimate):
        skewed = es.InversionOperator.build(op.scheme, op.unitary, decomposition=op.frame)
    with pytest.raises(es.InternalInvariantError):
        skewed.apply(product)
    for bad in (2.0, math.nan):
        with mock.patch.object(out, "_slabs", bad * out.slabs):
            with pytest.raises(es.InternalInvariantError):
                out.readouts()
            with pytest.raises(es.InternalInvariantError):
                out.amps


@st.composite
def pipeline_cases(draw):
    """A small symmetric instance, a scheme whose register holds at most
    4096 amplitudes, and a round count of 1 to 3."""
    inst = draw(symmetric_instances())
    n = inst.spec.n
    nu = draw(st.sampled_from((0, 2, 4)))
    mu = draw(st.integers(2, min(6, (4096 // (n << nu)).bit_length() - 1)))
    gap = draw(st.floats(0.2, 3.0))
    try:
        scheme = es.InversionScheme("basic" if nu == 0 else "boosted", mu, nu, gap)
        gap_window_mask(mu, gap, scheme.guard_fraction)
    except es.GapGuessTooCoarse:
        assume(False)
    return inst, scheme, draw(st.integers(1, 3))


def computational_run(inst, scheme, rounds):
    """Success, leakage, main marginal and ledger of ``rounds`` rounds run
    on a plain array of computational amplitudes: the target flip negates
    the target's rows, and the inversion is taken into its frame and back
    out one register axis at a time."""
    ledger = es.QueryLedger()
    halfway = es.evolve_to_halfway(inst, ledger)
    op = es.InversionOperator.build(scheme, es.build_search_operator(inst))
    a = np.zeros(frames.oracle_shape(op.layout), dtype=complex)
    a[:, 0, 0] = halfway.state
    for _ in range(rounds):
        a[inst.target_index] *= -1
        ledger.oracle_queries += 1
        a = frames.computational(op.apply(frames.framed(a, op.frame, op.layout), ledger))
    branch = np.abs(a[:, 0, 0]) ** 2
    marginal = np.sum(np.abs(a) ** 2, axis=(1, 2))
    return branch[inst.target_index], 1.0 - branch.sum(), marginal, ledger


@SETTINGS
@seed(16)
@given(pipeline_cases())
def test_frame_amplification_matches_computational_rounds(case):
    inst, scheme, rounds = case
    with mock.patch.object(pipeline, "amplification_round_count", lambda boost: rounds):
        res = es.run_full(inst, scheme)
    success, leakage, marginal, ledger = computational_run(inst, scheme, rounds)
    assert res.amplification_rounds == rounds
    assert abs(res.success_probability - success) <= 1e-12
    assert abs(res.ancilla_leakage - leakage) <= 1e-12
    assert np.max(np.abs(res.main_marginal - marginal)) <= 1e-12
    assert res.ledger == ledger
