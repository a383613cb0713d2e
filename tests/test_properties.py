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
search operator's gap eigenphases against the secular roots.  States in an
estimate frame are checked against the computational ones through the dense
frame change V^dagger (x) H (x) 1 of ``frames``, and the frame amplification
of ``run_full`` against rounds run on computational states.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import eigensearch as es
import frames
import oracles
from eigensearch import pipeline
from eigensearch.phase_estimation import apply_register_flip

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


@st.composite
def unitaries(draw, n=None, window=None):
    """A random unitary: real orthogonal, or with eigenphases free, in a
    cluster, split across the branch cut, in a conjugate pair, in a pair
    whose cosines differ by a hair under or over the cosine-cluster
    threshold, or in a pair straddling pi/2; given a gap window, also with
    one eigenphase on a register grid point inside it and one on a grid point
    outside it."""
    if n is None:
        n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, n)
    plantings = ("none", "cluster", "branch_cut", "conjugate", "cosine_threshold",
                 "quarter_turn", "real") + (("grid",) if window is not None else ())
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
        grid = [draw(st.sampled_from(window.indices.tolist())),
                draw(st.sampled_from(window.complement().indices.tolist()))]
        planted = es.wrap_angle(2.0 * np.pi * np.array(grid) / window.register_dim)
        phases[:2] = planted[:n]
    basis = haar_unitary(n, seed + 1)
    return (basis * np.exp(1j * phases)) @ basis.conj().T


@st.composite
def operators(draw):
    n = draw(st.integers(1, 4))
    nu = draw(st.sampled_from((0, 2, 4)))
    # registers of at most 512 amplitudes keep the dense oracles quick
    mu = draw(st.integers(2, min(5, (512 // (n << nu)).bit_length() - 1)))
    gap = draw(st.floats(0.2, 3.0))
    kind = "basic" if nu == 0 else "boosted"
    try:
        scheme = es.InversionScheme(kind, mu, nu, gap)
        window = es.gap_window_mask(mu, gap, scheme.guard_fraction)
    except es.GapGuessTooCoarse:
        assume(False)
    u = draw(unitaries(n, window))
    return u, es.InversionOperator.build(scheme, u)


def dense_oracle(u, op):
    scheme = op.scheme
    if scheme.kind == "basic":
        return oracles.dense_basic_inversion(u, scheme.phase_bits, op.gap_window)
    return oracles.dense_boosted_inversion(u, scheme.phase_bits, scheme.vote_bits,
                                           op.gap_window, op.vote_window)


@SETTINGS
@given(operators())
def test_eigenframe_inverter_is_a_unitary_involution(case):
    _, op = case
    r = frames.inverter_matrix(op)
    eye = np.eye(r.shape[0])
    assert np.max(np.abs(r.conj().T @ r - eye)) <= 1e-9
    assert np.max(np.abs(r @ r - eye)) <= 1e-9


@SETTINGS
@given(operators())
def test_eigenframe_inverter_matches_the_dense_oracle(case):
    u, op = case
    assert np.max(np.abs(frames.inverter_matrix(op) - dense_oracle(u, op))) <= 1e-9


@SETTINGS
@given(unitaries())
def test_eig_unitary_handles_planted_clusters(u):
    dec = es.eig_unitary(u)
    v = dec.vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(u.shape[0]))) <= 1e-10
    assert np.max(np.abs((v * np.exp(1j * dec.phases)) @ v.conj().T - u)) <= 1e-9


@SETTINGS
@given(operators(), st.integers(1, 3))
def test_apply_charges_the_ledger_closed_forms(case, applications):
    # per application: one estimate and one unestimate of 2^mu controlled
    # powers, and per vote kickback two more estimates, one zero reflection
    # and two vote Hadamards
    _, op = case
    m, nu = op.layout.phase_dim, op.scheme.vote_bits
    ledger = es.QueryLedger()
    sv = es.embed_mainspace(op.layout, np.eye(op.layout.main_dim)[0], frame=op.frame)
    for _ in range(applications):
        sv = op.apply(sv, ledger)
    queries = applications * (2 * m + 4 * nu * m)
    assert ledger.as_dict() == {
        "ds_applications": 0,
        "oracle_queries": queries,
        "controlled_s": queries,
        "i_zero_prime": applications * 2 * nu,
        "hadamards_vote": applications * 4 * nu,
    }


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
@given(symmetric_instances())
def test_secular_roots_match_the_diagonalization(inst):
    # the source pole sits at 0 and every other pole carries target weight,
    # so the eigenphases nearest 0 on either side are the two secular roots
    phases = es.eig_unitary(es.build_search_operator(inst), es.TOL.system_unitarity).phases
    root_plus, root_minus = es.secular_pair(inst)
    assert abs(phases[phases > 0].min() - root_plus) <= es.TOL.secular_agreement
    assert abs(phases[phases < 0].max() - root_minus) <= es.TOL.secular_agreement


@SETTINGS
@given(operators(), st.integers(0, 2**32 - 1))
def test_frame_operations_match_the_computational_ones(case, seed):
    u, op = case
    dec = es.eig_unitary(u, es.TOL.system_unitarity)
    op = es.InversionOperator.build(op.scheme, u, decomposition=dec)
    lay = op.layout
    change = frames.dense_frame_change(dec, lay)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
    comp = es.StateVector(amps / np.linalg.norm(amps), lay)
    framed = es.StateVector(change @ comp.amps, lay, dec)

    out = op.apply(framed)
    assert out.frame is dec
    assert np.max(np.abs(out.amps - change @ dense_oracle(u, op) @ comp.amps)) <= 1e-12
    n = lay.main_dim
    main = es.SubspaceMask(n, rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    votes = es.SubspaceMask(lay.vote_dim, rng.choice(lay.vote_dim, size=1))
    for mask, register in ((main, "main"), (votes, "vote")):
        flipped = apply_register_flip(framed, mask, register)
        assert flipped.frame is dec
        want = change @ apply_register_flip(comp, mask, register).amps
        assert np.max(np.abs(flipped.amps - want)) <= 1e-12
    for register in ("main", "vote"):
        assert np.max(np.abs(framed.marginal(register) - comp.marginal(register))) <= 1e-12
    w, v = int(rng.integers(lay.phase_dim)), int(rng.integers(lay.vote_dim))
    assert np.max(np.abs(framed.branch_amplitudes(w, v) - comp.reshaped()[:, w, v])) <= 1e-12
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec /= np.linalg.norm(vec)
    embedded = es.embed_mainspace(lay, vec, w, v, frame=dec)
    assert np.max(np.abs(embedded.amps - change @ es.embed_mainspace(lay, vec, w, v).amps)) \
        <= 1e-12


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
        es.gap_window_mask(mu, gap, scheme.guard_fraction)
    except es.GapGuessTooCoarse:
        assume(False)
    return inst, scheme, draw(st.integers(1, 3))


def computational_run(inst, scheme, rounds):
    """Success, leakage, main marginal and ledger of ``rounds`` rounds run
    on computational states: target flip, then the inversion, taken into
    its frame and back out one register axis at a time."""
    ledger = es.QueryLedger()
    halfway = es.evolve_to_halfway(inst, ledger)
    op = es.InversionOperator.build(scheme, es.build_search_operator(inst))
    target = es.SubspaceMask(inst.spec.n, [inst.target_index])
    sv = es.embed_mainspace(op.layout, halfway.state)
    for _ in range(rounds):
        sv = apply_register_flip(sv, target, "main")
        ledger.oracle_queries += 1
        sv = frames.computational(op.apply(frames.framed(sv, op.frame), ledger))
    branch = np.abs(sv.reshaped()[:, 0, 0]) ** 2
    return branch[inst.target_index], 1.0 - branch.sum(), sv.marginal("main"), ledger


@SETTINGS
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
