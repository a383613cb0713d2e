"""Unit checks for the shared numeric helpers."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigensearch import numerics
from eigensearch.numerics import (
    TOL,
    InternalInvariantError,
    eig_unitary,
    inside_gap,
    make_rng,
    round_half_away,
    split_seed,
)
import eigensearch
import instances
from oracles import (dense_eig_unitary, phase_distance, real_orthogonal, spectral_projectors,
                     unitary_power, wrap_angle)


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
    u = instances.haar_unitary(16, 2)
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
    v = instances.haar_unitary(8, 5)
    phases = np.array([0.3, 0.3, 0.3, -1.2, -1.2, 2.0, 2.0, 2.0])
    u = (v * np.exp(1j * phases)) @ v.conj().T
    dec = eig_unitary(u)
    rebuilt = (dec.vectors * np.exp(1j * dec.phases)) @ dec.vectors.conj().T
    assert np.linalg.norm(rebuilt - u) <= TOL.eigen_reconstruction
    assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(8)) \
        <= TOL.eigen_orthonormality
    assert_allclose(np.sort(dec.phases), np.sort(phases), atol=1e-7)


# real orthogonal operators: search operators, and constructed spectra that
# put the real path's pairs into clustered blocks
REAL_OPERATORS = {
    "ref12": lambda: eigensearch.build_search_operator(instances.ref12_instance()),
    "symmetric64": lambda: eigensearch.build_search_operator(instances.symmetric_instance(
        64, np.linspace(0.5, 2.5, 31), 3, 2)),
    "grover64": lambda: eigensearch.build_search_operator(instances.grover_instance()),
    # two pairs whose cosines differ by less than TOL.cosine_cluster
    "cosine_cluster": lambda: real_orthogonal([0.7, 0.7 + 3e-5, 2.0], 1, 1, seed=1),
    # a pair within 1e-3 of pi next to a -1 eigenspace
    "near_pi": lambda: real_orthogonal([np.pi - 5e-4, 1.0], 1, 3, seed=2),
    # a cluster around +-pi/2, split with the pi/4 turn
    "quarter_turn": lambda: real_orthogonal(
        [np.pi / 2 - 1e-7, np.pi / 2 + 1e-7, np.pi / 2 + 1e-5], 1, 0, seed=3),
    # +1 and -1 each with multiplicity above 1
    "multiple": lambda: real_orthogonal([1.2], 4, 3, seed=4),
    # 32 pairs within 1e-3 of 0.7: one mixed block of all 64 columns
    "one_cluster": lambda: real_orthogonal(np.linspace(0.7, 0.7 + 1e-3, 32), seed=5),
}


@pytest.mark.parametrize("name", REAL_OPERATORS)
def test_eig_unitary_pairs_a_real_operator_with_exact_conjugates(name):
    u = REAL_OPERATORS[name]()
    assert not np.iscomplexobj(u)
    dec, cast = eig_unitary(u), eig_unitary(u.astype(complex))
    phases, v = dec.phases, dec.vectors
    assert np.all(np.diff(phases) >= 0.0)
    # the real array and its complex cast, against the dense complex solver
    ref = dense_eig_unitary(u.astype(complex))
    theirs = spectral_projectors(ref.phases, ref.vectors)
    for mine in (dec, cast):
        assert_allclose(np.sort(wrap_angle(mine.phases)), np.sort(wrap_angle(ref.phases)),
                        rtol=0.0, atol=1e-12)
        mine = spectral_projectors(mine.phases, mine.vectors)
        assert [p for p, _ in mine] == pytest.approx([p for p, _ in theirs], abs=1e-12)
        for (_, a), (_, b) in zip(mine, theirs):
            assert np.max(np.abs(a - b)) <= 1e-10
    # R: real vectors at 0 and pi; P and conj(P) at exactly +-lambda
    real = (phases == 0.0) | (phases == np.pi)
    assert not np.any(v[:, real].imag)
    pair = np.unique(phases[(phases > 0.0) & ~real])
    for lam in pair:
        assert np.array_equal(v[:, phases == -lam], v[:, phases == lam].conj())
    assert real.sum() + 2 * np.sum(np.isin(phases, pair)) == u.shape[0]


@pytest.mark.parametrize("make, split", [
    # Grover's -1 eigenspace: one eigenvalue, told from U B + B alone
    (lambda: eigensearch.build_search_operator(instances.grover_instance(256, 5)), False),
    # a pair at pi +- 1e-3 has the cosine of -1, so it shares the -1 block,
    # which fails the bound and must still split
    (lambda: real_orthogonal([np.pi - 1e-3], minus=6), True)])
def test_a_real_block_at_a_cosine_of_one_is_kept_as_its_full_product_says(
        make, split, monkeypatch):
    u = make()
    cosines, basis = np.linalg.eigh(u + u.T)
    cosines *= 0.5
    ub = u @ basis
    starts, sizes = numerics._cosine_blocks(cosines)
    [size] = sizes[sizes > 2]
    [first] = starts[sizes == size]
    m = basis[:, first:first + size].T @ ub[:, first:first + size]
    assert (0.5 * np.linalg.norm(m - m.T) > TOL.scalar_block) == split
    # M is formed only for a block the bound cannot keep whole
    formed = []
    monkeypatch.setattr(numerics, "dagger",
                        lambda a: formed.append(a.shape[0]) or np.swapaxes(a.conj(), -1, -2))
    cols, block, _ = numerics._split_blocks(cosines, basis, ub, starts, sizes, size)
    assert formed[0] == int(split)
    assert cols.tolist() == ([list(range(first, first + size))] if split else [])
    if split:
        assert_allclose(block[0], m, rtol=0.0, atol=1e-15)


def test_eig_unitary_checks_read_the_returned_pairs(ref12_operator, monkeypatch):
    # rebuild the real side of the returned V and phases: a basis B with
    # the real columns first and each pair p, conj(p) as two neighbouring
    # columns sqrt(2) Re p, -sqrt(2) Im p, the blocks of Q, 1 on a real
    # column and ((1, 1), (-i, i))/sqrt(2) on a pair, and the Rayleigh
    # quotients.  Then perturb one of them: each of the three checks must
    # see it.  Orthonormality is held to 1e-10, so a 1e-8 change of a
    # column of B or of an entry of Q trips it; the modulus and
    # reconstruction checks are held to 1e-8, so they get changes of 1e-7
    # and 1e-6
    u = ref12_operator
    dec = eig_unitary(u, TOL.system_unitarity)
    phases, v = dec.phases, dec.vectors
    real = np.flatnonzero((phases == 0.0) | (phases == np.pi))
    pair = np.flatnonzero((phases > 0.0) & (phases < np.pi))
    n, nr, r = u.shape[0], real.size, np.sqrt(0.5)
    assert nr > 0 and nr + 2 * pair.size == n
    halves = np.stack([v[:, pair].real, -v[:, pair].imag], axis=2).reshape(n, -1)
    basis = np.concatenate([v[:, real].real, halves / r], axis=1)
    first = nr + 2 * np.arange(pair.size)
    pairs = np.tile(np.array([[r, r], [-1j * r, 1j * r]]), (pair.size, 1, 1))
    blocks = [(np.arange(nr)[:, None], np.ones((nr, 1, 1))),
              (first[:, None] + np.arange(2), pairs)]
    signed = np.concatenate([phases[real], np.outer(phases[pair], [1.0, -1.0]).ravel()])
    rayleigh = np.exp(1j * signed)

    def check(basis=basis, blocks=blocks, rayleigh=rayleigh, u=u):
        return numerics._check_rotations(u, basis, u @ basis, blocks, rayleigh)

    assert_allclose(check(), signed, rtol=0.0, atol=1e-15)
    for col in (0, nr, n - 1):      # a real column and both halves of a pair
        bent = basis.copy()
        bent[np.argmax(np.abs(basis[:, col])), col] += 1e-8
        with pytest.raises(InternalInvariantError, match="orthonormality"):
            check(basis=bent)
    bent = pairs.copy()
    bent[0, 1, 0] *= 1.0 + 1e-8
    with pytest.raises(InternalInvariantError, match="orthonormality"):
        check(blocks=[blocks[0], (blocks[1][0], bent)])
    for k, factor, what in ((nr, 1.0 + 1e-7, "moduli"), (0, 1.0 + 1e-7, "moduli"),
                            (nr, np.exp(1e-6j), "reconstruction"),
                            (0, -1.0, "reconstruction")):
        bent = rayleigh.copy()
        bent[k] *= factor
        with pytest.raises(InternalInvariantError, match=what):
            check(rayleigh=bent)

    # a complex U with a planted cluster: B the returned V, Q the identity
    # as sixteen blocks of one, and the same perturbations
    w = instances.haar_unitary(16, 8)
    phases = make_rng(8).uniform(-np.pi, np.pi, 16)
    phases[1:3] = phases[0], phases[0] + 1e-10
    z = (w * np.exp(1j * phases)) @ w.conj().T
    dec = eig_unitary(z)
    v, rayleigh = dec.vectors, np.exp(1j * dec.phases)
    unit = [(np.arange(16)[:, None], np.ones((16, 1, 1)))]
    assert_allclose(check(v, unit, rayleigh, z), dec.phases, rtol=0.0, atol=1e-15)
    bent = v.copy()
    bent[np.argmax(np.abs(v[:, 5])), 5] += 1e-8
    with pytest.raises(InternalInvariantError, match="orthonormality"):
        check(bent, unit, rayleigh, z)
    for factor, what in ((1.0 + 1e-7, "moduli"), (np.exp(1e-6j), "reconstruction")):
        bent = rayleigh.copy()
        bent[5] *= factor
        with pytest.raises(InternalInvariantError, match=what):
            check(v, unit, bent, z)

    # the blocks eig_unitary itself hands the check on quarter_turn, whose
    # three pairs near pi/2 make one block of six: a 1e-8 change of an
    # entry inside that block trips orthonormality
    seen, checked = [], numerics._check_rotations
    monkeypatch.setattr(numerics, "_check_rotations", lambda u, basis, ub, blocks, rayleigh:
                        seen.append((u, basis, ub.copy(), blocks, rayleigh))
                        or checked(u, basis, ub, blocks, rayleigh))
    eig_unitary(REAL_OPERATORS["quarter_turn"]())
    u, basis, ub, blocks, rayleigh = seen[0]
    [k] = [k for k, (_, q) in enumerate(blocks) if q.shape[1] == 6]
    checked(u, basis, ub.copy(), blocks, rayleigh)
    bent = blocks[k][1].copy()
    bent[0, 2, 3] += 1e-8
    with pytest.raises(InternalInvariantError, match="orthonormality"):
        checked(u, basis, ub.copy(), blocks[:k] + [(blocks[k][0], bent)] + blocks[k + 1:],
                rayleigh)


def test_eig_unitary_rejects_nonunitary_input():
    with pytest.raises(ValueError):
        eig_unitary(np.ones((2, 2), dtype=complex))


def test_unitary_power_matches_repeated_multiplication():
    u = instances.haar_unitary(8, 3)
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


def _fresh_process_has(module, code):
    """Whether ``module`` is imported after ``code`` runs in a new
    interpreter with this checkout's eigensearch on its path."""
    src = os.path.dirname(os.path.dirname(eigensearch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", f"import sys; {code}; "
                          f"print({module!r} in sys.modules)"],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    return run.stdout.strip() == "True"


def test_eig_unitary_does_not_import_numpy_ma():
    # np.unique would import numpy.ma, about 15 ms of every fresh process;
    # the identity has one cluster of size 3, so the cluster loop runs, in
    # real and in complex arithmetic
    assert not _fresh_process_has(
        "numpy.ma", "import numpy as np, eigensearch as es; es.eig_unitary(np.eye(3)); "
                    "es.eig_unitary(np.eye(3, dtype=complex))")


def test_the_cli_and_eig_unitary_do_not_import_scipy():
    # scipy's import would add 0.1-0.2 s to every CLI process
    assert not _fresh_process_has(
        "scipy", "import numpy as np, eigensearch.cli, eigensearch as es; "
                 "es.eig_unitary(np.eye(3)); es.eig_unitary(np.eye(3, dtype=complex))")


def _tour_names():
    """The backticked bare identifiers of the README's library tour that
    are public top-level names of an eigensearch module."""
    readme = (Path(eigensearch.__file__).parents[2] / "README.md").read_text()
    tour = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    defined = set()
    for info in pkgutil.iter_modules(eigensearch.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"eigensearch.{info.name}")))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    return set(re.findall(r"`([A-Za-z]\w*)`", tour)) & defined


def test_the_package_exports_exactly_the_names_the_readme_tour_lists():
    exported = eigensearch.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == _tour_names()
    assert not [name for name in exported if inspect.ismodule(getattr(eigensearch, name))]
    assert {name for name, obj in vars(eigensearch).items()
            if not name.startswith("_") and not inspect.ismodule(obj)} <= set(exported)
    # the benchmark harness reads these as es.<name>
    perfbench = Path(eigensearch.__file__).parents[2] / "perfbench"
    read = {name for path in perfbench.glob("*.py")
            for name in re.findall(r"\bes\.(\w+)", path.read_text())}
    assert read <= set(exported)


# perfbench counts secular_residual's calls; ROADMAP item 1 drops or moves
# that metric, and the function with it
_UNCALLED_BY_DESIGN = {"secular_residual"}


def test_every_public_function_and_class_has_a_caller_in_the_package():
    # a top-level definition counts as used when a Name, Attribute or
    # import elsewhere in the package names it; references made only by
    # definitions that are themselves unused do not count
    package = os.path.dirname(eigensearch.__file__)
    owned, public = [], set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            owner = getattr(node, "name", None)
            if owner and not owner.startswith("_"):
                public.add(owner)
            refs = {sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else sub.name
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))}
            owned.append((owner, refs - {owner}))
    unused = set()
    while True:
        used = set().union(*(refs for owner, refs in owned if owner not in unused))
        grown = {owner for owner, _ in owned if owner} - used - _UNCALLED_BY_DESIGN
        if grown == unused:
            break
        unused = grown
    assert sorted(unused & public) == []


def test_only_query_ledger_charge_adds_to_a_ledger_field():
    # every count the package spends goes through QueryLedger.charge: no
    # other code assigns to an attribute named like a ledger field, or
    # sets one by setattr, whose name is either such a field or unknown
    ledger_fields = {f.name for f in dataclasses.fields(eigensearch.QueryLedger)}
    package = os.path.dirname(eigensearch.__file__)
    writes = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        charge = {id(sub) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "QueryLedger"
                  for method in cls.body
                  if isinstance(method, ast.FunctionDef) and method.name == "charge"
                  for sub in ast.walk(method)}
        for node in ast.walk(tree):
            if id(node) in charge:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if node.attr in ledger_fields:
                    writes.append(f"{name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and "setattr" in ast.unparse(node.func):
                key = node.args[1]
                if not isinstance(key, ast.Constant) or key.value in ledger_fields:
                    writes.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert writes == []


def test_only_state_amps_counts_the_full_vote_layout():
    # the package sizes, caps and reads every register by the nu + 1 Dicke
    # columns a state stores (RegisterLayout); only StateVector.amps writes
    # the 2^nu vote values out, so it alone may compute 1 << vote_bits or
    # 2 ** vote_bits
    package = os.path.dirname(eigensearch.__file__)
    sites = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        owners = {id(sub): f"{cls.name}.{method.name}" for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  for method in cls.body if isinstance(method, ast.FunctionDef)
                  for sub in ast.walk(method)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.left, ast.Constant)
                    and (isinstance(node.op, ast.LShift) and node.left.value == 1
                         or isinstance(node.op, ast.Pow) and node.left.value == 2)):
                continue
            if any(isinstance(sub, ast.Name) and sub.id == "vote_bits"
                   or isinstance(sub, ast.Attribute) and sub.attr == "vote_bits"
                   for sub in ast.walk(node.right)):
                sites.append(f"{name} {owners.get(id(node), '<module>')}")
    assert sites == ["phase_estimation.py StateVector.amps"]
