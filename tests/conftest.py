import sys

import pytest

import eigensearch as es
import instances
import oracles

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def ref12():
    return instances.ref12_instance()


@pytest.fixture(scope="session")
def ref12_operator(ref12):
    return es.build_search_operator(ref12)


@pytest.fixture(scope="session")
def grover64():
    return instances.grover_instance()


@pytest.fixture(scope="session")
def criterion10_boosted():
    """Criterion-10's boosted case: a Haar unitary on n = 2, the operator
    of its (mu, nu) = (6, 4) scheme at gap 0.6, and that operator's dense
    oracle on the whole register, which is most of the case's time."""
    u = instances.haar_unitary(2, 22)
    op = es.InversionOperator.build(es.InversionScheme("boosted", 6, 4, 0.6), u)
    return u, op, oracles.dense_boosted_inversion(u, 6, 4, op.gap_window,
                                                  oracles.vote_majority_mask(4))


@pytest.fixture
def call_counter(monkeypatch):
    """``count(module, name)`` wraps a package function under every name the
    package's modules bind it to, and returns a one-item list holding its
    call count.  ``observe``, if given, sees the arguments of every call."""
    def count(module, name, observe=None):
        original = getattr(module, name)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            if observe is not None:
                observe(*args, **kwargs)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "eigensearch"
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)
        return calls
    return count


@pytest.fixture
def acceptance_log():
    def log(name, ok, detail):
        ACCEPTANCE_LINES.append(
            f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return log


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
