from functools import cached_property

import pytest

from gassmann.catalog import (alternating, cyclic, dihedral, fano_stabilizers,
                              frobenius20, gl3f2, quaternion, standard_corpus,
                              symmetric)
from gassmann.lattice import IntMat

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance():
    """Recorder for per-criterion pass/fail lines, printed at the end."""
    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def count_passes(monkeypatch):
    """count_passes(name) wraps the function of the IntMat cached
    property `name` (`_det`, `_elimination` or `_hnf`) for the test
    and returns the list of matrices it then runs on."""
    def install(name):
        computed = []
        real = vars(IntMat)[name].func

        def counted(m):
            computed.append(m)
            return real(m)
        wrapped = cached_property(counted)
        wrapped.__set_name__(IntMat, name)
        monkeypatch.setattr(IntMat, name, wrapped)
        return computed
    return install


@pytest.fixture(scope="session")
def s3():
    return symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric(4)


@pytest.fixture(scope="session")
def a4():
    return alternating(4)


@pytest.fixture(scope="session")
def d4():
    return dihedral(4)


@pytest.fixture(scope="session")
def d6():
    return dihedral(6)


@pytest.fixture(scope="session")
def q8():
    return quaternion()


@pytest.fixture(scope="session")
def c6():
    return cyclic(6)


@pytest.fixture(scope="session")
def f20():
    return frobenius20()


@pytest.fixture(scope="session")
def fano():
    """(GL(3,2), point stabilizer, hyperplane stabilizer)."""
    return fano_stabilizers()


@pytest.fixture(scope="session")
def subgroup_ambients():
    """S4 as GL(3,2)'s point stabilizer and A5 inside S5: Subgroups used
    as groups, whose Cayley-graph order is not their element order."""
    return (gl3f2().point_stabilizer(0),
            symmetric(5).subgroup(alternating(5).generators))


@pytest.fixture(scope="session")
def corpus60():
    return standard_corpus(60)
