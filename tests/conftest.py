"""Shared fixtures: catalog matroids are immutable, so expensive builds are
session-scoped and shared across test modules."""

import pytest

import kinser as K


@pytest.fixture(scope="session")
def fano():
    return K.fano_pair()[0]


@pytest.fixture(scope="session")
def nonfano():
    return K.fano_pair()[1]


@pytest.fixture(scope="session")
def u24():
    return K.uniform(2, 4)


@pytest.fixture(scope="session")
def kin4():
    return K.kinser(4)


@pytest.fixture(scope="session")
def kin5():
    return K.kinser(5)


@pytest.fixture(scope="session")
def vamos():
    return K.kinser_relaxed(4)


@pytest.fixture(scope="session")
def kin5_relaxed():
    return K.kinser_relaxed(5)


@pytest.fixture(scope="session")
def kin6_relaxed():
    return K.kinser_relaxed(6)


@pytest.fixture(scope="session")
def z4():
    return K.binary_spike(4)


@pytest.fixture(scope="session")
def z6():
    return K.binary_spike(6)


@pytest.fixture(scope="session")
def dowling_z2():
    return K.dowling(2, 3)


@pytest.fixture(scope="session")
def dowling_z3():
    return K.dowling(3, 3)


@pytest.fixture(scope="session")
def fano_sum(fano, nonfano):
    return K.direct_sum(fano, nonfano)[0]
