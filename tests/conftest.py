import pytest

from cliqueops import UnitaryMagma, magma_product

from magma_strategies import D0, D1


@pytest.fixture(scope="session")
def z():
    return UnitaryMagma.integers()


@pytest.fixture(scope="session")
def d0():
    return D0


@pytest.fixture(scope="session")
def d1():
    return D1


@pytest.fixture(scope="session")
def d2():
    return UnitaryMagma.zero_product(2)


@pytest.fixture(scope="session")
def e1():
    return UnitaryMagma.unit_product(1)


@pytest.fixture(scope="session")
def e2():
    return UnitaryMagma.unit_product(2)


@pytest.fixture(scope="session")
def n2():
    return UnitaryMagma.cyclic(2)


@pytest.fixture(scope="session")
def n3():
    return UnitaryMagma.cyclic(3)


@pytest.fixture(scope="session")
def d0sq():
    return magma_product(D0, D0)
