import pytest

from oracles import shipped_group


@pytest.fixture(scope="session")
def alt7():
    return shipped_group("alt7")


@pytest.fixture(scope="session")
def m11():
    return shipped_group("m11")
