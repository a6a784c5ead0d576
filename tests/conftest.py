"""Session-wide catalogues, built once and shared by the acceptance and
golden tests."""
import pytest

from ffe.classify import classify_lfp, classify_lu


@pytest.fixture(scope="session")
def cat3_all():
    return classify_lu(classify_lfp(3, "all"))


@pytest.fixture(scope="session")
def cat4_full():
    return classify_lu(classify_lfp(4, "all", threads=8))


@pytest.fixture(scope="session")
def cat4_teh():
    return classify_lu(classify_lfp(4, "teh"))


@pytest.fixture(scope="session")
def cat6_teh():
    return classify_lu(classify_lfp(6, "teh"))
