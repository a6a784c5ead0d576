"""Conformance of computed classifications with the packaged reference tables."""
import pytest

from ffe import verify
from ffe.verify import load_fixture, verify_appendix


def failed_checks(report):
    return [c["check"] for c in report["checks"] if not c["ok"]]


def test_d3_full_partition_conformance():
    report = verify_appendix(3)
    assert report["ok"], failed_checks(report)


def test_d4_polynomial_scope_conformance():
    report = verify_appendix(4)
    assert report["ok"], failed_checks(report)
    assert report["merged_listing_pairs"] == 0


def test_fixtures_load_and_member_counts():
    assert sum(len(c["members"]) for c in load_fixture(3)["classes"]) == 81
    assert len(load_fixture(4)["classes"]) == 17
    assert len(load_fixture(6)["classes"]) == 28


def test_unknown_d_rejected():
    with pytest.raises(ValueError):
        verify_appendix(5)


def test_missing_fixture_path():
    with pytest.raises(FileNotFoundError):
        verify_appendix(3, path="/nonexistent/fixture.json")


@pytest.mark.parametrize("d", [3, 4])
def test_one_canonical_form_search_per_run(monkeypatch, d):
    # every listed member, matrix or polynomial, is placed from one stack
    stacks = []

    def counted(mats):
        stacks.append(len(mats))
        return canonical_forms(mats)

    canonical_forms = verify._canonical_forms
    monkeypatch.setattr(verify, "_canonical_forms", counted)
    assert verify_appendix(d)["ok"]
    assert stacks == [sum(len(c["members"]) for c in load_fixture(d)["classes"])]
