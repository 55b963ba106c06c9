import math

import pytest

import xlab.suites as suites_mod
from xlab.errors import InputError
from xlab.suites import SUITE_NAMES, verify


def test_circle_exact_suite_passes():
    report = verify("circle-exact")
    assert report.suite == "circle-exact"
    assert report.passed
    assert all(c.passed for c in report.checks)
    assert report.wall_time > 0


def test_failing_check_fails_suite(monkeypatch):
    # one check over its tolerance, or one that measured nan (a failed sweep
    # row), fails the suite however many others pass
    monkeypatch.setitem(suites_mod._SUITES, "circle-exact", lambda: [
        suites_mod._check("passes", 0.5, 1.0),
        suites_mod._check("exact-law-max-rel-error", math.nan, 1e-12)])
    report = verify("circle-exact")
    assert not report.passed
    head, failed = report.checks
    assert head.passed
    assert failed.tolerance == 1e-12
    assert not failed.passed
    assert report.lines()[1].startswith("[FAIL]")
    assert report.lines()[-1].startswith("suite circle-exact: FAIL")


def test_verify_rejects_bad_input():
    with pytest.raises(InputError):
        verify("no-such-suite")
    with pytest.raises(TypeError):
        verify("circle-exact", tol=1.0)  # the tolerances are fixed


def test_report_shape():
    report = verify("circle-exact")
    d = report.to_dict()
    assert d["suite"] == "circle-exact"
    assert d["passed"] is True
    assert isinstance(d["checks"], list) and d["checks"]
    first = d["checks"][0]
    assert set(first) == {"name", "passed", "measured", "tolerance", "detail"}
    for line in report.lines():
        assert "PASS" in line or "FAIL" in line
    assert report.lines()[0].startswith("[PASS]")
    assert report.lines()[-1].startswith("suite circle-exact:")


def test_suite_names_registered():
    assert SUITE_NAMES == ("circle-exact", "circle-jump", "interval-jump",
                           "lemniscate-jump", "ellipse-jump", "properties")
