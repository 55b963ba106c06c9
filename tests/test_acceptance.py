"""Acceptance gate: one test per headline criterion, each printing a verdict.

Every test exercises the public API the way a user would and checks the
stated tolerance and time budget.  Slow sweeps reuse the module-scoped
circle-jump report so the 512-degree basis is built once.
"""

import time

import pytest

from xlab.christoffel import christoffel_lambda, kernel_prefix, orthonormalize
from xlab.quadrature import build_rule
from xlab.suites import standard_jump_measures, verify


def _verdict(capsys, text):
    with capsys.disabled():
        print(text)


def _by_name(report):
    return {c.name: c for c in report.checks}


@pytest.fixture(scope="module")
def circle_jump_report():
    return verify("circle-jump")


def test_criterion_1_circle_exact_law(capsys):
    start = time.perf_counter()
    report = verify("circle-exact")
    elapsed = time.perf_counter() - start
    head = report.checks[0]
    _verdict(capsys, f"criterion 1 (circle exact law): "
                     f"{'PASS' if report.passed else 'FAIL'} "
                     f"max rel err {head.measured:.2e} "
                     f"(tol {head.tolerance:.0e}) in {elapsed:.1f}s")
    assert report.passed
    assert elapsed < 10.0


def test_criterion_2_kernel_vs_direct(capsys):
    start = time.perf_counter()
    worst = 0.0
    for measure in standard_jump_measures().values():
        rule = build_rule(measure, 60)
        basis = orthonormalize(rule, 60)
        prefix = kernel_prefix(basis, measure.z0)
        for n in range(61):
            kernel = 1.0 / prefix[n]
            direct = christoffel_lambda(measure, n, method="direct",
                                        basis=basis).lambda_n
            worst = max(worst, abs(kernel - direct) / direct)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    _verdict(capsys, f"criterion 2 (kernel vs direct, 4 measures, n<=60): "
                     f"{'PASS' if ok else 'FAIL'} worst rel diff "
                     f"{worst:.2e} (tol 1e-10) in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_3_circle_jump_limit(capsys, circle_jump_report):
    checks = _by_name(circle_jump_report)
    extrap = checks["circle-extrapolated"]
    raw = checks["circle-raw-512"]
    ok = extrap.passed and raw.passed
    _verdict(capsys, f"criterion 3 (circle jump limit): "
                     f"{'PASS' if ok else 'FAIL'} extrapolated rel err "
                     f"{extrap.measured:.2e} (tol {extrap.tolerance}), "
                     f"raw n=512 {raw.measured:.2e} (tol {raw.tolerance}) "
                     f"in {circle_jump_report.wall_time:.1f}s")
    assert extrap.passed
    assert raw.passed
    assert circle_jump_report.wall_time < 600.0


def test_criterion_4_interval_jump_limit(capsys):
    report = verify("interval-jump")
    check = _by_name(report)["interval-extrapolated"]
    _verdict(capsys, f"criterion 4 (interval jump limit): "
                     f"{'PASS' if report.passed else 'FAIL'} rel err "
                     f"{check.measured:.2e} (tol {check.tolerance}) "
                     f"in {report.wall_time:.1f}s")
    assert report.passed
    assert report.wall_time < 600.0


def test_criterion_5_lemniscate_jump_limit(capsys):
    report = verify("lemniscate-jump")
    checks = _by_name(report)
    extrap = checks["lemniscate-extrapolated"]
    halving = checks["degree-halving"]
    two = checks["two-component-extrapolated"]
    _verdict(capsys, f"criterion 5 (lemniscate jump limit): "
                     f"{'PASS' if report.passed else 'FAIL'} rel err "
                     f"{extrap.measured:.2e} (tol {extrap.tolerance}), "
                     f"degree-halving {halving.measured:.2e} "
                     f"(tol {halving.tolerance}), two components "
                     f"{two.measured:.2e} (tol {two.tolerance}) "
                     f"in {report.wall_time:.1f}s")
    assert extrap.passed
    assert halving.passed
    assert two.passed


def test_criterion_6_ellipse_jump_limit(capsys):
    report = verify("ellipse-jump")
    check = _by_name(report)["ellipse-extrapolated"]
    _verdict(capsys, f"criterion 6 (ellipse jump limit): "
                     f"{'PASS' if report.passed else 'FAIL'} rel err "
                     f"{check.measured:.2e} (tol {check.tolerance}) "
                     f"in {report.wall_time:.1f}s")
    assert report.passed
    assert report.wall_time < 900.0


def test_criterion_7_structural_properties(capsys):
    report = verify("properties")
    n_pass = sum(c.passed for c in report.checks)
    _verdict(capsys, f"criterion 7 (structural properties): "
                     f"{'PASS' if report.passed else 'FAIL'} "
                     f"{n_pass}/{len(report.checks)} checks "
                     f"in {report.wall_time:.1f}s")
    assert report.passed
    assert report.wall_time < 120.0


def test_criterion_8_jump_continuity(capsys, circle_jump_report):
    checks = _by_name(circle_jump_report)
    pred = checks["continuity-predicted"]
    row = checks["continuity-n256"]
    ok = pred.passed and row.passed
    _verdict(capsys, f"criterion 8 (continuity in the jump): "
                     f"{'PASS' if ok else 'FAIL'} predicted rel err "
                     f"{pred.measured:.2e} (tol {pred.tolerance}), "
                     f"n=256 rel err {row.measured:.2e} "
                     f"(tol {row.tolerance})")
    assert pred.passed
    assert row.passed
