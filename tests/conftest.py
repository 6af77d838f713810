"""Shared fixtures: a suite-wide audit of every cell solve.

Every call to solve_cell anywhere in the package is wrapped so the
returned report is checked against the certificate invariants
(dual <= primal, converged implies gap <= tol, non-convergence always
visibly flagged).  A per-test fixture fails the offending test
immediately, and the terminal summary prints the suite-wide tally.
"""

import dataclasses
import itertools
import threading

import pytest

import homlab
import homlab.cell

_real_solve_cell = homlab.cell.solve_cell
# every module that binds the name; solve_many calls it through homlab.cell
_PATCH_MODULES = (homlab, homlab.cell)

_lock = threading.Lock()
_audit = {"solves": 0, "converged": 0, "flagged": 0, "violations": []}


def _audited_solve_cell(problem, tol=1e-5, **kwargs):
    rep = _real_solve_cell(problem, tol=tol, **kwargs)
    problems = []
    if rep.dual > rep.primal:
        problems.append(f"dual {rep.dual!r} exceeds primal {rep.primal!r}")
    if rep.converged and rep.gap > tol:
        problems.append(f"converged report with gap {rep.gap:.3e} > tol {tol:.1e}")
    if rep.gap < 0:
        problems.append(f"negative gap {rep.gap!r}")
    if not rep.converged and rep.gap <= tol:
        problems.append("unconverged report despite gap within tol")
    with _lock:
        _audit["solves"] += 1
        _audit["converged"] += int(rep.converged)
        _audit["flagged"] += int(not rep.converged)
        if problems:
            _audit["violations"].append(
                f"t={problem.grid.side:g} n={problem.grid.cells}: " + "; ".join(problems))
    return rep


def pytest_configure(config):
    for mod in _PATCH_MODULES:
        mod.solve_cell = _audited_solve_cell


def pytest_unconfigure(config):
    for mod in _PATCH_MODULES:
        mod.solve_cell = _real_solve_cell


@pytest.fixture(autouse=True)
def _certificates_hold():
    """Fail the current test if any of its solves broke a certificate."""
    with _lock:
        before = len(_audit["violations"])
    yield
    with _lock:
        fresh = _audit["violations"][before:]
    assert not fresh, "certificate violations: " + " | ".join(fresh)


def uncertify_solves(monkeypatch, numbers):
    """From here on the solves numbered ``numbers`` (the first is 0) come back
    uncertified, their certificates intact: the same primal and dual, gap 0.5
    and converged=False."""
    inner = homlab.cell.solve_cell
    calls = itertools.count()

    def stub(problem, **kwargs):
        rep = inner(problem, **kwargs)
        if next(calls) in numbers:
            return dataclasses.replace(rep, gap=0.5, converged=False)
        return rep

    for mod in _PATCH_MODULES:
        monkeypatch.setattr(mod, "solve_cell", stub)


@pytest.fixture
def second_solve_uncertified(monkeypatch):
    uncertify_solves(monkeypatch, {1})


def solve_audit_snapshot():
    with _lock:
        return dict(_audit, violations=list(_audit["violations"]))


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    with _lock:
        terminalreporter.section("solve certificate audit")
        terminalreporter.write_line(
            f"in-process solves: {_audit['solves']}, certified: {_audit['converged']}, "
            f"visibly flagged: {_audit['flagged']}, silent violations: "
            f"{len(_audit['violations'])}")
