"""Shared test plumbing: the acceptance-criteria summary section and the
benchmark's pair constructions."""

import importlib.util
from pathlib import Path

import pytest

_CRITERIA = {}


def record_criterion(index, verdict, detail):
    """Register one acceptance criterion outcome for the terminal summary."""
    _CRITERIA[index] = (verdict, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for index in sorted(_CRITERIA):
        verdict, detail = _CRITERIA[index]
        terminalreporter.write_line(f"criterion {index}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def checks():
    """perfbench/checks.py, loaded read-only: pair constructions independent of the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
