"""Shared fixtures for the test suite."""

import contextlib
import io
from fractions import Fraction

import pytest

from schreier_kit import averaging, cli, compacta
from schreier_kit.family import All


@pytest.fixture(scope="session")
def k14():
    """The bench's 14x14 K grid: 987 rows, 6,718 columns."""
    return compacta.build_matrix("K", "w", All(), 14, 14)


@pytest.fixture
def run_cli():
    """Drive the CLI in-process; returns (exit code, stdout, stderr)."""

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


@pytest.fixture
def plant_pairing(monkeypatch):
    """Make ``averaging._cancellation_pairing`` answer 1/3, a wrong value
    at every depth, for the keys where ``wrong(spans, extended)``."""

    def plant(wrong):
        real = averaging._cancellation_pairing

        def faulty(spans, extended):
            if wrong(spans, extended):
                return Fraction(1, 3)
            return real(spans, extended)

        monkeypatch.setattr(averaging, "_cancellation_pairing", faulty)

    return plant
