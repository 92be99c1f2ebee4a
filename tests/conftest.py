import os

# one BLAS thread, set before numpy loads, as perfbench and make_goldens.py
# do: on a two-core machine more threads slow the suite's small eigensolves
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles  # noqa: E402
from gnlstab.hill import hill_operators, resolve_sector  # noqa: E402
from gnlstab.waves import ProblemParams, constant_wave, solve_wave  # noqa: E402
from gnlstab.scan import CROSSCHECK_RTOL, growth_row, scan_kappa, verify_hypotheses  # noqa: E402

TWO_PI = 2.0 * np.pi

# One pass/fail line per acceptance criterion, printed after the run so the
# lines survive pytest's output capture.
ACCEPTANCE_LINES = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {number}: {status} — {detail}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def record():
    """Callable recording one acceptance-criterion pass/fail line."""
    return record_criterion


@pytest.fixture(scope="session")
def even_wave():
    """Nonconstant even profile, alpha=2, omega=1, L=2*pi, N=128."""
    return solve_wave(
        ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=12.0, parity="even")
    )


@pytest.fixture(scope="session")
def odd_wave():
    """Sign-changing odd profile, alpha=2, omega=4, L=2*pi, N=128."""
    return solve_wave(
        ProblemParams(alpha=2.0, omega=4.0, period=TWO_PI, tau=40.0, parity="odd")
    )


@pytest.fixture(scope="session")
def const_wave():
    return constant_wave(2.0, 1.0, TWO_PI, 64)


# The operator stores of the fixture waves, one per wave and sector, shared
# by the session: every consumer takes a store.  A test that patches the
# assembly or a solver, or counts work, builds its own store inside the
# patch, since a shared one may already hold its spectra, reductions and rows.


@pytest.fixture(scope="session")
def even_ops(even_wave):
    """The even wave's "auto" store: the full space."""
    return hill_operators(even_wave)


@pytest.fixture(scope="session")
def odd_ops(odd_wave):
    """The odd wave's "auto" store: the odd sector."""
    return hill_operators(odd_wave)


@pytest.fixture(scope="session")
def odd_full_ops(odd_wave):
    """The odd wave's full-space store."""
    return hill_operators(odd_wave, "full")


@pytest.fixture(scope="session")
def const_ops(const_wave):
    """The constant state's "auto" store: the full space."""
    return hill_operators(const_wave)


# each fixture scan assembles its own store, so a row that a test solves on
# a shared store is not the row the scan kept


@pytest.fixture(scope="session")
def even_scan(even_wave):
    return scan_kappa(hill_operators(even_wave), 0.05, 1.8, 60)


@pytest.fixture(scope="session")
def odd_scan(odd_wave):
    return scan_kappa(hill_operators(odd_wave), 0.05, 4.0, 60)


@pytest.fixture(scope="session")
def const_scan(const_wave):
    return scan_kappa(hill_operators(const_wave), 0.05, 2.0, 40)


@pytest.fixture(scope="session")
def odd_full_scan(odd_wave):
    """Odd wave in the full space: L2 + kappa^2 is indefinite below kappa ~ 0.33."""
    return scan_kappa(hill_operators(odd_wave, "full"), 0.05, 1.0, 8)


@pytest.fixture(scope="session")
def solve_row(even_wave, odd_wave, const_wave):
    """solve_row(name, kappa, sector="auto"): the scan's row solver at kappa
    on the "even", "odd" or "const" fixture wave, with its whole spectrum and
    leading mode.  One assembly and reduction per wave and sector serves
    every call."""
    waves = {"even": even_wave, "odd": odd_wave, "const": const_wave}
    shared = {}

    def solve(name, kappa, sector="auto"):
        wave = waves[name]
        sector = resolve_sector(wave, sector)
        if (name, sector) not in shared:
            shared[name, sector] = hill_operators(wave, sector)
        return growth_row(shared[name, sector], float(kappa))

    return solve


@pytest.fixture(scope="session")
def scan_rows(solve_row, even_scan, odd_scan, const_scan, odd_full_scan):
    """scan_rows(name): the row solver's result on every row of the fixture
    scan ``{name}_scan``, in order."""
    scans = {
        "even": ("even", even_scan),
        "odd": ("odd", odd_scan),
        "const": ("const", const_scan),
        "odd_full": ("odd", odd_full_scan),
    }
    rows = {}

    def of(name):
        if name not in rows:
            wave, scan = scans[name]
            rows[name] = [solve_row(wave, r.kappa, scan.sector) for r in scan.records]
        return rows[name]

    return of


@pytest.fixture(scope="session")
def even_hypotheses(even_ops):
    return verify_hypotheses(even_ops)


@pytest.fixture(scope="session")
def odd_hypotheses(odd_ops):
    return verify_hypotheses(odd_ops)


@pytest.fixture(scope="session")
def check_reduced_row():
    """check_reduced_row(ops, row): a reduced row of the store ``ops``
    against each sector's whole spectrum of M(kappa), one ``eigvalsh``
    (:func:`oracles.reduced_spectrum_reference`).  The row holds +-lambda
    for exactly the oracle's mu < 0, lambda = sqrt(-mu) to CROSSCHECK_RTOL,
    and every mu, reported or not, clears the rounding floor of M(kappa)."""

    def check(ops, row):
        assert row.path == "reduced"
        rates = []
        for _, block in ops.sectors():
            mu, floor, _ = oracles.reduced_spectrum_reference(block.l1, block.l2, row.kappa)
            assert np.min(np.abs(mu)) > floor, row.kappa
            rates.append(np.sqrt(-mu[mu < 0.0]))
        rates = np.sort(np.concatenate(rates))
        expected = np.concatenate([-rates[::-1], rates])
        assert row.eigenvalues.shape == expected.shape, row.kappa
        assert np.all(row.eigenvalues.imag == 0.0)
        gap = np.abs(row.eigenvalues.real - expected)
        assert np.all(gap <= CROSSCHECK_RTOL * (1.0 + np.abs(expected))), row.kappa

    return check
