"""Census of the work in one even pipeline run and one verify run.

A scan row reports its growth rate, its unstable eigenvalues and its solver
path; only the most unstable row's mode is synthesized on the grid, once per
scan.  The RK4 cross-check samples its norms in blocks, so n samples cost
O(sqrt(n)) matrix products.  The first test counts both on one ``gnlstab
pipeline --modes 128`` run, and the size of the report it writes, so per-row
output or a per-sample product cannot come back unnoticed.

L1 and L2 are assembled once per wave, block by parity sector, and never
on the full basis: one operator store serves the spectra, propositions,
hypotheses, scan, certificate and DNS.  A block is diagonalized whole at
most once, for the L1/L2 export and the scan, or where its certified low
window (the Ritz pairs of a leading and a trailing block of at most a
quarter of its order, which is all the counts, propositions, hypotheses and
certificate read) cannot be proven.  The other tests count the assemblies
and the eigensolves of L1 and L2 blocks of a pipeline, of ``gnlstab
verify`` and of ``gnlstab spectrum``, so a consumer that re-assembles or
re-solves them cannot come back unnoticed.  The last count the spectra of a
wave solve, whose Newton polish takes none, and of ``gnlstab verify`` at
N = 512, which takes no whole-block spectrum.
"""

import math
import sys

import numpy as np
import pytest

from gnlstab import cli, evolve, hill, serialize
from gnlstab.spectral import ParityBasis
from test_eigensolve_census import N, README_PIPELINE

#: eigensolves made here are not solves of an L1 or L2 block: Newton's
#: Jacobian on the wave's parity basis, M(kappa) of the reduced scan rows and
#: their Rayleigh-Ritz steps
NOT_OPERATOR_SOLVES = ("newton_refine", "_Reduction.solve")


class CountedProducts(np.ndarray):
    """An array that counts every matrix product it takes part in; products
    of it stay counted, a vector dot product is not counted."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, CountedProducts) else x for x in inputs]
        if ufunc is np.matmul and any(np.ndim(x) == 2 for x in plain):
            CountedProducts.products += 1
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul and isinstance(out, np.ndarray):
            return out.view(CountedProducts)
        return out


def test_pipeline_synthesizes_one_mode_and_samples_in_blocks(tmp_path, monkeypatch, capsys):
    fields = []
    in_scan = []
    field, scan_kappa = ParityBasis.field, cli.scan_kappa

    def counted_field(self, coeffs):
        if in_scan:
            fields.append(self.kind)
        return field(self, coeffs)

    def scanning(*args, **kwargs):
        in_scan.append(True)
        try:
            return scan_kappa(*args, **kwargs)
        finally:
            in_scan.pop()

    runs = []
    evolve_and_fit, step_matrix = cli.evolve_and_fit, evolve.rk4_step_matrix

    def recorded(*args, **kwargs):
        runs.append(evolve_and_fit(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ParityBasis, "field", counted_field)
    monkeypatch.setattr(cli, "scan_kappa", scanning)
    monkeypatch.setattr(cli, "evolve_and_fit", recorded)
    monkeypatch.setattr(
        evolve, "rk4_step_matrix", lambda *a: step_matrix(*a).view(CountedProducts)
    )
    CountedProducts.products = 0
    assert cli.main(README_PIPELINE + ["--out", str(tmp_path)]) == 0
    assert "pipeline passed" in capsys.readouterr().out

    # v1 and v2 of the peak row, and nothing per row
    assert len(fields) <= 2
    assert (tmp_path / "pipeline_report.json").stat().st_size <= 40_000
    (run,) = runs
    samples = run.norms.size - 1
    assert samples >= 1000
    ceil_sqrt = math.isqrt(samples - 1) + 1
    assert CountedProducts.products <= 4 * ceil_sqrt + 8


class Census:
    """Counts, while installed: L1/L2 assemblies (``hill.hill_matrix``; Newton
    assembles its Jacobian through its own import), the order of every
    ``eigh``/``eigvalsh`` outside NOT_OPERATOR_SOLVES, every ``OperatorMatrix``
    built (each a checked copy), and all of it again inside ``growth_row``."""

    def __init__(self, monkeypatch):
        self.assemblies, self.solves, self.matrices = [], [], []
        self.in_growth_row = []
        assemble, post_init = hill.hill_matrix, hill.OperatorMatrix.__post_init__
        growth_row = evolve.growth_row

        def assembling(basis, *args):
            self.assemblies.append((basis.kind, basis.grid.size, bool(self.in_growth_row)))
            return assemble(basis, *args)

        def built(op):
            post_init(op)
            self.matrices.append((op.label, op.dimension))

        def row(*args, **kwargs):
            self.in_growth_row.append(True)
            try:
                return growth_row(*args, **kwargs)
            finally:
                self.in_growth_row.pop()

        monkeypatch.setattr(hill, "hill_matrix", assembling)
        monkeypatch.setattr(hill.OperatorMatrix, "__post_init__", built)
        monkeypatch.setattr(evolve, "growth_row", row)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, solve):
        def wrapper(a, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_qualname not in NOT_OPERATOR_SOLVES:
                frame = frame.f_back
            if frame is None:
                self.solves.append((name, np.shape(a)[-1], bool(self.in_growth_row)))
            return solve(a, *args, **kwargs)

        return wrapper


def test_pipeline_assembles_and_solves_each_operator_once(tmp_path, monkeypatch, capsys):
    census = Census(monkeypatch)
    assert cli.main(README_PIPELINE + ["--out", str(tmp_path)]) == 0
    assert "pipeline passed" in capsys.readouterr().out

    # L1 and L2 of the wave, and of its refinement on the doubled grid for the
    # certificate, each assembled once per sector block, on the cosine and on
    # the sine basis: the full-basis matrices are never built
    assert sorted(census.assemblies) == [
        (kind, size, False) for kind in ("cosine", "sine") for size in (N, 2 * N) for _ in "12"
    ]
    # the store holds L1 and L2 as assembled: no OperatorMatrix copy of them,
    # and no composed diag(L1, L2) or S(kappa), is built
    assert census.matrices == []
    # each of the four sector blocks of L1 and L2 (orders N/2+1, N/2-1) solved
    # once for its spectrum, and L2's two once more with vectors for the scan
    at_n = [(name, order) for name, order, _ in census.solves if order in (N // 2 - 1, N // 2 + 1)]
    assert len(at_n) <= 6
    # the certificate's store on the doubled grid takes no whole-block
    # spectrum: its low windows solve leading and trailing blocks of at most
    # a quarter of a block's order, N/2 + 1 of the doubled grid's
    assert max(order for _, order, _ in census.solves) <= N // 2 + 1
    windows = [order for _, order, _ in census.solves if order not in (N // 2 - 1, N // 2 + 1)]
    assert windows and max(windows) <= (N + 1) // 4
    # the DNS prediction reuses the scan's assembly and reductions
    assert [s for s in census.solves if s[2]] == []


@pytest.fixture
def wave_file(even_wave, tmp_path):
    path = tmp_path / "wave.json"
    path.write_text(serialize.dumps(even_wave), encoding="utf-8")
    return path


def test_verify_assembles_and_solves_each_operator_once(wave_file, tmp_path, monkeypatch, capsys):
    census = Census(monkeypatch)
    assert cli.main(["verify", "--wave", str(wave_file), "--out", str(tmp_path)]) == 0
    assert "verification passed" in capsys.readouterr().out
    # the propositions and the hypotheses share one full-space L1 and L2,
    # held as assembled per sector block, with no full-basis matrix, ...
    assert sorted(census.assemblies) == [("cosine", N, False)] * 2 + [("sine", N, False)] * 2
    assert census.matrices == []
    # ... and their low windows: L2 on the cosine block is proven from its
    # leading and trailing 16 modes, a quarter of its order; L1 on it needs
    # more and takes its whole spectrum, as both do on the sine block, whose
    # order N/2 - 1 = 63 is below the 64 of the smallest window
    assert sorted(census.solves) == sorted(
        [("eigh", 16, False)] * 4
        + [("eigvalsh", order, False) for order in (N // 2 + 1, N // 2 - 1, N // 2 - 1)]
    )


def test_spectrum_assembles_and_solves_each_operator_once(
    wave_file, tmp_path, monkeypatch, capsys
):
    census = Census(monkeypatch)
    assert cli.main(["spectrum", "--wave", str(wave_file), "--out", str(tmp_path)]) == 0
    assert "[hill_spectra] L2: n_negative=0" in capsys.readouterr().out
    # L1 and L2 of the full-space store, assembled on the cosine and on the
    # sine basis and never on the full one, with no OperatorMatrix copy ...
    assert sorted(census.assemblies) == [("cosine", N, False)] * 2 + [("sine", N, False)] * 2
    assert census.matrices == []
    # ... and one eigvalsh of each of their cosine and sine blocks
    assert sorted(census.solves) == sorted(
        ("eigvalsh", order, False) for order in (N // 2 + 1, N // 2 - 1) * 2
    )


def test_solve_polishes_the_wave_without_a_spectrum(tmp_path, monkeypatch, capsys):
    # the verify workload's wave at N = 512: each Newton step proves its
    # Jacobian regular by one Cholesky factor of the cosine sector's order
    # N/2 + 1, and no eigvalsh of it is taken
    calls = []

    def counted(name, solve):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solve(a, *args, **kwargs)

        return wrapper

    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    argv = ["solve", "--alpha", "2", "--omega", "1", "--parity", "even",
            "--tau", "auto:amplitude=1.5", "--modes", "512", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "[wave_solver] even-a2-w1" in capsys.readouterr().out
    assert [name for name, _ in calls if name == "eigvalsh"] == []
    assert calls and set(calls) == {("cholesky", (257, 257))}


def test_verify_takes_no_whole_block_spectrum_at_n512(tmp_path, monkeypatch, capsys):
    # the verify workload's wave at N = 512, sector blocks of orders 257 and
    # 255: the propositions and the hypotheses read only the low windows of
    # L1 and L2, each proven from a leading and a trailing block of at most
    # a quarter of its block's order, and no eigvalsh of a block is taken
    census = Census(monkeypatch)
    argv = ["verify", "--alpha", "2", "--omega", "1", "--parity", "even",
            "--tau", "auto:amplitude=1.5", "--modes", "512", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "verification passed" in capsys.readouterr().out
    assert census.solves and {name for name, _, _ in census.solves} == {"eigh"}
    assert max(order for _, order, _ in census.solves) <= 255 // 4
