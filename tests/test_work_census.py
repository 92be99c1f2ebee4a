"""Census of the output and sampling work in one even pipeline run.

A scan row reports its growth rate, its unstable eigenvalues and its solver
path; only the most unstable row's mode is synthesized on the grid, once per
scan.  The RK4 cross-check samples its norms in blocks, so n samples cost
O(sqrt(n)) matrix products.  This test counts both on one ``gnlstab pipeline
--modes 128`` run, and the size of the report it writes, so per-row output or
a per-sample product cannot come back unnoticed.
"""

import math

import numpy as np

from gnlstab import cli, evolve
from gnlstab.spectral import ParityBasis
from test_eigensolve_census import README_PIPELINE


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
