"""Census of the eigensolves in one even pipeline run.

The even potential |phi|^a splits every full-space operator into a cosine
block (N/2+1) and a sine block (N/2-1), so no solve of the pipeline needs
the whole N x N or 2N x 2N matrix, and every one of them is symmetric.  This
test counts the order of every ``numpy.linalg`` eigensolve of one ``gnlstab
pipeline --modes 128`` run, so a whole-matrix or unsymmetric solve cannot
come back unnoticed.
"""

import numpy as np

from gnlstab import cli

N = 128
STEPS = 40
README_PIPELINE = [
    "pipeline", "--alpha", "2", "--omega", "1", "--period", "6.2831853", "--parity", "even",
    "--modes", str(N), "--tau", "auto:amplitude=1.5",
    "--kappa-min", "0.05", "--kappa-max", "1.8", "--kappa-steps", str(STEPS),
]


def test_pipeline_solves_one_parity_sector_at_a_time(tmp_path, monkeypatch, capsys):
    orders = []

    def counted(name, solve):
        def wrapper(a, *args, **kwargs):
            orders.append((name, np.shape(a)[-1]))
            return solve(a, *args, **kwargs)

        return wrapper

    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    assert cli.main(README_PIPELINE + ["--out", str(tmp_path)]) == 0
    assert "pipeline passed" in capsys.readouterr().out

    # the scan certifies its rows by eigenpair residuals and the DNS steps the
    # scan's own row, so no unsymmetric solve is left
    assert [name for name, _ in orders if name in ("eig", "eigvals")] == []
    # eigh (L2 once per sector, M(kappa) per row) is the scan's per-row solve:
    # one sector, at most the cosine block of order N/2 + 1
    rows = [order for name, order in orders if name == "eigh"]
    assert len(rows) >= 2 * STEPS
    assert max(rows) <= N // 2 + 1
    # the largest solve is the certificate's eigvalsh of one sector at 2N
    assert max(order for _, order in orders) <= N + 1
