"""Census of the eigensolves in one even pipeline run.

The even potential |phi|^a splits every full-space operator into a cosine
block (N/2+1) and a sine block (N/2-1), so no solve of the pipeline needs
the whole N x N or 2N x 2N matrix, and every one of them is symmetric.  A
scan takes no spectrum of any row's M(kappa): one Cholesky factorization per
sector and class of rows (one growth-pair count k and one number of deflated
pairs) certifies them, and its growth pairs come from a Rayleigh-Ritz step
on a small trial span and inverse iteration, whose every linear solve takes
one row's M(kappa) alone.  This test counts the order of every
``numpy.linalg`` eigensolve and Cholesky factorization of one ``gnlstab
pipeline --modes 128`` run, and each matrix of a stacked call by the call's
leading dimensions, so a whole-matrix, unsymmetric or per-row spectrum
cannot come back unnoticed, and the shape of every ``numpy.linalg.solve`` of
the rows, so a stack of M(kappa) over the rows cannot either.
"""

import json
import sys

import numpy as np

from gnlstab import cli

N = 128
STEPS = 40
README_PIPELINE = [
    "pipeline", "--alpha", "2", "--omega", "1", "--period", "6.2831853", "--parity", "even",
    "--modes", str(N), "--tau", "auto:amplitude=1.5",
    "--kappa-min", "0.05", "--kappa-max", "1.8", "--kappa-steps", str(STEPS),
]


def _in_row_solve() -> bool:
    """Whether the caller's caller runs inside the reduced rows' solve of M(kappa)."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_qualname != "_Reduction.solve":
        frame = frame.f_back
    return frame is not None


def test_pipeline_solves_one_parity_sector_at_a_time(tmp_path, monkeypatch, capsys):
    orders, row_solves = [], []

    def counted(name, solve):
        def wrapper(a, *args, **kwargs):
            # one entry per matrix: a stacked call solves prod(shape[:-2]) of them
            matrices = int(np.prod(np.shape(a)[:-2]))
            orders.extend([(name, np.shape(a)[-1])] * matrices)
            if _in_row_solve():
                row_solves.extend(orders[len(orders) - matrices :])
            return solve(a, *args, **kwargs)

        return wrapper

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    linear_solves, solve = [], np.linalg.solve

    def shaped(a, b):
        if _in_row_solve():
            linear_solves.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", shaped)
    assert cli.main(README_PIPELINE + ["--out", str(tmp_path)]) == 0
    assert "pipeline passed" in capsys.readouterr().out
    records = json.loads((tmp_path / "pipeline_report.json").read_text())["payload"]["scan"]["records"]
    growing = sum(record["num_unstable"] > 0 for record in records)
    assert 0 < growing < STEPS

    # the scan certifies its rows by eigenpair residuals and the DNS steps the
    # scan's own row, so no unsymmetric solve is left
    assert [name for name, _ in orders if name in ("eig", "eigvals")] == []
    # no row takes a spectrum of M(kappa): one Cholesky factor per sector
    # and class decides its rows, here the cosine sector's k = 1 and k = 0
    # rows and the sine sector's k = 0 rows, each factor of at most the
    # cosine block's order N/2 + 1; the DNS reads the scan's peak row and
    # solves none again
    assert [name for name, _ in row_solves if name == "eigvalsh"] == []
    factored = [order for name, order in row_solves if name == "cholesky"]
    assert sorted(factored) == [N // 2 - 1, N // 2 + 1, N // 2 + 1]
    assert [name for name, _ in orders if name == "cholesky"] == ["cholesky"] * 3
    # one step of inverse iteration per growth pair, each a solve with one
    # row's M(kappa) - shift of the cosine sector, never a (rows, d, d) stack
    assert linear_solves == [(N // 2 + 1, N // 2 + 1)] * growing
    # eigh with vectors for L2 of the reductions, once per sector, and in a
    # row only for its Rayleigh-Ritz step on the trial span of k + 11
    # vectors, k = 1 growth pair per row on this wave, so one of order 12 per
    # row with a growth pair; no row takes a second step over its pairs
    outside = sorted(order for name, order in orders if name == "eigh")
    ritz = [order for name, order in row_solves if name == "eigh"]
    assert ritz == [12] * growing
    for order in ritz:
        outside.remove(order)
    assert outside == [N // 2 - 1, N // 2 + 1]
    # the largest solve is the certificate's eigvalsh of one sector at 2N
    assert max(order for _, order in orders) <= N + 1
