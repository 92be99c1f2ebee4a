"""Census of the eigensolves in one even pipeline run.

The even potential |phi|^a splits every full-space operator into a cosine
block (N/2+1) and a sine block (N/2-1), so no solve of the pipeline needs
the whole N x N or 2N x 2N matrix, and every one of them is symmetric.  A
scan takes no spectrum of any row's M(kappa): one Cholesky factorization per
sector and class of rows (one growth-pair count k and one number of deflated
pairs) certifies them, and its growth pairs come from a Rayleigh-Ritz step
on a small trial span and inverse iteration, one stacked linear solve per
chunk of rows and sweep, each of whose matrices is one row's M(kappa) -
shift.  The wave's Newton polish proves its Jacobian
regular by one Cholesky factorization per step, without a spectrum.  The
grid-doubling certificate reads the ten lowest eigenvalues of its store on
the doubled grid from the blocks' certified low windows, Ritz pairs of
leading and trailing Fourier blocks of at most a quarter of a block's order,
so it takes no whole-block spectrum.  This test counts the order of every
``numpy.linalg`` eigensolve and Cholesky factorization of one ``gnlstab
pipeline --modes 128`` run, Newton's apart from the rest, and each matrix of
a stacked call by the call's leading dimensions, so a whole-matrix,
unsymmetric or per-row spectrum, or a whole-block one on the doubled grid,
cannot come back unnoticed, and the order of every matrix of each
``numpy.linalg.solve`` of the rows and of Newton, and the number of the
rows' solve calls, so a solve per row cannot come back either.
"""

import json
import sys

import numpy as np

from gnlstab import cli
from gnlstab.scan import BATCH_BYTES, INVERSE_STEPS

N = 128
STEPS = 40
README_PIPELINE = [
    "pipeline", "--alpha", "2", "--omega", "1", "--period", "6.2831853", "--parity", "even",
    "--modes", str(N), "--tau", "auto:amplitude=1.5",
    "--kappa-min", "0.05", "--kappa-max", "1.8", "--kappa-steps", str(STEPS),
]


def _inside(qualname: str) -> bool:
    """Whether the caller's caller runs inside the function ``qualname``."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_qualname != qualname:
        frame = frame.f_back
    return frame is not None


def test_pipeline_solves_one_parity_sector_at_a_time(tmp_path, monkeypatch, capsys):
    orders, row_solves, newton, windows, certificate = [], [], [], [], []

    def counted(name, solve):
        def wrapper(a, *args, **kwargs):
            # one entry per matrix: a stacked call solves prod(shape[:-2]) of them
            matrices = int(np.prod(np.shape(a)[:-2]))
            entries = [(name, np.shape(a)[-1])] * matrices
            # Newton's solves are counted apart from the operators' and the scan's
            (newton if _inside("newton_refine") else orders).extend(entries)
            if _inside("_Reduction.solve"):
                row_solves.extend(entries)
            if _inside("_ritz_end"):
                windows.extend(entries)
            if _inside("_certificate") and not _inside("newton_refine"):
                certificate.extend(entries)
            return solve(a, *args, **kwargs)

        return wrapper

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    linear_solves, row_calls, newton_steps, solve = [], [], [], np.linalg.solve

    def shaped(a, b):
        if _inside("_Reduction.solve"):
            # one entry per matrix, as ``counted`` records them, and one per call
            linear_solves.extend([np.shape(a)[-2:]] * int(np.prod(np.shape(a)[:-2])))
            row_calls.append(np.shape(a))
        if _inside("newton_refine"):
            newton_steps.append(np.shape(a))
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
    # row's M(kappa) - shift of the cosine sector, in one stacked call per
    # chunk of rows and sweep, not one per row and pair: a chunk's stack of
    # d x d matrices holds a quarter of BATCH_BYTES
    assert linear_solves == [(N // 2 + 1, N // 2 + 1)] * growing
    chunks = -(-growing // max(1, BATCH_BYTES // (4 * (N // 2 + 1) ** 2 * 8)))
    assert len(row_calls) <= chunks * INVERSE_STEPS
    assert len(row_calls) < 5
    # eigh with vectors for L2 of the reductions, once per sector, and in a
    # row only for its Rayleigh-Ritz step on the trial span of k + 11
    # vectors, k = 1 growth pair per row on this wave, so one of order 12 per
    # row with a growth pair; no row takes a second step over its pairs
    outside = sorted(order for name, order in orders if name == "eigh")
    ritz = [order for name, order in row_solves if name == "eigh"]
    assert ritz == [12] * growing
    # the low windows of the blocks: Ritz pairs of a leading or trailing
    # block, each of at most a quarter of its block's order, on the wave's
    # grid (blocks of order N/2 + 1 and N/2 - 1) and the doubled one
    assert windows and {name for name, _ in windows} == {"eigh"}
    assert max(order for _, order in windows) <= (N + 1) // 4
    for order in ritz + [order for _, order in windows]:
        outside.remove(order)
    assert outside == [N // 2 - 1, N // 2 + 1]
    # the largest solves are the whole block spectra of the wave's own grid,
    # which the L1/L2 export reads; the certificate's store on the doubled
    # grid proves its ten values from low windows alone
    whole = sorted(order for name, order in orders if name == "eigvalsh")
    assert whole == [N // 2 - 1] * 2 + [N // 2 + 1] * 2
    assert max(order for _, order in orders) == N // 2 + 1
    assert certificate and set(certificate) <= set(windows)
    # the Newton polish of the even wave takes no spectrum of its Jacobian L1
    # on the cosine sector: per step, one linear solve, a Rayleigh-Ritz step
    # on ten trial vectors and one Cholesky factor that proves its inertia
    steps = len(newton_steps)
    assert steps >= 1 and newton_steps == [(N // 2 + 1, N // 2 + 1)] * steps
    assert sorted(newton) == sorted([("cholesky", N // 2 + 1), ("eigh", 10)] * steps)
