"""Regenerate the stored documents of ``tests/data`` from the current code.

    PYTHONPATH=src python tests/data/make_goldens.py [OUT_DIR]

writes one document per result type into OUT_DIR (default: this directory):
the N=32 even and odd waves (alpha=2; omega=1, tau=12 and omega=4, tau=40),
the even wave's full-space L1 spectrum with three eigenfunctions, the odd
wave's propositions, the even wave's hypotheses, a 4-row even and a 3-row
full-space odd scan, a DNS of the N=16 constant state at kappa=1 and the
report of an N=32 even pipeline with 4 kappa rows.  BLAS runs on one thread,
so a rerun on the same build reproduces every byte.  The version-1 documents
in ``v1/`` were written by the same recipe with schema version 1 and are
kept as load fixtures.
"""
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

from gnlstab import cli, serialize  # noqa: E402
from gnlstab.evolve import EvolutionConfig, evolve_and_fit  # noqa: E402
from gnlstab.hill import check_propositions, hill_operators, spectrum  # noqa: E402
from gnlstab.scan import scan_kappa, verify_hypotheses  # noqa: E402
from gnlstab.waves import ProblemParams, constant_wave, solve_wave  # noqa: E402

TWO_PI = 2.0 * np.pi
PIPELINE = ["pipeline", "--alpha", "2", "--omega", "1", "--tau", "12", "--modes", "32",
            "--kappa-steps", "4"]


def documents() -> dict:
    """File name -> document text."""
    even = solve_wave(ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=12.0, parity="even"), 32)
    odd = solve_wave(ProblemParams(alpha=2.0, omega=4.0, period=TWO_PI, tau=40.0, parity="odd"), 32)
    const = hill_operators(constant_wave(2.0, 1.0, TWO_PI, 16))
    growth = evolve_and_fit(const, 1.0, EvolutionConfig(final_time=4.0))
    # one store per wave, as the pipeline shares it: the full space serves
    # every document of the even wave, and the odd wave's propositions and scan
    even_ops, odd_ops = hill_operators(even, "full"), hill_operators(odd, "full")
    texts = {
        "wave_even.json": even,
        "wave_odd.json": odd,
        "spectrum_even_L1.json": spectrum(even_ops, "L1", n_eigenfunctions=3),
        "propositions_odd.json": check_propositions(odd_ops),
        "hypotheses_even.json": verify_hypotheses(even_ops),
        "scan_even.json": scan_kappa(even_ops, 0.05, 1.8, 4),
        "scan_odd_full.json": scan_kappa(odd_ops, 0.05, 1.0, 3),
        "growth_const.json": growth,
    }
    texts = {name: serialize.dumps(result) for name, result in texts.items()}
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(PIPELINE + ["--out", tmp])
        if code != 0:
            raise SystemExit("the golden pipeline run failed")
        texts["pipeline_report_even.json"] = (Path(tmp) / "pipeline_report.json").read_text(
            encoding="utf-8"
        )
    return texts


def main(argv: list) -> int:
    out = Path(argv[0]) if argv else Path(__file__).parent
    out.mkdir(parents=True, exist_ok=True)
    for name, text in documents().items():
        serialize.save_csv(text, out / name)
        print(f"{out / name}: {len(text.encode('utf-8'))} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
