"""Physics check of one op's report files against recorded reference values.

``observe`` reads what an op wrote; ``check`` compares it with the values
in ``reference.json``, recorded from seed 0 of each workload.  The
tolerances are stored beside the references and are the code's own gates
at the time of recording, so a later change to a gate does not loosen the
benchmark.  For seeds other than the default only the outputs that do not
depend on the kappa grid are compared: verdict, band edges inside the
scanned range, pass flags, certificate and DNS gap.
"""
from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _payload(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["payload"]


def _flags(propositions: dict, hypotheses: dict) -> dict:
    return {
        "propositions": [[c["name"], c["passed"]] for c in propositions["checks"]],
        "hypotheses": {k: hypotheses[k]["passed"] for k in ("h0", "h1", "h2", "h3", "h4")},
        "lambda0": hypotheses["h1"]["lambda0"],
    }


def observe(kind: str, out: Path) -> dict:
    """The physics outputs of one op, read from its report files."""
    if kind == "verify":
        observed = _flags(_payload(out / "propositions.json"), _payload(out / "hypotheses.json"))
        for label in ("L1", "L2"):
            spec = _payload(out / f"spectrum_{label}.json")
            observed[f"counts_{label}"] = [spec["n_negative"], spec["kernel_dimension"]]
        return observed
    report = _payload(out / "pipeline_report.json")
    scan = report["scan"]
    peak = max(scan["records"], key=lambda r: r["max_real_part"])
    observed = _flags(report["propositions"], report["hypotheses"])
    observed.update(
        overall_passed=report["overall_passed"],
        verdict=report["verdict"],
        kappa_start=scan["kappa_values"][0],
        band_edges=scan["band_edges"],
        peak_growth=peak["max_real_part"],
        peak_kappa=peak["kappa"],
        certificate_max_delta=report["convergence_certificate"]["max_delta"],
        dns_relative_gap=report["dns"]["relative_gap"],
    )
    return observed


def check(observed: dict, expected: dict, tol: dict, default_seed: bool) -> list:
    """Mismatches between an op's outputs and the reference (empty = pass)."""
    bad = []

    def near(key, value, ref, atol):
        if not abs(value - ref) <= atol:
            bad.append(f"{key} {value!r} differs from reference {ref!r} by more than {atol:g}")

    for key in ("propositions", "hypotheses", "counts_L1", "counts_L2", "overall_passed", "verdict"):
        if key in expected and observed[key] != expected[key]:
            bad.append(f"{key} {observed[key]!r} != reference {expected[key]!r}")
    ref_l0 = expected["lambda0"]
    near("lambda0", observed["lambda0"], ref_l0, tol["crosscheck_rtol"] * abs(ref_l0))
    if "band_edges" not in expected:
        return bad

    edge_res = tol["edge_resolution"]
    # an edge below a shifted grid start cannot be bracketed by that grid
    ref_edges = [e for e in expected["band_edges"] if e > observed["kappa_start"]]
    if len(observed["band_edges"]) != len(ref_edges):
        bad.append(f"band edges {observed['band_edges']} != reference {ref_edges}")
    else:
        for edge, ref in zip(observed["band_edges"], ref_edges):
            near("band edge", edge, ref, edge_res)
    for key, gate in (("certificate_max_delta", "certificate_tol"), ("dns_relative_gap", "dns_gap_tol")):
        if not observed[key] <= tol[gate]:
            bad.append(f"{key} {observed[key]!r} above the gate {tol[gate]:g}")
        near(key, observed[key], expected[key], tol[gate])
    if default_seed:
        ref_growth = expected["peak_growth"]
        near("peak growth", observed["peak_growth"], ref_growth,
             tol["crosscheck_rtol"] * (1.0 + abs(ref_growth)))
        near("peak kappa", observed["peak_kappa"], expected["peak_kappa"], edge_res)
    return bad
