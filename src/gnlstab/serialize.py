"""Round-trippable JSON artifacts and flat CSV exports.

Every JSON document is an envelope {"schema_version": 1, "type": ...,
"payload": ...}, written by the standard ``json`` encoder as one compact line
(``python -m json.tool`` pretty-prints it).  JSON and CSV write every float
as its shortest round-trip text, ``repr(float)``, so a write/read cycle
reproduces the double exactly.  Every write failure, a non-finite float
included, is a FormatError; parsing failures carry the byte offset of the
problem.
"""
from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .errors import FormatError
from .evolve import GrowthMeasurement
from .hill import PropositionCheck, PropositionReport, SpectrumSummary
from .scan import HypothesisReport, KappaRecord, StabilityScan
from .spectral import PeriodicGrid, RealField
from .waves import ProblemParams, WaveProfile

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# emission


def _plain(value):
    """numpy scalars as Python values; the ``default`` hook of the encoder."""
    if isinstance(value, np.generic):
        return value.item()
    raise FormatError(f"cannot serialize value of type {type(value).__name__}")


def _floats(array) -> list:
    return [float(x) for x in np.asarray(array, dtype=float).ravel()]


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


# ---------------------------------------------------------------------------
# payload builders


def _field_payload(field: Optional[RealField]) -> Optional[dict]:
    if field is None:
        return None
    return {
        "length": field.grid.length,
        "size": field.grid.size,
        "parity": field.parity,
        "values": _floats(field.values),
    }


def _wave_payload(wave: WaveProfile) -> dict:
    p = wave.params
    return {
        "alpha": p.alpha,
        "omega": p.omega,
        "period": p.period,
        "tau": p.tau,
        "parity": p.parity,
        "phi": _field_payload(wave.phi),
        "ode_residual_norm": wave.ode_residual_norm,
        "functional_value": wave.functional_value,
        "constraint_value": wave.constraint_value,
        "detected_period": wave.detected_period,
        "multiplier": wave.multiplier,
        "wave_id": wave.wave_id,
    }


def _spectrum_payload(summary: SpectrumSummary) -> dict:
    payload = {
        "label": summary.label,
        "wave_id": summary.wave_id,
        "eigenvalues": _floats(summary.eigenvalues),
        "n_negative": summary.n_negative,
        "kernel_dimension": summary.kernel_dimension,
        "zero_tolerance": summary.zero_tolerance,
        "ambiguous": summary.ambiguous,
        "lowest_eigenfunctions": None,
    }
    if summary.lowest_eigenfunctions is not None:
        payload["lowest_eigenfunctions"] = [
            _field_payload(f) for f in summary.lowest_eigenfunctions
        ]
    return payload


def _propositions_payload(report: PropositionReport) -> dict:
    return {
        "wave_id": report.wave_id,
        "parity": report.parity,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "expected": c.expected,
                "actual": c.actual,
                "margin": c.margin,
            }
            for c in report.checks
        ],
        "notes": list(report.notes),
    }


def _hypotheses_payload(report: HypothesisReport) -> dict:
    return {
        "wave_id": report.wave_id,
        "sector": report.sector,
        "h0": dict(report.h0),
        "h1": dict(report.h1),
        "h2": dict(report.h2),
        "h3": dict(report.h3),
        "h4": dict(report.h4),
        "overall": report.overall,
    }


def _scan_payload(scan: StabilityScan) -> dict:
    records = []
    for r in scan.records:
        records.append(
            {
                "kappa": r.kappa,
                "eigenvalues": _complex_pairs(r.eigenvalues),
                "max_real_part": r.max_real_part,
                "num_unstable": r.num_unstable,
                "leading_lambda": None
                if r.leading_lambda is None
                else [r.leading_lambda.real, r.leading_lambda.imag],
                "leading_v1": _field_payload(r.leading_v1),
                "leading_v2": _field_payload(r.leading_v2),
                "symmetry_defect": r.symmetry_defect,
            }
        )
    return {
        "wave_id": scan.wave_id,
        "sector": scan.sector,
        "kappa_values": _floats(scan.kappa_values),
        "records": records,
        "band_edges": list(scan.band_edges),
        "verdict": scan.verdict,
        "reduced_rows": scan.reduced_rows,
        "dense_rows": scan.dense_rows,
        "dense_bisections": scan.dense_bisections,
    }


def _growth_payload(gm: GrowthMeasurement) -> dict:
    return {
        "wave_id": gm.wave_id,
        "kappa": gm.kappa,
        "sector": gm.sector,
        "scheme": gm.scheme,
        "seed": gm.seed,
        "time_step": gm.time_step,
        "times": _floats(gm.times),
        "norms": _floats(gm.norms),
        "fitted_rate": gm.fitted_rate,
        "fit_residual": gm.fit_residual,
        "predicted_rate": gm.predicted_rate,
    }


_TO_PAYLOAD = {
    WaveProfile: ("wave_profile", _wave_payload),
    SpectrumSummary: ("spectrum_summary", _spectrum_payload),
    PropositionReport: ("proposition_report", _propositions_payload),
    HypothesisReport: ("hypothesis_report", _hypotheses_payload),
    StabilityScan: ("stability_scan", _scan_payload),
    GrowthMeasurement: ("growth_measurement", _growth_payload),
}


def payload(obj) -> dict:
    """The payload dict a result object serializes to (no envelope)."""
    try:
        _, builder = _TO_PAYLOAD[type(obj)]
    except KeyError:
        raise FormatError(f"no serializer for objects of type {type(obj).__name__}")
    return builder(obj)


def envelope(type_name: str, payload_dict: dict) -> str:
    """Render an arbitrary payload under the standard envelope, as one JSON line."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "type": type_name,
        "payload": payload_dict,
    }
    try:
        return json.dumps(document, allow_nan=False, default=_plain) + "\n"
    except FormatError:
        raise
    except ValueError as exc:
        # with allow_nan=False the encoder raises ValueError for NaN and +-inf
        raise FormatError(f"refusing to serialize non-finite float ({exc})") from exc
    except TypeError as exc:
        raise FormatError(f"cannot serialize document: {exc}") from exc


def dumps(obj) -> str:
    """Serialize a result object to its JSON envelope."""
    body = payload(obj)
    return envelope(_TO_PAYLOAD[type(obj)][0], body)


def save(obj, path) -> None:
    save_csv(dumps(obj), path)


# ---------------------------------------------------------------------------
# parsing


def _need(payload: dict, key: str):
    if not isinstance(payload, dict) or key not in payload:
        raise FormatError(f"payload is missing required field {key!r}")
    return payload[key]


def _field_from(payload: Optional[dict]) -> Optional[RealField]:
    if payload is None:
        return None
    grid = PeriodicGrid(float(_need(payload, "length")), int(_need(payload, "size")))
    values = np.asarray(_need(payload, "values"), dtype=float)
    return RealField(grid, values, str(_need(payload, "parity")))


def _wave_from(payload: dict) -> WaveProfile:
    params = ProblemParams(
        alpha=float(_need(payload, "alpha")),
        omega=float(_need(payload, "omega")),
        period=float(_need(payload, "period")),
        tau=float(_need(payload, "tau")),
        parity=str(_need(payload, "parity")),
    )
    phi = _field_from(_need(payload, "phi"))
    detected = payload.get("detected_period")
    return WaveProfile(
        params=params,
        phi=phi,
        ode_residual_norm=float(_need(payload, "ode_residual_norm")),
        functional_value=float(_need(payload, "functional_value")),
        constraint_value=float(_need(payload, "constraint_value")),
        detected_period=None if detected is None else float(detected),
    )


def _spectrum_from(payload: dict) -> SpectrumSummary:
    funcs = payload.get("lowest_eigenfunctions")
    return SpectrumSummary(
        label=str(_need(payload, "label")),
        wave_id=str(_need(payload, "wave_id")),
        eigenvalues=np.asarray(_need(payload, "eigenvalues"), dtype=float),
        n_negative=int(_need(payload, "n_negative")),
        kernel_dimension=int(_need(payload, "kernel_dimension")),
        zero_tolerance=float(_need(payload, "zero_tolerance")),
        ambiguous=bool(_need(payload, "ambiguous")),
        lowest_eigenfunctions=None
        if funcs is None
        else tuple(_field_from(f) for f in funcs),
    )


def _propositions_from(payload: dict) -> PropositionReport:
    checks = tuple(
        PropositionCheck(
            name=str(_need(c, "name")),
            passed=bool(_need(c, "passed")),
            expected=_need(c, "expected"),
            actual=_need(c, "actual"),
            # count checks carry no margin; only coerce when one was stored
            margin=None if c.get("margin") is None else float(c["margin"]),
        )
        for c in _need(payload, "checks")
    )
    return PropositionReport(
        wave_id=str(_need(payload, "wave_id")),
        parity=str(_need(payload, "parity")),
        passed=bool(_need(payload, "passed")),
        checks=checks,
        notes=tuple(str(n) for n in _need(payload, "notes")),
    )


def _hypotheses_from(payload: dict) -> HypothesisReport:
    return HypothesisReport(
        wave_id=str(_need(payload, "wave_id")),
        sector=str(_need(payload, "sector")),
        h0=dict(_need(payload, "h0")),
        h1=dict(_need(payload, "h1")),
        h2=dict(_need(payload, "h2")),
        h3=dict(_need(payload, "h3")),
        h4=dict(_need(payload, "h4")),
        overall=bool(_need(payload, "overall")),
    )


def _scan_from(payload: dict) -> StabilityScan:
    records = []
    for r in _need(payload, "records"):
        pairs = _need(r, "eigenvalues")
        eigenvalues = np.asarray([complex(p[0], p[1]) for p in pairs], dtype=complex)
        lam = r.get("leading_lambda")
        records.append(
            KappaRecord(
                kappa=float(_need(r, "kappa")),
                eigenvalues=eigenvalues,
                max_real_part=float(_need(r, "max_real_part")),
                num_unstable=int(_need(r, "num_unstable")),
                leading_lambda=None if lam is None else complex(lam[0], lam[1]),
                leading_v1=_field_from(r.get("leading_v1")),
                leading_v2=_field_from(r.get("leading_v2")),
                symmetry_defect=float(_need(r, "symmetry_defect")),
            )
        )
    return StabilityScan(
        wave_id=str(_need(payload, "wave_id")),
        sector=str(_need(payload, "sector")),
        kappa_values=np.asarray(_need(payload, "kappa_values"), dtype=float),
        records=tuple(records),
        band_edges=tuple(float(e) for e in _need(payload, "band_edges")),
        verdict=str(_need(payload, "verdict")),
        reduced_rows=int(_need(payload, "reduced_rows")),
        dense_rows=int(_need(payload, "dense_rows")),
        dense_bisections=int(_need(payload, "dense_bisections")),
    )


def _growth_from(payload: dict) -> GrowthMeasurement:
    return GrowthMeasurement(
        wave_id=str(_need(payload, "wave_id")),
        kappa=float(_need(payload, "kappa")),
        sector=str(_need(payload, "sector")),
        scheme=str(_need(payload, "scheme")),
        seed=str(_need(payload, "seed")),
        time_step=float(_need(payload, "time_step")),
        times=np.asarray(_need(payload, "times"), dtype=float),
        norms=np.asarray(_need(payload, "norms"), dtype=float),
        fitted_rate=float(_need(payload, "fitted_rate")),
        fit_residual=float(_need(payload, "fit_residual")),
        predicted_rate=float(_need(payload, "predicted_rate")),
    )


_FROM_PAYLOAD = {
    "wave_profile": _wave_from,
    "spectrum_summary": _spectrum_from,
    "proposition_report": _propositions_from,
    "hypothesis_report": _hypotheses_from,
    "stability_scan": _scan_from,
    "growth_measurement": _growth_from,
    # combined pipeline reports load back as their plain payload dict
    "pipeline_report": lambda p: p,
}


def loads(text: str):
    """Parse a JSON envelope back into its result object."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise FormatError(f"malformed JSON at byte offset {offset}: {exc.msg}") from exc
    if not isinstance(document, dict):
        raise FormatError("top-level JSON value must be an object envelope")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FormatError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    type_name = document.get("type")
    if type_name not in _FROM_PAYLOAD:
        raise FormatError(f"unknown document type {type_name!r}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise FormatError("envelope payload must be an object")
    try:
        return _FROM_PAYLOAD[type_name](payload)
    except FormatError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise FormatError(f"invalid {type_name} payload: {exc}") from exc


def load(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text (byte offset {exc.start})") from exc
    return loads(text)


# ---------------------------------------------------------------------------
# CSV exports


def _f(x: float) -> str:
    if not np.isfinite(x):
        raise FormatError(f"refusing to serialize non-finite float {x!r}")
    return repr(float(x))


def spectrum_csv(summary: SpectrumSummary) -> str:
    lines = ["index,eigenvalue"]
    for i, lam in enumerate(np.asarray(summary.eigenvalues, dtype=float)):
        lines.append(f"{i},{_f(lam)}")
    return "\n".join(lines) + "\n"


def scan_csv(scan: StabilityScan) -> str:
    lines = ["kappa,max_real_part,num_unstable_modes,leading_lambda_re,leading_lambda_im"]
    for r in scan.records:
        lam = r.leading_lambda if r.leading_lambda is not None else complex(0.0, 0.0)
        lines.append(
            f"{_f(r.kappa)},{_f(r.max_real_part)},{r.num_unstable},"
            f"{_f(lam.real)},{_f(lam.imag)}"
        )
    return "\n".join(lines) + "\n"


def growth_csv(gm: GrowthMeasurement) -> str:
    lines = ["t,norm"]
    for t, n in zip(gm.times, gm.norms):
        lines.append(f"{_f(float(t))},{_f(float(n))}")
    return "\n".join(lines) + "\n"


def save_csv(text: str, path) -> None:
    """Write an artifact's text (CSV or JSON) with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
