"""The JSON payload layout, pinned by stored documents.

Each file in ``tests/data`` is one small document: the N=32 even and odd
waves (alpha=2; omega=1, tau=12 and omega=4, tau=40), their spectrum with
three exported eigenfunctions, propositions, hypotheses, 3-4 row scans, a
short DNS of the N=16 constant state and an N=32 pipeline report.  Loading
one and writing it again must reproduce its bytes, so key order, float text,
nesting and the loading of stored files cannot drift.  These tests only read
and write, so they do not depend on the BLAS build.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gnlstab import serialize
from gnlstab.errors import FormatError
from gnlstab.hill import build_hill, spectrum
from gnlstab.spectral import FULL, ParityBasis

DATA = Path(__file__).parent / "data"
GOLDEN = sorted(DATA.glob("*.json"))


def _document(name: str) -> dict:
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def _node(name: str, keys: tuple) -> tuple[dict, dict]:
    """A stored document and the payload object at ``keys`` inside it."""
    document = _document(name)
    node = document["payload"]
    for key in keys:
        node = node[key]
    return document, node


def _redump(loaded) -> str:
    if isinstance(loaded, dict):
        return serialize.envelope("pipeline_report", loaded)
    return serialize.dumps(loaded)


def test_golden_set_covers_every_document_type():
    kinds = {json.loads(p.read_text(encoding="utf-8"))["type"] for p in GOLDEN}
    assert kinds == {
        "wave_profile",
        "spectrum_summary",
        "proposition_report",
        "hypothesis_report",
        "stability_scan",
        "growth_measurement",
        "pipeline_report",
    }


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
def test_stored_document_redumps_byte_identical(path):
    assert _redump(serialize.load(path)) == path.read_text(encoding="utf-8")


def test_unknown_keys_are_ignored():
    document = _document("scan_even.json")
    text = serialize.envelope("stability_scan", document["payload"])
    document["payload"]["diagnostics"] = {"rows": 4}
    document["payload"]["records"][0]["krein_index"] = 1
    assert serialize.dumps(serialize.loads(json.dumps(document))) == text


def test_loaded_arrays_have_their_dtypes():
    scan = serialize.load(DATA / "scan_odd_full.json")
    assert scan.kappa_values.dtype == np.float64
    for record in scan.records:
        assert record.eigenvalues.dtype == np.complex128
        assert record.eigenvalues.shape == (64,)
        assert type(record.leading_lambda) is complex
    assert serialize.load(DATA / "spectrum_even_L1.json").eigenvalues.dtype == np.float64
    growth = serialize.load(DATA / "growth_const.json")
    assert growth.times.dtype == growth.norms.dtype == np.float64


def test_complex_pairs_keep_signed_zeros():
    document = _document("scan_even.json")
    document["payload"]["records"][0]["eigenvalues"][0] = [-0.0, -0.0]
    document["payload"]["records"][0]["leading_lambda"] = [1.5, -0.0]
    record = serialize.loads(json.dumps(document)).records[0]
    assert np.signbit(record.eigenvalues[0].real) and np.signbit(record.eigenvalues[0].imag)
    assert np.signbit(record.leading_lambda.imag)


def test_spectrum_with_eigenfunctions_roundtrip(even_wave):
    summary = spectrum(
        build_hill(even_wave, "L1", ParityBasis(FULL, even_wave.phi.grid)), n_eigenfunctions=3
    )
    again = serialize.loads(serialize.dumps(summary))
    assert again.eigenvalues.tobytes() == summary.eigenvalues.tobytes()
    assert len(again.lowest_eigenfunctions) == 3
    for a, b in zip(again.lowest_eigenfunctions, summary.lowest_eigenfunctions):
        assert a.grid == b.grid
        assert a.parity == b.parity
        assert a.values.dtype == np.float64
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize(
    "name, keys, field",
    [
        ("scan_even.json", ("records", 0), "kappa"),
        ("scan_even.json", (), "dense_rows"),
        ("propositions_odd.json", ("checks", 0), "name"),
        ("wave_even.json", ("phi",), "values"),
        ("wave_even.json", ("phi",), "length"),
        ("wave_even.json", (), "alpha"),
        ("hypotheses_even.json", (), "overall"),
        ("scan_even.json", (), "verdict"),
        ("spectrum_even_L1.json", ("lowest_eigenfunctions", 1), "parity"),
    ],
)
@pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
def test_missing_required_field_is_named(name, keys, field, absent):
    document, node = _node(name, keys)
    if absent:
        del node[field]
    else:
        node[field] = None
    with pytest.raises(FormatError, match=f"payload is missing required field '{field}'"):
        serialize.loads(json.dumps(document))


@pytest.mark.parametrize(
    "name, keys, field, read",
    [
        ("wave_even.json", (), "detected_period", lambda w: w.detected_period),
        ("propositions_odd.json", ("checks", 4), "margin", lambda r: r.checks[4].margin),
        ("scan_even.json", ("records", 0), "leading_lambda", lambda s: s.records[0].leading_lambda),
        ("scan_even.json", ("records", 0), "leading_v2", lambda s: s.records[0].leading_v2),
        ("spectrum_even_L1.json", (), "lowest_eigenfunctions", lambda s: s.lowest_eigenfunctions),
    ],
)
def test_absent_optional_field_loads_as_none(name, keys, field, read):
    document, node = _node(name, keys)
    assert node[field] is not None
    del node[field]
    assert read(serialize.loads(json.dumps(document))) is None


@pytest.mark.parametrize(
    "name, keys, field, value",
    [
        ("scan_even.json", ("records", 0), "eigenvalues", [[1.0, 2.0, 3.0]]),
        ("scan_even.json", ("records", 0), "leading_lambda", [1.0]),
        ("wave_even.json", (), "phi", [0.0, 1.0]),
        ("propositions_odd.json", (), "checks", 3),
        ("hypotheses_even.json", (), "h0", 3),
    ],
)
def test_malformed_value_is_a_format_error(name, keys, field, value):
    document, node = _node(name, keys)
    node[field] = value
    with pytest.raises(FormatError):
        serialize.loads(json.dumps(document))
