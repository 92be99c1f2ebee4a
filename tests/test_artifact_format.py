"""The JSON payload layout, pinned by stored documents.

Each file in ``tests/data`` is one small document: the N=32 even and odd
waves (alpha=2; omega=1, tau=12 and omega=4, tau=40), their spectrum with
three exported eigenfunctions, propositions, hypotheses, 3-4 row scans, a
short DNS of the N=16 constant state and an N=32 pipeline report, written by
``tests/data/make_goldens.py``.  Loading one and writing it again must
reproduce its bytes, so key order, float text, nesting and the loading of
stored files cannot drift.  ``tests/data/v1`` keeps the same documents in
schema version 1, whose scan rows carried their whole spectrum and mode
fields; each must still load.  These tests only read and write, but for one
row solve at N=32 and one regeneration of every document, so that the stored
files cannot go stale against the code: the regenerated floats must agree
with the stored ones to 1e-12 relative, whatever the BLAS build, and
everything else exactly.
"""

import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from gnlstab import serialize
from gnlstab.errors import FormatError
from gnlstab.hill import hill_operators, spectrum
from gnlstab.scan import StabilityScan, growth_row

DATA = Path(__file__).parent / "data"
GOLDEN = sorted(DATA.glob("*.json"))
V1 = DATA / "v1"


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
    assert [p.name for p in sorted(V1.glob("*.json"))] == [p.name for p in GOLDEN]
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


def _agree(made, stored, where="") -> list:
    """Where two JSON values differ: floats by more than 1e-12 max(1, |x|),
    anything else at all."""
    if isinstance(stored, float) and type(made) is float:
        close = abs(made - stored) <= 1e-12 * max(1.0, abs(stored))
        return [] if close or made == stored else [f"{where}: {made!r} != {stored!r}"]
    if isinstance(stored, dict) and isinstance(made, dict) and list(made) == list(stored):
        return [d for key in stored for d in _agree(made[key], stored[key], f"{where}.{key}")]
    if isinstance(stored, list) and isinstance(made, list) and len(made) == len(stored):
        pairs = enumerate(zip(made, stored))
        return [d for i, (m, x) in pairs for d in _agree(m, x, f"{where}[{i}]")]
    if type(made) is type(stored) and made == stored and not isinstance(stored, (dict, list)):
        return []
    return [f"{where}: {made!r:.80} != {stored!r:.80}"]


@pytest.fixture
def make_goldens(monkeypatch):
    """tests/data/make_goldens.py as a module; the BLAS thread settings it
    writes into the environment on import are restored afterwards."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    spec = importlib.util.spec_from_file_location("make_goldens", DATA / "make_goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stored_documents_are_what_the_code_writes(make_goldens):
    made = make_goldens.documents()
    assert sorted(made) == [p.name for p in GOLDEN]
    for name, text in made.items():
        assert _agree(json.loads(text), _document(name), name) == []


def test_unknown_keys_are_ignored():
    document = _document("scan_even.json")
    text = serialize.envelope("stability_scan", document["payload"])
    document["payload"]["diagnostics"] = {"rows": 4}
    document["payload"]["records"][0]["krein_index"] = 1
    assert serialize.dumps(serialize.loads(json.dumps(document))) == text


def test_loaded_arrays_have_their_dtypes(check_reduced_row):
    scan = serialize.load(DATA / "scan_odd_full.json")
    wave = serialize.load(DATA / "wave_odd.json")
    assert scan.kappa_values.dtype == np.float64
    ops = hill_operators(wave, scan.sector)
    assert [record.path for record in scan.records] == ["dense", "reduced", "reduced"]
    for record in scan.records:
        # a row reports its unstable eigenvalues; a dense row has the whole
        # spectrum, a reduced row its growth pairs, which the whole spectrum
        # of M(kappa) checks
        row = growth_row(ops, record.kappa)
        assert row.eigenvalues.dtype == np.complex128
        if row.path == "dense":
            assert row.eigenvalues.shape == (64,)
        else:
            check_reduced_row(ops, row)
        assert row.record() == record
        assert all(type(lam) is complex for lam in record.unstable_eigenvalues)
        assert type(record.leading_lambda) is complex
    assert serialize.load(DATA / "spectrum_even_L1.json").eigenvalues.dtype == np.float64
    growth = serialize.load(DATA / "growth_const.json")
    assert growth.times.dtype == growth.norms.dtype == np.float64


def test_complex_pairs_keep_signed_zeros():
    document = _document("scan_even.json")
    document["payload"]["records"][0]["unstable_eigenvalues"][0] = [-0.0, -0.0]
    document["payload"]["records"][0]["leading_lambda"] = [1.5, -0.0]
    record = serialize.loads(json.dumps(document)).records[0]
    lam = record.unstable_eigenvalues[0]
    assert np.signbit(lam.real) and np.signbit(lam.imag)
    assert np.signbit(record.leading_lambda.imag)


def test_spectrum_with_eigenfunctions_roundtrip(even_wave):
    summary = spectrum(hill_operators(even_wave, "full"), "L1", n_eigenfunctions=3)
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
        ("scan_even.json", (), "leading_v2", lambda s: s.leading_v2),
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
        ("scan_even.json", ("records", 0), "unstable_eigenvalues", [[1.0, 2.0, 3.0]]),
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


# ---------------------------------------------------------------------------
# schema version 1

#: what a scan reports besides its rows, and what each row reports in both versions
SCAN_KEYS = ("wave_id", "sector", "kappa_values", "band_edges", "verdict",
             "reduced_rows", "dense_rows", "dense_bisections")
ROW_KEYS = ("kappa", "max_real_part", "num_unstable", "leading_lambda", "symmetry_defect")

#: DNS floats that moved in their last bits since the version-1 documents were
#: written: RK4 now steps each parity sector apart and samples its norms in
#: blocked products, and the prediction is the scan's Rayleigh-refined rate
DNS_FLOATS = ("norms", "fitted_rate", "fit_residual", "scanner_lambda", "relative_gap",
              "predicted_rate")


def _versions(name: str) -> tuple[dict, dict]:
    v1 = json.loads((V1 / name).read_text(encoding="utf-8"))
    return _document(name), v1


def _assert_same_scan(v2: dict, v1: dict) -> None:
    """The scan's keys and counts exactly; its floats as :func:`_agree` takes
    them.  Reduced rows moved in their last bits since the version-1
    documents were written: a row's spectrum is ``eigvalsh``'s and its growth
    modes come from inverse iteration."""
    for key in SCAN_KEYS:
        assert v2[key] == v1[key], key
    assert len(v2["records"]) == len(v1["records"])
    for new, old in zip(v2["records"], v1["records"]):
        made = {k: new[k] for k in ROW_KEYS}
        assert _agree(made, {k: old[k] for k in ROW_KEYS}) == []
        unstable = [lam for lam in old["eigenvalues"] if lam[0] > 1e-6]
        assert _agree(new["unstable_eigenvalues"], unstable) == []
    peak = max(range(len(v1["records"])), key=lambda i: v1["records"][i]["max_real_part"])
    assert _agree(v2["leading_v1"], v1["records"][peak]["leading_v1"]) == []
    assert _agree(v2["leading_v2"], v1["records"][peak]["leading_v2"]) == []


def _assert_same_dns(v2: dict, v1: dict) -> None:
    for key in DNS_FLOATS:
        if key in v2:
            new, old = np.asarray(v2.pop(key)), np.asarray(v1.pop(key))
            assert np.all(np.abs(new - old) <= 1e-12 * np.maximum(np.abs(old), 1.0)), key


#: hypotheses fields version 2 no longer records: (H1)'s and (H3)'s sampled
#: kappa grids, which S(kappa) = S(0) + kappa^2 I decides in closed form, and
#: (H3)'s sample of (S'(kappa)w, w) = 2 kappa ||w||^2, positive by construction
DELETED_HYPOTHESES = {"h1": ("kappa_grid", "min_eigs"),
                      "h3": ("kappa_grid", "min_eigs", "min_sprime_sample")}


def _assert_changed_fields(v2: dict, v1: dict) -> None:
    """Remove the deleted hypotheses fields from the version-1 document, and
    the fields version 2 added from the version-2 one after checking them:
    (H1)'s and (H3)'s notes, (H4)'s margin and the integrator of a pipeline
    report's DNS block."""
    new, old = v2.get("hypotheses", v2), v1.get("hypotheses", v1)
    # the version-1 samples hold as the closed form says
    assert all(m >= old["h1"]["beta"] for m in old["h1"]["min_eigs"])
    assert np.all(np.diff(old["h3"]["min_eigs"]) >= 0.0)
    for h, keys in DELETED_HYPOTHESES.items():
        for key in keys:
            assert key not in new[h]
            old[h].pop(key)
    assert new["h1"].pop("note").startswith("follows from S(kappa) = S(0) + kappa^2 I")
    assert new["h3"].pop("note") == "S'(kappa) = 2 kappa I"
    h4 = new["h4"]
    assert h4.pop("margin") == h4["gap"] / (10.0 * h4["zero_tolerance"]) >= 1.0
    if "dns" in v2:
        dns = v2["dns"]
        assert (dns.pop("scheme"), dns.pop("seed")) == ("explicit_rk4", "leading_eigenvector")
        assert dns.pop("time_step") > 0.0


@pytest.mark.parametrize("path", sorted(V1.glob("*.json")), ids=lambda p: p.name)
def test_version_1_document_loads(path):
    assert json.loads(path.read_text(encoding="utf-8"))["schema_version"] == 1
    loaded = serialize.load(path)
    assert json.loads(_redump(loaded))["schema_version"] == serialize.SCHEMA_VERSION
    if isinstance(loaded, StabilityScan):
        # the whole spectra and per-row fields are unknown keys now
        assert loaded.leading_v1 is None and loaded.leading_v2 is None
        for record in loaded.records:
            assert record.unstable_eigenvalues is None and record.path is None
            assert record.max_real_part >= 0.0


@pytest.mark.parametrize("name", ["scan_even.json", "scan_odd_full.json"])
def test_version_2_scan_rows_report_the_version_1_numbers(name):
    v2, v1 = _versions(name)
    _assert_same_scan(v2["payload"], v1["payload"])


@pytest.mark.parametrize(
    "name", [p.name for p in GOLDEN if not p.name.startswith("scan_")]
)
def test_version_2_differs_from_version_1_only_in_the_version(name):
    v2, v1 = _versions(name)
    assert (v2.pop("schema_version"), v1.pop("schema_version")) == (2, 1)
    if name.startswith(("pipeline_report", "hypotheses")):
        _assert_changed_fields(v2["payload"], v1["payload"])
    if name.startswith("pipeline_report"):
        _assert_same_scan(v2["payload"].pop("scan"), v1["payload"].pop("scan"))
        _assert_same_dns(v2["payload"]["dns"], v1["payload"]["dns"])
    if name.startswith("growth"):
        _assert_same_dns(v2["payload"], v1["payload"])
    assert v2 == v1
