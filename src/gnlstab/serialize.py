"""Round-trippable JSON artifacts and flat CSV exports.

Every JSON document is an envelope {"schema_version": 2, "type": ...,
"payload": ...}, written by the standard ``json`` encoder as one compact line
(``python -m json.tool`` pretty-prints it).  JSON and CSV write every float
as its shortest round-trip text, ``repr(float)``, so a write/read cycle
reproduces the double exactly.  Every write failure, a non-finite float
included, is a FormatError; parsing failures carry the byte offset of the
problem.

A payload is the result dataclass's fields in declaration order, nested
results as objects, tuples and arrays as lists, complex numbers (scalars and
array entries alike) as ``[re, im]`` pairs.  Two types are laid out by hand:
a ``WaveProfile`` writes its ``ProblemParams`` fields flat in front of its
own and appends the derived ``multiplier`` and ``wave_id``; a ``RealField``
is ``length, size, parity, values``.  Loading converts each value to its
field's annotated type: a list of ``[re, im]`` pairs in an array field loads
as complex128, any other array as float64.  An ``Optional`` field may be
absent or null and then loads as None; every other field is required and
must not be null, and unknown keys are ignored.

Version 2 changed only the scan: a row holds what it reports, its unstable
eigenvalues instead of its whole spectrum, and its solver path, and the
scan holds the most unstable row's mode fields instead of every row's.
``loads`` reads version 1 too: the per-row spectra and fields are unknown
keys there, and the fields version 1 lacks are ``Optional`` and load as
None.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import typing

import numpy as np

from .errors import FormatError
from .evolve import GrowthMeasurement
from .hill import PropositionReport, SpectrumSummary
from .scan import HypothesisReport, StabilityScan
from .spectral import PeriodicGrid, RealField
from .waves import WaveProfile

SCHEMA_VERSION = 2

#: versions ``loads`` reads: version 1 differs only in its scan rows
_READABLE_VERSIONS = (1, 2)

#: document type of each top-level result
_TYPE_NAMES = {
    WaveProfile: "wave_profile",
    SpectrumSummary: "spectrum_summary",
    PropositionReport: "proposition_report",
    HypothesisReport: "hypothesis_report",
    StabilityScan: "stability_scan",
    GrowthMeasurement: "growth_measurement",
}

#: loader of each document type; combined pipeline reports stay plain dicts
_CLASSES = {name: cls for cls, name in _TYPE_NAMES.items()} | {"pipeline_report": dict}


# ---------------------------------------------------------------------------
# emission


def _plain(value):
    """numpy scalars as Python values; the ``default`` hook of the encoder."""
    if isinstance(value, np.generic):
        return value.item()
    raise FormatError(f"cannot serialize value of type {type(value).__name__}")


def _encode(value):
    """A field value as JSON data; see the module docstring for the layout."""
    if isinstance(value, RealField):
        return {**_encode(value.grid), "parity": value.parity, "values": value.values.tolist()}
    if dataclasses.is_dataclass(value):
        body = {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, WaveProfile):
            body = {**body.pop("params"), **body}
            body.update(multiplier=value.multiplier, wave_id=value.wave_id)
        return body
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return np.column_stack((value.real, value.imag)).tolist()
        return value.astype(float, copy=False).tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def payload(obj) -> dict:
    """The payload dict a result object serializes to (no envelope)."""
    if type(obj) not in _TYPE_NAMES:
        raise FormatError(f"no serializer for objects of type {type(obj).__name__}")
    return _encode(obj)


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
    return envelope(_TYPE_NAMES[type(obj)], body)


def save(obj, path) -> None:
    save_csv(dumps(obj), path)


# ---------------------------------------------------------------------------
# parsing


@functools.cache
def _schema(cls) -> tuple:
    """(name, annotated type, optional) per field of ``cls``, Optional unwrapped."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        optional = typing.get_origin(hint) is typing.Union and type(None) in args
        if optional:
            (hint,) = (a for a in args if a is not type(None))
        out.append((f.name, hint, optional))
    return tuple(out)


def _need(data: dict, key: str):
    """A required field's value; null counts as missing."""
    if data.get(key) is None:
        raise FormatError(f"payload is missing required field {key!r}")
    return data[key]


def _decode(cls, data):
    """Build ``cls`` from its payload, each field converted to its annotated type."""
    if not isinstance(data, dict):
        raise FormatError(f"{cls.__name__} payload must be an object, got {type(data).__name__}")
    if cls is RealField:
        values = np.asarray(_need(data, "values"), dtype=float)
        return RealField(_decode(PeriodicGrid, data), values, str(_need(data, "parity")))
    if cls is WaveProfile:
        # the problem parameters sit flat in the wave's own payload
        data = {**data, "params": data}
    fields = {}
    for name, hint, optional in _schema(cls):
        value = data.get(name) if optional else _need(data, name)
        fields[name] = None if value is None else _convert(hint, value)
    return cls(**fields)


def _convert(hint, value):
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_convert(item, v) for v in value)
    if hint is np.ndarray:
        array = np.asarray(value, dtype=float)
        if array.ndim == 2 and array.shape[1] == 2:
            # [re, im] pairs; the view keeps every bit, signed zeros included
            return array.view(complex).ravel()
        if array.ndim != 1:
            raise FormatError(f"expected numbers or [re, im] pairs, got shape {array.shape}")
        return array
    if hint is complex:
        re, im = value
        return complex(re, im)
    if dataclasses.is_dataclass(hint):
        return _decode(hint, value)
    return hint(value)


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
    if type(version) is not int or version not in _READABLE_VERSIONS:
        expected = " or ".join(map(str, _READABLE_VERSIONS))
        raise FormatError(f"unsupported schema_version {version!r} (expected {expected})")
    type_name = document.get("type")
    if type_name not in _CLASSES:
        raise FormatError(f"unknown document type {type_name!r}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise FormatError("envelope payload must be an object")
    cls = _CLASSES[type_name]
    if cls is dict:
        return payload
    try:
        return _decode(cls, payload)
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


def _floats(values) -> list:
    """repr of each value as a Python float, with one finiteness check over
    all of them; a non-finite value raises as :func:`_f` does on the first."""
    array = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(array)):
        for x in values:
            _f(x)
    return [repr(x) for x in array.tolist()]


def spectrum_csv(summary: SpectrumSummary) -> str:
    eigenvalues = np.asarray(summary.eigenvalues, dtype=float)
    lines = ["index,eigenvalue"]
    lines.extend(f"{i},{lam}" for i, lam in enumerate(_floats(eigenvalues)))
    return "\n".join(lines) + "\n"


def scan_csv(scan: StabilityScan) -> str:
    values = []
    for r in scan.records:
        lam = r.leading_lambda if r.leading_lambda is not None else complex(0.0, 0.0)
        values.extend((r.kappa, r.max_real_part, lam.real, lam.imag))
    text = _floats(values)
    lines = ["kappa,max_real_part,num_unstable_modes,leading_lambda_re,leading_lambda_im"]
    for i, r in enumerate(scan.records):
        kappa, rate, re, im = text[4 * i : 4 * i + 4]
        lines.append(f"{kappa},{rate},{r.num_unstable},{re},{im}")
    return "\n".join(lines) + "\n"


def growth_csv(gm: GrowthMeasurement) -> str:
    times = np.asarray(gm.times, dtype=float)
    norms = np.asarray(gm.norms, dtype=float)
    steps = min(times.size, norms.size)
    # as Python floats, which the refusal of a non-finite value names
    text = _floats(np.column_stack((times[:steps], norms[:steps])).ravel().tolist())
    lines = ["t,norm"]
    lines.extend(f"{t},{n}" for t, n in zip(text[::2], text[1::2]))
    return "\n".join(lines) + "\n"


def save_csv(text: str, path) -> None:
    """Write an artifact's text (CSV or JSON) with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
