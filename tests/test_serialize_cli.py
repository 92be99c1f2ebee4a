"""JSON/CSV artifacts and the command-line surface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnlstab
from gnlstab import cli, serialize
from gnlstab.cli import build_parser, main
from gnlstab.errors import FormatError, ParameterError, WaveAcceptanceError
from gnlstab.evolve import EvolutionConfig, evolve_and_fit
from gnlstab.hill import SpectrumSummary, build_block, build_hill, check_propositions, spectrum
from gnlstab.scan import HypothesisReport, scan_kappa
from gnlstab.spectral import FULL, ParityBasis
from gnlstab.waves import WaveProfile

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# JSON round trips


def test_wave_roundtrip_bit_identical(even_wave):
    again = serialize.loads(serialize.dumps(even_wave))
    assert isinstance(again, WaveProfile)
    assert again.params == even_wave.params
    assert np.array_equal(again.phi.values, even_wave.phi.values)
    assert again.phi.parity == even_wave.phi.parity
    assert again.phi.grid == even_wave.phi.grid
    assert again.ode_residual_norm == even_wave.ode_residual_norm
    assert again.functional_value == even_wave.functional_value
    assert again.constraint_value == even_wave.constraint_value
    assert again.detected_period == even_wave.detected_period


def test_spectrum_roundtrip(even_wave):
    summary = spectrum(build_hill(even_wave, "L1", ParityBasis(FULL, even_wave.phi.grid)))
    again = serialize.loads(serialize.dumps(summary))
    assert np.array_equal(again.eigenvalues, summary.eigenvalues)
    assert again.n_negative == summary.n_negative
    assert again.kernel_dimension == summary.kernel_dimension
    assert again.zero_tolerance == summary.zero_tolerance
    assert again.ambiguous == summary.ambiguous
    assert again.label == "L1" and again.wave_id == even_wave.wave_id


def test_propositions_roundtrip(even_wave):
    report = check_propositions(even_wave)
    again = serialize.loads(serialize.dumps(report))
    assert again.wave_id == report.wave_id
    assert again.parity == report.parity
    assert again.passed == report.passed
    assert again.notes == report.notes
    assert len(again.checks) == len(report.checks)
    for a, b in zip(again.checks, report.checks):
        assert (a.name, a.passed, a.expected, a.actual, a.margin) == (
            b.name,
            b.passed,
            b.expected,
            b.actual,
            b.margin,
        )


def test_hypotheses_roundtrip(even_hypotheses):
    again = serialize.loads(serialize.dumps(even_hypotheses))
    assert again.overall == even_hypotheses.overall
    for name in ("h0", "h1", "h2", "h3", "h4"):
        assert getattr(again, name) == getattr(even_hypotheses, name)


def test_scan_roundtrip(const_wave):
    scan = scan_kappa(const_wave, 0.3, 1.7, 8)
    again = serialize.loads(serialize.dumps(scan))
    assert again.wave_id == scan.wave_id
    assert again.sector == scan.sector
    assert again.verdict == scan.verdict
    assert np.array_equal(again.kappa_values, scan.kappa_values)
    assert again.band_edges == scan.band_edges
    assert len(again.records) == len(scan.records)
    for a, b in zip(again.records, scan.records):
        assert a.kappa == b.kappa
        assert a.unstable_eigenvalues == b.unstable_eigenvalues
        assert a.max_real_part == b.max_real_part
        assert a.num_unstable == b.num_unstable
        assert a.leading_lambda == b.leading_lambda
        assert a == b
    assert scan.leading_v1 is not None
    assert np.array_equal(again.leading_v1.values, scan.leading_v1.values)
    assert np.array_equal(again.leading_v2.values, scan.leading_v2.values)


def test_scan_solver_paths_roundtrip(tmp_path, even_scan, odd_full_scan):
    # the even scan reads its edge from the L1 spectrum without bisecting; the
    # odd wave in the full space has grid rows on both paths
    for scan in (even_scan, odd_full_scan):
        assert scan.reduced_rows + scan.dense_rows == len(scan.records)
        body = serialize.payload(scan)
        serialize.save(scan, tmp_path / "scan.json")
        again = serialize.load(tmp_path / "scan.json")
        for name in ("reduced_rows", "dense_rows", "dense_bisections"):
            assert body[name] == getattr(scan, name) == getattr(again, name)
        assert again.band_edges == scan.band_edges
    assert even_scan.dense_bisections == 0 and len(even_scan.band_edges) == 1
    assert odd_full_scan.reduced_rows >= 1 and odd_full_scan.dense_rows >= 1


def test_scan_payload_requires_solver_paths(const_wave):
    text = serialize.dumps(scan_kappa(const_wave, 0.3, 1.7, 4))
    document = json.loads(text)
    del document["payload"]["dense_rows"]
    with pytest.raises(FormatError, match="dense_rows"):
        serialize.loads(json.dumps(document))


def test_growth_roundtrip(const_wave):
    gm = evolve_and_fit(const_wave, 1.0, EvolutionConfig(final_time=8.0))
    again = serialize.loads(serialize.dumps(gm))
    assert np.array_equal(again.times, gm.times)
    assert np.array_equal(again.norms, gm.norms)
    assert again.fitted_rate == gm.fitted_rate
    assert again.fit_residual == gm.fit_residual
    assert again.predicted_rate == gm.predicted_rate
    assert (again.kappa, again.sector, again.scheme, again.seed) == (
        gm.kappa,
        gm.sector,
        gm.scheme,
        gm.seed,
    )


def test_json_bytes_stable(even_wave, even_hypotheses, const_wave):
    gm = evolve_and_fit(const_wave, 1.0, EvolutionConfig(final_time=8.0))
    scan = scan_kappa(const_wave, 0.3, 1.7, 8)
    records = [
        even_wave,
        spectrum(build_hill(even_wave, "L1", ParityBasis(FULL, even_wave.phi.grid))),
        check_propositions(even_wave),
        even_hypotheses,
        scan,
        gm,
    ]
    for record in records:
        text = serialize.dumps(record)
        assert text.endswith("\n") and text.count("\n") == 1  # one compact line
        assert serialize.dumps(serialize.loads(text)) == text
    assert serialize.dumps(scan_kappa(const_wave, 0.3, 1.7, 8)) == serialize.dumps(scan)


def test_numpy_scalars_roundtrip_as_python_values(even_hypotheses):
    h0 = {"passed": np.bool_(True), "count": np.int64(3), "value": np.float32(0.1)}
    report = HypothesisReport(
        wave_id=even_hypotheses.wave_id,
        sector=even_hypotheses.sector,
        h0=h0,
        h1=even_hypotheses.h1,
        h2=even_hypotheses.h2,
        h3=even_hypotheses.h3,
        h4=even_hypotheses.h4,
        overall=even_hypotheses.overall,
    )
    again = serialize.loads(serialize.dumps(report)).h0
    assert again == {"passed": True, "count": 3, "value": float(np.float32(0.1))}
    assert [type(again[k]) for k in ("passed", "count", "value")] == [bool, int, float]


# ---------------------------------------------------------------------------
# malformed input and refusal cases


def test_malformed_json_reports_byte_offset():
    with pytest.raises(FormatError, match="byte offset"):
        serialize.loads('{"schema_version": 1,')


def test_undecodable_file_is_a_format_error(tmp_path):
    path = tmp_path / "wave.json"
    path.write_bytes(b'{"schema_version": 1, "type": "wave_profile\xff"}')
    with pytest.raises(FormatError, match="not UTF-8 text"):
        serialize.load(path)


def test_unsupported_schema_version(even_wave):
    current = f'"schema_version": {serialize.SCHEMA_VERSION}'
    text = serialize.dumps(even_wave)
    assert current in text
    with pytest.raises(FormatError, match="schema_version"):
        serialize.loads(text.replace(current, '"schema_version": 99'))


@pytest.mark.parametrize("version", ["3", "0", "true", "2.0", '"2"'])
def test_loads_names_the_readable_versions(even_wave, version):
    text = serialize.dumps(even_wave).replace(
        f'"schema_version": {serialize.SCHEMA_VERSION}', f'"schema_version": {version}'
    )
    with pytest.raises(FormatError, match=r"schema_version .* \(expected 1 or 2\)"):
        serialize.loads(text)
    for readable in ("1", "2"):
        serialize.loads(text.replace(f'"schema_version": {version}', f'"schema_version": {readable}'))


def test_unknown_document_type():
    with pytest.raises(FormatError, match="unknown document type"):
        serialize.loads('{"schema_version": 1, "type": "mystery", "payload": {}}')


def test_top_level_must_be_object():
    with pytest.raises(FormatError):
        serialize.loads("[1, 2, 3]")


def test_nonfinite_floats_rejected(even_wave):
    summary = spectrum(build_hill(even_wave, "L2", ParityBasis(FULL, even_wave.phi.grid)))
    bad = SpectrumSummary(
        label=summary.label,
        wave_id=summary.wave_id,
        eigenvalues=np.array([0.0, np.nan]),
        n_negative=0,
        kernel_dimension=1,
        zero_tolerance=summary.zero_tolerance,
        ambiguous=False,
    )
    with pytest.raises(FormatError, match="non-finite"):
        serialize.dumps(bad)


@pytest.mark.parametrize(
    "body",
    [{"a": {"b": float("nan")}}, {"a": [0.0, float("inf")]}, {"a": [np.float32("-inf")]}],
)
def test_nonfinite_floats_rejected_anywhere(body):
    with pytest.raises(FormatError, match="non-finite"):
        serialize.envelope("pipeline_report", body)


@pytest.mark.parametrize(
    "body, type_name", [({"a": [object()]}, "object"), ({(1, 2): 0.5}, "tuple")]
)
def test_unserializable_values_raise_format_error(body, type_name):
    # FormatError is a ValueError: the writer must not relabel it "non-finite"
    with pytest.raises(FormatError, match=f"^cannot serialize .*{type_name}"):
        serialize.envelope("pipeline_report", body)


# ---------------------------------------------------------------------------
# CSV exports


def test_spectrum_csv_shape(even_wave):
    summary = spectrum(build_block(even_wave, "Lcal"))
    text = serialize.spectrum_csv(summary)
    lines = text.splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 1 + 256  # 2 * N eigenvalues for the block operator
    assert text.endswith("\n")


def test_scan_csv_header_and_stable_rows(const_wave):
    scan = scan_kappa(const_wave, 1.5, 2.5, 5)
    text = serialize.scan_csv(scan)
    lines = text.splitlines()
    assert lines[0] == "kappa,max_real_part,num_unstable_modes,leading_lambda_re,leading_lambda_im"
    assert len(lines) == 6
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[2] == "0"
        # stable rows record a zero leading rate by convention
        assert float(cells[3]) == 0.0 and float(cells[4]) == 0.0


def test_growth_csv_header(const_wave):
    gm = evolve_and_fit(const_wave, 1.0, EvolutionConfig(final_time=8.0))
    text = serialize.growth_csv(gm)
    lines = text.splitlines()
    assert lines[0] == "t,norm"
    assert len(lines) == 1 + len(gm.times)


def test_scan_csv_bytes_deterministic(const_wave):
    a = serialize.scan_csv(scan_kappa(const_wave, 0.3, 1.7, 8))
    b = serialize.scan_csv(scan_kappa(const_wave, 0.3, 1.7, 8))
    assert a == b


def _hex_column(lines, column):
    return [float(line.split(",")[column]).hex() for line in lines[1:]]


def test_csv_floats_parse_back_exactly(even_wave, even_scan, const_wave):
    summary = spectrum(build_hill(even_wave, "L1", ParityBasis(FULL, even_wave.phi.grid)))
    lines = serialize.spectrum_csv(summary).splitlines()
    assert _hex_column(lines, 1) == [float(x).hex() for x in summary.eigenvalues]

    lines = serialize.scan_csv(even_scan).splitlines()
    leading = [r.leading_lambda or 0j for r in even_scan.records]
    assert _hex_column(lines, 0) == [float(r.kappa).hex() for r in even_scan.records]
    assert _hex_column(lines, 1) == [float(r.max_real_part).hex() for r in even_scan.records]
    assert _hex_column(lines, 3) == [z.real.hex() for z in leading]
    assert _hex_column(lines, 4) == [z.imag.hex() for z in leading]

    gm = evolve_and_fit(const_wave, 1.0, EvolutionConfig(final_time=8.0))
    lines = serialize.growth_csv(gm).splitlines()
    assert _hex_column(lines, 0) == [float(t).hex() for t in gm.times]
    assert _hex_column(lines, 1) == [float(n).hex() for n in gm.norms]


# ---------------------------------------------------------------------------
# command-line surface (in-process)


def store_wave(wave, path) -> str:
    serialize.save(wave, path)
    return str(path)


def test_cli_solve_writes_wave(tmp_path, capsys):
    rc = main(
        [
            "solve",
            "--alpha",
            "2",
            "--omega",
            "1",
            "--tau",
            "12",
            "--modes",
            "64",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    wave = serialize.load(tmp_path / "wave.json")
    assert isinstance(wave, WaveProfile)
    assert wave.params.alpha == 2.0
    assert wave.phi.grid.size == 64
    assert "residual" in capsys.readouterr().out


def test_cli_solve_rejects_odd_cubic(tmp_path, capsys):
    rc = main(
        ["solve", "--alpha", "3", "--parity", "odd", "--tau", "5", "--out", str(tmp_path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "odd parity requires even integer alpha" in err


def test_cli_solve_requires_tau(tmp_path, capsys):
    rc = main(["solve", "--alpha", "2", "--out", str(tmp_path)])
    assert rc == 1
    assert "--tau is required" in capsys.readouterr().err


def test_cli_spectrum_stored_constant(tmp_path, const_wave, capsys):
    wave_path = store_wave(const_wave, tmp_path / "cw.json")
    rc = main(["spectrum", "--wave", wave_path, "--out", str(tmp_path)])
    assert rc == 0
    l1 = serialize.load(tmp_path / "spectrum_L1.json")
    l2 = serialize.load(tmp_path / "spectrum_L2.json")
    assert l1.n_negative == 3 and l1.kernel_dimension == 0
    assert l2.n_negative == 0 and l2.kernel_dimension == 1
    assert (tmp_path / "spectrum_L1.csv").is_file()
    assert (tmp_path / "spectrum_L2.csv").is_file()
    out = capsys.readouterr().out
    assert "n_negative=3" in out and "kernel_dimension=1" in out


def test_cli_spectrum_csv_only(tmp_path, const_wave):
    wave_path = store_wave(const_wave, tmp_path / "cw.json")
    rc = main(
        ["spectrum", "--wave", wave_path, "--out", str(tmp_path / "csvonly"), "--format", "csv"]
    )
    assert rc == 0
    assert (tmp_path / "csvonly" / "spectrum_L1.csv").is_file()
    assert not (tmp_path / "csvonly" / "spectrum_L1.json").exists()


def test_cli_verify_even_wave(tmp_path, even_wave, capsys):
    wave_path = store_wave(even_wave, tmp_path / "wave.json")
    rc = main(["verify", "--wave", wave_path, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "propositions.json").is_file()
    assert (tmp_path / "hypotheses.json").is_file()
    assert "verification passed" in capsys.readouterr().out


def test_cli_verify_constant_fails_scientifically(tmp_path, const_wave, capsys):
    wave_path = store_wave(const_wave, tmp_path / "cw.json")
    rc = main(["verify", "--wave", wave_path, "--out", str(tmp_path)])
    assert rc == 2
    assert "verification FAILED" in capsys.readouterr().out


def test_cli_scan_stored_wave(tmp_path, even_wave):
    wave_path = store_wave(even_wave, tmp_path / "wave.json")
    rc = main(
        [
            "scan",
            "--wave",
            wave_path,
            "--kappa-min",
            "0.05",
            "--kappa-max",
            "1.8",
            "--kappa-steps",
            "12",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    scan = serialize.load(tmp_path / "scan.json")
    assert scan.verdict == "transversally unstable"
    assert (tmp_path / "scan.csv").read_text().startswith("kappa,")


def test_cli_dns_summary(tmp_path, even_wave, even_scan):
    wave_path = store_wave(even_wave, tmp_path / "wave.json")
    kappa = even_scan.most_unstable.kappa
    rc = main(
        ["dns", "--wave", wave_path, "--kappa", f"{kappa:.6f}", "--out", str(tmp_path)]
    )
    assert rc == 0
    summary = serialize.load(tmp_path / "dns_summary.json")
    assert set(summary) == {
        "kappa",
        "fitted_rate",
        "fit_residual",
        "scanner_lambda",
        "relative_gap",
    }
    assert summary["relative_gap"] <= 0.02
    assert (tmp_path / "growth.json").is_file()
    assert (tmp_path / "growth.csv").read_text().startswith("t,norm")


def test_cli_dns_without_kappa_runs_on_the_default_grid(tmp_path, odd_wave, odd_hypotheses, capsys):
    # dns has no scan flags: without --kappa it scans 60 rows from 0 to 1.1 K
    # and integrates at the most unstable one
    wave_path = store_wave(odd_wave, tmp_path / "wave.json")
    assert main(["dns", "--wave", wave_path, "--out", str(tmp_path)]) == 0
    assert "most unstable kappa on default grid" in capsys.readouterr().out
    grid = scan_kappa(odd_wave, 0.0, 1.1 * odd_hypotheses.h1["K"], 60)
    assert serialize.load(tmp_path / "growth.json").kappa == grid.most_unstable.kappa


def test_cli_config_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"alpha": 2.0, "omega": 1.0, "tau": 12.0, "modes": 128}),
        encoding="utf-8",
    )
    rc = main(
        ["solve", "--config", str(cfg), "--modes", "64", "--out", str(tmp_path)]
    )
    assert rc == 0
    wave = serialize.load(tmp_path / "wave.json")
    # explicit flag beats the config value
    assert wave.phi.grid.size == 64
    assert wave.params.tau == 12.0


def test_cli_config_missing(tmp_path, capsys):
    rc = main(
        ["solve", "--alpha", "2", "--tau", "1", "--config", str(tmp_path / "nope.json")]
    )
    assert rc == 1
    assert "config file not found" in capsys.readouterr().err


def _out_is_a_file(tmp_path):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    return ["solve", "--alpha", "2", "--tau", "12", "--out", str(tmp_path / "taken")]


def _out_under_a_file(tmp_path):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    return ["solve", "--alpha", "2", "--tau", "12", "--out", str(tmp_path / "taken" / "run")]


def _config_not_utf8(tmp_path):
    (tmp_path / "run.json").write_bytes(b'{"alpha": "\xff"}')
    return ["solve", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path)]


def _wave_not_utf8(tmp_path):
    (tmp_path / "wave.json").write_bytes(b"\xff\xfe{}")
    return ["spectrum", "--wave", str(tmp_path / "wave.json"), "--out", str(tmp_path)]


@pytest.mark.parametrize(
    "make_argv", [_out_is_a_file, _out_under_a_file, _config_not_utf8, _wave_not_utf8]
)
def test_cli_bad_io_is_a_tagged_input_error(tmp_path, capsys, make_argv):
    assert main(make_argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("[cli_io] ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, values, key",
    [
        ("solve", {"alpha": "two", "tau": 12}, "alpha"),
        ("solve", {"alpha": 2, "tau": 12, "modes": "many"}, "modes"),
        ("scan", {"kappa_steps": "ten"}, "kappa_steps"),
        ("solve", {"alpha": 2, "tau": 12, "modes": 64.7}, "modes"),
        ("spectrum", {"format": "xml"}, "format"),
    ],
)
def test_cli_config_values_meet_flag_types(tmp_path, const_wave, capsys, command, values, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command != "solve":
        argv += ["--wave", store_wave(const_wave, tmp_path / "cw.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[cli_io] config key {key!r}: argument --{key.replace('_', '-')}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["kapa_steps", "zero_tolerence"])
def test_cli_config_key_naming_no_flag_is_an_error(tmp_path, capsys, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 2, "tau": 12, key: 8}), encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"[cli_io] config key {key!r} names no flag of any subcommand\n"
    assert not (tmp_path / "out").exists()


def test_cli_config_skips_keys_of_other_subcommands(tmp_path):
    # one file serves the whole solve -> pipeline chain
    cfg = tmp_path / "run.json"
    values = {"alpha": 2, "tau": 12, "modes": 64, "format": "csv", "zero_tolerance": 1e-3,
              "kappa": 1.0, "kappa_steps": 8, "sector": "odd", "wave": "none.json"}
    cfg.write_text(json.dumps(values), encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert serialize.load(tmp_path / "wave.json").phi.grid.size == 64


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("spectrum", ["--alpha", "3", "--modes", "512"], "--alpha, --modes"),
        ("verify", ["--parity", "odd"], "--parity"),
        ("scan", ["--omega", "2", "--period", "7"], "--omega, --period"),
        ("dns", ["--tau", "12"], "--tau"),
    ],
)
def test_cli_problem_flags_with_a_stored_wave_are_an_error(
    tmp_path, const_wave, capsys, command, flags, named
):
    # the stored wave fixes the problem: a flag that would change it is not ignored
    wave_path = store_wave(const_wave, tmp_path / "cw.json")
    argv = [command, "--wave", wave_path, *flags, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"[cli_io] {named} cannot be given with --wave")
    assert not (tmp_path / "out").exists()


def test_cli_problem_flags_and_a_configured_wave(tmp_path, const_wave, capsys):
    # a --wave read from --config fixes the problem as well
    cfg = tmp_path / "run.json"
    wave_path = store_wave(const_wave, tmp_path / "cw.json")
    cfg.write_text(json.dumps({"wave": wave_path}), encoding="utf-8")
    argv = ["spectrum", "--config", str(cfg), "--modes", "512", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("[cli_io] --modes cannot be given with --wave")
    assert not (tmp_path / "out").exists()


def test_cli_config_problem_keys_are_skipped_with_a_stored_wave(tmp_path, const_wave):
    # one file serves the whole solve -> pipeline chain, so its problem keys
    # are not an error with --wave: the stored wave is used as it is
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 3, "tau": 12, "modes": 512}), encoding="utf-8")
    argv = ["spectrum", "--config", str(cfg), "--wave", store_wave(const_wave, tmp_path / "cw.json")]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    summary = serialize.load(tmp_path / "spectrum_L1.json")
    assert summary.wave_id == const_wave.wave_id
    assert summary.eigenvalues.size == const_wave.phi.grid.size


def test_cli_config_values_take_flag_types(tmp_path, const_wave):
    # a config value is converted like the flag's text, not passed on raw
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"zero_tolerance": "1e-3"}), encoding="utf-8")
    wave_path = store_wave(const_wave, tmp_path / "cw.json")
    assert main(["spectrum", "--config", str(cfg), "--wave", wave_path, "--out", str(tmp_path)]) == 0
    assert serialize.load(tmp_path / "spectrum_L1.json").zero_tolerance == 1e-3


def test_cli_pipeline_report(tmp_path):
    rc = main(
        [
            "pipeline",
            "--alpha",
            "2",
            "--omega",
            "1",
            "--tau",
            "12",
            "--kappa-min",
            "0.05",
            "--kappa-max",
            "1.8",
            "--kappa-steps",
            "8",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = serialize.load(tmp_path / "pipeline_report.json")
    assert set(report) >= {
        "problem",
        "wave",
        "spectra",
        "propositions",
        "hypotheses",
        "scan",
        "convergence_certificate",
        "dns",
        "verdict",
        "overall_passed",
    }
    assert report["verdict"] == "transversally unstable"
    assert report["overall_passed"] is True
    cert = report["convergence_certificate"]
    assert cert["passed"] is True
    assert cert["max_delta"] <= cert["tolerance"] == 1e-9
    assert report["dns"]["relative_gap"] <= 0.02
    # the DNS predicts from the scan's own row at the peak, bit for bit
    peak = max(report["scan"]["records"], key=lambda r: r["max_real_part"])
    assert report["dns"]["kappa"] == peak["kappa"]
    assert report["dns"]["scanner_lambda"] == peak["max_real_part"]


def test_cli_pipeline_honours_sector(tmp_path):
    argv = ["pipeline", "--alpha", "2", "--omega", "1", "--parity", "even", "--tau", "12",
            "--modes", "64", "--kappa-steps", "8"]
    for extra, sector in (([], "full"), (["--sector", "even"], "even")):
        out = tmp_path / sector
        assert main(argv + extra + ["--out", str(out)]) == 0
        report = serialize.load(out / "pipeline_report.json")
        assert report["hypotheses"]["sector"] == report["scan"]["sector"] == sector


def test_cli_pipeline_default_range_reuses_hypotheses(tmp_path, monkeypatch):
    # without --kappa-max the scan ends at 1.1 K, K taken from the pipeline's
    # own (H1) record rather than from a second verification
    import gnlstab.cli as cli
    import gnlstab.hill as hill

    calls = {"verify": 0, "assembly": 0}
    verify, assemble = cli.verify_hypotheses, hill.hill_matrix

    def counting_verify(*args, **kwargs):
        calls["verify"] += 1
        return verify(*args, **kwargs)

    def counting_assemble(*args, **kwargs):
        calls["assembly"] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_hypotheses", counting_verify)
    monkeypatch.setattr(hill, "hill_matrix", counting_assemble)
    rc = main(
        ["pipeline", "--alpha", "2", "--tau", "12", "--kappa-steps", "8", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = serialize.load(tmp_path / "pipeline_report.json")
    assert calls["verify"] == 1
    assert report["scan"]["kappa_values"][-1] == 1.1 * report["hypotheses"]["h1"]["K"]
    # L1 and L2 are assembled once per wave and sector in each consumer:
    # spectra, propositions, hypotheses, scan, certificate (two waves), DNS
    assert calls["assembly"] <= 20


@pytest.mark.parametrize("command", ["verify", "pipeline"])
def test_cli_commands_never_build_the_synthesis_matrix(tmp_path, even_wave, monkeypatch, command):
    # assembly and basis transforms go through FFTs; the N x d synthesis
    # matrix is only the tests' oracle
    calls = []
    matrix = ParityBasis.matrix

    def counting_matrix(self):
        calls.append(self.kind)
        return matrix(self)

    monkeypatch.setattr(ParityBasis, "matrix", counting_matrix)
    if command == "verify":
        argv = ["verify", "--wave", store_wave(even_wave, tmp_path / "wave.json")]
    else:
        argv = ["pipeline", "--alpha", "2", "--tau", "12", "--kappa-min", "0.05",
                "--kappa-max", "1.8", "--kappa-steps", "8"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert calls == []


def test_lapack_failure_is_a_tagged_scientific_error(tmp_path, even_wave, monkeypatch, capsys):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    wave_path = store_wave(even_wave, tmp_path / "wave.json")
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    rc = main(["scan", "--wave", wave_path, "--kappa-min", "0.05", "--kappa-max", "1.8",
               "--kappa-steps", "4", "--out", str(tmp_path)])
    assert rc == 2
    assert "[instability_scanner] Eigenvalues did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, code",
    [
        (OSError("disk full"), 1),
        (np.linalg.LinAlgError("disk full"), 2),
        (WaveAcceptanceError("disk full"), 2),
        (ParameterError("disk full"), 1),
    ],
)
def test_errors_outside_a_stage_exit_tagged_with_the_command(monkeypatch, capsys, exc, code):
    import gnlstab.cli as cli

    def failing(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "solve", failing)
    assert main(["solve", "--alpha", "2", "--tau", "12"]) == code
    assert capsys.readouterr().err == "[solve] disk full\n"


def test_cli_import_loads_no_scipy():
    # every eigensolve runs on numpy.linalg; scipy is a test-only dependency.
    # The child imports gnlstab from where this process found it: pytest's
    # pythonpath setting does not reach a subprocess
    package_root = str(Path(gnlstab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, gnlstab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_pipeline_and_verify_leave_numpy_random_unimported(tmp_path):
    # the certified path draws no random numbers: the scan's probe and
    # inverse-iteration start and the vector of (H3) are fixed, so
    # numpy.random is never loaded.  numpy loads it lazily, on first use
    package_root = str(Path(gnlstab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = """if True:
        import contextlib, io, sys
        from gnlstab.cli import main
        out, problem = sys.argv[1], ["--alpha", "2", "--tau", "auto:amplitude=1.5", "--modes", "32"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                main(["solve", *problem, "--out", out]),
                main(["verify", "--wave", out + "/wave.json", "--out", out]),
                main(["pipeline", *problem, "--kappa-steps", "4", "--out", out]),
            ]
        print(codes, "numpy.random" in sys.modules)
    """
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0] False"


def test_module_entry_point(tmp_path):
    # the child imports gnlstab from where this process found it: pytest's
    # pythonpath setting does not reach a subprocess
    package_root = str(Path(gnlstab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "gnlstab.cli",
            "solve",
            "--alpha",
            "2",
            "--tau",
            "12",
            "--modes",
            "64",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "wave.json").is_file()


def test_pipeline_names_the_constant_regime(tmp_path, capsys):
    # alpha = 0.5, omega = 1, L = 2 pi: L sqrt(alpha omega) = 4.44 <= 2 pi, so the
    # even minimizer is the constant state and "profile non-constant" fails
    argv = ["pipeline", "--alpha", "0.5", "--omega", "1", "--period", repr(2.0 * np.pi),
            "--parity", "even", "--tau", "1", "--modes", "64", "--out", str(tmp_path)]
    assert main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "[cli_io] pipeline checks FAILED"
    assert lines[-2] == (
        "[hill_spectra] constant-state regime: L*sqrt(alpha*omega) = 4.44288 <= 2*pi = "
        "6.28319, the threshold above which nonconstant even waves bifurcate from the "
        "constant state"
    )
    assert lines[1] == "[hill_spectra] propositions FAILED"
    report = serialize.load(tmp_path / "pipeline_report.json")
    failed = [c["name"] for c in report["propositions"]["checks"] if not c["passed"]]
    assert "profile non-constant" in failed
    assert report["overall_passed"] is False


def test_pipeline_names_each_failing_check(tmp_path, capsys, monkeypatch):
    # the constant-regime even wave above: stdout names every failing
    # proposition with its expected and actual values, as verify prints them,
    # and every failing hypothesis
    verify_hypotheses = cli.verify_hypotheses

    def h3_failed(*args, **kwargs):
        report = verify_hypotheses(*args, **kwargs)
        return dataclasses.replace(report, h3={**report.h3, "passed": False}, overall=False)

    monkeypatch.setattr(cli, "verify_hypotheses", h3_failed)
    argv = ["pipeline", "--alpha", "0.5", "--omega", "1", "--period", repr(2.0 * np.pi),
            "--parity", "even", "--tau", "1", "--modes", "64", "--out", str(tmp_path)]
    assert main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    report = serialize.load(tmp_path / "pipeline_report.json")
    failed = [c for c in report["propositions"]["checks"] if not c["passed"]]
    assert "profile non-constant" in [c["name"] for c in failed]
    at = lines.index("[hill_spectra] propositions FAILED")
    assert lines[at + 1 : at + 1 + len(failed)] == [
        f"[hill_spectra] {c['name']}: FAILED (expected {c['expected']}, got {c['actual']})"
        for c in failed
    ]
    assert (
        "[hill_spectra] profile non-constant: FAILED (expected non-constant, got constant)"
        in lines
    )
    at = lines.index("[instability_scanner] hypotheses FAILED")
    assert lines[at + 1] == "[instability_scanner] H3: FAILED"
    assert not lines[at + 2].startswith("[instability_scanner] H")


def test_passing_pipeline_prints_no_check_lines(tmp_path, capsys):
    argv = ["pipeline", "--alpha", "2", "--omega", "1", "--tau", "12", "--modes", "32",
            "--kappa-steps", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert "[hill_spectra] propositions passed\n[instability_scanner] hypotheses passed\n" in out


def test_under_resolved_wave_is_a_scientific_error_naming_more_modes(tmp_path, capsys):
    argv = ["solve", "--alpha", "3", "--omega", "4", "--period", repr(8.0 * np.pi),
            "--parity", "even", "--tau", "1", "--modes", "64", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "under-resolved at N=64; rerun with --modes 128" in capsys.readouterr().err


#: the flags of each subcommand, each read by its ``cmd_*`` function
COMMON_FLAGS = {"config", "out", "alpha", "omega", "period", "parity", "modes", "tau"}
SCAN_FLAGS = {"kappa_min", "kappa_max", "kappa_steps", "sector"}
DNS_FLAGS = {"scheme", "dns_seed", "final_time", "time_step", "rng_seed"}
FLAG_TABLE = {
    "solve": COMMON_FLAGS,
    "spectrum": COMMON_FLAGS | {"format", "zero_tolerance", "wave"},
    "verify": COMMON_FLAGS | {"zero_tolerance", "wave", "sector"},
    "scan": COMMON_FLAGS | {"format", "wave"} | SCAN_FLAGS,
    "dns": COMMON_FLAGS | {"format", "wave", "sector", "kappa"} | DNS_FLAGS,
    "pipeline": COMMON_FLAGS | {"zero_tolerance"} | SCAN_FLAGS | DNS_FLAGS,
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    flags = {name: set(vars(parser.parse_args([name]))) - {"command"} for name in FLAG_TABLE}
    assert flags == FLAG_TABLE
    sizes = {name: len(names) for name, names in flags.items()}
    assert sizes == {"solve": 8, "spectrum": 11, "verify": 11, "scan": 14, "dns": 17, "pipeline": 18}
    assert sum(sizes.values()) == 79


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pipeline", "--alpha", "2", "--tau", "12", "--kappa", "1"], "ambiguous option: --kappa"),
        (["solve", "--alpha", "2", "--tau", "12", "--format", "csv"],
         "unrecognized arguments: --format csv"),
        (["scan", "--alpha", "2", "--tau", "12", "--zero-tolerance", "-5"],
         "unrecognized arguments: --zero-tolerance -5"),
        (["solve", "--alpha", "2", "--tau", "12", "--modes", "abc"],
         "argument --modes: invalid int value: 'abc'"),
        (["survey", "--alpha", "2"], "argument command: invalid choice: 'survey'"),
    ],
)
def test_usage_errors_are_tagged_input_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[cli_io] ") and message in err
    assert "usage:" not in err
    assert not out.exists()


def help_text(parse, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exit:
        parse(argv)
    assert exit.value.code == 0
    return capsys.readouterr().out


def test_main_builds_its_parser_once(monkeypatch, capsys):
    import gnlstab.cli as cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._shared_parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["solve", "--alpha", "2"]) == 1
    finally:
        cli._shared_parser.cache_clear()
    assert len(builds) == 1
    assert "--tau is required" in capsys.readouterr().err
    assert build() is not build()
    # the shared parser prints a fresh parser's help, byte for byte
    for argv in (["--help"], ["pipeline", "--help"]):
        assert help_text(main, argv, capsys) == help_text(build().parse_args, argv, capsys)


@pytest.mark.parametrize("command", ["pipeline", "dns"])
def test_bad_time_step_fails_before_any_work(tmp_path, monkeypatch, capsys, command):
    import gnlstab.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a bad --time-step must stop the run before any wave is solved")

    monkeypatch.setattr(cli, "solve_wave", never)
    monkeypatch.setattr(cli, "tau_for_amplitude", never)
    out = tmp_path / "run"
    argv = [command, "--alpha", "2", "--tau", "auto:amplitude=1.5", "--modes", "64",
            "--time-step", "nan", "--out", str(out)]
    assert main(argv + (["--kappa", "1"] if command == "dns" else [])) == 1
    assert capsys.readouterr().err == "[dns_validator] time_step must be positive, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "dns"])
def test_negative_rng_seed_fails_before_any_work(tmp_path, monkeypatch, capsys, command):
    import gnlstab.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a negative --rng-seed must stop the run before any wave is solved")

    monkeypatch.setattr(cli, "solve_wave", never)
    out = tmp_path / "run"
    argv = [command, "--alpha", "2", "--tau", "12", "--modes", "32", "--dns-seed", "random",
            "--rng-seed", "-1", "--out", str(out)]
    assert main(argv + (["--kappa", "0.9"] if command == "dns" else [])) == 1
    assert capsys.readouterr().err == (
        "[dns_validator] rng_seed must be a nonnegative integer, got -1\n"
    )
    assert not out.exists()
