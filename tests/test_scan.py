"""Transverse wavenumber scan: growth rates, band edges, hypotheses."""

import numpy as np
import pytest
import scipy.linalg

import oracles
from gnlstab.errors import ParameterError
from gnlstab.hill import build_block, build_hill
from gnlstab.scan import (
    EDGE_LEVEL,
    UNSTABLE_THRESHOLD,
    evolution_block,
    instability_eigs,
    resolve_sector,
    scan_kappa,
    verify_hypotheses,
)
from gnlstab.spectral import COSINE, FULL, SINE, ParityBasis
from gnlstab.waves import constant_wave, wave_at_resolution

TWO_PI = 2.0 * np.pi


def quadruple_defect(eigenvalues: np.ndarray) -> float:
    """Distance of the set from closure under negation and conjugation."""
    worst = 0.0
    for lam in eigenvalues:
        worst = max(worst, float(np.min(np.abs(eigenvalues + lam))))
        worst = max(worst, float(np.min(np.abs(eigenvalues - np.conj(lam)))))
    return worst


# ---------------------------------------------------------------------------
# constant-state closed form


def test_constant_growth_closed_form(const_wave):
    for kappa in (0.5, 1.0, 1.3):
        eigs = instability_eigs(const_wave, kappa)
        expected = oracles.constant_growth_rate(kappa, 2.0, 1.0, TWO_PI)
        assert abs(eigs.max_real_part - expected) <= 1e-8


def test_constant_band_edge(const_wave):
    scan = scan_kappa(const_wave, 0.05, 2.0, 40)
    assert scan.verdict == "transversally unstable"
    assert len(scan.band_edges) == 1
    assert abs(scan.band_edges[0] - np.sqrt(2.0)) <= 1e-4


def test_constant_stable_beyond_cutoff(const_wave):
    # above kappa = sqrt(alpha * omega) every mode is neutral
    scan = scan_kappa(const_wave, 1.5, 2.5, 11)
    assert scan.verdict == "no instability detected"
    assert max(r.max_real_part for r in scan.records) <= 1e-8


# ---------------------------------------------------------------------------
# variational waves


def test_even_scan_unstable_band(even_scan, even_hypotheses):
    assert even_scan.verdict == "transversally unstable"
    peak = even_scan.most_unstable
    assert peak.max_real_part > UNSTABLE_THRESHOLD
    assert peak.num_unstable >= 1
    assert peak.leading_lambda.real == pytest.approx(peak.max_real_part)
    # the band terminates where S(kappa) turns positive
    assert len(even_scan.band_edges) >= 1
    assert abs(even_scan.band_edges[-1] - even_hypotheses.h1["K"]) <= 1e-4


def test_odd_scan_unstable_band(odd_scan, odd_hypotheses):
    assert odd_scan.verdict == "transversally unstable"
    assert odd_scan.sector == "odd"
    assert odd_scan.most_unstable.max_real_part > UNSTABLE_THRESHOLD
    assert abs(odd_scan.band_edges[-1] - odd_hypotheses.h1["K"]) <= 1e-4


def test_stability_above_threshold(even_wave, even_hypotheses):
    k_thresh = even_hypotheses.h1["K"]
    for kappa in (k_thresh * 1.001, k_thresh + 0.5, k_thresh + 2.0):
        eigs = instability_eigs(even_wave, kappa)
        assert eigs.max_real_part <= 1e-8


def test_quadruple_symmetry_across_scan(even_scan, odd_scan):
    # recomputed defect, not the stored one
    for scan in (even_scan, odd_scan):
        for record in scan.records:
            assert quadruple_defect(record.eigenvalues) <= 1e-8
            assert record.symmetry_defect <= 1e-8


def test_lambda_squared_reduction_independent(even_wave):
    # lambda^2 must be an eigenvalue of -(L2+k^2)(L1+k^2), assembled here
    # from the scalar operators directly
    basis = ParityBasis(FULL, even_wave.phi.grid)
    l1 = build_hill(even_wave, "L1", basis).entries
    l2 = build_hill(even_wave, "L2", basis).entries
    for kappa in (0.3, 1.0, 1.5):
        eigs = instability_eigs(even_wave, kappa)
        shift = kappa**2 * np.eye(basis.dimension)
        nu = scipy.linalg.eigvals(-(l2 + shift) @ (l1 + shift))
        top = np.argsort(np.abs(eigs.eigenvalues))[-10:]
        for idx in top:
            lam2 = eigs.eigenvalues[idx] ** 2
            assert float(np.min(np.abs(nu - lam2))) <= 1e-7 * (1.0 + abs(lam2))


def test_evolution_block_layout(even_wave):
    kappa = 0.8
    block, basis = evolution_block(even_wave, kappa)
    d = basis.dimension
    l1 = build_hill(even_wave, "L1", basis).entries
    l2 = build_hill(even_wave, "L2", basis).entries
    assert np.array_equal(block[:d, d:], l2 + kappa**2 * np.eye(d))
    assert np.array_equal(block[d:, :d], -(l1 + kappa**2 * np.eye(d)))
    assert not block[:d, :d].any()
    assert not block[d:, d:].any()


@pytest.mark.parametrize("size", [32, 256])
def test_evolution_block_matches_column_reference(even_wave, odd_wave, size):
    kappa = 0.8
    for wave in (wave_at_resolution(even_wave, size), wave_at_resolution(odd_wave, size)):
        grid, params = wave.phi.grid, wave.params
        for sector, kind in (("even", COSINE), ("odd", SINE), ("full", FULL)):
            ref_l1, ref_l2 = oracles.hill_pair_reference(
                kind, grid.length, grid.size, params.alpha, params.omega, wave.phi.values
            )
            shift = kappa**2 * np.eye(ref_l1.shape[0])
            zero = np.zeros_like(ref_l1)
            ref = np.block([[zero, ref_l2 + shift], [-(ref_l1 + shift), zero]])
            block, _ = evolution_block(wave, kappa, sector)
            assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_instability_eigs_carries_its_block(odd_wave):
    eigs = instability_eigs(odd_wave, 1.3)
    block, basis = evolution_block(odd_wave, 1.3, eigs.sector)
    assert basis == eigs.basis
    assert np.array_equal(eigs.block, block)


def test_kappa_zero_generalized_kernel(even_wave):
    # at kappa = 0 the symmetry generators give a four-dimensional generalized
    # kernel (two Jordan blocks); everything else is oscillatory
    eigs = instability_eigs(even_wave, 0.0)
    assert eigs.max_real_part <= 1e-5
    small = np.sum(np.abs(eigs.eigenvalues) <= 1e-4)
    assert small == 4


def test_leading_mode_fields(even_scan):
    peak = even_scan.most_unstable
    assert peak.leading_v1 is not None and peak.leading_v2 is not None
    n1 = np.linalg.norm(peak.leading_v1.values)
    n2 = np.linalg.norm(peak.leading_v2.values)
    assert n1 > 0.0 and n2 > 0.0
    assert peak.leading_v1.grid.size == even_scan.records[0].leading_v1.grid.size


def test_scan_is_deterministic(even_wave, even_scan):
    again = scan_kappa(even_wave, 0.05, 1.8, 60)
    assert np.array_equal(again.kappa_values, even_scan.kappa_values)
    for a, b in zip(again.records, even_scan.records):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.max_real_part == b.max_real_part
    assert again.band_edges == even_scan.band_edges


# ---------------------------------------------------------------------------
# hypotheses


def test_even_hypotheses_pass(even_wave, even_hypotheses):
    report = even_hypotheses
    assert report.overall
    assert report.sector == "full"
    assert report.h0["passed"] and report.h0["max_asymmetry"] <= 1e-10
    # lambda0 agrees with an independent dense solve of S(0)
    from gnlstab.hill import build_block

    s0 = build_block(even_wave, "S_kappa", 0.0, sector="full").entries
    lam0 = -float(scipy.linalg.eigh(s0, eigvals_only=True)[0])
    assert report.h1["lambda0"] == pytest.approx(lam0, rel=1e-12)
    assert report.h1["K"] == pytest.approx(np.sqrt(lam0), rel=1e-5)
    assert report.h1["beta"] > 0.0
    assert all(m >= report.h1["beta"] for m in report.h1["min_eigs"])
    assert report.h2["passed"]
    assert report.h3["passed"] and report.h3["min_sprime_sample"] > 0.0
    assert np.all(np.diff(report.h3["min_eigs"]) >= -1e-9)
    assert report.h4["passed"] and report.h4["n_negative"] == 1
    assert report.h4["gap"] >= 10.0 * report.h4["zero_tolerance"]


@pytest.mark.parametrize("name", ["even", "odd", "const"])
def test_hypotheses_shift_matches_dense_solves(name, request):
    # H1/H3 take lambda_min(S(kappa)) = lambda_min(S(0)) + kappa^2 from one
    # solve; here every sampled kappa gets its own dense solve instead
    wave = request.getfixturevalue(f"{name}_wave")
    report = verify_hypotheses(wave)
    s0 = build_block(wave, "S_kappa", 0.0, sector=report.sector).entries
    tol = 1e-12 * np.max(np.abs(s0))
    for h in (report.h1, report.h3):
        assert len(h["min_eigs"]) == len(h["kappa_grid"])
        for kappa, lowest in zip(h["kappa_grid"], h["min_eigs"]):
            shifted = s0 + kappa**2 * np.eye(s0.shape[0])
            dense = float(scipy.linalg.eigh(shifted, eigvals_only=True)[0])
            assert abs(lowest - dense) <= tol


def test_odd_hypotheses_pass(odd_hypotheses):
    assert odd_hypotheses.overall
    assert odd_hypotheses.sector == "odd"
    assert odd_hypotheses.h4["n_negative"] == 1


def test_constant_fails_hypotheses(const_wave):
    # L1 contributes three negative directions to S(0): the one-negative-
    # eigenvalue assumption genuinely fails for the constant state
    report = verify_hypotheses(const_wave)
    assert not report.overall
    assert not report.h4["passed"]
    assert report.h4["n_negative"] == 3


# ---------------------------------------------------------------------------
# sector resolution and input validation


def test_resolve_sector(even_wave, odd_wave):
    assert resolve_sector(even_wave, "auto") == "full"
    assert resolve_sector(odd_wave, "auto") == "odd"
    assert resolve_sector(even_wave, "even") == "even"
    with pytest.raises(ParameterError):
        resolve_sector(even_wave, "sideways")


def test_scan_input_validation(even_wave):
    with pytest.raises(ParameterError):
        scan_kappa(even_wave, -0.1, 1.0, 10)
    with pytest.raises(ParameterError):
        scan_kappa(even_wave, 1.0, 0.5, 10)
    with pytest.raises(ParameterError):
        scan_kappa(even_wave, 0.1, 1.0, 1)
    with pytest.raises(ParameterError):
        scan_kappa(even_wave, 0.1, float("inf"), 10)
    with pytest.raises(ParameterError):
        instability_eigs(even_wave, -0.5)


def test_edge_level_is_small():
    assert EDGE_LEVEL <= UNSTABLE_THRESHOLD
