"""End-to-end acceptance suite.

Each test covers one numbered criterion, measures everything first, records
one pass/fail line through the ``record`` fixture (printed after the run),
and only then asserts — so a genuine failure still leaves an honest line in
the summary.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import oracles
from gnlstab.evolve import EvolutionConfig, evolve_and_fit
from gnlstab.hill import (
    build_block,
    build_hill,
    check_propositions,
    hill_operators,
    spectrum,
)
from gnlstab.scan import scan_kappa, verify_hypotheses
from gnlstab.spectral import FULL, ParityBasis
from gnlstab.waves import (
    ProblemParams,
    constant_wave,
    newton_refine,
    solve_wave,
    wave_at_resolution,
)

TWO_PI = 2.0 * np.pi

QUALITY_TAUS = {1.0: 5.0, 2.0: 12.0, 3.0: 8.0, 0.5: 5.0}


@pytest.fixture(scope="module")
def quality_waves():
    """The four even-parity waves of criterion 3, with their solve time."""
    start = time.perf_counter()
    waves = {
        alpha: solve_wave(
            ProblemParams(alpha=alpha, omega=1.0, period=TWO_PI, tau=tau, parity="even")
        )
        for alpha, tau in QUALITY_TAUS.items()
    }
    return waves, time.perf_counter() - start


def reversal_defect(values: np.ndarray) -> float:
    flipped = values[(-np.arange(values.size)) % values.size]
    return float(np.max(np.abs(values - flipped)))


def quadruple_defect(eigenvalues: np.ndarray) -> float:
    worst = 0.0
    for lam in eigenvalues:
        worst = max(worst, float(np.min(np.abs(eigenvalues + lam))))
        worst = max(worst, float(np.min(np.abs(eigenvalues - np.conj(lam)))))
    return worst


def test_criterion_1_constant_analytic_spectra(record):
    start = time.perf_counter()
    wave = constant_wave(2.0, 1.0, TWO_PI, 64)
    ops = hill_operators(wave, "full")
    l1 = spectrum(ops, "L1")
    l2 = spectrum(ops, "L2")
    # analytic multiset on L = 2*pi: mode 0 once, 1..31 twice, Nyquist once
    mults = [0] + [n for n in range(1, 32) for _ in range(2)] + [32]
    expected_l1 = np.sort([n**2 - 2.0 for n in mults])
    expected_l2 = np.sort([float(n**2) for n in mults])
    err1 = float(np.max(np.abs(l1.eigenvalues - expected_l1)))
    err2 = float(np.max(np.abs(l2.eigenvalues - expected_l2)))
    elapsed = time.perf_counter() - start

    counts = (l1.n_negative, l1.kernel_dimension, l2.n_negative, l2.kernel_dimension)
    ok = (
        err1 <= 1e-10
        and err2 <= 1e-10
        and counts == (3, 0, 0, 1)
        and elapsed < 1.0
    )
    record(
        1,
        ok,
        f"constant spectra: errors {err1:.2e}/{err2:.2e} (tol 1e-10), "
        f"counts n/z = {counts} vs (3, 0, 0, 1), {elapsed:.2f}s < 1s",
    )
    assert err1 <= 1e-10 and err2 <= 1e-10
    assert counts == (3, 0, 0, 1)
    assert elapsed < 1.0


def test_criterion_2_constant_growth_closed_form(record, const_ops):
    from gnlstab.scan import instability_eigs

    start = time.perf_counter()
    worst = 0.0
    for kappa in (0.5, 1.0, 1.3):
        measured = instability_eigs(const_ops, kappa).max_real_part
        expected = oracles.constant_growth_rate(kappa, 2.0, 1.0, TWO_PI)
        worst = max(worst, abs(measured - expected))
    scan = scan_kappa(const_ops, 0.05, 2.0, 40)
    edge_err = min(abs(e - np.sqrt(2.0)) for e in scan.band_edges)
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-8 and edge_err <= 1e-4 and elapsed < 5.0
    record(
        2,
        ok,
        f"closed-form growth error {worst:.2e} (tol 1e-8), band edge off "
        f"sqrt(2) by {edge_err:.2e} (tol 1e-4), {elapsed:.2f}s < 5s",
    )
    assert worst <= 1e-8
    assert edge_err <= 1e-4
    assert elapsed < 5.0


def test_criterion_3_variational_wave_quality(record, quality_waves):
    waves, solve_time = quality_waves
    start = time.perf_counter()
    worst = {"residual": 0.0, "evenness": 0.0, "l2phi": 0.0, "l1dphi": 0.0}
    min_value = np.inf
    for wave in waves.values():
        grid = wave.phi.grid
        basis = ParityBasis(FULL, grid)
        worst["residual"] = max(worst["residual"], wave.ode_residual_norm)
        min_value = min(min_value, float(np.min(wave.phi.values)))
        worst["evenness"] = max(worst["evenness"], reversal_defect(wave.phi.values))
        coeffs = basis.analyze(wave.phi.values)
        l2 = build_hill(wave, "L2", basis).entries
        worst["l2phi"] = max(
            worst["l2phi"],
            float(np.linalg.norm(l2 @ coeffs) / np.linalg.norm(coeffs)),
        )
        dphi = np.fft.irfft(
            np.fft.rfft(wave.phi.values) * 1j * grid.rfft_wavenumbers, n=grid.size
        )
        dnorm = float(np.linalg.norm(dphi))
        if dnorm > 0.0:  # constants have phi' = 0 and nothing to bound
            l1 = build_hill(wave, "L1", basis).entries
            dcoeffs = basis.analyze(dphi)
            worst["l1dphi"] = max(
                worst["l1dphi"],
                float(np.linalg.norm(l1 @ dcoeffs) / np.linalg.norm(dcoeffs)),
            )
    elapsed = solve_time + (time.perf_counter() - start)

    ok = (
        worst["residual"] <= 1e-8
        and min_value > 0.0
        and worst["evenness"] <= 1e-10
        and worst["l2phi"] <= 1e-7
        and worst["l1dphi"] <= 1e-7
        and elapsed < 30.0
    )
    record(
        3,
        ok,
        f"alpha in {sorted(waves)}: residual {worst['residual']:.2e} (tol 1e-8), "
        f"min phi {min_value:.3f} > 0, evenness {worst['evenness']:.2e} (tol 1e-10), "
        f"|L2 phi|/|phi| {worst['l2phi']:.2e}, |L1 phi'|/|phi'| {worst['l1dphi']:.2e} "
        f"(tol 1e-7), {elapsed:.1f}s < 30s",
    )
    assert worst["residual"] <= 1e-8
    assert min_value > 0.0
    assert worst["evenness"] <= 1e-10
    assert worst["l2phi"] <= 1e-7
    assert worst["l1dphi"] <= 1e-7
    assert elapsed < 30.0


def test_criterion_4_even_spectral_counts(record, quality_waves):
    waves, _ = quality_waves
    worst_doubling = 0.0
    template_ok = True
    flags_ok = True
    details = []
    for alpha, wave in sorted(waves.items()):
        ops = hill_operators(wave, "full")
        report = check_propositions(ops)
        by_name = {c.name: c for c in report.checks}
        nonconstant = np.ptp(wave.phi.values) > 0.0
        if nonconstant:
            lcal = spectrum(ops, "Lcal")
            template_ok = template_ok and report.passed
            template_ok = template_ok and by_name["n(Lcal)"].actual == "1"
            template_ok = template_ok and by_name["z(Lcal)"].actual == "2"
            template_ok = (
                template_ok
                and by_name["negative eigenvalue simple"].margin
                >= 10.0 * lcal.zero_tolerance
            )
            template_ok = template_ok and by_name["kernel residual (phi',0)"].margin <= 1e-7
            template_ok = template_ok and by_name["kernel residual (0,phi)"].margin <= 1e-7
            details.append(f"a={alpha:g} counts ok")
        else:
            # the minimizer is the constant state here; the non-constant
            # count template does not apply and must be flagged, not forced
            flags_ok = flags_ok and not report.passed
            flags_ok = flags_ok and any("constant" in n for n in report.notes)
            details.append(f"a={alpha:g} constant flagged")
        fine = newton_refine(wave_at_resolution(wave, 2 * wave.phi.grid.size))
        lows = [
            np.sort(scipy.linalg.eigvalsh(build_block(o, "Lcal").entries))[:10]
            for o in (ops, hill_operators(fine, "full"))
        ]
        worst_doubling = max(worst_doubling, float(np.max(np.abs(lows[0] - lows[1]))))

    ok = template_ok and flags_ok and worst_doubling <= 1e-9
    record(
        4,
        ok,
        f"{'; '.join(details)}; grid-doubling delta {worst_doubling:.2e} (tol 1e-9)",
    )
    assert template_ok
    assert flags_ok
    assert worst_doubling <= 1e-9


def test_criterion_5_odd_spectral_counts(record, odd_wave, odd_full_ops):
    report = check_propositions(odd_full_ops)
    by_name = {c.name: c for c in report.checks}
    lcal = spectrum(hill_operators(odd_wave, "odd"), "Lcal")
    tol = lcal.zero_tolerance
    counts_ok = (
        by_name["n(L1) full space"].actual == "2"
        and by_name["n(L1,odd)"].actual == "1"
        and by_name["n(L2,odd)"].actual == "0"
        and by_name["z(Lcal,odd)"].actual == "1"
    )
    margin0 = by_name["lambda0(L1,odd) < lambda0(L2,odd)"].margin
    margin1 = by_name["lambda1(L1,odd) < lambda1(L2,odd)"].margin
    ok = report.passed and counts_ok and min(margin0, margin1) >= 10.0 * tol
    record(
        5,
        ok,
        f"odd counts ok={counts_ok}, ordering margins {margin0:.3f}/{margin1:.3f} "
        f">= {10.0 * tol:.2e}",
    )
    assert report.passed
    assert counts_ok
    assert margin0 >= 10.0 * tol and margin1 >= 10.0 * tol


def test_criterion_6_executable_verdicts(record, even_wave, odd_wave):
    results = {}
    for label, wave, kappa_max in (
        ("even", even_wave, 1.8),
        ("odd", odd_wave, 4.0),
    ):
        start = time.perf_counter()
        ops = hill_operators(wave)
        hyp = verify_hypotheses(ops)
        scan = scan_kappa(ops, 0.05, kappa_max, 60)
        elapsed = time.perf_counter() - start
        k_thresh = hyp.h1["K"]
        grown = max(r.max_real_part for r in scan.records)
        beyond = [r.max_real_part for r in scan.records if r.kappa >= k_thresh]
        results[label] = {
            "hyp": hyp.overall,
            "grown": grown,
            "beyond": max(beyond) if beyond else 0.0,
            "n_beyond": len(beyond),
            "elapsed": elapsed,
        }

    ok = all(
        r["hyp"]
        and r["grown"] > 1e-6
        and r["n_beyond"] >= 1
        and r["beyond"] <= 1e-8
        and r["elapsed"] < 60.0
        for r in results.values()
    )
    record(
        6,
        ok,
        "; ".join(
            f"{label}: hypotheses {'pass' if r['hyp'] else 'FAIL'}, peak "
            f"{r['grown']:.3f} > 1e-6, max rate beyond K {r['beyond']:.2e} <= 1e-8 "
            f"({r['n_beyond']} pts), {r['elapsed']:.1f}s < 60s"
            for label, r in results.items()
        ),
    )
    for r in results.values():
        assert r["hyp"]
        assert r["grown"] > 1e-6
        assert r["n_beyond"] >= 1 and r["beyond"] <= 1e-8
        assert r["elapsed"] < 60.0


def test_criterion_7_dns_cross_check(record, const_wave, even_wave, odd_wave, even_scan, odd_scan):
    cases = []

    start = time.perf_counter()
    run = evolve_and_fit(hill_operators(const_wave), 1.0, EvolutionConfig())
    elapsed = time.perf_counter() - start
    gap = abs(run.fitted_rate - 1.0)
    cases.append(("constant k=1", gap, 0.01, elapsed))

    for label, wave, scan in (("even", even_wave, even_scan), ("odd", odd_wave, odd_scan)):
        peak = scan.most_unstable
        start = time.perf_counter()
        run = evolve_and_fit(hill_operators(wave), peak.kappa, EvolutionConfig())
        elapsed = time.perf_counter() - start
        gap = abs(run.fitted_rate - peak.max_real_part) / peak.max_real_part
        cases.append((f"{label} k={peak.kappa:.3f}", gap, 0.02, elapsed))

    ok = all(gap <= tol and elapsed < 30.0 for _, gap, tol, elapsed in cases)
    record(
        7,
        ok,
        "; ".join(
            f"{name}: gap {gap:.2e} <= {tol:g}, {elapsed:.1f}s < 30s"
            for name, gap, tol, elapsed in cases
        ),
    )
    for name, gap, tol, elapsed in cases:
        assert gap <= tol, name
        assert elapsed < 30.0, name


def test_criterion_8_structural_invariants(
    record, even_wave, odd_wave, even_scan, odd_scan, scan_rows, check_reduced_row
):
    worst_quad = 0.0
    worst_shift = 0.0
    worst_cross = 0.0
    # each row's eigenvalues come from the scan's row solver: every one of
    # these rows is reduced and reports its growth pairs, which the whole
    # spectrum of M(kappa) checks, with every unreported mu clear of the floor
    for wave, scan, rows in ((even_wave, even_scan, scan_rows("even")),
                             (odd_wave, odd_scan, scan_rows("odd"))):
        ops = hill_operators(wave, scan.sector)
        s0 = build_block(ops, "S_kappa", 0.0)
        d = s0.entries.shape[0] // 2
        l2 = s0.entries[:d, :d]
        l1 = s0.entries[d:, d:]
        for record_row in rows:
            kappa = record_row.kappa
            check_reduced_row(ops, record_row)
            worst_quad = max(worst_quad, quadruple_defect(record_row.eigenvalues))
            # S(kappa) = S(0) + kappa^2 I entry for entry, so the spectrum of
            # S(kappa) is the spectrum of S(0) shifted by kappa^2
            s_direct = build_block(ops, "S_kappa", kappa)
            shift_defect = s_direct.entries - (s0.entries + kappa**2 * np.eye(2 * d))
            worst_shift = max(worst_shift, float(np.max(np.abs(shift_defect))))
            assert not shift_defect.any()
            # lambda^2 of the block problem against the d x d product
            shift = kappa**2 * np.eye(d)
            nu = scipy.linalg.eigvals(-(l2 + shift) @ (l1 + shift))
            eigs = record_row.eigenvalues
            for idx in np.argsort(np.abs(eigs))[-10:]:
                lam2 = eigs[idx] ** 2
                worst_cross = max(
                    worst_cross,
                    float(np.min(np.abs(nu - lam2))) / (1.0 + abs(lam2)),
                )

    ok = worst_quad <= 1e-8 and worst_shift <= 1e-12 and worst_cross <= 1e-7
    record(
        8,
        ok,
        f"quadruple defect {worst_quad:.2e} (tol 1e-8), kappa^2 shift defect "
        f"{worst_shift:.2e} (tol 1e-12), lambda^2 cross-check {worst_cross:.2e} "
        f"(tol 1e-7) over {len(even_scan.records) + len(odd_scan.records)} scan rows",
    )
    assert worst_quad <= 1e-8
    assert worst_shift <= 1e-12
    assert worst_cross <= 1e-7
