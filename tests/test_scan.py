"""Transverse wavenumber scan: growth rates, band edges, hypotheses."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from gnlstab import hill, serialize
from gnlstab.errors import NumericalConsistencyError, ParameterError
from gnlstab.evolve import evolve_and_fit
from gnlstab.hill import (
    KAPPA_LIMIT,
    build_block,
    build_hill,
    hill_operators,
    resolve_sector,
    spectrum,
)
from gnlstab.scan import (
    BATCH_BYTES,
    CROSSCHECK_RTOL,
    EDGE_LEVEL,
    EDGE_RESOLUTION,
    SYMMETRY_TOL,
    UNSTABLE_THRESHOLD,
    VECTOR_LEVEL,
    RowSolution,
    _Reduction,
    _band_end,
    _crosscheck,
    _fixed_vector,
    _growth_block,
    _inverse_iteration,
    _lift,
    _normalize_mode,
    _rayleigh_ritz,
    _reduced_rows,
    _solve_rows,
    _squares,
    _symmetry_defect,
    evolution_block,
    growth_row,
    instability_eigs,
    scan_kappa,
    transverse_threshold,
    verify_hypotheses,
)
from gnlstab.spectral import COSINE, FULL, SINE, ParityBasis
from gnlstab.waves import ProblemParams, constant_wave, solve_wave, wave_at_resolution

TWO_PI = 2.0 * np.pi


def reduced_row(basis, reductions, kappa):
    """The reduced solve of a grid of one row."""
    return _reduced_rows(basis, reductions, [kappa])[0]


def quadruple_defect(eigenvalues: np.ndarray) -> float:
    """Distance of the set from closure under negation and conjugation."""
    worst = 0.0
    for lam in eigenvalues:
        worst = max(worst, float(np.min(np.abs(eigenvalues + lam))))
        worst = max(worst, float(np.min(np.abs(eigenvalues - np.conj(lam)))))
    return worst


# ---------------------------------------------------------------------------
# constant-state closed form


def test_constant_growth_closed_form(const_ops):
    for kappa in (0.5, 1.0, 1.3):
        eigs = instability_eigs(const_ops, kappa)
        expected = oracles.constant_growth_rate(kappa, 2.0, 1.0, TWO_PI)
        assert abs(eigs.max_real_part - expected) <= 1e-8


def test_constant_band_edge(const_ops):
    scan = scan_kappa(const_ops, 0.05, 2.0, 40)
    assert scan.verdict == "transversally unstable"
    assert len(scan.band_edges) == 1
    assert abs(scan.band_edges[0] - np.sqrt(2.0)) <= 1e-4


def test_constant_stable_beyond_cutoff(const_ops):
    # above kappa = sqrt(alpha * omega) every mode is neutral
    scan = scan_kappa(const_ops, 1.5, 2.5, 11)
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


def test_stability_above_threshold(even_ops, even_hypotheses):
    k_thresh = even_hypotheses.h1["K"]
    for kappa in (k_thresh * 1.001, k_thresh + 0.5, k_thresh + 2.0):
        eigs = instability_eigs(even_ops, kappa)
        assert eigs.max_real_part <= 1e-8


def test_quadruple_symmetry_across_scan(
    even_wave, odd_wave, even_scan, odd_scan, scan_rows, check_reduced_row
):
    # recomputed defect, not the stored one; every row here is reduced and
    # holds its growth pairs, which the whole spectrum of M(kappa) checks
    for name, wave, scan in (("even", even_wave, even_scan), ("odd", odd_wave, odd_scan)):
        ops = hill_operators(wave, scan.sector)
        for record, row in zip(scan.records, scan_rows(name)):
            assert quadruple_defect(row.eigenvalues) <= 1e-8
            assert record.symmetry_defect <= 1e-8
            check_reduced_row(ops, row)


def test_lambda_squared_reduction_independent(even_wave, even_ops):
    # lambda^2 must be an eigenvalue of -(L2+k^2)(L1+k^2), assembled here
    # from the scalar operators directly
    basis = ParityBasis(FULL, even_wave.phi.grid)
    l1 = build_hill(even_wave, "L1", basis).entries
    l2 = build_hill(even_wave, "L2", basis).entries
    for kappa in (0.3, 1.0, 1.5):
        eigs = instability_eigs(even_ops, kappa)
        shift = kappa**2 * np.eye(basis.dimension)
        nu = scipy.linalg.eigvals(-(l2 + shift) @ (l1 + shift))
        top = np.argsort(np.abs(eigs.eigenvalues))[-10:]
        for idx in top:
            lam2 = eigs.eigenvalues[idx] ** 2
            assert float(np.min(np.abs(nu - lam2))) <= 1e-7 * (1.0 + abs(lam2))


def test_evolution_block_layout(even_wave, even_ops):
    kappa = 0.8
    block, basis = evolution_block(even_ops, kappa)
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
            block, _ = evolution_block(hill_operators(wave, sector), kappa)
            assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kappa_zero_generalized_kernel(even_ops):
    # at kappa = 0 the symmetry generators give a four-dimensional generalized
    # kernel (two Jordan blocks); everything else is oscillatory
    eigs = instability_eigs(even_ops, 0.0)
    assert eigs.max_real_part <= 1e-5
    small = np.sum(np.abs(eigs.eigenvalues) <= 1e-4)
    assert small == 4


def test_eigenvalues_stay_complex(even_ops, even_scan, odd_full_scan, scan_rows):
    assert instability_eigs(even_ops, 1.0).eigenvalues.dtype == np.complex128
    for name, scan in (("even", even_scan), ("odd_full", odd_full_scan)):  # reduced and dense rows
        assert all(r.eigenvalues.dtype == np.complex128 for r in scan_rows(name))
        assert all(type(r.leading_lambda) is complex for r in scan.records if r.leading_lambda)
        assert all(type(lam) is complex for r in scan.records for lam in r.unstable_eigenvalues)


def test_real_block_spectrum_stays_complex():
    # the constant state phi = omega^(1/alpha) has, on every Fourier mode k,
    # lambda^2 = (k^2+kappa^2)(alpha omega - k^2 - kappa^2) > 0 at alpha omega
    # = 20, N = 8 (k <= 4): geev alone returns a real spectrum and real vectors
    wave, kappa = constant_wave(2.0, 10.0, TWO_PI, 8), 0.5
    ops = hill_operators(wave, "full")
    for _, block in ops.sectors():
        assert np.linalg.eig(_growth_block(block.l2, block.l1, kappa))[0].dtype == np.float64
    eigs = instability_eigs(ops, kappa)
    assert eigs.eigenvalues.dtype == np.complex128
    q = ops.basis.frequencies() ** 2 + kappa**2
    rates = np.sqrt(q * (20.0 - q))
    expected = np.sort(np.concatenate([-rates, rates]))
    assert np.max(np.abs(eigs.eigenvalues - expected)) <= 1e-13 * np.max(rates)


def test_leading_mode_fields(even_scan, scan_rows):
    # the scan writes the most unstable row's mode fields once, as that row's
    # solver synthesizes them
    rows = scan_rows("even")
    peak = rows[even_scan.records.index(even_scan.most_unstable)]
    assert even_scan.leading_v1 is not None and even_scan.leading_v2 is not None
    n1 = np.linalg.norm(even_scan.leading_v1.values)
    n2 = np.linalg.norm(even_scan.leading_v2.values)
    assert n1 > 0.0 and n2 > 0.0
    assert even_scan.leading_v1.grid.size == rows[0].mode_fields()[0].grid.size
    v1, v2 = peak.mode_fields()
    assert np.array_equal(even_scan.leading_v1.values, v1.values)
    assert np.array_equal(even_scan.leading_v2.values, v2.values)


@pytest.mark.parametrize("name", ["even", "odd", "const", "odd_full"])
def test_scan_records_are_the_row_solver_records(name, request, scan_rows):
    # what a row reports is the row solver's result cut to its record, bit for
    # bit, on a separate assembly of the same wave
    scan = request.getfixturevalue(f"{name}_scan")
    rows = scan_rows(name)
    assert [row.record() for row in rows] == list(scan.records)
    assert [r.path for r in scan.records].count("dense") == scan.dense_rows
    for record in scan.records:
        assert len(record.unstable_eigenvalues) == record.num_unstable


def test_scan_is_deterministic(even_wave, even_scan, dense_rows, scan_rows):
    again = scan_kappa(hill_operators(even_wave), 0.05, 1.8, 60)
    assert np.array_equal(again.kappa_values, even_scan.kappa_values)
    for a, b in zip(again.records, even_scan.records):
        assert a == b
        assert a.max_real_part == b.max_real_part
    assert again.band_edges == even_scan.band_edges
    # and the row solver's whole spectra, on a second assembly
    ops = hill_operators(even_wave, "full")
    for a, b in zip(again.records, scan_rows("even")):
        row = growth_row(ops, a.kappa)
        assert np.array_equal(row.eigenvalues, b.eigenvalues)
    # and the fast rows agree with the dense block solver
    for a, dense in zip(again.records, dense_rows["even"]):
        g = dense.max_real_part
        assert abs(a.max_real_part - g) <= CROSSCHECK_RTOL * (1.0 + g)


# ---------------------------------------------------------------------------
# the symmetric lambda^2 reduction against the dense block solver

SCANS = ["even", "odd", "const"]


@pytest.fixture(scope="session")
def dense_rows(request):
    """instability_eigs, the dense 2d x 2d solver, on every row of the even,
    odd and constant fixture scans."""
    rows = {}
    for name in SCANS:
        wave = request.getfixturevalue(f"{name}_wave")
        scan = request.getfixturevalue(f"{name}_scan")
        ops = hill_operators(wave, scan.sector)
        rows[name] = [instability_eigs(ops, r.kappa) for r in scan.records]
    return rows


def assert_row_matches_dense(row, dense):
    g = dense.max_real_part
    assert abs(row.max_real_part - g) <= CROSSCHECK_RTOL * (1.0 + g)
    assert row.num_unstable == dense.num_unstable
    assert row.symmetry_defect <= SYMMETRY_TOL
    # the lambda^2 sets match both ways; a reduced row holds only its growth
    # pairs, which are the dense eigenvalues off the imaginary axis
    expected = dense.eigenvalues
    if row.path == "reduced":
        expected = expected[np.abs(expected.real) > UNSTABLE_THRESHOLD]
    assert row.eigenvalues.size == expected.size
    if not expected.size:
        return
    fast2, dense2 = row.eigenvalues**2, expected**2
    gaps = np.abs(fast2[:, None] - dense2[None, :])
    assert np.all(gaps.min(axis=1) <= CROSSCHECK_RTOL * (1.0 + np.abs(fast2)))
    assert np.all(gaps.min(axis=0) <= CROSSCHECK_RTOL * (1.0 + np.abs(dense2)))
    if dense.leading_lambda is None:
        assert row.leading_lambda is None
        return
    assert abs(row.leading_lambda - dense.leading_lambda) <= CROSSCHECK_RTOL * (1.0 + g)
    # the leading mode is unique only when its rate is simple
    rates = np.sort(dense.eigenvalues.real)[::-1]
    if rates[0] - rates[1] >= 1e-2 * rates[0]:
        v1, v2 = dense.mode_fields()
        row_v1, row_v2 = row.mode_fields()
        assert np.max(np.abs(row_v1.values - v1.values)) <= 1e-6
        assert np.max(np.abs(row_v2.values - v2.values)) <= 1e-6


@pytest.mark.parametrize("name, dense_count", [("even", 0), ("odd", 0), ("const", 1)])
def test_reduced_rows_match_dense_rows(
    name, dense_count, request, dense_rows, scan_rows, check_reduced_row
):
    scan = request.getfixturevalue(f"{name}_scan")
    ops = hill_operators(request.getfixturevalue(f"{name}_wave"), scan.sector)
    # n(L2) = 0 on these sectors, so every grid row takes the reduction except
    # the constant state's kappa = 1, where mu = (xi^2 + k^2)(xi^2 + k^2 - 2)
    # vanishes for xi = 1 and only the dense solver resolves lambda = 0
    assert scan.dense_rows == dense_count
    assert scan.reduced_rows == len(scan.records) - dense_count
    for row, dense in zip(scan_rows(name), dense_rows[name]):
        assert_row_matches_dense(row, dense)
        if row.path == "reduced":
            check_reduced_row(ops, row)


@pytest.mark.parametrize("name", SCANS)
def test_reduced_band_edges_and_verdict_match_dense(name, request, dense_rows):
    wave = request.getfixturevalue(f"{name}_wave")
    scan = request.getfixturevalue(f"{name}_scan")
    growth = [eigs.max_real_part for eigs in dense_rows[name]]
    unstable = max(growth) > UNSTABLE_THRESHOLD
    assert scan.verdict == ("transversally unstable" if unstable else "no instability detected")
    crossings = sum((a - EDGE_LEVEL) * (b - EDGE_LEVEL) < 0.0 for a, b in zip(growth, growth[1:]))
    assert len(scan.band_edges) == crossings
    # every edge lies where L2 + kappa^2 >= 0 and is read from the L1 spectrum,
    # whose lowest eigenvalue is that of S(0) since L1 <= L2
    assert scan.dense_bisections == 0
    ops = hill_operators(wave, scan.sector)
    lambda0 = verify_hypotheses(ops).h1["lambda0"]
    assert scan.band_edges[-1] == pytest.approx(np.sqrt(lambda0), rel=1e-12)

    # the dense growth rate crosses EDGE_LEVEL within EDGE_RESOLUTION of each edge

    def dense_growth(kappa):
        return instability_eigs(ops, kappa).max_real_part

    for edge in scan.band_edges:
        below = dense_growth(max(edge - EDGE_RESOLUTION, 0.0)) - EDGE_LEVEL
        above = dense_growth(edge + EDGE_RESOLUTION) - EDGE_LEVEL
        assert below * above < 0.0


@pytest.mark.parametrize("name", SCANS)
def test_dense_rows_keep_quadruple_symmetry(name, dense_rows):
    # reduced rows are closed under negation and conjugation by construction,
    # so the dense solver's closure is checked here on the fixture grids; its
    # vectorized gate must equal the original loop bit for bit
    for eigs in dense_rows[name]:
        reference = oracles.symmetry_defect_reference(eigs.eigenvalues)
        assert eigs.symmetry_defect == reference
        assert reference <= SYMMETRY_TOL


def test_symmetry_defect_matches_loop_on_unclosed_sets():
    # dense real spectra come in exact conjugate pairs; these sets do not
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 64):
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        assert _symmetry_defect(values) == oracles.symmetry_defect_reference(values)


def near_quadruples(count: int) -> np.ndarray:
    """count quadruples +-a +-ib, each value moved by about 1e-12: a nearly
    closed set, about the merged spectrum of a dense N = 1024 row at 2052."""
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, count))
    values = np.concatenate([a + 1j * b, a - 1j * b, -a + 1j * b, -a - 1j * b])
    return values + 1e-12 * (rng.standard_normal(4 * count) + 1j * rng.standard_normal(4 * count))


def test_symmetry_defect_is_exact_over_its_blocks(monkeypatch):
    # a max of row minima, taken over blocks of rows: the same bits whatever
    # the blocks, 17 of them under the default budget, then 411 and 2052.  One
    # value moved far off, whose row alone is far from closure, sits first,
    # mid-block and last
    closed = near_quadruples(513)
    assert BATCH_BYTES // (16 * closed.size) == 127
    for at in (0, 1000, closed.size - 1):
        values = closed.copy()
        values[at] = 5.0 + 5.0j
        reference = oracles.symmetry_defect_reference(values)
        assert reference > 1.0
        for budget in (BATCH_BYTES, 16 * values.size * 5, 1):
            monkeypatch.setattr("gnlstab.scan.BATCH_BYTES", budget)
            assert _symmetry_defect(values) == reference


def test_symmetry_defect_memory_is_bounded():
    # the two whole n x n complex distance arrays took 96 MiB at n = 2052
    values = near_quadruples(513)
    tracemalloc.start()
    try:
        _symmetry_defect(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_indefinite_l2_rows_take_the_dense_solver(
    odd_wave, odd_full_scan, scan_rows, check_reduced_row
):
    # an odd wave's L2 has a negative eigenvalue in the full space, so
    # L2 + kappa^2 is indefinite for kappa^2 below minus that eigenvalue
    scan = odd_full_scan
    basis = ParityBasis(FULL, odd_wave.phi.grid)
    lowest = scipy.linalg.eigh(build_hill(odd_wave, "L2", basis).entries, eigvals_only=True)[0]
    indefinite = scan.kappa_values**2 < -lowest
    assert indefinite.any() and not indefinite.all()
    assert scan.dense_rows == int(indefinite.sum())
    assert scan.reduced_rows == int((~indefinite).sum())
    ops = hill_operators(odd_wave, "full")
    for row, dense_path in zip(scan_rows("odd_full"), indefinite):
        dense = instability_eigs(ops, row.kappa)
        assert row.path == ("dense" if dense_path else "reduced")
        if dense_path:
            assert np.array_equal(row.eigenvalues, dense.eigenvalues)
            assert row.max_real_part == dense.max_real_part
        else:
            check_reduced_row(ops, row)
        assert_row_matches_dense(row, dense)


def test_dense_rows_are_instability_eigs(odd_wave, monkeypatch):
    # the scan's dense grid rows and bisection steps, and a dense growth_row,
    # are the public dense row itself
    calls = []

    def counted(ops, kappa):
        calls.append(kappa)
        return instability_eigs(ops, kappa)

    monkeypatch.setattr("gnlstab.scan.instability_eigs", counted)
    scan = scan_kappa(hill_operators(odd_wave, "full"), 0.0, 1.0, 8)
    assert scan.dense_rows + scan.dense_bisections >= 1
    assert len(calls) == scan.dense_rows + scan.dense_bisections
    assert growth_row(hill_operators(odd_wave), 0.0).path == "dense"
    assert len(calls) == scan.dense_rows + scan.dense_bisections + 1


def test_dense_rows_build_only_sector_blocks(odd_wave, monkeypatch):
    # a full-space dense row solves the cosine and the sine block apart and
    # never assembles the whole-basis 2d x 2d block
    orders = []

    def counted(l2, l1, kappa):
        orders.append(2 * l2.shape[0])
        return _growth_block(l2, l1, kappa)

    monkeypatch.setattr("gnlstab.scan._growth_block", counted)
    row = instability_eigs(hill_operators(odd_wave, "full"), 0.05)
    n = odd_wave.phi.grid.size
    assert sorted(orders) == [2 * (n // 2 - 1), 2 * (n // 2 + 1)]
    assert row.path == "dense"


def test_a_dense_row_that_fails_the_lambda_squared_check_fails_the_scan(odd_wave, monkeypatch):
    # the odd wave in the full space from kappa = 0.05: L2 + kappa^2 is
    # indefinite there, so the first row is dense; every nu of its unsymmetric
    # product scaled by 1 + 1e-3 leaves no lambda^2 within CROSSCHECK_RTOL
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * (1.0 + 1e-3))
    ops = hill_operators(odd_wave, "full")
    with pytest.raises(NumericalConsistencyError, match=r"cross-check at kappa=0\.05 "):
        scan_kappa(ops, 0.05, 1.0, 8)
    with pytest.raises(NumericalConsistencyError, match=r"cross-check at kappa=0\.05 "):
        instability_eigs(ops, 0.05)


def test_a_dense_row_that_breaks_quadruple_symmetry_fails_the_scan(odd_wave, monkeypatch):
    # the same scan from kappa = 0, whose dense rows come first: a defect of
    # 1e-6, above SYMMETRY_TOL, on every dense row stops the scan at kappa = 0
    monkeypatch.setattr("gnlstab.scan._symmetry_defect", lambda eigenvalues: 1e-6)
    assert SYMMETRY_TOL < 1e-6
    with pytest.raises(NumericalConsistencyError, match="symmetry broken at kappa=0: defect 1"):
        scan_kappa(hill_operators(odd_wave, "full"), 0.0, 1.0, 8)


def test_unresolved_rows_at_kappa_zero_take_the_dense_solver(odd_ops, solve_row):
    # at kappa = 0 the symmetry generators form a Jordan block and mu = -lambda^2
    # sits at rounding level, where sqrt(|mu|) would read as growth above
    # EDGE_LEVEL and hide the band edge right above kappa = 0
    scan = scan_kappa(odd_ops, 0.0, 0.5, 4)
    # the kappa = 0 row is dense, but L2 >= 0 on the odd sector: the edge is
    # the band end 0 of the inertia law, not a bisection
    assert scan.dense_rows == 1 and scan.dense_bisections == 0
    dense0 = instability_eigs(odd_ops, 0.0)
    row0 = solve_row("odd", scan.records[0].kappa)
    assert row0.path == scan.records[0].path == "dense"
    assert np.array_equal(row0.eigenvalues, dense0.eigenvalues)
    assert dense0.max_real_part < EDGE_LEVEL
    assert len(scan.band_edges) == 1 and scan.band_edges[0] <= EDGE_RESOLUTION
    assert scan.band_edges[0] == 0.0
    above = instability_eigs(odd_ops, scan.band_edges[0] + EDGE_RESOLUTION)
    assert above.max_real_part > EDGE_LEVEL


def test_reduced_row_cross_check_rejects_a_wrong_kappa_shift(even_wave):
    ops = hill_operators(even_wave, "full")
    reductions = _Reduction.sectors(ops)
    kappa = 1.0
    assert reduced_row(ops.basis, reductions, kappa) is not None
    # M of the cosine, then of the sine sector built with kappa^2 added twice
    for tampered, reduction in enumerate(reductions):
        shifted_twice = list(reductions)
        shifted_twice[tampered] = dataclasses.replace(
            reduction, a=reduction.a + kappa**2 * np.eye(reduction.a.shape[0])
        )
        with pytest.raises(NumericalConsistencyError, match="cross-check"):
            reduced_row(ops.basis, tuple(shifted_twice), kappa)


#: the README pipeline's peak row: 40 rows on [0.05, 1.8]; the accepted
#: profile does not depend on tau, so the even fixture wave is that wave
README_PEAK_KAPPA = float(np.linspace(0.05, 1.8, 40)[25])


def permute_q(monkeypatch, reductions):
    # L2 = Q D Q^T no longer holds: the lift v1 = Q (s * y) mixes modes
    cosine, sine = reductions
    return dataclasses.replace(cosine, q=np.roll(cosine.q, 1, axis=1)), sine


def flip_v2_lift(monkeypatch, reductions):
    def flipped(rows, d, pair):
        m = pair.shape[-1] // 2
        return _lift(rows, d, np.concatenate([pair[..., :m], -pair[..., m:]], axis=-1))

    monkeypatch.setattr("gnlstab.scan._lift", flipped)
    return reductions


def perturb_growth_mu(monkeypatch, reductions):
    # after the Rayleigh refinement, a relative error of 1e-6 in the growth mu_0
    def solve(self, kappa, counts):
        solved = original(self, kappa, counts)
        solved.mu[solved.mu[:, 0] < 0.0, 0] *= 1.0 + 1e-6
        return solved

    original = _Reduction.solve
    monkeypatch.setattr(_Reduction, "solve", solve)
    return reductions


@pytest.mark.parametrize("tamper", [permute_q, flip_v2_lift, perturb_growth_mu])
def test_residual_gate_rejects_a_tampered_reduced_row(even_wave, monkeypatch, tamper):
    ops = hill_operators(even_wave, "full")
    reductions = _Reduction.sectors(ops)
    row = reduced_row(ops.basis, reductions, README_PEAK_KAPPA)
    assert row.max_real_part > 1.0 and row.leading is not None
    tampered = tamper(monkeypatch, reductions)
    with pytest.raises(NumericalConsistencyError, match="cross-check"):
        reduced_row(ops.basis, tampered, README_PEAK_KAPPA)


#: README-grid rows above the band edge sqrt(lambda0) = 1.7032: no mu < 0, so
#: a row there lifts no eigenvector and only the Cholesky certificate and the
#: probe see it
README_ROWS_ABOVE_EDGE = [float(k) for k in np.linspace(0.05, 1.8, 40)[-3:]]


@pytest.mark.parametrize("kappa", README_ROWS_ABOVE_EDGE)
@pytest.mark.parametrize("sector", [0, 1], ids=["cosine", "sine"])
@pytest.mark.parametrize("tamper", ["kappa2-doubled", "q-permuted"])
def test_vector_free_checks_reject_a_tampered_row_above_the_band(even_wave, kappa, sector, tamper):
    ops = hill_operators(even_wave, "full")
    reductions = _Reduction.sectors(ops)
    # every sector's whole spectrum of M(kappa) is positive there
    spectra = [oracles.reduced_spectrum_reference(b.l1, b.l2, kappa)[0] for _, b in ops.sectors()]
    assert [np.count_nonzero(mu < 0.0) for mu in spectra] == [0, 0]
    reduction = reductions[sector]
    if tamper == "kappa2-doubled":
        shift = kappa**2 * np.eye(reduction.a.shape[0])
        wrong = dataclasses.replace(reduction, a=reduction.a + shift)
    else:
        wrong = dataclasses.replace(reduction, q=np.roll(reduction.q, 1, axis=1))
    tampered = list(reductions)
    tampered[sector] = wrong
    with pytest.raises(NumericalConsistencyError, match="spectrum cross-check"):
        reduced_row(ops.basis, tuple(tampered), kappa)


def unreported_mu_moved(reduction, kappa, target):
    """``reduction`` with A changed so that the lowest mu a row at kappa does
    not report, the (k+1)-th of M(kappa), moves to ``target``: A + t w w^T
    with w = u / s, u its unit eigenvector, makes M + t u u^T, so every step
    of the row sees that M."""
    k2 = _squares([kappa])
    k = int(np.count_nonzero(reduction.l1_eigs + k2[0] < 0.0))
    mu, u = np.linalg.eigh(reduction.matrix(k2[0], reduction.scale(k2)[0]))
    w = u[:, k] / reduction.scale(k2)[0]
    return dataclasses.replace(reduction, a=reduction.a + (target - mu[k]) * np.outer(w, w))


@pytest.mark.parametrize("target", ["zero", "below-floor"])
@pytest.mark.parametrize("kappa", README_ROWS_ABOVE_EDGE + [README_PEAK_KAPPA])
@pytest.mark.parametrize("sector", [0, 1], ids=["cosine", "sine"])
def test_certificate_rejects_an_unreported_mu_across_the_floor(even_wave, sector, kappa, target):
    # the lowest unreported mu moved into the rounding floor of M(kappa), or
    # below it: the row no longer has k mu below -floor and the rest above
    # +floor, so it fails the inertia count or goes to the dense solver.  Its
    # M no longer matches P, so a certificate that passed it would leave the
    # row to the probe; the row must not get that far
    ops = hill_operators(even_wave, "full")
    reductions = _Reduction.sectors(ops)
    assert reduced_row(ops.basis, reductions, kappa) is not None
    reduction = reductions[sector]
    floor = reduction.floor(_squares([kappa]))[0]
    tampered = list(reductions)
    tampered[sector] = unreported_mu_moved(reduction, kappa, 0.0 if target == "zero" else -2.0 * floor)
    try:
        row = reduced_row(ops.basis, tuple(tampered), kappa)
    except NumericalConsistencyError as error:
        assert "inertia" in str(error)
    else:
        assert row is None


def test_certificate_rejects_a_growth_pair_that_the_l1_count_hides(even_wave):
    # the negative L1 eigenvalue of the cosine sector raised above -kappa^2 at
    # the peak row: L1 counts no growth pair there, M has one, which no row
    # reports; the row fails the inertia count or goes to the dense solver
    ops = hill_operators(even_wave, "full")
    cosine, sine = _Reduction.sectors(ops)
    eigs = cosine.l1_eigs.copy()
    eigs[0] = -0.5 * README_PEAK_KAPPA**2
    assert np.all(np.diff(eigs) > 0.0)
    wrong = dataclasses.replace(cosine, l1_eigs=eigs)
    try:
        row = reduced_row(ops.basis, (wrong, sine), README_PEAK_KAPPA)
    except NumericalConsistencyError as error:
        assert "inertia" in str(error)
    else:
        assert row is None


def tamper_one_row(tamper, row):
    """The name of a _Reduction method and a replacement that corrupts one
    row of the grid."""
    if tamper == "l1-count":
        counts = _Reduction.counts

        def counted(self, kappa):
            out = counts(self, kappa)
            out[row] += 1
            return out

        return "counts", counted
    original = _Reduction.solve

    def solve(self, kappa, counts):
        solved = original(self, kappa, counts)
        if tamper == "growth-mu" and solved.mu[row, 0] < 0.0:
            solved.mu[row, 0] *= 1.0 + 1e-6
        elif tamper == "v2-flipped":
            solved.l1_mode[row] *= -1.0
        return solved

    return "solve", solve


@pytest.mark.parametrize(
    "tamper, row, check",
    [("growth-mu", 25, "residual"), ("l1-count", 39, "inertia"), ("v2-flipped", 25, "growth mode")],
)
def test_one_tampered_row_fails_the_whole_grid(even_wave, monkeypatch, tamper, row, check):
    # the README grid solves its 40 rows in one solve per sector; one bad row
    # among 39 good ones fails the scan, and the error names that row's kappa
    ops = hill_operators(even_wave, "full")
    assert scan_kappa(ops, 0.05, 1.8, 40).reduced_rows == 40
    kappa = np.linspace(0.05, 1.8, 40)[row]
    monkeypatch.setattr(_Reduction, *tamper_one_row(tamper, row))
    with pytest.raises(NumericalConsistencyError, match=f"{check}.*kappa={kappa:g}"):
        scan_kappa(ops, 0.05, 1.8, 40)


def scan_store(name, request):
    """The operator store and kappa grid of the fixture scan ``name``, or,
    for "readme<N>", of the README grid, 40 rows on [0.05, 1.8], on the even
    wave at N modes."""
    if name.startswith("readme"):
        wave = wave_at_resolution(request.getfixturevalue("even_wave"), int(name[len("readme") :]))
        return hill_operators(wave), np.linspace(0.05, 1.8, 40)
    scan = request.getfixturevalue(f"{name}_scan")
    wave = request.getfixturevalue("odd_wave" if name == "odd_full" else f"{name}_wave")
    return hill_operators(wave, scan.sector), scan.kappa_values


@pytest.mark.parametrize("name", ["even", "odd", "const", "odd_full", "readme64", "readme256"])
def test_growth_row_is_the_scan_row_bit_for_bit(name, request):
    # growth_row solves one row alone, the scan every row at once; a scan
    # row's certificate comes from the first row of its class that passes,
    # a lone row's from its own
    ops, kappa = scan_store(name, request)
    scan = scan_kappa(ops, kappa[0], kappa[-1], kappa.size)
    rows = [growth_row(ops, r.kappa) for r in scan.records]
    assert [row.record() for row in rows] == list(scan.records)
    pairs = [r.counts(scan.kappa_values).max() for r in _Reduction.sectors(ops)]
    if name.startswith("readme"):
        assert scan.reduced_rows == 40
    if name == "const":
        # the cosine sector has two growth pairs: the Rayleigh-Ritz path
        assert max(pairs) == 2
    if name == "odd_full":
        assert {row.path for row in rows} == {"dense", "reduced"}


@pytest.mark.parametrize("size", [64, 256, 512])
def test_readme_scan_across_resolutions_matches_the_whole_spectrum(even_wave, size, monkeypatch):
    # the README grid, 40 rows on [0.05, 1.8], on the even wave at N modes:
    # each row's path and count are those of every sector's whole spectrum
    # of M(kappa) (reduced where every mu clears the rounding floor), and its
    # growth that of the lowest mu's eigenvector, refined, to 4 ulps.  One
    # Cholesky factorization per sector and class of rows proves the whole
    # grid at every N: the cosine sector's k = 1 and k = 0 rows and the sine
    # sector's k = 0 rows
    ops = hill_operators(wave_at_resolution(even_wave, size))
    factored = []
    cholesky = np.linalg.cholesky

    def counted(matrix):
        factored.append(matrix.shape)
        return cholesky(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    scan = scan_kappa(ops, 0.05, 1.8, 40)
    monkeypatch.undo()
    assert len(factored) <= 3
    for record in scan.records:
        sectors = [
            oracles.reduced_spectrum_reference(b.l1, b.l2, record.kappa) for _, b in ops.sectors()
        ]
        resolved = all(np.min(np.abs(mu)) > floor for mu, floor, _ in sectors)
        assert record.path == ("reduced" if resolved else "dense")
        assert record.num_unstable == sum(np.count_nonzero(mu < 0.0) for mu, _, _ in sectors)
        growth = max(g for _, _, g in sectors)
        if resolved:
            assert abs(record.max_real_part - growth) <= 4 * np.spacing(growth)


@pytest.mark.parametrize("name", ["readme64", "readme128", "even", "odd", "const", "odd_full"])
def test_no_positive_mu_falls_as_kappa_grows(name, request):
    # the premise of the class certificate: where L2 + kappa^2 > 0, the
    # (k+1)-th mu of M(kappa), the lowest that is no growth pair, does not
    # fall from one row to the next of a run of rows of one k, beyond the
    # rounding floor of the later row
    ops, kappas = scan_store(name, request)
    steps = 0
    for _, block in ops.sectors():
        l1_eigs, d_low = np.linalg.eigvalsh(block.l1), np.linalg.eigvalsh(block.l2)[0]
        previous = None
        for kappa in kappas:
            if d_low + kappa**2 <= 0.0:
                previous = None
                continue
            k = int(np.count_nonzero(l1_eigs + kappa**2 < 0.0))
            mu, floor, _ = oracles.reduced_spectrum_reference(block.l1, block.l2, kappa)
            if previous is not None and previous[0] == k:
                assert mu[k] >= previous[1] - floor, (kappa, k)
                steps += 1
            previous = k, mu[k]
    assert steps >= len(kappas) // 2


def test_a_class_certificate_starts_at_the_first_row_that_passes(even_wave, monkeypatch):
    # a grid from kappa = 0 on the sine sector, where L1 has the kernel phi':
    # mu ~ kappa^2 lies within the rounding floor on the first three rows,
    # and 1.1 floors above zero on the fourth.  Each of those takes the
    # class's test and, failing it, its own; the fifth passes the class's,
    # which proves every later row without another factorization
    sine = _Reduction.sectors(hill_operators(even_wave, "full"))[1]
    k2 = _squares([0.0, 1e-4, 2e-4, 4e-4, 1e-3, 0.05, 0.5, 1.0, 1.8])
    s, floor = sine.scale(k2), sine.floor(k2)
    cholesky = np.linalg.cholesky

    def factors(matrix) -> bool:
        try:
            cholesky(matrix)
        except np.linalg.LinAlgError:
            return False
        return True

    # the decision of a row alone: one factorization of M(kappa) - floor
    alone = [factors(sine.matrix(*row)) for row in zip(k2, s, floor)]
    assert alone == [False] * 3 + [True] * 6

    calls = []

    def counted(matrix):
        assert matrix.shape == (sine.d.size,) * 2
        calls.append(factors(matrix))
        return cholesky(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    n = k2.size
    certified = sine._definite(
        k2, s, floor, np.zeros((n, 0)), np.zeros((n, sine.d.size, 0)), np.zeros(n, int)
    )
    assert certified.tolist() == alone
    # rows 0-3 fail the class's test, row 3 passes its own, row 4 the class's
    assert calls == [False, False] * 3 + [False, True, True]
    assert len(calls) == 1 + 2 * 4


def test_scan_builds_one_stack_at_a_time(even_wave):
    # M(kappa) and L1 + kappa^2 are built in place in stacks over chunks of
    # rows of at most a quarter of BATCH_BYTES (31 rows at d = 65), so the
    # scan of 40 rows peaks under two (rows, d, d) stacks; a broadcast
    # product s * (A + kappa^2) * s over all the rows would hold two such
    # stacks at once
    ops = hill_operators(even_wave, "full")
    d = max(r.d.size for r in _Reduction.sectors(ops))
    assert d == 65
    tracemalloc.start()
    try:
        scan_kappa(ops, 0.05, 1.8, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 40 * d * d * np.dtype(float).itemsize


def test_scan_memory_holds_one_slice_of_trial_spans(even_wave):
    # the growth pairs are solved over slices of rows whose trial spans of
    # k + 11 vectors hold at most BATCH_BYTES: the peak holds one slice's
    # span a few times over, a few vectors of order d per row for the
    # records and their checks, and matrices of order d, but neither the
    # trial spans of the whole grid (at d = 129 and 800 rows, 9.4 MiB, held
    # about five times over) nor a (rows, d, d) stack (101.6 MiB)
    ops = hill_operators(wave_at_resolution(even_wave, 256))
    d = max(r.d.size for r in _Reduction.sectors(ops))
    rows, double = 800, np.dtype(float).itemsize
    k = max(int(r.counts(np.linspace(0.05, 1.8, rows)).max()) for r in _Reduction.sectors(ops))
    assert (d, k) == (129, 1)
    assert rows * d * (k + 11) * double > 2 * BATCH_BYTES
    bound = 6 * BATCH_BYTES + (8 * rows * d + 16 * d * d) * double
    assert bound < 5 * rows * d * (k + 11) * double
    tracemalloc.start()
    try:
        scan = scan_kappa(ops, 0.05, 1.8, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.reduced_rows == rows
    assert peak < bound


@pytest.mark.parametrize(
    "name, sector", [("even", "full"), ("odd", "full"), ("const", "auto")]
)
def test_a_row_does_not_depend_on_its_slice(name, sector, request, monkeypatch):
    # each row in a slice of its own, and then in stacks of 1-3 d x d
    # matrices inside one slice of trial spans, writes the records of the
    # whole grid byte for byte, and so does each row solved alone: a row's
    # pairs, the dot products of its norms included, do not depend on the
    # rows solved beside it
    ops = hill_operators(request.getfixturevalue(f"{name}_wave"), sector)
    kappa = [float(k) for k in np.linspace(0.0, 4.0, 30)]
    whole = [repr(row.record()) for row in _solve_rows(ops, kappa)]
    reductions = _Reduction.sectors(ops)
    d = max(r.d.size for r in reductions)
    pairs = max(int(r.counts(kappa).max()) for r in reductions)
    assert pairs == (2 if name == "const" else 1)
    # a matrix stack holds a quarter of BATCH_BYTES: at order d, three rows'
    # matrices of one pair or one row's of two, and the spans of every row
    chunks = 4 * 3 * d * d * 8
    assert chunks // (8 * d * (pairs + 11)) >= len(kappa)
    for budget in (1, chunks):
        monkeypatch.setattr("gnlstab.scan.BATCH_BYTES", budget)
        stacked = [repr(row.record()) for row in _solve_rows(hill_operators(ops.wave, sector), kappa)]
        assert stacked == whole
        fresh = hill_operators(ops.wave, sector)
        assert [repr(growth_row(fresh, k).record()) for k in kappa] == whole


@pytest.mark.parametrize(
    "name, sector", [("even", "full"), ("odd", "full"), ("const", "auto")]
)
def test_a_row_does_not_depend_on_its_grid(name, sector, request):
    # every other kappa of a scan, solved as a grid of its own, writes those
    # rows' records byte for byte: reduced and dense rows, one and two growth
    # pairs per sector, and certificates from other rows of their classes
    ops = hill_operators(request.getfixturevalue(f"{name}_wave"), sector)
    whole = scan_kappa(ops, 0.0, 4.0, 30)
    every_other = [float(kappa) for kappa in whole.kappa_values[::2]]
    sub = [row.record() for row in _solve_rows(ops, every_other)]
    assert {record.path for record in sub} == {"dense", "reduced"}
    assert [repr(record) for record in sub] == [repr(record) for record in whole.records[::2]]


def test_the_probe_is_fixed_and_has_no_zero_component(even_wave):
    # the probe check would not see a column of Q along a zero component of
    # the probe (on the constant state M is diagonal); the vector depends on
    # d alone, so the certified path draws no random numbers
    for d in (1, 2, 63, 65, 513):
        z = _fixed_vector(d)
        assert z.shape == (d,) and np.all(z > 0.0)
        assert abs(np.linalg.norm(z) - 1.0) <= 4 * np.finfo(float).eps
        assert np.array_equal(z, _fixed_vector(d))
    for reduction in _Reduction.sectors(hill_operators(even_wave, "full")):
        assert np.array_equal(reduction.probe, _fixed_vector(reduction.d.size))


def test_inverse_iteration_separates_close_eigenvalues():
    # three negative eigenvalues, two of them 1e-10 apart, under a spread of
    # positive ones as wide as M(kappa)'s
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    values = np.concatenate([[-2.0, -2.0 + 1e-10, -1.0], np.geomspace(1.0, 1e6, 37)])
    m = (basis * values) @ basis.T
    m = 0.5 * (m + m.T)
    mu = np.linalg.eigvalsh(m)
    start = rng.standard_normal(40)
    start /= np.linalg.norm(start)
    shifted = np.stack([m - sigma * np.eye(40) for sigma in mu[:3]])
    y = np.stack([np.roll(start, j) for j in range(3)])
    for _ in range(2):
        y = _inverse_iteration(shifted, y)
    theta, y = _rayleigh_ritz(lambda x: m @ x, y.T[None])
    y = y[0]
    assert np.allclose(y.T @ y, np.eye(3), rtol=0.0, atol=1e-12)
    residual = np.linalg.norm(m @ y - y * mu[:3], axis=0)
    assert np.all(residual <= 40 * np.finfo(float).eps * 1e6)
    # the Ritz values are the eigenvalues, each at or above its own
    assert np.all(np.abs(theta[0] - mu[:3]) <= 40 * np.finfo(float).eps * 1e6)


def test_reduced_rows_are_closed_by_construction(even_scan, odd_scan, odd_full_scan, scan_rows):
    # a reduced row writes symmetry_defect = 0.0 without measuring it; its set
    # is +-(real or imaginary half), so the measured defect is exactly that.
    # The odd full-space scan solves its first rows densely (L2 + kappa^2
    # indefinite below kappa ~ 0.33), the others reduced
    for name, scan in (("even", even_scan), ("odd", odd_scan), ("odd_full", odd_full_scan)):
        assert scan.reduced_rows > 0
        for row in scan_rows(name)[scan.dense_rows :]:
            assert row.path == "reduced"
            assert row.symmetry_defect == 0.0
            assert _symmetry_defect(row.eigenvalues) == 0.0


# ---------------------------------------------------------------------------
# the parity split: cosine and sine sectors solved apart


def whole_block_eigs(wave, kappa, sector) -> RowSolution:
    """scipy.linalg.eig of the whole 2d x 2d block, not split by parity."""
    block, basis = evolution_block(hill_operators(wave, sector), kappa)
    values, vectors = scipy.linalg.eig(block)
    order = np.lexsort((values.imag, values.real))
    values, vectors = values[order], vectors[:, order]
    growing = np.flatnonzero(values.real > VECTOR_LEVEL)
    lead = growing[np.argmax(values.real[growing])] if growing.size else None
    return RowSolution(
        basis=basis,
        kappa=kappa,
        eigenvalues=values,
        max_real_part=float(np.max(np.abs(values.real))),
        leading_lambda=None if lead is None else complex(values[lead]),
        leading=None if lead is None else _normalize_mode(vectors[:, lead]),
        symmetry_defect=quadruple_defect(values),
        path="dense",
    )


def test_split_rows_match_a_whole_block_scipy_solve(
    even_wave, even_scan, odd_wave, odd_full_scan, solve_row
):
    # the dense_rows fixture goes through the split solver itself, so the
    # reference here is one unsplit solve by a second library
    peak = solve_row("even", even_scan.most_unstable.kappa)
    # kappa = 0.05: L2 + kappa^2 indefinite, dense path
    indefinite = solve_row("odd", odd_full_scan.records[0].kappa, "full")
    for wave, row in ((even_wave, peak), (odd_wave, indefinite)):
        oracle = whole_block_eigs(wave, row.kappa, "full")
        assert oracle.leading is not None
        assert_row_matches_dense(row, oracle)
        assert_row_matches_dense(instability_eigs(hill_operators(wave, "full"), row.kappa), oracle)
        v1, v2 = row.mode_fields()
        assert v1.parity == v2.parity == "none"


def test_full_scan_merges_the_sector_scans(even_wave, even_scan, scan_rows, solve_row):
    # on the even wave the full space is the direct sum of the even and odd
    # sectors, row by row
    even = [solve_row("even", kappa, "even") for kappa in even_scan.kappa_values]
    odd = [solve_row("even", kappa, "odd") for kappa in even_scan.kappa_values]
    for row, a, b in zip(scan_rows("even"), even, odd):
        assert row.max_real_part == max(a.max_real_part, b.max_real_part)
        assert row.num_unstable == a.num_unstable + b.num_unstable
        union = np.concatenate([a.eigenvalues, b.eigenvalues])
        union = union[np.lexsort((union.imag, union.real))]
        assert union.size == row.eigenvalues.size
        gap = np.abs(row.eigenvalues - union)
        assert np.all(gap <= CROSSCHECK_RTOL * (1.0 + np.abs(union)))


def test_coupling_above_the_floor_is_rejected(even_wave, monkeypatch):
    # an odd part delta * sin(2 pi x / L) in the potential couples cos 0 and
    # sin 1 by delta / sqrt(2); at delta 1e3 times the rounding floor
    # d * eps * max|entries| the potential is not even, and the full-space
    # store of every solve, assembled under the odd part, must refuse to
    # split the operators
    grid = even_wave.phi.grid
    full = ParityBasis(FULL, grid)
    entries = build_hill(even_wave, "L1", full).entries
    floor = full.dimension * np.finfo(float).eps * np.max(np.abs(entries))
    odd = 1e3 * floor * np.sin(2.0 * np.pi * grid.nodes / grid.length)
    potential = hill._potential
    monkeypatch.setattr(hill, "_potential", lambda wave, which: potential(wave, which) + odd)
    solves = [
        lambda: scan_kappa(hill_operators(even_wave), 0.05, 1.8, 4),
        lambda: instability_eigs(hill_operators(even_wave), 1.0),
        lambda: spectrum(hill_operators(even_wave), "L1"),
        lambda: spectrum(hill_operators(even_wave), "Lcal"),
        lambda: verify_hypotheses(hill_operators(even_wave)),
    ]
    for solve in solves:
        with pytest.raises(NumericalConsistencyError, match="coupling .* rounding floor"):
            solve()
    # the sector bases have no coupling block to check
    even = hill_operators(even_wave, "even")
    assert instability_eigs(even, 1.0).max_real_part > UNSTABLE_THRESHOLD


# ---------------------------------------------------------------------------
# band edges from the inertia law

#: edges the bisection located before the inertia law replaced it: the three
#: fixture scans and the odd wave scanned from kappa = 0 with 60 rows
BISECTED_EDGES = {
    "even": (1.7032391693632483,),
    "odd": (3.511205857487048,),
    "const": (1.4142139434814451,),
    "odd_from_zero": (2.586235434322034e-07, 3.5112058995133735),
}


@pytest.fixture(scope="module")
def odd_from_zero_scan(odd_wave):
    return scan_kappa(hill_operators(odd_wave), 0.0, 4.0, 60)


@pytest.mark.parametrize("name", list(BISECTED_EDGES))
def test_band_edges_agree_with_the_bisection(name, request):
    scan = request.getfixturevalue(f"{name}_scan")
    assert scan.dense_bisections == 0
    assert len(scan.band_edges) == len(BISECTED_EDGES[name])
    for edge, bisected in zip(scan.band_edges, BISECTED_EDGES[name]):
        assert abs(edge - bisected) <= EDGE_RESOLUTION


def test_forced_dense_rows_bisect_to_the_inertia_edges(odd_wave, odd_hypotheses, monkeypatch):
    # with the reduction switched off every row and every bracket goes dense
    monkeypatch.setattr(_Reduction, "semidefinite", lambda self, kappa: np.zeros(len(kappa), bool))
    gated = []

    def counted(*args):
        gated.append(args[-1])
        return _crosscheck(*args)

    monkeypatch.setattr("gnlstab.scan._crosscheck", counted)
    scan = scan_kappa(hill_operators(odd_wave), 0.0, 4.0, 8)
    assert scan.reduced_rows == 0 and scan.dense_rows == 8
    assert scan.dense_bisections >= 1
    # every dense solve, each bisection step included, is cross-checked once per sector
    sectors = len(hill_operators(odd_wave, scan.sector).sectors())
    assert len(gated) == sectors * (scan.dense_rows + scan.dense_bisections)
    closed_form = (0.0, np.sqrt(odd_hypotheses.h1["lambda0"]))
    assert len(scan.band_edges) == len(closed_form)
    for edge, expected in zip(scan.band_edges, closed_form):
        assert abs(edge - expected) <= EDGE_RESOLUTION


@pytest.mark.parametrize(
    "kappa, tampered",
    [
        # kappa^2 dropped from the count: above sqrt(lambda0) = 1.70 L1 still
        # counts its negative eigenvalue, M none
        (2.0, lambda ell, kappa: ell - kappa**2),
        # kappa^2 doubled: below sqrt(lambda0) M has one negative mu, while
        # L1 + 2 kappa^2 is already positive
        (1.5, lambda ell, kappa: ell + kappa**2),
    ],
    ids=["kappa2-dropped", "kappa2-doubled"],
)
def test_inertia_count_rejects_a_tampered_l1_spectrum(even_wave, kappa, tampered):
    ops = hill_operators(even_wave, "full")
    cosine, sine = _Reduction.sectors(ops)
    assert reduced_row(ops.basis, (cosine, sine), kappa) is not None
    # the negative eigenvalue of L1 lives in the cosine sector
    wrong = dataclasses.replace(cosine, l1_eigs=tampered(cosine.l1_eigs, kappa))
    with pytest.raises(NumericalConsistencyError, match="inertia"):
        reduced_row(ops.basis, (wrong, sine), kappa)


def test_band_end_outside_its_bracket_raises(even_wave):
    ops = hill_operators(even_wave, "full")
    with pytest.raises(NumericalConsistencyError, match=r"\[1, 1.1\]"):
        _band_end(ops, 1.0, 1.1, falling=True)
    with pytest.raises(NumericalConsistencyError, match="inertia"):
        _band_end(ops, 0.5, 0.6, falling=False)


# ---------------------------------------------------------------------------
# hypotheses


def test_even_hypotheses_pass(even_wave, even_hypotheses):
    report = even_hypotheses
    assert report.overall
    assert report.sector == "full"
    assert report.h0["passed"] and report.h0["max_asymmetry"] <= 1e-10
    # lambda0 agrees with an independent dense solve of S(0)
    from gnlstab.hill import build_block

    s0 = build_block(hill_operators(even_wave, "full"), "S_kappa", 0.0).entries
    lam0 = -float(scipy.linalg.eigh(s0, eigvals_only=True)[0])
    assert report.h1["lambda0"] == pytest.approx(lam0, rel=1e-12)
    assert report.h1["K"] == pytest.approx(np.sqrt(lam0), rel=1e-5)
    assert report.h1["passed"] and report.h1["beta"] > 0.0
    assert report.h2["passed"]
    assert report.h3 == {"passed": True, "note": "S'(kappa) = 2 kappa I"}
    assert report.h4["passed"] and report.h4["n_negative"] == 1
    assert report.h4["gap"] >= 10.0 * report.h4["zero_tolerance"]
    assert report.h4["margin"] == report.h4["gap"] / (10.0 * report.h4["zero_tolerance"])


@pytest.mark.parametrize("name", ["even", "odd", "const"])
def test_hypotheses_shift_matches_dense_solves(name, request):
    # (H1) takes lambda_min(S(K)) = lambda_min(S(0)) + K^2 = beta from one
    # spectrum of S(0); here S(0) + K^2 gets its own dense solve instead
    ops = request.getfixturevalue(f"{name}_ops")
    report = verify_hypotheses(ops)
    h1 = report.h1
    assert h1["K"] > 0.0
    s0 = build_block(ops, "S_kappa", 0.0).entries
    shifted = s0 + h1["K"] ** 2 * np.eye(s0.shape[0])
    lowest = float(scipy.linalg.eigh(shifted, eigvals_only=True)[0])
    assert abs(lowest - h1["beta"]) <= 1e-12 * np.max(np.abs(s0))


def test_odd_hypotheses_pass(odd_hypotheses):
    assert odd_hypotheses.overall
    assert odd_hypotheses.sector == "odd"
    assert odd_hypotheses.h4["n_negative"] == 1


@pytest.mark.parametrize("modes", [64, 128, 256, 512])
def test_a_kernel_lambda0_reads_as_zero(modes):
    # on an even wave's odd sector the lowest eigenvalue of S(0) is the
    # translation mode phi', zero but for rounding of either sign: (H1) reads
    # lambda0 = K = beta = 0 there, not the square root of rounding, and fails
    params = ProblemParams(alpha=1.0, omega=1.0, period=12.0, tau=30.0, parity="even")
    ops = hill_operators(solve_wave(params, modes), "odd")
    threshold = transverse_threshold(ops)
    assert threshold == (0.0, 0.0, 0.0) and not np.any(np.signbit(threshold))
    report = verify_hypotheses(ops)
    assert report.h1["beta"] == 0.0 and not report.h1["passed"]
    assert not report.h4["passed"]
    assert _band_end(ops, 0.0, 0.5, falling=True) == 0.0


def test_constant_fails_hypotheses(const_ops):
    # L1 contributes three negative directions to S(0): the one-negative-
    # eigenvalue assumption genuinely fails for the constant state
    report = verify_hypotheses(const_ops)
    assert not report.overall
    assert not report.h4["passed"]
    assert report.h4["n_negative"] == 3


def test_hypotheses_margin_stays_writable_at_a_tiny_tolerance(odd_ops):
    # gap / (10 * 1e-320) overflows; the report caps it so that it still serializes
    report = verify_hypotheses(odd_ops, zero_tolerance=1e-320)
    assert report.h4["margin"] == np.finfo(float).max
    assert serialize.loads(serialize.dumps(report)).h4 == report.h4


# ---------------------------------------------------------------------------
# sector resolution and input validation


def test_resolve_sector(even_wave, odd_wave):
    assert resolve_sector(even_wave, "auto") == "full"
    assert resolve_sector(odd_wave, "auto") == "odd"
    assert resolve_sector(even_wave, "even") == "even"
    with pytest.raises(ParameterError):
        resolve_sector(even_wave, "sideways")


def test_scan_input_validation(even_ops):
    with pytest.raises(ParameterError):
        scan_kappa(even_ops, -0.1, 1.0, 10)
    with pytest.raises(ParameterError):
        scan_kappa(even_ops, 1.0, 0.5, 10)
    with pytest.raises(ParameterError):
        scan_kappa(even_ops, 0.1, 1.0, 1)
    with pytest.raises(ParameterError):
        scan_kappa(even_ops, 0.1, float("inf"), 10)
    for steps in (10.5, float("nan"), "10"):
        with pytest.raises(ParameterError, match="integer"):
            scan_kappa(even_ops, 0.05, 2.0, steps)
    with pytest.raises(ParameterError):
        instability_eigs(even_ops, -0.5)


@pytest.mark.parametrize("kappa", [1e40, 1e150, 1e200, 1e300])
def test_a_kappa_past_the_float_range_is_a_parameter_error(even_wave, kappa):
    # tr P^2 is of degree 8 in kappa and overflowed from about 3e38, M(kappa)
    # from 1e150, kappa^2 itself from 1e155: every entry point rejects kappa first
    ops = hill_operators(even_wave)
    calls = [
        lambda: scan_kappa(ops, 0.0, kappa, 4),
        lambda: growth_row(ops, kappa),
        lambda: instability_eigs(ops, kappa),
        lambda: evolution_block(ops, kappa),
        lambda: build_block(ops, "S_kappa", kappa),
        lambda: evolve_and_fit(ops, kappa),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=re.escape(f"kappa={kappa:g} is above")):
            call()


def test_rows_stay_finite_up_to_the_kappa_limit(even_wave, odd_wave, const_wave):
    # the squared probe residual, of degree 10 in kappa, is a row's largest
    # quantity: reduced and dense rows at the limit stay finite and raise no
    # overflow warning (a dense row's real parts there are rounding, eps kappa^2)
    assert KAPPA_LIMIT == np.finfo(float).max ** 0.1
    for ops in (hill_operators(even_wave), hill_operators(odd_wave, "full"),
                hill_operators(const_wave)):
        scan = scan_kappa(ops, 0.5 * KAPPA_LIMIT, KAPPA_LIMIT, 3)
        assert scan.reduced_rows == 3 and scan.verdict == "no instability detected"
        assert np.all(np.isfinite(instability_eigs(ops, KAPPA_LIMIT).eigenvalues))


def test_edge_level_is_small():
    assert EDGE_LEVEL <= UNSTABLE_THRESHOLD
