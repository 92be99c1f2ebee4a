"""Linearized time integration cross-checking the eigenvalue scan."""

import numpy as np
import pytest

from gnlstab import evolve
from gnlstab.errors import IntegratorError, ParameterError
from gnlstab.evolve import (
    MAX_RECORDS,
    EvolutionConfig,
    _samples,
    evolve_and_fit,
    linearized_rhs,
    rk4_step_matrix,
    splitting_stepper,
)
from gnlstab.hill import hill_operators
from gnlstab.scan import _growth_block, evolution_block, growth_row
from gnlstab.spectral import RealField

TWO_PI = 2.0 * np.pi


def test_config_validation():
    with pytest.raises(ParameterError, match="unknown scheme"):
        EvolutionConfig(scheme="leapfrog")
    with pytest.raises(ParameterError, match="unknown seed"):
        EvolutionConfig(seed="gaussian")
    with pytest.raises(ParameterError):
        EvolutionConfig(time_step=-0.1)
    with pytest.raises(ParameterError):
        EvolutionConfig(final_time=0.0)
    for rng_seed in (-1, 1.5, None, True):
        with pytest.raises(ParameterError, match="rng_seed"):
            EvolutionConfig(rng_seed=rng_seed)


def test_config_rejects_a_step_count_it_fixes():
    # given both, time_step and final_time fix the step count before any run
    with pytest.raises(ParameterError, match="at least ten steps"):
        EvolutionConfig(time_step=1e-3, final_time=1e-3)
    with pytest.raises(ParameterError, match="^a run with time_step 1e-300 and final_time 1 "):
        EvolutionConfig(time_step=1e-300, final_time=1.0)
    # ten steps, and 2^62 steps, inside the int64 range, are allowed
    EvolutionConfig(time_step=0.1, final_time=1.0)
    EvolutionConfig(time_step=1.0, final_time=2.0**62)


def test_linearized_rhs_matches_block(even_wave, even_ops):
    block, basis = evolution_block(even_ops, 0.9)
    d = basis.dimension
    rng = np.random.default_rng(3)
    grid = even_wave.phi.grid
    v1 = RealField(grid, rng.standard_normal(grid.size), "none")
    v2 = RealField(grid, rng.standard_normal(grid.size), "none")
    r1, r2 = linearized_rhs(even_ops, 0.9, v1, v2)
    coeffs = np.concatenate([basis.analyze(v1.values), basis.analyze(v2.values)])
    out = block @ coeffs
    assert np.max(np.abs(basis.analyze(r1.values) - out[:d])) <= 1e-12 * (
        1.0 + np.max(np.abs(out))
    )
    assert np.max(np.abs(basis.analyze(r2.values) - out[d:])) <= 1e-12 * (
        1.0 + np.max(np.abs(out))
    )


def test_linearized_rhs_grid_mismatch(even_ops, const_wave):
    v = const_wave.phi
    with pytest.raises(ParameterError, match="grid"):
        linearized_rhs(even_ops, 0.5, v, v)


def test_rk4_matrix_is_taylor_polynomial():
    rng = np.random.default_rng(11)
    block = rng.standard_normal((6, 6))
    dt = 0.01
    a = dt * block
    expected = (
        np.eye(6) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
    )
    assert np.allclose(rk4_step_matrix(block, dt), expected, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# growth-rate fits


def test_eigenvector_seed_reproduces_rate(even_ops, even_scan):
    peak = even_scan.most_unstable
    run = evolve_and_fit(even_ops, peak.kappa)
    # the prediction is the scan's own row at that kappa, solved on another store
    assert run.predicted_rate == peak.max_real_part
    assert abs(run.fitted_rate - run.predicted_rate) <= 1e-7 * run.predicted_rate
    assert run.fit_residual <= 1e-8
    assert run.norms[0] == pytest.approx(1.0)
    assert np.all(np.diff(run.times) > 0.0)


def test_dense_path_kappa_predicts_its_row(odd_wave, odd_full_scan):
    # kappa = 0.05 on the odd wave in the full space: L2 + kappa^2 is
    # indefinite, so the scan's row there is the dense eig, and so is the DNS's
    row = odd_full_scan.records[0]
    assert odd_full_scan.dense_rows >= 1 and row.leading_lambda is not None
    run = evolve_and_fit(hill_operators(odd_wave, "full"), row.kappa)
    assert run.predicted_rate == row.max_real_part
    assert abs(run.fitted_rate - run.predicted_rate) <= 0.02 * run.predicted_rate


def sector_parts(ops, kappa, y):
    """The (block, part of y) of each parity sector of an operator store."""
    d = ops.basis.dimension
    return [
        (_growth_block(b.l2, b.l1, kappa), np.concatenate([y[r], y[d + r.start : d + r.stop]]))
        for r, b in ops.sectors()
    ]


def test_rk4_samples_match_step_by_step_loop(even_wave, even_ops, even_scan):
    # the run advances its seed's sector by powers of the RK4 matrix between
    # samples; the sampled norms are those of applying the step matrix once
    # per step
    peak = even_scan.most_unstable
    run = evolve_and_fit(even_ops, peak.kappa)
    ops = hill_operators(even_wave)
    row = growth_row(ops, peak.kappa)
    y0 = row.leading / np.linalg.norm(row.leading)
    ((block, y),) = [(b, part) for b, part in sector_parts(ops, peak.kappa, y0) if part.any()]
    assert block.shape[0] == 2 * (even_wave.phi.grid.size // 2 + 1)
    phi = rk4_step_matrix(block, run.time_step)
    steps = np.rint(run.times / run.time_step).astype(int)
    assert steps[1] > 1 and steps[-1] % steps[1] != 0  # strided, with a short last leap
    sampled = set(steps.tolist())
    expected = [np.linalg.norm(y)]
    for n in range(1, steps[-1] + 1):
        y = phi @ y
        if n in sampled:
            expected.append(np.linalg.norm(y))
    assert np.max(np.abs(run.norms / np.asarray(expected) - 1.0)) <= 1e-12


@pytest.mark.parametrize("seed", ["leading_eigenvector", "random"])
def test_sector_steps_match_the_whole_block(even_wave, even_ops, even_scan, seed):
    # each sector stepped on its own block, norms squared added, against the
    # same full-basis seed stepped by the unsplit 2d x 2d evolution block
    peak = even_scan.most_unstable
    run = evolve_and_fit(even_ops, peak.kappa, EvolutionConfig(seed=seed, rng_seed=4))
    ops = hill_operators(even_wave)
    row = growth_row(ops, peak.kappa)
    if seed == "random":
        y0 = np.random.default_rng(4).standard_normal(2 * row.basis.dimension)
    else:
        y0 = np.real(row.leading)
    y0 = y0 / np.linalg.norm(y0)
    steps = np.rint(run.times / run.time_step).astype(int)
    whole = rk4_step_matrix(evolution_block(ops, peak.kappa)[0], run.time_step)
    leaps = {n: np.linalg.matrix_power(whole, n) for n in set(np.diff(steps).tolist())}
    y, expected = y0, [1.0]
    for count in np.diff(steps):
        y = leaps[count] @ y
        expected.append(np.linalg.norm(y))
    assert np.max(np.abs(run.norms / np.asarray(expected) - 1.0)) <= 1e-12
    if seed == "leading_eigenvector":
        # one sector holds the seed; that sector alone, sampled in the run's
        # blocked products, gives the run's norms bit for bit
        ((block, y),) = [(b, part) for b, part in sector_parts(ops, peak.kappa, y0) if part.any()]
        phi = rk4_step_matrix(block, run.time_step)
        counts = np.diff(steps)
        sampled = _samples([(phi, y)], counts[0], counts[-1], counts.size)
        norms = np.concatenate([[np.linalg.norm(y)], sampled])
        assert np.array_equal(run.norms, norms)


def test_splitting_scheme_agrees(even_ops, even_scan):
    peak = even_scan.most_unstable
    run = evolve_and_fit(
        even_ops, peak.kappa, EvolutionConfig(scheme="splitting_order2")
    )
    rel = abs(run.fitted_rate - run.predicted_rate) / run.predicted_rate
    assert rel <= 1e-4


def test_random_seeds_mutually_consistent(even_ops, even_scan):
    # different random seeds converge onto the same dominant rate once
    # growth dominates the projection transient
    peak = even_scan.most_unstable
    rates = []
    for rng_seed in (0, 1, 2):
        run = evolve_and_fit(
            even_ops,
            peak.kappa,
            EvolutionConfig(seed="random", rng_seed=rng_seed),
        )
        rates.append(run.fitted_rate)
    spread = (max(rates) - min(rates)) / min(rates)
    assert spread <= 0.02
    # and the common value is the scanner's rate, up to the residue of
    # non-decaying neutral modes in the seed
    for rate in rates:
        assert abs(rate - peak.max_real_part) / peak.max_real_part <= 0.05


def test_splitting_step_reverses_exactly(even_wave):
    dt = 1e-3
    forward = splitting_stepper(even_wave, 0.9, dt)
    backward = splitting_stepper(even_wave, 0.9, -dt)
    rng = np.random.default_rng(7)
    w1 = rng.standard_normal(even_wave.phi.grid.size)
    w2 = rng.standard_normal(even_wave.phi.grid.size)
    a1, a2 = w1.copy(), w2.copy()
    for _ in range(200):
        a1, a2 = forward(a1, a2)
    for _ in range(200):
        a1, a2 = backward(a1, a2)
    scale = max(np.max(np.abs(w1)), np.max(np.abs(w2)))
    assert np.max(np.abs(a1 - w1)) <= 1e-6 * scale
    assert np.max(np.abs(a2 - w2)) <= 1e-6 * scale


#: (wave, sector, seed, parity sectors the seed touches): the odd wave's
#: leading mode on its odd sector, and a random seed on the even wave's full
#: space, which has a cosine and a sine part
SPLITTING_RUNS = [("odd", "odd", "leading_eigenvector", 1), ("even", "full", "random", 2)]


def splitting_run(name, sector, seed, request):
    wave = request.getfixturevalue(f"{name}_wave")
    kappa = request.getfixturevalue(f"{name}_scan").most_unstable.kappa
    config = EvolutionConfig(scheme="splitting_order2", seed=seed, rng_seed=5)
    return wave, kappa, evolve_and_fit(hill_operators(wave, sector), kappa, config)


@pytest.mark.parametrize("name, sector, seed, parts", SPLITTING_RUNS)
def test_splitting_samples_match_a_grid_loop(name, sector, seed, parts, request):
    # the run samples powers of the Strang step's matrix on each sector;
    # stepping the synthesized seed on the grid, one splitting_stepper call
    # per step, gives the same norms sqrt(h sum w^2) up to rounding
    wave, kappa, run = splitting_run(name, sector, seed, request)
    row = growth_row(hill_operators(wave, sector), kappa)
    d = row.basis.dimension
    if seed == "random":
        y0 = np.random.default_rng(5).standard_normal(2 * d)
    else:
        y0 = np.real(row.leading)
    y0 = y0 / np.linalg.norm(y0)
    step = splitting_stepper(wave, kappa, run.time_step)
    w = (row.basis.synthesize(y0[:d]), row.basis.synthesize(y0[d:]))
    h = wave.phi.grid.spacing
    steps = np.rint(run.times / run.time_step).astype(int)
    expected, done = [], 0
    for target in steps:
        for _ in range(target - done):
            w = step(*w)
        done = target
        expected.append(np.sqrt(h * np.sum(w[0] ** 2 + w[1] ** 2)))
    # rounding grows with the step count: 2e-15, about ten ulps, per step
    assert np.max(np.abs(run.norms / np.asarray(expected) - 1.0)) <= 2e-15 * steps[-1]


@pytest.mark.parametrize("name, sector, seed, parts", SPLITTING_RUNS)
def test_splitting_steps_once_per_sector(name, sector, seed, parts, request, monkeypatch):
    # the Strang step builds each sector's one-step matrix in one call on all
    # of its basis states; it is not called once per time step
    calls = []

    def counting_stepper(*args):
        step = splitting_stepper(*args)

        def counted(w1, w2):
            calls.append(w1.shape)
            return step(w1, w2)

        return counted

    monkeypatch.setattr(evolve, "splitting_stepper", counting_stepper)
    _, _, run = splitting_run(name, sector, seed, request)
    assert len(calls) == parts < run.times.size


def test_stable_kappa_stays_bounded(const_ops):
    # kappa = 2 is beyond the constant's instability band: no growth at all
    run = evolve_and_fit(
        const_ops, 2.0, EvolutionConfig(seed="random", final_time=20.0)
    )
    assert run.predicted_rate <= 1e-8
    # no spurious growth: the signed rate may drift slightly negative from
    # oscillatory interference but must not come out positive
    assert run.fitted_rate <= 1e-3
    assert np.max(run.norms) <= 10.0 * run.norms[0]


@pytest.mark.parametrize("steps", [2001, 3999, 7813])
def test_a_long_run_keeps_at_most_max_records_samples(const_ops, steps):
    # MAX_RECORDS caps the samples after t = 0, the last step's included, at
    # the shortest stride that keeps to it: 7813 steps, the README
    # pipeline's, keep every fourth step (1954 samples), not every third
    run = evolve_and_fit(const_ops, 1.0, EvolutionConfig(time_step=4.0 / steps, final_time=4.0))
    taken = int(np.rint(run.times[-1] / run.time_step))
    assert taken > MAX_RECORDS
    assert MAX_RECORDS // 2 < run.norms.size - 1 <= MAX_RECORDS


def test_unstable_time_step_raises(even_ops, even_scan):
    peak = even_scan.most_unstable
    probe = evolve_and_fit(even_ops, peak.kappa)
    with pytest.raises(IntegratorError, match="try a smaller one"):
        evolve_and_fit(
            even_ops,
            peak.kappa,
            EvolutionConfig(time_step=2.0 * probe.time_step),
        )


def test_eigenvector_seed_requires_instability(const_ops):
    with pytest.raises(ParameterError, match="use seed='random'"):
        evolve_and_fit(const_ops, 2.0)


def test_final_time_must_cover_ten_steps(even_ops, even_scan):
    peak = even_scan.most_unstable
    with pytest.raises(ParameterError, match="at least ten steps"):
        evolve_and_fit(
            even_ops,
            peak.kappa,
            EvolutionConfig(time_step=0.01, final_time=0.05),
        )


def test_a_step_count_past_int64_is_a_parameter_error(even_ops):
    # at kappa = 1e10 the automatic dt is about 2.8e-20, so the default
    # ten time units take 3.6e20 steps; the samples' np.arange made object
    # arrays there, and np.exp failed on them
    with pytest.raises(ParameterError) as error:
        evolve_and_fit(even_ops, 1e10, EvolutionConfig(seed="random"))
    message = str(error.value)
    assert message.startswith("kappa=1e+10 with time_step ")
    assert "and final_time 10 takes " in message
    limit = np.iinfo(np.int64).max
    assert message.endswith(f"steps, more than the {limit} that a step index holds")
