"""Constrained minimization, rescaling, Newton polish, and wave acceptance."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from gnlstab.errors import (
    ConvergenceError,
    DegenerateSolutionError,
    InvalidMultiplierError,
    NewtonBasinError,
    ParameterError,
    ReductionError,
    SingularJacobianError,
    WaveAcceptanceError,
)
from gnlstab.spectral import (
    EVEN,
    ODD,
    RealField,
    build_grid,
    first_derivative,
    inner,
    integrate,
    l2_norm,
    sample_function,
)
from gnlstab import cli, serialize, waves
from gnlstab.waves import (
    ProblemParams,
    WaveProfile,
    constant_wave,
    detected_fundamental_period,
    functional_B,
    functionals_E_F,
    minimize_constrained,
    newton_refine,
    ode_residual,
    ode_residual_field,
    phase_reduce,
    rescale_unit_multiplier,
    solve_wave,
    tau_for_amplitude,
    wave_at_resolution,
)

TWO_PI = 2.0 * np.pi


def count_sign_changes(values: np.ndarray) -> int:
    """Sign changes around the full periodic loop (wrap included)."""
    signs = np.sign(values[np.abs(values) > 1e-12 * np.max(np.abs(values))])
    return int(np.sum(signs != np.roll(signs, 1)))


# ---------------------------------------------------------------------------
# parameters and functionals


def test_problem_params_validation():
    with pytest.raises(ParameterError):
        ProblemParams(alpha=-1.0, omega=1.0, period=TWO_PI, tau=1.0, parity="even")
    with pytest.raises(ParameterError):
        ProblemParams(alpha=2.0, omega=0.0, period=TWO_PI, tau=1.0, parity="even")
    with pytest.raises(ParameterError):
        ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=1.0, parity="diagonal")


def test_odd_parity_needs_even_integer_alpha():
    with pytest.raises(ParameterError, match="odd parity requires even integer alpha"):
        ProblemParams(alpha=3.0, omega=1.0, period=TWO_PI, tau=1.0, parity="odd")
    # alpha = 4 is fine
    ProblemParams(alpha=4.0, omega=1.0, period=TWO_PI, tau=1.0, parity="odd")


def test_functional_B_zero():
    grid = build_grid(TWO_PI, 32)
    assert functional_B(RealField(grid, np.zeros(32), EVEN), 1.0) == 0.0


def test_functional_B_cosine():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, np.cos, EVEN)
    assert functional_B(f, 1.0) == pytest.approx(np.pi, rel=1e-12)


def test_functional_B_constant():
    grid = build_grid(TWO_PI, 32)
    c, omega = 1.7, 2.5
    f = RealField(grid, np.full(32, c), EVEN)
    assert functional_B(f, omega) == pytest.approx(omega * TWO_PI * c**2 / 2.0, rel=1e-12)


def test_functionals_E_F_zero():
    grid = build_grid(TWO_PI, 32)
    z = RealField(grid, np.zeros(32), EVEN)
    assert functionals_E_F(z, 2.0) == (0.0, 0.0)


def test_functionals_E_F_constant():
    grid = build_grid(TWO_PI, 32)
    f = RealField(grid, np.ones(32), EVEN)
    e, fval = functionals_E_F(f, 2.0)
    assert e == pytest.approx(-TWO_PI / 2.0, rel=1e-13)
    assert fval == pytest.approx(TWO_PI / 2.0, rel=1e-13)


def test_energy_splits_quadratic_form():
    # B_w(u) = E(u) + w F(u) + 2/(a+2) * int |u|^(a+2) for any field
    grid = build_grid(TWO_PI, 64)
    rng = np.random.default_rng(5)
    vals = 1.0 + 0.3 * np.cos(grid.nodes) + 0.1 * np.cos(3 * grid.nodes)
    u = RealField(grid, vals, EVEN)
    for alpha in (0.5, 1.0, 2.0, 3.0):
        omega = 1.3
        e, f = functionals_E_F(u, alpha)
        power = integrate(RealField(grid, np.abs(vals) ** (alpha + 2.0), EVEN))
        b = functional_B(u, omega)
        assert b == pytest.approx(e + omega * f + 2.0 * power / (alpha + 2.0), rel=1e-12)


def test_functionals_E_F_dnoidal_against_fine_quadrature():
    coarse = build_grid(TWO_PI, 128)
    fine = build_grid(TWO_PI, 512)
    u = RealField(coarse, oracles.dnoidal_values(coarse.nodes), EVEN)
    v = RealField(fine, oracles.dnoidal_values(fine.nodes), EVEN)
    e_c, f_c = functionals_E_F(u, 2.0)
    e_f, f_f = functionals_E_F(v, 2.0)
    assert abs(e_c - e_f) <= 1e-10 * max(abs(e_f), 1.0)
    assert abs(f_c - f_f) <= 1e-10 * max(abs(f_f), 1.0)


def test_ode_residual_zero_field():
    grid = build_grid(TWO_PI, 32)
    assert ode_residual(RealField(grid, np.zeros(32), EVEN), 2.0, 1.0) == 0.0


def test_ode_residual_constant_solution():
    grid = build_grid(TWO_PI, 32)
    level = 2.0 ** (1.0 / 3.0)  # omega^(1/alpha) for alpha=3, omega=2
    f = RealField(grid, np.full(32, level), EVEN)
    assert ode_residual(f, 3.0, 2.0) <= 1e-13


def test_ode_residual_dnoidal_oracle():
    grid = build_grid(TWO_PI, 128)
    f = RealField(grid, oracles.dnoidal_values(grid.nodes), EVEN)
    assert ode_residual(f, 2.0, 1.0) <= 1e-10


def test_detected_period():
    grid = build_grid(TWO_PI, 64)
    two_per_cell = sample_function(grid, lambda x: 1.0 + 0.3 * np.cos(2 * x), EVEN)
    assert detected_fundamental_period(two_per_cell) == pytest.approx(np.pi)
    const = RealField(grid, np.ones(64), EVEN)
    assert detected_fundamental_period(const) is None


# ---------------------------------------------------------------------------
# minimization


def test_minimize_constant_stationary_state(monkeypatch):
    # tau = L puts the constant u = 1 on the constraint surface; from a
    # constant-ish seed the iteration should land exactly there with c2 = 1
    monkeypatch.setattr(waves, "_seed_values", lambda params, grid: np.full(grid.size, 1.01))
    params = ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=TWO_PI, parity="even")
    wave = minimize_constrained(params, 64)
    assert np.max(np.abs(wave.phi.values - 1.0)) <= 1e-10
    assert wave.multiplier == pytest.approx(1.0, abs=1e-10)


def test_minimize_even_matches_shooting_oracle(even_wave):
    grid = even_wave.phi.grid
    reference = oracles.shooting_values(
        grid.nodes, 2.0, 1.0, float(even_wave.phi.values[0]), 0.0
    )
    assert np.max(np.abs(even_wave.phi.values - reference)) <= 1e-6


def test_minimize_even_matches_elliptic_oracle(even_wave):
    grid = even_wave.phi.grid
    assert np.max(np.abs(even_wave.phi.values - oracles.dnoidal_values(grid.nodes))) <= 1e-6


def test_pre_rescale_residual(even_wave):
    params = even_wave.params
    stationary = minimize_constrained(params)
    # multiplier-equation residual of the raw minimizer
    assert stationary.ode_residual_norm <= 1e-8
    assert stationary.multiplier > 0.0
    measured = integrate(
        RealField(
            stationary.phi.grid,
            np.abs(stationary.phi.values) ** (params.alpha + 2.0),
            EVEN,
        )
    )
    assert abs(stationary.constraint_value - measured) <= 1e-10 * params.tau
    assert abs(measured - params.tau) <= 1e-10 * params.tau


def test_odd_wave_two_sign_changes(odd_wave):
    assert count_sign_changes(odd_wave.phi.values) == 2
    assert odd_wave.ode_residual_norm <= 1e-8


def test_odd_wave_matches_elliptic_oracle(odd_wave):
    grid = odd_wave.phi.grid
    reference = oracles.cnoidal_values(grid.nodes)
    err = min(
        float(np.max(np.abs(odd_wave.phi.values - reference))),
        float(np.max(np.abs(odd_wave.phi.values + reference))),
    )  # both signs solve the odd problem
    assert err <= 1e-6


def test_odd_wave_antisymmetry(odd_wave):
    vals = odd_wave.phi.values
    mirrored = vals[(-np.arange(vals.size)) % vals.size]
    assert np.max(np.abs(vals + mirrored)) <= 1e-10 * np.max(np.abs(vals))
    assert abs(vals[0]) <= 1e-10 * np.max(np.abs(vals))


def test_zero_seed_degenerates(monkeypatch):
    monkeypatch.setattr(waves, "_seed_values", lambda params, grid: np.zeros(grid.size))
    params = ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=1.0, parity="even")
    with pytest.raises(DegenerateSolutionError):
        minimize_constrained(params, 32)


def test_constant_regime_snaps_exactly():
    # at alpha = 1 (and below) with omega = 1, L = 2*pi the even minimizer is
    # the constant; the solver should return it exactly, not a noisy neighbor
    for alpha in (0.5, 1.0):
        wave = solve_wave(
            ProblemParams(alpha=alpha, omega=1.0, period=TWO_PI, tau=5.0, parity="even")
        )
        assert np.ptp(wave.phi.values) == 0.0
        assert wave.ode_residual_norm <= 1e-11


def test_nonconstant_minimizer_beats_constant(even_wave):
    # when a nonconstant wave exists its constrained energy is strictly below
    # the constant's at the same tau
    params = even_wave.params
    stationary = minimize_constrained(params)
    level = (params.tau / params.period) ** (1.0 / (params.alpha + 2.0))
    b_const = 0.5 * params.omega * params.period * level**2
    assert stationary.functional_value < b_const - 1e-6


# ---------------------------------------------------------------------------
# gradient and stationarity diagnostics


def test_gradient_matches_finite_differences():
    grid = build_grid(TWO_PI, 64)
    omega = 1.3
    base = RealField(grid, 1.0 + 0.4 * np.cos(grid.nodes) + 0.05 * np.cos(2 * grid.nodes), EVEN)
    rng = np.random.default_rng(17)
    for _ in range(5):
        direction = RealField(grid, rng.standard_normal(64), "none")
        analytic = inner(first_derivative(base), first_derivative(direction)) + omega * inner(
            base, direction
        )
        eps = 1e-6
        plus = RealField(grid, base.values + eps * direction.values, "none")
        minus = RealField(grid, base.values - eps * direction.values, "none")
        fd = (functional_B(plus, omega) - functional_B(minus, omega)) / (2.0 * eps)
        assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1.0)


def test_lagrange_stationarity_angle(even_wave):
    # grad B is parallel to the constraint gradient at the minimizer
    stationary = minimize_constrained(even_wave.params)
    u = stationary.phi
    alpha = even_wave.params.alpha
    g1 = -np.fft.irfft(
        np.fft.rfft(u.values) * (-(u.grid.rfft_wavenumbers**2)), n=u.grid.size
    ) + even_wave.params.omega * u.values
    g2 = np.abs(u.values) ** alpha * u.values
    cosine = float(np.dot(g1, g2) / (np.linalg.norm(g1) * np.linalg.norm(g2)))
    assert math.acos(min(cosine, 1.0)) <= 1e-6


# ---------------------------------------------------------------------------
# rescaling and phase reduction


def test_rescale_identity():
    grid = build_grid(TWO_PI, 32)
    f = RealField(grid, 1.0 + 0.1 * np.cos(grid.nodes), EVEN)
    g = rescale_unit_multiplier(f, 1.0, 2.0)
    assert np.array_equal(g.values, f.values)


def test_rescale_fourth_root():
    grid = build_grid(TWO_PI, 32)
    f = RealField(grid, np.ones(32), EVEN)
    g = rescale_unit_multiplier(f, 16.0, 2.0)
    assert np.allclose(g.values, 4.0)


def test_rescale_rejects_nonpositive_multiplier():
    grid = build_grid(TWO_PI, 32)
    f = RealField(grid, np.ones(32), EVEN)
    for c2 in (0.0, -2.0, float("nan")):
        with pytest.raises(InvalidMultiplierError):
            rescale_unit_multiplier(f, c2, 2.0)


def test_scaling_consistency(even_wave):
    # rescaling can enlarge the residual by at most (1 + c2^(1 + 1/alpha))
    params = even_wave.params
    stationary = minimize_constrained(params)
    c2 = stationary.multiplier
    psi = rescale_unit_multiplier(stationary.phi, c2, params.alpha)
    after = ode_residual(psi, params.alpha, params.omega)
    before = stationary.ode_residual_norm
    assert after <= (1.0 + c2 ** (1.0 + 1.0 / params.alpha)) * before + 1e-14


def test_phase_reduce_pure_imaginary():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, lambda x: 1.0 + 0.2 * np.cos(x), EVEN)
    zero = RealField(grid, np.zeros(32), EVEN)
    profile, theta = phase_reduce(zero, f)
    assert theta == pytest.approx(np.pi / 2.0)
    assert np.max(np.abs(profile.values - f.values)) <= 1e-14


def test_phase_reduce_pure_real():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, lambda x: 1.0 + 0.2 * np.cos(x), EVEN)
    zero = RealField(grid, np.zeros(32), EVEN)
    profile, theta = phase_reduce(f, zero)
    assert theta == 0.0
    assert np.max(np.abs(profile.values - f.values)) <= 1e-14


def test_phase_reduce_three_four_five():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, lambda x: 1.0 + 0.2 * np.cos(x), EVEN)
    p1 = RealField(grid, 3.0 * f.values, EVEN)
    p2 = RealField(grid, 4.0 * f.values, EVEN)
    profile, theta = phase_reduce(p1, p2)
    assert np.max(np.abs(profile.values - 5.0 * f.values)) <= 1e-12
    assert theta == pytest.approx(math.atan2(1.0, 0.75))


def test_phase_reduce_rejects_non_proportional_pair():
    grid = build_grid(TWO_PI, 32)
    f = sample_function(grid, lambda x: 1.0 + 0.2 * np.cos(x), EVEN)
    g = sample_function(grid, lambda x: 1.0 + 0.2 * np.cos(2 * x), EVEN)
    with pytest.raises(ReductionError):
        phase_reduce(f, g)


# ---------------------------------------------------------------------------
# Newton polish


def test_newton_fixed_point_returns_unchanged():
    wave = constant_wave(2.0, 1.0, TWO_PI, 32)
    out = newton_refine(wave)
    assert out is wave


def test_newton_contracts_perturbed_dnoidal(monkeypatch):
    grid = build_grid(TWO_PI, 128)
    vals = oracles.dnoidal_values(grid.nodes)
    perturbed = vals + 1e-4 * np.cos(2 * grid.nodes)
    params = ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=12.0, parity="even")
    seed = WaveProfile(
        params=params,
        phi=RealField(grid, perturbed, EVEN),
        ode_residual_norm=ode_residual(RealField(grid, perturbed, EVEN), 2.0, 1.0),
        functional_value=0.0,
        constraint_value=0.0,
    )
    assert 1e-5 <= seed.ode_residual_norm <= 1e-2
    monkeypatch.setattr(waves, "NEWTON_MAX_STEPS", 6)
    polished = newton_refine(seed)
    assert polished.ode_residual_norm <= 1e-11


def test_newton_rejects_far_seed():
    grid = build_grid(TWO_PI, 64)
    vals = 1.0 + 0.5 * np.cos(grid.nodes)
    params = ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=12.0, parity="even")
    seed = WaveProfile(
        params=params,
        phi=RealField(grid, vals, EVEN),
        ode_residual_norm=0.5,
        functional_value=0.0,
        constraint_value=0.0,
    )
    with pytest.raises(NewtonBasinError):
        newton_refine(seed)


def perturbed_dnoidal_seed() -> WaveProfile:
    """The dnoidal wave at N = 128 plus 1e-4 cos 2x: residual about 1e-4."""
    grid = build_grid(TWO_PI, 128)
    phi = RealField(grid, oracles.dnoidal_values(grid.nodes) + 1e-4 * np.cos(2 * grid.nodes), EVEN)
    params = ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=12.0, parity="even")
    return WaveProfile(params=params, phi=phi, ode_residual_norm=ode_residual(phi, 2.0, 1.0),
                       functional_value=0.0, constraint_value=0.0)


def newton_failure() -> ConvergenceError:
    with pytest.raises(ConvergenceError) as error:
        newton_refine(perturbed_dnoidal_seed())
    failure = error.value
    assert failure.last_iterate.shape == (128,)
    grid = build_grid(TWO_PI, 128)
    residual = ode_residual(RealField(grid, failure.last_iterate, EVEN), 2.0, 1.0)
    assert failure.gradient_norm == residual
    return failure


def test_newton_stalls_at_the_rounding_floor(monkeypatch):
    # a NEWTON_TOLERANCE of 1e-17 is below the residual's rounding floor
    # (about 1e-12 here), so no damped step reduces the residual.  This is
    # the failure that ROADMAP item 1 (a Newton that reports convergence at
    # the floor) removes; that change replaces this test with its own
    # acceptance test.
    monkeypatch.setattr(waves, "NEWTON_TOLERANCE", 1e-17)
    failure = newton_failure()
    assert str(failure) == "Newton step failed to reduce the residual"
    assert 1e-13 < failure.gradient_norm < 1e-11


def test_newton_step_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(waves, "NEWTON_MAX_STEPS", 1)
    failure = newton_failure()
    assert str(failure) == (
        f"Newton did not reach 1e-11 in 1 steps (residual {failure.gradient_norm:.3e})"
    )
    assert f"{failure.gradient_norm:.3e}" == "3.771e-08"


def test_a_singular_jacobian_propagates_out_of_solve_wave(monkeypatch):
    def singular(wave):
        raise SingularJacobianError("singular on purpose")

    monkeypatch.setattr(waves, "newton_refine", singular)
    params = ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=12.0, parity="even")
    with pytest.raises(SingularJacobianError, match="singular on purpose"):
        solve_wave(params, 32)


def moved_jacobians(monkeypatch, which: str, t: float) -> list:
    """Patch Newton's Jacobian assembly so that one eigenvalue, the lowest or
    the one nearest zero, moves to t * 1e-12 max|lambda|; returns the list
    of the matrices it hands out."""
    assemble, handed = waves.hill_matrix, []

    def moved(basis, omega, potential):
        lam, v = np.linalg.eigh(assemble(basis, omega, potential))
        j = 0 if which == "lowest" else int(np.argmin(np.abs(lam)))
        lam[j] = t * 1e-12 * np.max(np.abs(lam))
        jac = (v * lam) @ v.T
        handed.append(0.5 * (jac + jac.T))
        return handed[-1].copy()

    monkeypatch.setattr(waves, "hill_matrix", moved)
    return handed


def singular_message(jac: np.ndarray):
    """The SingularJacobianError message where the spectrum of ``jac`` makes
    it singular (min|lambda| <= 1e-12 max|lambda|, as ``eigvalsh`` computes
    them), else None."""
    eigs = np.abs(np.linalg.eigvalsh(jac))
    if np.min(eigs) > 1e-12 * np.max(eigs):
        return None
    return ("Newton Jacobian is singular on the parity subspace "
            f"(relative smallest eigenvalue {np.min(eigs) / np.max(eigs):.2e})")


def counted(monkeypatch, name: str) -> list:
    """Patch ``numpy.linalg.<name>`` to record the shape of each matrix it
    takes; returns the list of those shapes."""
    shapes, solve = [], getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def newton_outcome(seed: WaveProfile):
    """The polished profile's bytes, or the SingularJacobianError message."""
    try:
        return newton_refine(seed).phi.values.tobytes()
    except SingularJacobianError as error:
        return str(error)


@pytest.mark.parametrize("which", ["lowest", "nearest zero"])
@pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 1e3])
def test_the_jacobian_guard_decides_as_the_spectrum_does(monkeypatch, which, t):
    handed = moved_jacobians(monkeypatch, which, t)
    spectra = counted(monkeypatch, "eigvalsh")
    monkeypatch.setattr(waves, "NEWTON_MAX_STEPS", 1)
    try:
        newton_refine(perturbed_dnoidal_seed())
        raised = None
    except (SingularJacobianError, ConvergenceError) as error:
        raised = error
    fallbacks = len(spectra)
    # the fallback, where it runs, decides on the Jacobian as handed out
    assert all(np.array_equal(jac, handed[0]) for jac in handed)
    expected = singular_message(handed[0])
    if expected is None:
        assert not isinstance(raised, SingularJacobianError)
    else:
        assert isinstance(raised, SingularJacobianError)
        assert str(raised) == expected
    if t == 1e3:
        # an eigenvalue 1e-9 max|lambda| from zero is proved without a spectrum
        assert fallbacks == 0
    assert (expected is None) == (t > 1.0)


@pytest.mark.parametrize("alpha, parity, period, omega", [
    (0.5, "even", 12.0, 4.0), (2.0, "even", TWO_PI, 4.0), (3.0, "even", TWO_PI, 1.0),
    (4.0, "even", 12.0, 1.0), (2.0, "odd", 12.0, 1.0), (4.0, "odd", TWO_PI, 4.0),
])
def test_newton_proves_its_jacobian_regular_without_a_spectrum(monkeypatch, alpha, parity, period, omega):
    # the Ritz vectors of one step are not eigenvectors to rounding: a lift of
    # |theta| instead of 2 |theta| fails the certificate on each of these waves
    stationary = tau_for_amplitude(alpha, omega, period, parity, 1.5, 64)
    spectra, factors = counted(monkeypatch, "eigvalsh"), counted(monkeypatch, "cholesky")
    solve_wave(stationary.params, 64, stationary)
    assert factors and spectra == []


@pytest.mark.parametrize("t", [None, 0.0])
def test_a_failed_certificate_leaves_the_decision_to_the_spectrum(monkeypatch, t):
    # the dnoidal seed as it is, and with a singular Jacobian
    seed = perturbed_dnoidal_seed()
    if t is not None:
        moved_jacobians(monkeypatch, "nearest zero", t)
    expected = newton_outcome(seed)
    assert isinstance(expected, str) == (t is not None)
    factors, cholesky = [], np.linalg.cholesky

    def failing(a):
        factors.append(np.shape(a))
        cholesky(a)
        raise np.linalg.LinAlgError("forced to fail")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    spectra = counted(monkeypatch, "eigvalsh")
    assert newton_outcome(seed) == expected
    # each step's certificate failed, and each step's spectrum decided
    assert factors and spectra == factors == [(65, 65)] * len(factors)


def test_newton_evaluates_each_iterates_residual_once(monkeypatch):
    # one residual of the input, which the basin check and the first step
    # share, one of each trial, an accepted trial's being the next step's,
    # and the polished record's own: steps + 2 where no step is damped (the
    # loop used to evaluate each iterate's residual twice, 2 steps + 3)
    fields, field = [], waves.ode_residual_field

    def counted_field(phi, alpha, omega):
        fields.append(phi.values.tobytes())
        return field(phi, alpha, omega)

    seed = perturbed_dnoidal_seed()
    expected = newton_refine(seed)
    monkeypatch.setattr(waves, "ode_residual_field", counted_field)
    steps = counted(monkeypatch, "solve")
    polished = newton_refine(seed)
    assert polished.phi.values.tobytes() == expected.phi.values.tobytes()
    assert polished.ode_residual_norm == expected.ode_residual_norm
    assert len(steps) >= 2 and len(fields) == len(steps) + 2
    # no iterate's residual is evaluated twice in a row
    assert all(a != b for a, b in zip(fields, fields[1:-1]))


# ---------------------------------------------------------------------------
# accepted-wave bookkeeping


def test_accepted_wave_invariants(even_wave):
    params = even_wave.params
    assert even_wave.ode_residual_norm <= waves.NEWTON_TOLERANCE
    assert float(np.min(even_wave.phi.values)) > 0.0
    measured = integrate(
        RealField(
            even_wave.phi.grid,
            np.abs(even_wave.phi.values) ** (params.alpha + 2.0),
            EVEN,
        )
    )
    assert abs(even_wave.constraint_value - measured) <= 1e-10 * params.tau
    assert even_wave.detected_period == pytest.approx(TWO_PI)


def test_under_resolved_even_profile_asks_for_more_modes():
    # at L = 8 pi the N=64 profile dips below zero by less than the amplitude
    # of its top Fourier modes: aliasing, not a sign-changing wave
    params = ProblemParams(alpha=3.0, omega=4.0, period=8.0 * np.pi, tau=1.0, parity="even")
    message = r"spectral tail 1\.2\d+e-02 .* under-resolved at N=64; rerun with --modes 128"
    with pytest.raises(WaveAcceptanceError, match=message):
        solve_wave(params, 64)
    assert float(np.min(solve_wave(params, 256).phi.values)) > 0.0


def test_resolved_sign_changing_even_profile_is_rejected_as_such():
    # cos(x) is resolved exactly on any grid: its negative minimum is physics
    grid = build_grid(TWO_PI, 64)
    phi = sample_function(grid, np.cos, EVEN)
    params = ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=1.0, parity="even")
    wave = dataclasses.replace(waves._profile(params, phi), ode_residual_norm=0.0)
    with pytest.raises(WaveAcceptanceError, match="not strictly positive"):
        waves._accept(wave)


def test_wave_at_resolution_preserves_profile(even_wave):
    fine = wave_at_resolution(even_wave, 256)
    assert fine.phi.grid.size == 256
    assert np.max(np.abs(fine.phi.values[::2] - even_wave.phi.values)) <= 1e-9
    assert fine.ode_residual_norm <= 1e-7  # interpolation only, no polish


def test_constant_wave_record():
    wave = constant_wave(2.0, 4.0, TWO_PI, 64)
    assert np.all(wave.phi.values == 2.0)
    assert wave.ode_residual_norm <= 1e-12
    assert wave.detected_period is None


def test_tau_for_amplitude_hits_target():
    tau = tau_for_amplitude(2.0, 1.0, TWO_PI, "even", 1.5).params.tau
    pre = minimize_constrained(
        ProblemParams(alpha=2.0, omega=1.0, period=TWO_PI, tau=tau, parity="even")
    )
    assert abs(float(np.max(np.abs(pre.phi.values))) - 1.5) <= 1e-4


@pytest.mark.parametrize(
    "alpha, omega, parity, amplitude",
    [
        (2.0, 1.0, "even", 1.5),
        (2.0, 4.0, "odd", 2.5),
        (0.5, 1.0, "even", 1.2),  # the minimizer is the constant
    ],
)
def test_tau_for_amplitude_scales_its_minimizer(alpha, omega, parity, amplitude):
    # the minimizer at tau is (tau/tau0)^(1/(a+2)) times the one at tau0, so
    # tau_for_amplitude scales its one minimization; a second one at tau,
    # which tau_for_amplitude ran before, lands on the same record
    stationary = tau_for_amplitude(alpha, omega, TWO_PI, parity, amplitude, 64)
    reference = minimize_constrained(
        ProblemParams(alpha=alpha, omega=omega, period=TWO_PI, tau=stationary.params.tau,
                      parity=parity),
        64,
    )
    assert stationary.params == reference.params
    assert stationary.phi.parity == reference.phi.parity
    assert stationary.phi.grid == reference.phi.grid
    scale = reference.phi.max_abs
    assert np.max(np.abs(stationary.phi.values - reference.phi.values)) <= 1e-14 * scale
    assert abs(stationary.phi.max_abs - amplitude) <= 1e-14 * amplitude
    for name in ("functional_value", "constraint_value"):
        made, expected = getattr(stationary, name), getattr(reference, name)
        assert abs(made - expected) <= 1e-14 * abs(expected), name
    # both are stationary points to the minimization's own tolerance
    assert stationary.ode_residual_norm <= 1e-9 and reference.ode_residual_norm <= 1e-9
    assert stationary.detected_period == reference.detected_period


def test_solve_wave_polishes_the_amplitude_minimizer(monkeypatch, tmp_path):
    # tau_for_amplitude minimizes once, solve_wave takes its minimizer
    # instead of minimizing again at the same tau, and the wave moves by
    # rounding only
    calls = []
    original = waves.minimize_constrained

    def counted(params, modes=waves.MODES):
        calls.append(params.tau)
        return original(params, modes)

    monkeypatch.setattr(waves, "minimize_constrained", counted)
    stationary = tau_for_amplitude(2.0, 1.0, TWO_PI, "even", 1.5, 64)
    passed = solve_wave(stationary.params, 64, stationary)
    assert len(calls) == 1 and calls[0] == TWO_PI * 1.5**4
    own = solve_wave(stationary.params, 64)
    assert calls[1:] == [stationary.params.tau]
    assert own.params == passed.params
    scale = own.phi.max_abs
    assert np.max(np.abs(passed.phi.values - own.phi.values)) <= 1e-14 * scale

    # gnlstab solve --tau auto:amplitude=A minimizes once in all
    calls.clear()
    argv = ["solve", "--alpha", "2", "--tau", "auto:amplitude=1.5", "--modes", "64"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert (tmp_path / "wave.json").read_text(encoding="utf-8") == serialize.dumps(passed)


@pytest.mark.parametrize(
    "change, modes", [({"tau": 1.0}, 32), ({}, 64)], ids=["other-params", "other-grid"]
)
def test_solve_wave_rejects_a_minimizer_of_another_problem_or_grid(change, modes):
    stationary = tau_for_amplitude(2.0, 1.0, TWO_PI, "even", 1.5, 32)
    params = dataclasses.replace(stationary.params, **change)
    with pytest.raises(ParameterError) as error:
        solve_wave(params, modes, stationary)
    assert str(error.value) == "the given minimizer solves another problem or grid"


def test_tau_for_amplitude_rejects_bad_target():
    with pytest.raises(ParameterError):
        tau_for_amplitude(2.0, 1.0, TWO_PI, "even", -1.0)


def test_residual_field_tagged_parity_free(even_wave):
    res = ode_residual_field(even_wave.phi, 2.0, 1.0)
    assert res.parity == "none"
    assert l2_norm(res) == pytest.approx(even_wave.ode_residual_norm)
