"""Standing-wave profiles for the focusing gNLS equation on a periodic cell.

A profile phi solves

    -phi'' + w*phi - |phi|^a * phi = 0,        x in [0, L),

and is produced here variationally: minimize the quadratic energy

    B_w(u) = 1/2 * int u_x^2 + w*u^2 dx

over the constraint set { int |u|^(a+2) dx = tau } inside a fixed parity
class, rescale the Lagrange multiplier to one, and polish with a Newton
iteration restricted to the same parity subspace, whose Jacobian L1 one
Cholesky factorization per step proves regular, without a spectrum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSolutionError,
    InvalidMultiplierError,
    NewtonBasinError,
    ParameterError,
    ReductionError,
    SingularJacobianError,
    WaveAcceptanceError,
)
from .spectral import (
    COSINE,
    EVEN,
    NONE,
    ODD,
    SINE,
    ParityBasis,
    PeriodicGrid,
    RealField,
    _plus_diagonal,
    _rayleigh_ritz,
    _rounding_floor,
    build_grid,
    first_derivative,
    hill_matrix,
    inner,
    integrate,
    l2_norm,
    resample,
)

#: grid size N of the solvers when the caller names none
MODES = 128

#: profile-equation residual (discrete L2 norm) at which the Newton polish
#: stops and below which :func:`solve_wave` accepts a profile
NEWTON_TOLERANCE = 1e-11

#: step cap of the Newton polish
NEWTON_MAX_STEPS = 30

#: max-norm residual above which the Newton polish refuses to start
NEWTON_BASIN_LIMIT = 1e-2

#: relative spectral amplitude below which a Fourier mode counts as inactive
PERIOD_DETECTION_RTOL = 1e-8

#: iteration cap of the constrained minimization
MAX_OUTER_ITERATIONS = 20000

#: multiplier-equation residual, relative to ||(-d_xx + w) u||, at which the
#: constrained minimization stops
GRADIENT_TOLERANCE = 1e-10


def _is_even_integer(x: float) -> bool:
    n = round(x)
    return abs(x - n) < 1e-9 and n >= 2 and n % 2 == 0


@dataclass(frozen=True)
class ProblemParams:
    """Model and constraint parameters for one standing-wave solve."""

    alpha: float
    omega: float
    period: float
    tau: float
    parity: str

    def __post_init__(self):
        for name in ("alpha", "omega", "period", "tau"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ParameterError(f"{name} must be positive and finite, got {v}")
        if self.parity not in (EVEN, ODD):
            raise ParameterError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.parity == ODD and not _is_even_integer(self.alpha):
            raise ParameterError(
                "odd parity requires even integer alpha "
                f"(sign-changing profiles need a smooth |u|^alpha); got alpha={self.alpha}"
            )


@dataclass(frozen=True)
class WaveProfile:
    """Accepted or intermediate standing-wave record.

    For the output of :func:`minimize_constrained`, ``ode_residual_norm`` is
    the multiplier-equation residual ||-u'' + w u - c2 |u|^a u||_2 with
    c2 = 2*functional_value/constraint_value; after the unit rescaling it is
    the residual of the profile equation itself (c2 = 1).
    """

    params: ProblemParams
    phi: RealField
    ode_residual_norm: float
    functional_value: float
    constraint_value: float
    detected_period: Optional[float] = None

    @property
    def multiplier(self) -> float:
        """Lagrange multiplier c2 = 2 B_w(u) / int |u|^(a+2)."""
        return 2.0 * self.functional_value / self.constraint_value

    @property
    def wave_id(self) -> str:
        p = self.params
        return (
            f"{p.parity}-a{p.alpha:g}-w{p.omega:g}"
            f"-L{p.period:.9g}-N{self.phi.grid.size}"
        )


# ---------------------------------------------------------------------------
# functionals


def _power(values: np.ndarray, alpha: float) -> np.ndarray:
    """|u|^alpha * u evaluated pointwise (zero at u = 0 for fractional alpha)."""
    return np.abs(values) ** alpha * values


def functional_B(u: RealField, omega: float) -> float:
    """Quadratic energy 1/2 * int u_x^2 + w u^2 dx."""
    du = first_derivative(u)
    return 0.5 * (inner(du, du) + omega * inner(u, u))


def functionals_E_F(u: RealField, alpha: float) -> tuple[float, float]:
    """Conserved energy and mass of the time-dependent equation:

    E(u) = 1/2 int u_x^2 - 2/(a+2) |u|^(a+2) dx,   F(u) = 1/2 int u^2 dx.

    Satisfies B_w(u) = E(u) + w F(u) + 2/(a+2) int |u|^(a+2) dx.
    """
    du = first_derivative(u)
    power_integral = u.grid.spacing * float(np.sum(np.abs(u.values) ** (alpha + 2.0)))
    e = 0.5 * inner(du, du) - 2.0 * power_integral / (alpha + 2.0)
    f = 0.5 * inner(u, u)
    return e, f


def ode_residual_field(phi: RealField, alpha: float, omega: float) -> RealField:
    """Grid values of -phi'' + w phi - |phi|^a phi.

    Tagged parity 'none': near convergence the values are rounding noise
    with no usable symmetry.
    """
    xi = phi.grid.rfft_wavenumbers
    lap = np.fft.irfft(np.fft.rfft(phi.values) * (-(xi**2)), n=phi.grid.size)
    vals = -lap + omega * phi.values - _power(phi.values, alpha)
    return RealField(phi.grid, vals, NONE)


def ode_residual(phi: RealField, alpha: float, omega: float) -> float:
    """Discrete L2 norm of the profile-equation residual."""
    return l2_norm(ode_residual_field(phi, alpha, omega))


def detected_fundamental_period(phi: RealField) -> Optional[float]:
    """L / gcd(active modes); None for a constant profile."""
    coef = np.fft.rfft(phi.values)
    mags = np.abs(coef)
    scale = float(np.max(mags))
    if scale == 0.0:
        return None
    active = [n for n in range(1, len(coef)) if mags[n] > PERIOD_DETECTION_RTOL * scale]
    if not active:
        return None
    return phi.grid.length / math.gcd(*active)


# ---------------------------------------------------------------------------
# constrained minimization


def _seed_values(params: ProblemParams, grid: PeriodicGrid) -> np.ndarray:
    """The parity seed 1 + cos(2 pi x/L)/2 (even) or sin(2 pi x/L) (odd)."""
    x = grid.nodes
    if params.parity == EVEN:
        return 1.0 + 0.5 * np.cos(2.0 * np.pi * x / grid.length)
    return np.sin(2.0 * np.pi * x / grid.length)


def minimize_constrained(params: ProblemParams, modes: int = MODES) -> WaveProfile:
    """Projected-gradient minimization of B_w on the constraint manifold.

    Sobolev-preconditioned residual directions (solve (-d_xx + w) d = grad)
    with Barzilai-Borwein step proposals and a non-monotone backtracking
    safeguard; the iterate is reprojected onto its parity class and rescaled
    exactly onto the constraint after every step.  Returns the stationary
    point *before* the unit-multiplier rescaling.
    """
    grid = build_grid(params.period, modes)
    n, h = grid.size, grid.spacing
    alpha, omega, tau = params.alpha, params.omega, params.tau

    mirror = (-np.arange(n)) % n
    sign = 1.0 if params.parity == EVEN else -1.0
    sym = omega + grid.rfft_wavenumbers**2

    def parity_project(v):
        return 0.5 * (v + sign * v[mirror])

    def renormalize(v):
        mass = h * float(np.sum(np.abs(v) ** (alpha + 2.0)))
        if not np.isfinite(mass) or mass <= 0.0:
            raise DegenerateSolutionError(
                "iterate collapsed to the zero field; constraint cannot be restored"
            )
        return v * (tau / mass) ** (1.0 / (alpha + 2.0))

    u = renormalize(parity_project(_seed_values(params, grid)))

    def b_value(au, v):
        return 0.5 * h * float(np.dot(au, v))

    # the constant on the constraint surface is always a stationary point of
    # the even-parity problem; when the iterate drifts toward it without B
    # ever dropping below the constant's value, the constant is the limit and
    # can be taken exactly (this is the boundary/bifurcation regime where the
    # energy is quartically flat and gradient steps crawl)
    if params.parity == EVEN:
        const_level = (tau / params.period) ** (1.0 / (alpha + 2.0))
        b_const = 0.5 * omega * params.period * const_level**2
    else:
        const_level = None

    def near_constant(v, b_here):
        if const_level is None:
            return False
        if b_here < b_const - 1e-12 * (1.0 + abs(b_const)):
            return False
        return float(np.max(np.abs(v - const_level))) <= 0.05 * const_level

    window: list[float] = []
    u_prev = d_prev = None
    step = 1.0
    best_u, best_rnorm = u, np.inf

    for _ in range(MAX_OUTER_ITERATIONS):
        au = np.fft.irfft(np.fft.rfft(u) * sym, n=n)
        p = _power(u, alpha)
        c2 = float(np.dot(au, u) / np.dot(p, u))
        r = au - c2 * p
        rnorm = np.sqrt(h * float(np.dot(r, r)))
        anorm = np.sqrt(h * float(np.dot(au, au)))
        b_here = b_value(au, u)
        if rnorm < best_rnorm:
            best_u, best_rnorm = u, rnorm
        if rnorm <= GRADIENT_TOLERANCE * max(anorm, 1e-300):
            break
        if near_constant(u, b_here):
            u = np.full(n, const_level)
            break

        d = parity_project(np.fft.irfft(np.fft.rfft(r) / sym, n=n))

        if u_prev is not None:
            du, dd = u - u_prev, d - d_prev
            denom = float(np.dot(du, dd))
            if denom > 1e-300:
                step = min(max(float(np.dot(du, du)) / denom, 1e-3), 1e7)
            else:
                step = 1.0
        u_prev, d_prev = u, d

        window.append(b_here)
        if len(window) > 10:
            window.pop(0)
        b_ref = max(window)

        s = step
        for _ in range(60):
            trial = renormalize(parity_project(u - s * d))
            au_t = np.fft.irfft(np.fft.rfft(trial) * sym, n=n)
            if b_value(au_t, trial) <= b_ref + 1e-12 * (1.0 + abs(b_ref)):
                u = trial
                break
            s *= 0.5
        else:
            # direction no longer decreases B at any safeguarded step;
            # keep a minuscule move so the BB memory stays informative
            u = renormalize(parity_project(u - 1e-9 * step * d))
    else:
        au_b = np.fft.irfft(np.fft.rfft(best_u) * sym, n=n)
        if near_constant(best_u, b_value(au_b, best_u)):
            u = np.full(n, const_level)
        else:
            raise ConvergenceError(
                f"no stationary point within {MAX_OUTER_ITERATIONS} iterations "
                f"(residual {best_rnorm:.3e})",
                last_iterate=best_u,
                gradient_norm=best_rnorm,
            )

    field = RealField(grid, u, params.parity)
    au = np.fft.irfft(np.fft.rfft(u) * sym, n=n)
    p = _power(u, alpha)
    c2 = float(np.dot(au, u) / np.dot(p, u))
    r = au - c2 * p
    rnorm = np.sqrt(h * float(np.dot(r, r)))
    b_final = 0.5 * h * float(np.dot(au, u))
    constraint = h * float(np.sum(np.abs(u) ** (alpha + 2.0)))
    return WaveProfile(
        params=params,
        phi=field,
        ode_residual_norm=rnorm,
        functional_value=b_final,
        constraint_value=constraint,
        detected_period=detected_fundamental_period(field),
    )


def rescale_unit_multiplier(field: RealField, c2: float, alpha: float) -> RealField:
    """Map a multiplier-c2 stationary point onto the unit-multiplier equation.

    psi = c2^(1/alpha) * u turns -u'' + w u = c2 |u|^a u into the profile
    equation for psi.
    """
    if not (np.isfinite(c2) and c2 > 0.0):
        raise InvalidMultiplierError(f"multiplier must be positive, got {c2}")
    return RealField(field.grid, c2 ** (1.0 / alpha) * field.values, field.parity)


def phase_reduce(phi1: RealField, phi2: RealField, tolerance: float = 1e-8):
    """Collapse a complex profile Phi = phi1 + i*phi2 to exp(i*theta0) * phi.

    Requires the pair to be proportional: the Wronskian-type quantity
    -phi1' phi2 + phi2' phi1 must vanish (within ``tolerance`` relative to
    the pair's scale), and then phi = sqrt(1 + r^2) * phi2 with phi1 = r*phi2
    and theta0 = arg(r + i).  Returns (phi, theta0).
    """
    if phi1.grid != phi2.grid:
        raise ParameterError("phase reduction requires a common grid")
    scale = max(phi1.max_abs, phi2.max_abs)
    if scale == 0.0:
        raise ReductionError("both components vanish identically")
    d1, d2 = first_derivative(phi1), first_derivative(phi2)
    wronskian = -d1.values * phi2.values + d2.values * phi1.values
    wr_scale = scale * max(d1.max_abs, d2.max_abs, 1.0)
    if np.max(np.abs(wronskian)) > tolerance * wr_scale:
        raise ReductionError(
            "components are not proportional: Wronskian deviation "
            f"{np.max(np.abs(wronskian)):.3e} exceeds tolerance"
        )
    n22 = inner(phi2, phi2)
    if np.sqrt(n22) <= 1e-12 * scale * np.sqrt(phi1.grid.length):
        # imaginary part is the zero profile: Phi is already real
        return RealField(phi1.grid, phi1.values, phi1.parity), 0.0
    r = inner(phi1, phi2) / n22
    residual = phi1.values - r * phi2.values
    if np.max(np.abs(residual)) > tolerance * scale:
        raise ReductionError(
            "components are not proportional: pointwise deviation "
            f"{np.max(np.abs(residual)):.3e} exceeds tolerance"
        )
    profile = RealField(phi2.grid, np.sqrt(1.0 + r * r) * phi2.values, phi2.parity)
    return profile, math.atan2(1.0, r)


# ---------------------------------------------------------------------------
# Newton polish


def _check_regular(jac: np.ndarray) -> None:
    """SingularJacobianError unless min|lambda| > 1e-12 max|lambda| over the
    eigenvalues of the symmetric ``jac``, as ``eigvalsh`` computes them."""
    eigs = np.linalg.eigvalsh(jac)
    lam_max = float(np.max(np.abs(eigs)))
    if float(np.min(np.abs(eigs))) <= 1e-12 * lam_max:
        raise SingularJacobianError(
            "Newton Jacobian is singular on the parity subspace "
            f"(relative smallest eigenvalue {np.min(np.abs(eigs)) / lam_max:.2e})"
        )


def _certified_regular(jac: np.ndarray, trial: np.ndarray) -> bool:
    """Whether one Cholesky factorization proves no eigenvalue of the
    symmetric J = ``jac``, overwritten, in [-F, F], F = 1e-12 ||J|| +
    d eps ||J|| with ||J|| the max row sum >= max|lambda|, so that
    :func:`_check_regular` passes.  Ritz values theta of J on the span of
    ``trial`` bound its eigenvalues from above: the m below -F prove m
    eigenvalues below -F.  J + Y diag(2|theta| + 2F) Y^T, Y their Ritz
    vectors, is a rank-m semidefinite update of J, so its lowest eigenvalue
    is at most lambda_{m+1} of J, which a Cholesky factorization of it less
    F and its rounding floor proves above F (Rump, BIT 46, 2006).  A lift of
    |theta| + 2F would not do: a one-step Ritz vector off its eigenvector by
    an angle g leaves that eigenvalue near 2F - |theta| g^2, below F for
    g^2 > F / |theta|."""
    d = jac.shape[0]
    norm = float(np.linalg.norm(jac, np.inf))
    margin = 1e-12 * norm + _rounding_floor(d, norm)
    (theta,), (y,) = _rayleigh_ritz(lambda x: jac @ x, trial[None])
    low = theta < -margin
    lift, y = 2.0 * (np.abs(theta[low]) + margin), y[:, low]
    jac += (y * lift) @ y.T
    _plus_diagonal(jac, -margin - _rounding_floor(d, norm + np.max(lift, initial=0.0)))
    try:
        np.linalg.cholesky(jac)
    except np.linalg.LinAlgError:
        return False
    return True


def newton_refine(wave: WaveProfile) -> WaveProfile:
    """Newton iteration on the profile equation in the wave's parity basis.

    The Jacobian -d_xx + w - (a+1)|phi|^a is the dense symmetric L1 matrix of
    :func:`hill_matrix` on the parity basis; a profile already at tolerance
    is returned unchanged.  L1 phi = -a |phi|^a phi, so phi, |phi|^a phi and
    the 8 lowest basis vectors hold its negative direction, and each step's
    Jacobian is proved regular on their span (:func:`_certified_regular`);
    where that fails, :func:`_check_regular` decides on its spectrum.  The
    step is the same either way.
    """
    params = wave.params
    grid = wave.phi.grid
    alpha, omega = params.alpha, params.omega

    res = ode_residual_field(wave.phi, alpha, omega)
    rnorm = l2_norm(res)
    if rnorm <= NEWTON_TOLERANCE:
        return wave
    if res.max_abs > NEWTON_BASIN_LIMIT:
        raise NewtonBasinError(
            f"residual max-norm {res.max_abs:.3e} exceeds the Newton basin "
            f"limit {NEWTON_BASIN_LIMIT:g}; refine the variational stage first"
        )

    basis = ParityBasis(COSINE if params.parity == EVEN else SINE, grid)
    phi = wave.phi.values.copy()

    for _ in range(NEWTON_MAX_STEPS):
        res = ode_residual_field(RealField(grid, phi, params.parity), alpha, omega)
        rnorm = l2_norm(res)
        if rnorm <= NEWTON_TOLERANCE:
            break
        potential = np.abs(phi) ** alpha
        jac = hill_matrix(basis, omega, (alpha + 1.0) * potential)
        try:
            step = np.linalg.solve(jac, basis.analyze(res.values))
        except np.linalg.LinAlgError:
            _check_regular(jac)
            raise
        span = [basis.analyze(phi), basis.analyze(potential * phi), np.eye(basis.dimension, 8)]
        if not _certified_regular(jac, np.column_stack(span)):
            _check_regular(hill_matrix(basis, omega, (alpha + 1.0) * potential))
        correction = basis.synthesize(step)
        for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trial = phi - damp * correction
            tr = ode_residual_field(RealField(grid, trial, params.parity), alpha, omega)
            if l2_norm(tr) < rnorm:
                phi = trial
                break
        else:
            raise ConvergenceError(
                "Newton step failed to reduce the residual",
                last_iterate=phi,
                gradient_norm=rnorm,
            )
    else:
        rnorm = l2_norm(ode_residual_field(RealField(grid, phi, params.parity), alpha, omega))
        if rnorm > NEWTON_TOLERANCE:
            raise ConvergenceError(
                f"Newton did not reach {NEWTON_TOLERANCE:g} in "
                f"{NEWTON_MAX_STEPS} steps (residual {rnorm:.3e})",
                last_iterate=phi,
                gradient_norm=rnorm,
            )

    return _profile(params, RealField(grid, phi, params.parity))


# ---------------------------------------------------------------------------
# orchestration


def _profile(params: ProblemParams, phi: RealField) -> WaveProfile:
    """Record of ``phi`` with its profile-equation residual, B_w(phi),
    int |phi|^(a+2) and detected period."""
    return WaveProfile(
        params=params,
        phi=phi,
        ode_residual_norm=ode_residual(phi, params.alpha, params.omega),
        functional_value=functional_B(phi, params.omega),
        constraint_value=integrate(
            RealField(phi.grid, np.abs(phi.values) ** (params.alpha + 2.0), EVEN)
        ),
        detected_period=detected_fundamental_period(phi),
    )


def _spectral_tail(phi: RealField) -> float:
    """Largest amplitude among the top quarter of the grid's Fourier modes,
    m >= 3N/8: how far truncation at N may move a grid value."""
    n = phi.grid.size
    amplitude = 2.0 * np.abs(np.fft.rfft(phi.values)) / n
    amplitude[-1] *= 0.5  # the Nyquist cosine has no partner at -N/2
    return float(np.max(amplitude[3 * n // 8 :]))


def _accept(wave: WaveProfile) -> WaveProfile:
    phi = wave.phi
    if wave.ode_residual_norm > NEWTON_TOLERANCE:
        raise WaveAcceptanceError(
            f"profile residual {wave.ode_residual_norm:.3e} above tolerance {NEWTON_TOLERANCE:g}"
        )
    if wave.params.parity == EVEN:
        low = float(np.min(phi.values))
        if low <= 0.0:
            n, tail = phi.grid.size, _spectral_tail(phi)
            if -low <= tail:
                raise WaveAcceptanceError(
                    f"even profile dips to min {low:.3e}, within its spectral tail "
                    f"{tail:.3e} (largest amplitude of the top quarter of Fourier "
                    f"modes): the profile looks under-resolved at N={n}; "
                    f"rerun with --modes {2 * n}"
                )
            raise WaveAcceptanceError(
                "even profile is not strictly positive "
                f"(min {low:.3e}); the positivity-based "
                "spectral analysis does not apply"
            )
    else:
        if abs(phi.values[0]) > 1e-8 * max(phi.max_abs, 1e-300):
            raise WaveAcceptanceError("odd profile does not vanish at x = 0")
        if not (np.min(phi.values) < 0.0 < np.max(phi.values)) and phi.max_abs > 0:
            raise WaveAcceptanceError("odd profile never changes sign")
    return wave


def solve_wave(
    params: ProblemParams,
    modes: int = MODES,
    stationary: Optional[WaveProfile] = None,
) -> WaveProfile:
    """Full pipeline: constrained minimization, unit rescaling, Newton polish.

    The returned profile solves -phi'' + w phi - |phi|^a phi = 0 on N =
    ``modes`` grid points with residual at most :data:`NEWTON_TOLERANCE`;
    parity-specific structure (positivity for even waves, sign change and a
    root at the origin for odd waves) is asserted before the profile is
    released.  ``stationary`` is the constrained minimizer at ``params`` on
    that grid where the caller already has it (:func:`tau_for_amplitude`
    returns one), and replaces the minimization; both land on the same
    minimizer, so the wave is the same either way up to rounding.
    """
    if stationary is None:
        stationary = minimize_constrained(params, modes)
    elif stationary.params != params or stationary.phi.grid.size != modes:
        raise ParameterError("the given minimizer solves another problem or grid")
    psi = rescale_unit_multiplier(stationary.phi, stationary.multiplier, params.alpha)
    return _accept(newton_refine(_profile(params, psi)))


def constant_wave(alpha: float, omega: float, period: float, size: int) -> WaveProfile:
    """The exact constant solution phi = w^(1/a) as an accepted profile."""
    grid = build_grid(period, size)
    level = omega ** (1.0 / alpha)
    field = RealField(grid, np.full(grid.size, level), EVEN)
    tau = period * level ** (alpha + 2.0)
    params = ProblemParams(alpha=alpha, omega=omega, period=period, tau=tau, parity=EVEN)
    return WaveProfile(
        params=params,
        phi=field,
        ode_residual_norm=ode_residual(field, alpha, omega),
        functional_value=functional_B(field, omega),
        constraint_value=tau,
        detected_period=None,
    )


def wave_at_resolution(wave: WaveProfile, size: int) -> WaveProfile:
    """Trigonometric reinterpolation of an accepted wave onto N = ``size``."""
    return _profile(wave.params, resample(wave.phi, size))


def tau_for_amplitude(
    alpha: float,
    omega: float,
    period: float,
    parity: str,
    amplitude: float,
    modes: int = MODES,
) -> WaveProfile:
    """The constrained minimizer with max|u| = amplitude; its ``params.tau``
    is the tau at which it lies.

    B_w(t u) = t^2 B_w(u) and int |t u|^(a+2) = t^(a+2) int |u|^(a+2), so the
    minimizer at tau is (tau/tau0)^(1/(a+2)) times the minimizer at tau0.
    One minimization at tau0 = L * amplitude^(a+2) gives u0, and t u0 with
    t = amplitude / max|u0| is the minimizer at tau = tau0 * t^(a+2): its
    record is u0's with phi, the residual, B_w and the constraint scaled by
    t, t, t^2 and t^(a+2), and max|t u0| = amplitude up to rounding.  It is
    returned so that :func:`solve_wave` polishes it without minimizing
    again.  tau sets only the amplitude *before* the unit-multiplier
    rescaling: the accepted profile of :func:`solve_wave` does not depend on
    it.
    """
    if not (np.isfinite(amplitude) and amplitude > 0.0):
        raise ParameterError(f"target amplitude must be positive, got {amplitude}")
    tau0 = period * amplitude ** (alpha + 2.0)
    params = ProblemParams(alpha=alpha, omega=omega, period=period, tau=tau0, parity=parity)
    u0 = minimize_constrained(params, modes)
    t = amplitude / u0.phi.max_abs
    return replace(
        u0,
        params=replace(params, tau=tau0 * t ** (alpha + 2.0)),
        phi=RealField(u0.phi.grid, t * u0.phi.values, parity),
        ode_residual_norm=t * u0.ode_residual_norm,
        functional_value=t**2 * u0.functional_value,
        constraint_value=t ** (alpha + 2.0) * u0.constraint_value,
    )
