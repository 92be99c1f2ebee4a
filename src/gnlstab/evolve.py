"""Direct time integration of the linearized flow as an independent check.

The scanner predicts growth rates from an eigenvalue problem; this module
integrates the same linear system

    v1_t =  (L2 + kappa^2) v2,
    v2_t = -(L1 + kappa^2) v1,

and fits the observed growth of the L^2 norm, so the two routes can be
compared.  Two schemes are provided: a dense one-step RK4 matrix in the
sector basis, and a Strang splitting whose kinetic and potential factors
are both applied as exact exponentials (hence exactly time reversible).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IntegratorError, ParameterError
from .scan import UNSTABLE_THRESHOLD, evolution_block, instability_eigs, resolve_sector
from .spectral import FULL, RealField
from .waves import WaveProfile

#: explicit RK4 keeps purely imaginary modes stable for |lambda| dt < 2*sqrt(2)
RK4_STABILITY = 2.8

SCHEMES = ("explicit_rk4", "splitting_order2")
SEEDS = ("leading_eigenvector", "random")

#: cap on recorded samples per run; longer runs are downsampled
MAX_RECORDS = 2000


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs for a linearized run; None means pick automatically."""

    time_step: Optional[float] = None
    final_time: Optional[float] = None
    scheme: str = "explicit_rk4"
    seed: str = "leading_eigenvector"
    rng_seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.seed not in SEEDS:
            raise ParameterError(f"unknown seed {self.seed!r}; choose from {SEEDS}")
        if self.time_step is not None and not (
            np.isfinite(self.time_step) and self.time_step > 0.0
        ):
            raise ParameterError(f"time_step must be positive, got {self.time_step}")
        if self.final_time is not None and not (
            np.isfinite(self.final_time) and self.final_time > 0.0
        ):
            raise ParameterError(f"final_time must be positive, got {self.final_time}")


@dataclass(frozen=True)
class GrowthMeasurement:
    """Recorded norm history and the rate fitted to its log."""

    wave_id: str
    kappa: float
    sector: str
    scheme: str
    seed: str
    time_step: float
    times: np.ndarray
    norms: np.ndarray
    fitted_rate: float
    fit_residual: float
    predicted_rate: float


def linearized_rhs(
    wave: WaveProfile,
    kappa: float,
    v1: RealField,
    v2: RealField,
    sector: str = "full",
) -> tuple[RealField, RealField]:
    """Apply the block generator to a perturbation pair on the wave's grid.

    Returns ((L2+kappa^2) v2, -(L1+kappa^2) v1).  This is the same matrix
    the scanner diagonalizes, so eigenvector residuals measured through
    this routine agree with the scanner to rounding error.
    """
    sector = resolve_sector(wave, sector)
    for v in (v1, v2):
        if v.grid != wave.phi.grid:
            raise ParameterError("perturbation grid does not match the wave grid")
    block, basis = evolution_block(wave, kappa, sector)
    if basis.kind != FULL:
        expect = basis.parity
        for v in (v1, v2):
            if v.parity != expect:
                raise ParameterError(
                    f"sector {sector!r} requires {expect} perturbations, got {v.parity}"
                )
    d = basis.dimension
    coeffs = np.concatenate([basis.analyze(v1.values), basis.analyze(v2.values)])
    out = block @ coeffs
    grid = wave.phi.grid
    parity1 = v2.parity if basis.kind == FULL else basis.parity
    parity2 = v1.parity if basis.kind == FULL else basis.parity
    return (
        RealField(grid, basis.synthesize(out[:d]), parity1),
        RealField(grid, basis.synthesize(out[d:]), parity2),
    )


def rk4_step_matrix(block: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step for y' = block y, as a dense matrix.

    For a linear autonomous system RK4 is exactly the degree-4 Taylor
    polynomial of the matrix exponential.
    """
    a = dt * block
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    return np.eye(block.shape[0]) + a + a2 / 2.0 + a3 / 6.0 + a4 / 24.0


def splitting_stepper(
    wave: WaveProfile, kappa: float, dt: float
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Strang step for grid-valued perturbations (w1, w2).

    Kinetic half steps rotate each Fourier pair through the exact angle
    (xi^2 + omega + kappa^2) dt/2; the potential step applies the exact
    pointwise exponential of [[0, -q], [(alpha+1) q, 0]] with
    q = |phi|^alpha, whose entries stay bounded as q -> 0.  Both factors
    are orthogonal-free but exactly invertible: stepping with -dt undoes
    stepping with +dt to rounding error.
    """
    if not (np.isfinite(dt) and dt != 0.0):
        raise ParameterError(f"splitting step must be nonzero and finite, got {dt}")
    grid = wave.phi.grid
    params = wave.params
    xi = grid.rfft_wavenumbers
    theta = (xi**2 + params.omega + kappa**2) * (0.5 * dt)
    cos_d, sin_d = np.cos(theta), np.sin(theta)
    q = np.abs(wave.phi.values) ** params.alpha
    root = math.sqrt(params.alpha + 1.0)
    mu_t = root * q * dt
    cos_v, sin_v = np.cos(mu_t), np.sin(mu_t)

    def half_kinetic(w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f1, f2 = np.fft.rfft(w1), np.fft.rfft(w2)
        g1 = cos_d * f1 + sin_d * f2
        g2 = -sin_d * f1 + cos_d * f2
        n = grid.size
        return np.fft.irfft(g1, n=n), np.fft.irfft(g2, n=n)

    def step(w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w1, w2 = half_kinetic(w1, w2)
        w1, w2 = cos_v * w1 - (sin_v / root) * w2, (root * sin_v) * w1 + cos_v * w2
        return half_kinetic(w1, w2)

    return step


def _fit_window(times: np.ndarray, lognorms: np.ndarray) -> slice:
    """Trim the seeding transient: fit from the first doubling until the
    norm has grown by another factor e^2, if the run gets that far."""
    n0 = lognorms[0]
    grown = np.flatnonzero(lognorms >= n0 + math.log(2.0))
    if grown.size:
        i0 = int(grown[0])
        grown_more = np.flatnonzero(lognorms >= lognorms[i0] + 2.0)
        if grown_more.size:
            i1 = int(grown_more[0])
            if i1 - i0 >= 5:
                return slice(i0, i1 + 1)
    return slice(0, len(times))


def evolve_and_fit(
    wave: WaveProfile,
    kappa: float,
    config: Optional[EvolutionConfig] = None,
    sector: str = "auto",
) -> GrowthMeasurement:
    """Integrate the linearized system and fit exp growth of the L^2 norm.

    Automatic choices: dt from the RK4 stability bound for the stiffest
    Fourier mode, final time about eight e-foldings of the predicted rate
    (ten time units when no growth is predicted).  Raises ParameterError
    for a leading_eigenvector seed at a spectrally stable kappa, and
    IntegratorError if the state stops being finite.
    """
    config = config if config is not None else EvolutionConfig()
    sector = resolve_sector(wave, sector)
    eigs = instability_eigs(wave, kappa, sector)
    predicted = eigs.max_real_part
    basis = eigs.basis
    d = basis.dimension

    if config.seed == "leading_eigenvector":
        leading = eigs.leading
        if leading is None or leading.rate.real <= UNSTABLE_THRESHOLD:
            raise ParameterError(
                f"kappa={kappa:g} has no unstable mode to seed from; use seed='random'"
            )
        y0 = np.real(leading.coefficients)
        y0 = y0 / np.linalg.norm(y0)
    else:
        rng = np.random.default_rng(config.rng_seed)
        y0 = rng.standard_normal(2 * d)
        y0 = y0 / np.linalg.norm(y0)

    params = wave.params
    xi_max = float(np.max(np.abs(basis.frequencies())))
    stiff = xi_max**2 + params.omega + kappa**2
    dt = config.time_step if config.time_step is not None else RK4_STABILITY / stiff
    if config.final_time is not None:
        final_time = config.final_time
    elif predicted > 1e-4:
        final_time = 8.0 / predicted
    else:
        final_time = 10.0
    if final_time < 10.0 * dt:
        raise ParameterError(
            f"final_time {final_time:g} too short for time_step {dt:g} "
            "(need at least ten steps)"
        )
    steps = int(math.ceil(final_time / dt))
    stride = max(1, steps // MAX_RECORDS)

    def check(value: float, t: float, n0: float) -> None:
        # growth beyond e^(3 max Re lambda t), with headroom for transients
        # of the non-normal system, means the time step is unstable
        limit = 1e3 * n0 * math.exp(min(3.0 * max(predicted, 0.1) * t, 700.0))
        if not np.isfinite(value) or value > limit:
            raise IntegratorError(
                f"norm reached {value:g} at t={t:g}, beyond the predicted-rate "
                f"envelope {limit:g}; the time step dt={dt:g} looks unstable, "
                "try a smaller one"
            )

    if config.scheme == "explicit_rk4":
        # the RK4 step is one fixed matrix, so the steps between two samples
        # are one product with its power
        phi = rk4_step_matrix(eigs.block, dt)
        leap = np.linalg.matrix_power(phi, stride)
        state = y0

        def advance(y: np.ndarray, count: int) -> np.ndarray:
            return (leap if count == stride else np.linalg.matrix_power(phi, count)) @ y

        def norm(y: np.ndarray) -> float:
            return float(np.linalg.norm(y))

    else:
        step = splitting_stepper(wave, kappa, dt)
        h = wave.phi.grid.spacing
        state = (basis.synthesize(y0[:d]), basis.synthesize(y0[d:]))

        def advance(w: tuple, count: int) -> tuple:
            for _ in range(count):
                w = step(*w)
            return w

        def norm(w: tuple) -> float:
            return float(np.sqrt(h * np.sum(w[0] ** 2 + w[1] ** 2)))

    # a sample every stride steps, and one at the last step
    times = [0.0]
    norms = [norm(state)]
    n = 0
    while n < steps:
        count = min(stride, steps - n)
        state = advance(state, count)
        n += count
        value = norm(state)
        check(value, n * dt, norms[0])
        times.append(n * dt)
        norms.append(value)

    times_arr = np.asarray(times)
    norms_arr = np.asarray(norms)
    if np.any(norms_arr <= 0.0):
        raise IntegratorError("norm history is not positive; cannot fit a rate")
    logs = np.log(norms_arr)
    window = _fit_window(times_arr, logs)
    slope, intercept = np.polyfit(times_arr[window], logs[window], 1)
    resid = logs[window] - (slope * times_arr[window] + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return GrowthMeasurement(
        wave_id=wave.wave_id,
        kappa=float(kappa),
        sector=sector,
        scheme=config.scheme,
        seed=config.seed,
        time_step=float(dt),
        times=times_arr,
        norms=norms_arr,
        fitted_rate=float(slope),
        fit_residual=rms,
        predicted_rate=float(predicted),
    )
