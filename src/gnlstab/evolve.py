"""Direct time integration of the linearized flow as an independent check.

The scanner predicts growth rates from an eigenvalue problem; this module
integrates the same linear system

    v1_t =  (L2 + kappa^2) v2,
    v2_t = -(L1 + kappa^2) v1,

and fits the observed growth of the L^2 norm, so the two routes can be
compared.  The predicted rate and the eigenvector seed are the scan's own
row at kappa, so the fit checks the number the scan reports.  Two schemes
are provided: a dense one-step RK4 matrix per parity sector of the operator
store (the even potential makes the block problem a direct sum of a cosine
and a sine block), and a Strang splitting whose kinetic and potential factors
are both applied as exact exponentials (hence exactly time reversible).
RK4 samples its n norms in blocks of ceil(sqrt(n)) states, each block one
matrix product from the last, and checks the growth envelope block by block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import IntegratorError, ParameterError
from .hill import HillOperators, hill_operators, resolve_sector
from .scan import UNSTABLE_THRESHOLD, _growth_block, evolution_block, growth_row

# kept importable here: perfbench/tracer.py wraps evolve.instability_eigs by name
from .scan import instability_eigs  # noqa: F401
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
        if isinstance(self.rng_seed, bool) or not (
            isinstance(self.rng_seed, (int, np.integer)) and self.rng_seed >= 0
        ):
            raise ParameterError(
                f"rng_seed must be a nonnegative integer, got {self.rng_seed!r}"
            )


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


def _rk4_samples(parts: list, stride: int, last: int, count: int):
    """Norms of an RK4 run at count samples: the first count - 1 lie stride
    steps apart, the last comes last steps after the one before it.  parts
    holds each parity sector's step matrix and initial state; the sectors'
    norms squared add.

    The regular samples come in blocks of b = ceil(sqrt(count - 1)) columns
    per sector: b sequential leaps of stride steps seed the first block, and
    one product with the precomputed leap^b advances a block to the next, so
    a run makes O(sqrt(count)) matrix products and keeps O(d sqrt(count))
    states.  Each block's norms are yielded as one array before the next
    block is computed.
    """
    regular = count - 1
    b = math.isqrt(regular - 1) + 1
    leaps = [np.linalg.matrix_power(phi, stride) for phi, _ in parts]
    blocks = []
    for leap, (_, y) in zip(leaps, parts):
        block = np.empty((y.size, b))
        for j in range(b):
            y = block[:, j] = leap @ y
        blocks.append(block)
    powers = [np.linalg.matrix_power(leap, b) for leap in leaps]
    done = 0
    while True:
        yield np.sqrt(sum(np.einsum("ij,ij->j", block, block) for block in blocks))
        done += blocks[0].shape[1]
        if done == regular:
            break
        blocks = [power @ block[:, : regular - done] for power, block in zip(powers, blocks)]
    ys = [block[:, -1] for block in blocks]
    if last == stride:
        ys = [leap @ y for leap, y in zip(leaps, ys)]
    else:
        ys = [np.linalg.matrix_power(phi, last) @ y for (phi, _), y in zip(parts, ys)]
    yield np.array([math.sqrt(sum(float(y @ y) for y in ys))])


def _splitting_samples(step: Callable, state: tuple, h: float, counts: list):
    """Norms of a splitting run after each of counts' step counts, one at a time."""
    for count in counts:
        for _ in range(count):
            state = step(*state)
        yield np.array([np.sqrt(h * np.sum(state[0] ** 2 + state[1] ** 2))])


def evolve_and_fit(
    wave: Union[WaveProfile, HillOperators],
    kappa: float,
    config: Optional[EvolutionConfig] = None,
    sector: str = "auto",
) -> GrowthMeasurement:
    """Integrate the linearized system and fit exp growth of the L^2 norm.

    The predicted rate and the leading-eigenvector seed are the scan's own
    row at kappa (:func:`scan.growth_row`), so the fit checks the number a
    scan reports there; given the scan's operator store in place of the
    wave, the row reuses the scan's assembly and reductions.  RK4 steps each
    parity sector's block on its own part of the seed and adds the norms
    squared; the leading mode lives in one sector, and a random seed, drawn
    on the whole basis, in all of them.

    Automatic choices: dt from the RK4 stability bound for the stiffest
    Fourier mode, final time about eight e-foldings of the predicted rate
    (ten time units when no growth is predicted).  Raises ParameterError
    for a leading_eigenvector seed at a spectrally stable kappa, and
    IntegratorError if the state stops being finite.
    """
    config = config if config is not None else EvolutionConfig()
    ops = hill_operators(wave, sector)
    wave, sector = ops.wave, ops.sector
    row = growth_row(ops, kappa, sector)
    predicted = row.max_real_part
    basis = row.basis
    d = basis.dimension

    if config.seed == "leading_eigenvector":
        rate = row.leading_lambda
        if rate is None or rate.real <= UNSTABLE_THRESHOLD:
            raise ParameterError(
                f"kappa={kappa:g} has no unstable mode to seed from; use seed='random'"
            )
        y0 = np.real(row.leading)
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
    # a sample every stride steps, and one at the last step
    marks = np.append(np.arange(stride, steps, stride), steps)
    times = np.concatenate([[0.0], marks * dt])

    if config.scheme == "explicit_rk4":
        # a sector whose part of the seed is zero stays zero and adds nothing
        parts = []
        for rows, block in ops.sectors():
            y = np.concatenate([y0[rows], y0[d + rows.start : d + rows.stop]])
            if y.any():
                parts.append((rk4_step_matrix(_growth_block(block.l2, block.l1, kappa), dt), y))
        norm0 = math.sqrt(sum(float(y @ y) for _, y in parts))
        samples = _rk4_samples(parts, stride, steps - stride * (marks.size - 1), marks.size)
    else:
        step = splitting_stepper(wave, kappa, dt)
        h = wave.phi.grid.spacing
        state = (basis.synthesize(y0[:d]), basis.synthesize(y0[d:]))
        norm0 = float(np.sqrt(h * np.sum(state[0] ** 2 + state[1] ** 2)))
        samples = _splitting_samples(step, state, h, np.diff(marks, prepend=0).tolist())

    norms = np.empty(times.size)
    norms[0] = norm0
    # growth beyond e^(3 max Re lambda t), with headroom for transients of the
    # non-normal system, means the time step is unstable
    limits = 1e3 * norm0 * np.exp(np.minimum(3.0 * max(predicted, 0.1) * times, 700.0))
    start = 1
    # a block may run on past its first failing sample into overflow; the
    # envelope reports that sample, so the overflow itself is not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for values in samples:
            stop = start + values.size
            bad = np.flatnonzero(~(values <= limits[start:stop]))  # a NaN fails too
            if bad.size:
                i = start + int(bad[0])
                raise IntegratorError(
                    f"norm reached {values[bad[0]]:g} at t={times[i]:g}, beyond the "
                    f"predicted-rate envelope {limits[i]:g}; the time step dt={dt:g} looks "
                    "unstable, try a smaller one"
                )
            norms[start:stop] = values
            start = stop

    if np.any(norms <= 0.0):
        raise IntegratorError("norm history is not positive; cannot fit a rate")
    logs = np.log(norms)
    window = _fit_window(times, logs)
    slope, intercept = np.polyfit(times[window], logs[window], 1)
    resid = logs[window] - (slope * times[window] + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return GrowthMeasurement(
        wave_id=wave.wave_id,
        kappa=float(kappa),
        sector=sector,
        scheme=config.scheme,
        seed=config.seed,
        time_step=float(dt),
        times=times,
        norms=norms,
        fitted_rate=float(slope),
        fit_residual=rms,
        predicted_rate=float(predicted),
    )
