"""Transverse instability scan for an accepted standing wave.

For each transverse wavenumber kappa the growth modes solve the block
eigenvalue problem

    [[0,            L2 + kappa^2],
     [-(L1 + kappa^2),         0]] (v1, v2) = lambda (v1, v2),

whose spectrum is closed under lambda -> -lambda and conjugation
(Hamiltonian quadruples).  The scan records the largest growth rate per
kappa, locates band edges by bisection, and verifies the structural
hypotheses (H0)-(H4) for S(kappa) = diag(L2 + kappa^2, L1 + kappa^2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import NumericalConsistencyError, ParameterError
from .hill import OperatorMatrix, build_block, default_zero_tolerance
from .spectral import EVEN, ParityBasis, RealField
from .waves import WaveProfile

#: growth rates above this are reported as genuine instability
UNSTABLE_THRESHOLD = 1e-6

#: bisection level for instability band edges
EDGE_LEVEL = 1e-8

#: eigenvectors are returned for eigenvalues with real part above this
VECTOR_LEVEL = 1e-8

#: required closure of the spectrum under negation/conjugation
SYMMETRY_TOL = 1e-8

CROSSCHECK_RTOL = 1e-7


def resolve_sector(wave: WaveProfile, sector: str) -> str:
    """'auto' means full space for even waves, odd sector for odd waves."""
    if sector == "auto":
        return "full" if wave.params.parity == EVEN else "odd"
    if sector not in ("full", "odd", "even"):
        raise ParameterError(f"unknown sector {sector!r}")
    return sector


def _growth_block(s0: OperatorMatrix, kappa: float) -> np.ndarray:
    """[[0, L2+k^2], [-(L1+k^2), 0]] from the diagonal blocks of S(0)."""
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ParameterError(f"kappa must be nonnegative, got {kappa}")
    d = s0.basis.dimension
    shift = kappa**2 * np.eye(d)
    block = np.zeros((2 * d, 2 * d))
    block[:d, d:] = s0.entries[:d, :d] + shift  # L2 + kappa^2
    block[d:, :d] = -(s0.entries[d:, d:] + shift)  # -(L1 + kappa^2)
    return block


def evolution_block(wave: WaveProfile, kappa: float, sector: str = "full"):
    """Dense block matrix [[0, L2+k^2], [-(L1+k^2), 0]] and its basis."""
    s0 = build_block(wave, "S_kappa", 0.0, sector=sector)
    return _growth_block(s0, kappa), s0.basis


@dataclass(frozen=True)
class UnstableMode:
    """One growth mode: rate and stacked (v1, v2) basis coefficients."""

    rate: complex
    coefficients: np.ndarray


@dataclass(frozen=True)
class InstabilityEigs:
    """The block problem at one kappa: its matrix and its spectrum."""

    wave_id: str
    kappa: float
    sector: str
    basis: ParityBasis
    block: np.ndarray
    eigenvalues: np.ndarray
    max_real_part: float
    symmetry_defect: float
    unstable: tuple

    @property
    def num_unstable(self) -> int:
        return int(np.sum(np.asarray([m.rate.real for m in self.unstable]) > UNSTABLE_THRESHOLD))

    @property
    def leading(self) -> Optional[UnstableMode]:
        if not self.unstable:
            return None
        return max(self.unstable, key=lambda m: m.rate.real)

    def mode_fields(self, mode: UnstableMode) -> tuple[RealField, RealField]:
        d = self.basis.dimension
        coeff = np.real_if_close(mode.coefficients, tol=1e6)
        coeff = np.asarray(coeff, dtype=float) if np.isrealobj(coeff) else np.real(coeff)
        return self.basis.field(coeff[:d]), self.basis.field(coeff[d:])


def _symmetry_defect(eigenvalues: np.ndarray) -> float:
    worst = 0.0
    for lam in eigenvalues:
        worst = max(worst, float(np.min(np.abs(eigenvalues + lam))))
        worst = max(worst, float(np.min(np.abs(eigenvalues - np.conj(lam)))))
    return worst


def _normalize_mode(vec: np.ndarray) -> np.ndarray:
    w = vec / np.linalg.norm(vec)
    big = np.flatnonzero(np.abs(w) > 1e-8)
    if big.size:
        k = big[0]
        w = w * (np.conj(w[k]) / np.abs(w[k]))
    if float(np.max(np.abs(w.imag))) <= 1e-10:
        w = w.real / np.linalg.norm(w.real)
    return w


def instability_eigs(
    wave: WaveProfile, kappa: float, sector: str = "auto", crosscheck: bool = True
) -> InstabilityEigs:
    """Solve the block problem at one kappa (kappa = 0 allowed as diagnostic).

    The 2d x 2d dense solve is cross-checked against the d x d reduction
    (lambda^2 must be an eigenvalue of -(L2+k^2)(L1+k^2)) on the ten largest
    |lambda|; disagreement raises NumericalConsistencyError.
    """
    sector = resolve_sector(wave, sector)
    return _block_eigs(build_block(wave, "S_kappa", 0.0, sector=sector), kappa, sector, crosscheck)


def _block_eigs(s0: OperatorMatrix, kappa: float, sector: str, crosscheck: bool = True):
    """:func:`instability_eigs` on the already assembled S(0) of one wave."""
    block, basis = _growth_block(s0, kappa), s0.basis
    eigenvalues, vectors = scipy.linalg.eig(block)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]

    if crosscheck:
        d = basis.dimension
        product = -block[:d, d:] @ (-block[d:, :d])  # -(L2+k^2)(L1+k^2)
        nu = scipy.linalg.eigvals(product)
        top = np.argsort(np.abs(eigenvalues))[-10:]
        for idx in top:
            lam2 = eigenvalues[idx] ** 2
            gap = float(np.min(np.abs(nu - lam2)))
            if gap > CROSSCHECK_RTOL * (1.0 + abs(lam2)):
                raise NumericalConsistencyError(
                    f"block eigenvalue {eigenvalues[idx]:.6e} fails the lambda^2 "
                    f"reduction cross-check at kappa={kappa:g} (gap {gap:.3e})"
                )

    defect = _symmetry_defect(eigenvalues)
    unstable = tuple(
        UnstableMode(rate=complex(eigenvalues[i]), coefficients=_normalize_mode(vectors[:, i]))
        for i in np.flatnonzero(eigenvalues.real > VECTOR_LEVEL)
    )
    return InstabilityEigs(
        wave_id=s0.wave_id,
        kappa=float(kappa),
        sector=sector,
        basis=basis,
        block=block,
        eigenvalues=eigenvalues,
        max_real_part=float(np.max(np.abs(eigenvalues.real))),
        symmetry_defect=defect,
        unstable=unstable,
    )


@dataclass(frozen=True)
class KappaRecord:
    """Scan row: spectrum summary of the block problem at one kappa."""

    kappa: float
    eigenvalues: np.ndarray
    max_real_part: float
    num_unstable: int
    leading_lambda: Optional[complex]
    leading_v1: Optional[RealField]
    leading_v2: Optional[RealField]
    symmetry_defect: float


@dataclass(frozen=True)
class StabilityScan:
    """Growth-rate profile over a kappa grid plus located band edges."""

    wave_id: str
    sector: str
    kappa_values: np.ndarray
    records: tuple
    band_edges: tuple
    verdict: str

    @property
    def most_unstable(self) -> KappaRecord:
        return max(self.records, key=lambda r: r.max_real_part)


def _record(eigs: InstabilityEigs) -> KappaRecord:
    leading = eigs.leading
    v1 = v2 = None
    lam = None
    if leading is not None:
        lam = leading.rate
        v1, v2 = eigs.mode_fields(leading)
    return KappaRecord(
        kappa=eigs.kappa,
        eigenvalues=eigs.eigenvalues,
        max_real_part=eigs.max_real_part,
        num_unstable=eigs.num_unstable,
        leading_lambda=lam,
        leading_v1=v1,
        leading_v2=v2,
        symmetry_defect=eigs.symmetry_defect,
    )


def scan_kappa(
    wave: WaveProfile,
    kappa_min: float,
    kappa_max: float,
    steps: int,
    sector: str = "auto",
    edge_resolution: float = 1e-6,
) -> StabilityScan:
    """Sweep kappa over a uniform grid and bisect the instability band edges.

    The verdict is 'transversally unstable' as soon as one grid point has
    max Re lambda above UNSTABLE_THRESHOLD.  Runs are sequential and
    deterministic: identical inputs give identical records.  L1 and L2 are
    assembled once; every grid and bisection row adds kappa^2 to them.
    """
    if not (np.isfinite(kappa_min) and np.isfinite(kappa_max)):
        raise ParameterError("kappa range must be finite")
    if kappa_min < 0.0 or kappa_max <= kappa_min:
        raise ParameterError(
            f"need 0 <= kappa_min < kappa_max, got [{kappa_min}, {kappa_max}]"
        )
    if steps < 2:
        raise ParameterError(f"kappa grid needs at least 2 points, got {steps}")
    sector = resolve_sector(wave, sector)
    kappas = np.linspace(kappa_min, kappa_max, steps)
    s0 = build_block(wave, "S_kappa", 0.0, sector=sector)
    records = []
    for kappa in kappas:
        eigs = _block_eigs(s0, float(kappa), sector)
        if eigs.symmetry_defect > SYMMETRY_TOL:
            raise NumericalConsistencyError(
                f"eigenvalue quadruple symmetry broken at kappa={kappa:g}: "
                f"defect {eigs.symmetry_defect:.3e}"
            )
        records.append(_record(eigs))

    def growth(k: float) -> float:
        return _block_eigs(s0, k, sector, crosscheck=False).max_real_part

    edges = []
    for left, right in zip(records[:-1], records[1:]):
        f_left = left.max_real_part - EDGE_LEVEL
        f_right = right.max_real_part - EDGE_LEVEL
        if f_left == 0.0 or f_left * f_right >= 0.0:
            continue
        lo, hi = left.kappa, right.kappa
        g_lo = f_left
        while hi - lo > edge_resolution:
            mid = 0.5 * (lo + hi)
            g_mid = growth(mid) - EDGE_LEVEL
            if g_mid == 0.0:
                lo = hi = mid
                break
            if g_lo * g_mid < 0.0:
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        edges.append(0.5 * (lo + hi))

    unstable = any(r.max_real_part > UNSTABLE_THRESHOLD for r in records)
    return StabilityScan(
        wave_id=wave.wave_id,
        sector=sector,
        kappa_values=kappas,
        records=tuple(records),
        band_edges=tuple(edges),
        verdict="transversally unstable" if unstable else "no instability detected",
    )


# ---------------------------------------------------------------------------
# hypotheses (H0)-(H4) for S(kappa)


@dataclass(frozen=True)
class HypothesisReport:
    """Verification record for the abstract assumptions behind the scan."""

    wave_id: str
    sector: str
    h0: dict
    h1: dict
    h2: dict
    h3: dict
    h4: dict
    overall: bool


def verify_hypotheses(
    wave: WaveProfile,
    sector: str = "auto",
    zero_tolerance: Optional[float] = None,
    rng_seed: int = 0,
) -> HypothesisReport:
    """Check (H0)-(H4) for S(kappa) on the declared sector.

    H0 self-adjointness of the assembled matrix; H1 uniform positivity
    S(kappa) >= beta for kappa >= K with K = sqrt(lambda0)*(1+1e-6) and
    beta = K^2 - lambda0, where -lambda0 is the lowest eigenvalue of S(0);
    H2 records that a periodic cell has no essential spectrum; H3
    monotonicity of the lowest eigenvalue of S(kappa) in kappa plus
    positivity of (S'(kappa)w, w) = 2*kappa*||w||^2 on sampled vectors;
    H4 exactly one simple negative eigenvalue of S(0) with the rest of the
    spectrum nonnegative.

    S(kappa) = S(0) + kappa^2 * I exactly, so H1 and H3 shift the lowest
    eigenvalue of S(0) by kappa^2: one dense solve serves every hypothesis.
    """
    sector = resolve_sector(wave, sector)
    s0 = build_block(wave, "S_kappa", 0.0, sector=sector)
    entries = s0.entries
    scale = float(np.max(np.abs(entries)))
    asym = float(np.max(np.abs(entries - entries.T)))
    h0 = {"passed": asym <= 1e-12 * max(scale, 1e-300), "max_asymmetry": asym}

    eigs0 = scipy.linalg.eigh(entries, eigvals_only=True)
    tol = zero_tolerance if zero_tolerance is not None else default_zero_tolerance(eigs0)
    lambda0 = -float(eigs0[0])

    if lambda0 > 0.0:
        k_thresh = np.sqrt(lambda0) * (1.0 + 1e-6)
        beta = k_thresh**2 - lambda0
    else:
        k_thresh = 0.0
        beta = -lambda0
    kappa_grid = np.linspace(k_thresh * (1.0 + 1e-3) + 1e-9, 2.0 * k_thresh + 1.0, 5)
    min_eigs = [float(eigs0[0] + kappa**2) for kappa in kappa_grid]
    h1 = {
        "passed": bool(all(m >= beta for m in min_eigs)) and beta > 0.0,
        "lambda0": lambda0,
        "K": float(k_thresh),
        "beta": float(beta),
        "kappa_grid": [float(k) for k in kappa_grid],
        "min_eigs": min_eigs,
    }

    h2 = {
        "passed": True,
        "note": "compact period cell: resolvent is finite-dimensional here and the "
        "continuous operator has purely discrete spectrum",
    }

    mono_grid = np.linspace(0.0, max(2.0 * k_thresh, 1.0), 9)
    mono_eigs = [float(eigs0[0] + kappa**2) for kappa in mono_grid]
    diffs = np.diff(mono_eigs)
    rng = np.random.default_rng(rng_seed)
    sprime_values = []
    for kappa in mono_grid[1:]:
        for _ in range(3):
            w = rng.standard_normal(entries.shape[0])
            sprime_values.append(2.0 * kappa * float(np.dot(w, w)))
    h3 = {
        "passed": bool(np.all(diffs >= -1e-12 * max(scale, 1.0)))
        and bool(all(v > 0.0 for v in sprime_values)),
        "kappa_grid": [float(k) for k in mono_grid],
        "min_eigs": mono_eigs,
        "min_sprime_sample": float(min(sprime_values)),
    }

    n_negative = int(np.sum(eigs0 < -tol))
    gap = float(eigs0[1] - eigs0[0]) if len(eigs0) > 1 else 0.0
    simple = gap >= 10.0 * tol
    rest_nonneg = bool(np.all(eigs0[1:] >= -tol))
    h4 = {
        "passed": n_negative == 1 and simple and rest_nonneg,
        "n_negative": n_negative,
        "lowest": float(eigs0[0]),
        "gap": gap,
        "zero_tolerance": float(tol),
    }

    overall = all(h["passed"] for h in (h0, h1, h2, h3, h4))
    return HypothesisReport(
        wave_id=wave.wave_id,
        sector=sector,
        h0=h0,
        h1=h1,
        h2=h2,
        h3=h3,
        h4=h4,
        overall=overall,
    )
