"""Transverse instability scan for an accepted standing wave.

For each transverse wavenumber kappa the growth modes solve the block
eigenvalue problem

    [[0,            L2 + kappa^2],
     [-(L1 + kappa^2),         0]] (v1, v2) = lambda (v1, v2),

whose spectrum is closed under lambda -> -lambda and conjugation
(Hamiltonian quadruples).  Eliminating v2 = -(L1 + kappa^2) v1 / lambda
leaves -(L2 + kappa^2)(L1 + kappa^2) v1 = lambda^2 v1.  With L2 = Q D Q^T
and s = sqrt(D + kappa^2), whenever L2 + kappa^2 is positive semidefinite
that product has the eigenvalues mu = -lambda^2 of the symmetric

    M(kappa) = diag(s) (Q^T L1 Q + kappa^2) diag(s),

and v1 = Q (s * y) for an eigenvector y of M.  M is congruent to
L1 + kappa^2, so by Sylvester's law of inertia such a row has exactly
n(L1 + kappa^2) growth pairs: with -lambda0 the lowest eigenvalue of L1 (and
of S(0), since L1 <= L2) the band is (0, sqrt(lambda0)).

The potential |phi|^a is even, so in the full space L1, L2 and the whole
block problem split into a cosine and a sine sector (``hill._sector_blocks``)
and every solve below runs once per sector, on blocks of order about d/2;
the sector spectra are merged into one record and growth modes lifted to
full-basis coefficients.

:func:`scan_kappa` diagonalizes L1 and L2 once per scan and sector, solves
each such row with one ``eigh`` per sector, checks each sector's count of
mu < 0 against its L1 spectrum and reads band edges off the lowest L1
eigenvalue.  Rows where L2 + kappa^2 is indefinite beyond the rounding floor
of its diagonalization (an odd wave in the full space at small kappa), or
where a computed mu lies within the rounding floor of M of zero (next to
kappa = 0 and at band edges), in any sector, go through the dense ``eig`` of
:func:`instability_eigs`, which also solves single-kappa calls; only an edge
above an indefinite row is bisected.  A reduced row certifies every
eigenpair (mu, y) by the residual of its lift v1 = Q (s * y) on the
unreduced product (L2 + kappa^2)(L1 + kappa^2), and its written growth mode
on the sector's block; its set is closed under negation and conjugation by
construction.  A dense row checks lambda^2 on each sector's ten largest
|lambda| against that sector's unsymmetric product, and the quadruple
symmetry of the merged set.  :func:`growth_row` hands the time integrator
the scan's own row at one kappa and the sector blocks to step.  The module
also verifies the hypotheses (H0)-(H4) for S(kappa) = diag(L2 + kappa^2,
L1 + kappa^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalConsistencyError, ParameterError
from .hill import (
    OperatorMatrix,
    _rounding_floor,
    _sector_blocks,
    block_eigenvalues,
    build_block,
    default_zero_tolerance,
    hill_pair,
)
from .spectral import EVEN, ParityBasis, RealField
from .waves import WaveProfile

#: growth rates above this are reported as genuine instability
UNSTABLE_THRESHOLD = 1e-6

#: growth level that marks instability band edges
EDGE_LEVEL = 1e-8

#: width to which a band edge is bisected, and the slack of a closed-form edge
EDGE_RESOLUTION = 1e-6

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


def _growth_block(l2: np.ndarray, l1: np.ndarray, kappa: float) -> np.ndarray:
    """[[0, L2+k^2], [-(L1+k^2), 0]] from L2 and L1 on one basis."""
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ParameterError(f"kappa must be nonnegative, got {kappa}")
    d = l2.shape[0]
    shift = kappa**2 * np.eye(d)
    block = np.zeros((2 * d, 2 * d))
    block[:d, d:] = l2 + shift
    block[d:, :d] = -(l1 + shift)
    return block


def _sectors(s0: OperatorMatrix) -> list:
    """(rows, L2 block, L1 block) of each parity sector of S(0) = diag(L2, L1),
    rows being the sector's slice of the basis."""
    d = s0.basis.dimension
    out, start = [], 0
    for l2, l1 in zip(
        _sector_blocks(s0.entries[:d, :d], s0.basis), _sector_blocks(s0.entries[d:, d:], s0.basis)
    ):
        out.append((slice(start, start + l2.shape[0]), l2, l1))
        start += l2.shape[0]
    return out


def _lift(rows: slice, d: int, pair: np.ndarray) -> np.ndarray:
    """Stacked (v1, v2) coefficients of one sector as a full-basis [v1 | v2]."""
    m = rows.stop - rows.start
    out = np.zeros(2 * d, dtype=pair.dtype)
    out[rows] = pair[:m]
    out[d + rows.start : d + rows.stop] = pair[m:]
    return out


def evolution_block(wave: WaveProfile, kappa: float, sector: str = "full"):
    """Dense block matrix [[0, L2+k^2], [-(L1+k^2), 0]] and its basis."""
    s0 = build_block(wave, "S_kappa", 0.0, sector=sector)
    d = s0.basis.dimension
    return _growth_block(s0.entries[:d, :d], s0.entries[d:, d:], kappa), s0.basis


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
        coeff = np.real(mode.coefficients)
        return self.basis.field(coeff[:d]), self.basis.field(coeff[d:])


def _symmetry_defect(eigenvalues: np.ndarray) -> float:
    """Distance of the set from closure under lambda -> -lambda and conjugation."""
    e = eigenvalues
    negation = np.min(np.abs(e[:, None] + e[None, :]), axis=1)
    conjugation = np.min(np.abs(e[None, :] - np.conj(e)[:, None]), axis=1)
    return max(0.0, float(np.max(negation)), float(np.max(conjugation)))


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

    Each parity sector's dense block is cross-checked against its own
    reduction (lambda^2 must be an eigenvalue of -(L2+k^2)(L1+k^2)) on its
    ten largest |lambda|; disagreement raises NumericalConsistencyError.
    """
    sector = resolve_sector(wave, sector)
    return _block_eigs(build_block(wave, "S_kappa", 0.0, sector=sector), kappa, sector, crosscheck)


def _crosscheck(l2k: np.ndarray, l1k: np.ndarray, eigenvalues: np.ndarray, kappa: float) -> None:
    """lambda^2 of the ten largest |lambda| against eigvals of -(L2+k^2)(L1+k^2)."""
    nu = np.linalg.eigvals(-l2k @ l1k)
    top = np.argsort(np.abs(eigenvalues))[-10:]
    for idx in top:
        lam2 = eigenvalues[idx] ** 2
        gap = float(np.min(np.abs(nu - lam2)))
        if gap > CROSSCHECK_RTOL * (1.0 + abs(lam2)):
            raise NumericalConsistencyError(
                f"block eigenvalue {eigenvalues[idx]:.6e} fails the lambda^2 "
                f"reduction cross-check at kappa={kappa:g} (gap {gap:.3e})"
            )


def _block_eigs(s0: OperatorMatrix, kappa: float, sector: str, crosscheck: bool = True):
    """:func:`instability_eigs` on the already assembled S(0) of one wave.

    One dense ``eig`` per parity sector; the spectra are merged and growth
    modes lifted to full-basis coefficients.  The record keeps the whole
    2d x 2d block, the unsplit reference of the sector solves.
    """
    d = s0.basis.dimension
    values, vectors, rows = [], [], []
    for sector_rows, l2, l1 in _sectors(s0):
        block = _growth_block(l2, l1, kappa)
        # geev returns a real array when every eigenvalue is real; records and
        # mode rates stay complex whatever the spectrum
        w, v = (a.astype(complex, copy=False) for a in np.linalg.eig(block))
        if crosscheck:
            m = l2.shape[0]
            _crosscheck(block[:m, m:], -block[m:, :m], w, kappa)
        values.append(w)
        vectors.append(v)
        rows.append(sector_rows)
    eigenvalues = np.concatenate(values)
    owner = np.repeat(np.arange(len(values)), [w.size for w in values])
    column = np.concatenate([np.arange(w.size) for w in values])
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues, owner, column = eigenvalues[order], owner[order], column[order]

    unstable = tuple(
        UnstableMode(
            rate=complex(eigenvalues[i]),
            coefficients=_normalize_mode(_lift(rows[owner[i]], d, vectors[owner[i]][:, column[i]])),
        )
        for i in np.flatnonzero(eigenvalues.real > VECTOR_LEVEL)
    )
    return InstabilityEigs(
        wave_id=s0.wave_id,
        kappa=float(kappa),
        sector=sector,
        basis=s0.basis,
        block=_growth_block(s0.entries[:d, :d], s0.entries[d:, d:], kappa),
        eigenvalues=eigenvalues,
        max_real_part=float(np.max(np.abs(eigenvalues.real))),
        symmetry_defect=_symmetry_defect(eigenvalues),
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
    records: tuple[KappaRecord, ...]
    band_edges: tuple[float, ...]
    verdict: str
    #: grid rows per solver path, and dense eig solves spent bisecting band edges
    reduced_rows: int
    dense_rows: int
    dense_bisections: int

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


@dataclass(frozen=True)
class _Reduction:
    """The sector blocks L1, L2 of one parity sector, L2 = Q diag(D) Q^T,
    A = Q^T L1 Q and the L1 spectrum.

    A kappa is solved here only where L2 + kappa^2 is semidefinite and every
    computed mu clears the rounding floor of M(kappa): a mu that rounding can
    push across zero would report sqrt(|mu|), far above EDGE_LEVEL, as growth.
    That happens next to kappa = 0, where the symmetry generators form a
    Jordan block, and right at band edges; the dense ``eig`` solves those.
    """

    #: the sector's slice of the scan's basis
    rows: slice
    l2: np.ndarray
    l1: np.ndarray
    q: np.ndarray
    d: np.ndarray
    a: np.ndarray
    #: ascending eigenvalues of L1
    l1_eigs: np.ndarray

    @classmethod
    def sectors(cls, s0: OperatorMatrix) -> tuple:
        """One reduction per parity sector of S(0)."""
        out = []
        for rows, l2, l1 in _sectors(s0):
            d, q = np.linalg.eigh(l2)
            out.append(cls(rows, l2, l1, q=q, d=d, a=q.T @ l1 @ q, l1_eigs=np.linalg.eigvalsh(l1)))
        return tuple(out)

    def scale(self, kappa: float) -> Optional[np.ndarray]:
        """s = sqrt(D + kappa^2), or None where L2 + kappa^2 is indefinite.

        Shifted eigenvalues within the rounding floor of D below zero count as zero.
        """
        shifted = self.d + kappa**2
        if shifted[0] < -_rounding_floor(self.d.size, float(np.max(np.abs(self.d)))):
            return None
        return np.sqrt(np.maximum(shifted, 0.0))

    def matrix(self, kappa: float, scale: np.ndarray) -> np.ndarray:
        """M = diag(s) (A + kappa^2) diag(s), whose eigenvalues are mu = -lambda^2."""
        return scale[:, None] * (self.a + kappa**2 * np.eye(scale.size)) * scale[None, :]

    def floor(self, kappa: float) -> float:
        """Rounding floor of M(kappa) and of the product (L2+k^2)(L1+k^2)."""
        # ||L1||_2 = max|l|, so this bounds ||M(kappa)||_2
        norm = (self.d[-1] + kappa**2) * (float(np.max(np.abs(self.l1_eigs))) + kappa**2)
        return _rounding_floor(self.d.size, norm)

    def resolved(self, kappa: float, mu: np.ndarray) -> bool:
        """No mu within the rounding floor of M(kappa) of zero."""
        return bool(np.min(np.abs(mu)) > self.floor(kappa))

    def solve(self, kappa: float) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Every eigenvalue mu of M(kappa), ascending, and the lifted
        v1 = Q (s * y) of each eigenvector y as a column; None where L2 +
        kappa^2 is indefinite or some mu is unresolved."""
        scale = self.scale(kappa)
        if scale is None:
            return None
        mu, y = np.linalg.eigh(self.matrix(kappa, scale))
        if not self.resolved(kappa, mu):
            return None
        v1 = self.q @ (scale[:, None] * y)
        # the lowest mode, the one a row writes, is lifted by a matrix-vector
        # product of its own: a column of the matrix product may differ from it
        # in the last bits, with the blocking of the product
        mode = v1[:, 0] = self.q @ (scale * y[:, 0])
        # eigh resolves mu only to about eps * ||M||, which grows like the fourth
        # power of the largest wavenumber; the Rayleigh quotient of the lowest
        # mode on the unscaled L1 + kappa^2 is second order in that mode's error
        mu[0] = (mode @ (self.l1 + kappa**2 * np.eye(scale.size)) @ mode) / (y[:, 0] @ y[:, 0])
        return mu, v1

    def _gate(self, kappa: float, what: str, mu, residual, norm) -> None:
        """residual <= max(CROSSCHECK_RTOL |mu|, 4 floor) * norm, elementwise."""
        bound = np.maximum(CROSSCHECK_RTOL * np.abs(mu), 4.0 * self.floor(kappa)) * norm
        bad = np.flatnonzero(~(residual <= bound))
        if bad.size:
            j = bad[np.argmax(residual[bad] / bound[bad])]
            raise NumericalConsistencyError(
                f"{what} at mu={mu[j]:.6e} fails the residual cross-check at "
                f"kappa={kappa:g}: residual {residual[j]:.3e} above {bound[j]:.3e}"
            )

    def certify(self, kappa: float, mu: np.ndarray, v1: np.ndarray) -> None:
        """(L2+k^2)(L1+k^2) v1 = mu v1 on every lifted pair, to four times the
        rounding floor of the product or CROSSCHECK_RTOL relative to |mu|.

        The product is applied to v1 unreduced, so an error in Q, in the
        scaling s or in the kappa^2 shift of M shows as a residual r; on the
        largest |mu| the relative term dominates.  diag(1/s) Q^T r is the
        residual of y on the symmetric M, which bounds the error of mu
        (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, section 4.5)."""
        shift = kappa**2 * np.eye(mu.size)
        residual = (self.l2 + shift) @ ((self.l1 + shift) @ v1) - v1 * mu
        norms = np.linalg.norm(residual, axis=0), np.linalg.norm(v1, axis=0)
        self._gate(kappa, "eigenpair", mu, *norms)

    def certify_mode(self, kappa: float, rate: float, coeff: np.ndarray) -> None:
        """The written growth mode w = (v1, v2) of this sector against its
        block B = [[0, L2+k^2], [-(L1+k^2), 0]]: rate (B w - rate w) has the
        product residual of v1 as its first half and rounding as its second,
        so it takes :meth:`certify`'s bound, and a wrong v2 fails it."""
        d = coeff.size // 2
        w1, w2 = coeff[self.rows], coeff[d + self.rows.start : d + self.rows.stop]
        r1 = self.l2 @ w2 + kappa**2 * w2 - rate * w1
        r2 = -(self.l1 @ w1 + kappa**2 * w1) - rate * w2
        residual = rate * math.sqrt(float(r1 @ r1 + r2 @ r2))
        norm = math.sqrt(float(w1 @ w1 + w2 @ w2))
        self._gate(kappa, "growth mode", np.array([-(rate**2)]), np.array([residual]), norm)

    def check_inertia(self, kappa: float, mu: np.ndarray) -> None:
        """#{mu < 0} = n(L1 + kappa^2) by Sylvester's law of inertia, L1
        eigenvalues within the rounding floor of -kappa^2 counting either way."""
        shifted = self.l1_eigs + kappa**2
        floor = _rounding_floor(shifted.size, float(np.max(np.abs(self.l1_eigs))))
        low, high, negative = np.sum(shifted < -floor), np.sum(shifted < floor), np.sum(mu < 0.0)
        if not low <= negative <= high:
            raise NumericalConsistencyError(
                f"inertia count: {negative} mu < 0 at kappa={kappa:g}, n(L1+k^2) in {low}..{high}"
            )


def _band_end(reductions: tuple, lo: float, hi: float, falling: bool) -> float:
    """The edge where growth crosses EDGE_LEVEL in [lo, hi], on which
    L2 + kappa^2 >= 0: sqrt(lambda0) if growth falls there, else 0, with
    -lambda0 the lowest L1 eigenvalue over the sectors."""
    lowest = min(float(r.l1_eigs[0]) for r in reductions)
    end = float(np.sqrt(max(-lowest, 0.0))) if falling else 0.0
    if not lo - EDGE_RESOLUTION <= end <= hi + EDGE_RESOLUTION:
        raise NumericalConsistencyError(
            f"edge in [{lo:g}, {hi:g}] misses the inertia-law band end {end:.9g}"
        )
    return min(max(end, lo), hi)


def _reduced_row(
    basis: ParityBasis, reductions: tuple, kappa: float
) -> Optional[tuple[KappaRecord, Optional[np.ndarray]]]:
    """One grid row from one ``eigh`` of M(kappa) per parity sector, and the
    full-basis [v1 | v2] coefficients of its leading growth mode (None below
    VECTOR_LEVEL); or None where the reduction does not apply to some sector.

    Every eigenpair is certified by its residual on the unreduced product
    and the sector's mu < 0 by the inertia count.  The set is built as
    +-(real or imaginary half), closed under negation and conjugation by
    construction, so its symmetry defect is 0.0 without being measured.
    """
    solved = []
    for reduction in reductions:
        pairs = reduction.solve(kappa)
        if pairs is None:
            return None
        solved.append((reduction, *pairs))

    values = []
    growth, lead = 0.0, None
    for reduction, mu, lifted in solved:
        reduction.certify(kappa, mu, lifted)
        reduction.check_inertia(kappa, mu)
        rate = np.sqrt(np.abs(mu))
        half = np.where(mu < 0.0, rate + 0j, 1j * rate)
        values.append(np.concatenate([half, -half]) + 0.0)  # + 0.0 clears negative zeros
        if mu[0] < 0.0 and rate[0] > growth:
            growth, lead = float(rate[0]), (reduction, lifted[:, 0])
    eigenvalues = np.concatenate(values)
    eigenvalues = eigenvalues[np.lexsort((eigenvalues.imag, eigenvalues.real))]

    lam = v1 = v2 = coeff = None
    if growth > VECTOR_LEVEL:
        reduction, mode = lead
        d = basis.dimension
        l1k = reduction.l1 + kappa**2 * np.eye(mode.size)
        coeff = _normalize_mode(
            _lift(reduction.rows, d, np.concatenate([mode, -(l1k @ mode) / growth]))
        )
        reduction.certify_mode(kappa, growth, coeff)
        lam = complex(growth)
        v1, v2 = basis.field(coeff[:d]), basis.field(coeff[d:])
    record = KappaRecord(
        kappa=kappa,
        eigenvalues=eigenvalues,
        max_real_part=growth,
        num_unstable=int(np.sum(eigenvalues.real > UNSTABLE_THRESHOLD)),
        leading_lambda=lam,
        leading_v1=v1,
        leading_v2=v2,
        symmetry_defect=0.0,
    )
    return record, coeff


def _dense_row(
    s0: OperatorMatrix, kappa: float, sector: str
) -> tuple[KappaRecord, Optional[np.ndarray]]:
    """One row from each parity sector's dense ``eig``, as :func:`_reduced_row`
    returns it."""
    eigs = _block_eigs(s0, kappa, sector)
    leading = eigs.leading
    return _record(eigs), None if leading is None else leading.coefficients


@dataclass(frozen=True)
class GrowthRow:
    """The scan's solve at one kappa, with the parity-sector blocks it split."""

    basis: ParityBasis
    record: KappaRecord
    #: full-basis [v1 | v2] coefficients of the leading growth mode, or None
    leading: Optional[np.ndarray]
    #: (rows, [[0, L2+k^2], [-(L1+k^2), 0]]) of each parity sector, rows being
    #: the sector's slice of the basis
    blocks: tuple


def growth_row(wave: WaveProfile, kappa: float, sector: str = "auto") -> GrowthRow:
    """The row :func:`scan_kappa` computes at kappa, by the scan's own rule:
    the reduced row where it applies, else each sector's dense ``eig``.  Its
    record is the scan's row at kappa bit for bit."""
    sector = resolve_sector(wave, sector)
    s0 = build_block(wave, "S_kappa", 0.0, sector=sector)
    reductions = _Reduction.sectors(s0)
    blocks = tuple((r.rows, _growth_block(r.l2, r.l1, kappa)) for r in reductions)
    row = _reduced_row(s0.basis, reductions, kappa)
    record, leading = row if row is not None else _dense_row(s0, kappa, sector)
    return GrowthRow(basis=s0.basis, record=record, leading=leading, blocks=blocks)


def scan_kappa(
    wave: WaveProfile,
    kappa_min: float,
    kappa_max: float,
    steps: int,
    sector: str = "auto",
) -> StabilityScan:
    """Sweep kappa over a uniform grid and locate the instability band edges.

    The verdict is 'transversally unstable' as soon as one grid point has
    max Re lambda above UNSTABLE_THRESHOLD.  Runs are sequential and
    deterministic: identical inputs give identical records.  L1 and L2 are
    assembled once and every row adds kappa^2 to them.  An edge lies between
    adjacent rows whose growth crosses EDGE_LEVEL: the band end 0 or
    sqrt(lambda0) where L2 + kappa^2 >= 0 there, else bisected to
    EDGE_RESOLUTION with dense ``eig`` solves, which the scan counts.
    """
    if not (np.isfinite(kappa_min) and np.isfinite(kappa_max)):
        raise ParameterError("kappa range must be finite")
    if kappa_min < 0.0 or kappa_max <= kappa_min:
        raise ParameterError(f"need 0 <= kappa_min < kappa_max, got [{kappa_min}, {kappa_max}]")
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ParameterError(f"kappa grid needs an integer of at least 2 points, got {steps!r}")
    sector = resolve_sector(wave, sector)
    kappas = np.linspace(kappa_min, kappa_max, steps)
    s0 = build_block(wave, "S_kappa", 0.0, sector=sector)
    reductions = _Reduction.sectors(s0)
    reduced = 0
    records = []
    for kappa in kappas:
        kappa = float(kappa)
        row = _reduced_row(s0.basis, reductions, kappa)
        reduced += row is not None
        if row is None:
            row = _dense_row(s0, kappa, sector)
        record = row[0]
        if record.symmetry_defect > SYMMETRY_TOL:
            raise NumericalConsistencyError(
                f"eigenvalue quadruple symmetry broken at kappa={kappa:g}: "
                f"defect {record.symmetry_defect:.3e}"
            )
        records.append(record)

    bisections = 0
    edges = []
    for left, right in zip(records[:-1], records[1:]):
        f_left = left.max_real_part - EDGE_LEVEL
        if f_left == 0.0 or f_left * (right.max_real_part - EDGE_LEVEL) >= 0.0:
            continue
        lo, hi = left.kappa, right.kappa
        # D + kappa^2 grows with kappa: semidefinite at lo means on all of [lo, hi]
        if all(r.scale(lo) is not None for r in reductions):
            edges.append(_band_end(reductions, lo, hi, falling=f_left > 0.0))
            continue
        g_lo = f_left
        while hi - lo > EDGE_RESOLUTION:
            mid = 0.5 * (lo + hi)
            bisections += 1
            g_mid = _block_eigs(s0, mid, sector, crosscheck=False).max_real_part - EDGE_LEVEL
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
        reduced_rows=reduced,
        dense_rows=len(records) - reduced,
        dense_bisections=bisections,
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
) -> HypothesisReport:
    """Check (H0)-(H4) for S(kappa) on the declared sector.

    H0 self-adjointness of the assembled matrix; H1 uniform positivity
    S(kappa) >= beta for kappa >= K with K = sqrt(lambda0)*(1+1e-6) and
    beta = K^2 - lambda0, where -lambda0 is the lowest eigenvalue of S(0);
    H2 records that a periodic cell has no essential spectrum; H3
    monotonicity of the lowest eigenvalue of S(kappa) in kappa plus
    positivity of (S'(kappa)w, w) = 2*kappa*||w||^2 on vectors sampled
    with seed 0;
    H4 exactly one simple negative eigenvalue of S(0) with the rest of the
    spectrum nonnegative.

    S(kappa) = S(0) + kappa^2 * I exactly, so H1 and H3 shift the lowest
    eigenvalue of S(0) by kappa^2: one spectrum of S(0), solved one parity
    sector of each component at a time, serves every hypothesis.
    """
    sector = resolve_sector(wave, sector)
    l1, l2 = hill_pair(wave, sector)
    # S(0) = diag(L2, L1): its off-diagonal blocks are exact zeros, so the
    # entry scale, the asymmetry and the spectrum all come from the two blocks
    blocks = (l2.entries, l1.entries)
    scale = max(float(np.max(np.abs(b))) for b in blocks)
    asym = max(float(np.max(np.abs(b - b.T))) for b in blocks)
    h0 = {"passed": asym <= 1e-12 * max(scale, 1e-300), "max_asymmetry": asym}

    eigs0 = block_eigenvalues(*(part for b in blocks for part in _sector_blocks(b, l1.basis)))
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
    rng = np.random.default_rng(0)
    sprime_values = []
    for kappa in mono_grid[1:]:
        for _ in range(3):
            w = rng.standard_normal(eigs0.size)
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
