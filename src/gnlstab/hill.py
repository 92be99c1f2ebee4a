"""Hill operators of the linearization around a standing wave.

For an accepted profile phi the two scalar operators

    L1 = -d_xx + w - (a+1)|phi|^a        (acts on the real perturbation)
    L2 = -d_xx + w - |phi|^a             (acts on the imaginary perturbation)

are assembled as dense symmetric matrices on a parity basis, together with
the block-diagonal compositions

    Lcal       = diag(L1, L2)
    S_kappa    = diag(L2 + kappa^2, L1 + kappa^2).

The potential |phi|^a is even for both parity classes, so on the full
Fourier basis (cosine block first, then sine) every one of these operators
is the direct sum of a cosine block (N/2+1) and a sine block (N/2-1), up to
a cosine-sine coupling that is rounding.  A block-diagonal composition has
the union of its blocks' spectra, so every eigensolve here is one solve per
parity sector and component.  Counting negative/zero eigenvalues of these
spectra is what the spectral assertions in :func:`check_propositions` and
the hypothesis (H4) are made of, and :func:`spectrum` is the one place that
counts them.

:class:`HillOperators` is the one store of L1 and L2 per wave: the wave,
its sector and the sector blocks, assembled once, straight on each parity
sector's basis, as read-only blocks, and diagonalized on first use.  A
full-space store gates the split by the coupling that the full matrix would
hold, computed from the potential's sine coefficients alone
(:func:`spectral.sector_coupling`), and each block is bit for bit that
matrix's diagonal block.  The matrices on the whole basis are assembled only
for :func:`build_hill`, :func:`build_block` and ``scan.evolution_block``,
and not kept; :class:`OperatorMatrix` checks those of the first two.  The
store neither copies its blocks nor measures their symmetry; (H0) is
measured on them where the hypotheses report it.  The spectra,
propositions, hypotheses, the kappa-scan, the grid-doubling certificate and
the time integrator all read it; a full-space store also serves the odd and
even sectors, whose operators are its sine and cosine blocks bit for bit.
The sector is chosen once, where the store is made (:func:`hill_operators`,
:meth:`HillOperators.restrict`, "auto" resolved by the wave's parity): every
consumer takes a store, used as it is, and no sector, and none makes a store
of its own.  A store lives as long as the call that made it.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import BasisError, NumericalConsistencyError, ParameterError
from .spectral import (
    COSINE,
    EVEN,
    FULL,
    ODD,
    SINE,
    ParityBasis,
    RealField,
    first_derivative,
    hill_matrix,
    l2_norm,
    sector_coupling,
)
from .waves import WaveProfile

#: labels of the two scalar Hill operators
_LABELS = ("L1", "L2")

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense symmetric matrix on a parity basis: a read-only, checked copy."""

    basis: ParityBasis
    entries: np.ndarray
    label: str
    wave_id: str

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float, copy=True)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ParameterError(f"operator entries must be square, got {entries.shape}")
        scale = float(np.max(np.abs(entries)))
        asym = float(np.max(np.abs(entries - entries.T)))
        if asym > SYMMETRY_RTOL * max(scale, 1e-300):
            raise ParameterError(
                f"operator {self.label} is not symmetric: defect {asym:.3e}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigenvalues of one operator plus negative/zero counts.

    ``ambiguous`` is set when halving or doubling the zero tolerance changes
    either count; ``lowest_eigenfunctions`` optionally stores the grid fields
    of the eigenvectors of the smallest eigenvalues, in ascending order.
    """

    label: str
    wave_id: str
    eigenvalues: np.ndarray
    n_negative: int
    kernel_dimension: int
    zero_tolerance: float
    ambiguous: bool
    lowest_eigenfunctions: Optional[tuple[RealField, ...]] = None


def default_zero_tolerance(eigenvalues: np.ndarray) -> float:
    """1e-6 * (1 + |largest eigenvalue|): scales with the discretization."""
    return 1e-6 * (1.0 + float(np.max(np.abs(eigenvalues))))


def _zero_tolerance(eigenvalues: np.ndarray, zero_tolerance: Optional[float]) -> float:
    """``zero_tolerance``, or the default for ``eigenvalues`` when None;
    ParameterError unless it is a real number (not a bool), positive and finite."""
    tol = zero_tolerance if zero_tolerance is not None else default_zero_tolerance(eigenvalues)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise ParameterError(f"zero tolerance must be a real number, got {tol!r}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"zero tolerance must be positive, got {tol}")
    return tol


def _counts(eigenvalues: np.ndarray, tol: float) -> tuple[int, int]:
    negative = int(np.sum(eigenvalues < -tol))
    kernel = int(np.sum(np.abs(eigenvalues) <= tol))
    return negative, kernel


def _check_sector_basis(wave: WaveProfile, kind: str) -> None:
    if kind in (COSINE, SINE) and wave.phi.parity not in (EVEN, ODD):
        raise BasisError(
            "parity-restricted bases need an even potential |phi|^a, i.e. an "
            "even or odd profile; got parity 'none'"
        )


def _potential(wave: WaveProfile, which: str) -> np.ndarray:
    """The potential of L1, (a+1)|phi|^a, or of L2, |phi|^a, on the wave's grid."""
    alpha = wave.params.alpha
    strength = alpha + 1.0 if which == "L1" else 1.0
    return strength * np.abs(wave.phi.values) ** alpha


def _read_only(entries: np.ndarray) -> np.ndarray:
    entries.setflags(write=False)
    return entries


def _check_label(which: str) -> None:
    """ParameterError unless ``which`` names L1 or L2."""
    if which not in _LABELS:
        raise ParameterError(f"operator must be 'L1' or 'L2', got {which!r}")


def _assemble(wave: WaveProfile, which: str, basis: ParityBasis) -> np.ndarray:
    """L1 or L2 for ``wave`` on ``basis`` (see :func:`hill_matrix`), read-only."""
    _check_label(which)
    if basis.grid != wave.phi.grid:
        raise ParameterError("basis and wave live on different grids")
    _check_sector_basis(wave, basis.kind)
    return _read_only(hill_matrix(basis, wave.params.omega, _potential(wave, which)))


def _parity_bases(grid) -> tuple:
    """The cosine and the sine basis: the parity sectors of the full basis, in its order."""
    return ParityBasis(COSINE, grid), ParityBasis(SINE, grid)


def _sector_pair(wave: WaveProfile, which: str, bases: tuple) -> tuple:
    """L1 or L2 for ``wave`` on the cosine and the sine basis, read-only,
    after the gate of :func:`_check_split` on the coupling between them.

    Each block is bit for bit the diagonal block of the full-basis matrix,
    and the coupling (:func:`spectral.sector_coupling`) is that matrix's
    exact max |cosine-sine entry|, so the gate decides as it would on the
    full matrix, which is never built.  Any wave passes on to the gate,
    a parity 'none' one included: its potential decides."""
    q = _potential(wave, which)
    blocks = tuple(_read_only(hill_matrix(b, wave.params.omega, q)) for b in bases)
    scale = max(float(np.max(np.abs(b))) for b in blocks)
    coupling = sector_coupling(wave.phi.grid, q)
    _check_split(coupling, max(scale, coupling), wave.phi.grid.size)
    return blocks


def build_hill(wave: WaveProfile, which: str, basis: ParityBasis) -> OperatorMatrix:
    """Assemble L1 or L2 for ``wave`` on ``basis`` (see :func:`hill_matrix`)."""
    return OperatorMatrix(basis, _assemble(wave, which, basis), which, wave.wave_id)


#: the basis of each sector: the odd sector is spanned by sines, the even by cosines
_SECTOR_KINDS = {"full": FULL, "odd": SINE, "even": COSINE}


def resolve_sector(wave: WaveProfile, sector: str) -> str:
    """'auto' means full space for even waves, odd sector for odd waves."""
    if sector == "auto":
        return "full" if wave.params.parity == EVEN else "odd"
    if sector not in _SECTOR_KINDS:
        raise ParameterError(f"unknown sector {sector!r}")
    return sector


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """L1 and L2 on one parity sector's basis, read-only; their ascending
    ``eigvalsh`` spectra are computed on first use and kept."""

    basis: ParityBasis
    l1: np.ndarray
    l2: np.ndarray

    @cached_property
    def l1_eigs(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.l1)

    @cached_property
    def l2_eigs(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.l2)

    def eigenvalues(self, which: str) -> np.ndarray:
        """The spectrum of L1 or L2; ParameterError for any other label."""
        _check_label(which)
        return self.l1_eigs if which == "L1" else self.l2_eigs


@dataclass(frozen=True, eq=False)
class HillOperators:
    """L1 and L2 of one wave on one sector's basis, assembled once.

    A store is its wave, its sector and ``blocks``: each parity sector of
    the sector's basis once, cosine first (a sector basis is one block), L1
    and L2 on that sector's basis, read-only, with their spectra on first
    use.  A sector view of a full-space store holds its block.  Everything
    derives from the blocks: the spectrum of L1 or L2 is the union of its
    blocks' spectra, and so is that of Lcal = diag(L1, L2), which S(0) =
    diag(L2, L1) shares.  The matrices on the whole basis are not kept:
    :func:`build_block` and ``scan.evolution_block`` assemble them
    (:func:`_whole_basis_pair`).  Consumers keep what they build on top of
    the blocks with :meth:`memo` (the scan keeps its reductions there).
    """

    #: the wave linearized around
    wave: WaveProfile
    #: "full", "odd" or "even"
    sector: str
    blocks: tuple[SectorBlock, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def wave_id(self) -> str:
        return self.wave.wave_id

    @cached_property
    def basis(self) -> ParityBasis:
        """The sector's basis on the wave's grid."""
        return ParityBasis(_SECTOR_KINDS[self.sector], self.wave.phi.grid)

    def sectors(self) -> list[tuple[slice, SectorBlock]]:
        """(rows, block) of each parity sector, rows being its slice of the basis."""
        out, start = [], 0
        for block in self.blocks:
            out.append((slice(start, start + block.basis.dimension), block))
            start += block.basis.dimension
        return out

    def eigenvalues(self, which: str) -> np.ndarray:
        """Ascending spectrum of L1 or L2 on the store's basis; ParameterError
        for any other label."""
        return np.sort(np.concatenate([b.eigenvalues(which) for b in self.blocks]))

    def lcal_eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of Lcal = diag(L1, L2), and of S(0) = diag(L2, L1)."""
        parts = [b.l1_eigs for b in self.blocks] + [b.l2_eigs for b in self.blocks]
        return np.sort(np.concatenate(parts))

    def memo(self, key, build: Callable):
        """``build()`` on the first request for ``key``, kept with the store."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def restrict(self, sector: str) -> "HillOperators":
        """The store of ``sector``, "auto" resolved by the wave's parity: this
        one, or the sine ("odd") or cosine ("even") block of a full-space
        store, made once and sharing that block and its spectra."""
        sector = resolve_sector(self.wave, sector)
        if sector == self.sector:
            return self
        if self.sector != "full" or sector not in ("odd", "even"):
            raise ParameterError(
                f"operators on the {self.sector!r} sector cannot serve the {sector!r} sector"
            )
        return self.memo(("sector", sector), lambda: self._view(sector))

    def _view(self, sector: str) -> "HillOperators":
        kind = _SECTOR_KINDS[sector]
        _check_sector_basis(self.wave, kind)
        return HillOperators(self.wave, sector, (self.blocks[0 if kind == COSINE else 1],))


def hill_operators(wave: WaveProfile, sector: str = "auto") -> HillOperators:
    """The store of ``wave``, assembled on the basis of ``sector``, "auto"
    resolved by the wave's parity (:func:`resolve_sector`)."""
    sector = resolve_sector(wave, sector)
    basis = ParityBasis(_SECTOR_KINDS[sector], wave.phi.grid)
    if basis.kind == FULL:
        bases = _parity_bases(basis.grid)
        pairs = zip(bases, *(_sector_pair(wave, which, bases) for which in _LABELS))
    else:
        pairs = [(basis, *(_assemble(wave, which, basis) for which in _LABELS))]
    return HillOperators(wave, sector, tuple(SectorBlock(*parts) for parts in pairs))


def _whole_basis_pair(ops: HillOperators) -> tuple:
    """L1 and L2 of the store's wave on the store's whole basis, assembled
    on each call and not kept: a sector store's block, or the full-basis
    matrices whose diagonal blocks are a full store's blocks, bit for bit."""
    return tuple(_assemble(ops.wave, which, ops.basis) for which in _LABELS)


#: the largest kappa of a row, (max float)^(1/10): the probe residual that
#: certifies a reduced row has degree 5 in kappa and is squared, and every
#: other quantity of a row has lower degree, so none overflows up to here
KAPPA_LIMIT = float(np.finfo(float).max ** 0.1)


def _check_kappa(kappa: float) -> None:
    """ParameterError unless 0 <= kappa <= KAPPA_LIMIT, the one kappa check."""
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ParameterError(f"kappa must be nonnegative, got {kappa}")
    if kappa > KAPPA_LIMIT:
        raise ParameterError(
            f"kappa={kappa:g} is above {KAPPA_LIMIT:.6g} = (max float)^(1/10), "
            "where a row's quantities overflow"
        )


def build_block(ops: HillOperators, kind: str, kappa: float = 0.0) -> OperatorMatrix:
    """Block-diagonal diag(L1, L2) or diag(L2 + k^2, L1 + k^2) on the store's basis."""
    if kind not in ("Lcal", "S_kappa"):
        raise ParameterError(f"block kind must be 'Lcal' or 'S_kappa', got {kind!r}")
    if kind == "Lcal" and kappa != 0.0:
        raise ParameterError("Lcal takes no transverse wavenumber")
    _check_kappa(kappa)
    l1, l2 = _whole_basis_pair(ops)
    d = ops.basis.dimension
    entries = np.zeros((2 * d, 2 * d))
    if kind == "Lcal":
        entries[:d, :d] = l1
        entries[d:, d:] = l2
    else:
        shift = kappa**2 * np.eye(d)
        entries[:d, :d] = l2 + shift
        entries[d:, d:] = l1 + shift
    return OperatorMatrix(ops.basis, entries, label=kind, wave_id=ops.wave_id)


#: machine epsilon of float64, looked up once
_EPS = np.finfo(float).eps


def _rounding_floor(dimension: int, norm):
    """dimension * eps * norm: how far rounding may move a computed
    eigenvalue; elementwise for an array of norms."""
    return dimension * _EPS * norm


def _check_split(coupling: float, scale: float, dimension: int) -> None:
    """Raise NumericalConsistencyError for a cosine-sine ``coupling`` above
    the rounding floor of a full-basis operator of entry scale ``scale``."""
    floor = _rounding_floor(dimension, scale)
    if coupling > floor:
        raise NumericalConsistencyError(
            f"cosine-sine coupling {coupling:.3e} exceeds the rounding floor {floor:.3e}: "
            "the operator does not split into parity sectors"
        )


def _summarize(
    label: str,
    wave_id: str,
    eigenvalues: np.ndarray,
    zero_tolerance: Optional[float],
    lowest: Optional[tuple] = None,
) -> SpectrumSummary:
    """Negative/kernel counts of ascending ``eigenvalues`` at the zero tolerance.

    Counts are recomputed at half and twice the tolerance; disagreement sets
    the ``ambiguous`` flag instead of failing.
    """
    tol = _zero_tolerance(eigenvalues, zero_tolerance)
    negative, kernel = _counts(eigenvalues, tol)
    ambiguous = any(
        _counts(eigenvalues, t) != (negative, kernel) for t in (0.5 * tol, 2.0 * tol)
    )
    return SpectrumSummary(
        label=label,
        wave_id=wave_id,
        eigenvalues=eigenvalues,
        n_negative=negative,
        kernel_dimension=kernel,
        zero_tolerance=tol,
        ambiguous=ambiguous,
        lowest_eigenfunctions=lowest,
    )


def spectrum(
    ops: HillOperators,
    which: str,
    zero_tolerance: Optional[float] = None,
    n_eigenfunctions: int = 0,
) -> SpectrumSummary:
    """Ascending eigenvalues of L1, L2 or Lcal = diag(L1, L2) on the store's
    basis, with negative/kernel counts: the one place a count is made.

    The eigenvalues are the store's block spectra.  ``n_eigenfunctions``
    exports the grid fields of the lowest eigenvectors of L1 or L2: each
    sector block's ``eigh`` pairs, lifted to the store's basis.  Counts are
    recomputed at half and twice the tolerance; disagreement sets the
    ``ambiguous`` flag instead of failing.
    """
    if which not in (*_LABELS, "Lcal"):
        raise ParameterError(f"operator must be 'L1', 'L2' or 'Lcal', got {which!r}")
    d, count = ops.basis.dimension, n_eigenfunctions
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or not 0 <= count <= d:
        raise ParameterError(f"n_eigenfunctions must be an integer in [0, {d}], got {count!r}")
    if which == "Lcal" and count:
        raise ParameterError("eigenfunction export is only for the single-component L1 and L2")
    eigenvalues = ops.lcal_eigenvalues() if which == "Lcal" else ops.eigenvalues(which)
    lowest = None
    if count:
        # sector eigenpairs side by side: the vectors form a block-diagonal matrix
        values, vectors = np.empty(d), np.zeros((d, d))
        for rows, block in ops.sectors():
            matrix = block.l1 if which == "L1" else block.l2
            values[rows], vectors[rows, rows] = np.linalg.eigh(matrix)
        order = np.argsort(values, kind="stable")
        lowest = tuple(ops.basis.field(vectors[:, i]) for i in order[:count])
    return _summarize(which, ops.wave_id, eigenvalues, zero_tolerance, lowest)


def _one_simple_negative(lcal: SpectrumSummary) -> tuple[bool, float]:
    """Whether Lcal = S(0), summarized by ``lcal``, has exactly one negative
    eigenvalue and it is simple: its gap to the next one is at least 10 zero
    tolerances.  Returns that verdict and the gap (0 for a single
    eigenvalue); the propositions and hypothesis (H4) both gate on it."""
    eigs = lcal.eigenvalues
    gap = float(eigs[1] - eigs[0]) if len(eigs) > 1 else 0.0
    return lcal.n_negative == 1 and gap >= 10.0 * lcal.zero_tolerance, gap


# ---------------------------------------------------------------------------
# structural assertions about the linearized spectra


@dataclass(frozen=True)
class PropositionCheck:
    name: str
    passed: bool
    expected: str
    actual: str
    margin: Optional[float] = None


@dataclass(frozen=True)
class PropositionReport:
    """Outcome of the parity-specific spectral count assertions."""

    wave_id: str
    parity: str
    passed: bool
    checks: tuple[PropositionCheck, ...]
    notes: tuple[str, ...]


def _relative_kernel_residual(basis: ParityBasis, entries: np.ndarray, field: RealField) -> float:
    coeffs = basis.analyze(field.values)
    image = entries @ coeffs
    num = float(np.linalg.norm(image))
    den = float(np.linalg.norm(coeffs))
    if den == 0.0:
        return 0.0
    return num / den


def check_propositions(
    ops: HillOperators, zero_tolerance: Optional[float] = None
) -> PropositionReport:
    """Assert the expected negative/zero eigenvalue structure for the store's wave.

    Even positive profiles: n(L1,even)=1, n(L2,even)=0, n(Lcal)=1, z(Lcal)=2
    with kernel directions (phi',0) and (0,phi).  Odd profiles: full-space
    n(L1)=2; odd sector n(L1)=1, n(L2)=0, z=1 with kernel (0,phi), and the
    two lowest eigenvalues of L1 sit strictly below those of L2.

    A failing report flags the wave as outside the regime of these counts
    (for instance a constant state) rather than raising.  Every check reads
    the full-space operator store, whose cosine and sine blocks are the even
    and odd sectors, through :func:`spectrum`; a store on another sector
    raises ParameterError.
    """
    ops = ops.restrict("full")
    wave = ops.wave
    checks = []
    notes = []
    phi = wave.phi
    dphi = first_derivative(phi)
    constant_like = l2_norm(dphi) <= 1e-10 * max(l2_norm(phi), 1e-300)
    if constant_like:
        notes.append(
            "profile is numerically constant: the kernel/count template for "
            "non-constant waves need not apply"
        )

    def add(name, passed, expected, actual, margin=None):
        checks.append(
            PropositionCheck(
                name=name,
                passed=bool(passed),
                expected=str(expected),
                actual=str(actual),
                margin=margin,
            )
        )

    cosine, sine = ops.blocks
    even, odd = ops.restrict("even"), ops.restrict("odd")
    l1_even, l2_even = (spectrum(even, which, zero_tolerance) for which in _LABELS)
    l1_odd, l2_odd = (spectrum(odd, which, zero_tolerance) for which in _LABELS)

    if wave.params.parity == EVEN:
        lcal = spectrum(ops, "Lcal", zero_tolerance)
        tol = lcal.zero_tolerance
        n_l1 = l1_even.n_negative + l1_odd.n_negative
        n_l2 = l2_even.n_negative + l2_odd.n_negative
        add("n(L1,even)", l1_even.n_negative == 1, 1, l1_even.n_negative)
        add("n(L2,even)", l2_even.n_negative == 0, 0, l2_even.n_negative)
        add("n(Lcal)", lcal.n_negative == 1, 1, lcal.n_negative)
        add("z(Lcal)", lcal.kernel_dimension == 2, 2, lcal.kernel_dimension)
        simple, gap = _one_simple_negative(lcal)
        add(
            "negative eigenvalue simple",
            simple,
            f">= {10.0 * tol:.3e}",
            f"{gap:.3e}",
            margin=gap,
        )
        res_dphi = 0.0 if constant_like else _relative_kernel_residual(sine.basis, sine.l1, dphi)
        res_phi = _relative_kernel_residual(cosine.basis, cosine.l2, phi)
        add("kernel residual (phi',0)", res_dphi <= 1e-7, "<= 1e-07", f"{res_dphi:.3e}", res_dphi)
        add("kernel residual (0,phi)", res_phi <= 1e-7, "<= 1e-07", f"{res_phi:.3e}", res_phi)
        if constant_like:
            add("profile non-constant", False, "non-constant", "constant")
        add("n(L1) full space", n_l1 == 1, 1, n_l1)
        add("n(L2) full space", n_l2 == 0, 0, n_l2)
    else:
        lcal_odd = spectrum(odd, "Lcal", zero_tolerance)
        tol = lcal_odd.zero_tolerance
        n_l1_full = l1_even.n_negative + l1_odd.n_negative
        add("n(L1) full space", n_l1_full == 2, 2, n_l1_full)
        add("n(L1,odd)", l1_odd.n_negative == 1, 1, l1_odd.n_negative)
        add("n(L2,odd)", l2_odd.n_negative == 0, 0, l2_odd.n_negative)
        add("z(Lcal,odd)", lcal_odd.kernel_dimension == 1, 1, lcal_odd.kernel_dimension)
        res_phi = _relative_kernel_residual(sine.basis, sine.l2, phi)
        add("kernel residual (0,phi)", res_phi <= 1e-7, "<= 1e-07", f"{res_phi:.3e}", res_phi)
        e1, e2 = l1_odd.eigenvalues, l2_odd.eigenvalues
        gap0 = float(e2[0] - e1[0])
        gap1 = float(e2[1] - e1[1])
        add(
            "lambda0(L1,odd) < lambda0(L2,odd)",
            gap0 >= 10.0 * tol,
            f">= {10.0 * tol:.3e}",
            f"{gap0:.3e}",
            gap0,
        )
        add(
            "lambda1(L1,odd) < lambda1(L2,odd)",
            gap1 >= 10.0 * tol,
            f">= {10.0 * tol:.3e}",
            f"{gap1:.3e}",
            gap1,
        )

    for summary in (l1_even, l1_odd, l2_even, l2_odd):
        if summary.ambiguous:
            notes.append(
                f"counts for {summary.label} are tolerance-sensitive (ambiguous flag)"
            )

    return PropositionReport(
        wave_id=wave.wave_id,
        parity=wave.params.parity,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
        notes=tuple(notes),
    )
