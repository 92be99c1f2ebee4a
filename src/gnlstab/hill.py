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

Those counts, the propositions' and hypotheses' low eigenvalues, lambda0 of
:func:`scan.transverse_threshold` and the grid-doubling certificate read
only the bottom of a spectrum and its largest eigenvalue, which the default
zero tolerance scales with.  Past the potential's bandwidth the kinetic
symbol xi^2 dominates a Hill block, so a block's certified low window
(:func:`low_window`) proves them from the Ritz pairs of its leading and
trailing Fourier blocks, of at most a quarter of its order: Cauchy
interlacing, Haynsworth's inertia formula with a Gershgorin bound of the
rest, and Kato-Temple bounds on each value, held to the rounding floor
d eps max|lambda|.  Where those bounds do not reach the floor, the window
is the block's whole ``eigvalsh`` spectrum.  Only the L1/L2 export and the
kappa-scan's rows read the whole spectra.

:class:`HillOperators` is the one store of L1 and L2 per wave: the wave,
its sector and the sector blocks, assembled once, straight on each parity
sector's basis, as read-only blocks, and diagonalized (whole, or by their
low windows) on first use.  A
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
from functools import cached_property, partial
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
    _rounding_floor,
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


@dataclass(frozen=True)
class LowWindow:
    """The low end of a symmetric spectrum: exactly the ascending ``values``
    lie below ``cut`` (inf where they are the whole spectrum), and ``top`` is
    the largest eigenvalue."""

    values: np.ndarray
    top: float
    cut: float

    @property
    def extremes(self) -> np.ndarray:
        """The lowest and the largest eigenvalue, which hold max |lambda|."""
        return np.array([self.values[0], self.top])


def _ladder(dimension: int) -> list:
    """Orders of the leading (or trailing) block tried in turn: 16, 32, 64,
    ... below d/4, then d/4 itself; none for a block of order below 64."""
    cap, sizes = dimension // 4, []
    while cap >= 16 and (not sizes or sizes[-1] < cap):
        sizes.append(min(16 << len(sizes), cap))
    return sizes


def _ritz_end(a: np.ndarray, rows: np.ndarray, size: int, count: int, sign: float) -> tuple:
    """The ``count`` lowest eigenvalues of ``sign * a`` from its leading
    ``size`` x ``size`` block, ``rows`` being the row sums of |a|: returns
    their Ritz values theta_1..theta_count (ascending), a bound on how far
    each may lie above its eigenvalue (inf where none is proven), and the
    cut below which exactly those eigenvalues lie.

    With ``a = [[A11, A12], [A21, A22]]``, g a Gershgorin lower bound of A22
    and e = ||A12||_F: for sigma < g, Haynsworth's inertia formula counts
    the eigenvalues below sigma as those of the Schur complement A11 - sigma
    - A12 (A22 - sigma)^-1 A21, which lie within e^2/(g - sigma) below those
    of A11 - sigma.  So each lambda_i lies in [theta_i - e^2/(g - theta_i),
    theta_i] (Cauchy interlacing gives the top end), and where these bands
    are ordered each holds exactly one eigenvalue.  Kato-Temple then bounds
    lambda_i below by theta_i - r_i^2 / (lower_{i+1} - theta_i), r_i =
    ||A21 y_i|| the residual of the Ritz pair (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, chapters 10-11).  Rounding of the
    computed pairs and sums is not bounded here: it is the rounding floor
    the bounds are held to."""
    theta, y = np.linalg.eigh(sign * a[:size, :size])
    coupling = a[size:, :size]
    diagonal = sign * np.diagonal(a)[size:]
    off = rows[size:] - np.abs(diagonal) - np.abs(coupling).sum(axis=1)
    gershgorin = float(np.min(diagonal - off))
    theta = theta[: count + 1]
    if theta[-1] >= gershgorin:
        return theta[:-1], np.inf, -np.inf
    lower = theta - np.vdot(coupling, coupling) / (gershgorin - theta)
    if np.any(lower[1:] <= theta[:-1]):
        return theta[:-1], np.inf, -np.inf
    residual = np.linalg.norm(coupling @ y[:, :count], axis=0)
    bound = float(np.max(residual**2 / (lower[1:] - theta[:-1])))
    return theta[:-1], bound, float(lower[-1])


def _whole(values: np.ndarray) -> LowWindow:
    """A whole ascending spectrum as a window: no cut."""
    return LowWindow(values, float(values[-1]), np.inf)


def low_window(a: np.ndarray, whole: Callable[[], np.ndarray]) -> LowWindow:
    """The low end of the spectrum of the symmetric ``a`` from its leading
    and trailing Fourier blocks, or of ``whole()``, its ascending spectrum.

    Past the potential's bandwidth the kinetic symbol xi^2 dominates a Hill
    block, so its low eigenvalues live on the leading modes and its largest
    on the trailing ones.  The leading block of order M proves the lowest
    M/2 eigenvalues and a cut above them, the trailing block of order Mt the
    largest eigenvalue, with the same bounds mirrored (:func:`_ritz_end`).
    M and Mt are each the first order of :func:`_ladder` whose every bound
    is within the rounding floor d eps max|lambda|; where the ladder ends
    first, the window is the whole spectrum."""
    d = a.shape[0]
    rows = np.abs(a).sum(axis=1)
    low = high = None
    floor = -np.inf
    for size in _ladder(d):
        # (values, bound, cut) of each end; an end its bound refutes takes the next order
        if low is None or low[1] > floor:
            low = _ritz_end(a, rows, size, size // 2, 1.0)
        if high is None or high[1] > floor:
            high = _ritz_end(a[::-1, ::-1], rows[::-1], size, 1, -1.0)
        floor = _rounding_floor(d, max(abs(low[0][0]), abs(high[0][0])))
        if low[1] <= floor and high[1] <= floor:
            return LowWindow(low[0], float(-high[0][0]), low[2])
    return _whole(whole())


def _union(windows: list) -> LowWindow:
    """The low end of the union of the spectra of ``windows``: their values
    below the lowest cut."""
    cut = min(w.cut for w in windows)
    values = np.sort(np.concatenate([w.values for w in windows]))
    return LowWindow(values[values < cut], max(w.top for w in windows), cut)


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """L1 and L2 on one parity sector's basis, read-only.  Their ascending
    ``eigvalsh`` spectra and their certified low windows
    (:func:`low_window`) are each computed on first use and kept."""

    basis: ParityBasis
    l1: np.ndarray
    l2: np.ndarray

    @cached_property
    def l1_eigs(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.l1)

    @cached_property
    def l2_eigs(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.l2)

    @cached_property
    def l1_window(self) -> LowWindow:
        return low_window(self.l1, lambda: self.l1_eigs)

    @cached_property
    def l2_window(self) -> LowWindow:
        return low_window(self.l2, lambda: self.l2_eigs)

    def eigenvalues(self, which: str) -> np.ndarray:
        """The spectrum of L1 or L2; ParameterError for any other label."""
        _check_label(which)
        return self.l1_eigs if which == "L1" else self.l2_eigs

    def window(self, which: str) -> LowWindow:
        """The low window of L1 or L2; ParameterError for any other label."""
        _check_label(which)
        return self.l1_window if which == "L1" else self.l2_window


@dataclass(frozen=True, eq=False)
class HillOperators:
    """L1 and L2 of one wave on one sector's basis, assembled once.

    A store is its wave, its sector and ``blocks``: each parity sector of
    the sector's basis once, cosine first (a sector basis is one block), L1
    and L2 on that sector's basis, read-only, with their spectra and low
    windows on first use.  A sector view of a full-space store holds its
    block.  Everything derives from the blocks: the spectrum of L1 or L2 is
    the union of its blocks' spectra, and so is that of Lcal = diag(L1, L2),
    which S(0) = diag(L2, L1) shares (:meth:`low_spectrum` reads either,
    whole or by the low windows).  The matrices on the whole basis are not kept:
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

    def low_spectrum(
        self, which: str, level: float = -np.inf, count: Optional[int] = 1
    ) -> LowWindow:
        """The low end of the ascending spectrum of L1, L2 or Lcal = diag(L1,
        L2) (and S(0) = diag(L2, L1)) on the store's basis, proving at least
        ``count`` eigenvalues and every one below ``level``: the union of the
        blocks' low windows, or, where that union proves less or ``count``
        is None, of their whole spectra; ParameterError for another label."""
        labels = _LABELS if which == "Lcal" else (which,)
        if count is not None:
            window = _union([b.window(w) for w in labels for b in self.blocks])
            if window.cut > level and window.values.size >= count:
                return window
        return _union([_whole(b.eigenvalues(w)) for w in labels for b in self.blocks])

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
    known: Callable[[float], LowWindow],
    zero_tolerance: Optional[float],
    fields: Optional[tuple] = None,
) -> SpectrumSummary:
    """Negative/kernel counts at the zero tolerance of the low end of a
    spectrum, ``known(level)`` being a window that holds every eigenvalue
    below ``level``: the default tolerance reads the extremes of
    ``known(-inf)``, the counts every eigenvalue up to twice the tolerance.

    Counts are recomputed at half and twice the tolerance; disagreement sets
    the ``ambiguous`` flag instead of failing.
    """
    tol = _zero_tolerance(known(-np.inf).extremes, zero_tolerance)
    eigenvalues = known(2.0 * tol).values
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
        lowest_eigenfunctions=fields,
    )


def _check_count(name: str, count, low: int, high: int) -> None:
    """ParameterError unless ``count`` is a (non-bool) integer in [low, high]."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or not low <= count <= high:
        raise ParameterError(f"{name} must be an integer in [{low}, {high}], got {count!r}")


def spectrum(
    ops: HillOperators,
    which: str,
    zero_tolerance: Optional[float] = None,
    n_eigenfunctions: int = 0,
    lowest: Optional[int] = None,
) -> SpectrumSummary:
    """Ascending eigenvalues of L1, L2 or Lcal = diag(L1, L2) on the store's
    basis, with negative/kernel counts: the one place a count is made.

    The eigenvalues are the store's block spectra, every one of them, or,
    given ``lowest``, only the low end that the blocks' certified windows
    prove (:meth:`HillOperators.low_spectrum`): at least ``lowest`` of them
    and every one up to twice the zero tolerance, which is all the counts
    read.  ``n_eigenfunctions`` exports the grid fields of the lowest
    eigenvectors of L1 or L2: each sector block's ``eigh`` pairs, lifted to
    the store's basis.  Counts are recomputed at half and twice the
    tolerance; disagreement sets the ``ambiguous`` flag instead of failing.
    """
    if which not in (*_LABELS, "Lcal"):
        raise ParameterError(f"operator must be 'L1', 'L2' or 'Lcal', got {which!r}")
    d, count = ops.basis.dimension, n_eigenfunctions
    _check_count("n_eigenfunctions", count, 0, d)
    if which == "Lcal" and count:
        raise ParameterError("eigenfunction export is only for the single-component L1 and L2")
    if lowest is not None:
        _check_count("lowest", lowest, 1, 2 * d if which == "Lcal" else d)
    fields = None
    if count:
        # sector eigenpairs side by side: the vectors form a block-diagonal matrix
        values, vectors = np.empty(d), np.zeros((d, d))
        for rows, block in ops.sectors():
            matrix = block.l1 if which == "L1" else block.l2
            values[rows], vectors[rows, rows] = np.linalg.eigh(matrix)
        order = np.argsort(values, kind="stable")
        fields = tuple(ops.basis.field(vectors[:, i]) for i in order[:count])
    known = partial(ops.low_spectrum, which, count=lowest)
    return _summarize(which, ops.wave_id, known, zero_tolerance, fields)


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
    # the counts and the two lowest eigenvalues are all each check reads
    l1_even, l2_even = (spectrum(even, which, zero_tolerance, lowest=2) for which in _LABELS)
    l1_odd, l2_odd = (spectrum(odd, which, zero_tolerance, lowest=2) for which in _LABELS)

    if wave.params.parity == EVEN:
        lcal = spectrum(ops, "Lcal", zero_tolerance, lowest=2)
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
        lcal_odd = spectrum(odd, "Lcal", zero_tolerance, lowest=2)
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
