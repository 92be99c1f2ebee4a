"""Hill operators of the linearization around a standing wave.

For an accepted profile phi the two scalar operators

    L1 = -d_xx + w - (a+1)|phi|^a        (acts on the real perturbation)
    L2 = -d_xx + w - |phi|^a             (acts on the imaginary perturbation)

are assembled as dense symmetric matrices on a parity basis (the potential
|phi|^a is even for both parity classes, so cosine and sine blocks decouple),
together with the block-diagonal compositions

    Lcal       = diag(L1, L2)
    S_kappa    = diag(L2 + kappa^2, L1 + kappa^2).

A block-diagonal composition has the union of its blocks' spectra, so its
eigenvalues come from one d x d solve per block (:func:`block_eigenvalues`).
Counting negative/zero eigenvalues of these matrices is what the spectral
assertions in :func:`check_propositions` are made of.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import BasisError, ParameterError
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
)
from .waves import WaveProfile

#: labels of the two scalar Hill operators
_LABELS = ("L1", "L2")

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense symmetric matrix of an operator on a parity basis."""

    basis: ParityBasis
    entries: np.ndarray
    label: str
    wave_id: str
    kappa: Optional[float] = None

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
    either count; ``lowest_eigenfunctions`` optionally stores coefficient
    columns for the smallest eigenvalues.
    """

    label: str
    wave_id: str
    eigenvalues: np.ndarray
    n_negative: int
    kernel_dimension: int
    zero_tolerance: float
    ambiguous: bool
    lowest_eigenfunctions: Optional[np.ndarray] = None


def default_zero_tolerance(eigenvalues: np.ndarray) -> float:
    """1e-6 * (1 + |largest eigenvalue|): scales with the discretization."""
    return 1e-6 * (1.0 + float(np.max(np.abs(eigenvalues))))


def _counts(eigenvalues: np.ndarray, tol: float) -> tuple[int, int]:
    negative = int(np.sum(eigenvalues < -tol))
    kernel = int(np.sum(np.abs(eigenvalues) <= tol))
    return negative, kernel


def build_hill(wave: WaveProfile, which: str, basis: ParityBasis) -> OperatorMatrix:
    """Assemble L1 or L2 for ``wave`` on ``basis`` (see :func:`hill_matrix`)."""
    if which not in _LABELS:
        raise ParameterError(f"operator must be 'L1' or 'L2', got {which!r}")
    if basis.grid != wave.phi.grid:
        raise ParameterError("basis and wave live on different grids")
    if basis.kind in (COSINE, SINE) and wave.phi.parity not in (EVEN, ODD):
        raise BasisError(
            "parity-restricted bases need an even potential |phi|^a, i.e. an "
            "even or odd profile; got parity 'none'"
        )
    alpha, omega = wave.params.alpha, wave.params.omega
    strength = alpha + 1.0 if which == "L1" else 1.0
    q = strength * np.abs(wave.phi.values) ** alpha
    entries = hill_matrix(basis, omega, q)
    return OperatorMatrix(basis=basis, entries=entries, label=which, wave_id=wave.wave_id)


def _component_basis(wave: WaveProfile, sector: str) -> ParityBasis:
    if sector == "full":
        return ParityBasis(FULL, wave.phi.grid)
    if sector == "odd":
        return ParityBasis(SINE, wave.phi.grid)
    if sector == "even":
        return ParityBasis(COSINE, wave.phi.grid)
    raise ParameterError(f"unknown sector {sector!r}")


def hill_pair(wave: WaveProfile, sector: str = "full") -> tuple[OperatorMatrix, OperatorMatrix]:
    """L1 and L2 of ``wave`` on the basis of ``sector``, one assembly each."""
    basis = _component_basis(wave, sector)
    return build_hill(wave, "L1", basis), build_hill(wave, "L2", basis)


def build_block(
    wave: WaveProfile, kind: str, kappa: float = 0.0, sector: str = "full"
) -> OperatorMatrix:
    """Block-diagonal operator diag(L1, L2) or diag(L2 + k^2, L1 + k^2)."""
    if kind not in ("Lcal", "S_kappa"):
        raise ParameterError(f"block kind must be 'Lcal' or 'S_kappa', got {kind!r}")
    if kind == "Lcal" and kappa != 0.0:
        raise ParameterError("Lcal takes no transverse wavenumber")
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ParameterError(f"kappa must be nonnegative, got {kappa}")
    return _compose(kind, *hill_pair(wave, sector), kappa)


def _compose(
    kind: str, l1: OperatorMatrix, l2: OperatorMatrix, kappa: float = 0.0
) -> OperatorMatrix:
    """diag(L1, L2) or diag(L2 + k^2, L1 + k^2) from assembled L1 and L2."""
    d = l1.dimension
    entries = np.zeros((2 * d, 2 * d))
    if kind == "Lcal":
        entries[:d, :d] = l1.entries
        entries[d:, d:] = l2.entries
    else:
        shift = kappa**2 * np.eye(d)
        entries[:d, :d] = l2.entries + shift
        entries[d:, d:] = l1.entries + shift
    kappa = None if kind == "Lcal" else kappa
    return OperatorMatrix(l1.basis, entries, label=kind, wave_id=l1.wave_id, kappa=kappa)


def block_eigenvalues(*blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the block-diagonal matrix diag(*blocks).

    Each symmetric block is diagonalized on its own and the spectra are
    merged, so Lcal = diag(L1, L2) and S(0) = diag(L2, L1) cost two d x d
    solves instead of one 2d x 2d solve.
    """
    return np.sort(
        np.concatenate([scipy.linalg.eigh(b, eigvals_only=True) for b in blocks])
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
    tol = zero_tolerance if zero_tolerance is not None else default_zero_tolerance(eigenvalues)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"zero tolerance must be positive, got {tol}")
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
    operator: OperatorMatrix,
    zero_tolerance: Optional[float] = None,
    n_eigenfunctions: int = 0,
) -> SpectrumSummary:
    """Eigenvalues (ascending) with negative/kernel counts.

    A composed block operator (twice the basis dimension, as built by
    :func:`build_block`) is diagonalized one diagonal block at a time by
    :func:`block_eigenvalues`.  Counts are recomputed at half and twice the
    tolerance; disagreement sets the ``ambiguous`` flag instead of failing.
    """
    if not 0 <= n_eigenfunctions <= operator.dimension:
        raise ParameterError(
            f"n_eigenfunctions must lie in [0, {operator.dimension}], got {n_eigenfunctions}"
        )
    d = operator.basis.dimension
    if n_eigenfunctions and operator.dimension != d:
        raise ParameterError(
            "eigenfunction export is only available for single-component "
            "operators (block eigenvectors are stacked pairs)"
        )
    lowest = None
    if operator.dimension == 2 * d:
        entries = operator.entries
        if entries[:d, d:].any():
            raise ParameterError(f"block operator {operator.label} couples its two components")
        eigenvalues = block_eigenvalues(entries[:d, :d], entries[d:, d:])
    elif n_eigenfunctions:
        eigenvalues, vectors = scipy.linalg.eigh(operator.entries)
        lowest = tuple(
            operator.basis.field(vectors[:, i]) for i in range(n_eigenfunctions)
        )
    else:
        eigenvalues = scipy.linalg.eigh(operator.entries, eigvals_only=True)
    return _summarize(operator.label, operator.wave_id, eigenvalues, zero_tolerance, lowest)


def shifted_block_spectra(
    wave: WaveProfile, kappas: Sequence[float], sector: str = "full"
) -> dict:
    """Eigenvalue lists of S(kappa) for every requested kappa.

    S(kappa) = S(0) + kappa^2 * I holds exactly at the matrix level, so a
    single diagonalization of S(0) gives the eigenvalues of the whole family
    by adding the scalar shift.  This is both cheaper than one dense solve
    per kappa and free of the ~1e-11 jitter that two independent
    diagonalizations of matrices with norm ~1e3 would introduce between
    the lists.

    Returns ``{kappa: ascending eigenvalue array}``.
    """
    base = build_block(wave, "S_kappa", kappa=0.0, sector=sector)
    eigenvalues = scipy.linalg.eigh(base.entries, eigvals_only=True)
    out = {}
    for kappa in kappas:
        if not (np.isfinite(kappa) and kappa >= 0.0):
            raise ParameterError(f"kappa must be nonnegative, got {kappa}")
        out[float(kappa)] = eigenvalues + float(kappa) ** 2
    return out


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
    checks: tuple
    notes: tuple


def _relative_kernel_residual(op: OperatorMatrix, field: RealField) -> float:
    coeffs = op.basis.analyze(field.values)
    image = op.entries @ coeffs
    num = float(np.linalg.norm(image))
    den = float(np.linalg.norm(coeffs))
    if den == 0.0:
        return 0.0
    return num / den


def check_propositions(
    wave: WaveProfile, zero_tolerance: Optional[float] = None
) -> PropositionReport:
    """Assert the expected negative/zero eigenvalue structure for ``wave``.

    Even positive profiles: n(L1,even)=1, n(L2,even)=0, n(Lcal)=1, z(Lcal)=2
    with kernel directions (phi',0) and (0,phi).  Odd profiles: full-space
    n(L1)=2; odd sector n(L1)=1, n(L2)=0, z=1 with kernel (0,phi), and the
    two lowest eigenvalues of L1 sit strictly below those of L2.

    A failing report flags the wave as outside the regime of these counts
    (for instance a constant state) rather than raising.
    """
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

    # one assembly of L1 and L2 per parity basis, shared by every check below
    cos_basis = ParityBasis(COSINE, phi.grid)
    sin_basis = ParityBasis(SINE, phi.grid)
    ops_even = [build_hill(wave, which, cos_basis) for which in _LABELS]
    ops_odd = [build_hill(wave, which, sin_basis) for which in _LABELS]
    l1_even, l2_even = (spectrum(op, zero_tolerance) for op in ops_even)
    l1_odd, l2_odd = (spectrum(op, zero_tolerance) for op in ops_odd)

    def lcal_spectrum(*parts):
        # Lcal = diag(L1, L2) has the union of its blocks' spectra, and the
        # even potential splits the full space into the cosine and sine sectors
        eigenvalues = np.sort(np.concatenate([p.eigenvalues for p in parts]))
        return _summarize("Lcal", wave.wave_id, eigenvalues, zero_tolerance)

    if wave.params.parity == EVEN:
        lcal = lcal_spectrum(l1_even, l1_odd, l2_even, l2_odd)
        tol = lcal.zero_tolerance
        n_l1 = l1_even.n_negative + l1_odd.n_negative
        n_l2 = l2_even.n_negative + l2_odd.n_negative
        add("n(L1,even)", l1_even.n_negative == 1, 1, l1_even.n_negative)
        add("n(L2,even)", l2_even.n_negative == 0, 0, l2_even.n_negative)
        add("n(Lcal)", lcal.n_negative == 1, 1, lcal.n_negative)
        add("z(Lcal)", lcal.kernel_dimension == 2, 2, lcal.kernel_dimension)
        sorted_eigs = np.sort(lcal.eigenvalues)
        gap = float(sorted_eigs[1] - sorted_eigs[0]) if len(sorted_eigs) > 1 else 0.0
        add(
            "negative eigenvalue simple",
            lcal.n_negative == 1 and gap >= 10.0 * tol,
            f">= {10.0 * tol:.3e}",
            f"{gap:.3e}",
            margin=gap,
        )
        res_dphi = _relative_kernel_residual(ops_odd[0], dphi) if not constant_like else 0.0
        res_phi = _relative_kernel_residual(ops_even[1], phi)
        add("kernel residual (phi',0)", res_dphi <= 1e-7, "<= 1e-07", f"{res_dphi:.3e}", res_dphi)
        add("kernel residual (0,phi)", res_phi <= 1e-7, "<= 1e-07", f"{res_phi:.3e}", res_phi)
        if constant_like:
            add("profile non-constant", False, "non-constant", "constant")
        add("n(L1) full space", n_l1 == 1, 1, n_l1)
        add("n(L2) full space", n_l2 == 0, 0, n_l2)
    else:
        lcal_odd = lcal_spectrum(l1_odd, l2_odd)
        tol = lcal_odd.zero_tolerance
        n_l1_full = l1_even.n_negative + l1_odd.n_negative
        add("n(L1) full space", n_l1_full == 2, 2, n_l1_full)
        add("n(L1,odd)", l1_odd.n_negative == 1, 1, l1_odd.n_negative)
        add("n(L2,odd)", l2_odd.n_negative == 0, 0, l2_odd.n_negative)
        add("z(Lcal,odd)", lcal_odd.kernel_dimension == 1, 1, lcal_odd.kernel_dimension)
        res_phi = _relative_kernel_residual(ops_odd[1], phi)
        add("kernel residual (0,phi)", res_phi <= 1e-7, "<= 1e-07", f"{res_phi:.3e}", res_phi)
        e1, e2 = np.sort(l1_odd.eigenvalues), np.sort(l2_odd.eigenvalues)
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
