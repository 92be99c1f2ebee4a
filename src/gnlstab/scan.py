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

Every function here accepts the wave's operator store
(:class:`hill.HillOperators`) in place of the wave, and builds one from a
wave: L1 and L2, their sector blocks and the blocks' L1 spectra come from
it.  The reductions (L2 = Q D Q^T per sector) are kept with the store, so a
scan, its hypotheses and the time integrator's row at one kappa share one
assembly and one diagonalization.

:func:`scan_kappa` solves its grid in batches of rows, one stack per sector
and batch: the M(kappa) of every row of a batch where L2 + kappa^2 is
semidefinite are built in place in one (rows, d, d) stack of at most
BATCH_BYTES and go through one ``eigvalsh``, so the scan's memory does not
grow with its grid; every check below runs as array operations over the
rows.  The scan checks each sector's count of mu < 0 against its L1
spectrum and reads band edges off the lowest L1 eigenvalue.  Rows where
L2 + kappa^2 is indefinite beyond the rounding floor of its diagonalization
(an odd wave in the full space at small kappa), or where a computed mu lies
within the rounding floor of M of zero (next to kappa = 0 and at band
edges), in any sector, go through :func:`_dense_row`, one dense ``eig`` per
sector, which :func:`instability_eigs` also runs for single-kappa calls;
only an edge above an indefinite row is bisected.  Every stacked LAPACK and
BLAS call solves each matrix as a call on it alone would, so a row's result
does not depend on the batch it was solved in.

The reduced rows compute eigenvectors y only for their growth pairs, the
mu < 0 they report, by inverse iteration on M(kappa) - mu from the computed
mu, one batched ``solve`` over every pair of every row (a Rayleigh-Ritz step
over a row's pairs where a sector has more than one).  Each pair is
certified by the residual of its lift v1 = Q (s * y) on the unreduced
product P(kappa) = (L2 + kappa^2)(L1 + kappa^2), to CROSSCHECK_RTOL relative
to |mu| or four rounding floors, and each written growth mode on its
sector's block.  The rest of the spectrum is checked without vectors against
P: sum mu = tr P and sum mu^2 = tr P^2, from five traces of L1 and L2 taken
once per sector, each to 4 d eps times its own scale, so an error in one
unreported mu shows only above about 4 d eps sum |mu|; and
P Q (s * z) = Q (s * (M z)) on one fixed unit vector z with no zero
component, which sees a wrong Q, scaling or shift of M.  The same z starts
inverse iteration, so the certified path draws no random numbers.  A
reduced row's set is closed under negation and conjugation by construction.
Every dense solve, a bisection step included, checks lambda^2 on each
sector's ten largest |lambda| against that sector's unsymmetric product; a
dense grid row also measures the quadruple symmetry of the merged set.

Both solvers return a :class:`RowSolution`, the one row type: the whole
merged spectrum, the leading growth mode's coefficients and the solver path.
A scan keeps only what a row reports, its :class:`KappaRecord` (kappa, the
growth rate, the count and values of the unstable eigenvalues, the leading
one, the symmetry defect and the path), and synthesizes the grid fields
(v1, v2) of the most unstable row's mode once.  :func:`growth_row` hands the
time integrator the scan's own row at one kappa, as a batch of one.
The module also verifies the hypotheses (H0)-(H4) for S(kappa) =
diag(L2 + kappa^2, L1 + kappa^2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import NumericalConsistencyError, ParameterError
from .hill import (
    SYMMETRY_RTOL,
    HillOperators,
    SectorBlock,
    _check_kappa,
    _rounding_floor,
    _whole_basis_pair,
    _zero_tolerance,
    hill_operators,
)

# kept importable here: perfbench/tracer.py wraps scan.build_block by name
from .hill import build_block  # noqa: F401
from .spectral import ParityBasis, RealField
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

#: bytes of one stacked batch of M(kappa): :func:`scan_kappa` solves its grid
#: in batches of at most this many bytes of (rows, d, d) stack per sector (at
#: least one row), so its memory does not grow with the grid
BATCH_BYTES = 4 * 2**20

#: (sqrt(5) - 1) / 2: frac(k g), k = 1, 2, ..., is equidistributed in [0, 1)
#: and never repeats
_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


def _fixed_vector(d: int) -> np.ndarray:
    """A unit vector that depends on d alone and has no zero component:
    1 + frac(k g), k = 1..d, normalized."""
    z = 1.0 + (np.arange(1, d + 1) * _GOLDEN) % 1.0
    return z / np.linalg.norm(z)


def _growth_block(l2: np.ndarray, l1: np.ndarray, kappa: float) -> np.ndarray:
    """[[0, L2+k^2], [-(L1+k^2), 0]] from L2 and L1 on one basis."""
    _check_kappa(kappa)
    d = l2.shape[0]
    shift = kappa**2 * np.eye(d)
    block = np.zeros((2 * d, 2 * d))
    block[:d, d:] = l2 + shift
    block[d:, :d] = -(l1 + shift)
    return block


def _diagonals(stack: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of each matrix of a C-ordered (rows, d, d) stack."""
    rows, d = stack.shape[0], stack.shape[-1]
    return stack.reshape(rows, d * d)[:, :: d + 1]


def _shifted(matrix: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """matrix + shift * I for each of ``shifts``, built in place in one
    (shifts, d, d) stack."""
    out = np.empty((shifts.size,) + matrix.shape)
    out[:] = matrix
    diagonal = _diagonals(out)
    diagonal += shifts[:, None]
    return out


def _squares(kappa) -> np.ndarray:
    """kappa**2 of each kappa, squared as a Python float (C pow) like every
    other kappa**2 of the package: pow may round differently from the
    product x * x with which numpy squares an array, and the stored documents
    hold rows squared by pow."""
    return np.array([float(k) ** 2 for k in kappa])


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of x and y along the last axis, per row: each is the
    BLAS dot of one pair of rows, bit for bit that of ``x[i] @ y[i]`` on the
    same strides."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _inverse_iteration(shifted: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Unit vectors, as rows, from two steps of inverse iteration with each
    matrix M - shift of the stack ``shifted`` from its row of ``start``.

    A shift within a few eps ||M|| of an eigenvalue of the symmetric M damps
    every other component by about eps ||M|| / gap per step (Parlett, The
    Symmetric Eigenvalue Problem, SIAM 1998, chapter 4).
    """
    y = start
    for _ in range(2):
        y = np.linalg.solve(shifted, y[..., None])[..., 0]
        y /= np.sqrt(_dots(y, y))[..., None]
    return y


def _rayleigh_ritz(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Ritz vectors of each symmetric matrix of the stack m on the span
    of the columns of its y, a (rows, d, k) stack: they separate eigenvalues
    too close for the shifts of inverse iteration alone (Parlett, chapter
    11)."""
    q = np.linalg.qr(y)[0]
    return q @ np.linalg.eigh(q.transpose(0, 2, 1) @ m @ q)[1]


def _unit_rows(w: np.ndarray) -> np.ndarray:
    return w / np.sqrt(_dots(w, w))[:, None]


def _lift(rows: slice, d: int, pair: np.ndarray) -> np.ndarray:
    """Stacked (v1, v2) coefficients of one sector, along the last axis, as
    full-basis [v1 | v2]."""
    m = rows.stop - rows.start
    out = np.zeros(pair.shape[:-1] + (2 * d,), dtype=pair.dtype)
    out[..., rows] = pair[..., :m]
    out[..., d + rows.start : d + rows.stop] = pair[..., m:]
    return out


def evolution_block(
    wave: Union[WaveProfile, HillOperators], kappa: float, sector: str = "full"
):
    """Dense block matrix [[0, L2+k^2], [-(L1+k^2), 0]] and its basis."""
    ops = hill_operators(wave, sector)
    l1, l2 = _whole_basis_pair(ops)
    return _growth_block(l2, l1, kappa), ops.basis


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


@dataclass(frozen=True)
class KappaRecord:
    """Scan row: what the block problem at one kappa reports.

    A version-1 document wrote each row's whole spectrum and leading mode
    fields instead of ``unstable_eigenvalues`` and ``path``; it loads with
    both None.
    """

    kappa: float
    max_real_part: float
    num_unstable: int
    leading_lambda: Optional[complex]
    #: the eigenvalues with real part above UNSTABLE_THRESHOLD, ascending
    unstable_eigenvalues: Optional[tuple[complex, ...]]
    symmetry_defect: float
    #: the solver that produced the row, "reduced" or "dense"
    path: Optional[str]


@dataclass(frozen=True)
class RowSolution:
    """The row solver's result at one kappa: the whole merged spectrum and
    the leading growth mode's coefficients, of which a scan keeps only
    :meth:`record`."""

    basis: ParityBasis
    kappa: float
    eigenvalues: np.ndarray
    max_real_part: float
    leading_lambda: Optional[complex]
    #: full-basis [v1 | v2] coefficients of the leading growth mode, None below VECTOR_LEVEL
    leading: Optional[np.ndarray]
    symmetry_defect: float
    #: "reduced" for the lambda^2 reduction, "dense" for each sector's ``eig``
    path: str

    @property
    def num_unstable(self) -> int:
        return int(np.sum(self.eigenvalues.real > UNSTABLE_THRESHOLD))

    def mode_fields(self) -> tuple[Optional[RealField], Optional[RealField]]:
        """The leading growth mode (v1, v2) on the grid, or (None, None)."""
        if self.leading is None:
            return None, None
        d = self.basis.dimension
        coeff = np.real(self.leading)
        return self.basis.field(coeff[:d]), self.basis.field(coeff[d:])

    def record(self) -> KappaRecord:
        unstable = self.eigenvalues[self.eigenvalues.real > UNSTABLE_THRESHOLD]
        return KappaRecord(
            kappa=self.kappa,
            max_real_part=self.max_real_part,
            num_unstable=unstable.size,
            leading_lambda=self.leading_lambda,
            unstable_eigenvalues=tuple(complex(lam) for lam in unstable),
            symmetry_defect=self.symmetry_defect,
            path=self.path,
        )


@dataclass(frozen=True)
class StabilityScan:
    """Growth-rate profile over a kappa grid plus located band edges."""

    wave_id: str
    sector: str
    kappa_values: np.ndarray
    records: tuple[KappaRecord, ...]
    #: the leading growth mode (v1, v2) of the most unstable row on the grid;
    #: None where that row has none, and in a version-1 document
    leading_v1: Optional[RealField]
    leading_v2: Optional[RealField]
    band_edges: tuple[float, ...]
    verdict: str
    #: grid rows per solver path, and dense eig solves spent bisecting band edges
    reduced_rows: int
    dense_rows: int
    dense_bisections: int

    @property
    def most_unstable(self) -> KappaRecord:
        return max(self.records, key=lambda r: r.max_real_part)


def instability_eigs(
    wave: Union[WaveProfile, HillOperators], kappa: float, sector: str = "auto"
) -> RowSolution:
    """The dense row at one kappa (kappa = 0 allowed as diagnostic): each
    parity sector's ``eig``, whatever the scan's rule would pick there."""
    return _dense_row(hill_operators(wave, sector), kappa)


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


def _dense_row(ops: HillOperators, kappa: float) -> RowSolution:
    """A row from one dense ``eig`` per parity sector.

    Each sector's spectrum is cross-checked against its own reduction
    (lambda^2 must be an eigenvalue of -(L2+k^2)(L1+k^2)) on its ten largest
    |lambda|; disagreement raises NumericalConsistencyError.  The spectra are
    merged, and the leading growth mode, the first of largest real part above
    VECTOR_LEVEL, is lifted to full-basis coefficients.
    """
    values, vectors, rows = [], [], []
    for sector_rows, sector_block in ops.sectors():
        block = _growth_block(sector_block.l2, sector_block.l1, kappa)
        # geev returns a real array when every eigenvalue is real; the row's
        # spectrum and mode stay complex whatever the spectrum
        w, v = (a.astype(complex, copy=False) for a in np.linalg.eig(block))
        m = w.size // 2
        _crosscheck(block[:m, m:], -block[m:, :m], w, kappa)
        values.append(w)
        vectors.append(v)
        rows.append(sector_rows)
    eigenvalues = np.concatenate(values)
    owner = np.repeat(np.arange(len(values)), [w.size for w in values])
    column = np.concatenate([np.arange(w.size) for w in values])
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues, owner, column = eigenvalues[order], owner[order], column[order]

    lam = coeff = None
    growing = np.flatnonzero(eigenvalues.real > VECTOR_LEVEL)
    if growing.size:
        i = growing[np.argmax(eigenvalues.real[growing])]
        lam = complex(eigenvalues[i])
        mode = vectors[owner[i]][:, column[i]]
        coeff = _normalize_mode(_lift(rows[owner[i]], ops.basis.dimension, mode))
    return RowSolution(
        basis=ops.basis,
        kappa=float(kappa),
        eigenvalues=eigenvalues,
        max_real_part=float(np.max(np.abs(eigenvalues.real))),
        leading_lambda=lam,
        leading=coeff,
        symmetry_defect=_symmetry_defect(eigenvalues),
        path="dense",
    )


@dataclass(frozen=True)
class _Reduction:
    """The sector blocks L1, L2 of one parity sector, L2 = Q diag(D) Q^T,
    A = Q^T L1 Q, the L1 spectrum and what every row reads of them.

    A kappa is solved here only where L2 + kappa^2 is semidefinite and every
    computed mu clears the rounding floor of M(kappa): a mu that rounding can
    push across zero would report sqrt(|mu|), far above EDGE_LEVEL, as growth.
    That happens next to kappa = 0, where the symmetry generators form a
    Jordan block, and right at band edges; the dense ``eig`` solves those.

    A row computes eigenvectors only for mu < 0, the growth pairs it reports;
    the rest of the spectrum is checked without vectors against the unreduced
    product P(kappa) = (L2 + kappa^2)(L1 + kappa^2), by its first two moments
    and by one probe vector (:meth:`certify`).  Every method takes an array
    of kappa and works on all its rows at once.
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
    #: rounding floors of D and of the L1 spectrum, and max|l| = ||L1||_2
    d_floor: float
    l1_floor: float
    l1_norm: float
    #: tr(L2 L1), tr(L1 + L2), tr((L2 L1)^2), tr(L2 L1 (L1 + L2)) and
    #: tr((L1 + L2)^2): tr P(kappa) and tr P(kappa)^2 are polynomials in kappa^2
    #: with these coefficients
    traces: tuple
    #: a fixed unit vector with no zero component (:func:`_fixed_vector`): the
    #: probe of :meth:`certify` and the start of inverse iteration
    probe: np.ndarray

    @classmethod
    def sectors(cls, ops: HillOperators) -> tuple:
        """One reduction per parity sector of the store, made on the first
        request and kept with the store."""
        return ops.memo(cls, lambda: tuple(cls._of(rows, b) for rows, b in ops.sectors()))

    @classmethod
    def _of(cls, rows: slice, block: SectorBlock) -> "_Reduction":
        l1, l2 = block.l1, block.l2
        d, q = np.linalg.eigh(l2)
        product, total = l2 @ l1, l1 + l2
        # tr(XY) = sum(X * Y^T); L1 + L2 is symmetric
        traces = tuple(
            float(t)
            for t in (
                np.trace(product),
                np.trace(total),
                np.sum(product * product.T),
                np.sum(product * total),
                np.sum(total * total),
            )
        )
        l1_norm = float(np.max(np.abs(block.l1_eigs)))
        return cls(
            rows,
            l2,
            l1,
            q=q,
            d=d,
            a=q.T @ l1 @ q,
            l1_eigs=block.l1_eigs,
            d_floor=_rounding_floor(d.size, float(np.max(np.abs(d)))),
            l1_floor=_rounding_floor(d.size, l1_norm),
            l1_norm=l1_norm,
            traces=traces,
            probe=_fixed_vector(d.size),
        )

    def semidefinite(self, kappa) -> np.ndarray:
        """Whether L2 + kappa^2 is semidefinite, for each kappa: shifted
        eigenvalues within the rounding floor of D below zero count as zero."""
        return self.d[0] + _squares(kappa) >= -self.d_floor

    def scale(self, kappa) -> np.ndarray:
        """s = sqrt(D + kappa^2) for each kappa, as rows."""
        return np.sqrt(np.maximum(self.d + _squares(kappa)[:, None], 0.0))

    def matrices(self, kappa, shift=0.0) -> np.ndarray:
        """M(kappa) - shift for each kappa (and shift), built in place in one
        (rows, d, d) stack; M = diag(s) (A + kappa^2) diag(s) has the
        eigenvalues mu = -lambda^2."""
        m, s = _shifted(self.a, _squares(kappa)), self.scale(kappa)
        m *= s[:, :, None]
        m *= s[:, None, :]
        diagonal = _diagonals(m)
        diagonal -= np.reshape(shift, (-1, 1))
        return m

    def floor(self, kappa) -> np.ndarray:
        """Rounding floor of M(kappa) and of the product (L2+k^2)(L1+k^2), for each kappa."""
        k2 = _squares(kappa)
        # ||L1||_2 = max|l|, so this bounds ||M(kappa)||_2
        return _rounding_floor(self.d.size, (self.d[-1] + k2) * (self.l1_norm + k2))

    def spectrum(self, kappa) -> np.ndarray:
        """Every eigenvalue mu of M(kappa), ascending, as one row per kappa,
        from one ``eigvalsh`` of the stacked M; a row of NaN where L2 + kappa^2
        is indefinite or some mu lies within the rounding floor of M(kappa) of
        zero."""
        mu = np.full((len(kappa), self.d.size), np.nan)
        rows = self.semidefinite(kappa)
        mu[rows] = np.linalg.eigvalsh(self.matrices(kappa[rows]))
        mu[~(np.min(np.abs(mu), axis=1) > self.floor(kappa))] = np.nan
        return mu

    def solve(self, kappa, mu: np.ndarray) -> "_SectorRows":
        """The growth pairs of each row's M(kappa), its mu < 0, from that
        row's spectrum ``mu``: eigenvectors y by inverse iteration from the
        computed mu, one batched solve over every pair of every row, and a
        Rayleigh-Ritz step over a row's pairs where it has more than one;
        each lifted to v1 = Q (s * y)."""
        row, col = pairs = np.nonzero(mu < 0.0)
        d = self.d.size
        # each shift lies eps ||M|| below its mu, so that M - shift is never
        # exactly singular, as it is on a diagonal M (the constant state);
        # pair j of a row starts from the probe rolled by j
        shift = mu[pairs] - self.floor(kappa)[row] / d
        y = _inverse_iteration(
            self.matrices(kappa[row], shift), self.probe[(np.arange(d) - col[:, None]) % d]
        )

        mu = mu.copy()
        v1 = np.empty_like(y)
        mode, l1_mode = np.zeros_like(mu), np.zeros_like(mu)
        counts = np.bincount(row, minlength=len(kappa))
        first = np.cumsum(counts) - counts
        for count in sorted(set(counts.tolist()) - {0}):
            rows = np.flatnonzero(counts == count)
            at = first[rows, None] + np.arange(count)
            # the pairs of a row as the columns of one (d, count) matrix: the
            # layout, and so the strides of the dot products below, of a row alone
            ys = y[at].transpose(0, 2, 1)
            if count > 1:
                ys = _rayleigh_ritz(self.matrices(kappa[rows]), ys)
            s = self.scale(kappa[rows])
            lifted = self.q @ (s[:, :, None] * ys)
            # the lowest mode, the one a row writes, is lifted by a
            # matrix-vector product of its own: a column of the matrix product
            # may differ from it in the last bits, with the blocking of the
            # product
            lowest = ys[:, :, 0]
            mode[rows] = lifted[:, :, 0] = (self.q @ (s * lowest)[..., None])[..., 0]
            v1[at] = lifted.transpose(0, 2, 1)
            # eigvalsh resolves mu only to about eps * ||M||, which grows like
            # the fourth power of the largest wavenumber; the Rayleigh quotient
            # of the lowest mode on the unscaled L1 + kappa^2 is second order in
            # that mode's error
            l1k = _shifted(self.l1, _squares(kappa[rows]))
            v = mode[rows]
            mu[rows, 0] = _dots((v[:, None, :] @ l1k)[:, 0], v) / _dots(lowest, lowest)
            l1_mode[rows] = (l1k @ v[..., None])[..., 0]
        return _SectorRows(mu, pairs, v1, mode, l1_mode)

    def _gate(self, kappa, what: str, mu, residual, norm) -> None:
        """residual <= max(CROSSCHECK_RTOL |mu|, 4 floor) * norm, elementwise."""
        bound = np.maximum(CROSSCHECK_RTOL * np.abs(mu), 4.0 * self.floor(kappa)) * norm
        bad = np.flatnonzero(~(residual <= bound))
        if bad.size:
            j = bad[np.argmax(residual[bad] / bound[bad])]
            raise NumericalConsistencyError(
                f"{what} at mu={mu[j]:.6e} fails the residual cross-check at "
                f"kappa={kappa[j]:g}: residual {residual[j]:.3e} above {bound[j]:.3e}"
            )

    def _gate_spectrum(self, kappa, what: str, error, size) -> None:
        """error <= 4 d eps size, per row: a check of the whole spectrum without vectors."""
        bound = 4.0 * _rounding_floor(self.d.size, size)
        bad = np.flatnonzero(~(error <= bound))
        if bad.size:
            j = bad[np.argmax(error[bad] / bound[bad])]
            raise NumericalConsistencyError(
                f"{what} fails the spectrum cross-check at kappa={kappa[j]:g}: "
                f"error {error[j]:.3e} above {bound[j]:.3e}"
            )

    def certify(self, kappa, solved: "_SectorRows") -> None:
        """Every mu of every row against the unreduced P = (L2+k^2)(L1+k^2):
        each lifted pair by its residual, the whole spectrum by its moments
        and a probe.

        The lifted pairs, the mu < 0 a row reports, satisfy P v1 = mu v1 to
        four times the rounding floor of the product or CROSSCHECK_RTOL
        relative to |mu|.  The product is applied to v1 unreduced, so an error
        in Q, in the scaling s or in the kappa^2 shift of M shows as a residual
        r; diag(1/s) Q^T r is the residual of y on the symmetric M, which
        bounds the error of mu (Parlett, The Symmetric Eigenvalue Problem,
        SIAM 1998, section 4.5).

        M is similar to P, so sum mu = tr P and sum mu^2 = tr P^2, both
        polynomials in kappa^2 with coefficients from L1 and L2 alone; each is
        gated at 4 d eps times its own scale (sum |mu|, sum mu^2).  One
        unreported mu's error shows only above about 4 d eps sum |mu|.  The
        moments do not depend on Q; the probe does: P Q (s * z) = Q (s * (M z))
        for the fixed unit z, gated at four times the rounding floor of the
        product times ||s * z||, so a wrong Q, s or shift of M fails it."""
        mu, v1, (row, _) = solved.mu, solved.v1, solved.pairs
        k2 = _squares(kappa)
        pair_mu, shift = mu[solved.pairs], k2[row, None]
        # (X @ L^T)[i] = L X[i]: each product below applies L to every row of X
        u = v1 @ self.l1.T + shift * v1
        residual = u @ self.l2.T + shift * u - v1 * pair_mu[:, None]
        norms = np.linalg.norm(residual, axis=1), np.linalg.norm(v1, axis=1)
        self._gate(kappa[row], "eigenpair", pair_mu, *norms)

        t_b, t_s, t_bb, t_bs, t_ss = self.traces
        n = mu.shape[1]
        trace = t_b + k2 * t_s + k2**2 * n
        trace_sq = (
            t_bb + 2.0 * k2 * t_bs + k2**2 * (t_ss + 2.0 * t_b) + 2.0 * k2**3 * t_s + k2**4 * n
        )
        square = _dots(mu, mu)
        self._gate_spectrum(
            kappa, "moment sum(mu) = tr P", np.abs(mu.sum(axis=1) - trace), np.abs(mu).sum(axis=1)
        )
        self._gate_spectrum(kappa, "moment sum(mu^2) = tr P^2", np.abs(square - trace_sq), square)

        shift, scale = k2[:, None], self.scale(kappa)
        sz = scale * self.probe
        v = sz @ self.q.T
        u = v @ self.l1.T + shift * v
        mz = sz @ self.a.T + shift * sz
        r = u @ self.l2.T + shift * u - (scale * (scale * mz)) @ self.q.T
        norm = (self.d[-1] + k2) * (self.l1_norm + k2) * np.sqrt(_dots(sz, sz))
        self._gate_spectrum(kappa, "probe P Q (s z) = Q (s M z)", np.sqrt(_dots(r, r)), norm)

    def certify_mode(self, kappa, rate: np.ndarray, coeff: np.ndarray) -> None:
        """The written growth modes w = (v1, v2) of this sector, as rows,
        against its block B = [[0, L2+k^2], [-(L1+k^2), 0]]: rate (B w - rate w)
        has the product residual of v1 as its first half and rounding as its
        second, so it takes :meth:`certify`'s bound, and a wrong v2 fails it."""
        d = coeff.shape[1] // 2
        w1, w2 = coeff[:, self.rows], coeff[:, d + self.rows.start : d + self.rows.stop]
        k2, rates = _squares(kappa)[:, None], rate[:, None]
        r1 = w2 @ self.l2.T + k2 * w2 - rates * w1
        r2 = -(w1 @ self.l1.T + k2 * w1) - rates * w2
        residual = rate * np.sqrt(_dots(r1, r1) + _dots(r2, r2))
        norm = np.sqrt(_dots(w1, w1) + _dots(w2, w2))
        self._gate(kappa, "growth mode", -(rate**2), residual, norm)

    def check_inertia(self, kappa, mu: np.ndarray) -> None:
        """#{mu < 0} = n(L1 + kappa^2) on every row by Sylvester's law of
        inertia, L1 eigenvalues within the rounding floor of -kappa^2
        counting either way."""
        shifted = self.l1_eigs + _squares(kappa)[:, None]
        low = np.count_nonzero(shifted < -self.l1_floor, axis=1)
        high = np.count_nonzero(shifted < self.l1_floor, axis=1)
        negative = np.count_nonzero(mu < 0.0, axis=1)
        bad = np.flatnonzero((negative < low) | (negative > high))
        if bad.size:
            j = bad[0]
            raise NumericalConsistencyError(
                f"inertia count: {negative[j]} mu < 0 at kappa={kappa[j]:g}, "
                f"n(L1+k^2) in {low[j]}..{high[j]}"
            )


@dataclass(frozen=True)
class _SectorRows:
    """One parity sector's reduced solve of a batch of rows."""

    #: every eigenvalue mu of each row's M(kappa), ascending, the lowest one
    #: refined by its Rayleigh quotient where it is negative
    mu: np.ndarray
    #: the (row, column) index of each growth pair mu < 0 in ``mu``
    pairs: tuple
    #: the lifted v1 of each growth pair, as rows
    v1: np.ndarray
    #: each row's lowest growth pair: v1, the mode a row writes, and
    #: (L1 + kappa^2) v1; zero where a row has none
    mode: np.ndarray
    l1_mode: np.ndarray


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


def _reduced_rows(basis: ParityBasis, reductions: tuple, kappa) -> list:
    """The rows at every kappa from one batched solve per parity sector:
    one ``eigvalsh`` of the stacked M(kappa), with eigenvectors for the
    growth pairs only; None at a kappa where the reduction does not apply to
    some sector.

    Each growth pair is certified by its residual on the unreduced product
    and the rest of the spectrum by its moments and a probe against that
    product (:meth:`_Reduction.certify`), the written growth mode on its
    sector's block and the sector's mu < 0 by the inertia count.  A row's set
    is built as +-(real or imaginary half), closed under negation and
    conjugation by construction, so its symmetry defect is 0.0 without being
    measured.
    """
    kappa = np.asarray(kappa, dtype=float)
    out = [None] * kappa.size
    spectra = [reduction.spectrum(kappa) for reduction in reductions]
    rows = np.flatnonzero(~np.any([np.isnan(mu[:, 0]) for mu in spectra], axis=0))
    kappa = kappa[rows]
    solved = [r.solve(kappa, mu[rows]) for r, mu in zip(reductions, spectra)]

    values = []
    growth, lead = np.zeros(rows.size), np.full(rows.size, -1)
    for sector, (reduction, sector_rows) in enumerate(zip(reductions, solved)):
        mu = sector_rows.mu
        reduction.certify(kappa, sector_rows)
        reduction.check_inertia(kappa, mu)
        rate = np.sqrt(np.abs(mu))
        half = np.where(mu < 0.0, rate + 0j, 1j * rate)
        values.append(np.concatenate([half, -half], axis=1) + 0.0)  # + 0.0 clears negative zeros
        # the first sector of largest growth leads
        leads = (mu[:, 0] < 0.0) & (rate[:, 0] > growth)
        growth[leads], lead[leads] = rate[leads, 0], sector
    eigenvalues = np.concatenate(values, axis=1)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real), axis=-1)
    eigenvalues = np.take_along_axis(eigenvalues, order, axis=-1)

    leading = [None] * rows.size
    for sector, (reduction, sector_rows) in enumerate(zip(reductions, solved)):
        written = np.flatnonzero((lead == sector) & (growth > VECTOR_LEVEL))
        rate = growth[written]
        v2 = -sector_rows.l1_mode[written] / rate[:, None]
        coeff = _unit_rows(
            _lift(reduction.rows, basis.dimension, np.concatenate([sector_rows.mode[written], v2], 1))
        )
        # the sign of _normalize_mode: the first entry above 1e-8 is positive
        first = np.argmax(np.abs(coeff) > 1e-8, axis=1)
        coeff = _unit_rows(coeff * np.sign(np.take_along_axis(coeff, first[:, None], axis=1)))
        reduction.certify_mode(kappa[written], rate, coeff)
        for i, mode in zip(written, coeff):
            leading[i] = mode

    for i, at in enumerate(rows):
        out[at] = RowSolution(
            basis=basis,
            kappa=float(kappa[i]),
            eigenvalues=eigenvalues[i],
            max_real_part=float(growth[i]),
            leading_lambda=None if leading[i] is None else complex(growth[i]),
            leading=leading[i],
            symmetry_defect=0.0,
            path="reduced",
        )
    return out


def _solve_rows(ops: HillOperators, kappa) -> list:
    """The scan's rule at each kappa: the rows of batched reduced solves
    where it applies, else each sector's dense ``eig``.  The rows go in
    batches of BATCH_BYTES per stack; a row's result does not depend on its
    batch."""
    reductions = _Reduction.sectors(ops)
    size = max(1, BATCH_BYTES // max(r.a.nbytes for r in reductions))
    rows = []
    for start in range(0, len(kappa), size):
        rows += _reduced_rows(ops.basis, reductions, kappa[start : start + size])
    return [row if row is not None else _dense_row(ops, k) for row, k in zip(rows, kappa)]


def growth_row(
    wave: Union[WaveProfile, HillOperators], kappa: float, sector: str = "auto"
) -> RowSolution:
    """The row :func:`scan_kappa` computes at kappa, by the scan's own rule.
    Its record is the scan's row at kappa bit for bit, a batch of one row;
    given the scan's operator store, it reuses the scan's assembly and
    reductions."""
    _check_kappa(kappa)
    return _solve_rows(hill_operators(wave, sector), [float(kappa)])[0]


def scan_kappa(
    wave: Union[WaveProfile, HillOperators],
    kappa_min: float,
    kappa_max: float,
    steps: int,
    sector: str = "auto",
) -> StabilityScan:
    """Sweep kappa over a uniform grid and locate the instability band edges.

    The verdict is 'transversally unstable' as soon as one grid point has
    max Re lambda above UNSTABLE_THRESHOLD.  Runs are sequential and
    deterministic: identical inputs give identical records.  L1 and L2 come
    from one operator store (:func:`hill.hill_operators`: a wave is assembled
    once, a store is reused) and every row adds kappa^2 to them.  An edge lies between
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
    ops = hill_operators(wave, sector)
    kappas = np.linspace(kappa_min, kappa_max, steps)
    reductions = _Reduction.sectors(ops)
    records, peak = [], None
    for row in _solve_rows(ops, [float(kappa) for kappa in kappas]):
        if row.symmetry_defect > SYMMETRY_TOL:
            raise NumericalConsistencyError(
                f"eigenvalue quadruple symmetry broken at kappa={row.kappa:g}: "
                f"defect {row.symmetry_defect:.3e}"
            )
        # the first row of largest growth, as StabilityScan.most_unstable picks it
        if peak is None or row.max_real_part > peak.max_real_part:
            peak = row
        records.append(row.record())
    reduced = sum(r.path == "reduced" for r in records)

    bisections = 0
    edges = []
    for left, right in zip(records[:-1], records[1:]):
        f_left = left.max_real_part - EDGE_LEVEL
        if f_left == 0.0 or f_left * (right.max_real_part - EDGE_LEVEL) >= 0.0:
            continue
        lo, hi = left.kappa, right.kappa
        # D + kappa^2 grows with kappa: semidefinite at lo means on all of [lo, hi]
        if all(r.semidefinite([lo])[0] for r in reductions):
            edges.append(_band_end(reductions, lo, hi, falling=f_left > 0.0))
            continue
        g_lo = f_left
        while hi - lo > EDGE_RESOLUTION:
            mid = 0.5 * (lo + hi)
            bisections += 1
            g_mid = _dense_row(ops, mid).max_real_part - EDGE_LEVEL
            if g_mid == 0.0:
                lo = hi = mid
                break
            if g_lo * g_mid < 0.0:
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        edges.append(0.5 * (lo + hi))

    unstable = any(r.max_real_part > UNSTABLE_THRESHOLD for r in records)
    v1, v2 = peak.mode_fields()
    return StabilityScan(
        wave_id=ops.wave_id,
        sector=ops.sector,
        kappa_values=kappas,
        records=tuple(records),
        leading_v1=v1,
        leading_v2=v2,
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
    wave: Union[WaveProfile, HillOperators],
    sector: str = "auto",
    zero_tolerance: Optional[float] = None,
) -> HypothesisReport:
    """Check (H0)-(H4) for S(kappa) on the declared sector.

    H0 self-adjointness of the store's L1 and L2, measured only here on the
    store path; H1 uniform positivity S(kappa) >= beta for kappa >= K with
    K = sqrt(lambda0)*(1+1e-6) and beta = K^2 - lambda0, where -lambda0 is
    the lowest eigenvalue of S(0);
    H2 records that a periodic cell has no essential spectrum; H3
    monotonicity of the lowest eigenvalue of S(kappa) in kappa plus
    positivity of (S'(kappa)w, w) = 2*kappa*||w||^2 on a fixed vector w
    with no zero component;
    H4 exactly one simple negative eigenvalue of S(0) with the rest of the
    spectrum nonnegative.

    S(kappa) = S(0) + kappa^2 * I exactly, so H1 and H3 shift the lowest
    eigenvalue of S(0) by kappa^2: one spectrum of S(0), the union of the
    operator store's sector spectra of L2 and L1, serves every hypothesis.
    """
    ops = hill_operators(wave, sector)
    # S(0) = diag(L2, L1): its off-diagonal blocks are exact zeros, so the
    # entry scale, the asymmetry and the spectrum all come from L1 and L2,
    # and from their sector blocks: the coupling left out is rounding, and its
    # two halves are exact transposes of each other
    blocks = [m for b in ops.blocks for m in (b.l2, b.l1)]
    scale = max(float(np.max(np.abs(m))) for m in blocks)
    asym = max(float(np.max(np.abs(m - m.T))) for m in blocks)
    h0 = {"passed": asym <= SYMMETRY_RTOL * max(scale, 1e-300), "max_asymmetry": asym}

    eigs0 = ops.lcal_eigenvalues()
    tol = _zero_tolerance(eigs0, zero_tolerance)
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
    w = _fixed_vector(eigs0.size)
    sprime_values = [2.0 * kappa * float(np.dot(w, w)) for kappa in mono_grid[1:]]
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
        wave_id=ops.wave_id,
        sector=ops.sector,
        h0=h0,
        h1=h1,
        h2=h2,
        h3=h3,
        h4=h4,
        overall=overall,
    )
