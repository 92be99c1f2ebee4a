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
block problem split into a cosine and a sine sector (the operator store's
blocks) and every solve below runs once per sector, on blocks of order
about d/2; the sector spectra are merged into one record and growth modes
lifted to full-basis coefficients.

Every function here takes an operator store (:class:`hill.HillOperators`)
and works on its sector, never a sector or a wave: L1 and L2, their sector
blocks and the blocks' L1 spectra come from the store.  The reductions
(L2 = Q D Q^T per sector) are kept with the store, so a scan, its
hypotheses and the time integrator's row at one kappa share one assembly
and one diagonalization.

:func:`scan_kappa` solves its whole grid in one reduced solve per sector,
with array operations over the rows; a matrix of order d is built for one
row at a time, and the trial spans over slices of at most BATCH_BYTES, so
the memory grows by a few vectors per row.  No row takes a spectrum of
M(kappa).  Where L2 + kappa^2 is semidefinite, a row has exactly
k = n(L1 + kappa^2) growth pairs by the inertia law and computes only those
(:meth:`_Reduction.solve`), and one Cholesky factorization per class of rows
proves that every other mu clears the rounding floor of M
(:meth:`_Reduction._definite`).  Rows where L2 + kappa^2 is indefinite
beyond the rounding floor of its diagonalization (an odd wave in the full
space at small kappa), where an L1 eigenvalue lies within its rounding floor
of -kappa^2, or whose certificate fails (a mu within the floor of zero, next
to kappa = 0 and at band edges), in any sector, take :func:`_dense_row`, one
dense ``eig`` per sector, as :func:`instability_eigs` does; a failed
certificate never decides a row.  Only an edge above an indefinite row is
bisected.  Every stacked LAPACK and BLAS call solves each matrix as a call
on it alone would, and no product behind a reported number mixes rows, so a
row's pairs do not depend on its grid.

Each growth pair is certified by the residual of its lift v1 = Q (s * y) on
the unreduced product P(kappa) = (L2 + kappa^2)(L1 + kappa^2), each written
growth mode on its sector's block, and M, of which the certificate speaks,
by a probe P Q (s * z) = Q (s * (M z)) on one fixed unit vector z.  A row
that proves a count of mu < 0 other than n(L1 + kappa^2) raises; no row
draws a random number.  A reduced row reports its growth pairs +-lambda, a
set closed under negation and conjugation by construction.  Every dense
solve, a bisection step included, checks lambda^2 on each sector's ten
largest |lambda| against that sector's unsymmetric product; a dense grid
row also measures the quadruple symmetry of the merged set.

Both solvers return a :class:`RowSolution`, the one row type: the merged
spectrum of a dense row or the growth pairs of a reduced one, the leading
growth mode's coefficients and the solver path.  A scan keeps only what a
row reports, its :class:`KappaRecord`, and synthesizes the grid fields
(v1, v2) of the most unstable row's mode once.  :func:`growth_row` hands the
time integrator the scan's own row at one kappa, solved alone, or the
peak row a scan kept on the operator store.  The module also verifies the
hypotheses (H0)-(H4) for S(kappa) = diag(L2 + kappa^2, L1 + kappa^2).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import NumericalConsistencyError, ParameterError
from .hill import (
    SYMMETRY_RTOL,
    HillOperators,
    SectorBlock,
    _check_kappa,
    _whole_basis_pair,
    _one_simple_negative,
    spectrum,
)

# kept importable here: perfbench/tracer.py wraps scan.build_block by name
from .hill import build_block  # noqa: F401
from .spectral import ParityBasis, RealField, _plus_diagonal, _rayleigh_ritz, _rounding_floor

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

#: bytes of complex distances that :func:`_symmetry_defect`, and of trial
#: spans that :meth:`_Reduction._pairs`, holds at once
BATCH_BYTES = 4 * 2**20

#: steps of inverse iteration a growth pair takes at most, from its Ritz start
INVERSE_STEPS = 4

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


def _squares(kappa) -> np.ndarray:
    """kappa**2 of each kappa, squared as a Python float (C pow) like every
    other kappa**2 of the package: pow may round differently from the
    product x * x with which numpy squares an array, and the stored documents
    hold rows squared by pow."""
    return np.array([k**2 for k in np.asarray(kappa, dtype=float).tolist()])


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of x and y along the last axis, per row: each is the
    BLAS dot of one pair of rows, bit for bit that of ``x[i] @ y[i]`` on the
    same strides."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _inverse_iteration(shifted: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The unit vector from one step of inverse iteration with the matrix
    M - shift, ``shifted``, from ``start``; as rows, one for each matrix of a
    stack and its row of ``start``.

    A shift within a few eps ||M|| of an eigenvalue of the symmetric M damps
    every other component by about eps ||M|| / gap per step (Parlett, The
    Symmetric Eigenvalue Problem, SIAM 1998, chapter 4).
    """
    y = np.linalg.solve(shifted, start[..., None])[..., 0]
    return y / np.sqrt(_dots(y, y))[..., None]


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


def evolution_block(ops: HillOperators, kappa: float):
    """Dense block [[0, L2+k^2], [-(L1+k^2), 0]] on the store's basis, and the basis."""
    l1, l2 = _whole_basis_pair(ops)
    return _growth_block(l2, l1, kappa), ops.basis


def _symmetry_defect(eigenvalues: np.ndarray) -> float:
    """Distance of the set from closure under lambda -> -lambda and conjugation,
    over blocks of rows of at most BATCH_BYTES of complex distances each: the
    max of row minima is exact, so it does not depend on the blocks."""
    e = eigenvalues
    rows = max(1, BATCH_BYTES // (16 * max(e.size, 1)))
    worst = 0.0
    for start in range(0, e.size, rows):
        lam = e[start : start + rows, None]
        negation = np.min(np.abs(lam + e[None, :]), axis=1)
        conjugation = np.min(np.abs(e[None, :] - np.conj(lam)), axis=1)
        worst = max(worst, float(np.max(negation)), float(np.max(conjugation)))
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
    """The row solver's result at one kappa: its eigenvalues and the leading
    growth mode's coefficients, of which a scan keeps only :meth:`record`."""

    basis: ParityBasis
    kappa: float
    #: a dense row's whole merged spectrum; a reduced row's growth pairs
    #: +-lambda, ascending, which hold every eigenvalue off the imaginary axis
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


def instability_eigs(ops: HillOperators, kappa: float) -> RowSolution:
    """The dense row at one kappa (kappa = 0 allowed as diagnostic): each
    parity sector's ``eig``, whatever the scan's rule would pick there."""
    return _dense_row(ops, kappa)


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

    A row is decided here only where L2 + kappa^2 is semidefinite and no L1
    eigenvalue lies within its rounding floor of -kappa^2, where M(kappa) has
    k = n(L1 + kappa^2) growth pairs by the inertia law (:meth:`counts`), and
    where every mu clears the rounding floor of M(kappa): a mu that rounding
    can push across zero would report sqrt(|mu|), far above EDGE_LEVEL, as
    growth.  That happens next to kappa = 0, where the symmetry generators
    form a Jordan block, and at band edges; the dense ``eig`` solves those.

    A row computes only its k growth pairs (:meth:`solve`), checked against
    the unreduced product (:meth:`certify`).  Every method but
    :meth:`matrix` takes an array of kappa and works on all its rows at once.
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
    #: Q^T [phi, |phi|^a, |phi|^a phi] on the sector, in the eigenbasis of
    #: L2: the wave's trial vectors of :meth:`_ritz_start`
    wave_trial: np.ndarray
    #: a fixed unit vector with no zero component (:func:`_fixed_vector`),
    #: the probe of :meth:`certify`
    probe: np.ndarray

    @classmethod
    def sectors(cls, ops: HillOperators) -> tuple:
        """One reduction per parity sector of the store, made on the first
        request and kept with the store."""
        phi = ops.wave.phi.values
        potential = np.abs(phi) ** ops.wave.params.alpha
        fields = np.column_stack([phi, potential, potential * phi])
        return ops.memo(cls, lambda: tuple(cls._of(rows, b, fields) for rows, b in ops.sectors()))

    @classmethod
    def _of(cls, rows: slice, block: SectorBlock, fields: np.ndarray) -> "_Reduction":
        l1, l2 = block.l1, block.l2
        d, q = np.linalg.eigh(l2)
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
            wave_trial=q.T @ np.column_stack([block.basis.analyze(f) for f in fields.T]),
            probe=_fixed_vector(d.size),
        )

    def semidefinite(self, kappa) -> np.ndarray:
        """Whether L2 + kappa^2 is semidefinite, for each kappa: shifted
        eigenvalues within the rounding floor of D below zero count as zero."""
        return self.d[0] + _squares(kappa) >= -self.d_floor

    def counts(self, kappa) -> np.ndarray:
        """k = n(L1 + kappa^2) for each kappa, the number of growth pairs of
        M(kappa) by Sylvester's law of inertia; -1 where the law does not
        decide it: L2 + kappa^2 indefinite, or an L1 eigenvalue within the
        rounding floor of -kappa^2."""
        shifted = self.l1_eigs + _squares(kappa)[:, None]
        near = np.any(np.abs(shifted) <= self.l1_floor, axis=1)
        count = np.count_nonzero(shifted < 0.0, axis=1)
        return np.where(self.semidefinite(kappa) & ~near, count, -1)

    def scale(self, kappa) -> np.ndarray:
        """s = sqrt(D + kappa^2) for each kappa, as rows."""
        return np.sqrt(np.maximum(self.d + _squares(kappa)[:, None], 0.0))

    def matrix(self, k2: float, s: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """M(kappa) - shift at one kappa, from its k2 = kappa^2 and its row s
        of :meth:`scale`, built in place in one d x d matrix;
        M = diag(s) (A + kappa^2) diag(s) has the eigenvalues mu = -lambda^2."""
        m = _plus_diagonal(self.a.copy(), k2)
        m *= s[:, None]
        m *= s
        return _plus_diagonal(m, -shift)

    def apply(self, kappa, x: np.ndarray) -> np.ndarray:
        """M(kappa) x for each kappa and its (d, p) block of x, without
        building M: s * ((A + kappa^2) (s * x))."""
        s, k2 = self.scale(kappa)[:, :, None], _squares(kappa)[:, None, None]
        sx = s * x
        return s * (self.a @ sx + k2 * sx)

    def floor(self, kappa) -> np.ndarray:
        """Rounding floor of M(kappa) and of the product (L2+k^2)(L1+k^2), for each kappa."""
        k2 = _squares(kappa)
        # ||L1||_2 = max|l|, so this bounds ||M(kappa)||_2
        return _rounding_floor(self.d.size, (self.d[-1] + k2) * (self.l1_norm + k2))

    def _ritz_start(self, kappa, k: int) -> tuple:
        """Ritz values and vectors of each M(kappa) on the span of the trial
        vectors v: the wave phi, its potential |phi|^a, |phi|^a phi and the
        k + 8 lowest-wavenumber basis vectors, mapped to the coordinates of M
        by y = Q^T v / s (0 where s = 0).  L1 = L2 - a |phi|^a and L2 phi =
        0, so L1 phi = -a |phi|^a phi: the negative directions of L1 lie
        where the potential well does, in either parity sector, and the span
        holds the lowest mu of the fixture waves to 1e-9 relative or better,
        which one step of inverse iteration takes to rounding.  It costs no
        solve."""
        trial = np.column_stack([self.wave_trial, self.q[: k + 8].T])
        s = self.scale(kappa)[:, :, None]
        y = np.divide(trial, s, out=np.zeros(s.shape[:2] + trial.shape[1:]), where=s > 0.0)
        return _rayleigh_ritz(lambda x: self.apply(kappa, x), y)

    def _inverse_step(self, kappa, floor, theta, y) -> tuple:
        """One step of inverse iteration for each pair, the columns of each
        row's y, shifted floor / d below its Ritz value ``theta``: a row
        builds its M once, and each pair solves with its shift on a copy.
        Then the pairs' Ritz values and vectors (a Rayleigh quotient for one
        pair), and whether every pair of a row has converged: its residual on
        M is within four rounding floors of |theta|, d eps |theta| each, so
        that the vector, whose error is the residual over the gap, has
        reached rounding."""
        dim, k = y.shape[1:]
        y, shifts = y.copy(), theta - (floor / dim)[:, None]
        for row, (k2, s) in enumerate(zip(_squares(kappa).tolist(), self.scale(kappa))):
            m = self.matrix(k2, s)
            for j in range(k):
                y[row, :, j] = _inverse_iteration(_plus_diagonal(m.copy(), -shifts[row, j]), y[row, :, j])
        if k > 1:
            theta, y = _rayleigh_ritz(lambda z: self.apply(kappa, z), y)
        pairs = y.transpose(0, 2, 1)
        m_pairs = self.apply(kappa, y).transpose(0, 2, 1)
        if k == 1:
            theta = _dots(m_pairs, pairs)
        residual = m_pairs - theta[..., None] * pairs
        converged = np.sqrt(_dots(residual, residual)) <= 4.0 * _rounding_floor(dim, np.abs(theta))
        return theta, y, np.all(converged, axis=1)

    def _pairs(self, kappa, floor, k: int) -> tuple:
        """(the number of Ritz values below -floor, theta, y, y^T y) of the
        k growth pairs of each row: a Rayleigh-Ritz step on a fixed trial
        span (:meth:`_ritz_start`), then up to INVERSE_STEPS steps of inverse
        iteration (:meth:`_inverse_step`), over slices of rows whose trial
        spans hold at most BATCH_BYTES; a row's pairs do not depend on its
        slice.  y^T y is taken on the pairs as they lie in the span: a BLAS
        dot product rounds by its strides."""
        n, dim = len(kappa), self.d.size
        low, theta, square = np.zeros(n, dtype=int), np.zeros((n, k)), np.zeros((n, k))
        y = np.zeros((n, dim, k))
        step = max(1, BATCH_BYTES // (8 * dim * (k + 11)))
        for part in (slice(start, start + step) for start in range(0, n, step)):
            kr, fr = kappa[part], floor[part]
            t, v = self._ritz_start(kr, k)
            low[part] = np.count_nonzero(t < -fr[:, None], axis=1)
            t, v = t[:, :k], v[:, :, :k]
            # a row whose pairs the step leaves short of convergence takes
            # another, with the other such rows
            todo = np.arange(len(kr) if k else 0)
            for _ in range(INVERSE_STEPS):
                if not todo.size:
                    break
                t[todo], v[todo], converged = self._inverse_step(kr[todo], fr[todo], t[todo], v[todo])
                todo = todo[~converged]
            theta[part], y[part], square[part] = t, v, _dots(v.transpose(0, 2, 1), v.transpose(0, 2, 1))
        return low, theta, y, square

    def _definite(self, kappa, floor, theta, y, deflated) -> np.ndarray:
        """Whether each row proves mu_{m+1} > floor with its first m =
        ``deflated`` Ritz pairs deflated: Ritz values ``theta``, ascending,
        below -floor, and the columns of its ``y``.

        A class is the rows of one m (and one k), in ascending kappa.  At a
        row, one Cholesky factorization of M + Y diag(|theta| + 2 F) Y^T - F,
        F the row's floor plus the class's largest, proves mu_{m+1} > F less
        the row's floor for rounding (Rump, Verification of positive
        definiteness, BIT 46, 2006; a rank-m update raises no eigenvalue past
        the next one).  Where D + kappa^2 > 0, no positive mu falls as kappa
        grows (Parlett, chapter 15: where x^T (A + kappa^2) x >= 0 the
        Rayleigh quotient of the pencil A + kappa^2 against
        diag(D + kappa^2)^-1 rises), so this proves the class's later rows
        too.  A row where it fails takes the test at its own floor, and the
        next row the class's: one factorization per class, two per failure."""

        k2, s = _squares(kappa).tolist(), self.scale(kappa)

        def factors(row: int, shift: float) -> bool:
            matrix, j = self.matrix(k2[row], s[row], shift), deflated[row]
            matrix += (y[row, :, :j] * (np.abs(theta[row, :j]) + 2.0 * shift)) @ y[row, :, :j].T
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                return False
            return True

        certified = np.zeros(len(kappa), dtype=bool)
        for m in set(deflated.tolist()):
            rows = np.flatnonzero(deflated == m)
            rows, top = rows[np.argsort(kappa[rows], kind="stable")], np.max(floor[rows])
            for i, row in enumerate(rows):
                if factors(row, floor[row] + top):
                    certified[rows[i:]] = True
                    break
                certified[row] = factors(row, floor[row])
        return certified

    def solve(self, kappa, counts: np.ndarray) -> "_SectorRows":
        """The k = ``counts`` growth pairs of each row's M(kappa), and what
        the row proves of the rest of its spectrum, without a spectrum.

        A row with k >= 1 pairs takes them from :meth:`_pairs`; each is
        lifted to v1 = Q (s * y), and its mu, the one a row reports, is the
        Rayleigh quotient of v1 on the unscaled L1 + kappa^2.  The m pairs of
        Ritz value theta below -floor are deflated and :meth:`_definite`
        proves mu_{m+1} > floor; theta_m bounds mu_m from above, so a
        certified row has exactly m mu below -floor and none within the floor
        of zero.  A Ritz value of the trial span below -floor proves one more
        mu below -floor, which a row whose certificate fails may still show.
        ``low`` and ``high`` keep these bounds for :meth:`check_inertia`.
        """
        n, dim = len(kappa), self.d.size
        width = max(1, int(np.max(counts, initial=0)))
        mu, v1 = np.zeros((n, width)), np.zeros((n, width, dim))
        mode, l1_mode = np.zeros((n, dim)), np.zeros((n, dim))
        low, high = np.zeros(n, dtype=int), np.full(n, dim)
        floor = self.floor(kappa)
        for k in sorted(set(counts.tolist())):
            rows = np.flatnonzero(counts == k)
            kr, fr = kappa[rows], floor[rows]
            theta, y = np.zeros((rows.size, 0)), np.zeros((rows.size, dim, 0))
            if k:
                low[rows], theta, y, square = self._pairs(kr, fr, k)
                s = self.scale(kr)
                lifted = self.q @ (s[:, :, None] * y)
                # the lowest mode, the one a row writes, is lifted by a
                # matrix-vector product of its own: a column of the matrix
                # product may differ from it in the last bits, with the
                # blocking of the product
                mode[rows] = lifted[:, :, 0] = (self.q @ (s * y[:, :, 0])[..., None])[..., 0]
                # the Rayleigh quotient on the unscaled L1 + kappa^2 is second
                # order in the error of y, and free of the eps ||M|| of M,
                # which grows like the fourth power of the largest wavenumber.
                # L1 + kappa^2 is applied to one row at a time: a product over
                # the rows would round each row by the blocking of them all
                pairs = lifted.transpose(0, 2, 1)
                for i, (row, k2) in enumerate(zip(rows, _squares(kr).tolist())):
                    l1k = _plus_diagonal(self.l1.copy(), k2)
                    mu[row, :k] = _dots(pairs[i] @ l1k, pairs[i])
                    l1_mode[row] = l1k @ mode[row]
                mu[rows, :k] /= square
                v1[rows, :k] = pairs
            # the certificate speaks of M: it takes the Ritz values on M, not
            # the quotients of the lifted pairs, which the residual gate checks
            m = np.count_nonzero(theta < -fr[:, None], axis=1)
            certified = self._definite(kr, fr, theta, y, m)
            low[rows] = np.maximum(low[rows], m)
            high[rows] = np.where(certified, m, dim)
            if not k and not certified.all():
                failed = rows[~certified]
                low[failed] = self._pairs(kappa[failed], floor[failed], 0)[0]
        return _SectorRows(counts, mu, v1, mode, l1_mode, low, high)

    def _gate(self, kappa, what: str, error, size, mu=None) -> None:
        """NumericalConsistencyError at the worst row unless error <= bound (a
        NaN fails): with ``mu`` a pair's residual, bound max(CROSSCHECK_RTOL
        |mu|, 4 floor) * size; else the probe, bound 4 d eps size."""
        if mu is None:
            bound = 4.0 * _rounding_floor(self.d.size, size)
        else:
            bound = np.maximum(CROSSCHECK_RTOL * np.abs(mu), 4.0 * self.floor(kappa)) * size
        bad = np.flatnonzero(~(error <= bound))
        if not bad.size:
            return
        j = bad[np.argmax(error[bad] / bound[bad])]
        if mu is None:
            check, noun = "spectrum", "error"
        else:
            what, check, noun = f"{what} at mu={mu[j]:.6e}", "residual", "residual"
        raise NumericalConsistencyError(
            f"{what} fails the {check} cross-check at kappa={kappa[j]:g}: "
            f"{noun} {error[j]:.3e} above {bound[j]:.3e}"
        )

    def certify(self, kappa, solved: "_SectorRows") -> None:
        """Every reported number of every row against the unreduced P =
        (L2+k^2)(L1+k^2): each lifted pair by its residual, and M itself by a
        probe.

        The lifted pairs satisfy P v1 = mu v1 to four times the rounding floor
        of the product or CROSSCHECK_RTOL relative to |mu|.  The product is
        applied to v1 unreduced, so an error in Q, in the scaling s or in the
        kappa^2 shift of M shows as a residual r; diag(1/s) Q^T r is the
        residual of y on the symmetric M, which bounds the error of mu
        (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, section 4.5).

        The Cholesky certificate of :meth:`solve` speaks of M, not of P; the
        probe ties M to P: P Q (s * z) = Q (s * (M z)) for the fixed unit z,
        gated at four times the rounding floor of the product times
        ||s * z||, so a wrong Q, s or shift of M fails it on every row, one
        without growth pairs included."""
        row, col = solved.pairs
        k2 = _squares(kappa)
        pair_mu, shift, v1 = solved.mu[row, col], k2[row, None], solved.v1[row, col]
        # (X @ L^T)[i] = L X[i]: each product below applies L to every row of X
        u = v1 @ self.l1.T + shift * v1
        residual = u @ self.l2.T + shift * u - v1 * pair_mu[:, None]
        norms = np.linalg.norm(residual, axis=1), np.linalg.norm(v1, axis=1)
        self._gate(kappa[row], "eigenpair", *norms, mu=pair_mu)

        shift, scale = k2[:, None], self.scale(kappa)
        sz = scale * self.probe
        v = sz @ self.q.T
        u = v @ self.l1.T + shift * v
        mz = sz @ self.a.T + shift * sz
        r = u @ self.l2.T + shift * u - (scale * (scale * mz)) @ self.q.T
        norm = (self.d[-1] + k2) * (self.l1_norm + k2) * np.sqrt(_dots(sz, sz))
        self._gate(kappa, "probe P Q (s z) = Q (s M z)", np.sqrt(_dots(r, r)), norm)

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
        self._gate(kappa, "growth mode", residual, norm, mu=-(rate**2))

    def check_inertia(self, kappa, solved: "_SectorRows") -> None:
        """NumericalConsistencyError where a row proves a count of mu < 0
        other than n(L1 + kappa^2), which Sylvester's law of inertia demands
        of M(kappa): at least ``low`` mu below -floor, or, certified, at most
        ``high`` below +floor (:meth:`solve`)."""
        count, low, high = solved.count, solved.low, solved.high
        bad = np.flatnonzero((low > count) | (high < count))
        if bad.size:
            j = bad[0]
            raise NumericalConsistencyError(
                f"inertia count: {low[j]}..{high[j]} mu < 0 at kappa={kappa[j]:g}, "
                f"n(L1+k^2) = {count[j]}"
            )


@dataclass(frozen=True)
class _SectorRows:
    """One parity sector's reduced solve of the rows of a grid."""

    #: n(L1 + kappa^2) of each row, its number of growth pairs
    count: np.ndarray
    #: the growth pairs' mu of each row, lowest first, padded with zeros to
    #: the widest row
    mu: np.ndarray
    #: the lifted v1 of each growth pair, (rows, pairs, d) likewise
    v1: np.ndarray
    #: each row's lowest growth pair: v1, the mode a row writes, and
    #: (L1 + kappa^2) v1; zero where a row has none
    mode: np.ndarray
    l1_mode: np.ndarray
    #: what each row proves of M(kappa): at least ``low`` mu below -floor
    #: and, where its certificate holds, at most ``high`` mu below +floor
    #: (else ``high`` is d)
    low: np.ndarray
    high: np.ndarray

    @property
    def pairs(self) -> tuple:
        """The (row, column) index of each growth pair in ``mu``."""
        return np.nonzero(np.arange(self.mu.shape[1]) < self.count[:, None])

    @property
    def resolved(self) -> np.ndarray:
        """Whether each row proves exactly its count of mu below -floor and
        none within the floor of zero."""
        return (self.low == self.count) & (self.high == self.count)

    def take(self, rows: np.ndarray) -> "_SectorRows":
        return _SectorRows(*(getattr(self, f.name)[rows] for f in fields(self)))


def _band_end(ops: HillOperators, lo: float, hi: float, falling: bool) -> float:
    """The edge where growth crosses EDGE_LEVEL in [lo, hi], on which
    L2 + kappa^2 >= 0: sqrt(lambda0) if growth falls there, else 0
    (:func:`transverse_threshold`)."""
    lambda0 = transverse_threshold(ops)[0]
    end = float(np.sqrt(max(lambda0, 0.0))) if falling else 0.0
    if not lo - EDGE_RESOLUTION <= end <= hi + EDGE_RESOLUTION:
        raise NumericalConsistencyError(
            f"edge in [{lo:g}, {hi:g}] misses the inertia-law band end {end:.9g}"
        )
    return min(max(end, lo), hi)


def _reduced_rows(basis: ParityBasis, reductions: tuple, kappa) -> list:
    """The rows at every kappa from one reduced solve per parity sector: the
    growth pairs of each M(kappa) and a Cholesky certificate of the rest, no
    spectrum (:meth:`_Reduction.solve`); None at a kappa where the reduction
    does not decide some sector.

    A row's certificate and its Ritz values must prove the count of mu < 0
    that the inertia law reads off L1 (:meth:`_Reduction.check_inertia`).
    Each growth pair is certified by its residual on the unreduced product,
    M by a probe against that product (:meth:`_Reduction.certify`), and the
    written growth mode on its sector's block.  A row's set is its growth
    pairs +-lambda, closed under negation and conjugation by construction,
    so its symmetry defect is 0.0 without being measured.
    """
    kappa = np.asarray(kappa, dtype=float)
    out = [None] * kappa.size
    counts = [reduction.counts(kappa) for reduction in reductions]
    rows = np.flatnonzero(np.all([count >= 0 for count in counts], axis=0))
    kappa = kappa[rows]
    solved = [r.solve(kappa, count[rows]) for r, count in zip(reductions, counts)]
    for reduction, sector_rows in zip(reductions, solved):
        reduction.check_inertia(kappa, sector_rows)
    resolved = np.flatnonzero(np.all([s.resolved for s in solved], axis=0))
    rows, kappa = rows[resolved], kappa[resolved]
    solved = [sector_rows.take(resolved) for sector_rows in solved]

    growth, lead = np.zeros(rows.size), np.full(rows.size, -1)
    rates = []
    for sector, (reduction, sector_rows) in enumerate(zip(reductions, solved)):
        reduction.certify(kappa, sector_rows)
        rate = np.sqrt(np.abs(sector_rows.mu))
        # absent pairs sort last
        rates.append(np.where(sector_rows.mu < 0.0, rate, np.inf))
        # the first sector of largest growth leads
        leads = (sector_rows.count > 0) & (rate[:, 0] > growth)
        growth[leads], lead[leads] = rate[leads, 0], sector
    rates = np.sort(np.concatenate(rates, axis=1), axis=1)
    total = np.sum([sector_rows.count for sector_rows in solved], axis=0)

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
        pairs = rates[i, : total[i]]
        out[at] = RowSolution(
            basis=basis,
            kappa=float(kappa[i]),
            eigenvalues=np.concatenate([-pairs[::-1], pairs]).astype(complex),
            max_real_part=float(growth[i]),
            leading_lambda=None if leading[i] is None else complex(growth[i]),
            leading=leading[i],
            symmetry_defect=0.0,
            path="reduced",
        )
    return out


def _solve_rows(ops: HillOperators, kappa) -> list:
    """The scan's rule at each kappa: the rows of one reduced solve of the
    whole grid per sector where it applies, else each sector's dense
    ``eig``."""
    rows = _reduced_rows(ops.basis, _Reduction.sectors(ops), kappa)
    return [row if row is not None else _dense_row(ops, k) for row, k in zip(rows, kappa)]


def growth_row(ops: HillOperators, kappa: float) -> RowSolution:
    """The row :func:`scan_kappa` computes at kappa, by the scan's own rule.
    Its record is the scan's row at kappa bit for bit, solved alone;
    given the scan's operator store, it reuses the scan's assembly and
    reductions, and the scan's peak row is the one the scan kept."""
    _check_kappa(kappa)
    kappa = float(kappa)
    return ops.memo(("row", kappa), lambda: _solve_rows(ops, [kappa])[0])


def scan_kappa(
    ops: HillOperators,
    kappa_min: float,
    kappa_max: float,
    steps: int,
) -> StabilityScan:
    """Sweep kappa over a uniform grid and locate the instability band edges.

    The verdict is 'transversally unstable' as soon as one grid point has
    max Re lambda above UNSTABLE_THRESHOLD.  Runs are sequential and
    deterministic: identical inputs give identical records.  L1 and L2 come
    from the operator store, which keeps the scan's reductions, and every
    row adds kappa^2 to them.  An edge lies between
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
    _check_kappa(kappa_max)
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
            edges.append(_band_end(ops, lo, hi, falling=f_left > 0.0))
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
    # kept for growth_row: a DNS at the peak reads this row, not a second solve
    ops.memo(("row", peak.kappa), lambda: peak)
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


def transverse_threshold(ops: HillOperators) -> tuple[float, float, float]:
    """(lambda0, K, beta) of S(kappa) = S(0) + kappa^2 I on the store's sector.

    -lambda0 is the lowest eigenvalue of S(0), that of L1 since L1 <= L2, so
    (0, sqrt(lambda0)) is the band of the inertia law; K = sqrt(lambda0) *
    (1 + 1e-6) and S(kappa) >= beta = K^2 - lambda0 for every kappa >= K.
    Where lambda0 <= 0, K = 0 and beta = -lambda0.
    """
    lambda0 = -float(ops.lcal_eigenvalues()[0])
    if lambda0 > 0.0:
        k = float(np.sqrt(lambda0) * (1.0 + 1e-6))
        return lambda0, k, k**2 - lambda0
    return lambda0, 0.0, -lambda0


def verify_hypotheses(
    ops: HillOperators, zero_tolerance: Optional[float] = None
) -> HypothesisReport:
    """Check (H0)-(H4) for S(kappa) on the store's sector.

    H0 self-adjointness of the store's L1 and L2, measured only here on the
    store path; H4 exactly one negative eigenvalue of S(0), simple: its gap
    to the next one is at least 10 zero tolerances (``margin`` is the gap in
    those units, passing at 1).  The spectrum of S(0) is the union of the
    operator store's sector spectra of L2 and L1, that of Lcal, counted by
    :func:`hill.spectrum`.

    S(kappa) = S(0) + kappa^2 * I exactly, so H1-H3 of Rousset and Tzvetkov
    follow from H4 and the lower bound of S(0), and are reported as such:
    H1 uniform positivity S(kappa) >= beta > 0 for kappa >= K
    (:func:`transverse_threshold`), which holds unless lambda0 <= 0; H2 no
    essential spectrum on a periodic cell; H3 S'(kappa) = 2 kappa I, so the
    lowest eigenvalue of S(kappa) increases with kappa.
    """
    # S(0) = diag(L2, L1): its off-diagonal blocks are exact zeros, so the
    # entry scale, the asymmetry and the spectrum all come from L1 and L2,
    # and from their sector blocks: the coupling left out is rounding, and its
    # two halves are exact transposes of each other
    blocks = [m for b in ops.blocks for m in (b.l2, b.l1)]
    scale = max(float(np.max(np.abs(m))) for m in blocks)
    # the blocks are assembled exactly symmetric, so an equality test spares
    # the two d x d temporaries of |m - m.T|; a block holding a NaN is unequal
    # to its transpose and takes the formula
    asym = max(
        0.0 if np.array_equal(m, m.T) else float(np.max(np.abs(m - m.T))) for m in blocks
    )
    h0 = {"passed": asym <= SYMMETRY_RTOL * max(scale, 1e-300), "max_asymmetry": asym}

    lambda0, k, beta = transverse_threshold(ops)
    h1 = {
        "passed": beta > 0.0,
        "lambda0": lambda0,
        "K": k,
        "beta": beta,
        "note": "follows from S(kappa) = S(0) + kappa^2 I: the lowest eigenvalue of "
        "S(kappa) is beta + kappa^2 - K^2 >= beta for kappa >= K",
    }
    h2 = {
        "passed": True,
        "note": "compact period cell: resolvent is finite-dimensional here and the "
        "continuous operator has purely discrete spectrum",
    }
    h3 = {"passed": True, "note": "S'(kappa) = 2 kappa I"}

    s0 = spectrum(ops, "Lcal", zero_tolerance)
    tol = s0.zero_tolerance
    simple, gap = _one_simple_negative(s0)
    h4 = {
        "passed": simple,
        "n_negative": s0.n_negative,
        "lowest": float(s0.eigenvalues[0]),
        "gap": gap,
        "zero_tolerance": float(tol),
        # capped at the largest float, which JSON can write: a zero tolerance
        # near the smallest float would make the ratio overflow
        "margin": min(float(gap / (10.0 * tol)), np.finfo(float).max),
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
