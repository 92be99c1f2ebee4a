"""Independent reference constructions used by the test suite.

Everything here is built from closed-form solutions of the profile equation

    -phi'' + omega*phi - |phi|^alpha * phi = 0      (alpha = 2 throughout)

and from the dispersion relation of the linearization about the constant
state.  None of it goes through the package's solvers, so agreement between
the two is a real cross-check rather than a tautology.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import ellipj, ellipk

TWO_PI = 2.0 * np.pi

# Elliptic parameters for the two reference profiles, frozen after solving
# the period constraints below to full double precision.  The constructors
# re-derive them at import time and verify agreement, so a regression in
# either scipy's special functions or the constraint algebra shows up loudly.
DNOIDAL_M_REF = 0.965570901838567       # alpha=2, omega=1, L=2*pi, even
CNOIDAL_M_REF = 0.9740409951833813      # alpha=2, omega=4, L=2*pi, odd


def _solve_dnoidal_m(omega: float, period: float) -> float:
    """Root of (2K(m)/L)^2 (2 - m) = omega in m, for the positive profile.

    phi(x) = sqrt(2) * b * dn(b x | m) with b = 2 K(m) / L solves the
    cubic profile equation exactly when the constraint holds; dn has
    period 2K in its argument, so the profile has period L.
    """

    def constraint(m):
        return (2.0 * ellipk(m) / period) ** 2 * (2.0 - m) - omega

    return brentq(constraint, 1e-12, 1.0 - 1e-14, xtol=1e-15, rtol=8.9e-16)


def _solve_cnoidal_m(omega: float, period: float) -> float:
    """Root of (4K(m)/L)^2 (2m - 1) = omega in m, for the sign-changing profile.

    phi(x) = sqrt(2m) * b * cn(b x + K(m) | m) with b = 4 K(m) / L solves
    the cubic profile equation; cn has period 4K, and the K(m) offset puts
    a zero of phi at x = 0 so the profile is odd.
    """

    def constraint(m):
        return (4.0 * ellipk(m) / period) ** 2 * (2.0 * m - 1.0) - omega

    return brentq(constraint, 0.5 + 1e-12, 1.0 - 1e-14, xtol=1e-15, rtol=8.9e-16)


def dnoidal_values(x: np.ndarray, omega: float = 1.0, period: float = TWO_PI) -> np.ndarray:
    m = _solve_dnoidal_m(omega, period)
    b = 2.0 * ellipk(m) / period
    _, _, dn, _ = ellipj(b * np.asarray(x, dtype=float), m)
    return np.sqrt(2.0) * b * dn


def cnoidal_values(x: np.ndarray, omega: float = 4.0, period: float = TWO_PI) -> np.ndarray:
    m = _solve_cnoidal_m(omega, period)
    b = 4.0 * ellipk(m) / period
    _, cn, _, _ = ellipj(b * np.asarray(x, dtype=float) + ellipk(m), m)
    return np.sqrt(2.0 * m) * b * cn


def shooting_values(
    x: np.ndarray,
    alpha: float,
    omega: float,
    value0: float,
    slope0: float,
) -> np.ndarray:
    """Integrate phi'' = omega*phi - |phi|^alpha*phi from x=0 with tight RK45.

    A plain initial-value integration of the profile equation; used to check
    computed waves node by node against an ODE solver that shares no code
    with the package.
    """

    def rhs(_, y):
        phi, dphi = y
        return [dphi, omega * phi - np.abs(phi) ** alpha * phi]

    xs = np.asarray(x, dtype=float)
    sol = solve_ivp(
        rhs,
        (0.0, float(xs[-1])),
        [value0, slope0],
        t_eval=xs,
        rtol=1e-12,
        atol=1e-13,
        method="RK45",
        max_step=0.01,
    )
    assert sol.success, sol.message
    return sol.y[0]


# ---------------------------------------------------------------------------
# constant-state analytics


def constant_hill_eigenvalues(which: str, alpha: float, omega: float, period: float, count: int):
    """Sorted eigenvalues of -d_xx + omega - c*omega about phi = omega^(1/alpha).

    c = alpha + 1 for the operator containing the full linearized potential
    and c = 1 for the one containing only |phi|^alpha; on Fourier modes the
    eigenvalues are xi_n^2 + omega - c*omega with multiplicity two for n >= 1.
    """
    c = alpha + 1.0 if which == "L1" else 1.0
    eigs = []
    n = 0
    while len(eigs) < count + 4:
        xi2 = (TWO_PI * n / period) ** 2
        value = xi2 + omega - c * omega
        eigs.append(value)
        if n > 0:
            eigs.append(value)
        n += 1
    return np.sort(np.asarray(eigs))[:count]


def constant_growth_rate(kappa: float, alpha: float, omega: float, period: float) -> float:
    """max Re lambda for the constant state at transverse wavenumber kappa.

    lambda_n^2 = -(xi_n^2 + kappa^2)(xi_n^2 + kappa^2 - alpha*omega); growth
    requires xi_n^2 + kappa^2 < alpha*omega.
    """
    best = 0.0
    n = 0
    while True:
        s = (TWO_PI * n / period) ** 2 + kappa**2
        if s >= alpha * omega and n > 0:
            break
        if s < alpha * omega:
            best = max(best, np.sqrt((alpha * omega - s) * s))
        n += 1
    return best


def basis_matrix_reference(kind: str, length: float, size: int) -> np.ndarray:
    """Synthesis matrix of a parity basis, built one column at a time.

    Frozen copy of the original per-column construction: cosine columns
    cos(2 pi m x / L), m = 0..N/2, then sine columns sin(2 pi m x / L),
    m = 1..N/2-1, each normalized against (L/N) * sum_j.  ``kind`` is
    "cosine", "sine" or "full_fourier".
    """
    x = np.arange(size) * (length / size)
    cols = []
    if kind in ("cosine", "full_fourier"):
        for m in range(size // 2 + 1):
            scale = np.sqrt((1.0 if m in (0, size // 2) else 2.0) / length)
            cols.append(scale * np.cos(2.0 * np.pi * m * x / length))
    if kind in ("sine", "full_fourier"):
        for m in range(1, size // 2):
            cols.append(np.sqrt(2.0 / length) * np.sin(2.0 * np.pi * m * x / length))
    return np.column_stack(cols)


def hill_matrix_reference(kind: str, length: float, size: int, omega: float, potential):
    """Dense -d_xx + omega - q on a parity basis, by the O(N^3) product.

    Frozen copy of the original assembly: diagonal kinetic symbol xi^2 minus
    the potential conjugated by the column-built synthesis matrix,
    mat.T @ (h * q * mat), symmetrized.
    """
    mat = basis_matrix_reference(kind, length, size)
    xi = 2.0 * np.pi / length * np.arange(size // 2 + 1)
    if kind == "sine":
        xi = xi[1:-1]
    elif kind == "full_fourier":
        xi = np.concatenate([xi, xi[1:-1]])
    pot = mat.T @ ((length / size) * np.asarray(potential, dtype=float)[:, None] * mat)
    return np.diag(xi**2 + omega) - 0.5 * (pot + pot.T)


def hill_pair_reference(kind: str, length: float, size: int, alpha: float, omega: float, phi):
    """Dense L1 and L2 = -d_xx + omega - c |phi|^alpha (c = alpha+1, 1) on a
    parity basis, each by :func:`hill_matrix_reference`.
    """
    q = np.abs(np.asarray(phi)) ** alpha
    return tuple(
        hill_matrix_reference(kind, length, size, omega, strength * q)
        for strength in (alpha + 1.0, 1.0)
    )


def symmetry_defect_reference(eigenvalues: np.ndarray) -> float:
    """Distance of a spectrum from closure under lambda -> -lambda and conjugation.

    Frozen copy of the original per-eigenvalue loop behind the scan's
    quadruple-symmetry gate; the vectorized gate must reproduce it bit for bit.
    """
    worst = 0.0
    for lam in eigenvalues:
        worst = max(worst, float(np.min(np.abs(eigenvalues + lam))))
        worst = max(worst, float(np.min(np.abs(eigenvalues - np.conj(lam)))))
    return worst


def reduced_spectrum_reference(l1: np.ndarray, l2: np.ndarray, kappa: float):
    """(mu, floor, growth) of the symmetric lambda^2 reduction on one sector.

    mu holds every eigenvalue of M(kappa) = diag(s) (Q^T L1 Q + kappa^2)
    diag(s), ascending, with L2 = Q D Q^T and s = sqrt(D + kappa^2): one
    ``eigvalsh`` of the whole M, as the scan solved every row before its
    rows took a Cholesky certificate instead.  floor is d eps (max D +
    kappa^2)(max |eig L1| + kappa^2), the rounding floor that every mu of a
    reduced row must clear.  growth is sqrt(-mu) of the lowest mu where it
    is negative (else 0), as those rows computed it: two steps of inverse
    iteration shifted floor / d below mu, from the normalized ones vector,
    give y, and the Rayleigh quotient of v1 = Q (s * y) on L1 + kappa^2,
    here in extended precision, gives mu.  The scan's reported growth must
    reproduce it.
    """
    d, q = np.linalg.eigh(l2)
    k2 = float(kappa) ** 2
    s = np.sqrt(np.maximum(d + k2, 0.0))
    shifted = l1 + k2 * np.eye(d.size)
    m = s[:, None] * (q.T @ shifted @ q) * s[None, :]
    mu = np.linalg.eigvalsh(m)
    l1_norm = float(np.max(np.abs(np.linalg.eigvalsh(l1))))
    floor = d.size * np.finfo(float).eps * (d[-1] + k2) * (l1_norm + k2)
    growth = 0.0
    if mu[0] < 0.0:
        m[np.diag_indices_from(m)] -= mu[0] - floor / d.size
        y = np.ones(d.size) / np.sqrt(d.size)
        for _ in range(2):
            y = np.linalg.solve(m, y)
            y /= np.linalg.norm(y)
        y = y.astype(np.longdouble)
        v = q.astype(np.longdouble) @ (s.astype(np.longdouble) * y)
        quotient = (v @ (shifted.astype(np.longdouble) @ v)) / (y @ y)
        growth = float(np.sqrt(-quotient))
    return mu, floor, growth


# ---------------------------------------------------------------------------
# frozen gather assembly


def _potential_tables_gather(size: int, potential):
    # C_k and S_k of q for k = 0..2N-1 from one rfft, C_k - i S_k = sum_j
    # q_j exp(-2 pi i j k / N)
    half = np.fft.rfft(np.asarray(potential, dtype=float))
    k = np.arange(size)
    folded = np.minimum(k, size - k)
    c = np.tile(half.real[folded], 2)
    s = np.tile(np.where(k <= size // 2, -1.0, 1.0) * half.imag[folded], 2)
    return c, s


def _potential_block_gather(rows, cols, table, sign, size: int):
    # sqrt(w_m w_n) * (table_{m+n} + sign * table_{m-n}) by two d x d index gathers
    def weights(modes):
        return np.where((modes == 0) | (modes == size // 2), 1.0, 2.0)

    weight = np.sqrt(np.outer(weights(rows), weights(cols)))
    hankel = table[np.add.outer(rows, cols)]
    toeplitz = table[np.subtract.outer(rows, cols) + size]
    return weight * (hankel + sign * toeplitz)


def hill_matrix_gather_reference(kind: str, length: float, size: int, omega: float, potential):
    """Dense -d_xx + omega - q on a parity basis, by index gathers.

    Frozen copy of the Toeplitz-plus-Hankel assembly as it stood before the
    blocks were read as sliding windows of the coefficient table: each block
    gathers table entries through d x d index arrays m + n and m - n + N and
    takes the weight sqrt(w_m w_n) from one d x d ``sqrt(outer)``.  The
    package's assembly must reproduce it bit for bit.
    """
    c, s = _potential_tables_gather(size, potential)
    cos_m = np.arange(size // 2 + 1) if kind != "sine" else np.arange(0)
    sin_m = np.arange(1, size // 2) if kind != "cosine" else np.arange(0)
    nc, dim = cos_m.size, cos_m.size + sin_m.size
    pot = np.empty((dim, dim))
    pot[:nc, :nc] = _potential_block_gather(cos_m, cos_m, c, 1.0, size)
    pot[nc:, nc:] = -_potential_block_gather(sin_m, sin_m, c, -1.0, size)
    pot[nc:, :nc] = _potential_block_gather(sin_m, cos_m, s, 1.0, size)
    pot[:nc, nc:] = pot[nc:, :nc].T
    pot *= -0.5 / size
    xi = 2.0 * np.pi / length * np.concatenate([cos_m, sin_m])
    pot[np.diag_indices_from(pot)] += xi**2 + omega
    return pot


def sector_coupling_gather_reference(size: int, potential) -> float:
    """max |entry| of the cosine-sine block of the full-basis matrix, by the
    same frozen index gathers as :func:`hill_matrix_gather_reference`."""
    _, s = _potential_tables_gather(size, potential)
    block = _potential_block_gather(np.arange(1, size // 2), np.arange(size // 2 + 1), s, 1.0, size)
    return float(np.max(np.abs(block))) * (0.5 / size)
