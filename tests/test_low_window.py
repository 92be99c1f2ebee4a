"""Certified low windows of the Hill blocks against their whole spectra.

A sector block's low window (``hill.low_window``) proves its lowest
eigenvalues, a cut below which exactly those lie, and its largest eigenvalue
from the Ritz pairs of a leading and a trailing Fourier block, or is the
whole ``eigvalsh`` spectrum where the bounds do not reach the rounding floor
d eps max|lambda|.  Each test here holds a window against ``eigvalsh`` of the
whole block: on the verify and README waves, the odd omega = 4 wave and the
constant state at N = 64 ... 1024, and on small matrices built so that a
window without its Gershgorin check, its band or its residual bound would
claim a wrong spectrum.
"""

import numpy as np
import pytest

from gnlstab import cli
from gnlstab.errors import GnlstabError, ParameterError
from gnlstab.hill import (
    SectorBlock,
    _counts,
    _ritz_end,
    hill_operators,
    low_window,
    spectrum,
)
from gnlstab.spectral import COSINE, ParityBasis, _rounding_floor, build_grid
from gnlstab.waves import (
    constant_wave,
    newton_refine,
    solve_wave,
    tau_for_amplitude,
    wave_at_resolution,
)

TWO_PI = 2.0 * np.pi
SIZES = (64, 128, 256, 512, 1024)


@pytest.fixture(scope="module")
def waves(odd_wave):
    """The verify workload's wave (amplitude 1.5, L = 2 pi, solved at N =
    512), the README wave (L = 6.2831853, N = 128), the odd omega = 4 fixture
    wave and the constant state, by name."""
    verify = tau_for_amplitude(2.0, 1.0, TWO_PI, "even", 1.5, 512)
    readme = tau_for_amplitude(2.0, 1.0, 6.2831853, "even", 1.5, 128)
    return {
        "verify": solve_wave(verify.params, 512, verify),
        "readme": solve_wave(readme.params, 128, readme),
        "odd": odd_wave,
        "const": constant_wave(2.0, 1.0, TWO_PI, 64),
    }


def at_size(wave, size):
    """The wave on N = ``size``: polished by Newton, or only reinterpolated
    where Newton does not converge there."""
    moved = wave_at_resolution(wave, size)
    try:
        return newton_refine(moved)
    except GnlstabError:
        return moved


def floor_of(eigenvalues):
    return _rounding_floor(eigenvalues.size, np.max(np.abs(eigenvalues)))


def check_window(window, whole):
    """The window's claims hold for the ascending ``whole`` spectrum."""
    n, floor = window.values.size, floor_of(whole)
    assert n >= 1
    assert np.max(np.abs(window.values - whole[:n])) <= floor
    assert abs(window.top - whole[-1]) <= floor
    # exactly the window's values lie below its cut
    assert np.count_nonzero(whole < window.cut) == n
    if window.cut == np.inf:
        assert window.values.tobytes() == whole.tobytes()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", ["verify", "readme", "odd", "const"])
def test_each_block_window_holds_against_its_whole_spectrum(waves, name, size):
    ops = hill_operators(at_size(waves[name], size), "full")
    for block in ops.blocks:
        for which in ("L1", "L2"):
            window = block.window(which)
            check_window(window, np.linalg.eigvalsh(block.l1 if which == "L1" else block.l2))
            # the ladder starts at order 16 and stops at d/4: no window below d = 64,
            # and the smooth even waves need no whole spectrum from N = 512 on
            if block.basis.dimension < 64:
                assert window.cut == np.inf
            if name in ("verify", "readme", "const") and size >= 512:
                assert window.cut < np.inf


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", ["verify", "readme", "odd", "const"])
def test_low_spectra_count_as_the_whole_spectra(waves, name, size):
    full = hill_operators(at_size(waves[name], size), "full")
    for ops in (full, full.restrict("even"), full.restrict("odd")):
        for which in ("L1", "L2", "Lcal"):
            whole, low = spectrum(ops, which), spectrum(ops, which, lowest=2)
            floor = floor_of(whole.eigenvalues)
            n = low.eigenvalues.size
            assert n >= 2
            assert np.max(np.abs(low.eigenvalues - whole.eigenvalues[:n])) <= floor
            assert abs(low.zero_tolerance - whole.zero_tolerance) <= floor
            assert (low.n_negative, low.kernel_dimension, low.ambiguous) == (
                whole.n_negative, whole.kernel_dimension, whole.ambiguous,
            )
            tol = whole.zero_tolerance
            for t in (0.5 * tol, tol, 2.0 * tol):
                assert _counts(low.eigenvalues, t) == _counts(whole.eigenvalues, t)


def test_the_bounds_choose_the_leading_order(waves):
    # on the odd omega = 4 wave at N = 512 the leading 16 and 32 modes do not
    # prove L1's low end on the cosine block to the rounding floor: the
    # window grows to the leading 64, which prove its 32 lowest values
    cosine = hill_operators(wave_at_resolution(waves["odd"], 512), "full").blocks[0]
    a, whole = cosine.l1, np.linalg.eigvalsh(cosine.l1)
    floor, rows = floor_of(whole), np.abs(cosine.l1).sum(axis=1)
    for size in (16, 32):
        values, bound, _ = _ritz_end(a, rows, size, size // 2, 1.0)
        assert bound > floor
    window = cosine.window("L1")
    assert window.values.size == 32
    check_window(window, whole)
    # the first order's values are off by far more than the floor
    values, _, _ = _ritz_end(a, rows, 16, 8, 1.0)
    assert np.max(np.abs(values - whole[:8])) > 1e3 * floor


def synthetic_block(a):
    """A sector block holding ``a`` as both L1 and L2."""
    basis = ParityBasis(COSINE, build_grid(TWO_PI, 2 * (a.shape[0] - 1)))
    return SectorBlock(basis, a, a)


def test_a_low_eigenvalue_on_the_trailing_modes_is_not_missed():
    # diag(1, 2, ..., 65) with its last entry -5 and no coupling: the leading
    # block sees only 1, 2, ...; the trailing block's Gershgorin bound -5 lies
    # below every cut the leading Ritz values offer, so no window proves a
    # low end and the whole spectrum, -5 first, is read
    a = np.diag(np.arange(1.0, 66.0))
    a[-1, -1] = -5.0
    window = low_window(a, lambda: np.linalg.eigvalsh(a))
    assert window.values[0] == -5.0 and window.cut == np.inf
    check_window(window, np.linalg.eigvalsh(a))
    low = spectrum(hill_operators_of(a), "L1", lowest=2)
    assert low.eigenvalues[0] == -5.0


def hill_operators_of(a):
    """A one-block store whose L1 and L2 are ``a``."""
    store = hill_operators(constant_wave(2.0, 1.0, TWO_PI, 2 * (a.shape[0] - 1)), "even")
    return type(store)(store.wave, store.sector, (synthetic_block(a),))


def test_an_eigenvalue_pulled_below_its_ritz_value_is_counted():
    # diag(0, 1, ..., 15, 116, 117, ..., 164) with mode 8 (Ritz value 8, the first
    # above the 8 values the leading 16 modes claim) coupled by 5 to mode 16
    # (diagonal 116): the pair's lower eigenvalue is 8 - 25/108 + ..., so 9
    # eigenvalues lie below 8.  The band e^2/(g - theta) = 25/108 puts the cut
    # below that eigenvalue; a cut at the Ritz value 8 would claim 8 of them
    d = 65
    a = np.diag(np.r_[np.arange(16.0), 100.0 + np.arange(16.0, d)])
    a[8, 16] = a[16, 8] = 5.0
    whole = np.linalg.eigvalsh(a)
    assert np.count_nonzero(whole < 8.0) == 9
    window = low_window(a, lambda: whole)
    assert window.values.size == 8 and window.cut < whole[8] < 8.0
    check_window(window, whole)


def test_a_coupled_ritz_value_is_proven_or_left_to_the_whole_spectrum():
    # the same block with mode 3, a claimed value, coupled by 1e-3 to mode
    # 16: its Ritz value 3 lies about 9e-9 above the eigenvalue, past the
    # rounding floor, so the residual bound refutes every order and the
    # whole spectrum is read; coupled by 1e-9 the bound proves it
    d = 65
    for coupling, windowed in ((1e-3, False), (1e-9, True)):
        a = np.diag(np.r_[np.arange(16.0), 100.0 + np.arange(16.0, d)])
        a[3, 16] = a[16, 3] = coupling
        whole = np.linalg.eigvalsh(a)
        window = low_window(a, lambda: whole)
        assert (window.cut < np.inf) == windowed
        check_window(window, whole)


def test_a_wide_zero_tolerance_reads_the_whole_spectrum(waves):
    # a tolerance past every block's cut: the counts need the spectrum up to
    # twice it, which only the whole spectra hold
    ops = hill_operators(waves["verify"], "full")
    whole = spectrum(ops, "L1", zero_tolerance=500.0)
    low = spectrum(ops, "L1", zero_tolerance=500.0, lowest=2)
    assert low.eigenvalues.tobytes() == whole.eigenvalues.tobytes()
    assert (low.n_negative, low.kernel_dimension) == (whole.n_negative, whole.kernel_dimension)
    # the default tolerance is in reach of the windows
    assert spectrum(ops, "L1", lowest=2).eigenvalues.size < ops.basis.dimension


@pytest.mark.parametrize("lowest", [0, -1, 1.5, True, "2", None])
def test_lowest_is_a_count_of_the_spectrum(even_ops, lowest):
    d = even_ops.basis.dimension
    if lowest is None:
        assert spectrum(even_ops, "L1", lowest=lowest).eigenvalues.size == d
        return
    with pytest.raises(ParameterError, match="lowest must be an integer"):
        spectrum(even_ops, "L1", lowest=lowest)


def test_lowest_is_bounded_by_the_spectrum_size(even_ops):
    d = even_ops.basis.dimension
    assert spectrum(even_ops, "L1", lowest=d).eigenvalues.size == d
    assert spectrum(even_ops, "Lcal", lowest=2 * d).eigenvalues.size == 2 * d
    for which, size in (("L1", d), ("Lcal", 2 * d)):
        with pytest.raises(ParameterError, match=rf"\[1, {size}\]"):
            spectrum(even_ops, which, lowest=size + 1)


@pytest.mark.parametrize("size", [128, 256])
def test_certificate_reads_low_windows_to_the_floor(waves, size):
    # both stores' ten lowest values of Lcal, from their low windows, against
    # the whole spectra of the same stores
    ops = hill_operators(at_size(waves["readme"], size), "full")
    report = cli._certificate(ops)
    coarse = ops.low_spectrum("Lcal", count=None).values
    assert np.max(np.abs(np.array(report["lowest_eigenvalues"]) - coarse[:10])) <= floor_of(coarse)
    fine = hill_operators(newton_refine(wave_at_resolution(ops.wave, 2 * size)), "full")
    fine = fine.low_spectrum("Lcal", count=None).values
    deltas = np.abs(coarse[:10] - fine[:10])
    assert np.max(np.abs(np.array(report["doubling_deltas"]) - deltas)) <= 2.0 * floor_of(fine)
    assert report["passed"] and report["max_delta"] <= cli.CERTIFICATE_TOL
