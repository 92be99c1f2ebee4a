"""The even alpha = 2 wave against its closed form (``exact.py``): lambda0,
the lowest eigenvalue of -L1 and the end of the transverse band."""

import numpy as np
import pytest

import exact
import oracles
from gnlstab.hill import hill_operators
from gnlstab.scan import EDGE_RESOLUTION, scan_kappa, transverse_threshold
from gnlstab.spectral import _rounding_floor
from gnlstab.waves import solve_wave, wave_at_resolution

EPS = np.finfo(float).eps


def test_the_dn_parameter_matches_the_oracles_root():
    # the root in p = 1 - m through ellipkm1 against oracles' root in m
    # through ellipk, at the fixture wave's omega = 1 and L = 2 pi
    p, b = exact.dn_wave(1.0, oracles.TWO_PI)
    assert abs((1.0 - p) - oracles.DNOIDAL_M_REF) <= 4 * EPS
    assert abs(b**2 * (1.0 + p) - 1.0) <= 4 * EPS


@pytest.mark.parametrize("size", [32, 64, 128, 256, 512])
def test_lambda0_is_the_lame_ground_state(even_wave, size):
    # transverse_threshold's lambda0 is the exact one to one rounding floor
    # d eps max|lambda| of the spectrum it reads; Newton converges up to
    # N = 128, so N = 256 and 512 take the N = 128 wave reinterpolated
    if size <= 128:
        wave = even_wave if size == 128 else solve_wave(even_wave.params, size)
    else:
        wave = wave_at_resolution(even_wave, size)
    ops = hill_operators(wave)
    window = ops.low_spectrum("Lcal")
    floor = _rounding_floor(ops.basis.dimension, float(np.max(np.abs(window.extremes))))
    lambda0 = exact.dn_lambda0(wave.params.omega, wave.params.period)
    assert abs(transverse_threshold(ops)[0] - lambda0) <= floor


def test_the_readme_band_edge_is_sqrt_lambda0(even_ops):
    # the README grid, 40 rows on [0.05, 1.8]: growth from the first row
    # falls below EDGE_LEVEL once, at the exact sqrt(lambda0)
    scan = scan_kappa(even_ops, 0.05, 1.8, 40)
    edge = np.sqrt(exact.dn_lambda0(even_ops.wave.params.omega, even_ops.wave.params.period))
    assert len(scan.band_edges) == 1
    assert abs(scan.band_edges[0] - edge) <= EDGE_RESOLUTION
