"""Regression tests pinning behavior at the float-guard boundary that
RP001 flagged: brown_energy_fraction's zero-energy guard
(market/green.py)."""

import numpy as np
import pytest

from repro.market.green import brown_energy_fraction, solar_profile


class TestBrownFractionZeroBoundary:
    def test_exact_zero_energy(self):
        energy = np.zeros((2, 4))
        assert brown_energy_fraction([None, None], energy) == 0.0

    def test_negative_zero_sum(self):
        energy = np.full((1, 3), -0.0)
        assert brown_energy_fraction([None], energy) == 0.0

    def test_tiny_but_real_energy_still_computes(self):
        # A denormal-scale total must not be treated as zero: the ratio
        # is still exactly defined (all brown here).
        energy = np.full((1, 2), 1e-300)
        assert brown_energy_fraction([None], energy) == pytest.approx(1.0)

    def test_mixed_green_ratio_unchanged(self):
        profile = solar_profile(peak_coverage=0.5, num_slots=24)
        energy = np.ones((1, 24))
        frac = brown_energy_fraction([profile], energy)
        expected = float(np.mean(1.0 - profile.availability))
        assert frac == pytest.approx(expected, rel=1e-12)
        assert 0.0 < frac < 1.0
