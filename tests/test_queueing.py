"""Tests for the analytic queueing models (paper Eq. 1 and extensions)."""

import numpy as np
import pytest

from repro.queueing.mm1 import (
    MM1Queue,
    mm1_max_rate,
    mm1_mean_delay,
    mm1_required_capacity,
)


class TestMM1Formulas:
    def test_mean_delay_matches_eq1(self):
        # R = 1/(mu_eff - lambda)
        assert mm1_mean_delay(10.0, 8.0) == pytest.approx(0.5)

    def test_mean_delay_unstable_is_inf(self):
        assert mm1_mean_delay(10.0, 10.0) == np.inf
        assert mm1_mean_delay(10.0, 12.0) == np.inf

    def test_mean_delay_vectorized(self):
        out = mm1_mean_delay(np.array([10.0, 10.0]), np.array([8.0, 11.0]))
        assert out[0] == pytest.approx(0.5)
        assert out[1] == np.inf

    def test_required_capacity_inverts_delay(self):
        mu = mm1_required_capacity(arrival_rate=8.0, deadline=0.5)
        assert mm1_mean_delay(mu, 8.0) == pytest.approx(0.5)

    def test_max_rate_inverts_delay(self):
        lam = mm1_max_rate(service_rate=10.0, deadline=0.5)
        assert mm1_mean_delay(10.0, lam) == pytest.approx(0.5)

    def test_max_rate_clips_at_zero(self):
        # A server that cannot serve within the deadline admits nothing.
        assert mm1_max_rate(service_rate=1.0, deadline=0.5) == 0.0

    def test_roundtrip_capacity_and_rate(self):
        for lam, d in [(5.0, 0.1), (100.0, 0.01), (0.5, 2.0)]:
            mu = mm1_required_capacity(lam, d)
            assert mm1_max_rate(mu, d) == pytest.approx(lam)


class TestMM1Queue:
    def test_basic_metrics(self):
        q = MM1Queue(service_rate=10.0, arrival_rate=8.0)
        assert q.utilization == pytest.approx(0.8)
        assert q.is_stable
        assert q.mean_sojourn_time == pytest.approx(0.5)
        assert q.mean_queue_length == pytest.approx(4.0)
        assert q.mean_waiting_time == pytest.approx(0.4)

    def test_littles_law(self):
        q = MM1Queue(service_rate=7.0, arrival_rate=3.0)
        # L = lambda * W
        assert q.mean_queue_length == pytest.approx(
            q.arrival_rate * q.mean_sojourn_time
        )

    def test_unstable_queue(self):
        q = MM1Queue(service_rate=5.0, arrival_rate=5.0)
        assert not q.is_stable
        assert q.mean_sojourn_time == np.inf
        assert q.mean_queue_length == np.inf

    def test_sojourn_quantile(self):
        q = MM1Queue(service_rate=10.0, arrival_rate=8.0)
        # Median of Exp(rate=2) is ln(2)/2.
        assert q.sojourn_time_quantile(0.5) == pytest.approx(np.log(2) / 2)

    def test_quantile_bounds(self):
        q = MM1Queue(10.0, 1.0)
        with pytest.raises(ValueError):
            q.sojourn_time_quantile(1.0)

    def test_delay_violation_probability(self):
        q = MM1Queue(service_rate=10.0, arrival_rate=8.0)
        assert q.delay_violation_probability(0.5) == pytest.approx(np.exp(-1.0))

    def test_violation_probability_unstable(self):
        assert MM1Queue(5.0, 6.0).delay_violation_probability(1.0) == 1.0
