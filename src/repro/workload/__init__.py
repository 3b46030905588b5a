"""Workload substrate.

The paper evaluates on (a) synthetic fixed arrival-rate sets (§V,
Table II), (b) a 1998 World Cup access-log day replayed at four
front-ends (§VI, Fig. 5), and (c) a 7-hour Google cluster trace (§VII).
Neither raw trace ships offline, so this package provides parametric
synthesizers that reproduce their qualitative shapes, plus the paper's
own trace manipulations (time-shift to fabricate extra request types,
duplication) and the arrival prediction hooks mentioned in §III.
"""

from repro.workload.traces import WorkloadTrace
from repro.workload.arrivals import (
    diurnal_rates,
    burst_overlay,
    poisson_counts,
    mmpp_rates,
)
from repro.workload.worldcup import worldcup_like_trace
from repro.workload.googletrace import google_like_trace
from repro.workload.prediction import EWMAPredictor, KalmanFilterPredictor

__all__ = [
    "WorkloadTrace",
    "diurnal_rates",
    "burst_overlay",
    "poisson_counts",
    "mmpp_rates",
    "worldcup_like_trace",
    "google_like_trace",
    "EWMAPredictor",
    "KalmanFilterPredictor",
]
