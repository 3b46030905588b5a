"""Machine fingerprinting and memory sampling for benchmark records.

A ``BENCH_*.json`` record is only comparable to another when both runs
describe the hardware and toolchain they ran on.  The fingerprint is
deliberately built from *stable* facts (platform, interpreter, library
versions, CPU count) — nothing that varies run to run — so two records
from the same machine carry identical ``machine`` sections and the
comparison layer can decide whether absolute wall times are meaningful
to compare.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Union

import numpy as np

__all__ = ["machine_fingerprint", "peak_rss_mb"]

Fingerprint = Dict[str, Union[str, int]]

try:  # resource is POSIX-only; benchmarks degrade gracefully without it.
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]


def machine_fingerprint() -> Fingerprint:
    """Stable description of the host, interpreter, and numeric stack."""
    try:
        import scipy
        scipy_version = str(scipy.__version__)
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        scipy_version = "absent"
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": int(os.cpu_count() or 1),
        "numpy": str(np.__version__),
        "scipy": scipy_version,
    }


def peak_rss_mb() -> float:
    """Peak resident-set size of this process so far, in MiB.

    Sampled from ``getrusage`` — this is a *lifetime* high-water mark,
    so a scenario's recorded peak includes whatever the process touched
    before it ran; ``repro bench`` therefore runs each scenario in a
    fresh child process.  Returns 0.0 on platforms without the
    ``resource`` module.
    """
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0.0
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0
