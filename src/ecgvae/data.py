"""Core data types: cycles, records, peak lists, labeled sample sets.

A cardiac cycle is a fixed 400-sample float32 window centered on an R peak.
Records hold one or more leads of a longer strip at a known sampling rate.
Validation happens in the constructors so downstream code can assume shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericsError

CYCLE_LEN = 400
MAX_LEADS = 12


@dataclass
class CardiacCycle:
    """One R-centered beat window of exactly CYCLE_LEN samples (millivolts)."""

    samples: np.ndarray
    lead_id: Optional[int] = None
    source_record: Optional[str] = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float32).reshape(-1)
        if arr.shape[0] != CYCLE_LEN:
            raise DimensionError(
                f"cardiac cycle must have {CYCLE_LEN} samples, got {arr.shape[0]}"
            )
        if not np.isfinite(arr).all():
            raise NumericsError("cardiac cycle contains non-finite samples")
        self.samples = arr


def check_sampling_rate(fs: float) -> float:
    """`fs` as a float; ValueError unless it is finite and above 0."""
    fs = float(fs)
    if not 0.0 < fs < math.inf:
        raise ValueError(f"sampling rate must be positive and finite, got {fs}")
    return fs


@dataclass
class EcgRecord:
    """Multi-lead strip: leads [n_leads, n_samples] float32 at sampling_rate_hz."""

    leads: np.ndarray
    sampling_rate_hz: float = 500.0
    record_id: str = ""

    def __post_init__(self):
        arr = np.asarray(self.leads, dtype=np.float32)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise DimensionError(f"leads must be rank 1 or 2, got rank {arr.ndim}")
        if not 1 <= arr.shape[0] <= MAX_LEADS:
            raise DimensionError(
                f"lead count must be in [1, {MAX_LEADS}], got {arr.shape[0]}"
            )
        if arr.shape[1] < 1:
            raise DimensionError("record has no samples")
        if not np.isfinite(arr).all():
            raise NumericsError("record contains non-finite samples")
        self.sampling_rate_hz = check_sampling_rate(self.sampling_rate_hz)
        self.leads = arr

    @property
    def n_leads(self) -> int:
        return self.leads.shape[0]

    @property
    def n_samples(self) -> int:
        return self.leads.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sampling_rate_hz


@dataclass
class RPeakList:
    """Detector output: strictly increasing sample indices plus provenance."""

    indices: np.ndarray
    detector_name: str = ""
    warning: Optional[str] = None

    def __post_init__(self):
        arr = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        if arr.size and arr.min() < 0:
            raise ValueError("peak indices must be non-negative")
        if arr.size > 1 and not (np.diff(arr) > 0).all():
            raise ValueError("peak indices must be strictly increasing")
        self.indices = arr

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass
class SampleSet:
    """A labeled batch of cycles as one [n, CYCLE_LEN] float32 array."""

    cycles: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.cycles, dtype=np.float32)
        if arr.ndim != 2:
            raise DimensionError(f"cycles must be rank 2, got rank {arr.ndim}")
        if arr.shape[0] < 1:
            raise DimensionError("sample set is empty")
        if not np.isfinite(arr).all():
            raise NumericsError("sample set contains non-finite values")
        self.cycles = arr

    def __len__(self) -> int:
        return int(self.cycles.shape[0])


def as_cycle_array(data) -> np.ndarray:
    """Coerce a SampleSet, list of CardiacCycle, or array into [n, 400] float32."""
    if isinstance(data, SampleSet):
        return data.cycles
    if isinstance(data, np.ndarray):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise DimensionError(f"expected rank-2 cycle array, got rank {arr.ndim}")
        return arr
    cycles = list(data)
    if not cycles:
        raise DimensionError("no cycles given")
    rows = []
    for c in cycles:
        rows.append(c.samples if isinstance(c, CardiacCycle) else
                    CardiacCycle(np.asarray(c)).samples)
    return np.stack(rows).astype(np.float32)
