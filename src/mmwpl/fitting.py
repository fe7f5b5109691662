"""Least-squares estimation of path loss model parameters from scatter data.

Close-in fits have a single free slope through the fixed 1 m free-space
anchor and reduce to a closed form.  Floating-intercept fits are ordinary
least squares in log-distance.  Shadowing is reported as the root mean square
residual about the fitted line (population convention, divisor N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .los_probability import _rows, _table
from .pathloss import REFERENCE_DISTANCE_M, CloseInModel, FloatingInterceptModel, fspl_at_reference

CONDITIONS = ("LOS", "NLOS")

SAMPLES_CSV_HEADER = "d_m,pl_db,condition"


@dataclass(frozen=True)
class PathLossSample:
    """One measured path loss value at a T-R separation, labeled LOS or NLOS."""

    distance_m: float
    path_loss_db: float
    condition: str

    def __post_init__(self):
        if not (self.distance_m >= REFERENCE_DISTANCE_M and math.isfinite(self.distance_m)):
            raise ValueError(f"distance_m must be >= {REFERENCE_DISTANCE_M:g} m, got {self.distance_m!r}")
        if not math.isfinite(self.path_loss_db):
            raise ValueError(f"path_loss_db must be finite, got {self.path_loss_db!r}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")


def _columns(samples):
    d = np.array([s.distance_m for s in samples], dtype=float)
    pl = np.array([s.path_loss_db for s in samples], dtype=float)
    return d, pl


def fit_close_in(samples: "list[PathLossSample]", frequency_hz: float) -> CloseInModel:
    """Fit the close-in exponent and shadowing spread.

    With a = 10 log10(d) and b = PL - FSPL(1 m), the least-squares exponent is
    sum(a*b) / sum(a*a), the unique zero of the squared-error gradient.

    Raises:
        ValueError: with fewer than 2 samples or when every distance equals
            1 m (zero design variance).
    """
    if len(samples) < 2:
        raise ValueError("fit requires at least 2 samples")
    d, pl = _columns(samples)
    a = 10.0 * np.log10(d)
    b = pl - fspl_at_reference(frequency_hz)
    denom = float(np.sum(a * a))
    if denom == 0.0:
        raise ValueError("all distances equal the 1 m reference; exponent is undetermined")
    exponent = float(np.sum(a * b)) / denom
    residuals = b - exponent * a
    sigma = float(np.sqrt(np.mean(residuals**2)))
    return CloseInModel(frequency_hz, exponent, sigma)


def fit_floating(samples: "list[PathLossSample]") -> FloatingInterceptModel:
    """Ordinary least squares of path loss on 10 log10(d).

    The returned model's valid range is the span of the sample distances.

    Raises:
        ValueError: with fewer than 2 samples or when all distances coincide
            (rank-deficient design).
    """
    if len(samples) < 2:
        raise ValueError("fit requires at least 2 samples")
    d, pl = _columns(samples)
    x = 10.0 * np.log10(d)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ValueError("all sample distances coincide; the design matrix is rank deficient")
    slope = float(np.sum(xc * (pl - pl.mean()))) / sxx
    intercept = float(pl.mean() - slope * x.mean())
    residuals = pl - (intercept + slope * x)
    sigma = float(np.sqrt(np.mean(residuals**2)))
    return FloatingInterceptModel(intercept, slope, sigma, (float(d.min()), float(d.max())))


def samples_from_csv(text: str) -> "list[PathLossSample]":
    """Parse measurement scatter from CSV with header d_m,pl_db,condition.

    Rows whose path loss field is empty or NaN mark locations where no signal
    could be measured; they are skipped rather than treated as values.  At
    most MAX_GRID_POINTS rows are accepted, counted before any is parsed.

    Raises:
        ValueError: on a wrong header, too many rows or malformed rows.
    """
    out = []
    for fields in _rows(text, SAMPLES_CSV_HEADER, "samples"):
        distance, path_loss, condition = (f.strip() for f in fields)
        if path_loss == "" or path_loss.lower() == "nan":
            continue
        try:
            sample = PathLossSample(float(distance), float(path_loss), condition)
        except ValueError as exc:
            raise ValueError(f"malformed samples CSV row {','.join(fields)!r}: {exc}") from None
        out.append(sample)
    return out


def samples_to_csv(samples: "list[PathLossSample]") -> str:
    return _table(SAMPLES_CSV_HEADER, [s.distance_m for s in samples], [s.path_loss_db for s in samples],
                  [s.condition for s in samples])
