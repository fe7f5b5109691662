"""Omnidirectional path loss models and their probability-weighted hybrid.

Two model families: a close-in free-space-reference model anchored 1 m from
the transmitter, and a floating-intercept line fitted over a stated distance
range.  The hybrid weighs a LOS and an NLOS model by the analytic LOS
probability, giving a single mean path loss and a distance-dependent
lognormal shadowing spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .los_probability import LosProbParams, p_los_model

SPEED_OF_LIGHT_M_S = 299792458.0

# The close-in model is anchored at this fixed free-space reference distance.
REFERENCE_DISTANCE_M = 1.0

DEFAULT_P_LOS_PARAMS = LosProbParams(27.0, 71.0)


def fspl_at_reference(frequency_hz: float) -> float:
    """Free-space path loss in dB at the 1 m reference distance.

    Raises:
        ValueError: when the frequency is not positive and finite, or so large
            (above about 1.4e307 Hz) that 4 pi f / c overflows.
    """
    if not (frequency_hz > 0 and math.isfinite(frequency_hz)):
        raise ValueError(f"frequency_hz must be positive, got {frequency_hz!r}")
    ratio = 4.0 * math.pi * REFERENCE_DISTANCE_M * frequency_hz / SPEED_OF_LIGHT_M_S
    if not math.isfinite(ratio):
        raise ValueError(f"frequency_hz is too large for a finite free-space path loss, got {frequency_hz!r}")
    return 20.0 * math.log10(ratio)


@dataclass(frozen=True)
class CloseInModel:
    """Close-in reference path loss model: FSPL at 1 m plus a fitted exponent."""

    frequency_hz: float
    exponent: float
    shadow_std_db: float

    def __post_init__(self):
        fspl_at_reference(self.frequency_hz)  # rejects a frequency with no finite 1 m FSPL
        if not (self.exponent > 0 and math.isfinite(self.exponent)):
            raise ValueError(f"exponent must be positive, got {self.exponent!r}")
        if not (self.shadow_std_db >= 0 and math.isfinite(self.shadow_std_db)):
            raise ValueError(f"shadow_std_db must be >= 0, got {self.shadow_std_db!r}")


@dataclass(frozen=True)
class FloatingInterceptModel:
    """Least-squares line in log-distance with a free intercept.

    ``valid_range_m`` records the distance span the fit covered; evaluations
    outside it are flagged as extrapolated.
    """

    intercept_db: float
    slope: float
    shadow_std_db: float
    valid_range_m: tuple[float, float] = (30.0, 200.0)

    def __post_init__(self):
        lo, hi = self.valid_range_m
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
            raise ValueError(f"valid_range_m must satisfy 0 < min < max, got {self.valid_range_m!r}")
        if not (self.shadow_std_db >= 0 and math.isfinite(self.shadow_std_db)):
            raise ValueError(f"shadow_std_db must be >= 0, got {self.shadow_std_db!r}")
        if not (math.isfinite(self.intercept_db) and math.isfinite(self.slope)):
            raise ValueError("intercept_db and slope must be finite")


@dataclass(frozen=True)
class HybridModel:
    """A LOS close-in model and an NLOS model weighted by LOS probability."""

    los: CloseInModel
    nlos: CloseInModel | FloatingInterceptModel
    p_los: LosProbParams


@dataclass(frozen=True)
class ParameterPreset:
    """Published parameters for one carrier frequency and environment."""

    label: str
    frequency_hz: float
    los: CloseInModel
    nlos_close_in: CloseInModel
    nlos_floating: FloatingInterceptModel


PRESETS = {
    "28GHz-NYC": ParameterPreset(
        label="28GHz-NYC",
        frequency_hz=28e9,
        los=CloseInModel(28e9, 2.1, 3.6),
        nlos_close_in=CloseInModel(28e9, 3.4, 9.7),
        nlos_floating=FloatingInterceptModel(79.2, 2.6, 9.6, (30.0, 200.0)),
    ),
    "73GHz-NYC": ParameterPreset(
        label="73GHz-NYC",
        frequency_hz=73e9,
        los=CloseInModel(73e9, 2.0, 4.8),
        nlos_close_in=CloseInModel(73e9, 3.4, 7.9),
        nlos_floating=FloatingInterceptModel(80.6, 2.9, 7.8, (30.0, 200.0)),
    ),
}


def get_preset(label: str) -> ParameterPreset:
    try:
        return PRESETS[label]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {label!r}; available: {known}") from None


def hybrid_from_preset(
    label: str,
    nlos: str = "close-in",
    p_los: LosProbParams | None = None,
) -> HybridModel:
    """Assemble a hybrid model from a preset, choosing the NLOS family.

    ``nlos`` is "close-in" or "floating".  The LOS probability defaults to the
    pooled NYC parameters (breakpoint 27 m, decay 71 m).
    """
    preset = get_preset(label)
    if nlos == "close-in":
        nlos_model = preset.nlos_close_in
    elif nlos == "floating":
        nlos_model = preset.nlos_floating
    else:
        raise ValueError(f"nlos must be 'close-in' or 'floating', got {nlos!r}")
    return HybridModel(preset.los, nlos_model, p_los or DEFAULT_P_LOS_PARAMS)


def _scalar_or_array(values, d_m):
    return float(values) if np.ndim(d_m) == 0 else values


def _log_distance_mean(model: CloseInModel | FloatingInterceptModel, d: np.ndarray):
    """Mean path loss of either model family at distances already checked, dB."""
    if isinstance(model, CloseInModel):
        return fspl_at_reference(model.frequency_hz) + 10.0 * model.exponent * np.log10(d)
    return model.intercept_db + 10.0 * model.slope * np.log10(d)


def mean_pl_close_in(model: CloseInModel, d_m):
    """Mean path loss of a close-in model, dB.  Accepts scalars or arrays.

    Raises:
        ValueError: when any distance is below the 1 m reference.
    """
    d = np.asarray(d_m, dtype=float)
    if not np.all(d >= REFERENCE_DISTANCE_M):  # NaN fails too
        raise ValueError(f"distances must be >= {REFERENCE_DISTANCE_M:g} m")
    return _scalar_or_array(_log_distance_mean(model, d), d_m)


def mean_pl_floating(model: FloatingInterceptModel, d_m):
    """Mean path loss of a floating-intercept model, dB.

    Returns (value, extrapolated); the flag is set for distances outside the
    model's valid range (endpoints count as in range).
    """
    d = np.asarray(d_m, dtype=float)
    if not np.all(d > 0):  # NaN fails too
        raise ValueError("distances must be positive")
    lo, hi = model.valid_range_m
    out = _log_distance_mean(model, d)
    extrapolated = (d < lo) | (d > hi)
    if d.ndim == 0:
        return float(out), bool(extrapolated)
    return out, extrapolated


def _hybrid(model: HybridModel, d_m):
    """(P_LOS, mean, spread) of the hybrid model: one distance check, one p_los_model."""
    d = np.asarray(d_m, dtype=float)
    if not np.all(d >= REFERENCE_DISTANCE_M):  # NaN fails too
        raise ValueError(f"distances must be >= {REFERENCE_DISTANCE_M:g} m")
    p = np.asarray(p_los_model(d, model.p_los))
    mean = p * _log_distance_mean(model.los, d) + (1.0 - p) * _log_distance_mean(model.nlos, d)
    # np.square, not ** 2: libm pow on a Python float can differ in the last bit
    var = np.square(p * model.los.shadow_std_db) + np.square((1.0 - p) * model.nlos.shadow_std_db)
    return p, mean, np.sqrt(var)


def mean_pl_hybrid(model: HybridModel, d_m):
    """Probability-weighted mean path loss, dB.  Accepts scalars or arrays.

    The LOS and NLOS means are combined with weights P and 1-P from the LOS
    probability model, so the result always lies between the two branches.
    """
    return _scalar_or_array(_hybrid(model, d_m)[1], d_m)


def shadow_sigma_hybrid(model: HybridModel, d_m):
    """Distance-dependent shadowing spread of the hybrid model, dB.

    The shadowing term is a probability-weighted sum of two independent
    zero-mean normal components, so the variances combine with squared
    weights.  Accepts scalars or arrays.
    """
    return _scalar_or_array(_hybrid(model, d_m)[2], d_m)


def _shadowed(model: HybridModel, p, mean, z_los: np.ndarray, z_nlos: np.ndarray) -> np.ndarray:
    """Weight standard normal LOS and NLOS draws into shadowed path loss, in place.

    Returns ``z_los``, now ``s_los * z_los * p + mean + s_nlos * z_nlos * (1 - p)``
    summed in that order; ``z_nlos`` is overwritten too.  ``s * z`` is what
    ``rng.normal(0, s)`` returns for the same draw ``z``, bit for bit.
    """
    z_los *= model.los.shadow_std_db
    z_los *= p
    z_los += mean
    z_nlos *= model.nlos.shadow_std_db
    z_nlos *= 1.0 - p
    z_los += z_nlos
    return z_los


def sample_pl(model: HybridModel, d_m, rng: np.random.Generator, size: int | None = None):
    """Draw shadowed path loss samples at one distance, dB.

    Two independent zero-mean normal draws (LOS and NLOS spreads, all LOS
    draws first) are weighted by P and 1-P and added to the hybrid mean.
    ``size=None`` returns a float; an integer returns that many samples.
    Identical generators give identical output.
    """
    p, mean, _ = _hybrid(model, float(d_m))
    shape = () if size is None else (int(size),)
    z_los = rng.standard_normal(shape)
    z_nlos = rng.standard_normal(shape)
    out = _shadowed(model, p, mean, z_los, z_nlos)
    return float(out) if size is None else out
