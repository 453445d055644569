"""The open-loop arrival process, shared by the load driver and the twin.

:class:`ArrivalShape` is λ(t) in wall-clock seconds and its thinning
sampler.  It lives apart from :mod:`repro.serve.loadclient` because it
is pure: :mod:`repro.calibrate.twin` and calibration draw the same
schedules without loading asyncio or the driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.rng import DeterministicRng


@dataclass(frozen=True)
class ArrivalShape:
    """λ(t) for the open-loop process, in wall-clock seconds.

    The same composition as the fleet's
    :class:`~repro.fleet.overload.OverloadConfig`: a base rate, a
    diurnal sine, and a flash-crowd multiplier over a window.
    """

    #: base arrival rate, requests/second
    rate_rps: float = 200.0
    #: run length, seconds
    duration_s: float = 10.0
    #: flash crowd: rate × multiplier inside the window
    flash_multiplier: float = 1.0
    flash_start_s: float = 0.0
    flash_duration_s: float = 0.0
    #: diurnal modulation: rate × (1 + amplitude·sin(2πt/period))
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 10.0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.flash_multiplier < 1.0:
            raise ValueError("flash_multiplier must be >= 1")
        if self.flash_start_s < 0 or self.flash_duration_s < 0:
            raise ValueError("flash window cannot be negative")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be positive")

    def rate_at(self, t: float) -> float:
        """λ(t) in requests/second."""
        rate = self.rate_rps
        if self.diurnal_amplitude:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / self.diurnal_period_s
            )
        end = self.flash_start_s + self.flash_duration_s
        if self.flash_start_s <= t < end:
            rate *= self.flash_multiplier
        return rate

    @property
    def peak_rate(self) -> float:
        return (
            self.rate_rps
            * (1.0 + self.diurnal_amplitude)
            * self.flash_multiplier
        )

    def draw_arrivals(self, rng: DeterministicRng) -> list[float]:
        """Thinning: draw at the peak rate, accept with λ(t)/λ_max.

        The same non-homogeneous Poisson sampler the overload
        simulator uses, so a seed fully determines the offered
        schedule before the first socket opens.
        """
        lam_max = self.peak_rate
        out: list[float] = []
        t = 0.0
        while True:
            t += -math.log(max(rng.random(), 1e-12)) / lam_max
            if t >= self.duration_s:
                return out
            if rng.random() * lam_max <= self.rate_at(t):
                out.append(t)
