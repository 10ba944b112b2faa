"""Configuration types and physical constants for the highway simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimConfigError",
    "RoadConfig",
    "SimParams",
    "BehaviorProfile",
    "VehicleState",
    "VEHICLE_LENGTH",
    "VEHICLE_WIDTH",
    "WHEELBASE",
    "GRAVITY",
    "MAX_STEER",
    "MAX_DECEL",
]

VEHICLE_LENGTH = 4.5  # m
VEHICLE_WIDTH = 1.8   # m
WHEELBASE = 2.7       # m
GRAVITY = 9.81        # m/s^2
MAX_STEER = 0.5       # rad
MAX_DECEL = GRAVITY   # full braking is about -1 g


class SimConfigError(ValueError):
    """A simulation configuration that cannot be run."""


@dataclass
class RoadConfig:
    """Straight highway segment: 2 or 3 lanes, capacity-bounded per lane."""

    n_l: int = 2
    lane_width: float = 3.5
    n_vpl: int = 4            # max vehicles per lane
    speed_limit: float = 33.3  # m/s
    d_il_max: float = 80.0     # gap above which a lane leader closes up on traffic ahead

    def __post_init__(self):
        if self.n_l not in (2, 3):
            raise SimConfigError(f"lane count must be 2 or 3, got {self.n_l}")
        if self.n_vpl < 2:
            raise SimConfigError(f"need n_vpl >= 2, got {self.n_vpl}")
        if self.lane_width <= 0:
            raise SimConfigError("lane width must be positive")
        if self.speed_limit <= 0:
            raise SimConfigError("speed limit must be positive")
        if self.d_il_max <= 0:
            raise SimConfigError("d_il_max must be positive")
        for name in ("lane_width", "speed_limit", "d_il_max"):
            if not math.isfinite(getattr(self, name)):
                raise SimConfigError(f"{name} must be finite, got {getattr(self, name)}")

    def lane_center(self, lane: int) -> float:
        return (lane - 0.5) * self.lane_width

    def lane_of(self, y):
        """The lane holding lateral position y (a float or an array), clamped to [1, n_l]."""
        lane = np.floor_divide(y, self.lane_width).astype(np.int64) + 1
        return np.minimum(np.maximum(lane, 1), self.n_l)[()]


@dataclass
class SimParams:
    """Run parameters; ``spawn_span`` None picks a span that always fits."""

    dt: float = 0.05
    duration: float = 60.0
    seed: int = 0
    spawn_span: float | None = None
    target_resample_mean: float = 30.0  # mean seconds between v_target redraws

    def __post_init__(self):
        if not 0.0 < self.dt <= 0.1:
            raise SimConfigError(f"dt must be in (0, 0.1], got {self.dt}")
        if self.duration <= 0:
            raise SimConfigError("duration must be positive")
        if self.seed < 0:
            raise SimConfigError("seed must be a nonnegative integer")
        if self.target_resample_mean <= 0:
            raise SimConfigError("target_resample_mean must be positive")


@dataclass
class BehaviorProfile:
    """Per-vehicle ability and behavior knobs, shuffled within fixed bounds."""

    a_m: float                 # max acceleration, m/s^2
    b: float                   # Gompertz shape
    c: float                   # Gompertz shape, 1/m or s/m depending on argument
    v_target: float            # m/s, redrawn over time
    risk: float = 0.5          # [0, 1], higher accepts smaller gaps
    patience: float = 0.5      # [0, 1], higher shrinks accepted gaps slower
    politeness: float = 0.5    # [0, 1], higher demands larger rear gaps
    reaction_time: float = 0.6  # s
    a_dec_max: float = MAX_DECEL
    lc_rate: float = 0.05      # lane-change motivation probability per second

    def __post_init__(self):
        if self.a_m <= 0 or self.b <= 0 or self.c <= 0:
            raise SimConfigError("Gompertz parameters must be positive")
        if self.reaction_time < 0 or self.v_target < 0:
            raise SimConfigError("reaction time and target speed must be nonnegative")


@dataclass
class VehicleState:
    """Pose and motion of one vehicle at one timestep; the simulator's
    lock-step engine fills each field with an array, one entry per vehicle."""

    x: float     # longitudinal position, m
    y: float     # lateral position, m (0 at the right road edge)
    v: float     # speed, m/s
    a: float     # realized longitudinal acceleration, m/s^2
    psi: float   # heading, rad (0 = along the road)
    delta: float  # steering angle, rad
    lane: int    # discrete lane index in [1, n_l]
