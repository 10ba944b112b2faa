"""Longitudinal control laws and the kinematic one-track vehicle model.

Acceleration profiles follow the Gompertz sigmoid a_m * exp(-b * exp(-c*u)):
near-zero response at u = 0 (mass inertia), a roughly linear mid section,
and saturation at the ability limit a_m. Followers respond to the gap ahead
and superimpose a constant-deceleration braking term sized to null the
closing speed before the gap collapses. Lane leaders regulate toward their
target speed unless the gap to the traffic ahead exceeds d_il_max, in which
case they close up to keep the scene dense.
"""

from __future__ import annotations

import math

import numpy as np

from ..libm import exp
from .config import (
    GRAVITY,
    MAX_STEER,
    WHEELBASE,
    BehaviorProfile,
    RoadConfig,
    VehicleState,
)

__all__ = [
    "gompertz_follower_accel",
    "gompertz_leader_accel",
    "braking_decel",
    "regulate_speed",
    "follower_accel",
    "longitudinal_accel",
    "lateral_control",
    "one_track_step",
]

BRAKE_MIN_GAP = 2.0   # m, distance "close to zero" where full braking must hold
BRAKE_EPS = 0.1       # m, guards the stopping-distance denominator
BRAKE_ENGAGE = 1.5    # m/s^2, required deceleration above which the drive command drops
BRAKE_NEAR = 4.0      # m, range over which speed matching ramps in above the minimum gap
BRAKE_MATCH = 4.0     # 1/s, near-range speed-matching gain
AY_CTRL_LIMIT = 0.35 * GRAVITY  # a margin below the one-track model's ~0.4 g validity bound


def py_max(a, b):
    """Python's max(a, b), elementwise over floats or arrays: b only where
    b > a, so max(-0.0, 0.0) stays -0.0 (np.maximum may give 0.0). Against
    a nonzero constant bound the laws use np.maximum and np.minimum, which
    then give the same result."""
    return np.where(b > a, b, a)[()]


def py_min(a, b):
    """Python's min(a, b), elementwise: b only where b < a."""
    return np.where(b < a, b, a)[()]


def _math(f, x):
    """The math-module function f (tan or atan) over a float or elementwise
    over an array. numpy's tan and arctan differ from math's in the last bit
    on some inputs, and so do their complex forms (on about 40 % of the
    inputs these laws give them); math's are the reference the traces were
    made with. (np.sin and np.cos agree with math's; 8 M inputs checked.
    exp goes through libm.exp, one numpy call per array.)"""
    if isinstance(x, np.ndarray):
        if x.ndim == 1:
            return np.fromiter(map(f, x.tolist()), np.float64, x.size)
        return np.fromiter(map(f, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)
    return f(x)


# Every law below takes floats or equally shaped arrays, one entry per
# vehicle; a profile may then be any object whose fields are such arrays.
# The arithmetic is the same operation for operation, so an array entry
# equals the float result bit for bit.


def gompertz(u, a_m, neg_b, neg_c):
    """The Gompertz profile a_m * exp(-b * exp(-c * u)) of every law here,
    given neg_b = -b and neg_c = -c (negation is exact, so a batch negates
    its shapes once)."""
    return a_m * exp(neg_b * exp(neg_c * u))


def _gompertz(u, profile: BehaviorProfile):
    return gompertz(u, profile.a_m, -profile.b, -profile.c)


def _signed(mag, dv):
    """The regulation magnitude mag with the sign of the speed error dv, 0.0 at dv == 0."""
    return np.where(dv != 0.0, np.copysign(mag, dv), 0.0)[()]


def gompertz_follower_accel(d_fl, profile: BehaviorProfile):
    """Commanded free-flow component for a follower at gap d_fl (>= 0)."""
    return _gompertz(d_fl, profile)


def gompertz_leader_accel(v_l, d_il, profile: BehaviorProfile, road: RoadConfig):
    """Leader acceleration: gap argument when d_il exceeds d_il_max
    (strictly), velocity argument otherwise. Both branches share the
    Gompertz form, so equal arguments give equal outputs."""
    return _gompertz(np.where(d_il > road.d_il_max, d_il, v_l)[()], profile)


def braking_decel(d_fl, v_f, v_l, profile: BehaviorProfile):
    """Constant-deceleration braking term (<= 0) for a closing follower.

    Sized so the closing speed is eliminated within the remaining gap;
    saturates at the full deceleration ability when the gap is near zero.
    The quadratic sizing alone decays the closing speed only hyperbolically
    once the denominator saturates (log-unbounded creep through the minimum
    gap), so a speed-matching term ramps in over the last stretch and kills
    residual closing exponentially.
    """
    closing = py_max(v_f - v_l, 0.0)
    above_min = d_fl - BRAKE_MIN_GAP
    needed = closing * closing / (2.0 * np.maximum(above_min, BRAKE_EPS))
    ramp = np.minimum(py_max(1.0 - above_min / BRAKE_NEAR, 0.0), 1.0)
    needed += BRAKE_MATCH * closing * ramp
    return -py_min(profile.a_dec_max, needed)


def regulate_speed(v, v_target, profile: BehaviorProfile, road: RoadConfig):
    """Signed Gompertz regulation toward the target speed."""
    dv = v_target - v
    return _signed(_gompertz(abs(dv), profile), dv)  # gompertz_leader_accel(|dv|, 0.0): the velocity branch


def follower_accel(d_fl, v_f, v_l, profile: BehaviorProfile, road: RoadConfig):
    """Full follower command: gap response capped by speed regulation, plus
    braking, saturated to [-a_dec_max, a_m].

    The drive part drops to at most zero once the required deceleration
    passes the engage level; otherwise the positive Gompertz term would eat
    into the braking budget and the stopping-distance sizing could never
    hold. Gentle approaches keep a positive net command on purpose: gaps
    are allowed to shrink below a comfortable headway.
    """
    return longitudinal_accel(d_fl, v_f, v_l, np.inf, profile, road, -profile.b, -profile.c)


def longitudinal_accel(d_fl, v_f, v_l, d_il, profile, road: RoadConfig, neg_b, neg_c):
    """Every vehicle's command in one Gompertz pass (neg_b = -profile.b,
    neg_c = -profile.c): follower_accel at gap d_fl, whose gap response
    and speed regulation are the pass's two rows; but where no leader is
    seen (d_fl inf) and the traffic ahead lies beyond d_il_max (d_il
    finite), the close-up response gompertz_leader_accel(., d_il), which
    takes the gap row's place (it lies in [0, a_m], inside the clamp)."""
    close = (d_fl == np.inf) & (d_il > road.d_il_max) & (d_il < np.inf)
    dv = profile.v_target - v_f
    u = np.where(close, d_il, py_max(d_fl, 0.0)), abs(dv)  # the pass's rows, of one shape even beside floats
    g = gompertz(np.array(u if np.shape(u[0]) == np.shape(u[1]) else np.broadcast_arrays(*u)), profile.a_m, neg_b, neg_c)
    drive = py_min(g[0], _signed(g[1], dv))
    brake = braking_decel(d_fl, v_f, v_l, profile)
    drive = np.where(-brake >= BRAKE_ENGAGE, py_min(drive, 0.0), drive)
    return np.where(close, g[0], np.minimum(py_max(drive + brake, -profile.a_dec_max), profile.a_m))[()]


def lateral_control(state: VehicleState, target_lane_center, v):
    """P-control on predicted distance and orientation errors.

    The pose is previewed over a speed-dependent look-ahead horizon at the
    current speed and heading, steering assumed back to neutral (carrying
    the held steering angle through the whole preview couples the command
    to itself with loop gain ~ v*T/L >> 1 and chatters at the clamp). The
    command is k_d(v) * e_d + k_psi * e_psi, errors measured desired minus
    predicted; the heading-rate preview term makes the closed loop
    overdamped across the simulated speed range. Positive steering turns
    left (+y), so a vehicle left of its target gets a negative command.
    Commands are clamped so the implied lateral acceleration stays inside
    the one-track validity envelope.
    """
    horizon = np.minimum(np.maximum(0.5 + 0.05 * v, 0.5), 2.0)
    y_pred = state.y + v * np.sin(state.psi) * horizon
    psi_pred = state.psi
    e_d = target_lane_center - y_pred
    e_psi = -psi_pred
    k_d = 0.4 / np.maximum(v, 5.0)
    delta_cmd = k_d * e_d + e_psi  # k_psi = 1
    # float_power is C pow, as the ** of a float is; x * x rounds differently
    limit = np.minimum(MAX_STEER, _math(math.atan, AY_CTRL_LIMIT * WHEELBASE / np.float_power(np.maximum(v, 1.0), 2.0)))
    return py_min(py_max(delta_cmd, -limit), limit)


def one_track_step(state: VehicleState, delta_cmd, a_cmd, dt: float):
    """Kinematic one-track (bicycle) update over one timestep; the fields of
    ``state`` may be floats or arrays.

    Returns the new state. The model holds for lateral accelerations up to
    about 0.4 g, which lateral_control's clamp keeps the commands within.
    The stored acceleration is the realized value, which differs from the
    command only when the speed floors at zero.
    """
    x = state.x + state.v * np.cos(state.psi) * dt
    y = state.y + state.v * np.sin(state.psi) * dt
    psi = state.psi + state.v / WHEELBASE * _math(math.tan, delta_cmd) * dt
    v = py_max(0.0, state.v + a_cmd * dt)
    return VehicleState(
        x=x,
        y=y,
        v=v,
        a=(v - state.v) / dt,
        psi=psi,
        delta=delta_cmd,
        lane=state.lane,
    )
