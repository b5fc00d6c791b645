"""Rigid-body quadrotor dynamics coupled to a cable-slung load.

Conventions used everywhere in this package:

* world frame is z-up, gravity acts along -z, collective thrust along the
  body z axis (so a level vehicle climbs for U1 > (total weight));
* attitude is roll/pitch/yaw (phi, theta, psi) with the small-rate
  identification of Euler-angle rates and body rates;
* the load hangs a rigid cable of length L below the vehicle, described by
  its horizontal offsets (r, s) in the world frame.  The vertical offset is
  zeta = sqrt(L^2 - r^2 - s^2) >= 0, so the load sits at
  (x + r, y + s, z - zeta).

State vector (COUPLED_DIM = 16), the vehicle then the load::

    [x, y, z, vx, vy, vz, phi, theta, psi, p, q, r,
     load_r, load_s, load_r_dot, load_s_dot]

The first 12 floats are the vehicle state, all a controller is given.  The
load mass is a parameter of the coupled derivative, not a state, and is
never visible to the controllers.  The input is four floats
(U1, U2, U3, U4): U1 is the collective thrust (N); U2/U3 are the
roll/pitch rotor force differences (the plant torque is l*U2, l*U3); U4 is
the yaw drag moment.

The coupled translational/load accelerations are mutually implicit: the five
relations couple (x_dd, y_dd, z_dd, r_dd, s_dd).  The three translational
rows are the identity plus mu-weighted load terms, so eliminating x_dd, y_dd
and z_dd leaves a 2x2 system in (r_dd, s_dd).  Its determinant
(m_q/M)^2 L^2 zeta^2 is positive wherever the cable is taut, and each
evaluation solves it in closed form by Cramer's rule.  Evaluations are
scalar float arithmetic, lists in and out, through coupled_derivative_array,
the one entry point to the model.  What the model needs that does not
depend on the load mass (L, L^2, the taut-cable floor^2, m_q, g, the inertia
ratios and I_z) is computed once per vehicle into VehicleParams.derived;
only M and mu are formed per evaluation.

The model is written once, in Python.  _dynamics.c holds two functions.
fused_tick is a whole control tick of simloop.advance_tick (its RK4 steps
of the same float operations in the same order, the non-finite check and
the cable offset) on C arrays, so it returns the same bits.  It copies
only the arithmetic and hands a tick back (returns None) where a guard
fails in a stage, the final state is non-finite or slack, or an input is
not read; a division by zero is handed back because it ends non-finite.
advance_tick then runs that tick in Python, which raises its own
exception.  format_rows is the text cli.write_trace's `%` gives a block of
trace rows, made by the function `%` calls (PyOS_double_to_string), and
None for a block or flag `%` would format otherwise.  Importing this
module builds _dynamics.c once into this package's __pycache__ (see
_load_kernel) and binds fused_tick and format_rows to the compiled
functions; where no C compiler works, both are None.  KERNEL says which
runs a tick: "c" or "python".
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import zlib
from dataclasses import dataclass, fields
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

COUPLED_DIM = 16

# Fraction of cable length below which the vertical offset is considered
# degenerate (load swinging through the horizontal plane of the vehicle):
# the model is only valid for a taut, downward-hanging cable.
ZETA_FLOOR_FRAC = 0.01


class TautCableError(RuntimeError):
    """Load swing reached the taut-cable model's validity boundary."""


class GimbalLockError(RuntimeError):
    """Roll or pitch reached +/-90 deg where the Euler parametrization fails."""


def store_positive_floats(record, prefix: str = "", names=None):
    """Check that a frozen record's named fields (all if names is None) are
    positive and finite, and store each as a float, or a field holding a
    sequence (tuple, list or 1-d ndarray) with at least one entry as a
    tuple of floats.  The one rule for every settings record: the compiled
    tick reads exact floats only, and hands a tick with an int or a numpy
    scalar back to the slower Python loop."""
    for name in names or [f.name for f in fields(record)]:
        v = getattr(record, name)
        seq = isinstance(v, (tuple, list)) or getattr(v, "ndim", 0) == 1
        if seq and not len(v):
            raise ValueError(f"{prefix}{name} must have at least one entry")
        if not all(0.0 < x < math.inf for x in (v if seq else (v,))):
            raise ValueError(f"{prefix}{name} must be positive and finite")
        object.__setattr__(record, name,
                           tuple(map(float, v)) if seq else float(v))


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of the vehicle, cable and load envelope.

    Defaults describe the benchmark vehicle used throughout: a 1 kg quadrotor
    with a 0.5 m cable and a rated load of at most 0.6 kg.
    """

    m_q: float = 1.0        # quadrotor mass, kg
    I_x: float = 7.5e-3     # roll inertia, kg m^2
    I_y: float = 7.5e-3     # pitch inertia, kg m^2
    I_z: float = 1.3e-2     # yaw inertia, kg m^2
    l: float = 0.25         # rotor arm length, m
    L: float = 0.5          # cable length, m
    M_max: float = 0.6      # maximum rated load mass, kg
    U1_max: float = 14.72   # collective thrust ceiling, N
    g: float = 9.81         # gravitational acceleration, m s^-2

    def __post_init__(self):
        store_positive_floats(self, "VehicleParams.")
        # the load hanging at rest must clear the taut-cable floor in floats
        L, I_x, I_y, I_z, l = self.L, self.I_x, self.I_y, self.I_z, self.l
        floor = ZETA_FLOOR_FRAC * L
        if not floor * floor < L * L < math.inf:
            raise ValueError(f"VehicleParams.L = {L} is outside the "
                             f"range the cable model can represent")
        # Everything coupled_derivative_array needs that does not depend on
        # the load mass, each formed exactly as the derivative used to form
        # it per call.  An attribute, not a field, so it is no config key;
        # dataclasses.replace runs __post_init__ and recomputes it.
        object.__setattr__(self, "derived", (
            L, L * L, floor * floor, self.m_q, self.g,
            (I_y - I_z) / I_x, l / I_x, (I_z - I_x) / I_y, l / I_y,
            (I_x - I_y) / I_z, I_z))


def _slack_error(r: float, s: float, L: float) -> TautCableError:
    return TautCableError(
        f"load offset (r={r:.4f}, s={s:.4f}) leaves the taut-cable "
        f"regime (cable length {L})")


_HALF_PI = math.pi / 2


def cable_offset(r: float, s: float, L: float) -> float:
    """zeta = sqrt(L^2 - r^2 - s^2), guarded against the slack/flat limit."""
    zsq = L * L - r * r - s * s
    floor = ZETA_FLOOR_FRAC * L
    if zsq <= floor * floor:
        raise _slack_error(r, s, L)
    return math.sqrt(zsq)


def zeta_derivatives(r: float, s: float, vr: float, vs: float,
                     r_dd: float, s_dd: float, L: float):
    """(zeta_dot, zeta_ddot) from differentiating zeta = sqrt(L^2 - r^2 - s^2)."""
    zeta = cable_offset(r, s, L)
    num = r * vr + s * vs
    zeta_dot = -num / zeta
    zeta_dd = (-(vr * vr + vs * vs + r * r_dd + s * s_dd) / zeta
               - num * num / (zeta ** 3))
    return zeta_dot, zeta_dd


def coupled_derivative_array(y, u, m_L: float, params: VehicleParams):
    """Time derivative of the 16-element coupled state, as a list.

    y and u are any 16- and 4-float sequences (lists on the run path,
    arrays from tests and checks).  This is the one implementation of the
    coupled physics, which _dynamics.c's fused_tick copies operation for
    operation: the attitude guard, the taut-cable floor, the coupled
    translational/load solve and the rotational rows are all inline, so an
    evaluation is scalar float arithmetic with no allocation beyond the
    returned list.

    Unknowns a = (x_dd, y_dd, z_dd, r_dd, s_dd).  With M = m_q + m_L and
    mu = m_L / M the relations are (yaw = 0 in the translational rows):

        x_dd + mu r_dd                         = cos(phi) sin(theta) U1 / M
        y_dd + mu s_dd                         = -sin(phi) U1 / M
        z_dd + mu (r/z) r_dd + mu (s/z) s_dd   = cos(phi) cos(theta) U1 / M
                                                  - mu (vr^2 + vs^2)/z
                                                  - mu (r vr + s vs)^2 / z^3
                                                  - g (m_L z / L + m_q) / M
        (s^2 - L^2) z^2 r_dd - z^4 x_dd - r z^3 z_dd - r s z^2 s_dd
                                               = r B + r g z^3
        (r^2 - L^2) z^2 s_dd - z^4 y_dd - s z^3 z_dd - r s z^2 r_dd
                                               = s B + s g z^3

    where z = zeta and B = (L^2 - s^2) vr^2 + (L^2 - r^2) vs^2 + 2 r s vr vs.
    Call the right-hand sides of the first three rows b1, b2, b3.

    The z row's gravity term is g (m_L z / L + m_q) / M, not g: these are
    Newton's laws for a point-mass vehicle and a point load on a massless
    rigid cable plus an upward force m_L g (1 - z/L) on the vehicle, that
    is (1 - cos(swing)) of the load's weight.

    Substituting x_dd = b1 - mu r_dd, y_dd = b2 - mu s_dd and
    z_dd = b3 - mu (r r_dd + s s_dd)/z into the last two rows and dividing
    by z^2 leaves a 2x2 system in (r_dd, s_dd).  With k = 1 - mu = m_q / M,

        a11 = -k (L^2 - s^2),  a22 = -k (L^2 - r^2),  a12 = a21 = -k r s,
        c1 = r B/z^2 + r g z + z^2 b1 + r z b3,
        c2 = s B/z^2 + s g z + z^2 b2 + s z b3.

    Its determinant k^2 L^2 z^2 is positive wherever the cable is taut, so
    Cramer's rule always applies:
    r_dd = (r s c2 - (L^2 - r^2) c1) / (k L^2 z^2), and s_dd likewise.
    """
    x, yy, z, vx, vy, vz, phi, theta, psi, pr, qr, rr, r, s, vr, vs = y
    U1, U2, U3, U4 = u
    if abs(phi) >= _HALF_PI or abs(theta) >= _HALF_PI:
        raise GimbalLockError(
            f"attitude out of range (phi={phi:.3f}, theta={theta:.3f})")
    # cx = (I_y - I_z)/I_x and lx = l/I_x; cy, ly and cz likewise
    L, LL, floor2, m_q, g, cx, lx, cy, ly, cz, I_z = params.derived
    M = m_q + m_L
    mu = m_L / M
    Lr = LL - r * r
    Ls = LL - s * s
    zsq = Lr - s * s
    if zsq <= floor2:
        raise _slack_error(r, s, L)
    zeta = math.sqrt(zsq)
    z2 = zeta * zeta

    cphi = math.cos(phi)
    U1_M = U1 / M
    rvr_svs = r * vr + s * vs
    B = Ls * vr * vr + Lr * vs * vs + 2.0 * r * s * vr * vs

    b1 = cphi * math.sin(theta) * U1_M
    b2 = -math.sin(phi) * U1_M
    b3 = (cphi * math.cos(theta) * U1_M - mu * (vr * vr + vs * vs) / zeta
          - mu * rvr_svs * rvr_svs / (z2 * zeta)
          - g * (m_L * zeta / L + m_q) / M)

    common = B / z2 + g * zeta + zeta * b3
    c1 = r * common + z2 * b1
    c2 = s * common + z2 * b2
    rs = r * s
    kdet = (m_q / M) * LL * z2
    r_dd = (rs * c2 - Lr * c1) / kdet
    s_dd = (rs * c1 - Ls * c2) / kdet

    return [vx, vy, vz,
            b1 - mu * r_dd, b2 - mu * s_dd,
            b3 - mu * (r * r_dd + s * s_dd) / zeta,
            pr, qr, rr,
            cx * qr * rr + lx * U2,
            cy * pr * rr + ly * U3,
            cz * qr * pr + U4 / I_z,
            vr, vs, r_dd, s_dd]


def pendulum_accelerations(r: float, s: float, vr: float, vs: float,
                           params: VehicleParams):
    """(r_dd, s_dd) of the load subsystem with the vehicle pinned in place.

    Setting x_dd = y_dd = z_dd = 0 in the coupled relations leaves a 2x2
    system; with a fixed pivot the load is an exact spherical pendulum, which
    is what makes this useful as an energy-conservation probe.
    """
    L = params.L
    g = params.g
    zeta = cable_offset(r, s, L)
    z2 = zeta * zeta
    z3 = z2 * zeta
    B = ((L * L - s * s) * vr * vr + (L * L - r * r) * vs * vs
         + 2.0 * r * s * vr * vs)
    a11 = (s * s - L * L) * z2
    a12 = -r * s * z2
    a21 = -r * s * z2
    a22 = (r * r - L * L) * z2
    b1 = r * B + r * g * z3
    b2 = s * B + s * g * z3
    det = a11 * a22 - a12 * a21
    return (b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det


def pendulum_energy(r: float, s: float, vr: float, vs: float, m_L: float,
                    params: VehicleParams) -> float:
    """Mechanical energy of the pinned-pivot load (potential zero at zeta=L)."""
    zeta = cable_offset(r, s, params.L)
    zeta_dot = -(r * vr + s * vs) / zeta
    kinetic = 0.5 * m_L * (vr * vr + vs * vs + zeta_dot * zeta_dot)
    potential = m_L * params.g * (params.L - zeta)
    return kinetic + potential


# fixed, so the compiled tick rounds as Python does: no FMA contraction,
# no fast-math
_C_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC")


def _compile(source: str, path: str) -> None:
    """Build the extension at path through a temporary file beside it."""
    import shlex
    import subprocess
    import sysconfig
    ldshared = sysconfig.get_config_var("LDSHARED")
    if not ldshared:
        raise OSError("this Python names no C compiler")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        subprocess.run([*shlex.split(ldshared), *_C_FLAGS, "-I",
                        sysconfig.get_path("include"), source, "-o", tmp],
                       check=True, timeout=60, capture_output=True,
                       stdin=subprocess.DEVNULL)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"building {path} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_kernel(cache_dir=None):
    """The compiled _dynamics module, or None where none builds.

    The extension lives in cache_dir (this package's __pycache__) under a
    name tagged with the CRC-32 of _dynamics.c and _C_FLAGS, so it is
    built on the first import after an edit and loaded on every other.
    A build removes the finished builds of other tags beside it, but no
    *.tmp file, which another process may still be writing.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_dynamics.c")
    cache_dir = cache_dir or os.path.join(here, "__pycache__")
    try:
        with open(source, "rb") as fh:
            tag = zlib.crc32(fh.read() + " ".join(_C_FLAGS).encode())
        path = os.path.join(cache_dir,
                            f"_dynamics.{tag:08x}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(path):
            _compile(source, path)
            build = re.compile(r"_dynamics\.[0-9a-f]{8}"
                               + re.escape(EXTENSION_SUFFIXES[0]))
            for name in os.listdir(cache_dir):
                if build.fullmatch(name) and name != os.path.basename(path):
                    with contextlib.suppress(OSError):
                        os.remove(os.path.join(cache_dir, name))
        loader = ExtensionFileLoader("slungsim._dynamics", path)
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
    except (OSError, ImportError):
        return None
    return module


_kernel = _load_kernel()
# one whole control tick and the text of a block of trace rows, compiled;
# None where no compiler works
fused_tick = _kernel.fused_tick if _kernel else None
format_rows = _kernel.format_rows if _kernel else None
KERNEL = "python" if fused_tick is None else "c"
