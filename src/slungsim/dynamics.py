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

The model is written once, in Python.  _dynamics.c holds fused_tick, a
whole control tick of simloop.advance_tick on C arrays (see there for when
it hands a tick back), whose model _kernel_source translates from
coupled_derivative_array, and format_rows, the text of a block of trace
rows for cli.write_trace.  Importing this module builds both once into
this package's __pycache__ (see _load_kernel) and binds their names, None
where no C compiler works.  KERNEL says which runs a tick: "c" or
"python".
"""

from __future__ import annotations

import ast
import contextlib
import inspect
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
    coupled physics, scalar float arithmetic with no allocation beyond the
    returned list, and _kernel_source translates it into C, refusing (so
    KERNEL is "python") anything but: unpacking y, u and params.derived,
    `name = expr`, `if test: raise ...` (one <= or >=, or an `or` of
    them) and a final `return [16 rates]`, where an expression is + - * /,
    unary -, floats, module-level floats, math.sqrt, sin and cos, and abs.

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
_HERE = os.path.dirname(os.path.abspath(__file__))
# the operators, calls and unpacked sequences (C array, length) translated
_C_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
          ast.LtE: "<=", ast.GtE: ">="}
_C_CALLS = {"math.sqrt": "sqrt", "math.sin": "sin", "math.cos": "cos",
            "abs": "fabs"}
_C_ARRAYS = {"y": ("y", 16), "u": ("u", 4), "params.derived": ("d", 11)}


def _kernel_source() -> str:
    """_dynamics.c, its @derivative@ line replaced by the model in C, each
    operation parenthesised in tree order; ImportError for other Python."""
    tree = ast.parse(inspect.getsource(coupled_derivative_array)).body[0]
    local = {"m_L"} | {n.id for n in ast.walk(tree) if isinstance(
        n, ast.Name) and isinstance(n.ctx, ast.Store)}
    reads, loads, lines = set(), [], []

    def c(node, test=False):
        # `or` only in a test: Python's `or` of floats is a float, not 0/1
        match node, test:
            case ast.BoolOp(op=ast.Or(), values=tests), True:
                return "(" + " || ".join(c(t, True) for t in tests) + ")"
            case ast.Compare(left=a, ops=[ast.LtE() | ast.GtE() as o],
                             comparators=[b]), True:
                return f"({c(a)} {_C_OPS[type(o)]} {c(b)})"
            case ast.BinOp(left=a, op=o, right=b), False if type(o) in _C_OPS:
                return f"({c(a)} {_C_OPS[type(o)]} {c(b)})"
            case ast.UnaryOp(op=ast.USub(), operand=a), False:
                return f"(- {c(a)})"
            case ast.Call(func=f, args=[a], keywords=[]), False if (
                    ast.unparse(f) in _C_CALLS):
                return f"{_C_CALLS[ast.unparse(f)]}({c(a)})"
            case ast.Name(id=name), False if name in local:
                reads.add(name)
                return name
        value = (node.value if isinstance(node, ast.Constant) else
                 globals().get(getattr(node, "id", "")))
        if not test and type(value) is float and math.isfinite(value):
            return repr(value)
        raise ImportError(f"no C for {ast.unparse(node)!r}")

    for st in tree.body[1 if ast.get_docstring(tree) else 0:]:
        match st:
            case ast.Assign(targets=[ast.Tuple(elts=names)], value=seq) if (
                    _C_ARRAYS.get(ast.unparse(seq), (0, 0))[1] == len(names)
                    and all(isinstance(e, ast.Name) for e in names)):
                array = _C_ARRAYS[ast.unparse(seq)][0]
                loads += [(e.id, f"{array}[{i}]") for i, e in enumerate(names)]
            case ast.Assign(targets=[ast.Name(id=name)], value=expr):
                lines.append(f"double {name} = {c(expr)};")
            case ast.If(test=cond, body=[ast.Raise()], orelse=[]):
                lines.append(f"if {c(cond, True)}\n        return 0;")
            case ast.Return(value=ast.List(elts=rates)) if (
                    st is tree.body[-1] and len(rates) == COUPLED_DIM):
                lines += [f"value[{i}] = {c(v)};" for i, v in enumerate(rates)]
                lines.append("return 1;")
            case _:
                raise ImportError(f"no C for {ast.unparse(st)!r}")
    if lines[-1:] != ["return 1;"]:
        raise ImportError("the model must end in return [...]")
    # an unpacked name the C does not read would be an unused local
    lines[:0] = [f"double {n} = {a};" for n, a in loads if n in reads]
    with open(os.path.join(_HERE, "_dynamics.c")) as fh:
        return fh.read().replace("@derivative@", (
            "static int\nderivative(const double *y, const double *u, double"
            " m_L, const double *d,\n           double *value)\n{\n"
            + "".join(f"    {x}\n" for x in lines) + "}"))


def _compile(text: str, path: str) -> None:
    """Build C text into the extension at path via a temporary file."""
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
                        sysconfig.get_path("include"), "-x", "c", "-", "-o",
                        tmp], input=text.encode(), check=True, timeout=60,
                       capture_output=True)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"building {path} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_kernel(cache_dir=None):
    """The compiled _dynamics module, or None where none builds.

    It lives in cache_dir (this package's __pycache__) under a name tagged
    with the CRC-32 of _dynamics.c, this file (model and translator) and
    _C_FLAGS, so it is built on the first import after an edit and loaded
    on every other.  A build removes the finished builds of other tags
    beside it, but no *.tmp file, which another process may be writing.
    """
    cache_dir = cache_dir or os.path.join(_HERE, "__pycache__")
    try:
        with open(os.path.join(_HERE, "_dynamics.c"), "rb") as c_text, \
                open(__file__, "rb") as py_text:
            tag = zlib.crc32(c_text.read() + py_text.read()
                             + " ".join(_C_FLAGS).encode())
        path = os.path.join(cache_dir,
                            f"_dynamics.{tag:08x}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(path):
            _compile(_kernel_source(), path)
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
