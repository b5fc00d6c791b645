"""Key-value scenario configuration: parsing, validation, defaults.

Files are plain text, one `key = value` pair per line, `#` comments,
dotted keys for sections:

    controller = MPC
    m_L = 0.3
    vehicle.U1_max = 14.72
    sweep.masses = 0.005, 0.05, 0.1

Every key must be known; a typo is an error, not a silent default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .dynamics import VehicleParams
from .controllers import PdGains, SmcGains
from .mpc import MpcWeights
from .simloop import CONTROLLERS, TRAJECTORIES, ConfigError, SimConfig

DEFAULT_SWEEP_MASSES = (0.005, 0.05, 0.1, 0.15, 0.2, 0.25,
                        0.3, 0.35, 0.4, 0.45, 0.5)


@dataclass(frozen=True)
class SweepSpec:
    masses: tuple = DEFAULT_SWEEP_MASSES
    controllers: tuple = CONTROLLERS
    base: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if len(self.masses) == 0:
            raise ConfigError("sweep.masses: list must not be empty")
        prev = 0.0
        for m in self.masses:
            if not prev < m < math.inf:
                raise ConfigError("sweep.masses: masses must be strictly "
                                  f"increasing and positive, got {m}")
            prev = m
        if m > self.base.params.M_max:
            raise ConfigError(f"sweep.masses: {m} exceeds maximum payload "
                              f"{self.base.params.M_max}")
        if len(self.controllers) == 0:
            raise ConfigError("sweep.controllers: list must not be empty")
        for k, c in enumerate(self.controllers):
            if c not in CONTROLLERS:
                raise ConfigError(f"sweep.controllers: unknown controller "
                                  f"{c!r}")
            if c in self.controllers[:k]:
                raise ConfigError(f"sweep.controllers: {c!r} is listed "
                                  "twice")


def parse_kv_file(path: str) -> dict:
    """Read dotted key = value lines; later lines override earlier ones."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    kv = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        kv[key] = value
    return kv


def _parse_float(key: str, value: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return v


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _parse_floats(key: str, value: str, n: Optional[int] = None) -> tuple:
    items = [v for v in (s.strip() for s in value.split(",")) if v]
    out = tuple(_parse_float(key, v) for v in items)
    if n is not None and len(out) != n:
        raise ConfigError(f"{key}: expected {n} comma-separated numbers, "
                          f"got {len(out)}")
    return out


def _parse_choice(key: str, value: str, choices) -> str:
    if value not in choices:
        raise ConfigError(f"{key}: expected one of {', '.join(choices)}, "
                          f"got {value!r}")
    return value


_VEHICLE_FIELDS = {f.name for f in fields(VehicleParams)}
_PD_FIELDS = {f.name for f in fields(PdGains)}

_TOP_FLOATS = ("m_L", "duration", "dt_physics", "dt_control")


def build_sim_config(kv: dict) -> SimConfig:
    """Validated SimConfig from parsed keys; unknown keys are errors."""
    kv = dict(kv)
    top = {}
    if "controller" in kv:
        top["controller"] = _parse_choice("controller", kv.pop("controller"),
                                          CONTROLLERS)
    if "trajectory" in kv:
        top["trajectory"] = _parse_choice("trajectory", kv.pop("trajectory"),
                                          TRAJECTORIES)
    for name in _TOP_FLOATS:
        if name in kv:
            top[name] = _parse_float(name, kv.pop(name))

    vehicle = {}
    pd_kw = {}
    smc_kw = {}
    mpc_kw = {}
    for key in list(kv):
        if "." not in key:
            raise ConfigError(f"unknown key: {key}")
        section, _, name = key.partition(".")
        value = kv.pop(key)
        if section == "vehicle":
            if name not in _VEHICLE_FIELDS:
                raise ConfigError(f"unknown key: {key}")
            vehicle[name] = _parse_float(key, value)
        elif section == "pd":
            if name not in _PD_FIELDS:
                raise ConfigError(f"unknown key: {key}")
            pd_kw[name] = _parse_float(key, value)
        elif section == "smc":
            if name == "k" or name == "lam":
                smc_kw[name] = _parse_floats(key, value, 6)
            elif name == "boundary_layer":
                smc_kw[name] = _parse_float(key, value)
            else:
                raise ConfigError(f"unknown key: {key}")
        elif section == "mpc":
            if name == "horizon":
                mpc_kw["horizon"] = _parse_int(key, value)
            elif name == "move_pos":
                mpc_kw["move_pos"] = _parse_floats(key, value, 3)
            elif name == "move_att":
                mpc_kw["move_att"] = _parse_float(key, value)
            else:
                raise ConfigError(f"unknown key: {key}")
        elif section == "sweep":
            # build_sweep_spec has popped the sweep keys it knows
            raise ConfigError(f"sweep key in a single-run config: {key}")
        else:
            raise ConfigError(f"unknown key: {key}")

    try:
        params = VehicleParams(**vehicle)
        return SimConfig(
            params=params,
            pd_gains=PdGains(**pd_kw) if pd_kw else None,
            smc_gains=SmcGains(**smc_kw) if smc_kw else None,
            mpc_horizon=mpc_kw.get("horizon"),
            mpc_weights_pos=(MpcWeights(s=mpc_kw["move_pos"])
                             if "move_pos" in mpc_kw else None),
            mpc_weights_att=(MpcWeights(s=mpc_kw["move_att"])
                             if "move_att" in mpc_kw else None),
            **top)
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_sweep_spec(kv: dict) -> SweepSpec:
    """SweepSpec from parsed keys; sweep.* select masses and controllers."""
    kv = dict(kv)
    masses = DEFAULT_SWEEP_MASSES
    controllers = CONTROLLERS
    if "sweep.masses" in kv:
        masses = _parse_floats("sweep.masses", kv.pop("sweep.masses"))
    if "sweep.controllers" in kv:
        raw = kv.pop("sweep.controllers")
        controllers = tuple(v for v in (s.strip() for s in raw.split(","))
                            if v)
    for key in kv:
        if key.startswith("sweep."):
            raise ConfigError(f"unknown key: {key}")
    base = build_sim_config(kv)
    return SweepSpec(masses=masses, controllers=controllers, base=base)


def load_config(path: str) -> SimConfig:
    return build_sim_config(parse_kv_file(path))


def load_sweep_spec(path: str) -> SweepSpec:
    return build_sweep_spec(parse_kv_file(path))
