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
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .dynamics import VehicleParams
from .controllers import PdGains, SmcGains
from .simloop import CONTROLLERS, ConfigError, SimConfig

DEFAULT_SWEEP_MASSES = (0.005, 0.05, 0.1, 0.15, 0.2, 0.25,
                        0.3, 0.35, 0.4, 0.45, 0.5)


@dataclass(frozen=True)
class SweepSpec:
    """The sweep's masses and controllers over a base config.

    masses is stored as a tuple of floats and controllers as a tuple.
    cases, set when the spec is built, holds one checked SimConfig per
    case, replace(base, controller=c, m_L=m): in CONTROLLERS order, then
    by mass.  SimConfig judges each mass and controller name; the spec
    adds only the rules a single run cannot state.
    """

    masses: tuple = DEFAULT_SWEEP_MASSES
    controllers: tuple = CONTROLLERS
    base: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        masses, controllers = self.masses, tuple(self.controllers)
        if len(masses) == 0:
            raise ConfigError("sweep.masses: list must not be empty")
        for prev, m in zip((0.0, *masses), masses):
            if not prev < m < math.inf:
                raise ConfigError("sweep.masses: masses must be strictly "
                                  f"increasing and positive, got {m}")
        object.__setattr__(self, "masses", tuple(map(float, masses)))
        object.__setattr__(self, "controllers", controllers)
        if len(controllers) == 0:
            raise ConfigError("sweep.controllers: list must not be empty")
        for k, c in enumerate(controllers):
            if c in controllers[:k]:
                raise ConfigError(f"sweep.controllers: {c!r} is listed "
                                  "twice")
        try:
            cases = [replace(self.base, controller=c, m_L=m)
                     for c in controllers for m in self.masses]
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}")
        object.__setattr__(self, "cases", tuple(sorted(
            cases, key=lambda cfg: CONTROLLERS.index(cfg.controller))))


def parse_kv_file(path: str) -> dict:
    """Read dotted key = value lines; later lines override earlier ones."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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


def _split(value: str) -> list:
    """The non-empty items of a comma-separated value, stripped."""
    return [v for v in (s.strip() for s in value.split(",")) if v]


def _text(key: str, value: str) -> str:
    """The value as written; SimConfig checks the name."""
    return value


def _floats(n: Optional[int] = None):
    """Parser of a comma-separated list of n numbers (any count if None)."""
    def parse(key: str, value: str) -> tuple:
        out = tuple(_parse_float(key, v) for v in _split(value))
        if n is not None and len(out) != n:
            raise ConfigError(f"{key}: expected {n} comma-separated "
                              f"numbers, got {len(out)}")
        return out
    return parse


# Every accepted key, section by section ("" is the top level), and the
# parser of its value.  Only a sweep config may set the sweep section.
KEYS = {
    "": {"controller": _text, "trajectory": _text,
         "m_L": _parse_float, "duration": _parse_float,
         "dt_physics": _parse_float, "dt_control": _parse_float},
    "vehicle": dict.fromkeys((f.name for f in fields(VehicleParams)),
                             _parse_float),
    "pd": dict.fromkeys((f.name for f in fields(PdGains)), _parse_float),
    "smc": {"k": _floats(6), "lam": _floats(6),
            "boundary_layer": _parse_float},
    "mpc": {"horizon": _parse_int, "move_pos": _floats(3),
            "move_att": _parse_float},
    "sweep": {"masses": _floats(),
              "controllers": lambda key, value: tuple(_split(value))},
}


def _parse(kv: dict, sweep: bool) -> tuple:
    """(SimConfig, the sweep section's values) from parsed keys; a sweep
    key is an error unless sweep."""
    values = {section: {} for section in KEYS}
    for key, value in kv.items():
        section, name = key.split(".", 1) if "." in key else ("", key)
        if section == "sweep" and not sweep:
            raise ConfigError(f"sweep key in a single-run config: {key}")
        parse = KEYS.get(section, {}).get(name)
        # ".controller" has an empty section but is no top-level key
        if parse is None or key.startswith("."):
            raise ConfigError(f"unknown key: {key}")
        values[section][name] = parse(key, value)
    try:
        return SimConfig(
            params=VehicleParams(**values["vehicle"]),
            pd_gains=PdGains(**values["pd"]),
            smc_gains=SmcGains(**values["smc"]),
            **{f"mpc_{name}": v for name, v in values["mpc"].items()},
            **values[""]), values["sweep"]
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_sim_config(kv: dict) -> SimConfig:
    """Validated SimConfig from parsed keys; unknown keys are errors.

    Each key sets the SimConfig, VehicleParams, PdGains or SmcGains field
    of its name (mpc.<key> sets SimConfig.mpc_<key>); an unset key keeps
    that field's default.  Keys and value formats are checked in one pass,
    in the order the keys first appear, so of several bad keys the first
    one is reported; SimConfig then checks the names and ranges.
    """
    return _parse(kv, sweep=False)[0]


def build_sweep_spec(kv: dict) -> SweepSpec:
    """SweepSpec from parsed keys; sweep.* select masses and controllers."""
    base, sweep = _parse(kv, sweep=True)
    return SweepSpec(base=base, **sweep)


def load_config(path: str) -> SimConfig:
    return build_sim_config(parse_kv_file(path))


def load_sweep_spec(path: str) -> SweepSpec:
    return build_sweep_spec(parse_kv_file(path))
