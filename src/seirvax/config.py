"""Plain-text scenario files: INI-style sections [params], [control],
[scenario].

Each numeric key is read through the key table beside ScenarioConfig in
seirvax.sim, which --sweep, --dt and --horizon read too; each rate and the
settling constant c also accept a ``_days`` variant giving the mean period
instead (mu_days=255 means mu = 1/255). Unknown sections or keys are errors
so typos cannot silently fall back to defaults. Only --config and
load_scenario import this module, and configparser with it.
"""

from __future__ import annotations

import configparser
import os
from pathlib import Path

from .control import (
    ControlConfig,
    ModulationFamily,
    ReferenceProfile,
    VaccinationLaw,
)
from .errors import ConfigError
from .model import ModelParams, StateVec
from .sim import _NUMERIC_KEYS, _PERIOD_KEYS, ScenarioConfig, _numeric_setting, numeric_key

_ENUM_KEYS = {
    "law": VaccinationLaw, "g_family": ModulationFamily, "h_family": ReferenceProfile,
}


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None


def _parse_enum(key: str, raw: str):
    enum_cls = _ENUM_KEYS[key]
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        raise ConfigError(
            f"[control] {key} = {raw!r}; allowed values: {allowed}"
        ) from None


def _numbers(section: str, items: dict[str, str]) -> dict[str, float]:
    """field -> value for the keys left in one section, each of which must
    be a numeric key of that section."""
    values: dict[str, float] = {}
    for key, raw in items.items():
        try:
            owner, field = numeric_key(key)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
        if owner != section:
            raise ConfigError(f"[{section}] {key} belongs in [{owner}]")
        if field in values:
            raise ConfigError(f"[{section}] give {field} or {field}_days, not both")
        values[field] = _numeric_setting(key, _parse_float(section, key, raw))[2]
    return values


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file. The result is unresolved: defaults like eps0
    are filled in by ScenarioConfig.resolved() (integrate does this)."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (K_R vs k_r)
    try:
        # utf-8-sig skips a leading byte-order mark, as some editors write one
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from exc
    except configparser.Error as exc:
        # configparser puts the file, line and offending text on lines of
        # their own; the CLI's error is one line
        folded = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed config {str(path)!r}: {folded}") from exc

    extra = set(parser.sections()) - _NUMERIC_KEYS.keys()
    # configparser copies [DEFAULT]'s keys into every section, where each
    # would be blamed on a section the file never wrote it in
    if parser.defaults():
        extra.add(parser.default_section)
    if extra:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(extra))}")
    if "params" not in parser:
        raise ConfigError("config needs a [params] section")

    rates = _numbers("params", dict(parser["params"]))
    for key in _NUMERIC_KEYS["params"]:
        if key not in rates:
            also = f" (or {key}_days)" if key in _PERIOD_KEYS else ""
            raise ConfigError(f"[params] missing required key {key}{also}")

    control_items = dict(parser["control"]) if "control" in parser else {}
    enums = {
        key: _parse_enum(key, raw)
        for key in _ENUM_KEYS
        if (raw := control_items.pop(key, None)) is not None
    }
    control = ControlConfig(**enums, **_numbers("control", control_items))

    scen = dict(parser["scenario"]) if "scenario" in parser else {}
    # a file name need not be UTF-8; its undecodable bytes read as U+FFFD
    name = scen.pop("name", os.fsencode(path.stem).decode("utf-8", "replace"))
    x0_vals = []
    for key in ("S0", "E0", "I0", "R0"):
        raw = scen.pop(key, None)
        if raw is None:
            raise ConfigError(f"[scenario] missing required key {key}")
        x0_vals.append(_parse_float("scenario", key, raw))

    return ScenarioConfig(
        params=ModelParams(**rates),
        x0=StateVec(*x0_vals),
        control=control,
        name=name,
        **_numbers("scenario", scen),
    )
