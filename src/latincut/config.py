"""Flat key = value configuration with typed validation.

A run config holds exactly the keys a run reads: experiment choice, sweep
shapes, export toggles and the `latin.*` solver parameters, whose names,
types and defaults are `LatinParams`'.  Any other key is rejected.
Precedence: built-in defaults, then the config file, then LATINCUT_*
environment variables.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Mapping

from .errors import ConfigError
from .experiments import EXPERIMENTS
from .latin import LatinParams, merge_legacy_k

ENV_PREFIX = "LATINCUT_"


def parse_flat(text: str) -> dict[str, str]:
    """Grammar pass only: `key = value` lines, `#` comments, blank lines."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def render_flat(flat: Mapping[str, str]) -> str:
    return "".join(f"{k} = {flat[k]}\n" for k in sorted(flat))


# --- value parsers -------------------------------------------------------

def _parse_bool(key: str, text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"{key} must be true or false, got {text!r}")


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from err


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise ConfigError(f"{key} must be a number, got {text!r}") from err


def _parse_int_list(key: str, text: str) -> tuple[int, ...]:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(_parse_int(key, t) for t in toks)


def _parse_float_list(key: str, text: str) -> tuple[float, ...]:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(_parse_float(key, t) for t in toks)


def _parse_str(key: str, text: str) -> str:
    return text


_PARSERS: dict[str, Callable[[str, str], object]] = {
    "bool": _parse_bool,
    "int": _parse_int,
    "float": _parse_float,
    "int_list": _parse_int_list,
    "float_list": _parse_float_list,
    "str": _parse_str,
}


def _positive_int(key: str, v) -> None:
    if v < 1:
        raise ConfigError(f"{key} must be at least 1, got {v}")


def _nonempty(key: str, v) -> None:
    if not v:
        raise ConfigError(f"{key} needs at least one value")


def _nonneg(key: str, v) -> None:
    if v < 0:
        raise ConfigError(f"{key} must be nonnegative, got {v}")


def _choice(*options: str):
    def check(key: str, v) -> None:
        if v not in options:
            raise ConfigError(f"{key} must be one of {', '.join(options)}, got {v!r}")

    return check


# key -> (type, default text, extra validator or None); LatinParams
# validates the latin.* values as a whole
KNOWN_KEYS: dict[str, tuple[str, str, Callable | None]] = {
    "experiment": ("str", "ellipse_convergence", _choice(*EXPERIMENTS)),
    "output.dir": ("str", "out", None),
    "workers": ("int", "1", _positive_int),
    "checkpoints": ("int_list", "", None),
    "export.fields": ("bool", "false", None),
    "export.profiles": ("bool", "false", None),
    **{
        f"latin.{f.name}": (type(f.default).__name__, text, None)
        for f, text in zip(fields(LatinParams), LatinParams().to_flat().values())
    },
    "study.levels": ("int", "4", _positive_int),
    "study.base_nx": ("int", "40", _positive_int),
    "study.nu": ("float", "0.3", None),
    "study.contrast": ("float", "1.0", None),
    "study.reference_it_max": ("int", "200", _positive_int),
    "study.monitor_iterations": ("int_list", "10,20,30,50,100,200", None),
    "crack.n": ("int", "24", _positive_int),
    "crack.mode": ("str", "simple", _choice("simple", "double")),
    "crack.eps_x": ("float", "0.5", None),
    "crack.eps_values": ("float_list", "0.25,0.01,0.0001,1e-06,1e-08,1e-11", _nonempty),
    "crack.gamma_g_values": ("float_list", "0.0,0.001,0.1", _nonempty),
    "scaling.base_n": ("int", "12", _positive_int),
    "scaling.levels": ("int", "4", _positive_int),
    "scaling.eps": ("float", "0.25", None),
    "scaling.gamma_g": ("float", "0.1", _nonneg),
    "profile.iterations": ("int_list", "5,27,210", _nonempty),
}


def check_key(key: str, text: str) -> object:
    """Validate one entry and return its typed value; ConfigError if the
    key is unknown or the value malformed."""
    if key not in KNOWN_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    kind, _, validate = KNOWN_KEYS[key]
    value = _PARSERS[kind](key, text)
    if validate is not None:
        validate(key, value)
    return value


def env_overrides(environ: Mapping[str, str]) -> dict[str, str]:
    """Map LATINCUT_* variables onto config keys (case-insensitive)."""
    lookup = {k.replace(".", "_").lower(): k for k in KNOWN_KEYS}
    out: dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        stem = name[len(ENV_PREFIX):].lower()
        if stem not in lookup:
            raise ConfigError(f"unknown config key in environment: {name}")
        out[lookup[stem]] = value
    return out


@dataclass
class RunConfig:
    """Resolved run description: typed values plus the merged flat text map."""

    values: dict[str, object]
    flat: dict[str, str]

    @property
    def experiment(self) -> str:
        return self.values["experiment"]

    @property
    def output_dir(self) -> str:
        return self.values["output.dir"]

    @property
    def workers(self) -> int:
        return self.values["workers"]

    @property
    def checkpoints(self) -> tuple[int, ...]:
        return self.values["checkpoints"]

    @property
    def export_fields(self) -> bool:
        return self.values["export.fields"]

    @property
    def export_profiles(self) -> bool:
        return self.values["export.profiles"]

    def latin_params(self) -> LatinParams:
        return LatinParams.from_flat(self.flat)


def build_run_config(
    file_entries: Mapping[str, str], environ: Mapping[str, str] | None = None
) -> RunConfig:
    """Merge defaults, file entries and environment; validate everything.

    A file's legacy `latin.k_plus`/`latin.k_minus` pair reads as `latin.k`."""
    flat = {k: d for k, (_, d, _) in KNOWN_KEYS.items()}
    flat.update(merge_legacy_k(file_entries))
    if environ is not None:
        flat.update(env_overrides(environ))
    values = {key: check_key(key, flat[key]) for key in sorted(flat)}
    cfg = RunConfig(values=values, flat=flat)
    cfg.latin_params()  # surfaces range violations (eta, alpha, ...) early
    return cfg


def parse_config(text: str, environ: Mapping[str, str] | None = None) -> RunConfig:
    return build_run_config(parse_flat(text), environ)
