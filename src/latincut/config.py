"""The package's one reader and writer of flat `key = value` text.

Every value read goes through a typed parser of `PARSERS` and every value
written through `format_value`.  The run config, the `latin.*` solver
parameters (`params_to_flat`, `params_from_flat`) and the problem form
(`experiments.problem_to_flat`, `problem_from_flat`) share them.

A run config holds exactly the keys its experiment reads (`COMMON_KEYS`
plus the experiment's entry in `cli.EXPERIMENTS`): sweep shapes, export
toggles and `latin.*` solver parameters, whose names, types and defaults
are `LatinParams`'.  Any other key is rejected, so the resolved config
records exactly what the run read.  Precedence: built-in defaults, then
the config file, then LATINCUT_* environment variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from .errors import ConfigError
from .latin import LatinParams

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


def format_value(v) -> str:
    """The flat text of one value: floats by repr (bit-exact round trips),
    sequences joined by commas, anything else by str."""
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (tuple, list)):
        return ",".join(map(format_value, v))
    return str(v)


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
        value = float(text)
    except ValueError as err:
        raise ConfigError(f"{key} must be a number, got {text!r}") from err
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _parse_int_list(key: str, text: str) -> tuple[int, ...]:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(_parse_int(key, t) for t in toks)


def _parse_float_list(key: str, text: str) -> tuple[float, ...]:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(_parse_float(key, t) for t in toks)


def _parse_str(key: str, text: str) -> str:
    return text


# kind -> parser(key, text); each error names the key
PARSERS: dict[str, Callable[[str, str], object]] = {
    "bool": _parse_bool,
    "int": _parse_int,
    "float": _parse_float,
    "int_list": _parse_int_list,
    "float_list": _parse_float_list,
    "str": _parse_str,
}


def _at_least(lo: int):
    def check(key: str, v) -> None:
        if v < lo:
            raise ConfigError(f"{key} must be at least {lo}, got {v}")

    return check


def _nonempty(key: str, v) -> None:
    if not v:
        raise ConfigError(f"{key} needs at least one value")


def _nonempty_nonnegative(key: str, v) -> None:
    _nonempty(key, v)
    for x in v:
        if x < 0:
            raise ConfigError(f"{key} entries must be nonnegative, got {x}")


def _open_interval(lo: float, hi: float):
    def check(key: str, v) -> None:
        if not lo < v < hi:
            raise ConfigError(f"{key} must lie in ({lo}, {hi}), got {v}")

    return check


def _iterations(key: str, v) -> None:
    for it in v:
        if it < 1:
            raise ConfigError(f"{key} entries must be at least 1, got {it}")


def _nonempty_iterations(key: str, v) -> None:
    _nonempty(key, v)
    _iterations(key, v)


def _crack_size(key: str, v) -> None:
    # `experiments.crack_problem` keeps its vertical cuts at x = 1/3, 2/3 on
    # grid lines
    if v < 1 or v % 3:
        raise ConfigError(f"{key} must be a positive multiple of 3, got {v}")


def _choice(*options: str):
    def check(key: str, v) -> None:
        if v not in options:
            raise ConfigError(f"{key} must be one of {', '.join(options)}, got {v!r}")

    return check


# every experiment reads these; `cli.EXPERIMENTS` lists the rest per experiment
COMMON_KEYS = ("experiment", "output.dir", "workers")

# key -> (type, default text, extra validator or None); LatinParams
# validates the latin.* values as a whole, and `build_run_config` checks the
# experiment name and the checkpoints against latin.it_max
KNOWN_KEYS: dict[str, tuple[str, str, Callable | None]] = {
    "experiment": ("str", "ellipse_convergence", None),
    "output.dir": ("str", "out", None),
    "workers": ("int", "1", _at_least(1)),
    "checkpoints": ("int_list", "", _iterations),
    "export.fields": ("bool", "false", None),
    "export.profiles": ("bool", "false", None),
    **{
        f"latin.{f.name}": (type(f.default).__name__, format_value(f.default), None)
        for f in fields(LatinParams)
    },
    "study.levels": ("int", "4", _at_least(1)),
    "study.base_nx": ("int", "40", _at_least(1)),
    "study.nu": ("float", "0.3", _open_interval(0, 0.5)),  # as `cutgeom.Material` needs
    "study.contrast": ("float", "1.0", _open_interval(0, math.inf)),
    "study.reference_it_max": ("int", "200", _at_least(1)),
    "study.monitor_iterations": ("int_list", "10,20,30,50,100,200", _iterations),
    "crack.n": ("int", "24", _crack_size),
    "crack.mode": ("str", "simple", _choice("simple", "double")),
    "crack.eps_x": ("float", "0.5", None),
    "crack.eps_values": ("float_list", "0.25,0.01,0.0001,1e-06,1e-08,1e-11", _nonempty),
    "crack.gamma_g_values": ("float_list", "0.0,0.001,0.1", _nonempty_nonnegative),
    "scaling.base_n": ("int", "12", _crack_size),
    "scaling.levels": ("int", "4", _at_least(2)),
    "scaling.eps": ("float", "0.25", None),
    "scaling.gamma_g": ("float", "0.1", _at_least(0)),
    "profile.iterations": ("int_list", "5,27,210", _nonempty_iterations),
}


def check_key(key: str, text: str) -> object:
    """Validate one entry of a known key and return its typed value;
    ConfigError if the value is malformed."""
    kind, _, validate = KNOWN_KEYS[key]
    value = PARSERS[kind](key, text)
    if validate is not None:
        validate(key, value)
    return value


def params_to_flat(params: LatinParams) -> dict[str, str]:
    """The `latin.<field>` texts of ``params``.  A value `params_from_flat`
    cannot read back raises ConfigError."""
    flat = {f"latin.{f.name}": format_value(getattr(params, f.name)) for f in fields(params)}
    params_from_flat(flat)
    return flat


def params_from_flat(flat: Mapping[str, str]) -> LatinParams:
    """Read every `latin.<field>` text back; other keys are ignored and a
    missing field is a ConfigError.  The problem form carries every field;
    a run config holds only the fields its experiment reads, and
    `RunConfig.latin_params` fills in the others from `LatinParams()`."""
    values = {}
    for f in fields(LatinParams):
        key = f"latin.{f.name}"
        if key not in flat:
            raise ConfigError(f"missing {key!r}")
        values[f.name] = check_key(key, flat[key])
    return LatinParams(**values)


def merge_legacy_k(flat: Mapping[str, str]) -> dict[str, str]:
    """``flat`` with the ``latin.k_plus``/``latin.k_minus`` pair of older
    files, which wrote both with the same text, read as ``latin.k``."""
    out = dict(flat)
    legacy = [out.pop(key) for key in ("latin.k_plus", "latin.k_minus") if key in flat]
    if legacy:
        if len(legacy) != 2 or legacy[0] != legacy[1]:
            raise ConfigError("conjugate search directions require k_plus == k_minus")
        if "latin.k" in out:
            raise ConfigError("latin.k replaces latin.k_plus and latin.k_minus; give one")
        out["latin.k"] = legacy[0]
    return out


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
    """Resolved run description: typed values plus the merged flat text map,
    both holding exactly the keys the experiment reads."""

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

    def latin_params(self) -> LatinParams:
        """The solver parameters; the fields the experiment does not read
        keep their `LatinParams()` defaults."""
        return LatinParams(**{
            key.removeprefix("latin."): v for key, v in self.values.items()
            if key.startswith("latin.")
        })


def build_run_config(
    file_entries: Mapping[str, str], environ: Mapping[str, str] | None = None
) -> RunConfig:
    """Merge defaults, file entries and environment; validate everything.

    The experiment (from the environment, else the file, else its default)
    fixes the keys: those it reads get their defaults, and any other key is
    a ConfigError.  A file's legacy `latin.k_plus`/`latin.k_minus` pair
    reads as `latin.k`."""
    from .cli import EXPERIMENTS  # the read sets sit next to the runners that read them

    entries = merge_legacy_k(file_entries)
    env = env_overrides(environ or {})
    for key in entries:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    name = {**entries, **env}.get("experiment", KNOWN_KEYS["experiment"][1])
    _choice(*EXPERIMENTS)("experiment", name)
    reads = COMMON_KEYS + EXPERIMENTS[name].reads
    for given, origin in ((entries, ""), (env, " (from the environment)")):
        for key in given:
            if key not in reads:
                raise ConfigError(f"{key!r}{origin} is not read by experiment {name!r}")
    flat = {key: KNOWN_KEYS[key][1] for key in reads}
    flat.update(entries)
    flat.update(env)
    values = {key: check_key(key, flat[key]) for key in sorted(flat)}
    cfg = RunConfig(values=values, flat=flat)
    it_max = cfg.latin_params().it_max  # also surfaces range violations (eta, ...)
    late = [it for it in values.get("checkpoints", ()) if it > it_max]
    if late:
        raise ConfigError(f"checkpoints {late} come after latin.it_max = {it_max}")
    return cfg


def parse_config(text: str, environ: Mapping[str, str] | None = None) -> RunConfig:
    return build_run_config(parse_flat(text), environ)
