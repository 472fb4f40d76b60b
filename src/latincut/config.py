"""Flat key = value configuration with typed validation.

One vocabulary covers run orchestration (experiment choice, sweep shapes,
export toggles) and full problem definitions, so every ProblemDef
round-trips through the same text format the runner consumes.  Precedence:
built-in defaults, then the config file, then LATINCUT_* environment
variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import ConfigError
from .experiments import EXPERIMENTS, SIDES, _LEVELSET_ARITY
from .latin import INTERFACE_SCHEMES, LatinParams

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


def _rect(key: str, v) -> None:
    if len(v) != 4:
        raise ConfigError(f"{key} takes four numbers x0,y0,x1,y1")
    if v[2] <= v[0] or v[3] <= v[1]:
        raise ConfigError(f"{key} must describe a nonempty rectangle")


def _pair(key: str, v) -> None:
    if len(v) != 2:
        raise ConfigError(f"{key} takes two numbers")


def _levelset_entry(key: str, text: str) -> None:
    kind = text.split(",", 1)[0].strip()
    if kind not in _LEVELSET_ARITY:
        raise ConfigError(
            f"{key}: unknown level-set kind {kind!r}"
            f" (choices: {', '.join(sorted(_LEVELSET_ARITY))})"
        )
    vals = text.split(",")[1:]
    if len(vals) != _LEVELSET_ARITY[kind]:
        raise ConfigError(
            f"{key}: {kind} takes {_LEVELSET_ARITY[kind]} numbers, got {len(vals)}"
        )
    for tok in vals:
        _parse_float(key, tok.strip())


# key -> (type, default text or None, extra validator or None)
KNOWN_KEYS: dict[str, tuple[str, str | None, Callable | None]] = {
    "experiment": ("str", "ellipse_convergence", _choice(*EXPERIMENTS)),
    "output.dir": ("str", "out", None),
    "workers": ("int", "1", _positive_int),
    "checkpoints": ("int_list", "", None),
    "export.fields": ("bool", "false", None),
    "export.profiles": ("bool", "false", None),
    "latin.k_plus": ("float", "1.0", None),
    "latin.k_minus": ("float", "1.0", None),
    "latin.eta": ("float", "0.85", None),
    "latin.gamma_g": ("float", "0.1", None),
    "latin.gamma_pi": ("float", "0.1", None),
    "latin.alpha": ("float", "10.0", None),
    "latin.it_max": ("int", "200", None),
    "latin.quad_points_per_segment": ("int", "2", None),
    "latin.interface_scheme": ("str", "p1", _choice(*INTERFACE_SCHEMES)),
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
    # problem-definition vocabulary (kept so ProblemDefs round-trip)
    "problem.name": ("str", None, None),
    "mesh.rect": ("float_list", None, _rect),
    "mesh.nx": ("int", None, _positive_int),
    "mesh.ny": ("int", None, _positive_int),
    "material.e": ("float_list", None, None),
    "material.nu": ("float", None, None),
    "geometry.grouping": ("int_list", None, None),
}

_SIDE_ALT = "|".join(SIDES)
# wildcard families: regex on the dotted key, value checker
WILDCARD_KEYS: tuple[tuple[re.Pattern, Callable[[str, str], None]], ...] = (
    (re.compile(r"^geometry\.levelset\.\d+$"), _levelset_entry),
    (
        re.compile(rf"^bc\.(dirichlet|neumann)\.\d+\.({_SIDE_ALT})$"),
        lambda key, text: _pair(key, _parse_float_list(key, text)),
    ),
)


def check_key(key: str, text: str) -> object | None:
    """Validate one entry; returns the typed value for fixed keys, None for
    wildcard keys (those stay textual), raises ConfigError if unknown."""
    if key in KNOWN_KEYS:
        kind, _, validate = KNOWN_KEYS[key]
        value = _PARSERS[kind](key, text)
        if validate is not None:
            validate(key, value)
        return value
    for pattern, validate in WILDCARD_KEYS:
        if pattern.match(key):
            validate(key, text)
            return None
    raise ConfigError(f"unknown config key {key!r}")


def env_overrides(environ: Mapping[str, str]) -> dict[str, str]:
    """Map LATINCUT_* variables onto config keys (case-insensitive)."""
    lookup = {k.replace(".", "_").lower(): k for k in KNOWN_KEYS}
    wild = [
        (re.compile(p.pattern.replace("\\.", "_")), p)
        for p, _ in WILDCARD_KEYS
    ]
    out: dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        stem = name[len(ENV_PREFIX):].lower()
        if stem in lookup:
            out[lookup[stem]] = value
            continue
        restored = None
        for flat_pat, dot_pat in wild:
            if flat_pat.match(stem):
                # only the family prefix contains dots; bc sides and indices
                # never do, so segment-wise restoration is unambiguous
                parts = stem.split("_")
                candidate = ".".join(parts)
                if dot_pat.match(candidate):
                    restored = candidate
                    break
        if restored is None:
            raise ConfigError(f"unknown config key in environment: {name}")
        out[restored] = value
    return out


@dataclass
class RunConfig:
    """Resolved run description: typed values plus the merged flat text map."""

    values: dict[str, object]
    flat: dict[str, str]
    problem_entries: dict[str, str] = field(default_factory=dict)

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
        v = self.values
        return LatinParams(
            k_plus=v["latin.k_plus"],
            k_minus=v["latin.k_minus"],
            eta=v["latin.eta"],
            gamma_g=v["latin.gamma_g"],
            gamma_pi=v["latin.gamma_pi"],
            alpha=v["latin.alpha"],
            it_max=v["latin.it_max"],
            quad_points_per_segment=v["latin.quad_points_per_segment"],
            interface_scheme=v["latin.interface_scheme"],
        )


def build_run_config(
    file_entries: Mapping[str, str], environ: Mapping[str, str] | None = None
) -> RunConfig:
    """Merge defaults, file entries and environment; validate everything."""
    flat = {k: d for k, (_, d, _) in KNOWN_KEYS.items() if d is not None}
    flat.update(file_entries)
    if environ is not None:
        flat.update(env_overrides(environ))
    values: dict[str, object] = {}
    problem_entries: dict[str, str] = {}
    for key in sorted(flat):
        typed = check_key(key, flat[key])
        if typed is None or (key in KNOWN_KEYS and KNOWN_KEYS[key][1] is None):
            problem_entries[key] = flat[key]
        if typed is not None:
            values[key] = typed
    cfg = RunConfig(values=values, flat=dict(flat), problem_entries=problem_entries)
    cfg.latin_params()  # surfaces range violations (eta, alpha, ...) early
    return cfg


def parse_config(text: str, environ: Mapping[str, str] | None = None) -> RunConfig:
    return build_run_config(parse_flat(text), environ)
