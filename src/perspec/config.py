"""Run configuration: flat key=value files, environment overrides, validation.

Precedence (low to high): built-in defaults, config file, environment
variables prefixed ``PERSPEC_OPT_`` (e.g. ``PERSPEC_OPT_EPSILON=2.0``),
command-line flags.  The format is deliberately flat and typed so a
config that passes ``validate`` round-trips through ``to_text``/
``parse_text``: every value is one line, and the paths ``profile_file``
and ``out`` hold no surrounding whitespace for ``parse_text`` to strip
(``p_orders`` may lose its own and still name the same orders).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .errors import ValidationError
from .profiles import KINDS
from .schatten import DEFAULT_ORDERS
from .shooting import DEFAULT_CONFIG

ENV_PREFIX = "PERSPEC_OPT_"


@dataclass
class RunConfig:
    profile: str = "sine"
    profile_file: str = ""
    epsilon: float = 1.0
    rtol: float = DEFAULT_CONFIG.rtol
    atol: float = DEFAULT_CONFIG.atol
    resolution: float = 0.05
    lmax: float = 50.0
    grid: int = 512
    lambda_re: float = 0.0
    lambda_im: float = 1.0
    p_orders: str = ",".join(f"{p:g}" for p in DEFAULT_ORDERS)
    levels: int = 6
    seed: int = 1234
    out: str = ""

    def validate(self) -> "RunConfig":
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind == "float" and not math.isfinite(value):
                raise ValidationError(f"{name} must be a finite number, got {value}")
            if kind == "str" and value.splitlines() not in ([], [value]):
                raise ValidationError(f"{name} must not hold a line break, got {value!r}")
        for name in ("profile_file", "out"):
            value = getattr(self, name)
            if value != value.strip():
                raise ValidationError(
                    f"{name} must not start or end with whitespace, got {value!r}")
        if self.profile not in KINDS:
            raise ValidationError(f"profile must be one of {KINDS}, got {self.profile!r}")
        if self.profile == "tabulated" and not self.profile_file:
            raise ValidationError("profile_file is required for tabulated profiles")
        if not 0.0 < self.epsilon < math.pi:
            raise ValidationError(f"epsilon must lie in (0, pi), got {self.epsilon}")
        if self.resolution <= 0:
            raise ValidationError(f"resolution must be positive, got {self.resolution}")
        if self.lmax <= 0:
            raise ValidationError(f"lmax must be positive, got {self.lmax}")
        if self.grid < 64 or self.grid % 2:
            raise ValidationError(f"grid must be an even integer >= 64, got {self.grid}")
        if not 0 <= self.levels <= 8:
            raise ValidationError(f"levels must lie in 0..8, got {self.levels}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValidationError("rtol and atol must be positive")
        try:
            orders = self.parsed_orders()
        except ValueError as exc:
            raise ValidationError(f"p_orders must be a comma list of numbers: {exc}") from exc
        if not orders:
            raise ValidationError(f"p_orders names no order: {self.p_orders!r}")
        if any(p <= 0 for p in orders):
            raise ValidationError("p_orders entries must be positive")
        return self

    def parsed_orders(self) -> tuple[float, ...]:
        return tuple(float(tok) for tok in self.p_orders.split(",") if tok.strip())

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_text(self) -> str:
        lines = [f"{k}={v if isinstance(v, str) else repr(v)}" for k, v in self.as_dict().items()]
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind == "float":
        return float(raw)
    if kind == "int":
        return int(raw)
    return raw


def parse_text(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines; unknown keys and bad values carry line numbers."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError:
            raise ValidationError(
                f"{source}:{lineno}: cannot parse {raw.strip()!r} for field {key!r}")
    return values


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    values = {}
    for key, raw in environ.items():
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX):].lower()
        if name not in _FIELD_TYPES:
            raise ValidationError(f"environment {key}: unknown key {name!r}")
        try:
            values[name] = _coerce(name, raw)
        except ValueError:
            raise ValidationError(f"environment {key}: cannot parse {raw!r}")
    return values


def load_config(path: str | None = None, overrides: dict | None = None,
                environ=None) -> RunConfig:
    """Defaults, then file, then environment, then explicit overrides."""
    values: dict = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        values.update(parse_text(text, source=path))
    values.update(env_overrides(environ))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise ValidationError(f"unknown config field {key!r}")
        values[key] = val
    return RunConfig(**values).validate()
