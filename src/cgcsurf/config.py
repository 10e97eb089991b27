"""Flat key-value job configuration.

Grammar: one `key = value` pair per line; `#` starts a comment. Values are
parsed as JSON (numbers, strings, booleans, nested lists for complex pairs).
Complex numbers appear as `[re, im]` pairs; Q coefficients as a list of such
pairs, lowest degree first.
"""

import json
import math
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .qdiff import PLANE, UNIT_DISK, QDiff


@dataclass
class JobConfig:
    K: float = -0.75
    q_coeffs: tuple = ((0.0, 0.0),)
    domain: str = UNIT_DISK
    x_min: float = -0.5
    x_max: float = 0.5
    y_min: float = -0.5
    y_max: float = 0.5
    n: int = 65
    ny: int = 0  # 0 means same as n
    lambdas: tuple = ((1.0, 0.0),)
    at_lambda0: bool = False
    bc_mode: str = "heuristic"  # umbilic-exact | heuristic | file
    bc_file: str = ""
    out_dir: str = "out"
    gauss_tol: float = 1e-10

    def qdiff(self):
        return QDiff(tuple(complex(re, im) for re, im in self.q_coeffs), self.domain)

    def lambda_values(self):
        return [complex(re, im) for re, im in self.lambdas]


def _strict(name, *kinds):
    """Converter that accepts only values of exactly these JSON types."""

    def conv(v):
        if type(v) not in kinds:  # bool is an int subclass; reject it for N
            raise TypeError(f"expected {name}, got {json.dumps(v)}")
        return v

    return conv


_json_number = _strict("a number", int, float)


def _number(v):
    """A JSON int or float as a float; booleans and strings are rejected."""
    return float(_json_number(v))


def _pairs(v):
    return tuple((_number(a), _number(b)) for a, b in v)


_FIELD_PARSERS = {
    "K": ("K", _number),
    "Q": ("q_coeffs", _pairs),
    "domain": ("domain", str),
    "x_min": ("x_min", _number),
    "x_max": ("x_max", _number),
    "y_min": ("y_min", _number),
    "y_max": ("y_max", _number),
    "r": (None, None),  # shorthand for a centered square
    "N": ("n", _strict("an integer", int)),
    "Ny": ("ny", _strict("an integer", int)),
    "lambdas": ("lambdas", _pairs),
    "at_lambda0": ("at_lambda0", _strict("true or false", bool)),
    "bc_mode": ("bc_mode", str),
    "bc_file": ("bc_file", str),
    "out_dir": ("out_dir", str),
    "gauss_tol": ("gauss_tol", _number),
}


def parse_config(text):
    """Parse and validate a flat key-value config; raise with key paths."""
    cfg = JobConfig()
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_PARSERS:
            errors.append(f"{key}: unknown key")
            continue
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: bad value for {key}: {exc}") from exc
        if key == "r":
            try:
                r = _number(parsed)
            except (TypeError, OverflowError) as exc:
                errors.append(f"r: {exc}")
                continue
            if not math.isfinite(r):
                errors.append("r: must be finite")
                continue
            # centered square inscribed in the radius-r disk (corner radius r)
            a = r / 2.0**0.5
            cfg.x_min = cfg.y_min = -a
            cfg.x_max = cfg.y_max = a
            continue
        attr, conv = _FIELD_PARSERS[key]
        try:
            setattr(cfg, attr, conv(parsed))
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append(f"{key}: {exc}")
    errors.extend(validate(cfg))
    if errors:
        raise ValidationError(errors[0].split(":")[0], "; ".join(errors))
    return cfg


def validate(cfg):
    errors = []
    numbers = {
        "K": [cfg.K],
        "Q": [v for pair in cfg.q_coeffs for v in pair],
        "x_min": [cfg.x_min],
        "x_max": [cfg.x_max],
        "y_min": [cfg.y_min],
        "y_max": [cfg.y_max],
        "lambdas": [v for pair in cfg.lambdas for v in pair],
    }
    for key, values in numbers.items():
        if not all(map(math.isfinite, values)):
            errors.append(f"{key}: must be finite")
    if not (0.0 < cfg.gauss_tol < math.inf):
        errors.append("gauss_tol: must be finite and > 0")
    if not (-1.0 < cfg.K < 0.0 or cfg.K > 0.0):
        errors.append("K: must lie in (-1,0) or (0,inf)")
    if cfg.n < 9:
        errors.append("N: must be >= 9")
    elif cfg.n % 2 == 0:
        errors.append("N: must be odd")
    if cfg.ny and (cfg.ny < 9 or cfg.ny % 2 == 0):
        errors.append("Ny: must be odd and >= 9")
    elif cfg.n >= 9:
        # Grid's test: equal spacing in x and y, to 1e-12 relative
        hx = (cfg.x_max - cfg.x_min) / (cfg.n - 1)
        hy = (cfg.y_max - cfg.y_min) / ((cfg.ny or cfg.n) - 1)
        rect = "x_min, x_max, y_min, y_max"
        if not (hx > 0 and hy > 0):
            errors.append(f"{rect}: rectangle must have positive width and height")
        elif abs(hx - hy) > 1e-12 * max(hx, hy):
            errors.append(
                f"{rect}: N x Ny nodes must give equal spacing in x and y, "
                f"got hx={hx:.6g}, hy={hy:.6g}"
            )
    if cfg.domain not in (UNIT_DISK, PLANE):
        errors.append("domain: must be 'unit-disk' or 'plane'")
    if cfg.domain == UNIT_DISK:
        corner = max(
            (x**2 + y**2) ** 0.5
            for x in (cfg.x_min, cfg.x_max)
            for y in (cfg.y_min, cfg.y_max)
        )
        if corner >= 1.0:
            errors.append("r: rectangle must lie strictly inside the unit disk")
    if cfg.bc_mode not in ("umbilic-exact", "heuristic", "file"):
        errors.append("bc_mode: must be umbilic-exact, heuristic or file")
    if cfg.bc_mode == "umbilic-exact" and not (-1.0 < cfg.K < 0.0):
        errors.append("bc_mode: umbilic-exact requires -1 < K < 0")
    if cfg.bc_mode == "file" and not cfg.bc_file:
        errors.append("bc_file: required when bc_mode = file")
    if any(abs(complex(a, b)) == 0 for a, b in cfg.lambdas):
        errors.append("lambdas: spectral parameter must be nonzero")
    return errors
