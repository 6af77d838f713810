"""JSON run configurations: parsing, validation, canonical form.

A config fully determines every numeric output bit (together with the
seed); unknown keys are rejected at every level so typos fail loudly,
and validation collects all errors instead of stopping at the first.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .fields import DistributionSpec, FieldSpec, IidCubes, Laminate, Periodic

CONFIG_VERSION = 1

COMMANDS = ("field-stats", "solve-cell", "estimate-fhom", "verify-bounds",
            "subadditivity", "stationarity", "recession", "rank-one",
            "degenerate-divergence", "degenerate-interface", "glue-check")

DEFAULT_TOL = 1e-5
DEFAULT_N_REAL = 50
DEFAULT_T_LIST = (16.0, 64.0, 256.0)

_TOP_KEYS = {"schema_version", "command", "seed", "tol", "workers", "out_dir",
             "field", "xi", "t_list", "n_real", "cells_per_unit", "options"}
_FIELD_KEYS = {"dimension", "structure", "diagonal", "lower_order"}
_DIST_KEYS = {
    "constant": {"value"},
    "uniform": {"a", "b"},
    "two_point": {"v1", "p", "v2"},
    "pareto": {"x_m", "alpha_tail"},
    "lognormal": {"mu", "sigma"},
}
_STRUCT_KEYS = {
    "iid_cubes": set(),
    "laminate": {"axis"},
    "periodic": {"tile"},
}

# which commands consume the xi key, and each command's options with JSON types
_XI_COMMANDS = {"solve-cell", "estimate-fhom", "verify-bounds", "stationarity",
                "recession", "subadditivity", "degenerate-divergence"}
_XI_REQUIRED = {"solve-cell", "estimate-fhom", "verify-bounds", "stationarity",
                "recession"}
_OPTION_KEYS = {
    "field-stats": {"observable": "string", "entry": "integer", "box": "array"},
    "solve-cell": {"t": "number", "save_minimizer": "boolean"},
    "estimate-fhom": {},
    "verify-bounds": {},
    "subadditivity": {"t": "number", "depth": "integer", "n_instances": "integer",
                      "m": "integer"},
    "stationarity": {"t": "number", "z": "array", "n_matched": "integer"},
    "recession": {"s_list": "array", "t": "number"},
    "rank-one": {"xi_a": "slope", "xi_b": "slope", "n_grid": "integer", "t": "number"},
    "degenerate-divergence": {},
    "degenerate-interface": {"delta_list": "array", "search_limit": "integer",
                             "n_scans": "integer"},
    "glue-check": {"n_instances": "integer", "side": "number", "delta_range": "array"},
}
# a slope is shorthand like "e1" or a numeric row/matrix (see parse_xi)
_JSON_TYPES = {"boolean": bool, "integer": int, "number": (int, float),
               "string": str, "array": list, "slope": (str, list)}


class ConfigError(ValueError):
    """Carries every validation problem found in a config."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


@dataclass
class RunConfig:
    """A validated experiment description; see COMMANDS for the verbs."""

    command: str
    spec: FieldSpec
    xi_list: list
    xi_labels: list
    t_list: tuple
    n_real: int
    seed: int
    tol: float
    cells_per_unit: int
    workers: int
    out_dir: str
    options: dict
    canonical: dict = field(repr=False, default_factory=dict)


def _parse_distribution(obj, where, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object with a 'kind' key")
        return None
    kind = obj.get("kind")
    if kind not in _DIST_KEYS:
        errors.append(f"{where}: unknown distribution kind {kind!r} "
                      f"(one of {sorted(_DIST_KEYS)})")
        return None
    allowed = _DIST_KEYS[kind] | {"kind"}
    unknown = set(obj) - allowed
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)} for kind "
                      f"{kind!r}")
        return None
    missing = _DIST_KEYS[kind] - set(obj)
    if missing:
        errors.append(f"{where}: missing parameters {sorted(missing)} for "
                      f"kind {kind!r}")
        return None
    args = {k: obj[k] for k in _DIST_KEYS[kind]}
    try:
        dist = getattr(DistributionSpec, kind)(**args)
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
        return None
    for msg in dist.validate():
        errors.append(f"{where}: {msg}")
    return dist


def _parse_structure(obj, where, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object with a 'kind' key")
        return None
    kind = obj.get("kind")
    if kind not in _STRUCT_KEYS:
        errors.append(f"{where}: unknown structure kind {kind!r} "
                      f"(one of {sorted(_STRUCT_KEYS)})")
        return None
    unknown = set(obj) - (_STRUCT_KEYS[kind] | {"kind"})
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)} for kind "
                      f"{kind!r}")
        return None
    if kind == "iid_cubes":
        return IidCubes()
    if kind == "laminate":
        axis = obj.get("axis", 1)
        if not isinstance(axis, int):
            errors.append(f"{where}: laminate axis must be an integer")
            return None
        return Laminate(axis=axis)
    tile = obj.get("tile")
    try:
        return Periodic(tile=np.asarray(tile, dtype=float))
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: bad periodic tile: {exc}")
        return None


def _parse_field(obj, errors):
    if not isinstance(obj, dict):
        errors.append("field: expected an object")
        return None
    unknown = set(obj) - _FIELD_KEYS
    if unknown:
        errors.append(f"field: unknown keys {sorted(unknown)}")
    dim = obj.get("dimension")
    if not isinstance(dim, int) or dim < 1:
        errors.append("field.dimension: must be a positive integer")
        return None
    if "structure" not in obj:
        errors.append("field.structure: required")
        return None
    structure = _parse_structure(obj["structure"], "field.structure", errors)
    diagonal = None
    if obj.get("diagonal") is not None:
        dg = obj["diagonal"]
        if isinstance(dg, list):
            laws = [_parse_distribution(x, f"field.diagonal[{i}]", errors)
                    for i, x in enumerate(dg)]
            diagonal = None if any(v is None for v in laws) else tuple(laws)
        else:
            diagonal = _parse_distribution(dg, "field.diagonal", errors)
    lower = None
    if obj.get("lower_order") is not None:
        lower = _parse_distribution(obj["lower_order"], "field.lower_order",
                                    errors)
    if structure is None:
        return None
    spec = FieldSpec(dimension=dim, structure=structure, diagonal=diagonal,
                     lower_order=lower)
    for msg in spec.validate():
        errors.append(f"field: {msg}")
    return spec


_XI_TERM = re.compile(r"^([+-]?\d*\.?\d*)e([1-9]\d*)$")


def parse_xi(value, dimension, where="xi"):
    """One slope from shorthand like 'e1', '2e1-0.5e2', or an m x d list."""
    if isinstance(value, str):
        row = np.zeros(dimension)
        compact = value.replace(" ", "")
        terms = re.findall(r"[+-]?[^+-]+", compact)
        if not terms:
            raise ValueError(f"{where}: empty slope string")
        for term in terms:
            m = _XI_TERM.match(term)
            if not m:
                raise ValueError(f"{where}: cannot parse term {term!r} "
                                 "(use e.g. 'e1', '2e1-0.5e2')")
            coef_s, axis_s = m.groups()
            coef = 1.0 if coef_s in ("", "+") else (-1.0 if coef_s == "-"
                                                    else float(coef_s))
            axis = int(axis_s)
            if axis > dimension:
                raise ValueError(f"{where}: axis e{axis} exceeds dimension "
                                 f"{dimension}")
            row[axis - 1] += coef
        return row[None, :], value
    xi = np.asarray(value, dtype=float)
    if xi.ndim == 1:
        xi = xi[None, :]
    if xi.ndim != 2 or xi.shape[1] != dimension:
        raise ValueError(f"{where}: expected an m x {dimension} matrix")
    label = "[" + ";".join(",".join(f"{v:g}" for v in row) for row in xi) + "]"
    return xi, label


def _is_num_list(x):
    return (isinstance(x, list) and x
            and all(isinstance(v, (int, float)) for v in x))


def _parse_xi_block(value, dimension, errors):
    if isinstance(value, str) or _is_num_list(value):
        items = [value]
    elif (isinstance(value, list) and value
          and all(_is_num_list(row) for row in value)):
        items = [value]  # one m x d matrix
    elif isinstance(value, list):
        # list of slopes, each a string, row, or matrix
        items = value
    else:
        errors.append("xi: expected a slope or a list of slopes")
        return [], []
    xis, labels = [], []
    for i, item in enumerate(items):
        try:
            xi, label = parse_xi(item, dimension, where=f"xi[{i}]")
        except ValueError as exc:
            errors.append(str(exc))
            continue
        xis.append(xi)
        labels.append(label)
    return xis, labels


def _check_options(command, opts, errors):
    if not isinstance(opts, dict):
        errors.append("options: expected an object")
        return {}
    accepted = _OPTION_KEYS[command]
    unknown = set(opts) - set(accepted)
    if unknown:
        errors.append(f"options: keys {sorted(unknown)} not accepted by "
                      f"command {command!r}")
    for key in sorted(set(opts) & set(accepted)):
        value, want = opts[key], accepted[key]
        # JSON true/false are not numbers, though Python bools are ints
        if isinstance(value, bool) != (want == "boolean") or not isinstance(
                value, _JSON_TYPES[want]):
            errors.append(f"options.{key}: expected {want}, got {value!r}")
    return opts


def canonical_config(cfg: dict) -> dict:
    """Stable, defaults-filled echo of a raw config dict."""
    out = {k: cfg[k] for k in sorted(cfg)}
    out.setdefault("schema_version", CONFIG_VERSION)
    out.setdefault("tol", DEFAULT_TOL)
    out.setdefault("n_real", DEFAULT_N_REAL)
    out.setdefault("seed", 0)
    out.setdefault("cells_per_unit", 2)
    return out


def parse_config_dict(raw: dict) -> RunConfig:
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        errors.append(f"unknown top-level keys {sorted(unknown)}")
    ver = raw.get("schema_version", CONFIG_VERSION)
    if ver != CONFIG_VERSION:
        errors.append(f"schema_version: expected {CONFIG_VERSION}, got {ver}")
    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(f"command: expected one of {list(COMMANDS)}, got "
                      f"{command!r}")
        raise ConfigError(errors)

    spec = None
    if "field" not in raw:
        errors.append("field: required")
    else:
        spec = _parse_field(raw["field"], errors)

    xi_list, xi_labels = [], []
    if "xi" in raw:
        if command not in _XI_COMMANDS:
            errors.append(f"xi: not accepted by command {command!r}")
        elif spec is not None:
            xi_list, xi_labels = _parse_xi_block(raw["xi"], spec.dimension,
                                                 errors)
    elif command in _XI_REQUIRED:
        errors.append(f"xi: required by command {command!r}")

    t_list = raw.get("t_list", list(DEFAULT_T_LIST))
    if (not isinstance(t_list, list) or not t_list
            or any(not isinstance(t, (int, float)) or t <= 0 for t in t_list)):
        errors.append("t_list: must be a nonempty list of positive numbers")
        t_list = list(DEFAULT_T_LIST)

    n_real = raw.get("n_real", DEFAULT_N_REAL)
    if not isinstance(n_real, int) or n_real < 1:
        errors.append("n_real: must be a positive integer")
        n_real = DEFAULT_N_REAL
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        errors.append("seed: must be an integer")
        seed = 0
    tol = raw.get("tol", DEFAULT_TOL)
    if not isinstance(tol, (int, float)) or not (0 < tol < 1):
        errors.append("tol: must be a number in (0, 1)")
        tol = DEFAULT_TOL
    cpu = raw.get("cells_per_unit", 2)
    if not isinstance(cpu, int) or cpu < 1:
        errors.append("cells_per_unit: must be a positive integer")
        cpu = 2
    workers = raw.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        errors.append("workers: must be a positive integer")
        workers = 1
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        errors.append("out_dir: must be a string path")
        out_dir = None

    options = _check_options(command, raw.get("options", {}), errors)
    if errors:
        raise ConfigError(errors)
    return RunConfig(command=command, spec=spec, xi_list=xi_list,
                     xi_labels=xi_labels, t_list=tuple(float(t) for t in t_list),
                     n_real=n_real, seed=seed, tol=float(tol),
                     cells_per_unit=cpu, workers=workers, out_dir=out_dir,
                     options=dict(options), canonical=canonical_config(raw))


def parse_config(path) -> RunConfig:
    """Load and validate a JSON config; raises ConfigError listing every
    problem found."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"]) from exc
    return parse_config_dict(raw)
