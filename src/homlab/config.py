"""JSON run configurations: parsing, validation, canonical form.

A config fully determines every numeric output bit (together with the
seed); unknown keys are rejected at every level so typos fail loudly.
One table gives the JSON type, default and bound of every value, one row
per command gives its options, whether it takes a slope and the check
of the values that join, and validation collects all errors instead of
stopping at the first.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .fields import LAWS, DistributionSpec, FieldSpec, IidCubes, Laminate, Periodic
from .glue import glue_boxes
from .homogenize import rank_one_segment, subcube_parts

CONFIG_VERSION = 1

_REQUIRED = object()  # the default of a value every config must give


# What one config value may be: a JSON type, a default and a bound.
# ``bound`` says in words which values of the type are allowed, with {d}
# for the field dimension, and ``ok(value, d)`` tests it.  A callable
# default is computed from the parsed top-level values.
_Rule = namedtuple("_Rule", "type default bound ok",
                   defaults=(None, "", lambda v, d: True))


def _num(x):
    # JSON true/false are not numbers, though Python bools are ints
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _nums(v, n=None):
    """v is a nonempty list of numbers, of length n if n is given."""
    return (isinstance(v, list) and len(v) > 0 and n in (None, len(v))
            and all(_num(x) for x in v))


def _at_least(lo, default):
    return _Rule("integer", default, f">= {lo}", lambda v, d: v >= lo)


_POSITIVE = dict(bound="> 0", ok=lambda v, d: v > 0)
_POSITIVES = dict(bound="of one or more numbers > 0",
                  ok=lambda v, d: _nums(v) and min(v) > 0)
_T = _Rule("number", lambda top: top["t_list"][0], **_POSITIVE)
_OBSERVABLES = ("lambda_norm", "entry", "lower")

# Every top-level and field value by its path.  Parsing fills in the
# defaults, so a RunConfig holds every key its command reads.
_VALUES = {
    "schema_version": _Rule("integer", CONFIG_VERSION, f"equal to {CONFIG_VERSION}",
                            lambda v, d: v == CONFIG_VERSION),
    "seed": _Rule("integer", 0),
    "tol": _Rule("number", 1e-5, "in (0, 1)", lambda v, d: 0 < v < 1),
    "n_real": _at_least(1, 50),
    "t_list": _Rule("array", (16.0, 64.0, 256.0), **_POSITIVES),
    "cells_per_unit": _at_least(1, 2),
    "field.dimension": _at_least(1, _REQUIRED),
    "field.structure.axis": _Rule("integer", 1, "in 1..{d}", lambda v, d: 1 <= v <= d),
}


def _joint(key, check):
    """A check of options that join, made by the library helper that raises
    at run time; it runs once every option of the command has parsed."""
    def run(command, opts, spec, cpu, errors):
        if None not in opts.values():
            try:
                check(opts, spec.dimension, cpu)
            except ValueError as exc:
                errors.append(f"options.{key}: {exc}")
    return run


def _scalar_laminate(command, opts, spec, cpu, errors):
    if not (isinstance(spec.structure, Laminate) and spec.is_isotropic_law):
        errors.append(f"field: {command} requires a laminate with one scalar weight law")


_SUBCUBES = _joint("depth", lambda o, d, cpu: subcube_parts(o["t"], o["depth"], cpu))
_RANK_ONE = _joint("xi_b", lambda o, d, cpu: rank_one_segment(o["xi_a"][0], o["xi_b"][0]))
# the glue layers are widest at the least delta
_GLUE = _joint("side", lambda o, d, cpu: glue_boxes(d, o["side"], cpu, o["delta_range"][0]))

# One row per command: its options by name, whether it takes the xi key
# ("none", "optional" or "required"), and a check of what must hold
# together (options that join, or the field the command needs), which
# adds its error to the list.
_Command = namedtuple("_Command", "options xi check", defaults=(None,))
_COMMAND_TABLE = {
    "field-stats": _Command({
        "observable": _Rule("string", "entry", f"in {_OBSERVABLES}",
                            lambda v, d: v in _OBSERVABLES),
        "entry": _Rule("integer", 0, "in [0, {d})", lambda v, d: 0 <= v < d),
        "box": _Rule("array", None, "of {d} [lo, hi] pairs with lo < hi",
                     lambda v, d: len(v) == d
                     and all(_nums(r, 2) and r[0] < r[1] for r in v)),
    }, "none"),
    "solve-cell": _Command({"t": _T, "save_minimizer": _Rule("boolean", False)}, "required"),
    "estimate-fhom": _Command({}, "required"),
    "verify-bounds": _Command({}, "required"),
    "subadditivity": _Command({"t": _T, "depth": _at_least(1, 1),
                               "n_instances": _at_least(1, lambda top: top["n_real"]),
                               "m": _at_least(1, 1)}, "optional", _SUBCUBES),
    "stationarity": _Command({"t": _T, "z": _Rule("array", None, "of {d} numbers",
                                                  lambda v, d: _nums(v, d)),
                              "n_matched": _at_least(1, 5)}, "required"),
    "recession": _Command({"s_list": _Rule("array", (1.0, 2.0, 5.0), **_POSITIVES),
                           "t": _T}, "required"),
    "rank-one": _Command({"xi_a": _Rule("slope", _REQUIRED), "xi_b": _Rule("slope", _REQUIRED),
                          "n_grid": _at_least(3, 5), "t": _T}, "none", _RANK_ONE),
    "degenerate-divergence": _Command({}, "optional", _scalar_laminate),
    "degenerate-interface": _Command({"delta_list": _Rule("array", (0.1, 0.01), **_POSITIVES),
                                      "search_limit": _at_least(1, 10_000),
                                      "n_scans": _at_least(0, 0)}, "none", _scalar_laminate),
    "glue-check": _Command({"n_instances": _at_least(1, 20),
                            "side": _Rule("number", 32.0, **_POSITIVE),
                            "delta_range": _Rule("array", (0.3, 0.6),
                                                 "[lo, hi] with 0 < lo <= hi",
                                                 lambda v, d: _nums(v, 2) and 0 < v[0] <= v[1])},
                           "none", _GLUE),
}
COMMANDS = tuple(_COMMAND_TABLE)
# a slope is shorthand like "e1" or a numeric row/matrix (see parse_xi)
_JSON_TYPES = {"boolean": bool, "integer": int, "number": (int, float),
               "string": str, "array": list, "slope": (str, list)}
# the defaults canonical_config echoes, so run ids stay stable
_CANONICAL = ("schema_version", "tol", "n_real", "seed", "cells_per_unit")

_TOP_KEYS = {k for k in _VALUES if "." not in k} | {"command", "field", "xi", "options"}
_FIELD_KEYS = {"dimension", "structure", "diagonal", "lower_order"}
_DIST_KEYS = {kind: law.names for kind, law in LAWS.items()}
_STRUCT_KEYS = {"iid_cubes": set(), "laminate": {"axis"}, "periodic": {"tile"}}


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
    options: dict
    canonical: dict = field(repr=False, default_factory=dict)


def _check_value(key, value, rule, d, errors):
    """``value`` if it has the rule's type and bound, with numbers as
    floats and a slope parsed to (xi, label); else None and an error."""
    if (isinstance(value, bool) == (rule.type == "boolean")
            and isinstance(value, _JSON_TYPES[rule.type]) and rule.ok(value, d)):
        if rule.type == "slope":
            try:
                return parse_xi(value, d, where=key)
            except ValueError as exc:
                errors.append(str(exc))
                return None
        return _floats(value) if rule.type in ("number", "array") else value
    bound = " " + rule.bound.format(d=d) if rule.bound else ""
    errors.append(f"{key}: expected {rule.type}{bound}, got {value!r}")
    return None


def _floats(v):
    return tuple(_floats(x) for x in v) if isinstance(v, list) else float(v)


def _take(obj, key, rule, d, errors, where="", top=None):
    """obj[key] checked against ``rule``, or the rule's default if absent."""
    if key in obj:
        return _check_value(where + key, obj[key], rule, d, errors)
    if rule.default is _REQUIRED:
        errors.append(f"{where}{key}: required")
        return None
    return rule.default(top) if callable(rule.default) else rule.default


def _kind_of(obj, where, kinds, what, errors):
    """The kind of an object like {"kind": ..., **params}, checked against
    ``kinds`` (kind -> parameter names); None after an error."""
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object with a 'kind' key")
        return None
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        errors.append(f"{where}: unknown {what} kind {kind!r} "
                      f"(one of {sorted(kinds)})")
        return None
    unknown = set(obj) - {"kind", *kinds[kind]}
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)} for kind "
                      f"{kind!r}")
        return None
    return kind


def _parse_distribution(obj, where, errors):
    kind = _kind_of(obj, where, _DIST_KEYS, "distribution", errors)
    if kind is None:
        return None
    names = _DIST_KEYS[kind]
    missing = [k for k in names if k not in obj]
    if missing:
        errors.append(f"{where}: missing parameters {missing} for kind {kind!r}")
        return None
    bad = [k for k in names if not _num(obj[k])]
    if bad:
        errors.append(f"{where}: parameters {bad} must be numbers")
        return None
    # its bounds are checked with the field's, by FieldSpec.validate
    return DistributionSpec(kind, tuple(float(obj[k]) for k in names))


def _parse_structure(obj, d, errors):
    kind = _kind_of(obj, "field.structure", _STRUCT_KEYS, "structure", errors)
    if kind == "iid_cubes":
        return IidCubes()
    if kind == "laminate":
        axis = _take(obj, "axis", _VALUES["field.structure.axis"], d, errors,
                     "field.structure.")
        return None if axis is None else Laminate(axis=axis)
    if kind == "periodic":
        try:
            return Periodic(tile=np.asarray(obj.get("tile"), dtype=float))
        except (TypeError, ValueError) as exc:
            errors.append(f"field.structure: bad periodic tile: {exc}")
    return None


def _parse_field(obj, errors):
    if not isinstance(obj, dict):
        errors.append("field: required, as an object")
        return None
    unknown = set(obj) - _FIELD_KEYS
    if unknown:
        errors.append(f"field: unknown keys {sorted(unknown)}")
    dim = _take(obj, "dimension", _VALUES["field.dimension"], None, errors, "field.")
    if dim is None:
        return None
    before = len(errors)
    structure = _parse_structure(obj.get("structure"), dim, errors)
    diagonal, lower = obj.get("diagonal"), obj.get("lower_order")
    if isinstance(diagonal, list):
        laws = [_parse_distribution(x, f"field.diagonal[{i}]", errors)
                for i, x in enumerate(diagonal)]
        diagonal = tuple(laws)
    elif diagonal is not None:
        diagonal = _parse_distribution(diagonal, "field.diagonal", errors)
    if lower is not None:
        lower = _parse_distribution(lower, "field.lower_order", errors)
    spec = FieldSpec(dimension=dim, structure=structure, diagonal=diagonal,
                     lower_order=lower)
    # what did not parse is reported already; check the laws that did
    parsed = len(errors) == before
    msgs = spec.validate() if parsed else spec.law_errors()
    errors.extend(f"field: {msg}" for msg in msgs)
    return spec if parsed else None


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


def _parse_xi_block(value, dimension, errors):
    if isinstance(value, str) or _nums(value):
        items = [value]
    elif isinstance(value, list) and value and all(_nums(row) for row in value):
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
        if label in labels:
            errors.append(f"xi: duplicate slope label {label!r}")
            continue
        same = [other for other, x in zip(labels, xis) if np.array_equal(x, xi)]
        if same:  # one slope spelled twice would be solved twice
            errors.append(f"xi: slope {label!r} equals slope {same[0]!r}")
            continue
        xis.append(xi)
        labels.append(label)
    return xis, labels


def _check_options(command, opts, top, d, errors):
    """Every option of ``command``: checked if given, else its default."""
    if not isinstance(opts, dict):
        errors.append("options: expected an object")
        return {}
    rules = _COMMAND_TABLE[command].options
    unknown = set(opts) - set(rules)
    if unknown:
        errors.append(f"options: keys {sorted(unknown)} not accepted by "
                      f"command {command!r}")
    return {key: _take(opts, key, rule, d, errors, "options.", top)
            for key, rule in rules.items()}


def canonical_config(cfg: dict) -> dict:
    """Stable, defaults-filled echo of a raw config dict."""
    out = {k: cfg[k] for k in sorted(cfg)}
    for key in _CANONICAL:
        out.setdefault(key, _VALUES[key].default)
    return out


def parse_config_dict(raw: dict) -> RunConfig:
    """Validate a raw config dict against the table; raises ConfigError.

    Slopes and options are checked against the field's dimension, so a
    bad field stops validation before them.
    """
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        errors.append(f"unknown top-level keys {sorted(unknown)}")
    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(f"command: expected one of {list(COMMANDS)}, got "
                      f"{command!r}")
        raise ConfigError(errors)
    top = {}
    for key, rule in _VALUES.items():
        if "." not in key:
            value = _take(raw, key, rule, None, errors)
            # a bad value stands in as its default for the checks below
            top[key] = rule.default if value is None else value

    spec = _parse_field(raw.get("field"), errors)
    if spec is None:
        raise ConfigError(errors)

    row = _COMMAND_TABLE[command]
    xi_list, xi_labels = [], []
    if "xi" in raw:
        if row.xi == "none":
            errors.append(f"xi: not accepted by command {command!r}")
        else:
            xi_list, xi_labels = _parse_xi_block(raw["xi"], spec.dimension,
                                                 errors)
    elif row.xi == "required":
        errors.append(f"xi: required by command {command!r}")

    options = _check_options(command, raw.get("options", {}), top,
                             spec.dimension, errors)
    if row.check:
        row.check(command, options, spec, top["cells_per_unit"], errors)
    if errors:
        raise ConfigError(errors)
    del top["schema_version"]  # the rest are RunConfig fields of one name
    return RunConfig(command=command, spec=spec, xi_list=xi_list,
                     xi_labels=xi_labels, options=options,
                     canonical=canonical_config(raw), **top)


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def parse_config(path) -> RunConfig:
    """Load and validate a JSON config; raises ConfigError listing every
    problem found."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ConfigError([f"not valid JSON: {exc}"]) from exc
    return parse_config_dict(raw)
