"""JSON run configurations: parsing, validation, canonical form.

A config fully determines every numeric output bit (together with the
seed); unknown keys are rejected at every level so typos fail loudly.
One table gives the JSON type, default and bound of every value, one row
per command the top-level values it reads, its options, the check of the
values that join and how many slopes and cube sizes it takes; a value it
would not read is an error, and all errors are collected, not the first.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .degeneracy import divergence_setting, interface_setting
from .fields import LAWS, DistributionSpec, FieldSpec, IidCubes, Laminate, Periodic
from .glue import glue_boxes
from .homogenize import increasing, rank_one_segment, subcube_parts

CONFIG_VERSION = 1

_REQUIRED = object()  # the default of a value every config must give


# What one config value may be: a JSON type, a default and a bound.
# ``bound`` says in words which values of the type are allowed, with {d}
# for the field dimension, and ``ok(value, d)`` tests it.
_Rule = namedtuple("_Rule", "type default bound ok",
                   defaults=(None, "", lambda v, d: True))


def _num(x):
    # a finite number: JSON true/false are not numbers, though Python bools are
    # ints, json reads 1e400 as inf, and a 400-digit integer has no float
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _nums(v, n=None):
    """v is a nonempty list of numbers, of length n if n is given."""
    return (isinstance(v, list) and len(v) > 0 and n in (None, len(v))
            and all(_num(x) for x in v))


def _at_least(lo, default):
    return _Rule("integer", default, f">= {lo}", lambda v, d: v >= lo)


def _increasing(v, d):
    try:
        return _nums(v) and increasing(v, "")[0] > 0
    except ValueError:
        return False


_POSITIVE = dict(bound="> 0", ok=lambda v, d: _num(v) and v > 0)
# a list value says each entry once: a ladder or ray in increasing order
# (homogenize.increasing), and a set without repeats
_INCREASING = dict(bound="of one or more numbers > 0 in increasing order", ok=_increasing)
_DISTINCT = dict(bound="of one or more distinct numbers > 0",
                 ok=lambda v, d: _nums(v) and min(v) > 0 and len(set(v)) == len(v))
_OBSERVABLES = ("lambda_norm", "entry", "lower")

# Every top-level and field value by its path.  Parsing fills in the
# defaults, so a RunConfig holds every key its command reads.
_VALUES = {
    "schema_version": _Rule("integer", CONFIG_VERSION, f"equal to {CONFIG_VERSION}",
                            lambda v, d: v == CONFIG_VERSION),
    "seed": _Rule("integer", 0),
    "tol": _Rule("number", 1e-5, "in (0, 1)", lambda v, d: 0 < v < 1),
    "n_real": _at_least(1, 50),
    "t_list": _Rule("array", (16.0, 64.0, 256.0), **_INCREASING),
    "cells_per_unit": _at_least(1, 2),
    "field.dimension": _at_least(1, _REQUIRED),
    "field.structure.axis": _Rule("integer", 1, "in 1..{d}", lambda v, d: 1 <= v <= d),
}


def _joint(key, check):
    """A check of the parsed config's values that join, made where it can by
    the library helper that raises at run time; it reports under ``key``."""
    def run(cfg):
        try:
            check(cfg)
        except ValueError as exc:
            raise ConfigError([f"{key}: {exc}"]) from exc
    return run


def _observed(cfg):
    obs = cfg.options["observable"]
    if obs == "lower" and cfg.spec.lower_order is None:
        raise ConfigError(["options.observable: observable 'lower' needs a field with a "
                           "lower_order term"])
    if obs != "entry" and "entry" in cfg.canonical.get("options", {}):  # given, not a default
        raise ConfigError([f"options.entry: read only with observable 'entry', not {obs!r}"])


_SUBCUBES = _joint("options.depth", lambda c: subcube_parts(
    c.t_list[0], c.options["depth"], c.cells_per_unit))
_RANK_ONE = _joint("xi", lambda c: rank_one_segment(*c.xi_list))
# the glue layers are widest at the least delta
_GLUE = _joint("options.side", lambda c: glue_boxes(
    c.spec.dimension, c.options["side"], c.cells_per_unit, c.options["delta_range"][0]))
_DIVERGENCE = _joint("field", lambda c: divergence_setting(c.spec, *c.xi_list))
_INTERFACE = _joint("field", lambda c: [
    interface_setting(c.spec, delta, hitting=c.options["n_scans"] > 0)
    for delta in c.options["delta_list"]])

# One row per command: which of _READS it reads, its options by name,
# the check of the values that join (options, slopes, sizes, or the field
# the command needs), and how many slopes its `xi` and how many cube sizes
# its `t_list` may hold, each as (least, most) with most None for no bound.
_Command = namedtuple("_Command", "reads options check slopes sizes",
                      defaults=({}, None, (1, None), (1, None)))
_READS = ("xi", "t_list", "n_real", "tol", "cells_per_unit")
_COMMAND_TABLE = {
    "field-stats": _Command(("t_list",), {
        "observable": _Rule("string", "entry", f"in {_OBSERVABLES}",
                            lambda v, d: v in _OBSERVABLES),
        "entry": _Rule("integer", 0, "in [0, {d})", lambda v, d: 0 <= v < d),
        "box": _Rule("array", None, "of {d} [lo, hi] pairs with lo < hi",
                     lambda v, d: len(v) == d
                     and all(_nums(r, 2) and r[0] < r[1] for r in v)),
    }, _observed),
    "solve-cell": _Command(_READS, {"save_minimizer": _Rule("boolean", False)}, sizes=(1, 1)),
    "estimate-fhom": _Command(_READS),
    "verify-bounds": _Command(_READS),
    "subadditivity": _Command(_READS, {"depth": _at_least(1, 1)}, _SUBCUBES, slopes=(0, 1),
                              sizes=(1, 1)),
    "stationarity": _Command(_READS, {
        "z": _Rule("array", None, "of {d} numbers", lambda v, d: _nums(v, d))},
        slopes=(1, 1), sizes=(1, 1)),
    "recession": _Command(_READS, {"s_list": _Rule("array", (1.0, 2.0, 5.0), **_INCREASING)},
                          slopes=(1, 1), sizes=(1, 1)),
    "rank-one": _Command(_READS, {"n_grid": _at_least(3, 5)}, _RANK_ONE, slopes=(2, 2),
                         sizes=(1, 1)),
    "degenerate-divergence": _Command(_READS, {}, _DIVERGENCE, slopes=(0, 1)),
    "degenerate-interface": _Command((), {
        "delta_list": _Rule("array", (0.1, 0.01), **_DISTINCT),
        "search_limit": _at_least(1, 10_000),
        "n_scans": _at_least(0, 0)}, _INTERFACE),
    "glue-check": _Command(("cells_per_unit",), {
        "n_instances": _at_least(1, 20),
        "side": _Rule("number", 32.0, **_POSITIVE),
        "delta_range": _Rule("array", (0.3, 0.6), "[lo, hi] with 0 < lo <= hi",
                             lambda v, d: _nums(v, 2) and 0 < v[0] <= v[1])}, _GLUE),
}
COMMANDS = tuple(_COMMAND_TABLE)
_JSON_TYPES = {"boolean": bool, "integer": int, "number": (int, float),
               "string": str, "array": list}
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


def _floats(v):
    return tuple(_floats(x) for x in v) if isinstance(v, list) else float(v)


def _take(obj, key, rule, d, errors, where=""):
    """obj[key] if it has the rule's type and bound, with numbers as floats,
    or the rule's default if absent; else None and an error."""
    if key not in obj:
        if rule.default is _REQUIRED:
            errors.append(f"{where}{key}: required")
            return None
        return rule.default
    value = obj[key]
    if (isinstance(value, bool) == (rule.type == "boolean")
            and isinstance(value, _JSON_TYPES[rule.type]) and rule.ok(value, d)):
        return _floats(value) if rule.type in ("number", "array") else value
    bound = " " + rule.bound.format(d=d) if rule.bound else ""
    errors.append(f"{where}{key}: expected {rule.type}{bound}, got {value!r}")
    return None


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
        errors.append(f"{where}: parameters {bad} must be finite numbers")
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
        except (TypeError, ValueError, OverflowError) as exc:
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


_XI_TERM = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)?)e([1-9]\d*)")


def parse_xi(value, dimension, where="xi"):
    """One slope from shorthand like 'e1', '2e1-0.5e2', or an m x d list.

    A string is read only when its signed terms rebuild all of it, so a
    sign that starts no term is an error, not dropped."""
    if isinstance(value, str):
        row = np.zeros(dimension)
        compact = value.replace(" ", "")
        terms = re.findall(r"[+-]?[^+-]+", compact)
        if not terms:
            raise ValueError(f"{where}: empty slope string")
        if "".join(terms) != compact:
            raise ValueError(f"{where}: stray sign in slope {value!r} "
                             "(use e.g. 'e1', '2e1-0.5e2')")
        for term in terms:
            m = _XI_TERM.fullmatch(term)
            if not m:
                raise ValueError(f"{where}: cannot parse term {term!r} of slope {value!r} "
                                 "(use e.g. 'e1', '2e1-0.5e2')")
            coef_s, axis_s = m.groups()
            coef = 1.0 if coef_s in ("", "+") else (-1.0 if coef_s == "-"
                                                    else float(coef_s))
            axis = int(axis_s)
            if axis > dimension:
                raise ValueError(f"{where}: axis e{axis} exceeds dimension "
                                 f"{dimension}")
            row[axis - 1] += coef
        xi, label = row[None, :], value
    else:
        try:
            xi = np.asarray(value, dtype=float)
        except OverflowError:  # an integer with no float
            xi = np.full(np.shape(value), np.inf)
        if xi.ndim == 1:
            xi = xi[None, :]
        if xi.ndim != 2 or xi.shape[1] != dimension:
            raise ValueError(f"{where}: expected an m x {dimension} matrix")
        label = "[" + ";".join(",".join(f"{v:g}" for v in row) for row in xi) + "]"
    if not np.isfinite(xi).all():
        raise ValueError(f"{where}: entries must be finite numbers")
    return xi, label


def _parse_xi_block(value, dimension, errors):
    if isinstance(value, str) or _nums(value) or (
            isinstance(value, list) and value and all(_nums(row) for row in value)):
        items = [value]  # one slope: a string, a row or an m x d matrix
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


def _check_options(command, opts, d, errors):
    """Every option of ``command``: checked if given, else its default."""
    if not isinstance(opts, dict):
        errors.append("options: expected an object")
        return {}
    rules = _COMMAND_TABLE[command].options
    unknown = set(opts) - set(rules)
    if unknown:
        errors.append(f"options: keys {sorted(unknown)} not accepted by "
                      f"command {command!r}")
    return {key: _take(opts, key, rule, d, errors, "options.")
            for key, rule in rules.items()}


def _check_count(key, n, given, span, command, errors):
    """An error unless the n entries of ``key`` lie in the command's (least, most) span."""
    least, most = span
    if not least <= n <= (most or n):
        need = "exactly" if least == most else "at least" if most is None else "at most"
        errors.append(f"{key}: command {command!r} takes {need} {most or least}, got {n}"
                      if given else f"{key}: required by command {command!r}")


def canonical_config(cfg: dict) -> dict:
    """Stable, defaults-filled echo of a raw config dict."""
    out = {k: cfg[k] for k in sorted(cfg)}
    for key in _CANONICAL:
        out.setdefault(key, _VALUES[key].default)
    return out


def parse_config_dict(raw: dict) -> RunConfig:
    """Validate a raw config dict against the table; raises ConfigError.

    Slopes and options wait for a valid field, whose dimension they are
    checked against, and the command's joint check for every other value.
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
    # a value that does not parse is None; it is reported already
    top = {key: _take(raw, key, rule, None, errors)
           for key, rule in _VALUES.items() if "." not in key}

    spec = _parse_field(raw.get("field"), errors)
    if spec is None:
        raise ConfigError(errors)

    row = _COMMAND_TABLE[command]
    errors.extend(f"{key}: not accepted by command {command!r}"
                  for key in _READS if key in raw and key not in row.reads)
    if "t_list" in row.reads and top["t_list"] is not None:
        _check_count("t_list", len(top["t_list"]), "t_list" in raw, row.sizes, command, errors)
    xi_list, xi_labels, before = [], [], len(errors)
    if "xi" in row.reads:
        xi_list, xi_labels = _parse_xi_block(raw.get("xi", []), spec.dimension, errors)
        if len(errors) == before:  # a slope that did not parse is reported already
            _check_count("xi", len(xi_list), "xi" in raw, row.slopes, command, errors)

    options = _check_options(command, raw.get("options", {}), spec.dimension, errors)
    if errors:
        raise ConfigError(errors)
    del top["schema_version"]  # the rest are RunConfig fields of one name
    cfg = RunConfig(command=command, spec=spec, xi_list=xi_list, xi_labels=xi_labels,
                    options=options, canonical=canonical_config(raw), **top)
    if row.check:
        row.check(cfg)
    return cfg


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
