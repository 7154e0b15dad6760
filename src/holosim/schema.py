"""Declared config fields: one declaration per field gives its default,
the values it accepts and the CLI knob that sets it. merge lays a user
fragment over the defaults and check validates a config, both by walking
the declarations; neither knows any key by name.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .linalg import RANK_TOL
from .report import ConfigError


class Knob(NamedTuple):
    """A CLI flag, the value flag n sets its field to and, once looked up
    in a declaration, that field's config key."""

    flag: str
    value: Callable[[int], object] = lambda n: n
    key: str = ""

    def set(self, config: dict, n: int) -> None:
        *parents, leaf = self.key.split(".")
        for key in parents:
            config = config.setdefault(key, {})
        config[leaf] = self.value(n)

    def __str__(self) -> str:
        return f"{self.key} = " + str(self.value("N")).replace("'", "")


class Field(NamedTuple):
    """One config field. `ok(value, config)` says whether a value is
    accepted and `accepts` says it in words, for errors and the docs. A
    section checks and merges its `fields` one by one; a list checks its
    `item` for each entry. `merge` lays a user value over the default,
    which a leaf's value replaces."""

    default: object
    accepts: str
    ok: Callable[[object, dict], bool]
    knob: Knob | None = None
    fields: dict | None = None
    item: "Field | None" = None
    merge: Callable | None = None


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _real(v) -> bool:
    return (_integer(v) or isinstance(v, (float, np.floating))) and math.isfinite(v)


def Int(default=None, *, min: int, max=math.inf, knob=None) -> Field:
    span = f"at least {min}" if max == math.inf else f"from {min} to {max}"
    return Field(default, f"an integer {span}", lambda v, _: _integer(v) and min <= v <= max, knob)


def Number(default=None, *, lo=-math.inf, hi=math.inf) -> Field:
    span = "finite number" if math.isinf(hi - lo) else f"number in [{lo:g}, {hi:g}]"
    span = f"number at least {lo:g}" if hi == math.inf and lo > -math.inf else span
    return Field(default, f"a {span}", lambda v, _: _real(v) and lo <= v <= hi)


PARAM_BOUND = 1e100  # on |x| of a path parameter, radius or state entry: squares stay finite
Param = functools.partial(Number, lo=-PARAM_BOUND, hi=PARAM_BOUND)


def Positive(default=None, *, hi=math.inf) -> Field:
    span = "" if hi == math.inf else f" at most {hi:g}"
    return Field(default, f"a positive number{span}", lambda v, _: _real(v) and 0 < v <= hi)


def Bool(default: bool) -> Field:
    return Field(default, "true or false", lambda v, _: isinstance(v, (bool, np.bool_)))


def Model(*choices: str) -> Field:
    return Field(choices[0], f"the {' or '.join(choices)} model", lambda v, _: v in choices)


def Interval(default=None, *, within=(-math.inf, math.inf)) -> Field:
    """[lo, hi]: two finite numbers lo < hi, strictly inside `within`."""
    a, b = within
    bounds = "lo < hi" if math.isinf(b - a) else f"{a!r} < lo < hi < {b!r}"

    def ok(v, _) -> bool:
        pair = isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_real, v))
        return pair and a < v[0] < v[1] < b

    return Field(default, f"[lo, hi] with {bounds}", ok)


def Optional(inner: Field) -> Field:
    return inner._replace(
        default=None, accepts=f"null or {inner.accepts}", ok=lambda v, c: v is None or inner.ok(v, c)
    )


def List(
    item: Field, default=None, *, length=None, min_len=1, ascending=False, even=False, knob=None
) -> Field:
    """A list of `item`s: exactly `length` of them (a count, or the name of
    the top-level list it must match), else at least `min_len`. `even`: its
    entries are lists of one length."""

    def ok(v, config) -> bool:
        n = len(config[length]) if isinstance(length, str) else length
        return (
            isinstance(v, (list, tuple)) and len(v) >= min_len and (n is None or len(v) == n)
            and not (ascending and list(v) != sorted(v))
            and not (even and len({len(x) for x in v}) > 1)
        )

    shape = (
        f"list of one item per {length}" if isinstance(length, str)
        else f"list of {length} items" if length
        else f"list of at least {min_len} items" if min_len > 1
        else "non-empty list"
    )
    order = " in ascending order" if ascending else " of one length" if even else ""
    return Field(default, f"a {shape}{order}, each {item.accepts}", ok, knob, item=item)


def Section(**fields: Field) -> Field:
    default = {key: field.default for key, field in fields.items()}
    return Field(default, "an object", lambda v, _: isinstance(v, dict), fields=fields)


def Path(family: str | None, params: dict) -> Field:
    """A parameter path. Its params merge key by key, and a new family
    starts from empty params. models.PATH_FAMILIES declares each model's
    families and their params, and models.build_model_and_path lays the
    params over the family's defaults and checks them there. A declared
    null family (the model's first) is left for the runner to name."""
    section = Section(
        family=Field(
            family, "a path family name" + (" or null" if family is None else ""),
            lambda v, _: isinstance(v, str) or (v is None and family is None),
        ),
        params=Field(
            params, "an object", lambda v, _: isinstance(v, dict),
            merge=lambda base, v, path: {**base, **as_object(v, path)},
        ),
    )

    def merge_path(base: dict, value, path: str) -> dict:
        if as_object(value, path).get("family") not in (None, base["family"]):
            base = {**base, "params": {}}
        return merge(section, base, value, path)

    accepts = '{"family": name, "params": {...}}: a path family of the model and its parameters'
    return section._replace(accepts=accepts, merge=merge_path)


def NonZero(inner: Field) -> Field:
    """`inner`, with not every entry zero: a norm of at least RANK_TOL."""

    def ok(v, c) -> bool:
        return inner.ok(v, c) and np.linalg.norm(np.asarray(v, dtype=float)) >= RANK_TOL

    return inner._replace(accepts=f"{inner.accepts}; not all zero", ok=ok)


def States(default: dict) -> Field:
    """A cycle of states, given whole: Bloch directions or amplitudes. A
    zero state has no phase, so none may be all zero."""
    kinds = {
        "bloch": List(NonZero(List(Param(), length=3)), min_len=3),
        "amplitudes": List(NonZero(List(List(Param(), length=2))), min_len=3, even=True),
    }
    return Field(
        default,
        '{"bloch": [[x, y, z], ...]} or {"amplitudes": [[[re, im], ...], ...]}, '
        "3 states or more, none all zero",
        lambda v, _: isinstance(v, dict) and len(v) == 1 and set(v) <= set(kinds),
        fields=kinds,
        merge=lambda base, v, path: v,
    )


def as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def merge(field: Field, base, value, path: str):
    """A user value laid over its default; unknown section keys are errors."""
    if field.merge is not None:
        return field.merge(base, value, path)
    if field.fields is None:
        return value
    out = dict(base)
    for key, v in as_object(value, path).items():
        if key not in field.fields:
            raise ConfigError(f"{path}.{key}: unknown field")
        out[key] = merge(field.fields[key], base[key], v, f"{path}.{key}")
    return out


def check(field: Field, value, path: str, owner: str, config: dict) -> None:
    """Raise ConfigError naming the first value at or under `path` that
    `field` does not accept; `owner` is the experiment that requires it."""
    # entries first, so that a list's own test (order, matching length)
    # only ever sees entries of the declared kind
    if field.item is not None and isinstance(value, (list, tuple)):
        for i, x in enumerate(value):
            check(field.item, x, f"{path}[{i}]", owner, config)
    if not field.ok(value, config):
        raise ConfigError(f"{path}: {owner} requires {field.accepts}, got {value!r}")
    for key, sub in (field.fields or {}).items():
        if key in value:
            check(sub, value[key], f"{path}.{key}", owner, config)


def leaves(field: Field, prefix: str = ""):
    """(dotted key, field) of each field of a section, plain sections expanded."""
    for key, sub in field.fields.items():
        if sub.fields is not None and sub.merge is None:
            yield from leaves(sub, f"{prefix}{key}.")
        else:
            yield prefix + key, sub
