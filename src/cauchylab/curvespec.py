"""Experiment definition files: a line-oriented key = value format with
[section] headers, schema-typed values, strict validation before any
computation, and a canonical serializer (alphabetical sections and keys,
LF endings, shortest round-trip reals).  Files use the .cspec extension;
comments start at '#' and are not preserved.

A validated document's [curve] section goes to ``curves.builtin_curve``
whole: the schema names each key as its kind's builder takes it.  An
override that switches the curve kind starts that section afresh, so the
new kind's defaults fill in around the [curve] keys the overrides give."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .curves import builtin_curve
from .errors import ValidationError
from .harness import tag_error

__all__ = [
    "SpecDocument",
    "SCHEMA",
    "parse_spec",
    "serialize_spec",
    "apply_overrides",
    "default_document",
    "build_from_document",
]

_TAG_RE = re.compile(r"^[A-Za-z0-9_.:+@/-]+$")
_INT_RE = re.compile(r"^[+-]?\d+$")

CURVE_KINDS = ("circle", "ellipse", "graph-closure", "polygon", "spiral")
SCAN_TAGS = ("cotlar", "criterion", "diag", "proof", "sandwich", "series",
             "transform")


@dataclass(frozen=True)
class Field:
    """Schema entry: value type, default, applicability, and constraint."""

    ftype: str                    # int | real | tag | int-list | real-list | tag-list
    default: object
    kinds: tuple | None = None    # None: always applicable; else curve kinds
    check: object = None          # callable(value, doc) -> error string | None


def _positive(name):
    def check(v, _doc):
        if not v > 0.0:
            return f"{name} must be positive"
        return None
    return check


def _check_xi(v, _doc):
    if not 0.0 < v < 0.01:
        return "xi must satisfy 0 < xi < 1/100"
    return None


def _check_depth(v, _doc):
    if not 1 <= v <= 15:
        return "depth must lie in 1..15 (deeper folds fall under the separation tolerance)"
    return None


def _check_vertices(v, _doc):
    if len(v) < 6 or len(v) % 2 != 0:
        return "vertices needs an even list of at least 6 coordinates"
    return None


def _check_coeffs(v, _doc):
    if not v or all(c == 0.0 for c in v):
        return "coeffs needs at least one nonzero entry"
    return None


def _check_n(v, _doc):
    if v < 16:
        return "n must be at least 16"
    return None


def _check_resolutions(v, _doc):
    if not v:
        return "resolutions must be nonempty"
    if any(r < 16 for r in v):
        return "every resolution must be at least 16"
    if any(b <= a for a, b in zip(v[:-1], v[1:])):
        return "resolutions must be strictly increasing"
    return None


def _check_scans(v, _doc):
    bad = [t for t in v if t not in SCAN_TAGS]
    if bad:
        return f"unknown scan tag {bad[0]!r} (choose from {', '.join(SCAN_TAGS)})"
    return None


def _check_functions(v, _doc):
    return next(filter(None, map(tag_error, v)), None)


def _check_k_min(v, _doc):
    if v < 1:
        return "k_min must be at least 1"
    return None


def _check_k_max(v, doc):
    if v <= doc["experiment"]["k_min"]:
        return "k_max must exceed k_min"
    return None


def _check_nonneg(v, _doc):
    if v < 0:
        return "value must be nonnegative"
    return None


def _check_kind(v, _doc):
    if v not in CURVE_KINDS:
        return f"unknown curve kind {v!r} (choose from {', '.join(CURVE_KINDS)})"
    return None


SCHEMA = {
    "curve": {
        "kind": Field("tag", "circle", None, _check_kind),
        "radius": Field("real", 1.0, ("circle",), _positive("radius")),
        "a": Field("real", 2.0, ("ellipse",), _positive("a")),
        "b": Field("real", 1.0, ("ellipse",), _positive("b")),
        "vertices": Field("real-list", (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0),
                          ("polygon",), _check_vertices),
        "coeffs": Field("real-list", (0.3, 0.05), ("graph-closure",), _check_coeffs),
        "depth": Field("int", 12, ("spiral",), _check_depth),
        "xi": Field("real", 0.005, ("spiral",), _check_xi),
    },
    "sampling": {
        "n": Field("int", 4096, None, _check_n),
        "resolutions": Field("int-list", (1024, 2048, 4096), None, _check_resolutions),
    },
    "experiment": {
        "scans": Field("tag-list", ("diag", "criterion", "cotlar"), None, _check_scans),
        "functions": Field("tag-list",
                           ("constant", "trig:1", "trig:3", "chi:4", "adversarial"),
                           None, _check_functions),
        "k_min": Field("int", 4, None, _check_k_min),
        "k_max": Field("int", 12, None, _check_k_max),
        "seed": Field("int", 0, None, _check_nonneg),
    },
    "output": {
        "directory": Field("tag", "out", None, None),
    },
}


@dataclass(frozen=True)
class SpecDocument:
    """A validated experiment definition; immutable and order-canonical."""

    data: tuple  # ((section, ((key, value), ...)), ...) alphabetical

    def section(self, name: str) -> dict:
        for sec, items in self.data:
            if sec == name:
                return dict(items)
        raise KeyError(name)

    def get(self, section: str, key: str):
        return self.section(section)[key]

    @property
    def kind(self) -> str:
        return self.get("curve", "kind")


def _parse_scalar(token: str, ftype: str, where: str):
    token = token.strip()
    if ftype == "int":
        if not _INT_RE.match(token):
            raise ValidationError(f"{where}: expected an integer, got {token!r}")
        return int(token)
    if ftype == "real":
        if not (_INT_RE.match(token) or re.match(
                r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$", token)):
            raise ValidationError(f"{where}: expected a real number, got {token!r}")
        return float(token)
    if ftype == "tag":
        if not _TAG_RE.match(token):
            raise ValidationError(f"{where}: expected a bare tag, got {token!r}")
        return token
    raise ValidationError(f"{where}: unhandled scalar type {ftype}")


def _parse_value(token: str, ftype: str, where: str):
    if ftype.endswith("-list"):
        elem = ftype[:-5]
        parts = token.split(",")
        if parts == [""]:
            raise ValidationError(f"{where}: empty list")
        return tuple(_parse_scalar(pc, elem, where) for pc in parts)
    return _parse_scalar(token, ftype, where)


def _format_value(value, ftype: str) -> str:
    if ftype.endswith("-list"):
        elem = ftype[:-5]
        return ",".join(_format_value(v, elem) for v in value)
    if ftype == "real":
        return repr(float(value))
    return str(value)


def _validate(raw: dict, source: str = "spec") -> SpecDocument:
    """Fill defaults, reject inapplicable or out-of-range keys."""
    if "curve" not in raw or "kind" not in raw.get("curve", {}):
        kind = SCHEMA["curve"]["kind"].default
    else:
        kind = raw["curve"]["kind"]
    err = _check_kind(kind, None)
    if err:
        raise ValidationError(f"{source}: {err}")
    doc = {}
    for sec, fields in SCHEMA.items():
        got = raw.get(sec, {})
        for key in got:
            if key not in fields:
                raise ValidationError(f"{source}: unknown key {key!r} in [{sec}]")
        out = {}
        for key, fld in fields.items():
            applicable = fld.kinds is None or kind in fld.kinds
            if key in got:
                if not applicable:
                    raise ValidationError(
                        f"{source}: key {key!r} does not apply to kind {kind!r}")
                out[key] = got[key]
            elif applicable:
                out[key] = fld.default
        doc[sec] = out
    for sec in raw:
        if sec not in SCHEMA:
            raise ValidationError(f"{source}: unknown section [{sec}]")
    for sec, fields in SCHEMA.items():
        for key, value in doc[sec].items():
            fld = fields[key]
            if fld.check is not None:
                err = fld.check(value, doc)
                if err:
                    raise ValidationError(f"{source}: [{sec}] {key}: {err}")
    data = tuple(sorted(
        (sec, tuple(sorted(items.items()))) for sec, items in doc.items()))
    return SpecDocument(data=data)


def parse_spec(text: str) -> SpecDocument:
    """Parse and validate an experiment definition.

    Syntax errors carry line numbers; semantic errors name the violated
    constraint.  Validation runs before any curve is built.
    """
    raw: dict = {}
    section = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        m = re.match(r"^\[([a-z]+)\]$", body)
        if m:
            section = m.group(1)
            if section not in SCHEMA:
                raise ValidationError(f"line {lineno}: unknown section [{section}]")
            raw.setdefault(section, {})
            continue
        if "=" not in body:
            raise ValidationError(f"line {lineno}: expected 'key = value' or '[section]'")
        if section is None:
            raise ValidationError(f"line {lineno}: key outside any [section]")
        key, value = body.split("=", 1)
        key = key.strip()
        if not re.match(r"^[a-z][a-z0-9_]*$", key):
            raise ValidationError(f"line {lineno}: malformed key {key!r}")
        if key in raw[section]:
            raise ValidationError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        if key not in SCHEMA[section]:
            raise ValidationError(f"line {lineno}: unknown key {key!r} in [{section}]")
        ftype = SCHEMA[section][key].ftype
        raw[section][key] = _parse_value(value.strip(), ftype, f"line {lineno}: {key}")
    return _validate(raw)


def serialize_spec(doc: SpecDocument) -> str:
    """Canonical text: alphabetical sections and keys, defaults explicit,
    LF endings, reals in shortest round-trip form, comments dropped."""
    lines = []
    for sec, items in doc.data:
        lines.append(f"[{sec}]")
        for key, value in items:
            lines.append(f"{key} = {_format_value(value, SCHEMA[sec][key].ftype)}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(doc: SpecDocument, assignments) -> SpecDocument:
    """Apply repeatable section.key=value overrides with full revalidation.

    An override that changes curve.kind drops the document's other [curve]
    keys, which belong to the old kind; the [curve] keys among the
    overrides, in any order, still apply."""
    raw = {sec: dict(items) for sec, items in doc.data}
    given: dict = {}
    for text in assignments:
        if "=" not in text or "." not in text.split("=", 1)[0]:
            raise ValidationError(f"override {text!r} is not section.key=value")
        target, value = text.split("=", 1)
        sec, key = target.split(".", 1)
        sec, key = sec.strip(), key.strip()
        if sec not in SCHEMA or key not in SCHEMA[sec]:
            raise ValidationError(f"override {text!r}: unknown key {sec}.{key}")
        given.setdefault(sec, {})[key] = _parse_value(
            value.strip(), SCHEMA[sec][key].ftype, f"override {sec}.{key}")
    for sec, items in given.items():
        raw.setdefault(sec, {}).update(items)
    if raw["curve"]["kind"] != doc.kind:
        raw["curve"] = given["curve"]
    return _validate(raw, source="overrides")


def default_document(kind: str = "circle") -> SpecDocument:
    return _validate({"curve": {"kind": kind}})


def build_from_document(doc: SpecDocument):
    """Construct the curve a validated document describes."""
    return builtin_curve(**doc.section("curve"))
