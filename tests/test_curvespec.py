"""Tests for the experiment definition format."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import curves, curvespec
from cauchylab.curvespec import SCHEMA, parse_spec, serialize_spec
from cauchylab.errors import ValidationError

MINIMAL = """
[curve]
kind = circle
radius = 1
[sampling]
n = 4096
"""


def test_minimal_spec_fills_defaults():
    doc = parse_spec(MINIMAL)
    assert doc.kind == "circle"
    assert doc.get("curve", "radius") == 1.0  # integer literal, real-typed key
    assert doc.get("sampling", "n") == 4096
    assert doc.get("experiment", "k_min") == 4
    assert doc.get("output", "directory") == "out"
    assert doc.get("experiment", "functions") == (
        "constant", "trig:1", "trig:3", "chi:4", "adversarial")


def test_comments_and_blank_lines():
    doc = parse_spec("# header\n[curve]\nkind = circle # inline\n\nradius = 2.0\n")
    assert doc.get("curve", "radius") == 2.0


def test_comments_not_preserved():
    text = "[curve]\nkind = circle\n# a comment\n"
    assert "#" not in serialize_spec(parse_spec(text))


def test_xi_constraint_rejected():
    with pytest.raises(ValidationError) as err:
        parse_spec("[curve]\nkind = spiral\nxi = 0.02\n")
    assert "1/100" in str(err.value)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ValidationError) as err:
        parse_spec("[curve]\nkind = circle\nwhat is this\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_spec("kind = circle\n")
    assert "line 1" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ValidationError) as err:
        parse_spec("[curve]\nkind = circle\nkind = ellipse\n")
    assert "duplicate" in str(err.value)


def test_unknown_section_and_key_rejected():
    with pytest.raises(ValidationError):
        parse_spec("[plotting]\nstyle = dark\n")
    with pytest.raises(ValidationError):
        parse_spec("[curve]\nkind = circle\ncolour = red\n")


def test_kind_inapplicable_key_rejected():
    with pytest.raises(ValidationError) as err:
        parse_spec("[curve]\nkind = spiral\nradius = 1.0\n")
    assert "does not apply" in str(err.value)


def test_type_errors():
    with pytest.raises(ValidationError):
        parse_spec("[sampling]\nn = 4096.5\n")
    with pytest.raises(ValidationError):
        parse_spec("[curve]\nkind = circle\nradius = big\n")
    with pytest.raises(ValidationError):
        parse_spec("[sampling]\nresolutions = \n")


# one failing case per schema validator (validation completeness)
INVALID_CASES = [
    "[curve]\nkind = torus\n",
    "[curve]\nkind = circle\nradius = -1\n",
    "[curve]\nkind = ellipse\na = 0\n",
    "[curve]\nkind = ellipse\nb = -2\n",
    "[curve]\nkind = polygon\nvertices = 0,0,1,0\n",
    "[curve]\nkind = graph-closure\ncoeffs = 0.0\n",
    "[curve]\nkind = spiral\ndepth = 0\n",
    "[curve]\nkind = spiral\ndepth = 16\n",
    "[curve]\nkind = spiral\nxi = 0.5\n",
    "[curve]\nkind = spiral\nclosure = loop\n",
    "[sampling]\nn = 8\n",
    "[sampling]\nresolutions = 64,32\n",
    "[sampling]\nresolutions = 8,16\n",
    "[sampling]\nresolutions = 1024,1024\n",
    "[experiment]\nscans = dance\n",
    "[experiment]\nfunctions = wavelet:3\n",
    "[experiment]\nfunctions = trig:0\n",
    "[experiment]\nfunctions = chi:65\n",
    "[experiment]\nk_min = 0\n",
    "[experiment]\nk_min = 9\nk_max = 9\n",
    "[experiment]\nseed = -1\n",
    "[experiment]\ndilation_m = -2\n",
    "[experiment]\neps0 = -0.5\n",
    "[output]\nformats = xml\n",
]


@pytest.mark.parametrize("text", INVALID_CASES)
def test_every_precondition_has_a_spec_check(text):
    with pytest.raises(ValidationError):
        parse_spec(text)


def test_serialize_is_canonical():
    doc = parse_spec(MINIMAL)
    text = serialize_spec(doc)
    lines = [l for l in text.split("\n") if l.startswith("[")]
    assert lines == sorted(lines)
    assert "\r" not in text
    sec = text.split("[experiment]")[1].split("[")[0].strip().split("\n")
    keys = [l.split(" = ")[0] for l in sec]
    assert keys == sorted(keys)
    # defaults are materialized explicitly
    assert "seed = 0" in text
    assert "directory = out" in text


def test_overrides_apply_and_validate():
    doc = parse_spec(MINIMAL)
    over = curvespec.apply_overrides(doc, ["curve.radius=2.5", "sampling.n=512"])
    assert over.get("curve", "radius") == 2.5
    assert over.get("sampling", "n") == 512
    with pytest.raises(ValidationError):
        curvespec.apply_overrides(doc, ["curve.radius=-1"])
    with pytest.raises(ValidationError):
        curvespec.apply_overrides(doc, ["nonsense"])
    with pytest.raises(ValidationError):
        curvespec.apply_overrides(doc, ["curve.volume=3"])


def test_override_switching_kind_drops_the_old_kinds_keys():
    # the square's vertices, and the defaults of a circle, do not carry over
    # to a spiral; the spiral's defaults fill in
    square = parse_spec("[curve]\nkind = polygon\n")
    over = curvespec.apply_overrides(square, ["curve.kind=spiral"])
    assert over == curvespec.default_document("spiral")
    circle = parse_spec("[curve]\nkind = circle\nradius = 2\n")
    over = curvespec.apply_overrides(circle, ["curve.kind=ellipse"])
    assert over.section("curve") == {"kind": "ellipse", "a": 2.0, "b": 1.0}
    # the other sections are kept
    assert over.section("sampling") == circle.section("sampling")


def test_override_switching_kind_keeps_the_given_curve_keys():
    square = parse_spec("[curve]\nkind = polygon\n")
    for order in (["curve.kind=spiral", "curve.depth=3"],
                  ["curve.depth=3", "curve.kind=spiral"]):
        over = curvespec.apply_overrides(square, order)
        assert over.section("curve") == {"kind": "spiral", "depth": 3, "xi": 0.005}


def test_override_switching_kind_rejects_a_key_of_another_kind():
    square = parse_spec("[curve]\nkind = polygon\n")
    with pytest.raises(ValidationError) as err:
        curvespec.apply_overrides(square, ["curve.kind=spiral", "curve.radius=2"])
    assert "does not apply" in str(err.value)
    with pytest.raises(ValidationError):
        curvespec.apply_overrides(square, ["curve.kind=torus"])


def test_override_keeping_kind_keeps_the_written_keys():
    circle = parse_spec("[curve]\nkind = circle\nradius = 2\n")
    over = curvespec.apply_overrides(circle, ["curve.kind=circle"])
    assert over == circle


def test_build_from_document_kinds():
    # every schema kind has a builder, fed the kind's default keys
    for kind in curvespec.CURVE_KINDS:
        p = curvespec.build_from_document(curvespec.default_document(kind))
        assert p.kind == kind


def test_spiral_build_calls_the_module_builder_once(monkeypatch):
    # a benchmark trace wraps curves.build_spiral by rebinding the name in
    # every cauchylab module that holds it; the dispatch must call the name
    calls = []
    original = curves.build_spiral

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cauchylab" or name.startswith("cauchylab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    doc = curvespec.apply_overrides(curvespec.default_document("spiral"),
                                    ["curve.depth=3"])
    assert curvespec.build_from_document(doc).kind == "spiral"
    assert len(calls) == 1


# -- generated round-trip property suite --------------------------------------

REAL = st.floats(min_value=0.01, max_value=8.0, allow_nan=False,
                 allow_infinity=False)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(curvespec.CURVE_KINDS))
    lines = ["[curve]", f"kind = {kind}"]
    if kind == "circle" and draw(st.booleans()):
        lines.append(f"radius = {draw(REAL)!r}")
    if kind == "ellipse" and draw(st.booleans()):
        lines.append(f"a = {draw(REAL)!r}")
        lines.append(f"b = {draw(REAL)!r}")
    if kind == "spiral":
        if draw(st.booleans()):
            lines.append(f"depth = {draw(st.integers(1, 15))}")
        if draw(st.booleans()):
            lines.append(f"xi = {draw(st.floats(1e-4, 0.0099))!r}")
    if draw(st.booleans()):
        lines.append("[sampling]")
        lines.append(f"n = {draw(st.integers(16, 1 << 18))}")
    if draw(st.booleans()):
        lines.append("[experiment]")
        lines.append(f"seed = {draw(st.integers(0, 2 ** 31))}")
        k_min = draw(st.integers(1, 8))
        lines.append(f"k_min = {k_min}")
        lines.append(f"k_max = {draw(st.integers(k_min + 1, 24))}")
        scans = draw(st.lists(st.sampled_from(curvespec.SCAN_TAGS),
                              min_size=1, max_size=4, unique=True))
        lines.append("scans = " + ",".join(scans))
    if draw(st.booleans()):
        lines.append("[output]")
        lines.append(f"directory = {draw(st.sampled_from(['out', 'results/x', 'a_b']))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(documents())
def test_round_trip_property(text):
    doc = parse_spec(text)
    again = parse_spec(serialize_spec(doc))
    assert again == doc
    assert serialize_spec(again) == serialize_spec(doc)


def test_schema_defaults_are_self_consistent():
    # every default passes its own validator
    for kind in curvespec.CURVE_KINDS:
        doc = curvespec.default_document(kind)
        assert parse_spec(serialize_spec(doc)) == doc
    # and every schema field carries a type the serializer understands
    for sec, fields in SCHEMA.items():
        for key, fld in fields.items():
            assert fld.ftype in ("int", "real", "tag", "int-list", "real-list",
                                 "tag-list")
