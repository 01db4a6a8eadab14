"""Parsing, validation errors, and render round trips for text documents."""

import pytest

from gpdkit.core import FiniteGroup, ValidationError, one_object_group, symmetric_group
from gpdkit.dblgpd import commutative_cube_check, eckmann_hilton_check, hcompose
from gpdkit.documents import (
    Document,
    ParseError,
    _render_group,
    _render_xmod,
    load_document,
    parse_document,
    render_document,
)
from gpdkit.xmod import automorphism_xmod, bundled_xmods, check_axioms

C2_GROUP = """\
kind: group
name: c2
elements: 0 1
unit: 0
table:
  0: 0 1
  1: 1 0
"""

S3_PERMS = """\
kind: group
name: s3
degree: 3
perms:
  e: 0 1 2
  r: 1 2 0
  rr: 2 0 1
  a: 0 2 1
  b: 2 1 0
  c: 1 0 2
"""

XMOD_C4C2 = """\
kind: xmod
name: c4-over-c2
p:
  elements: 0 1
  unit: 0
  table:
    0: 0 1
    1: 1 0
m:
  elements: 0 1 2 3
  unit: 0
  table:
    0: 0 1 2 3
    1: 1 2 3 0
    2: 2 3 0 1
    3: 3 0 1 2
mu:
  0: 0
  1: 1
  2: 0
  3: 1
action:
  0 0: 0
  0 1: 0
  1 0: 1
  1 1: 1
  2 0: 2
  2 1: 2
  3 0: 3
  3 1: 3
"""

SQUARES = """\
kind: squares
xmod:
  p:
    elements: 0 1
    unit: 0
    table:
      0: 0 1
      1: 1 0
  m:
    elements: 0 1
    unit: 0
    table:
      0: 0 1
      1: 1 0
  mu:
    0: 0
    1: 0
  action:
    0 0: 0
    0 1: 0
    1 0: 1
    1 1: 1
squares:
  s1: 1 1 1 0 0
  s2: 1 1 0 0 1
  z: 0 0 0 0 0
array:
  s1 s2
  s1 z
"""

CUBE_Z5 = """\
kind: cube
group:
  name: z5
  elements: 0 1 2 3 4
  unit: 0
  table:
    0: 0 1 2 3 4
    1: 1 2 3 4 0
    2: 2 3 4 0 1
    3: 3 4 0 1 2
    4: 4 0 1 2 3
edges:
  back_left: 1
  back_right: 4
  front_left: 2
  front_right: 0
  top_left: 0
  top_back: 4
  top_front: 0
  top_right: 1
  bottom_left: 1
  bottom_back: 2
  bottom_front: 3
  bottom_right: 2
"""

EH_C2 = """\
kind: eh
elements: 0 1
unit1: 0
unit2: 0
op1:
  0 0: 0
  0 1: 1
  1 0: 1
  1 1: 0
op2:
  0 0: 0
  0 1: 1
  1 0: 1
  1 1: 0
"""

CIRCLE = """\
kind: complex
vertices: 0 1
edges:
  p: 0 1
  q: 0 1
"""

# The one-vertex 2-sphere: a single face on the empty word at ``v``.
SPHERE = """\
kind: complex
vertices: v
edges:
faces:
  f: 1 v
"""

COVER = """\
kind: cover
complex:
  vertices: 0 1
  edges:
    p: 0 1
    q: 0 1
u: p
v: q
"""

PRESENTATION = """\
kind: presentation
vertices: v
edges:
  x: v v
  y: v v
relations:
  x y = y x
  x x = 1
"""

GROUPOID = """\
kind: groupoid
objects: 0 1
arrows:
  id0: 0 0
  id1: 1 1
  i: 0 1
  j: 1 0
comp:
  id0 id0: id0
  id1 id1: id1
  id0 i: i
  i id1: i
  id1 j: j
  j id0: j
  i j: id0
  j i: id1
"""


def test_group_from_table():
    doc = parse_document(C2_GROUP)
    assert doc.kind == "group"
    g = doc.payload
    assert g.elements == ("0", "1")
    assert g.unit == "0"
    assert g.mul("1", "1") == "0"
    assert g.name == "c2"


def test_group_from_perms():
    g = parse_document(S3_PERMS).payload
    assert len(g) == 6
    assert g.unit == "e"
    # r is apply-first in products, so r then a = (1,2,0) then (0,2,1)
    assert g.mul("r", "r") == "rr"
    assert g.mul("r", "rr") == "e"
    assert g.mul("a", "b") in g.elements
    assert g.mul("a", "b") != g.mul("b", "a")


def test_perm_closure_failure_reports_line():
    broken = S3_PERMS.replace("  c: 1 0 2\n", "")
    with pytest.raises(ParseError) as exc:
        parse_document(broken)
    assert "not listed" in str(exc.value)


def test_groupoid_document():
    g = parse_document(GROUPOID).payload
    assert g.compose("i", "j") == "id0"
    assert g.inverse("i") == "j"


def test_a_repeated_groupoid_composition_row_is_rejected_at_its_line():
    text = GROUPOID.replace("  id0 id0: id0\n", "  id0 id0: i\n  id0  id0: id0\n")
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (str(exc.value), exc.value.line) == ("line 10: duplicate row for 'id0 id0'", 10)


@pytest.mark.parametrize(
    "text, line, key",
    [
        (XMOD_C4C2.replace("mu:\n  0: 0\n", "mu:\n  0: 0\n  0: 1\n"), 19, "0"),
        (XMOD_C4C2.replace("action:\n  0 0: 0\n", "action:\n  0 0: 0\n  0  0: 1\n"), 24, "0 0"),
        (EH_C2.replace("  1 1: 0\nop2:", "  1 1: 0\n  1 1: 1\nop2:"), 10, "1 1"),
        (EH_C2 + "  0 1: 0\n", 15, "0 1"),
    ],
    ids=["mu", "action", "op1", "op2"],
)
def test_a_repeated_table_row_is_rejected_at_its_line(text, line, key):
    # A second row for a key is never read over the first.
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (str(exc.value), exc.value.line) == (f"line {line}: duplicate row for {key!r}", line)


@pytest.mark.parametrize(
    "row, first",
    [("  f: 0 1 2\n", "e"), ("  d: 1 2 0\n", "r")],
    ids=["identity", "rotation"],
)
def test_a_permutation_listed_under_two_names_is_rejected_at_the_second(row, first):
    # Two names for one permutation would leave the product table one name
    # short, so the repeat is named where it is written.
    with pytest.raises(ParseError) as exc:
        parse_document(S3_PERMS + row)
    name = row.split(":")[0].strip()
    assert (str(exc.value), exc.value.line) == (
        f"line 11: rows {first!r} and {name!r} list the same permutation", 11
    )


def test_a_composition_row_naming_an_unknown_arrow_is_a_validation_error():
    with pytest.raises(ValidationError) as exc:
        parse_document(GROUPOID + "  k id0: id0\n")
    assert (str(exc.value), exc.value.witness) == ("composite of an unknown arrow", ("k", "id0"))


def test_quiver_document():
    text = "kind: quiver\nvertices: 0 1\nedges:\n  a: 0 1\n"
    q = parse_document(text).payload
    assert q.edges == ("a",)
    assert q.esrc["a"] == "0"


def test_presentation_document():
    p = parse_document(PRESENTATION).payload
    assert len(p.relations) == 2
    lhs, rhs = p.relations[1]
    assert lhs.letters == (("x", 1), ("x", 1))
    assert rhs.letters == ()
    assert rhs.src == "v"


def test_relation_with_two_empty_sides_rejected():
    text = PRESENTATION.replace("x x = 1", "1 = 1")
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert exc.value.line == 8


def test_complex_document():
    x = parse_document(CIRCLE).payload
    assert x.vertices == ("0", "1")
    assert x.edges == ("p", "q")
    disc = CIRCLE + "faces:\n  f: p q^-1\n"
    x2 = parse_document(disc).payload
    assert x2.faces == ("f",)
    w = x2.fboundary["f"]
    assert w.letters == (("p", 1), ("q", -1))
    assert w.src == w.tgt == "0"


def test_open_face_boundary_rejected():
    bad = CIRCLE + "faces:\n  f: p\n"
    with pytest.raises(ValidationError):
        parse_document(bad)


def test_cover_document_closes_pieces():
    c = parse_document(COVER).payload
    assert c.u.edges == ("p",)
    assert c.u.vertices == ("0", "1")
    assert c.w.vertices == ("0", "1")
    assert c.w.edges == ()


def test_xmod_document_satisfies_axioms():
    xm = parse_document(XMOD_C4C2).payload
    assert xm.name == "c4-over-c2"
    assert xm.m["*"].elements == ("0", "1", "2", "3")
    assert check_axioms(xm).ok


def old_render_xmod(xm, indent=""):
    """The body ``_render_xmod`` had while it validated the base again as a
    group, kept as its oracle."""
    pad = indent
    group, mg = one_object_group(xm.p), xm.m["*"]
    lines = []
    if xm.name:
        lines.append(f"{pad}name: {xm.name}")
    lines.append(f"{pad}p:")
    lines.extend(_render_group(group, pad + "  "))
    lines.append(f"{pad}m:")
    lines.extend(_render_group(mg, pad + "  "))
    lines.append(f"{pad}mu:")
    for m in mg.elements:
        lines.append(f"{pad}  {m}: {xm.mu['*'][m]}")
    lines.append(f"{pad}action:")
    for m in mg.elements:
        for q in group.elements:
            lines.append(f"{pad}  {m} {q}: {xm.action[(m, q)]}")
    return lines


XMODS = {**bundled_xmods(), "aut-s4": automorphism_xmod(symmetric_group(4))}


@pytest.mark.parametrize("name", XMODS)
def test_an_xmod_renders_its_base_without_validating_it_again(name, monkeypatch):
    xm = XMODS[name]
    want = ["\n".join(old_render_xmod(xm, pad)).encode() for pad in ("", "  ")]
    calls = []
    real = FiniteGroup.validate

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FiniteGroup, "validate", spy)
    got = ["\n".join(_render_xmod(xm, pad)).encode() for pad in ("", "  ")]
    assert got == want
    assert calls == []


def test_xmod_missing_action_row_rejected():
    broken = XMOD_C4C2.replace("  3 1: 3\n", "")
    with pytest.raises(ParseError) as exc:
        parse_document(broken)
    assert "action is missing" in str(exc.value)


def test_squares_document():
    d = parse_document(SQUARES).payload
    assert set(d.squares) == {"s1", "s2", "z"}
    s1, s2 = d.squares["s1"], d.squares["s2"]
    assert s1.label == "1" and s1.top == "1"
    pasted = hcompose(d.xm, s1, s2)
    assert pasted.label == "0"
    assert d.array == (("s1", "s2"), ("s1", "z"))
    assert d.grid()[0][0] == s1


def test_square_with_wrong_boundary_rejected():
    broken = SQUARES.replace("s1: 1 1 1 0 0", "s1: 1 1 0 0 0")
    with pytest.raises(ParseError) as exc:
        parse_document(broken)
    assert "s1" in str(exc.value)


def test_array_with_unknown_square_rejected():
    broken = SQUARES.replace("  s1 z\n", "  s1 nope\n")
    with pytest.raises(ParseError) as exc:
        parse_document(broken)
    assert "nope" in str(exc.value)


def test_cube_document_commutes():
    doc = parse_document(CUBE_Z5).payload
    assert doc.cube.back_right == "4"
    report = commutative_cube_check(doc.group, doc.cube)
    assert report.ok


def test_cube_with_unknown_edge_rejected():
    broken = CUBE_Z5.replace("  top_left: 0\n", "  lid: 0\n")
    with pytest.raises(ParseError) as exc:
        parse_document(broken)
    assert "lid" in str(exc.value)


def test_cube_with_missing_edge_rejected():
    broken = CUBE_Z5.replace("  top_left: 0\n", "")
    with pytest.raises(ParseError):
        parse_document(broken)


def test_eh_document():
    d = parse_document(EH_C2).payload
    report = eckmann_hilton_check(d.elements, d.op1, d.op2, d.unit1, d.unit2)
    assert report.ok


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nkind: group  # trailing\nelements: 0\nunit: 0\ntable:\n  0: 0\n"
    g = parse_document(text).payload
    assert g.elements == ("0",)


def test_unknown_kind_rejected():
    with pytest.raises(ParseError) as exc:
        parse_document("kind: widget\n")
    assert "widget" in str(exc.value)


def test_tab_indentation_rejected():
    text = "kind: group\nelements: 0\nunit: 0\ntable:\n\t0: 0\n"
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert "tab" in str(exc.value).lower()


def test_inconsistent_indentation_reports_line():
    text = "kind: group\nelements: 0\nunit: 0\ntable:\n    0: 0\n"
    # a sibling at a shallower depth than the block it belongs to
    text2 = GROUPOID.replace("  j: 1 0", " j: 1 0")
    with pytest.raises(ParseError) as exc:
        parse_document(text2)
    assert exc.value.line == 7
    parse_document(text)  # a deeper but consistent block is fine


@pytest.mark.parametrize(
    "data,line",
    [
        (b"kind: group\nelements: 0 1\xff\n", 2),
        (b"\xc3", 1),
        # \r\n and a lone \r each end one line, as they do for the parser
        (b"kind: group\r\nname: c\xc3\xa9\relements: \x80 1\n", 3),
    ],
)
def test_invalid_utf8_is_a_parse_error_at_its_line(tmp_path, data, line):
    path = tmp_path / "doc.grp"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_document(path)
    assert exc.value.line == line
    assert "not valid UTF-8" in str(exc.value)


def test_value_with_nested_lines_rejected():
    text = "kind: group\nelements: 0\n  stray: x\nunit: 0\ntable:\n  0: 0\n"
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert "elements" in str(exc.value)


def test_bad_name_rejected():
    text = C2_GROUP.replace("elements: 0 1", "elements: 0 a=b")
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert "a=b" in str(exc.value)


def test_duplicate_section_rejected():
    text = C2_GROUP + "unit: 0\n"
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert "duplicate" in str(exc.value)


def test_reserved_edge_name_rejected():
    text = "kind: quiver\nvertices: v\nedges:\n  1: v v\n"
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert "reserved" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [C2_GROUP, S3_PERMS, CIRCLE, SPHERE, COVER, XMOD_C4C2, SQUARES, CUBE_Z5, EH_C2],
    ids=["c2", "s3", "circle", "sphere", "cover", "xmod", "squares", "cube", "eh"],
)
def test_render_round_trip(text):
    first = parse_document(text)
    rendered = render_document(first)
    second = parse_document(rendered)
    assert second.kind == first.kind
    assert second.payload == first.payload
    assert render_document(second) == rendered


def test_document_is_frozen():
    doc = parse_document(C2_GROUP)
    assert isinstance(doc, Document)
    with pytest.raises(AttributeError):
        doc.kind = "other"


# A bad one-line entry is reported at its own line, not at the line of the
# section around it (line 0 at the top of a document, before).
@pytest.mark.parametrize(
    "text, message, line",
    [
        ("kind: complex\nvertices: v w=x\n", "bad name 'w=x'", 2),
        (C2_GROUP.replace("elements: 0 1", "elements: 0 a:b"), "bad name 'a:b'", 3),
        (
            S3_PERMS.replace("degree: 3", "degree: three"),
            "degree must be an integer, got 'three'",
            3,
        ),
        (GROUPOID.replace("objects: 0 1", "objects: 0 1=2"), "bad name '1=2'", 2),
        (COVER.replace("u: p", "u: p x^y"), "bad name 'x^y'", 7),
        (COVER.replace("v: q", "v: q:r"), "bad name 'q:r'", 8),
        (EH_C2.replace("elements: 0 1", "elements: 0 1=1"), "bad name '1=1'", 2),
        # Inside a section, the entry's line and not the section's (9).
        (
            XMOD_C4C2.replace("elements: 0 1 2 3", "elements: 0 1 2 3="),
            "bad name '3='",
            10,
        ),
    ],
    ids=[
        "complex-vertices", "group-elements", "group-degree", "groupoid-objects",
        "cover-u", "cover-v", "eh-elements", "xmod-m-elements",
    ],
)
def test_a_bad_entry_is_reported_at_its_own_line(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("kind: complex\nedges:\n", "missing entry 'vertices'", 1),
        ("kind: complex\nvertices: v\n", "missing section 'edges'", 1),
        ("# c2\n\nkind: group\ntable:\n", "missing entry 'elements'", 1),
        ("kind: cover\n", "missing section 'complex'", 1),
        ("name: x\n", "missing entry 'kind'", 1),
        # Inside a section, the section's line, as before.
        (XMOD_C4C2.replace("  elements: 0 1\n", "", 1), "missing entry 'elements'", 3),
    ],
    ids=["entry", "section", "after-comments", "cover", "kind", "nested"],
)
def test_a_missing_top_level_entry_is_reported_at_line_one(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)
