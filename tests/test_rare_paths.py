"""Refusals and small public methods that no other test reaches: each runs
once here, and its message, witness or value is asserted."""

import random
from dataclasses import replace

import pytest

from gpdkit.core import CompositionError, ValidationError, cyclic_group, symmetric_group
from gpdkit.dblgpd import (
    commutative_cube_check,
    cube_compose_check,
    eckmann_hilton_check,
    eh_instance_from_squares,
    from_xmod,
    interchange_check,
    perturb_cube,
    random_commutative_cube,
    random_cube_sharing,
)
from gpdkit.documents import ParseError, parse_document, render_document
from gpdkit.xmod import bundled_xmods, kernel_central_check

from test_documents import (
    C2_GROUP,
    CUBE_Z5,
    EH_C2,
    GROUPOID,
    PRESENTATION,
    S3_PERMS,
    SQUARES,
    XMOD_C4C2,
)


def _swap(text, old, new):
    assert text.count(old) == 1, old
    return text.replace(old, new)


@pytest.mark.parametrize(
    "text, message, line",
    [
        (
            _swap(C2_GROUP, "name: c2\n", "name:\n  first: c2\n"),
            "entry 'name' must be a single line",
            2,
        ),
        (
            _swap(S3_PERMS, "  r: 1 2 0\n", "  r:\n    images: 1 2 0\n"),
            "permutation rows take no nested lines",
            6,
        ),
        ("kind: group\ndegree: 2\nperms:\n", "perms section is empty", 3),
        (
            _swap(C2_GROUP, "  1: 1 0\n", "  1:\n    row: 1 0\n"),
            "table rows take no nested lines",
            7,
        ),
        (C2_GROUP + "  1: 1 0\n", "duplicate row for '1'", 8),
        (_swap(GROUPOID, "  i: 0 1\n", "  i: 0\n"), "arrow rows are 'id: src tgt'", 6),
        (
            _swap(GROUPOID, "  i j: id0\n", "  ij: id0\n"),
            "composition rows are 'a b: c'",
            15,
        ),
        (
            _swap(PRESENTATION, "  x x = 1\n", "  x x\n"),
            "relations are 'word = word'",
            8,
        ),
        (
            "kind: presentation\nvertices: u v\nedges:\n  a: u v\n  b: u u\n"
            "relations:\n  a = b\n",
            "relation sides are not coterminal",
            7,
        ),
        (
            _swap(XMOD_C4C2, "  3: 1\naction:", "  7: 1\naction:"),
            "unknown fibre element '7'",
            21,
        ),
        (
            _swap(XMOD_C4C2, "  3: 1\naction:", "  3: 5\naction:"),
            "unknown base element '5'",
            21,
        ),
        (
            _swap(XMOD_C4C2, "  2 1: 2\n", "  2: 2\n"),
            "action rows are 'm p: m2'",
            28,
        ),
        (
            _swap(XMOD_C4C2, "  2 1: 2\n", "  2 7: 2\n"),
            "unknown pair '2 7'",
            28,
        ),
        (
            _swap(SQUARES, "  z: 0 0 0 0 0\n", "  s2: 0 0 0 0 0\n"),
            "duplicate square 's2'",
            26,
        ),
        (
            _swap(CUBE_Z5, "  back_right: 4\n", "  back_right: 4\n  back_left: 1\n"),
            "duplicate cube edge 'back_left'",
            15,
        ),
        (_swap(EH_C2, "op1:\n  0 0: 0\n", "op1:\n  00: 0\n"), "op1 rows are 'a b: c'", 6),
    ],
    ids=[
        "nested-entry", "nested-perm-row", "empty-perms", "nested-table-row",
        "duplicate-table-row", "arrow-row", "composition-row", "relation-row",
        "relation-ends", "mu-fibre", "mu-base", "action-row", "action-pair",
        "duplicate-square", "duplicate-cube-edge", "eh-op-row",
    ],
)
def test_a_document_refusal_names_its_line(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)


def test_a_kind_without_a_renderer_is_refused():
    doc = parse_document(PRESENTATION)
    with pytest.raises(ValidationError) as exc:
        render_document(doc)
    assert (str(exc.value), exc.value.witness) == (
        "no renderer for kind 'presentation'",
        "presentation",
    )


def test_the_groupoid_lookups():
    g = parse_document(GROUPOID).payload
    assert len(g) == 4
    assert (g.identity("0"), g.identity("1")) == ("id0", "id1")
    assert g.compose_many([], at="1") == "id1"
    assert g.compose_many(["i", "j", "i"]) == "i"
    with pytest.raises(CompositionError, match="^empty composite needs an object$"):
        g.compose_many([])


def test_the_crossed_module_lookups():
    xm = parse_document(XMOD_C4C2).payload
    assert xm.group_at("*").elements == ("0", "1", "2", "3")
    assert [xm.boundary("*", m) for m in ("0", "1", "2", "3")] == ["0", "1", "0", "1"]


def _reports():
    """A passing report of each kind, and a failing one where the check can
    fail; ``interchange_check`` and ``kernel_central_check`` hold on every
    crossed module, so their failing report is the passing one with
    ``ok`` cleared."""
    c5, rng = cyclic_group(5), random.Random(7)
    c1 = random_commutative_cube(c5, rng)
    c2 = random_cube_sharing(c5, rng, c1, "v")
    broken = perturb_cube(c1, "top_back", (c1.top_back + 1) % 5)
    d = from_xmod(bundled_xmods()["c2"])
    s = d.squares[0]
    s3 = symmetric_group(3)
    table = dict(s3.table)
    interchange = interchange_check(d.xm, s, s, s, s)
    central = kernel_central_check(bundled_xmods()["auts3"])
    return [
        (interchange, replace(interchange, ok=False)),
        (commutative_cube_check(c5, c1), commutative_cube_check(c5, broken)),
        (cube_compose_check(c5, c1, c2, "v"), cube_compose_check(c5, broken, c2, "v")),
        (
            eckmann_hilton_check(*eh_instance_from_squares(d, "*")),
            eckmann_hilton_check(s3.elements, table, table, s3.unit, s3.unit),
        ),
        (central, replace(central, ok=False)),
    ]


def test_a_report_is_true_exactly_when_it_holds():
    kinds = []
    for good, bad in _reports():
        kinds.append(type(good).__name__)
        assert type(bad) is type(good)
        assert (good.ok, bool(good)) == (True, True)
        assert (bad.ok, bool(bad)) == (False, False)
    assert kinds == [
        "InterchangeReport", "CubeReport", "CubeComposeReport", "EHReport", "CentralityReport",
    ]
