"""The library's group constructors build their products as integer rows,
and one law check, ``core._group_view``, serves both those rows and the
rows ``FiniteGroup.validate`` reads off a name table.

Each constructor is compared, field by field, with its former name-table
body in ``name_tables``: elements, the table with its key order, unit,
inverse map with its key order, name, and the kept ``IndexView``.  Rows
that break a law must be refused by the rows check with the message and
witness ``FiniteGroup(...).validate()`` gives on the equal name table.
"""

from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import name_tables as old
from gpdkit import core, xmod
from gpdkit.core import (
    FiniteGroup,
    ValidationError,
    battery,
    build_groupoid,
    disjoint_union,
    from_group,
    interval_groupoid,
)
from gpdkit.documents import ParseError, _tree, load_document, parse_document

from test_validate import _group_pair_table
from test_views import _dihedral4

DATA = Path(__file__).parent / "data"


def _fields(g):
    """Every public field of a group in order, and its kept view."""
    v = g._view
    return (
        type(g), g.elements, list(g.table.items()), g.unit, list(g.inverse.items()), g.name,
        v, list(v.index.items()),
    )


def _outcome(build, *args, **kwargs):
    """A build's fields, or its refusal's type, message, line and witness."""
    try:
        value = build(*args, **kwargs)
    except (ValidationError, ParseError) as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "witness", None)
    if isinstance(value, FiniteGroup):
        return _fields(value)
    fibre = value.m["*"]
    return (
        value.p, value.p._view, _fields(fibre), value.mu, list(value.action.items()), value.name,
    )


def _subgroups(g):
    """The subgroups of ``g`` generated by at most two elements, each in
    ``g``'s element order."""
    seen = []
    for a, b in product(g.elements, repeat=2):
        span = {g.unit}
        while True:
            more = span | {g.mul(x, y) for x in span for y in (a, b)}
            if more == span:
                break
            span = more
        sub = tuple(x for x in g.elements if x in span)
        if sub not in seen:
            seen.append(sub)
    return seen


# ------------------------------------------------------------- constructors


LIBRARY = [
    *((f"c{n}", "cyclic_group", (n,)) for n in range(1, 25)),
    *((f"s{n}", "symmetric_group", (n,)) for n in range(1, 6)),
    *((f"a{n}", "alternating_group", (n,)) for n in range(3, 6)),
    ("trivial", "trivial_group", ()),
]


@pytest.mark.parametrize("name, build, args", LIBRARY, ids=[c[0] for c in LIBRARY])
def test_library_groups_equal_the_name_table_builds(name, build, args):
    assert _outcome(getattr(core, build), *args) == _outcome(getattr(old, build), *args)
    assert _outcome(getattr(core, build), *args, name="x") == _outcome(
        getattr(old, build), *args, name="x"
    )


AUTOMORPHISMS = {
    **{name: core.one_object_group(p) for name, p in battery().items()},
    "c7": core.cyclic_group(7),
    "c8": core.cyclic_group(8),
}


@pytest.mark.parametrize("g", AUTOMORPHISMS.values(), ids=AUTOMORPHISMS.keys())
def test_automorphism_groups_equal_the_name_table_builds(g):
    assert _outcome(xmod.automorphism_group, g) == _outcome(old.automorphism_group, g)


def _s4():
    return core.symmetric_group(4)


SUBGROUPS = {
    "a3 in s3": (core.symmetric_group(3), [p for p in core.symmetric_group(3).elements
                                           if core.perm_parity(p) == 0]),
    "a4 in s4": (_s4(), core.alternating_group(4).elements),
    "d4 in s4": (_s4(), _dihedral4().elements),
    "c3 in s3": (core.symmetric_group(3), [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
    "not closed in s3": (core.symmetric_group(3), ((0, 1, 2), (1, 0, 2), (0, 2, 1))),
    "e,r,rr in s3.grp": (load_document(DATA / "s3.grp").payload, ["e", "r", "rr"]),
    "e,a in s3.grp": (load_document(DATA / "s3.grp").payload, ["e", "a"]),
}


@pytest.mark.parametrize("g, carrier", SUBGROUPS.values(), ids=SUBGROUPS.keys())
def test_named_subgroups_equal_the_name_table_builds(g, carrier):
    assert _outcome(core.subgroup, g, carrier, name="h") == _outcome(
        old.subgroup, g, carrier, name="h"
    )


@pytest.mark.parametrize("g", [core.symmetric_group(3), core.cyclic_group(6)], ids=["s3", "c6"])
def test_every_carrier_gets_the_name_table_subgroup(g):
    outcomes = set()
    for picks in product((False, True), repeat=len(g)):
        carrier = [x for x, keep in zip(g.elements, picks) if keep]
        for order in (carrier, carrier[::-1], carrier + ["stray"], carrier + carrier[:1]):
            want = _outcome(old.subgroup, g, order, name="h")
            assert _outcome(core.subgroup, g, order, name="h") == want
            outcomes.add(want[1] if want[0] is ValidationError else "ok")
    assert outcomes == {
        "ok", "carrier is not a subset", "carrier misses the unit",
        "carrier is not closed under products", "duplicate elements",
    }


@pytest.mark.parametrize("g", [core.symmetric_group(3), _s4()], ids=["s3", "s4"])
def test_every_small_subgroup_gets_the_name_table_crossed_module(g):
    """Subgroups and normal-subgroup crossed modules, normality witnesses
    included, over every subgroup of s3 and s4 on at most two generators."""
    verdicts = set()
    for sub in _subgroups(g):
        assert _outcome(core.subgroup, g, sub) == _outcome(old.subgroup, g, sub)
        want = _outcome(old.from_normal_subgroup, sub, g)
        assert _outcome(xmod.from_normal_subgroup, sub, g) == want
        verdicts.add(want[1] if want[0] is ValidationError else "ok")
    assert verdicts == {"ok", "subgroup is not normal"}


def test_bundled_and_benchmarked_normal_subgroups_equal_the_name_table_builds():
    s3, s4, a4 = core.symmetric_group(3), _s4(), core.alternating_group(4)
    a3 = tuple(x for x in s3.elements if core.perm_parity(x) == 0)
    for carrier, g, name in ((a3, s3, "a3<|s3"), (a4, s4, ""), (a4.elements, s4, "n")):
        want = _outcome(old.from_normal_subgroup, carrier, g, name=name)
        assert _outcome(xmod.from_normal_subgroup, carrier, g, name=name) == want
    bundled = xmod.bundled_xmods()["a3s3"]
    assert _outcome(lambda: bundled) == _outcome(old.from_normal_subgroup, a3, s3, name="a3<|s3")


GROUPOIDS = {
    **battery(),
    "s4": from_group(_s4(), name="s4"),
    "s3.grp": from_group(load_document(DATA / "s3.grp").payload),
    "c2c2.xm base": load_document(DATA / "c2c2.xm").payload.p,
    "c4c2.xm base": load_document(DATA / "c4c2.xm").payload.p,
}


@pytest.mark.parametrize("p", GROUPOIDS.values(), ids=GROUPOIDS.keys())
def test_one_object_groups_equal_the_name_table_builds(p):
    got = core.one_object_group(p)
    assert _outcome(core.one_object_group, p) == _outcome(old.one_object_group, p)
    # the groupoid's table, but the group's own view
    assert got.table is p.comp and got._view == p._view and got._view is not p._view


VERTICES = [
    ("s3", lambda: from_group(core.symmetric_group(3)), "*"),
    ("interval", interval_groupoid, 0),
    ("interval", interval_groupoid, 1),
    ("interval+c3", lambda: disjoint_union(interval_groupoid(), from_group(core.cyclic_group(3))),
     ("r", "*")),
    ("interval+c3", lambda: disjoint_union(interval_groupoid(), from_group(core.cyclic_group(3))),
     ("l", 1)),
    *((f"pair3xs3@{x}", lambda: build_groupoid(*_group_pair_table(3, core.symmetric_group(3))), x)
      for x in range(3)),
    ("missing", interval_groupoid, 7),
]


@pytest.mark.parametrize("make, x", [v[1:] for v in VERTICES], ids=[v[0] for v in VERTICES])
def test_vertex_groups_equal_the_name_table_builds(make, x):
    assert _outcome(core.vertex_group, make(), x) == _outcome(old.vertex_group, make(), x)


# ------------------------------------------------------------ the perms reader


S3 = (DATA / "s3.grp").read_text(encoding="utf-8")
PERMS = {
    "s3.grp": S3,
    "named": S3.replace("name: s3", "name: other"),
    "reordered": S3.replace("  e: 0 1 2\n", "") + "  e: 0 1 2\n",
    "missing product": S3.replace("  rr: 2 0 1\n", ""),
    "no identity": "kind: group\ndegree: 3\nperms:\n  a: 1 0 2\n",
    "same permutation": S3 + "  f: 1 0 2\n",
    "duplicate element": S3 + "  a: 0 2 1\n",
    "not a permutation": S3.replace("c: 1 0 2", "c: 1 1 2"),
    "degree one": "kind: group\ndegree: 1\nperms:\n  e: 0\n",
}


@pytest.mark.parametrize("text", PERMS.values(), ids=PERMS.keys())
def test_the_perms_reader_equals_the_name_table_reader(text):
    got = _outcome(lambda: parse_document(text).payload)
    assert got == _outcome(old.group_of, _tree(text))


def test_a_perms_document_reports_a_missing_product_before_a_missing_identity():
    # every product listed but the identity's: no closed set of permutations
    # misses the identity, so the product refusal comes first
    text = "kind: group\ndegree: 2\nperms:\n  t: 1 0\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert str(info.value).endswith("product of 't' and 't' is not listed")


# ---------------------------------------------------------- one law check


def _rows_outcome(elements, rows, unit):
    return _outcome(core._group_of_rows, elements, rows, unit, "x")


def _table_outcome(elements, rows, unit):
    table = {
        (a, b): elements[c] for a, row in zip(elements, rows) for b, c in zip(elements, row)
    }
    return _outcome(FiniteGroup(elements, table, unit, name="x").validate)


C3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# a loop of order five that is not a group: every element its own inverse
LOOP5 = (
    (0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0),
)
BROKEN = {
    "distinct elements": (("a", "b", "a"), C3, "a", "duplicate elements"),
    "unit an element": ((0, 1, 2), C3, 5, "unit is not an element"),
    "unit law": ((0, 1, 2), C3, 1, "unit law fails"),
    "associativity": (tuple(range(5)), LOOP5, 0, "associativity fails"),
    # {1, 0} under multiplication: a monoid whose zero has no inverse
    "inverses": (("1", "0"), ((0, 1), (1, 1)), "1", "no two-sided inverse"),
}


@pytest.mark.parametrize("case", BROKEN.values(), ids=BROKEN.keys())
def test_broken_rows_are_refused_as_the_equal_name_table(case):
    elements, rows, unit, message = case
    got = _rows_outcome(elements, rows, unit)
    assert got[:2] == (ValidationError, message)
    assert got == _table_outcome(elements, rows, unit)


def test_every_one_entry_change_to_s3_is_refused_as_the_name_table():
    g = core.symmetric_group(3)
    rows, n = g._view.rows, len(g)
    verdicts = set()
    for i, j, c in product(range(n), repeat=3):
        if rows[i][j] == c:
            continue
        broken = tuple(
            tuple(c if (a, b) == (i, j) else x for b, x in enumerate(row))
            for a, row in enumerate(rows)
        )
        want = _table_outcome(g.elements, broken, g.unit)
        assert _rows_outcome(g.elements, broken, g.unit) == want
        verdicts.add(want[1])
    assert verdicts == {"unit law fails", "associativity fails"}


def test_constructors_check_their_rows_once_and_read_no_name_table(monkeypatch):
    """Each constructor runs the one law check once, and never the reader
    of a name table."""
    calls = []
    for name in ("_group_view", "_read_rows"):
        real = getattr(core, name)
        monkeypatch.setattr(
            core, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    s3 = core.symmetric_group(3)
    p = from_group(s3)
    builds = [
        lambda: core.cyclic_group(5),
        lambda: core.alternating_group(4),
        core.trivial_group,
        lambda: core.subgroup(s3, s3.elements[:1]),
        lambda: core.one_object_group(p),
        lambda: core.vertex_group(p, "*"),
        lambda: xmod.automorphism_group(s3),
        lambda: load_document(DATA / "s3.grp"),
    ]
    for build in builds:
        calls.clear()
        build()
        assert calls == ["_group_view"]
    calls.clear()
    core.finite_group(range(2), {(a, b): (a + b) % 2 for a in range(2) for b in range(2)})
    assert calls == ["_read_rows", "_group_view"]


# ------------------------------------------------ where the rows are read


def test_builds_on_a_parent_read_its_rows_so_a_lawless_parent_is_refused():
    """The three builds that read a parent's rows validate the parent
    first.  The name-table bodies read only the part they used, so they
    accepted a lawful part of a lawless parent, and refused a groupoid of
    several objects as a group by its first missing pair."""
    c4 = core.cyclic_group(4)
    raw = FiniteGroup(c4.elements, {**c4.table, (1, 1): 3}, 0)
    assert _outcome(old.subgroup, raw, (0, 2))[0] is FiniteGroup
    assert _outcome(core.subgroup, raw, (0, 2))[:2] == (ValidationError, "associativity fails")

    c3 = from_group(core.cyclic_group(3))
    union = disjoint_union(interval_groupoid(), c3)
    lawless = disjoint_union(interval_groupoid(), replace(c3, comp={**c3.comp, (1, 1): 1}))
    assert _outcome(old.vertex_group, lawless, ("l", 0)) == _outcome(
        core.vertex_group, union, ("l", 0)
    )
    assert _outcome(core.vertex_group, lawless, ("l", 0))[:2] == (
        ValidationError, "associativity fails"
    )

    interval = interval_groupoid()
    assert _outcome(old.one_object_group, interval)[1:] == (
        "table is not total", None, ("id0", "id1")
    )
    assert _outcome(core.one_object_group, interval)[1:] == ("unit law fails", None, "id1")
