"""The integer index view that validation keeps, and its readers.

``_old_automorphism_group`` and ``_old_inverse`` are the bodies that
``xmod.automorphism_group`` and ``finite_group`` had before they read the
view, kept verbatim as oracles; ``_old_base_group`` is the rebuild
``cli._base_group`` made.  Aut(G) must come out with the same elements,
table, unit and name, and every group with the same inverse map.
"""

from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from gpdkit.cli import _base_group
from gpdkit.core import (
    DEFAULT_SIZE_GUARD,
    FiniteGroup,
    FiniteGroupoid,
    ValidationError,
    alternating_group,
    battery,
    build_groupoid,
    cyclic_group,
    disjoint_union,
    finite_group,
    from_group,
    index_view,
    interval_groupoid,
    one_object_group,
    subgroup,
    symmetric_group,
)
from gpdkit.documents import load_document
from gpdkit.presentations import group_homs
from gpdkit.xmod import automorphism_group, bundled_xmods
from test_validate import _old_validate, _outcome

DATA = Path(__file__).parent / "data"


def _old_automorphism_group(g, guard=DEFAULT_SIZE_GUARD):
    """All automorphisms of a finite group, encoded as image tuples aligned
    with ``g.elements``; composition is "apply left, then right".  They are
    the bijective ``group_homs(g, g, guard)``."""
    g.validate()
    n = len(g.elements)
    autos = [images for images in group_homs(g, g, guard) if len(set(images)) == n]
    idx = {x: i for i, x in enumerate(g.elements)}
    table = {
        (a, b): tuple(b[idx[a[i]]] for i in range(n))
        for a in autos
        for b in autos
    }
    return finite_group(
        tuple(autos), table, unit=tuple(g.elements), name=f"aut({g.name or 'group'})"
    )


def _old_inverse(elements, table, unit):
    inverse = {}
    for a in elements:
        for b in elements:
            if table.get((a, b)) == unit and table.get((b, a)) == unit:
                inverse[a] = b
                break
    return inverse


def _old_base_group(xm):
    return finite_group(
        xm.p.arrows, dict(xm.p.comp), unit=xm.p.id_of["*"], name=xm.p.name
    )


def _dihedral4():
    s4 = symmetric_group(4)
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    carrier = {s4.unit}
    while True:
        grown = carrier | {s4.mul(x, y) for x in carrier | {r, s} for y in (r, s)}
        if grown == carrier:
            break
        carrier = grown
    return subgroup(s4, sorted(carrier), name="d4")


def _quaternion8():
    # (sign, unit) with units 1, i, j, k; i j = k, j k = i, k i = j
    units = ("1", "i", "j", "k")
    prod = {("1", u): (1, u) for u in units}
    prod.update({(u, "1"): (1, u) for u in units})
    prod.update({(u, u): (-1, "1") for u in units[1:]})
    for a, b, c in (("i", "j", "k"), ("j", "k", "i"), ("k", "i", "j")):
        prod[(a, b)], prod[(b, a)] = (1, c), (-1, c)
    elements = tuple(product((1, -1), units))
    table = {}
    for (s, u), (t, v) in product(elements, repeat=2):
        sign, w = prod[(u, v)]
        table[((s, u), (t, v))] = (s * t * sign, w)
    return finite_group(elements, table, unit=(1, "1"), name="q8")


def _c2_cubed():
    elements = tuple(product(range(2), repeat=3))
    table = {
        (x, y): tuple((p + q) % 2 for p, q in zip(x, y)) for x in elements for y in elements
    }
    return finite_group(elements, table, unit=(0, 0, 0), name="c2^3")


AUT_GROUPS = {
    "c7": cyclic_group(7),
    "c8": cyclic_group(8),
    "s3": symmetric_group(3),
    "d4": _dihedral4(),
    "q8": _quaternion8(),
    "c2^3": _c2_cubed(),
}


@pytest.mark.parametrize("name", sorted(AUT_GROUPS))
def test_automorphism_group_matches_the_table_it_built_by_elements(name):
    g = AUT_GROUPS[name]
    new, old = automorphism_group(g), _old_automorphism_group(g)
    assert (new.elements, new.unit, new.name) == (old.elements, old.unit, old.name)
    assert list(new.table.items()) == list(old.table.items())
    assert new.inverse == old.inverse
    assert len(new) == {"c7": 6, "c8": 4, "s3": 6, "d4": 8, "q8": 24, "c2^3": 168}[name]


def _groups():
    out = {name: p for name, p in battery().items()}
    out.update(AUT_GROUPS)
    out["a4"] = alternating_group(4)
    for name, xm in bundled_xmods().items():
        out[f"{name}-fibre"] = xm.m["*"]
        out[f"{name}-base"] = xm.p
    return out


GROUPS = _groups()


def _assert_view_reads_the_table(p):
    """``p``'s view against its tables, for a group or a groupoid."""
    if isinstance(p, FiniteGroup):
        v = p._view
        objects, comp, units = ("*",), p.table, {"*": p.unit}
        src = tgt = dict.fromkeys(p.elements, "*")
        inv = p.inverse
    else:
        v = p._view
        objects, comp, units, src, tgt, inv = p.objects, p.comp, p.id_of, p.src, p.tgt, p.inv
    items = v.items
    assert items == (p.elements if isinstance(p, FiniteGroup) else p.arrows)
    assert v.index == {x: i for i, x in enumerate(items)}
    for i, j in product(range(len(items)), repeat=2):
        a, b = items[i], items[j]
        want = v.index[comp[(a, b)]] if tgt[a] == src[b] else -1
        assert v.rows[i][j] == want, (a, b)
    assert all(isinstance(row, tuple) for row in v.rows)
    assert v.inverse == tuple(v.index[inv[a]] for a in items)
    assert v.units == tuple(v.index[units[x]] for x in objects)
    assert v.src == tuple(objects.index(src[a]) for a in items)
    assert v.tgt == tuple(objects.index(tgt[a]) for a in items)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_the_view_reads_the_table_through_the_index(name):
    _assert_view_reads_the_table(GROUPS[name])


def test_groupoid_views_read_their_tables():
    interval = interval_groupoid()
    s3 = from_group(symmetric_group(3))
    for p in (interval, disjoint_union(interval, s3), disjoint_union(s3, interval)):
        assert p._validated
        _assert_view_reads_the_table(p)


def test_from_group_shares_the_group_view():
    g = symmetric_group(3)
    assert from_group(g)._view is g._view
    assert from_group(g, obj="x", name="other")._view is g._view


def test_finite_group_inverses_match_the_old_search():
    for name, g in GROUPS.items():
        if isinstance(g, FiniteGroup):
            assert g.inverse == _old_inverse(g.elements, g.table, g.unit), name
            assert list(g.inverse) == list(g.elements), name


def test_replaced_and_raw_values_carry_no_view():
    g = symmetric_group(3)
    p = from_group(g)
    for copy in (replace(g), replace(g, name="copy")):
        assert copy._view is None and not copy._validated
    raw = FiniteGroupoid(
        objects=p.objects, arrows=p.arrows, src=p.src, tgt=p.tgt,
        comp=p.comp, id_of=p.id_of, inv=p.inv,
    )
    for copy in (replace(p), raw, disjoint_union(raw, p), disjoint_union(p, raw)):
        assert copy._view is None and not copy._validated
    # A view built for an unmarked groupoid equals the kept one but is not kept.
    assert index_view(raw) == p._view
    assert raw._view is None
    assert replace(g).validate()._view == g._view


def _broken_s3_table():
    g = symmetric_group(3)
    table = dict(g.table)
    a, b = g.elements[1], g.elements[2]
    table[(a, b)] = a
    return table


def test_a_broken_replaced_or_raw_table_is_still_rejected_with_the_old_witness():
    g = symmetric_group(3)
    table = _broken_s3_table()
    raw = FiniteGroup(elements=g.elements, table=table, unit=g.unit)
    for broken in (replace(g, table=table), raw):
        expected = _outcome(_old_validate, broken)
        assert expected[0] == "associativity fails"
        assert _outcome(FiniteGroup.validate, broken) == expected
        assert broken._view is None
    # A failed check fills in no inverse map.
    assert raw.inverse is None
    # The same table handed to build_groupoid is rejected there.
    p = from_group(g)
    with pytest.raises(ValidationError) as info:
        build_groupoid(p.objects, p.arrows, p.src, p.tgt, broken.table)
    assert str(info.value) == "associativity fails"


@pytest.mark.parametrize(
    "damage, message, witness",
    [
        (lambda p: {"comp": {k: v for k, v in p.comp.items() if k != ("i", "i_inv")}},
         "composition table is not total", ("i", "i_inv")),
        (lambda p: {"comp": {**p.comp, ("i", "i_inv"): "x"}},
         "composite leaves the carrier", ("i", "i_inv")),
        (lambda p: {"src": {**p.src, "i": 7}}, "arrow with bad endpoints", "i"),
        (lambda p: {"id_of": {0: "id0"}}, "object with no identity arrow", 1),
        (lambda p: {"inv": {**p.inv, "i": "i"}}, "arrow with no inverse", "i"),
    ],
)
def test_an_unindexable_groupoid_is_rejected_with_a_witness(damage, message, witness):
    broken = replace(interval_groupoid(), **damage(interval_groupoid()))
    with pytest.raises(ValidationError) as info:
        index_view(broken)
    assert (str(info.value), info.value.witness) == (message, witness)


@pytest.mark.parametrize("name", ["c2c2.xm", "c4c2.xm", "bad.xm"])
def test_base_group_of_a_parsed_xmod_equals_the_old_rebuild(name):
    xm = load_document(DATA / name).payload
    new, old = _base_group(xm), _old_base_group(xm)
    assert new == old
    assert (new.name, new.inverse) == (old.name, old.inverse)
    # A lawful base lends its view: nothing is rebuilt.
    assert xm.p._validated and new._validated
    assert new._view is xm.p._view and new.table is xm.p.comp
    # An unmarked base goes through finite_group.
    unmarked = replace(xm, p=replace(xm.p))
    rebuilt = _base_group(unmarked)
    assert rebuilt == old and rebuilt._view is not None
    assert rebuilt._view is not xm.p._view and rebuilt.table is not xm.p.comp


def test_one_object_group_of_a_raw_broken_groupoid_is_validated():
    g = cyclic_group(3)
    p = replace(from_group(g), comp={**g.table, (1, 1): 1})
    with pytest.raises(ValidationError) as info:
        one_object_group(p)
    assert str(info.value) == "associativity fails"
