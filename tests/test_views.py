"""The integer index views that validation keeps, the crossed-module view
read on first use, and their readers.

``_old_automorphism_group`` and ``_old_inverse`` are the bodies that
``xmod.automorphism_group`` and ``finite_group`` had before they read the
view, kept verbatim as oracles; ``_old_base_group`` is the rebuild
``cli._base_group`` made.  Aut(G) must come out with the same elements,
table, unit and name, and every group with the same inverse map.

Every view is validated on first read, then kept: ``index_view`` of a
groupoid built raw or by ``dataclasses.replace`` raises exactly what
``build_groupoid`` raises on its table, or rejects an ``id_of`` or ``inv``
that contradicts a lawful table, and otherwise keeps the view
``build_groupoid`` would have built.
"""

import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from gpdkit import dblgpd, xmod
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
from gpdkit.dblgpd import (
    commutative_cube_check,
    compose_array,
    eh_instance_from_squares,
    from_xmod,
    hcompose,
    make_square,
    random_commutative_cube,
    sample_grid,
    to_xmod,
    vcompose,
)
from gpdkit.documents import load_document
from gpdkit.presentations import group_homs
from gpdkit.xmod import (
    automorphism_group,
    automorphism_xmod,
    bundled_xmods,
    crossed_module,
    from_normal_subgroup,
    trivial_xmod,
    xmod_view,
)
from test_axioms import MODULES, _loop_base_xmod, _raw_inverse_base
from test_cubes import CARRIER_MODULES
from test_int_squares import reordered_interval_xmod
from test_morphisms import GROUPOIDS
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


INNER_GROUPS = {
    "c2": cyclic_group(2),
    "c3": cyclic_group(3),
    "c4": cyclic_group(4),
    "s3": symmetric_group(3),
    "c8": AUT_GROUPS["c8"],
    "c2^3": AUT_GROUPS["c2^3"],
    "s4": symmetric_group(4),
}


@pytest.mark.parametrize("name", sorted(INNER_GROUPS))
def test_the_automorphism_module_boundary_is_conjugation_by_name(name):
    """The boundary read off the group's rows is the dict that conjugating
    by name builds, in the same key order."""
    g = INNER_GROUPS[name]
    inner = automorphism_xmod(g).mu["*"]
    by_name = {m: tuple(g.conj(x, m) for x in g.elements) for m in g.elements}
    assert list(inner.items()) == list(by_name.items())


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
        assert index_view(p) is p._view
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
        assert copy._view is None
    raw = FiniteGroupoid(
        objects=p.objects, arrows=p.arrows, src=p.src, tgt=p.tgt,
        comp=p.comp, id_of=p.id_of, inv=p.inv,
    )
    for copy in (replace(p), raw, disjoint_union(raw, p), disjoint_union(p, raw)):
        assert copy._view is None
    # The first read validates the copy and keeps its view.
    assert index_view(raw) == p._view
    assert raw._view is index_view(raw)
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


DAMAGES = {
    "missing-pair": (
        lambda p: {"comp": {k: v for k, v in p.comp.items() if k != ("i", "i_inv")}},
        "composition table is not total", ("i", "i_inv"),
    ),
    "stray-composite": (
        lambda p: {"comp": {**p.comp, ("i", "i_inv"): "x"}},
        "composite leaves the carrier", ("i", "i_inv", "x"),
    ),
    "bad-endpoint": (lambda p: {"src": {**p.src, "i": 7}}, "arrow with bad endpoints", "i"),
    "missing-identity": (
        lambda p: {"id_of": {0: "id0"}}, "identity map contradicts the table", 1,
    ),
    "wrong-inverse": (
        lambda p: {"inv": {**p.inv, "i": "i"}}, "inverse map contradicts the table", "i",
    ),
}


@pytest.mark.parametrize("name", DAMAGES)
def test_an_unindexable_groupoid_is_rejected_with_a_witness(name):
    damage, message, witness = DAMAGES[name]
    broken = replace(interval_groupoid(), **damage(interval_groupoid()))
    with pytest.raises(ValidationError) as info:
        index_view(broken)
    assert (str(info.value), info.value.witness) == (message, witness)


def _lawless():
    interval = interval_groupoid()
    out = {name: replace(interval, **damage(interval)) for name, (damage, _, _) in DAMAGES.items()}
    out["loop5"] = _loop_base_xmod().p
    out["raw-inverse"] = _raw_inverse_base(cyclic_group(3))
    return out


LAWLESS = _lawless()


def _failure(read, *args):
    try:
        read(*args)
    except ValidationError as exc:
        return str(exc), exc.witness
    return None


@pytest.mark.parametrize("name", LAWLESS)
def test_the_first_read_rejects_what_build_groupoid_rejects(name):
    raw = LAWLESS[name]
    got = _failure(index_view, raw)
    built = _failure(build_groupoid, raw.objects, raw.arrows, raw.src, raw.tgt, raw.comp)
    if built is None:
        # a lawful table: the identity or inverse map is damaged, and the
        # witness is its first key whose entry differs from the table's
        p = build_groupoid(raw.objects, raw.arrows, raw.src, raw.tgt, raw.comp)
        pairs = (("identity", raw.id_of, p.id_of), ("inverse", raw.inv, p.inv))
        message, given, want = next(
            (f"{kind} map contradicts the table", given, want)
            for kind, given, want in pairs
            if given != want
        )
        missing = object()
        bad = [k for k in (*want, *given) if given.get(k, missing) != want.get(k, missing)]
        built = message, bad[0]
    assert got == built
    assert raw._view is None


def _lawful():
    """Every lawful groupoid of the test batteries, by name."""
    out = {f"groupoid-{n}": p for n, p in GROUPOIDS.items()}
    out.update((f"battery-{n}", p) for n, p in battery().items())
    groups = ((n, g) for n, g in GROUPS.items() if isinstance(g, FiniteGroup))
    out.update((f"group-{n}", from_group(g)) for n, g in groups)
    for modules, tag in ((MODULES, "module"), (CARRIER_MODULES, "carrier")):
        out.update((f"{tag}-{n}", xm.p) for n, xm in modules.items())
    return out


LAWFUL = _lawful()


@pytest.mark.parametrize("name", LAWFUL)
def test_a_copy_of_a_lawful_groupoid_keeps_the_view_build_groupoid_builds(name):
    p = LAWFUL[name]
    want = build_groupoid(p.objects, p.arrows, p.src, p.tgt, p.comp)
    assert (want.id_of, want.inv) == (p.id_of, p.inv)
    copy = replace(p)
    assert copy._view is None
    assert index_view(copy) == index_view(p) == want._view
    assert copy._view is index_view(copy)


@pytest.mark.parametrize("name", ["c2c2.xm", "c4c2.xm", "bad.xm"])
def test_base_group_of_a_parsed_xmod_equals_the_old_rebuild(name):
    xm = load_document(DATA / name).payload
    new, old = _base_group(xm), _old_base_group(xm)
    assert new == old
    assert (new.name, new.inverse) == (old.name, old.inverse)
    # The group is validated on the base's own table, and reads as the base.
    assert new._view == index_view(xm.p) and new.table is xm.p.comp
    # A replaced base gives the same group.
    rebuilt = _base_group(replace(xm, p=replace(xm.p)))
    assert rebuilt == old and rebuilt.inverse == old.inverse and rebuilt._view == new._view


def test_one_object_group_of_a_raw_broken_groupoid_is_validated():
    g = cyclic_group(3)
    p = replace(from_group(g), comp={**g.table, (1, 1): 1})
    with pytest.raises(ValidationError) as info:
        one_object_group(p)
    assert str(info.value) == "associativity fails"


# ------------------------------------------------------ crossed-module views


def _assert_xmod_view_reads_the_tables(xm, v):
    """``v`` against ``xm``'s tables, name by name."""
    p = xm.p
    assert v.base == index_view(p)
    assert v.fibres == tuple(xm.m[x]._view for x in p.objects)
    for i, a in enumerate(p.arrows):
        source, target = v.fibres[p.objects.index(p.src[a])], v.fibres[p.objects.index(p.tgt[a])]
        want = tuple(target.index[xm.action[(m, a)]] for m in source.items)
        assert v.act[i] == want, a
    for x, fibre, mu in zip(p.objects, v.fibres, v.mu):
        assert mu == tuple(v.base.index[xm.mu[x][m]] for m in fibre.items), x


def _constructors():
    """Each constructor, called afresh by the test that reads it."""
    c2 = cyclic_group(2)
    return {
        "crossed_module": lambda: crossed_module(
            from_group(c2), {"*": c2}, {"*": {m: 0 for m in c2.elements}},
            {(m, q): m for m in c2.elements for q in c2.elements},
        ),
        "trivial_xmod": lambda: trivial_xmod(symmetric_group(3)),
        "trivial_xmod-named": lambda: trivial_xmod(symmetric_group(3), name="named"),
        "from_normal_subgroup": lambda: from_normal_subgroup(
            alternating_group(4), symmetric_group(4)
        ),
        "automorphism_xmod": lambda: automorphism_xmod(cyclic_group(5)),
        "document": lambda: load_document(DATA / "c4c2.xm").payload,
        "crossed_module-reordered": reordered_interval_xmod,
        **{
            f"bundled-{name}": (lambda name=name: bundled_xmods()[name])
            for name in bundled_xmods()
        },
    }


CONSTRUCTORS = _constructors()


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_each_constructor_reads_its_view_on_first_use_and_keeps_it(name):
    xm = CONSTRUCTORS[name]()
    # Nothing is read until a square needs it.
    assert xm._view is None
    v = xmod_view(xm)
    assert xm._view is v
    assert xmod_view(xm) is v
    _assert_xmod_view_reads_the_tables(xm, v)


@pytest.mark.parametrize("name", ["bundled-a3s3", "bundled-auts3", "bundled-c4c2"])
def test_a_replaced_module_has_no_view_and_gives_the_same_answers(name):
    xm = CONSTRUCTORS[name]()
    kept = xmod_view(xm)
    for copy in (replace(xm), replace(xm, p=replace(xm.p)), replace(xm, name="copy")):
        assert copy._view is None
        # The view read for the copy equals the original's, and is kept.
        assert xmod_view(copy) == kept
        assert copy._view is not None
        d, d_copy = from_xmod(xm), from_xmod(copy)
        assert d_copy.squares == d.squares
        grid = sample_grid(d, random.Random(7), 3, 3)
        for order in ("rows", "columns"):
            assert compose_array(copy, grid, order) == compose_array(xm, grid, order)
        s = grid[1][2]
        fields = (s.label, s.top, s.left, s.right, s.bottom)
        assert make_square(copy, *fields) == make_square(xm, *fields) == s


def test_a_module_over_a_replaced_base_keeps_its_view():
    xm = reordered_interval_xmod()
    copy = crossed_module(replace(xm.p), xm.m, xm.mu, xm.action)
    assert copy._view is None and copy.p._view is None
    assert xmod_view(copy) == xmod_view(xm)
    assert copy._view is xmod_view(copy) and copy.p._view == xm.p._view


def _counting_views(monkeypatch):
    """A list that grows by one entry for each XModView built."""
    built = []
    real = xmod.XModView

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(xmod, "XModView", counting)
    return built


def test_a_recovered_module_reads_its_view_once(monkeypatch):
    """``to_xmod`` returns its module with the view it computed, so nothing
    reads it again; a ``replace``d copy starts without one, reads it on its
    first pasting and keeps it for the rest."""
    built = _counting_views(monkeypatch)
    xm = replace(bundled_xmods()["auts3"])
    d = from_xmod(xm)
    assert len(built) == 1
    recovered = to_xmod(d)
    assert len(built) == 1
    assert recovered._view is not None
    copy = replace(recovered)
    assert copy._view is None
    d2 = from_xmod(copy)
    assert len(built) == 2
    to_xmod(d2)
    eh_instance_from_squares(d2, "*")
    rng = random.Random(5)
    for _ in range(20):
        row, column = sample_grid(d2, rng, 1, 2)[0], sample_grid(d2, rng, 2, 1)
        hcompose(copy, *row)
        vcompose(copy, column[0][0], column[1][0])
    assert len(built) == 2


def test_a_lawless_module_reads_none_where_its_tables_do_not_index():
    xm = bundled_xmods()["c4c2"]
    broken = replace(xm, action={**xm.action, (1, 1): "stray"}, mu={"*": {**xm.mu["*"], 3: "x"}})
    v = xmod_view(broken)
    assert v.act[1] == (0, None, 2, 3)
    assert v.mu[0] == (0, 1, 0, None)
    assert v.act[0] == xmod_view(xm).act[0]


def test_a_cube_check_builds_no_module_and_checks_no_square(monkeypatch):
    """``commutative_cube_check`` folds thin squares written on the group's
    own view: it builds no trivial module, reads no module's view and runs
    none of ``make_square``'s checks, on commuting and broken cubes alike."""
    g = cyclic_group(5)
    rng = random.Random(11)
    cubes = [random_commutative_cube(g, rng) for _ in range(50)]
    cubes += [replace(c, top_left=(c.top_left + 1) % 5) for c in cubes]
    calls = []
    for module, name in (
        (xmod, "trivial_xmod"), (xmod, "xmod_view"), (dblgpd, "xmod_view"), (dblgpd, "_indexed")
    ):
        def spy(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    reports = [commutative_cube_check(g, c) for c in cubes]
    assert [r.ok for r in reports] == [True] * 50 + [False] * 50
    assert calls == []
    assert not hasattr(dblgpd, "trivial_xmod")
    # the spies are live: a square over the trivial module trips them
    make_square(xmod.trivial_xmod(g), "1", 0, 0, 0, 0)
    assert calls == ["trivial_xmod", "xmod_view", "_indexed"]
