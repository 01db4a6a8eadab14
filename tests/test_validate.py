"""Group, groupoid, complex, presentation and cover validation: Light's
associativity test against the brute-force validators it replaced, and the
mark that lets a validated value skip a second check.  For groups and
groupoids that mark is the kept IndexView alone, and a group's inverse map
is its table's.  Presentations, their morphisms and covers keep the checked
quiver or W their check read, and every reader validates before it reads.

``_old_validate`` and ``_old_build_groupoid`` are the former bodies of
``FiniteGroup.validate`` and ``build_groupoid``, kept verbatim as oracles:
they test associativity on all n^3 triples.  Every table, broken or not,
must get the same verdict, message and witness from the oracle and the
shared validator, and a groupoid that passes the same identities,
inverses and IndexView.  The one expected difference: a composition row
naming an unknown arrow makes the old groupoid body raise KeyError.

``_old_symmetric_group``, ``_old_alternating_group`` and ``_old_subgroup``
are the former bodies of the permutation-group constructors, which
filtered all n^n tuples and closed A_n inside a validated S_n, and of
``subgroup``, which multiplied every pair twice by name.

``greedy_generators`` is the former ``core`` chooser of generators, kept
verbatim: it reads the table by name, where the library chooses on the
integer rows as it reads them and keeps the choice as ``IndexView.gens``.
``_old_check_morphism`` is the former body of ``check_morphism``, which
read both groupoids unchecked.
"""

from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gpdkit import core, presentations, vankampen
from gpdkit.cli import _name_inclusion
from gpdkit.core import (
    FiniteGroup,
    FiniteGroupoid,
    GroupoidMorphism,
    MorphismReport,
    ValidationError,
    alternating_group,
    battery,
    build_groupoid,
    check_morphism,
    cyclic_group,
    disjoint_union,
    finite_group,
    from_group,
    index_view,
    interval_groupoid,
    perm_parity,
    subgroup,
    symmetric_group,
    trivial_group,
    vertex_group,
)
from gpdkit.documents import load_document, parse_document
from gpdkit.presentations import (
    GroupoidPresentation,
    PresentationMorphism,
    Quiver,
    Word,
    _restricted,
    _restriction,
    empty_word,
    enumerate_morphisms,
    enumerate_pres_morphisms,
    identity_morphism,
    presentation,
    pushout,
    quiver,
    verify_pushout_universal,
    vertex_group_presentation,
    word,
    words_equal,
)
from gpdkit.vankampen import (
    Complex2,
    Subcomplex,
    SubcomplexCover,
    check_cover,
    complex2,
    cover,
    fundamental_groupoid,
    restrict,
    vkt_square,
)
from gpdkit.xmod import automorphism_group, automorphism_xmod, crossed_module

DATA = Path(__file__).parent / "data"


def _old_validate(self):
    elems = self.elements
    eset = set(elems)
    if len(eset) != len(elems):
        raise ValidationError("duplicate elements", witness=elems)
    if self.unit not in eset:
        raise ValidationError("unit is not an element", witness=self.unit)
    for a, b in product(elems, repeat=2):
        if (a, b) not in self.table:
            raise ValidationError("table is not total", witness=(a, b))
        if self.table[(a, b)] not in eset:
            raise ValidationError(
                "table leaves the carrier", witness=(a, b, self.table[(a, b)])
            )
    for a in elems:
        if self.table[(self.unit, a)] != a or self.table[(a, self.unit)] != a:
            raise ValidationError("unit law fails", witness=a)
    for a, b, c in product(elems, repeat=3):
        left = self.table[(self.table[(a, b)], c)]
        right = self.table[(a, self.table[(b, c)])]
        if left != right:
            raise ValidationError("associativity fails", witness=(a, b, c))
    for a in elems:
        if not any(
            self.table[(a, b)] == self.unit and self.table[(b, a)] == self.unit
            for b in elems
        ):
            raise ValidationError("no two-sided inverse", witness=a)
    return self


def greedy_generators(arrows, units, comp):
    """Generators chosen greedily in ``arrows`` order: an arrow is taken when
    no positive word in the arrows taken before it reaches it from
    ``units``.  ``comp[(y, s)]`` is "y then s" for each composable pair, so
    a group passes its table and a groupoid its composition."""
    gens = []
    span = set(units)
    for x in arrows:
        if x in span:
            continue
        gens.append(x)
        frontier = list(units)
        span = set(units)
        while frontier:
            y = frontier.pop()
            for s in gens:
                # a pair that does not compose stays at y, already spanned
                z = comp.get((y, s), y)
                if z not in span:
                    span.add(z)
                    frontier.append(z)
        if len(span) == len(arrows):
            break
    return tuple(gens)


def _outcome(check, g):
    try:
        check(g)
    except ValidationError as err:
        return str(err), err.witness
    return "ok", None


def _raw(g, table=None):
    return FiniteGroup(elements=g.elements, table=dict(table or g.table), unit=g.unit)


def _c2xc4():
    elements = tuple(product(range(2), range(4)))
    table = {
        (x, y): ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4)
        for x in elements
        for y in elements
    }
    return finite_group(elements, table, unit=(0, 0), name="c2xc4")


BASES = {f"c{n}": cyclic_group(n) for n in range(2, 9)}
BASES["s3"] = symmetric_group(3)
BASES["c2xc4"] = _c2xc4()

# The smallest non-associative loop: a Latin square with unit 0, so the unit
# law and two-sided inverses hold (x x = 0), but it is not the cyclic group,
# the only group of order 5.
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


@st.composite
def perturbed(draw, keep_unit_lines):
    """A raw copy of a battery table with one to three entries rewritten to
    other elements, anywhere or only off the unit row and column."""
    g = BASES[draw(st.sampled_from(sorted(BASES)))]
    cells = [
        (a, b)
        for a, b in product(g.elements, repeat=2)
        if not keep_unit_lines or g.unit not in (a, b)
    ]
    table = dict(g.table)
    for _ in range(draw(st.integers(1, 3))):
        table[draw(st.sampled_from(cells))] = draw(st.sampled_from(g.elements))
    return _raw(g, table)


@settings(max_examples=300, deadline=None)
@given(perturbed(keep_unit_lines=False))
def test_light_agrees_with_the_oracle_on_perturbed_tables(g):
    assert _outcome(FiniteGroup.validate, g) == _outcome(_old_validate, g)


@settings(max_examples=300, deadline=None)
@given(perturbed(keep_unit_lines=True))
def test_light_agrees_with_the_oracle_off_the_unit_lines(g):
    # The unit law holds, so these reach the associativity check.
    assert _outcome(FiniteGroup.validate, g) == _outcome(_old_validate, g)


@pytest.mark.parametrize("name", ["c5", "s3", "c2xc4"])
def test_every_single_entry_perturbation_keeps_its_verdict(name):
    g = BASES[name]
    rejected = 0
    for cell, value in product(product(g.elements, repeat=2), g.elements):
        if value == g.table[cell]:
            continue
        broken = _raw(g, {**g.table, cell: value})
        old = _outcome(_old_validate, broken)
        assert _outcome(FiniteGroup.validate, broken) == old
        rejected += old[0] != "ok"
    assert rejected > 0


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda t: t.pop((1, 2)), "table is not total"),
        (lambda t: t.update({(2, 2): "z"}), "table leaves the carrier"),
    ],
)
def test_totality_and_carrier_failures_keep_their_witness(damage, message):
    table = dict(cyclic_group(4).table)
    damage(table)
    broken = _raw(cyclic_group(4), table)
    assert _outcome(FiniteGroup.validate, broken) == _outcome(_old_validate, broken)
    assert _outcome(FiniteGroup.validate, broken)[0] == message


def test_a_non_associative_loop_is_rejected_with_the_first_triple():
    elements = tuple(range(5))
    table = {(a, b): LOOP5[a][b] for a, b in product(elements, repeat=2)}
    loop = FiniteGroup(elements=elements, table=table, unit=0)
    got = _outcome(FiniteGroup.validate, loop)
    assert got == _outcome(_old_validate, loop)
    assert got[0] == "associativity fails"
    with pytest.raises(ValidationError, match="associativity fails"):
        finite_group(elements, table)


def test_a_failure_only_the_second_generator_sees_is_found():
    s3 = BASES["s3"]
    r, rr, b = (1, 2, 0), (2, 0, 1), (2, 1, 0)
    broken = _raw(s3, {**s3.table, (r, b): r, (b, rr): r})
    first, second = greedy_generators(broken.elements, (broken.unit,), broken.table)
    for x, y in product(s3.elements, repeat=2):
        assert broken.mul(broken.mul(x, first), y) == broken.mul(x, broken.mul(first, y))
    expected = ("associativity fails", (first, second, b))
    assert _outcome(_old_validate, broken) == expected
    assert _outcome(FiniteGroup.validate, broken) == expected


def test_the_success_path_does_not_visit_every_triple(monkeypatch):
    repeats = []
    real = core.product

    def spy(*iterables, repeat=1):
        repeats.append(repeat)
        return real(*iterables, repeat=repeat)

    monkeypatch.setattr(core, "product", spy)
    _raw(symmetric_group(4)).validate()
    assert 3 not in repeats
    # Only a failing test falls back to the triple loop for its witness.
    with pytest.raises(ValidationError, match="associativity fails"):
        _raw(cyclic_group(3), _broken_c3()).validate()
    assert 3 in repeats


# ----------------------------------------------------------------- groupoids


def _old_build_groupoid(objects, arrows, src, tgt, comp, name=""):
    objects = tuple(objects)
    arrows = tuple(arrows)
    src = dict(src)
    tgt = dict(tgt)
    comp = dict(comp)
    if len(set(objects)) != len(objects):
        raise ValidationError("duplicate objects", witness=objects)
    if len(set(arrows)) != len(arrows):
        raise ValidationError("duplicate arrows", witness=arrows)
    for a in arrows:
        if src.get(a) not in objects or tgt.get(a) not in objects:
            raise ValidationError("arrow with bad endpoints", witness=a)
    for (a, b), c in comp.items():
        if tgt[a] != src[b]:
            raise ValidationError("composite of non-composable pair", witness=(a, b))
        if c not in set(arrows):
            raise ValidationError("composite leaves the carrier", witness=(a, b, c))
        if src[c] != src[a] or tgt[c] != tgt[b]:
            raise ValidationError("composite has wrong endpoints", witness=(a, b, c))
    for a in arrows:
        for b in arrows:
            if tgt[a] == src[b] and (a, b) not in comp:
                raise ValidationError(
                    "composition table is not total", witness=(a, b)
                )
    for a in arrows:
        for b in arrows:
            if tgt[a] != src[b]:
                continue
            ab = comp[(a, b)]
            for c in arrows:
                if tgt[b] != src[c]:
                    continue
                if comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                    raise ValidationError("associativity fails", witness=(a, b, c))
    id_of = {}
    for x in objects:
        for e in arrows:
            if src[e] != x or tgt[e] != x:
                continue
            if all(
                comp[(e, a)] == a for a in arrows if src[a] == x
            ) and all(comp[(a, e)] == a for a in arrows if tgt[a] == x):
                id_of[x] = e
                break
        else:
            raise ValidationError("object with no identity arrow", witness=x)
    inv = {}
    for a in arrows:
        for b in arrows:
            if (
                tgt[a] == src[b]
                and tgt[b] == src[a]
                and comp[(a, b)] == id_of[src[a]]
                and comp[(b, a)] == id_of[src[b]]
            ):
                inv[a] = b
                break
        else:
            raise ValidationError("arrow with no inverse", witness=a)
    p = FiniteGroupoid(
        objects=objects,
        arrows=arrows,
        src=src,
        tgt=tgt,
        comp=comp,
        id_of=id_of,
        inv=inv,
        name=name,
    )
    object.__setattr__(p, "_view", index_view(p))
    return p


def _groupoid_outcome(build, table):
    try:
        p = build(*table)
    except ValidationError as err:
        return str(err), err.witness
    assert p._view is not None
    return "ok", (p.id_of, p.inv, p._view)


def _table(p):
    return p.objects, p.arrows, p.src, p.tgt, p.comp


def _pair_table(k, elements, mul):
    """The pair groupoid on k objects times a magma: arrows (i, j, g) from
    i to j, composed as (i, j, g) then (j, l, h) = (i, l, g h).  It is a
    groupoid exactly when the magma is a group."""
    objects = tuple(range(k))
    arrows = tuple((i, j, g) for i in objects for j in objects for g in elements)
    comp = {
        (a, b): (a[0], b[1], mul(a[2], b[2])) for a in arrows for b in arrows if a[1] == b[0]
    }
    return objects, arrows, {a: a[0] for a in arrows}, {a: a[1] for a in arrows}, comp


def _group_pair_table(k, g):
    return _pair_table(k, g.elements, g.mul)


_GROUPS = {"c2": cyclic_group(2), "c3": cyclic_group(3), "s3": symmetric_group(3)}
_BATTERY = battery()
CLEAN = {
    "interval": _table(interval_groupoid()),
    "interval+c3": _table(disjoint_union(interval_groupoid(), _BATTERY["c3"])),
    "c2+s3": _table(disjoint_union(_BATTERY["c2"], _BATTERY["s3"])),
    "s3+c4": _table(disjoint_union(_BATTERY["s3"], _BATTERY["c4"])),
    **{
        f"pair{k}x{name}": _group_pair_table(k, g)
        for k in (2, 3)
        for name, g in _GROUPS.items()
    },
}
# Associative tables that are not groupoids, with the law they fail: the
# pair groupoid times the left-zero band (x y = x) and the null semigroup
# (x y = 0), which have no identity, and times {0, 1} under
# multiplication, where 0 has no inverse.
NOT_GROUPOIDS = {
    "pair2xleft-zero": (
        _pair_table(2, (0, 1), lambda x, y: x), "object with no identity arrow"
    ),
    "pair2xnull": (_pair_table(2, (0, 1, 2), lambda x, y: 0), "object with no identity arrow"),
    "pair2xmonoid": (_pair_table(2, (0, 1), lambda x, y: x * y), "arrow with no inverse"),
}


@pytest.mark.parametrize("name", sorted(CLEAN) + sorted(NOT_GROUPOIDS))
def test_groupoid_tables_get_the_oracle_verdict(name):
    table, message = NOT_GROUPOIDS.get(name) or (CLEAN[name], "ok")
    got = _groupoid_outcome(build_groupoid, table)
    assert got == _groupoid_outcome(_old_build_groupoid, table)
    assert got[0] == message


def _off_identities(table):
    """The composable pairs of ``table`` with no identity arrow in them."""
    p = _old_build_groupoid(*table)
    units = set(p.id_of.values())
    return [(a, b) for a, b in table[4] if a not in units and b not in units]


DAMAGE = ("drop", "wrong", "non-associative", "identity")


@st.composite
def damaged_groupoids(draw):
    """A clean table with one to three entries damaged in one way: a
    composable pair dropped, a composite replaced by any arrow or by a
    stranger, an entry off the identity lines replaced by another arrow
    with the same ends, or an entry on an identity line replaced so."""
    objects, arrows, src, tgt, comp = CLEAN[draw(st.sampled_from(sorted(CLEAN)))]
    comp = dict(comp)
    damage = draw(st.sampled_from(DAMAGE))
    keys = sorted(comp, key=repr)
    if damage == "non-associative":
        keys = sorted(_off_identities((objects, arrows, src, tgt, comp)), key=repr) or keys
    elif damage == "identity":
        keys = sorted(set(comp) - set(_off_identities((objects, arrows, src, tgt, comp))), key=repr)
    for _ in range(draw(st.integers(1, 3))):
        a, b = key = draw(st.sampled_from(keys))
        if damage == "drop":
            comp.pop(key, None)
        elif damage == "wrong":
            comp[key] = draw(st.sampled_from(arrows + ("stranger",)))
        else:
            same_ends = [c for c in arrows if src[c] == src[a] and tgt[c] == tgt[b]]
            comp[key] = draw(st.sampled_from(same_ends))
    return damage, (objects, arrows, src, tgt, comp)


@settings(max_examples=200, deadline=None)
@given(damaged_groupoids())
def test_damaged_groupoid_tables_get_the_oracle_verdict(case):
    _, table = case
    assert _groupoid_outcome(build_groupoid, table) == _groupoid_outcome(
        _old_build_groupoid, table
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(2, 3).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    ),
)
def test_magma_tables_get_the_oracle_verdict(k, entries):
    # A random magma times the pair groupoid is mostly neither associative
    # nor unital: associativity is still the failure reported first.
    n = int(len(entries) ** 0.5)
    table = _pair_table(k, tuple(range(n)), lambda x, y: entries[x * n + y])
    got = _groupoid_outcome(build_groupoid, table)
    assert got == _groupoid_outcome(_old_build_groupoid, table)


def test_a_non_associative_table_without_identities_reports_associativity():
    # x y = x + 1 (mod 3): (x y) z = x + 2 but x (y z) = x + 1, and no
    # element is a left identity.
    table = _pair_table(2, (0, 1, 2), lambda x, y: (x + 1) % 3)
    expected = ("associativity fails", ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert _groupoid_outcome(_old_build_groupoid, table) == expected
    assert _groupoid_outcome(build_groupoid, table) == expected


def _split_idempotent():
    """A category on A, B where r: A -> B and s: B -> A give "r then s" =
    idA but "s then r" = e, an idempotent other than idB: s is a right
    inverse of r that is not two-sided."""
    arrows = ("idA", "idB", "r", "s", "e")
    src = {"idA": "A", "idB": "B", "r": "A", "s": "B", "e": "B"}
    tgt = {"idA": "A", "idB": "B", "r": "B", "s": "A", "e": "B"}
    comp = {
        ("idA", "idA"): "idA", ("idA", "r"): "r", ("s", "idA"): "s", ("s", "r"): "e",
        ("idB", "idB"): "idB", ("idB", "s"): "s", ("idB", "e"): "e",
        ("r", "idB"): "r", ("r", "s"): "idA", ("r", "e"): "r",
        ("e", "idB"): "e", ("e", "s"): "s", ("e", "e"): "e",
    }
    return ("A", "B"), arrows, src, tgt, comp


def test_a_right_inverse_that_is_not_two_sided_is_rejected():
    table = _split_idempotent()
    expected = ("arrow with no inverse", "r")
    assert _groupoid_outcome(_old_build_groupoid, table) == expected
    assert _groupoid_outcome(build_groupoid, table) == expected


@pytest.mark.parametrize("row", [("h", "id1"), ("id1", "h")])
def test_a_composite_of_an_unknown_arrow_is_a_validation_error(row):
    objects, arrows, src, tgt, comp = _table(interval_groupoid())
    table = (objects, arrows, src, tgt, {**comp, row: "id1"})
    # The old body looked the pair's ends up unguarded.
    with pytest.raises(KeyError):
        _old_build_groupoid(*table)
    assert _groupoid_outcome(build_groupoid, table) == ("composite of an unknown arrow", row)


def test_a_three_object_s4_groupoid_validates():
    p = build_groupoid(*_group_pair_table(3, symmetric_group(4)))
    assert len(p.arrows) == 216 and p._view is not None
    assert index_view(replace(p)) == p._view


# ------------------------------------------------------- the validated mark

CONSTRUCTORS = {
    "finite_group": lambda: finite_group(range(3), cyclic_group(3).table),
    "cyclic_group": lambda: cyclic_group(6),
    "symmetric_group": lambda: symmetric_group(3),
    "alternating_group": lambda: alternating_group(4),
    "trivial_group": lambda: trivial_group(),
    "subgroup": lambda: subgroup(symmetric_group(3), [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
    "vertex_group": lambda: vertex_group(from_group(symmetric_group(3)), "*"),
    "automorphism_group": lambda: automorphism_group(symmetric_group(3)),
    "parser (permutations)": lambda: load_document(DATA / "s3.grp").payload,
    "parser (table)": lambda: load_document(DATA / "z7.grp").payload,
}


@pytest.fixture
def chooser_calls(monkeypatch):
    """Record the rows of each table whose associativity ``validate`` checks."""
    calls = []
    real = core._generators

    def spy(rows, units):
        calls.append(rows)
        return real(rows, units)

    monkeypatch.setattr(core, "_generators", spy)
    return calls


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_every_constructor_returns_a_validated_group(make, chooser_calls):
    g = make()
    chooser_calls.clear()
    assert g.validate() is g
    assert chooser_calls == []
    # A raw copy of the same table carries no mark and is checked.
    _raw(g).validate()
    assert len(chooser_calls) == 1


def _broken_c3():
    table = dict(cyclic_group(3).table)
    table[(1, 1)] = 1  # (1 1) 2 = 0 but 1 (1 2) = 1
    return table


def _as_crossed_module(g):
    return crossed_module(from_group(trivial_group()), {"*": g}, {}, {})


@pytest.mark.parametrize(
    "use",
    [from_group, automorphism_group, _as_crossed_module],
    ids=["from_group", "automorphism_group", "crossed_module"],
)
@pytest.mark.parametrize(
    "build",
    [
        lambda: _raw(cyclic_group(3), _broken_c3()),
        lambda: replace(cyclic_group(3), table=_broken_c3()),
    ],
    ids=["raw", "replace"],
)
def test_a_broken_unmarked_group_is_rejected_with_the_old_witness(use, build):
    broken = build()
    expected = _outcome(_old_validate, broken)
    assert expected[0] == "associativity fails"
    for _ in range(2):  # a failed check leaves no mark behind
        assert _outcome(use, broken) == expected


def test_groups_past_the_old_validation_cost():
    s5 = symmetric_group(5)
    assert len(s5) == 120
    assert len(alternating_group(5)) == 60
    elements = tuple(product(range(2), repeat=3))
    table = {
        (x, y): tuple((a + b) % 2 for a, b in zip(x, y))
        for x in elements
        for y in elements
    }
    c2_3 = finite_group(elements, table, unit=(0, 0, 0), name="c2^3")
    xm = automorphism_xmod(c2_3)
    assert len(xm.p.arrows) == 168  # |GL(3, 2)|
    assert len(xm.m["*"]) == 8


def test_the_kept_view_is_the_only_mark():
    def private(cls):
        return [f.name for f in fields(cls) if not f.init]

    assert private(FiniteGroup) == ["_view"]
    assert private(FiniteGroupoid) == ["_view"]
    assert private(Quiver) == ["_view"]
    assert private(Complex2) == ["_view"]
    assert private(GroupoidPresentation) == ["_view"]
    assert private(PresentationMorphism) == ["_view"]
    assert private(SubcomplexCover) == ["_view"]


@pytest.mark.parametrize(
    "inverse, witness",
    [
        ({0: 0, 1: 1, 2: 2}, 1),
        ({2: 2, 1: 1, 0: 0}, 1),  # the witness follows the element order
        ({0: 0, 1: 2}, 2),  # an element the map misses
        ({0: 0, 1: 2, 2: 1, 3: 3}, 3),  # no element differs: the extra key
    ],
)
def test_an_inverse_map_that_contradicts_the_table_is_rejected(inverse, witness):
    c3 = cyclic_group(3)
    raw = FiniteGroup(c3.elements, c3.table, 0, inverse=inverse)
    for _ in range(2):  # a failed check leaves no mark behind
        with pytest.raises(ValidationError) as info:
            raw.validate()
        assert (str(info.value), info.value.witness) == ("inverse map contradicts the table", witness)
        assert raw._view is None and raw.inverse is inverse
    with pytest.raises(ValidationError, match="inverse map contradicts the table"):
        from_group(raw)


def test_an_agreeing_inverse_map_gives_way_to_the_tables():
    c3 = cyclic_group(3)
    g = FiniteGroup(c3.elements, c3.table, 0, inverse={2: 1, 1: 2, 0: 0}).validate()
    assert list(g.inverse.items()) == [(0, 0), (1, 2), (2, 1)]
    assert from_group(g)._view is g._view


def _fields(p):
    return {f.name: getattr(p, f.name) for f in fields(p) if f.init}


@pytest.mark.parametrize(
    "damage, message, witness",
    [
        ({"id_of": {"*": 1}}, "identity map contradicts the table", "*"),
        ({"id_of": {}}, "identity map contradicts the table", "*"),  # missed
        ({"id_of": {"*": 0, "o": 0}}, "identity map contradicts the table", "o"),  # extra
        ({"inv": {0: 0, 1: 2, 2: 0}}, "inverse map contradicts the table", 2),
        ({"inv": {2: 0, 1: 2, 0: 0}}, "inverse map contradicts the table", 2),  # arrow order
        ({"inv": {0: 0, 1: 2}}, "inverse map contradicts the table", 2),  # missed
        ({"inv": {0: 0, 1: 2, 2: 1, 3: 3}}, "inverse map contradicts the table", 3),  # extra
    ],
)
def test_a_groupoid_map_that_contradicts_the_table_is_rejected(damage, message, witness):
    c3 = from_group(cyclic_group(3))
    for raw in (replace(c3, **damage), FiniteGroupoid(**{**_fields(c3), **damage})):
        for _ in range(2):  # a failed read leaves no view behind
            with pytest.raises(ValidationError) as info:
                index_view(raw)
            assert (str(info.value), info.value.witness) == (message, witness)
            assert raw._view is None


def test_a_wrong_identity_map_no_longer_yields_false_functors():
    # Read unchecked, the identity map sent the search's identity slot to
    # 1, and two of its three "functors" failed check_morphism.
    c3 = from_group(cyclic_group(3))
    with pytest.raises(ValidationError) as info:
        enumerate_morphisms(replace(c3, id_of={"*": 1}), c3)
    assert (str(info.value), info.value.witness) == ("identity map contradicts the table", "*")
    assert all(check_morphism(f, c3, c3) for f in enumerate_morphisms(replace(c3), c3))


def _old_check_morphism(f, g, h):
    """Check that ``f`` is a functor ``g -> h``; stop at the first violated law."""
    for x in g.objects:
        if x not in f.obj_map:
            return MorphismReport(False, "object-totality", (x,))
        if f.obj_map[x] not in h.objects:
            return MorphismReport(False, "object-image", (x, f.obj_map[x]))
    for a in g.arrows:
        if a not in f.arrow_map:
            return MorphismReport(False, "arrow-totality", (a,))
        fa = f.arrow_map[a]
        if fa not in h.arrows:
            return MorphismReport(False, "arrow-image", (a, fa))
        if h.src[fa] != f.obj_map[g.src[a]] or h.tgt[fa] != f.obj_map[g.tgt[a]]:
            return MorphismReport(False, "endpoint-preservation", (a, fa))
    for x in g.objects:
        if f.arrow_map[g.id_of[x]] != h.id_of[f.obj_map[x]]:
            return MorphismReport(False, "identity-preservation", (x, f.arrow_map[g.id_of[x]]))
    for (a, b), c in g.comp.items():
        if h.comp[(f.arrow_map[a], f.arrow_map[b])] != f.arrow_map[c]:
            return MorphismReport(False, "composite-preservation", (a, b))
    for a in g.arrows:
        if f.arrow_map[g.inv[a]] != h.inv[f.arrow_map[a]]:
            return MorphismReport(False, "inverse-preservation", (a, f.arrow_map[a]))
    return MorphismReport(True)


def test_check_morphism_keeps_its_reports_on_lawful_groupoids():
    """Every arrow map from the interval groupoid to c2 and to itself, and
    each with an arrow left out or sent off the target: the same law, in
    the same order, with the same witness."""
    g = interval_groupoid()
    laws = set()
    for h, obj_map in ((from_group(cyclic_group(2)), dict.fromkeys(g.objects, "*")),
                       (g, {0: 1, 1: 0})):
        for images in product((*h.arrows, "stray"), repeat=len(g.arrows)):
            arrow_map = dict(zip(g.arrows, images))
            for amap in (arrow_map, dict(list(arrow_map.items())[1:])):
                f = GroupoidMorphism(obj_map=obj_map, arrow_map=amap)
                got = check_morphism(f, g, h)
                assert got == _old_check_morphism(f, g, h)
                laws.add(got.law)
    assert laws == {
        None, "arrow-totality", "arrow-image", "endpoint-preservation",
        "identity-preservation", "composite-preservation",
    }


@pytest.mark.parametrize("side", ["source", "target"])
def test_check_morphism_names_a_lawless_groupoid(side):
    """A table with one composite dropped raised a bare KeyError when it was
    the target, and passed unnoticed as the source."""
    c2 = from_group(cyclic_group(2))
    broken = replace(c2, comp={k: v for k, v in c2.comp.items() if k != (0, 0)})
    with pytest.raises(ValidationError) as want:
        index_view(replace(broken))
    f = GroupoidMorphism(obj_map={"*": "*"}, arrow_map={0: 0, 1: 1})
    g, h = (broken, c2) if side == "source" else (c2, broken)
    with pytest.raises(ValidationError) as info:
        check_morphism(f, g, h)
    assert (str(info.value), info.value.witness) == (str(want.value), want.value.witness)


# ------------------------------------------------------- group constructors


def _old_perm_mul(p, q):
    return tuple(q[i] for i in p)


def _old_symmetric_group(n, name=None):
    elements = tuple(sorted(product(*(range(n) for _ in range(n)))))
    elements = tuple(p for p in elements if len(set(p)) == n)
    table = {(p, q): _old_perm_mul(p, q) for p in elements for q in elements}
    return finite_group(elements, table, unit=tuple(range(n)), name=name or f"s{n}")


def _old_alternating_group(n, name=None):
    s = _old_symmetric_group(n)
    carrier = tuple(p for p in s.elements if perm_parity(p) == 0)
    return _old_subgroup(s, carrier, name=name or f"a{n}")


def _old_subgroup(g, carrier, name=""):
    carrier = tuple(carrier)
    cset = set(carrier)
    if not cset <= set(g.elements):
        raise ValidationError(
            "carrier is not a subset", witness=tuple(sorted(cset - set(g.elements), key=str))
        )
    if g.unit not in cset:
        raise ValidationError("carrier misses the unit", witness=g.unit)
    for a, b in product(carrier, repeat=2):
        if g.mul(a, b) not in cset:
            raise ValidationError(
                "carrier is not closed under products", witness=(a, b, g.mul(a, b))
            )
    table = {(a, b): g.mul(a, b) for a in carrier for b in carrier}
    return finite_group(carrier, table, unit=g.unit, name=name)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize(
    "new, old",
    [(symmetric_group, _old_symmetric_group), (alternating_group, _old_alternating_group)],
    ids=["symmetric", "alternating"],
)
def test_permutation_groups_equal_the_old_builds(new, old, n):
    g, h = new(n), old(n)
    assert g == h
    assert (g.elements, g.inverse, g.name) == (h.elements, h.inverse, h.name)
    assert list(g.inverse) == list(h.inverse)
    assert new(n, name="x").name == "x"


def _subgroup_outcome(build, g, carrier):
    try:
        h = build(g, carrier, name="h")
    except ValidationError as err:
        return str(err), err.witness
    return "ok", (h, h.elements, h.inverse, h.name)


@pytest.mark.parametrize("g", [symmetric_group(3), cyclic_group(6)], ids=["s3", "c6"])
def test_every_carrier_gets_the_old_subgroup_outcome(g):
    outcomes = set()
    for picks in product((False, True), repeat=len(g)):
        carrier = [x for x, keep in zip(g.elements, picks) if keep]
        for order in (carrier, carrier[::-1], carrier + ["stray"]):
            expected = _subgroup_outcome(_old_subgroup, g, order)
            assert _subgroup_outcome(subgroup, g, order) == expected
            outcomes.add(expected[0])
    assert outcomes == {
        "ok", "carrier is not a subset", "carrier misses the unit",
        "carrier is not closed under products",
    }


# ----------------------------------------------------------------- complexes


def _disc():
    return complex2((0, 1), [("a", 0, 1), ("b", 0, 1)], [("f", [("a", 1), ("b", -1)])])


@pytest.fixture
def reads(monkeypatch):
    """The letters of each word the one word reader reads, in order, called
    from either module."""
    calls = []
    real = presentations._read

    def spy(q, letters, at=None):
        calls.append(letters)
        return real(q, letters, at)

    monkeypatch.setattr(presentations, "_read", spy)
    monkeypatch.setattr(vankampen, "_read", spy)
    return calls


def test_a_built_complex_is_checked_once(reads):
    x = _disc()
    assert reads == [[("a", 1), ("b", -1)]]
    fundamental_groupoid(x, (0,))
    assert x.validate() is x
    assert len(reads) == 1


def test_a_restricted_complex_keeps_renumbered_rows_and_walks_no_word(reads):
    """``restrict`` renumbers the face rows of a checked complex and keeps
    them, so its words are not walked again; the result equals the raw
    restriction a reader would have to check."""
    x = _disc()
    whole = Subcomplex(vertices=x.vertices, edges=x.edges, faces=x.faces)
    reads.clear()
    sub = restrict(x, whole)
    assert sub._view is not None
    fundamental_groupoid(sub, (0,))
    assert reads == []
    raw = Complex2(
        vertices=x.vertices, edges=x.edges, esrc=dict(x.esrc), etgt=dict(x.etgt),
        faces=x.faces, fboundary={"f": x.fboundary["f"]},
    )
    assert sub == raw and raw.validate()._view[1:] == sub._view[1:]


def test_a_restriction_that_drops_a_boundary_edge_is_rejected():
    x = _disc()
    torn = Subcomplex(vertices=x.vertices, edges=("a",), faces=x.faces)
    with pytest.raises(ValidationError) as info:
        fundamental_groupoid(restrict(x, torn), (0,))
    assert str(info.value) == "malformed letter"
    assert info.value.witness == ("b", -1)


@pytest.mark.parametrize(
    "build",
    [
        lambda x, bad: Complex2(
            vertices=x.vertices, edges=x.edges, esrc=x.esrc, etgt=x.etgt,
            faces=x.faces, fboundary=bad,
        ),
        lambda x, bad: replace(x, fboundary=bad),
    ],
    ids=["raw", "replace"],
)
def test_a_broken_unmarked_complex_fails_in_the_fundamental_groupoid(build):
    x = _disc()
    open_word = Word(src=0, tgt=1, letters=(("a", 1),))
    broken = build(x, {"f": open_word})
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            fundamental_groupoid(broken, (0,))
        assert str(info.value) == "boundary word is not closed"
        assert info.value.witness == ("f", open_word)


# ------------------------------------------------------------------ quivers


@pytest.fixture
def quiver_walks(monkeypatch):
    """Record the vertices of each quiver ``Quiver.validate`` really walks,
    not counting calls that a successful earlier check made free."""
    walks = []
    real = Quiver.validate

    def spy(self):
        if self._view is None:
            walks.append(self.vertices)
        return real(self)

    monkeypatch.setattr(Quiver, "validate", spy)
    return walks


def test_a_built_complex_walks_its_quiver_once(quiver_walks):
    x = _disc()
    assert quiver_walks == [(0, 1)]
    p = fundamental_groupoid(x, (0,))
    # the presentation's own quiver, walked once by ``quiver``, not again
    # by ``presentation``
    assert quiver_walks == [(0, 1), (0,)]
    assert presentation(p.quiver, p.relations) == p
    assert quiver_walks == [(0, 1), (0,)]


def test_a_parsed_complex_walks_its_quiver_once(quiver_walks):
    x = load_document(DATA / "disc.cx").payload
    assert quiver_walks == [("0", "1")]
    fundamental_groupoid(x, ("0",))
    assert quiver_walks == [("0", "1"), ("0",)]


def test_raw_and_replaced_quivers_are_still_walked(quiver_walks):
    q = quiver((0, 1), [("a", 0, 1)])
    raw = Quiver(vertices=q.vertices, edges=q.edges, esrc=q.esrc, etgt=q.etgt)
    presentation(raw)
    presentation(replace(q))
    assert quiver_walks == [(0, 1), (0, 1), (0, 1)]


@pytest.mark.parametrize(
    "build",
    [
        lambda q, bad: Quiver(vertices=q.vertices, edges=q.edges, esrc=bad, etgt=q.etgt),
        lambda q, bad: replace(q, esrc=bad),
    ],
    ids=["raw", "replace"],
)
def test_a_broken_unmarked_quiver_is_rejected(build):
    q = quiver((0, 1), [("a", 0, 1)])
    broken = build(q, {"a": 2})
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            presentation(broken)
        assert (str(info.value), info.value.witness) == ("edge with bad endpoints", "a")


def test_a_replaced_complex_rebuilds_and_checks_its_quiver():
    x = _disc()
    copy = replace(x)
    assert copy.edge_quiver() is not x.edge_quiver()
    assert copy.edge_quiver() == x.edge_quiver()
    broken = replace(x, etgt={"a": 1, "b": 2})
    for read in (broken.edge_quiver, lambda: fundamental_groupoid(broken, (0,))):
        with pytest.raises(ValidationError) as info:
            read()
        assert (str(info.value), info.value.witness) == ("edge with bad endpoints", "b")
        assert broken._view is None


# ------------------------------------ presentations, their morphisms, covers


def _ab():
    """Two edges a, b: x -> y."""
    return quiver(("x", "y"), [("a", "x", "y"), ("b", "x", "y")])


def _non_chaining():
    """The relation ``a b = 1``, whose letters do not chain: read unchecked,
    it let two "morphisms" into c2 through."""
    lhs = Word("x", "y", (("a", 1), ("b", 1)))
    return GroupoidPresentation(quiver=_ab(), relations=((lhs, empty_word("x")),))


def _foreign_image():
    """A morphism sending ``a`` to a word on an edge its target lacks."""
    p = presentation(_ab())
    emap = {"a": Word("x", "y", (("zz", 1),)), "b": word(p.quiver, [("b", 1)])}
    return PresentationMorphism(source=p, target=p, vmap={"x": "x", "y": "y"}, emap=emap)


def _torn_cover():
    """A disc whose U and V hold its two edges but not its face."""
    x = _disc()
    return SubcomplexCover(
        x=x, u=Subcomplex((0, 1), ("a",), ()), v=Subcomplex((0, 1), ("b",), ())
    )


def _span_onto(p):
    """The span from the vertex x to ``p`` and to itself."""
    w = presentation(quiver(("x",), []))
    f = PresentationMorphism(source=w, target=p, vmap={"x": "x"}, emap={})
    return f, identity_morphism(w)


def _square(**parts):
    """The pushout of ``_span_onto`` a lawful presentation, with ``parts``
    swapped in unchecked."""
    return replace(pushout(*_span_onto(presentation(_ab()))), **parts)


C2 = {"c2": battery()["c2"]}
RAW_READS = {
    "presentation": (_non_chaining, {
        "enumerate_pres_morphisms": lambda p: enumerate_pres_morphisms(p, C2["c2"]),
        "words_equal": lambda p: words_equal(p, empty_word("x"), empty_word("x"), C2),
        "vertex_group_presentation": lambda p: vertex_group_presentation(p, "x"),
        "identity_morphism": identity_morphism,
        "pushout": lambda p: pushout(*_span_onto(p)),
        "verify_pushout_universal": lambda p: verify_pushout_universal(_square(u=p), C2),
    }),
    "morphism": (_foreign_image, {
        "_restricted": lambda f: _restricted(_restriction(f), C2["c2"], []),
        "pushout": lambda f: pushout(f, identity_morphism(f.source)),
        "verify_pushout_universal": lambda f: verify_pushout_universal(
            _square(f=f, g=identity_morphism(f.source), u=f.target, v=f.source), C2
        ),
    }),
    "cover": (_torn_cover, {
        "w": lambda c: c.w,
        "check_cover": lambda c: check_cover(c, (0,)),
        "vkt_square": lambda c: vkt_square(c, (0,), C2),
    }),
}
RAW_CASES = [(kind, reader) for kind, (_, readers) in RAW_READS.items() for reader in readers]


@pytest.mark.parametrize("kind, reader", RAW_CASES, ids=[f"{k}-{r}" for k, r in RAW_CASES])
def test_a_raw_lawless_value_is_refused_by_every_reader(kind, reader):
    build, readers = RAW_READS[kind]
    raw = build()
    with pytest.raises(ValidationError) as want:
        build().validate()
    for _ in range(2):  # a failed check leaves no mark behind
        with pytest.raises(ValidationError) as info:
            readers[reader](raw)
        assert (str(info.value), info.value.witness) == (str(want.value), want.value.witness)
        assert raw._view is None


def test_the_raw_values_fail_where_validate_says():
    errors = []
    for build, _ in RAW_READS.values():
        with pytest.raises(ValidationError) as info:
            build().validate()
        errors.append((str(info.value), info.value.witness))
    assert errors == [
        ("letters do not chain", (1, ("b", 1), "y")),
        ("malformed letter", ("zz", 1)),
        ("cover misses faces", ("f",)),
    ]


def _lawful():
    p = presentation(_ab(), [(word(_ab(), [("a", 1)]), word(_ab(), [("b", 1)]))])
    return {
        "presentation": p,
        "morphism": identity_morphism(p).validate(),
        "cover": load_document(DATA / "wedge.cov").payload,
    }


@pytest.mark.parametrize("kind", ["presentation", "morphism", "cover"])
def test_replaced_copies_start_without_a_view(kind):
    value = _lawful()[kind]
    assert value._view is not None
    copy = replace(value)
    assert copy._view is None
    assert copy.validate() is copy and copy._view == value._view


@pytest.mark.parametrize(
    "kind, change",
    [
        ("presentation", lambda p: {"relations": _non_chaining().relations}),
        ("morphism", lambda f: {"emap": _foreign_image().emap}),
        ("cover", lambda c: {"u": Subcomplex(c.u.vertices, (), ())}),
    ],
    ids=["presentation", "morphism", "cover"],
)
def test_a_replaced_copy_that_breaks_a_law_is_refused(kind, change):
    value = _lawful()[kind]
    broken = replace(value, **change(value))
    with pytest.raises(ValidationError):
        broken.validate()
    assert broken._view is None and value._view is not None


def test_a_cover_keeps_its_w():
    c = _lawful()["cover"]
    ue, ve = set(c.u.edges), set(c.v.edges)
    assert c.w is c._view is c.w
    assert c.w.edges == tuple(e for e in c.x.edges if e in ue and e in ve)
    assert c.w == cover(c.x, c.u.vertices + c.u.edges, c.v.vertices + c.v.edges).w


@pytest.mark.parametrize(
    "load, base",
    [
        (lambda: load_document(DATA / "wedge.cov").payload, ("0",)),
        # W holds both edges, so the inclusions send generators to words
        (lambda: cover(_disc(), ["f"], ["a", "b"]), (0,)),
    ],
    ids=["wedge", "disc"],
)
def test_a_vkt_square_and_its_universality_walk_no_word(reads, load, base):
    """The pieces and the whole are read off the complex's rows, the
    inclusions and the bridge are named from their image rows, and
    ``pushout`` builds the apex and the injections on its legs' rows: no
    word of the square is walked when built, and ``verify_pushout_universal``
    finds every part of the square checked."""
    c = load()
    reads.clear()  # a built cover reads its own faces
    res = vkt_square(c, base)
    sq = res.square
    images = [w for m in (sq.f, sq.g, sq.inj_u, sq.inj_v, res.bridge) for w in m.emap.values()]
    assert reads == [] and any(w.letters for w in images)
    for m in (sq.f, sq.g, sq.inj_u, sq.inj_v, res.bridge):
        assert m._view is not None
    verify_pushout_universal(sq)
    assert reads == []


PARSED = {
    "u": "vertices: 0\nedges:\n  x: 0 0\nrelations:\n  x x = 1\n",
    "v": "vertices: 0 1\nedges:\n  y: 0 1\n  z: 1 0\nrelations:\n  y z = 1\n",
    "w": "vertices: 0\nedges:\n",
}


def test_parsed_presentations_are_not_walked_by_their_readers(reads):
    pu, pv, pw = (parse_document(f"kind: presentation\n{PARSED[k]}").payload for k in "uvw")
    for p in (pu, pv, pw):
        v = p.quiver.vertices[0]
        enumerate_pres_morphisms(p, C2["c2"])
        vertex_group_presentation(p, v)
        words_equal(p, empty_word(v), empty_word(v), C2)
    assert reads == [()] * 6  # words_equal reads its own two words, nothing else
    # the pushout builds its apex, whose relations are renamed copies, on
    # its legs' rows, and walks no word, a parsed relation least of all
    f, g = _name_inclusion(pw, pu, "u"), _name_inclusion(pw, pv, "v")
    apex = pushout(f, g).apex
    verify_pushout_universal(pushout(f, g), C2)
    parsed = {id(w.letters) for p in (pu, pv) for pair in p.relations for w in pair if w.letters}
    renamed = [id(w.letters) for pair in apex.relations for w in pair if w.letters]
    assert len(parsed) == 2 and len(renamed) == 2 and parsed.isdisjoint(renamed)
    assert reads[6:] == []


def test_a_loaded_cover_is_checked_once(monkeypatch):
    """Its W is kept when the document is read: ``vkt_square`` and
    ``check_cover`` check it again for free, and no reader builds W anew."""
    c = load_document(DATA / "wedge.cov").payload
    built = []
    real = vankampen.Subcomplex

    def spy(*args, **kwargs):
        built.append(args or kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(vankampen, "Subcomplex", spy)
    w = c._view
    vkt_square(c, ("0",), C2)
    check_cover(c, ("0",))
    assert built == [] and c.w is w
