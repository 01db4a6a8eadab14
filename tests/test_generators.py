"""The generating set each table keeps on its IndexView, against the
name-keyed chooser it replaced.

``greedy_generators`` (kept verbatim in ``tests/test_validate.py``) chose
generators by name, and Light's test, ``check_axioms``, the functor search
and ``automorphism_group`` each called it again.  The library now chooses
once, on the integer rows, where a table is validated (by
``FiniteGroup.validate``, ``build_groupoid`` or the first read of
``index_view``), and keeps the indexes as ``IndexView.gens``.  Named, they
must be the oracle's, in its order, on every lawful table; a lawless one
is rejected on its first read and keeps no generators.
"""

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gpdkit.core import (
    FiniteGroupoid,
    ValidationError,
    battery,
    build_groupoid,
    cyclic_group,
    from_group,
    generating_set,
    index_view,
    symmetric_group,
)
from gpdkit.xmod import automorphism_group, bundled_xmods

from test_axioms import LOOP5, _loop_base_xmod, _raw_inverse_base
from test_morphisms import GROUPOIDS, GROUPS, PIECES, _c2_cubed, _union
from test_validate import greedy_generators


def _named(v):
    return tuple(v.items[k] for k in v.gens)


def _assert_groupoid_keeps_the_oracle(p):
    want = greedy_generators(p.arrows, [p.id_of[x] for x in p.objects], p.comp)
    assert _named(index_view(p)) == want
    # a replaced copy is validated on its first read, and chooses the same
    assert _named(index_view(replace(p))) == want


def _assert_group_keeps_the_oracle(g):
    want = greedy_generators(g.elements, (g.unit,), g.table)
    assert _named(g.validate()._view) == want
    assert generating_set(g) == want
    _assert_groupoid_keeps_the_oracle(from_group(g))


@pytest.mark.parametrize("name", GROUPS)
def test_every_group_keeps_the_oracle_generators(name):
    _assert_group_keeps_the_oracle(GROUPS[name])


def test_the_automorphism_group_of_c2_cubed_keeps_the_oracle_generators():
    aut = automorphism_group(_c2_cubed())
    assert len(aut) == 168
    _assert_group_keeps_the_oracle(aut)


@pytest.mark.parametrize(
    "p",
    [*GROUPOIDS.values(), *battery().values(), *(xm.p for xm in bundled_xmods().values())],
    ids=[*GROUPOIDS, *(f"battery-{n}" for n in battery()), *(f"base-{n}" for n in bundled_xmods())],
)
def test_every_groupoid_keeps_the_oracle_generators(p):
    _assert_groupoid_keeps_the_oracle(p)


def test_the_pair_groupoid_on_three_objects_keeps_the_oracle_generators():
    """One arrow between any two of three objects, listed so that (0, 2)
    is a composite of earlier generators though (0, 1) is not reached
    again when (1, 2) is added, and so that the row of the last arrow
    (2, 0), read through a -1, would reach (2, 1) before it is chosen."""
    arrows = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))
    comp = {(a, b): (a[0], b[1]) for a in arrows for b in arrows if a[1] == b[0]}
    p = build_groupoid((0, 1, 2), arrows, {a: a[0] for a in arrows}, {a: a[1] for a in arrows}, comp)
    assert _named(p._view) == ((0, 1), (1, 0), (1, 2), (2, 1))
    _assert_groupoid_keeps_the_oracle(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(sorted(PIECES)), min_size=1, max_size=4))
def test_disjoint_unions_keep_the_oracle_generators(parts):
    _assert_groupoid_keeps_the_oracle(_union(*(PIECES[n] for n in parts)))


def _one_object(elements, table, unit):
    """A raw one-object groupoid on ``table``: no law is checked, and every
    arrow is its own inverse."""
    return FiniteGroupoid(
        objects=("*",),
        arrows=elements,
        src=dict.fromkeys(elements, "*"),
        tgt=dict.fromkeys(elements, "*"),
        comp=dict(table),
        id_of={"*": unit},
        inv={a: a for a in elements},
    )


def _broken_s3():
    """s3 with two products changed, so only its second generator sees
    the failure of associativity (``tests/test_validate.py``)."""
    s3 = symmetric_group(3)
    r, rr, b = (1, 2, 0), (2, 0, 1), (2, 1, 0)
    return _one_object(s3.elements, {**s3.table, (r, b): r, (b, rr): r}, s3.unit)


LAWLESS = {
    "loop5": _loop_base_xmod().p,
    "loop5-as-table": _one_object(
        tuple(range(5)), {(a, b): LOOP5[a][b] for a, b in product(range(5), repeat=2)}, 0
    ),
    "broken-s3": _broken_s3(),
    "raw-inverse-c3": _raw_inverse_base(cyclic_group(3)),
}


@pytest.mark.parametrize(
    "name, message, witness",
    [
        ("loop5", "associativity fails", (1, 1, 2)),
        ("loop5-as-table", "associativity fails", (1, 1, 2)),
        ("broken-s3", "associativity fails", ((0, 2, 1), (1, 0, 2), (2, 1, 0))),
        ("raw-inverse-c3", "inverse map contradicts the table", 2),
    ],
)
def test_a_lawless_table_is_rejected_on_its_first_read(name, message, witness):
    p = LAWLESS[name]
    with pytest.raises(ValidationError) as info:
        index_view(p)
    assert (str(info.value), info.value.witness) == (message, witness)
    assert p._view is None
