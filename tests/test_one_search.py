"""Differential tests for the one staged search against the two searches
it replaced, kept verbatim in ``two_searches``.

On every input the runs must be the old ones: the same vertex images in
the same order, each with the same assignments in the same order, a vertex
map without a morphism included.  The guard must refuse at n - 1, with the
old message, ``needed`` and ``allowed``, where n is the candidate count
``_vertex_plans`` sums, and pass at n.  Presentations: every ``tests/data``
presentation, complex and cover piece, the vkt squares, the bouquets and
wedges, and drawn presentations with relators.  Tables: every pair of the
groupoids and of the groups the functor tests use, ``c8-reordered`` among
them, and the pair groupoid on three objects either way round.
"""

from math import inf, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import two_searches
from gpdkit.core import SizeGuardExceeded, build_groupoid, index_view, skeleton_components
from gpdkit.documents import load_document
from gpdkit.presentations import _arrow_tree, _functor_rows, _morphism_runs
from gpdkit.vankampen import fundamental_groupoid
from test_morphisms import GROUPOIDS, GROUPS
from test_search import (
    TARGETS,
    _bouquet_and_wedge_squares,
    _bundled_squares,
    _data_pushout,
    _square_presentations,
    _vkt_results,
    presentations,
)

DATA = Path(__file__).parent / "data"
# Above this many candidates only the refusal is compared: a full search
# of either kind would take minutes.
PASS_LIMIT = 10**5


def _outcome(runs, *args):
    """The runs ``runs(*args)`` gives, each listed, or its refusal."""
    try:
        return [(vimg, list(run)) for vimg, run in runs(*args)]
    except SizeGuardExceeded as exc:
        return str(exc), exc.needed, exc.allowed


def _same_runs(count, new, old, *args):
    """``new`` and ``old`` refuse alike at ``count - 1`` and give the same
    runs at ``count``."""
    below = _outcome(new, *args, count - 1)
    assert isinstance(below, tuple) and below == _outcome(old, *args, count - 1)
    if count <= PASS_LIMIT:
        got = _outcome(new, *args, count)
        assert isinstance(got, list) and got == _outcome(old, *args, count)


# ------------------------------------------------------------ presentations


def _candidates(p, t):
    q = p.validate().quiver
    _, _, src, tgt = q._view
    plans = two_searches._vertex_plans(
        t.objects, t.arrows, t.src, t.tgt, len(q.vertices), list(zip(src, tgt)), inf
    )
    return sum(prod(map(len, cands)) for _, cands in plans)


def _same_presentation_runs(p, targets=TARGETS):
    for t in targets.values():
        _same_runs(_candidates(p, t), _morphism_runs, two_searches._morphism_runs, p, t)


def _data_complexes():
    """Each ``tests/data`` complex presented on one base point per
    component."""
    out = []
    for name in ("circle.cx", "disc.cx", "grid-commented.cx", "torus-bands.cx"):
        x = load_document(DATA / name).payload
        q = x.edge_quiver()
        _, _, src, tgt = q._view
        blocks = skeleton_components(range(len(q.vertices)), range(len(src)), src, tgt)
        out.append(fundamental_groupoid(x, [q.vertices[b[0]] for b in blocks]))
    return out


def test_data_presentations_complexes_and_cover_pieces_give_the_old_runs():
    presented = [load_document(DATA / f"wedge-{x}.pres").payload for x in "uvw"]
    presented += _square_presentations(_data_pushout())
    for p in presented:
        _same_presentation_runs(p)
    for p in _data_complexes():  # one object: the vertex maps stay few
        _same_presentation_runs(p, {n: TARGETS[n] for n in ("c2", "c3", "s3")})


def test_vkt_squares_bouquets_and_wedges_give_the_old_runs():
    results = _vkt_results() + _bouquet_and_wedge_squares()
    presented = [p for res in results for p in (*_square_presentations(res.square), res.direct)]
    presented += [p for square in _bundled_squares() for p in _square_presentations(square)]
    assert any(p.relations for p in presented)
    for p in presented:
        _same_presentation_runs(p)


@settings(max_examples=150, deadline=None)
@given(presentations().filter(lambda p: p.relations), st.sampled_from(sorted(TARGETS)))
def test_drawn_presentations_with_relators_give_the_old_runs(p, tname):
    _same_presentation_runs(p, {tname: TARGETS[tname]})


# ------------------------------------------------------------------ tables


def _table_outcome(search, gv, hv, guard):
    try:
        return search(gv, _arrow_tree(gv), hv, guard)
    except SizeGuardExceeded as exc:
        return str(exc), exc.needed, exc.allowed


def _same_functors(gv, hv):
    ends = [(gv.src[s], gv.tgt[s]) for s in gv.gens]
    plans = two_searches._vertex_plans(
        range(len(hv.units)), range(len(hv.items)), hv.src, hv.tgt, len(gv.units), ends, inf
    )
    count = sum(prod(map(len, cands)) for _, cands in plans)
    for guard in (count - 1, count):
        got = _table_outcome(_functor_rows, gv, hv, guard)
        assert got == _table_outcome(two_searches._functor_rows, gv, hv, guard)
        assert isinstance(got, tuple) == (guard < count)


def _pair_groupoid():
    """One arrow between any two of three objects, listed as in the chooser
    test that first needed it."""
    arrows = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))
    comp = {(a, b): (a[0], b[1]) for a in arrows for b in arrows if a[1] == b[0]}
    return build_groupoid(
        (0, 1, 2), arrows, {a: a[0] for a in arrows}, {a: a[1] for a in arrows}, comp
    )


TABLES = {
    **{name: index_view(g) for name, g in GROUPOIDS.items()},
    "pair3": index_view(_pair_groupoid()),
}
VIEWS = {name: g.validate()._view for name, g in GROUPS.items()}


@pytest.mark.parametrize("gname", TABLES)
@pytest.mark.parametrize("hname", TABLES)
def test_functors_between_groupoids_are_the_old_rows(gname, hname):
    _same_functors(TABLES[gname], TABLES[hname])


@pytest.mark.parametrize("gname", VIEWS)
@pytest.mark.parametrize("hname", VIEWS)
def test_homomorphisms_between_groups_are_the_old_rows(gname, hname):
    _same_functors(VIEWS[gname], VIEWS[hname])
