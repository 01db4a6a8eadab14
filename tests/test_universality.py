"""Differential tests for ``verify_pushout_universal``.

``_verify_oracle`` is the original nested loop, which scans every apex
morphism for every compatible pair, over the original enumerator
(``test_search.enumerate_pres_morphisms_oracle``).  The library walks the
compatible pairs in lockstep with the apex morphisms' restrictions and
counts mediators by their pair of restriction keys only for a target where
the two sequences differ; both must produce the same UniversalityReport
(verdict, per-target counts and witness) on genuine pushouts and on
deliberately broken squares, into one-object targets and into targets with
two objects.  A spy on ``Counter`` tells which targets took the count.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import gpdkit.presentations as presentations_module
from gpdkit.core import DEFAULT_SIZE_GUARD, battery, disjoint_union, interval_groupoid
from gpdkit.presentations import (
    PresentationMorphism,
    TargetUniversality,
    UniversalityReport,
    empty_word,
    presentation,
    pushout,
    quiver,
    verify_pushout_universal,
    word,
)
from gpdkit.vankampen import complex2, cover, vkt_square

from test_presentations import (
    c2_free_product_span,
    glued_loops_span,
    two_arc_circle_span,
    wedge_span,
)
from test_search import compose_presmap, enumerate_pres_morphisms_oracle, presmap_key


def _verify_oracle(square, targets=None, guard=DEFAULT_SIZE_GUARD):
    if targets is None:
        targets = battery()
    results = []
    all_ok = True
    for tname, t in targets.items():
        mors_u = enumerate_pres_morphisms_oracle(square.u, t, guard)
        mors_v = enumerate_pres_morphisms_oracle(square.v, t, guard)
        mors_p = enumerate_pres_morphisms_oracle(square.apex, t, guard)
        wq = square.w.quiver
        pairs = 0
        ok = True
        witness = None
        for pu in mors_u:
            fu = compose_presmap(square.f, pu, t)
            for pv in mors_v:
                fv = compose_presmap(square.g, pv, t)
                if presmap_key(fu, square.w) != presmap_key(fv, square.w):
                    continue
                pairs += 1
                mediators = [
                    pm
                    for pm in mors_p
                    if presmap_key(compose_presmap(square.inj_u, pm, t), square.u)
                    == presmap_key(pu, square.u)
                    and presmap_key(compose_presmap(square.inj_v, pm, t), square.v)
                    == presmap_key(pv, square.v)
                ]
                if len(mediators) != 1:
                    ok = False
                    if witness is None:
                        witness = (
                            presmap_key(pu, square.u),
                            presmap_key(pv, square.v),
                            len(mediators),
                        )
        if ok and pairs != len(mors_p):
            ok = False
            witness = ("count-mismatch", pairs, len(mors_p))
        results.append(
            TargetUniversality(
                target=tname,
                compatible_pairs=pairs,
                apex_morphisms=len(mors_p),
                ok=ok,
                witness=witness,
            )
        )
        all_ok = all_ok and ok
    return UniversalityReport(ok=all_ok, per_target=tuple(results))


def _same_report(square, targets=None):
    got = verify_pushout_universal(square, targets)
    assert got == _verify_oracle(square, targets)
    return got


# ----------------------------------------------------------- broken squares


def _with_apex(square, relations):
    """The square with its apex relations replaced; the injections keep
    their vertex and edge maps."""
    apex = presentation(square.apex.quiver, relations)
    return replace(
        square,
        apex=apex,
        inj_u=replace(square.inj_u, target=apex),
        inj_v=replace(square.inj_v, target=apex),
    )


def _drop_gluing(square):
    return _with_apex(square, square.apex.relations[:-1])


def _kill_u_loop(square):
    """The square with one more apex relation, killing U's first loop;
    None when U has no loop."""
    uq = square.u.quiver
    loops = [e for e in uq.edges if uq.esrc[e] == uq.etgt[e]]
    if not loops:
        return None
    e = square.inj_u.emap[loops[0]]
    return _with_apex(square, square.apex.relations + ((e, empty_word(e.src)),))


def _inj_v_through_u(square):
    """inj_v replaced by the valid morphism V -> apex that sends V's one
    loop to U's loop: apex's own V loop is then unconstrained."""
    (y,) = square.v.quiver.edges
    (x,) = square.u.quiver.edges
    inj_v = replace(square.inj_v, emap={y: square.inj_u.emap[x]}).validate()
    return replace(square, inj_v=inj_v)


@pytest.fixture
def counts(monkeypatch):
    """The number of ``Counter``s ``verify_pushout_universal`` builds: one
    per target whose pairs and apex restrictions differ."""
    built = []

    def spy(*args):
        built.append(args)
        return Counter(*args)

    monkeypatch.setattr(presentations_module, "Counter", spy)
    return built


def test_genuine_pushouts_match_the_oracle(counts):
    for square in (
        two_arc_circle_span(),
        wedge_span(),
        c2_free_product_span(),
        glued_loops_span(),
    ):
        assert _same_report(square).ok
    assert counts == []  # each target's pairs are its apex restrictions, in order


def test_a_genuine_wedge_into_the_battery_builds_no_counter(counts):
    rep = verify_pushout_universal(_bouquet_square(1, 2))
    assert rep.ok and len(rep.per_target) == len(battery()) and counts == []


def test_dropped_gluing_relation_is_a_count_mismatch(counts):
    rep = _same_report(_drop_gluing(glued_loops_span()))
    assert not rep.ok
    by_name = {r.target: r for r in rep.per_target}
    # each compatible pair still has its one mediator, but the apex has
    # |T|^2 morphisms for only |T| pairs
    assert by_name["s3"].witness == ("count-mismatch", 6, 36)
    assert len(counts) == len(battery())


def test_extra_relation_leaves_pairs_without_a_mediator(counts):
    rep = _same_report(_kill_u_loop(wedge_span()))
    assert not rep.ok
    for r in rep.per_target:
        assert not r.ok
        assert r.witness[2] == 0
    assert len(counts) == len(battery())


def test_swapped_inj_v_gives_many_mediators(counts):
    rep = _same_report(_inj_v_through_u(wedge_span()))
    assert not rep.ok
    by_name = {r.target: r for r in rep.per_target}
    # the first pair sends both loops to the unit: every image of the
    # apex's free V loop mediates it
    assert by_name["s3"].witness[2] == 6
    assert by_name["c2"].witness[2] == 2
    assert len(counts) == len(battery())


def _reordering_span():
    """W has two vertices, sent to U's two ends of its edge ``a`` and both
    to V's vertex 0, so V's vertex 1 is an apex vertex of its own, last:
    the apex lists its morphisms by (vertex images, U's edge, V's edge)
    while the pairs come by U's morphism first."""
    w = presentation(quiver(("p", "q"), []))
    u = presentation(quiver((0, 1), [("a", 0, 1)]))
    v = presentation(quiver((0, 1), [("b", 1, 1)]))
    f = PresentationMorphism(source=w, target=u, vmap={"p": 0, "q": 1}, emap={})
    g = PresentationMorphism(source=w, target=v, vmap={"p": 0, "q": 0}, emap={})
    return pushout(f, g)


def test_an_apex_in_another_vertex_order_takes_the_count(counts):
    square = _reordering_span()
    assert square.apex.quiver.vertices == ("u:0", "v:1")
    rep = _same_report(square, _SEVERAL_OBJECTS)
    assert rep.ok
    # only into c2+c3, where U's edge and V's loop each have several
    # images, do the apex morphisms come in another order than the pairs
    assert len(counts) == 1
    assert _same_report(square).ok and len(counts) == 1


# ------------------------------------------------------- hypothesis spans

_SMALL = {name: t for name, t in battery().items() if name in ("c2", "s3")}


def _walk(q, start, end, steps):
    """A word from ``start`` to ``end``: the letters ``steps`` pick, as far
    as they chain, then the connecting edge ``c`` if one is needed."""
    letters, here = [], start
    for pick in steps:
        out = [
            (e, s)
            for e in q.edges
            for s in (1, -1)
            if q.letter_src((e, s)) == here
        ]
        if not out:
            break
        letter = out[pick % len(out)]
        letters.append(letter)
        here = q.letter_tgt(letter)
    if here != end:
        letters.append(("c", 1) if here == 0 else ("c", -1))
    return word(q, letters, at=start)


@st.composite
def spans(draw):
    """A span W -> U, W -> V with random vertex maps, generators sent to
    random words, and random relations on U and V.  U and V with two
    vertices carry a connecting edge ``c: 0 -> 1`` so that every word can
    be closed up; the apex keeps at most three generators, so that the
    oracle stays fast."""
    steps = st.lists(st.integers(0, 7), max_size=3)

    def piece(max_edges):
        nv = draw(st.integers(1, 2 if max_edges else 1))
        edges = [
            (f"a{i}", *draw(st.tuples(*[st.integers(0, nv - 1)] * 2)))
            for i in range(draw(st.integers(0, max_edges - (nv - 1))))
        ]
        if nv == 2:
            edges.append(("c", 0, 1))
        q = quiver(tuple(range(nv)), edges)
        relations = []
        if q.edges and draw(st.booleans()):
            v = draw(st.integers(0, nv - 1))
            relations.append((_walk(q, v, v, draw(steps)), empty_word(v)))
        return presentation(q, relations)

    u = piece(2)
    v = piece(3 - len(u.quiver.edges))
    nw = draw(st.integers(1, 2))
    fv = {x: draw(st.sampled_from(u.quiver.vertices)) for x in range(nw)}
    gv = {x: draw(st.sampled_from(v.quiver.vertices)) for x in range(nw)}
    wedges = [
        (f"e{i}", *draw(st.tuples(*[st.integers(0, nw - 1)] * 2)))
        for i in range(draw(st.integers(0, 2)))
    ]
    w = presentation(quiver(tuple(range(nw)), wedges))

    def leg(target, vmap):
        return PresentationMorphism(
            source=w,
            target=target,
            vmap=vmap,
            emap={
                e: _walk(target.quiver, vmap[s], vmap[t], draw(steps))
                for e, s, t in wedges
            },
        ).validate()

    return pushout(leg(u, fv), leg(v, gv))


def _collapse_v_loops(square):
    """inj_v replaced by the valid morphism V -> apex that sends V's loops
    to empty words; None when V has no loop."""
    vq = square.v.quiver
    if all(vq.esrc[e] != vq.etgt[e] for e in vq.edges):
        return None
    emap = dict(square.inj_v.emap)
    for e in vq.edges:
        if vq.esrc[e] == vq.etgt[e]:
            emap[e] = empty_word(square.inj_v.vmap[vq.esrc[e]])
    return replace(square, inj_v=replace(square.inj_v, emap=emap).validate())


_BREAKAGES = {
    "drop": lambda sq: _drop_gluing(sq) if sq.w.quiver.edges else None,
    "extra": _kill_u_loop,
    "swap": _collapse_v_loops,
}


@settings(max_examples=30, deadline=None)
@given(spans())
def test_random_pushouts_match_the_oracle(square):
    assert _same_report(square, _SMALL).ok


@settings(max_examples=60, deadline=None)
@given(spans(), st.sampled_from(sorted(_BREAKAGES)))
def test_random_broken_squares_match_the_oracle(square, breakage):
    broken = _BREAKAGES[breakage](square)
    if broken is not None:
        _same_report(broken, _SMALL)


# Targets with two objects: a vertex assignment that sends an edge across
# the components of c2+c3 has no candidates, so the searches meet empty
# blocks, and the interval groupoid has no loops but the identities.
_SEVERAL_OBJECTS = {
    "interval": interval_groupoid(),
    "c2+c3": disjoint_union(battery()["c2"], battery()["c3"]),
}


@settings(max_examples=60, deadline=None)
@given(spans(), st.sampled_from(sorted(_BREAKAGES) + ["none"]))
def test_random_squares_into_targets_with_several_objects_match_the_oracle(
    square, breakage
):
    broken = square if breakage == "none" else _BREAKAGES[breakage](square)
    if broken is not None:
        rep = _same_report(broken, _SEVERAL_OBJECTS)
        assert rep.ok or broken is not square


# ---------------------------------------------------------- scaling guard


def _bouquet_square(a, b):
    loops = [f"e{i}" for i in range(a + b)]
    x = complex2(("*",), [(e, "*", "*") for e in loops])
    return vkt_square(cover(x, loops[:a], loops[a:]), ("*",)).square


@pytest.mark.parametrize("a,b", [(2, 2), (2, 3)])
def test_wedge_universality_scales_with_the_morphism_count(a, b):
    rep = verify_pushout_universal(_bouquet_square(a, b))
    assert rep.ok
    for r, t in zip(rep.per_target, battery().values()):
        n = len(t.arrows) ** (a + b)
        assert (r.compatible_pairs, r.apex_morphisms) == (n, n)
