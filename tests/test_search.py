"""Differential tests for the tuple-keyed presentation-morphism search.

The original enumerator builds a ``PresMap`` (two dicts) per candidate and
checks every relation on the complete assignment.  It is kept here
verbatim as ``enumerate_pres_morphisms_oracle``, with the helpers it and
its callers used: ``PresMap``, ``eval_word``, ``presmap_key``,
``compose_presmap`` and ``_restriction_key``.  The original
``enumerate_group_morphisms`` body is kept as
``enumerate_group_morphisms_oracle``.  The segment step ``_grow`` as it
was, when every segment, the first too, added each of ``product``'s tuples
to a prefix (the first segment's prefix being ``()``), is kept as
``grow_oracle``.  The ``vankampen._evidence`` body that listed both sides'
blocks and compared the lists is kept as ``evidence_lists_oracle``.

The library's search yields blocks ``(vertex images, [edge images])``.
Read out key by key they must be the oracle's ``presmap_key`` list in the
same order, and the search must trip the size guard on exactly the same
inputs; its compiled block restrictions must agree with
``_restriction_key``; ``vkt_square`` evidence (also over tampered bridges,
bridges that reorder generators or meet extra relations, and random
morphisms) and ``words_equal`` witnesses must be the ones the oracle
gives.  The streamed evidence must also be the listed body's, or raise
its error with its text and witness, and it must never list a block.
"""

import tracemalloc
from dataclasses import dataclass, replace
from itertools import chain, groupby, product, repeat
from math import prod
from operator import add, itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gpdkit.presentations as presentations_module
import gpdkit.vankampen as vankampen_module
from gpdkit.cli import _name_inclusion
from gpdkit.core import (
    DEFAULT_SIZE_GUARD,
    SizeGuardExceeded,
    ValidationError,
    battery,
    cyclic_group,
    disjoint_union,
    interval_groupoid,
    symmetric_group,
)
from gpdkit.documents import load_document
from gpdkit.presentations import (
    GroupPresentation,
    PresentationMorphism,
    _evaluate,
    _morphism_blocks,
    _restriction,
    empty_word,
    enumerate_group_morphisms,
    enumerate_pres_morphisms,
    free_reduce,
    presentation,
    pushout,
    quiver,
    vertex_group_presentation,
    word,
    words_equal,
)
from gpdkit.vankampen import (
    TargetEvidence,
    _evidence,
    complex2,
    cover,
    fundamental_groupoid,
    vkt_square,
)

from test_presentations import (
    c2_free_product_span,
    glued_loops_span,
    two_arc_circle_span,
    wedge_span,
)

DATA = Path(__file__).parent / "data"

# ------------------------------------------------------------------ oracle


@dataclass(frozen=True)
class PresMap:
    """A morphism from a presented groupoid into a finite groupoid:
    vertex assignment plus one arrow per generator, relations respected."""

    vmap: dict
    amap: dict


def eval_word(w, pm, t):
    """Evaluate a word in a finite groupoid under a PresMap."""
    out = t.id_of[pm.vmap[w.src]]
    for e, s in w.letters:
        a = pm.amap[e] if s > 0 else t.inv[pm.amap[e]]
        out = t.comp[(out, a)]
    return out


def presmap_key(pm, p):
    q = p.quiver
    return (
        tuple(pm.vmap[v] for v in q.vertices),
        tuple(pm.amap[e] for e in q.edges),
    )


def enumerate_pres_morphisms_oracle(p, t, guard=DEFAULT_SIZE_GUARD):
    """All relation-respecting assignments of ``p`` into groupoid ``t``,
    in canonical (vertex images, edge images) order."""
    q = p.quiver
    plans = []
    total = 0
    for images in product(t.objects, repeat=len(q.vertices)):
        vmap = dict(zip(q.vertices, images))
        cands = []
        count = 1
        for e in q.edges:
            c = t.arrows_between(vmap[q.esrc[e]], vmap[q.etgt[e]])
            cands.append(c)
            count *= len(c)
        total += count
        if total > guard:
            raise SizeGuardExceeded(
                f"presentation morphism search needs more than {guard} candidates"
            )
        plans.append((vmap, cands))
    found = []
    for vmap, cands in plans:
        for images in product(*cands):
            pm = PresMap(vmap=vmap, amap=dict(zip(q.edges, images)))
            if all(
                eval_word(lhs, pm, t) == eval_word(rhs, pm, t)
                for lhs, rhs in p.relations
            ):
                found.append(pm)
    return found


def compose_presmap(f, pm, t):
    """Precompose a PresMap (into ``t``) with a presentation morphism."""
    return PresMap(
        vmap={v: pm.vmap[f.vmap[v]] for v in f.source.quiver.vertices},
        amap={e: eval_word(f.emap[e], pm, t) for e in f.source.quiver.edges},
    )


def _restriction_key(f, pm, t):
    """Key of the restriction of ``pm`` along ``f``."""
    return presmap_key(compose_presmap(f, pm, t), f.source)


def enumerate_group_morphisms_oracle(gp, group, guard=DEFAULT_SIZE_GUARD):
    """All assignments of ``gp.generators`` into a finite group that kill
    every relator."""
    n = len(group.elements) ** len(gp.generators)
    if n > guard:
        raise SizeGuardExceeded(
            f"group morphism search needs more than {guard} candidates"
        )
    found = []
    for images in product(group.elements, repeat=len(gp.generators)):
        amap = dict(zip(gp.generators, images))
        good = True
        for rel in gp.relators:
            acc = group.unit
            for gname, s in rel:
                val = amap[gname] if s > 0 else group.inv(amap[gname])
                acc = group.mul(acc, val)
            if acc != group.unit:
                good = False
                break
        if good:
            found.append(amap)
    return found


def grow_oracle(prefixes, cands, rels, vimg, t):
    """Extend each edge-image prefix by every choice from ``cands``, lazily
    and in order, keeping the extensions on which the relations ``rels``
    hold (each a kept relator row, which must evaluate to the identity)."""
    grown = chain.from_iterable(map(add, repeat(pre), product(*cands)) for pre in prefixes)
    if not rels:
        return grown

    def holds(eimg):
        for relator in rels:
            if _evaluate(relator, vimg, eimg, t) != t.id_of[vimg[relator[0]]]:
                return False
        return True

    return filter(holds, grown)


def _blocks_with_grow_oracle(p, t):
    """``_morphism_blocks`` with every segment, the first from the prefix
    ``()``, grown by ``grow_oracle``: the block lists as they were."""
    def grow(prefixes, *rest):
        return grow_oracle([()] if prefixes is None else prefixes, *rest)

    with mock.patch.object(presentations_module, "_grow", grow):
        return _morphism_blocks(p, t)


def evidence_lists_oracle(apex, direct, bridge, targets, guard):
    """Per target, whether precomposition with ``bridge`` (apex -> direct)
    bijects the morphisms out of ``direct`` onto those out of ``apex``.

    The composites are collected per vertex image, in the order the direct
    search lists them, and compared with the apex block of that vertex
    image: as lists first, as sets only where the lists differ (a bridge
    that reorders generators).  Equal lists have equal sets.  When the
    vertex images met on the two sides are the same and every block
    matches as a set, the composites cover every apex morphism; both
    searches list each morphism once, so equal totals then make the
    covering a bijection."""
    evidence = []
    for tname, t in targets.items():
        apex_blocks = dict(_morphism_blocks(apex, t, guard))
        direct_blocks = _morphism_blocks(direct, t, guard)
        pulled = {}
        for vimg, eimgs in map(_restriction(bridge, t), direct_blocks):
            pulled.setdefault(vimg, []).extend(eimgs)
        apex_morphisms = sum(map(len, apex_blocks.values()))
        direct_morphisms = sum(len(eimgs) for _, eimgs in direct_blocks)
        evidence.append(
            TargetEvidence(
                target=tname,
                apex_morphisms=apex_morphisms,
                direct_morphisms=direct_morphisms,
                ok=apex_morphisms == direct_morphisms
                and pulled.keys() == apex_blocks.keys()
                and all(
                    eimgs == pulled[vimg] or set(eimgs) == set(pulled[vimg])
                    for vimg, eimgs in apex_blocks.items()
                ),
            )
        )
    return tuple(evidence)


# ----------------------------------------------------------------- helpers

TARGETS = {
    **battery(),
    "interval": interval_groupoid(),
    "c2+c3": disjoint_union(battery()["c2"], battery()["c3"]),
}
_SMALL = {name: TARGETS[name] for name in ("c2", "s3", "interval", "c2+c3")}


def _oracle_keys(p, t):
    return [presmap_key(pm, p) for pm in enumerate_pres_morphisms_oracle(p, t)]


def _same_keys(p, targets=TARGETS):
    for t in targets.values():
        assert enumerate_pres_morphisms(p, t) == _oracle_keys(p, t)


def _product_count(p, t):
    """Size of the candidate space the guard counts."""
    q = p.quiver
    total = 0
    for images in product(t.objects, repeat=len(q.vertices)):
        vmap = dict(zip(q.vertices, images))
        total += prod(
            len(t.arrows_between(vmap[q.esrc[e]], vmap[q.etgt[e]])) for e in q.edges
        )
    return total


def _square_presentations(square):
    return (square.w, square.u, square.v, square.apex)


def _square_legs(square):
    return (square.f, square.g, square.inj_u, square.inj_v)


def _data_vkt_results():
    covers = [("circle.cov", ("0", "1")), ("wedge.cov", ("0",))]
    return [
        vkt_square(load_document(DATA / name).payload, base) for name, base in covers
    ]


def _data_pushout():
    pu, pv, pw = (
        load_document(DATA / f"wedge-{x}.pres").payload for x in ("u", "v", "w")
    )
    return pushout(_name_inclusion(pw, pu, "u"), _name_inclusion(pw, pv, "v"))


def _bundled_squares():
    return [
        two_arc_circle_span(),
        wedge_span(),
        c2_free_product_span(),
        glued_loops_span(),
    ]


def _vkt_results():
    """vkt squares on small complexes, with and without gluing relations."""
    circle = complex2((0, 1), [("a", 0, 1), ("b", 0, 1)])
    theta = complex2((0, 1), [("a", 0, 1), ("b", 0, 1), ("c", 0, 1)])
    disc = complex2((0, 1), [("a", 0, 1), ("b", 0, 1)], [("f", [("a", 1), ("b", -1)])])
    torus = complex2(
        ("*",),
        [("x", "*", "*"), ("y", "*", "*")],
        [("f", [("x", 1), ("y", 1), ("x", -1), ("y", -1)])],
    )
    return _data_vkt_results() + [
        vkt_square(cover(circle, ["a"], ["b"]), (0, 1)),
        vkt_square(cover(theta, ["a", "b"], ["b", "c"]), (0, 1)),
        vkt_square(cover(disc, ["f"], ["a", "b"]), (0, 1)),
        vkt_square(cover(torus, ["f"], ["x"]), ("*",)),
    ]


def _letters_from(q, v):
    return [(e, s) for e in q.edges for s in (1, -1) if q.letter_src((e, s)) == v]


def _walk(q, start, steps):
    """The letters ``steps`` pick from ``start``, as far as they chain, and
    the vertex where they end."""
    letters, here = [], start
    for pick in steps:
        out = _letters_from(q, here)
        if not out:
            break
        letter = out[pick % len(out)]
        letters.append(letter)
        here = q.letter_tgt(letter)
    return letters, here


def _paths(q, start):
    """A breadth-first path of signed letters from ``start`` to each vertex
    it reaches."""
    paths = {start: []}
    queue = [start]
    for v in queue:
        for letter in _letters_from(q, v):
            w = q.letter_tgt(letter)
            if w not in paths:
                paths[w] = paths[v] + [letter]
                queue.append(w)
    return paths


_STEPS = st.lists(st.integers(0, 11), max_size=4)


@st.composite
def _coterminal_pair(draw, q):
    """Two words from one vertex to one vertex; either may be empty."""
    x = draw(st.sampled_from(q.vertices))
    lhs, y = _walk(q, x, draw(_STEPS))
    rhs, z = _walk(q, x, draw(_STEPS))
    rhs += _paths(q, z)[y]
    pair = (word(q, lhs, at=x), word(q, rhs, at=x))
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def presentations(draw, max_edges=4):
    """One to three vertices; loops, parallel edges and isolated vertices;
    up to three relations, sides possibly empty, over any edges."""
    nv = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    edges = [
        (f"e{i}", *draw(ends)) for i in range(draw(st.integers(0, max_edges)))
    ]
    q = quiver(tuple(range(nv)), edges)
    relations = draw(st.lists(_coterminal_pair(q), max_size=3))
    return presentation(q, relations)


@st.composite
def morphisms(draw):
    """A presentation morphism into a random presentation: random vertex
    images, and each source edge sent to a random word between the images
    of its endpoints (empty, one letter, inverse letters, longer)."""
    p = draw(presentations(max_edges=3))
    q = p.quiver
    ns = draw(st.integers(1, 2))
    vmap = {x: draw(st.sampled_from(q.vertices)) for x in range(ns)}
    edges, emap = [], {}
    for i in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, ns - 1)), draw(st.integers(0, ns - 1))
        letters, here = _walk(q, vmap[a], draw(_STEPS))
        path = _paths(q, here).get(vmap[b])
        if path is None:
            continue
        edges.append((f"s{i}", a, b))
        emap[f"s{i}"] = word(q, letters + path, at=vmap[a])
    source = presentation(quiver(tuple(range(ns)), edges))
    return PresentationMorphism(source=source, target=p, vmap=vmap, emap=emap).validate()


def _same_restrictions(f, targets=_SMALL):
    """Feed the block map every oracle morphism out of ``f.target``, one
    block per run of equal vertex images, and compare the whole restricted
    list, in order, with ``_restriction_key``'s."""
    for t in targets.values():
        restrict = _restriction(f, t)
        mors = enumerate_pres_morphisms_oracle(f.target, t)
        keys = [presmap_key(pm, f.target) for pm in mors]
        got = []
        for vimg, run in groupby(keys, itemgetter(0)):
            rvimg, reimgs = restrict((vimg, [eimg for _, eimg in run]))
            got += [(rvimg, eimg) for eimg in reimgs]
        assert got == [_restriction_key(f, pm, t) for pm in mors]


# ------------------------------------------------------------ enumeration


def test_bundled_spans_match_the_oracle():
    for square in _bundled_squares():
        for p in _square_presentations(square):
            _same_keys(p)


def test_data_presentations_and_cover_pieces_match_the_oracle():
    for p in _square_presentations(_data_pushout()):
        _same_keys(p)
    for res in _data_vkt_results():
        for p in _square_presentations(res.square) + (res.direct,):
            _same_keys(p)
    complexes = [("circle.cx", ("0", "1")), ("disc.cx", ("0",)), ("disc.cx", ("0", "1"))]
    for name, base in complexes:
        _same_keys(fundamental_groupoid(load_document(DATA / name).payload, base))


@pytest.mark.parametrize("where", ["first", "last", "both", "nowhere"])
def test_relations_ending_at_the_first_or_last_edge(where):
    q = quiver(("*",), [(e, "*", "*") for e in "xyz"])
    first = (word(q, [("x", 1), ("x", 1)]), word(q, [], at="*"))
    last = (word(q, [("z", 1)] * 3), word(q, [("z", -1)] * 3))
    empty = (word(q, [], at="*"), word(q, [], at="*"))
    relations = {
        "first": [first],
        "last": [last],
        "both": [last, first],
        "nowhere": [empty],
    }[where]
    _same_keys(presentation(q, relations))


def test_an_edgeless_presentation_has_one_morphism_per_vertex_map():
    p = presentation(quiver((0, 1), []))
    _same_keys(p)
    assert len(enumerate_pres_morphisms(p, TARGETS["interval"])) == 4


@settings(max_examples=150, deadline=None)
@given(presentations(), st.sampled_from(sorted(TARGETS)))
def test_random_presentations_match_the_oracle(p, tname):
    t = TARGETS[tname]
    assert enumerate_pres_morphisms(p, t) == _oracle_keys(p, t)


@settings(max_examples=100, deadline=None)
@given(presentations(), st.sampled_from(sorted(TARGETS)))
def test_blocks_are_the_runs_of_equal_vertex_images(p, tname):
    """One block per vertex assignment that has a morphism: assignments
    whose candidates are empty, or whose candidates all break a relation,
    leave no block."""
    t = TARGETS[tname]
    runs = [
        (vimg, [eimg for _, eimg in run])
        for vimg, run in groupby(_oracle_keys(p, t), itemgetter(0))
    ]
    assert _morphism_blocks(p, t) == runs


# ------------------------------------------------------ the first segment


def _bouquet_and_wedge_squares():
    """The vkt squares of the ``pushout-search`` shapes: bouquets of 2 to 5
    loops at one vertex, covered by a first run of loops and the rest, and
    wedges of two circles, each an arc pair, glued at one vertex."""
    squares = []
    for a, b in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 4)]:
        loops = [f"e{i}" for i in range(a + b)]
        x = complex2(("*",), [(e, "*", "*") for e in loops])
        squares.append(vkt_square(cover(x, loops[:a], loops[a:]), ("*",), targets={}))
    wedge = complex2(
        (0, 1, 2), [("a", 0, 1), ("b", 1, 0), ("c", 0, 2), ("d", 2, 0)]
    )
    squares.append(vkt_square(cover(wedge, ["a", "b"], ["c", "d"]), (0,), targets={}))
    return squares


def test_bouquet_and_wedge_blocks_are_the_old_blocks():
    for res in _bouquet_and_wedge_squares():
        for p in _square_presentations(res.square) + (res.direct,):
            for t in battery().values():
                got = _morphism_blocks(p, t)
                assert got == _blocks_with_grow_oracle(p, t)
                assert all(type(e) is tuple for _, eimgs in got for e in eimgs)


def test_data_and_bundled_blocks_are_the_old_blocks():
    presented = [
        load_document(DATA / f"wedge-{x}.pres").payload for x in ("u", "v", "w")
    ]
    presented += _square_presentations(_data_pushout())
    for square in _bundled_squares():
        presented += _square_presentations(square)
    for res in _vkt_results():
        presented += (*_square_presentations(res.square), res.direct)
    assert any(p.relations for p in presented)
    for p in presented:
        for t in battery().values():
            assert _morphism_blocks(p, t) == _blocks_with_grow_oracle(p, t)


@settings(max_examples=150, deadline=None)
@given(presentations(), st.sampled_from(sorted(TARGETS)))
def test_random_blocks_are_the_old_blocks(p, tname):
    t = TARGETS[tname]
    assert _morphism_blocks(p, t) == _blocks_with_grow_oracle(p, t)


# ------------------------------------------------------------------- guard


def _guard_outcome(search, p, t, guard):
    try:
        search(p, t, guard)
    except SizeGuardExceeded as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(presentations(), st.sampled_from(sorted(TARGETS)))
def test_guard_trips_on_the_same_inputs(p, tname):
    t = TARGETS[tname]
    n = _product_count(p, t)
    below = _guard_outcome(enumerate_pres_morphisms, p, t, n - 1)
    assert below is not None
    with pytest.raises(SizeGuardExceeded) as info:
        enumerate_pres_morphisms(p, t, n - 1)
    assert info.value.allowed == n - 1
    assert info.value.needed > info.value.allowed
    assert below == _guard_outcome(enumerate_pres_morphisms_oracle, p, t, n - 1)
    assert _guard_outcome(enumerate_pres_morphisms, p, t, n) is None
    assert _guard_outcome(enumerate_pres_morphisms_oracle, p, t, n) is None


def test_guard_counts_the_product_space_on_a_bouquet():
    q = quiver(("*",), [(e, "*", "*") for e in "abcd"])
    p = presentation(q, [(word(q, [("a", 1)]), word(q, [("b", 1)]))])
    s3 = TARGETS["s3"]
    with pytest.raises(SizeGuardExceeded):
        enumerate_pres_morphisms(p, s3, 6**4 - 1)
    assert len(enumerate_pres_morphisms(p, s3, 6**4)) == 6**3


# ------------------------------------------------------------ restrictions


def test_square_restrictions_match_restriction_key():
    squares = _bundled_squares() + [_data_pushout()]
    squares += [res.square for res in _vkt_results()]
    for square in squares:
        for f in _square_legs(square):
            _same_restrictions(f)
    for res in _vkt_results():
        _same_restrictions(res.bridge)


@settings(max_examples=100, deadline=None)
@given(morphisms())
def test_random_restrictions_match_restriction_key(f):
    _same_restrictions(f)


def _evidence_oracle(apex, direct, bridge, targets):
    evidence = []
    for tname, t in targets.items():
        mors_apex = enumerate_pres_morphisms_oracle(apex, t)
        mors_direct = enumerate_pres_morphisms_oracle(direct, t)
        apex_keys = {presmap_key(pm, apex) for pm in mors_apex}
        pulled = {_restriction_key(bridge, pm, t) for pm in mors_direct}
        evidence.append(
            TargetEvidence(
                target=tname,
                apex_morphisms=len(mors_apex),
                direct_morphisms=len(mors_direct),
                ok=(len(mors_apex) == len(mors_direct)) and (pulled == apex_keys),
            )
        )
    return tuple(evidence)


def _evidence_outcome(body, *args):
    """The evidence ``body`` gives, or the error it raises with its text
    and witness (for the guard, the counts it names)."""
    try:
        return body(*args)
    except SizeGuardExceeded as exc:
        return (type(exc), str(exc), exc.needed, exc.allowed)
    except ValidationError as exc:
        return (type(exc), str(exc), exc.witness)


def _same_as_lists(apex, direct, bridge, targets=TARGETS, guard=DEFAULT_SIZE_GUARD):
    """The streamed evidence, or its error, which must be the list body's."""
    got = _evidence_outcome(_evidence, apex, direct, bridge, targets, guard)
    assert got == _evidence_outcome(evidence_lists_oracle, apex, direct, bridge, targets, guard)
    return got


def _same_evidence(apex, direct, bridge, targets=TARGETS):
    got = _same_as_lists(apex, direct, bridge, targets)
    assert got == _evidence_oracle(apex, direct, bridge, targets)
    return got


def test_vkt_evidence_matches_the_oracle():
    for res in _vkt_results():
        assert res.evidence == _evidence_oracle(
            res.square.apex, res.direct, res.bridge, battery()
        )
        assert res.evidence_ok
        evidence = _same_evidence(res.square.apex, res.direct, res.bridge)
        assert all(e.ok for e in evidence)


def _tampered_bridges(res):
    """The bridge of ``res`` with two generators collapsed to one, with a
    generator sent to its inverse word, and with its vertex map reversed;
    none is validated.  The collapsed bridge is a lawful morphism; the
    other two send an edge to a word with the wrong ends."""
    b = res.bridge
    x, y = res.square.apex.quiver.edges[:2]
    vs = res.square.apex.quiver.vertices
    return {
        "collapsed": replace(b, emap={**b.emap, y: b.emap[x]}),
        "inverse": replace(b, emap={**b.emap, x: b.emap[x].inverse()}),
        "swapped": replace(b, vmap=dict(zip(vs, [b.vmap[v] for v in reversed(vs)]))),
    }


def test_tampered_bridges_match_the_oracle():
    """The lawful tampered bridge reaches the evidence, which agrees with
    the oracle.  The evidence validates a bridge before it restricts along
    it, so the two lawless ones are refused with ``validate``'s error; the
    oracle, which reads them as given, is kept to show what they hid."""
    res = vkt_square(load_document(DATA / "circle.cov").payload, ("0", "1"))
    apex, direct = res.square.apex, res.direct
    tampered = _tampered_bridges(res)
    # Collapsing p and q misses every apex morphism with p != q, which only
    # the interval groupoid (one arrow 0 -> 1) lacks.
    got = _same_evidence(apex, direct, tampered["collapsed"])
    broken = {e.target: not e.ok for e in got}
    assert broken == {**dict.fromkeys(TARGETS, True), "interval": False}
    # Inverting p is an automorphism over one object, but p^-1 runs
    # 1 -> 0, which only the interval groupoid sees, as it sees a swapped
    # vertex map.
    for name in ("inverse", "swapped"):
        bridge = tampered[name]
        seen = _evidence_oracle(apex, direct, bridge, TARGETS)
        broken = {e.target: not e.ok for e in seen}
        assert broken == {**dict.fromkeys(TARGETS, False), "interval": True}
        with pytest.raises(ValidationError) as want:
            replace(bridge).validate()
        assert str(want.value) == "edge image has wrong endpoints"
        with pytest.raises(ValidationError) as info:
            _evidence(apex, direct, bridge, TARGETS, DEFAULT_SIZE_GUARD)
        assert (str(info.value), info.value.witness) == (str(want.value), want.value.witness)
        assert bridge._view is None
        want = (ValidationError, str(want.value), want.value.witness)
        assert _same_as_lists(apex, direct, bridge) == want


@settings(max_examples=100, deadline=None)
@given(morphisms())
def test_random_evidence_matches_the_oracle(f):
    """A random morphism as the bridge, into targets with several objects,
    where vertex assignments with no candidates leave empty blocks."""
    _same_evidence(f.source, f.target, f, _SMALL)


def _wedge(u="x", v="y"):
    """``vkt_square`` on the bundled wedge of two loops, with U and V
    covering the loops named ``u`` and ``v``."""
    x = load_document(DATA / "wedge.cov").payload.x
    return vkt_square(cover(x, [u], [v]), ("0",))


def test_restriction_hands_back_the_block_only_on_an_identity_gather():
    t = TARGETS["c3"]
    ident, swapped = _wedge(), _wedge("y", "x")
    inverted = replace(
        ident.bridge, emap={**ident.bridge.emap, "u:x": ident.bridge.emap["u:x"].inverse()}
    )
    for f, source, same in (
        (ident.bridge, ident.direct, True),
        (swapped.bridge, swapped.direct, False),  # positions (1, 0)
        (ident.square.inj_u, ident.square.apex, False),  # covers u:x only
        (inverted, ident.direct, False),  # evaluates a word
    ):
        restrict = _restriction(f, t)
        for vimg, eimgs in _morphism_blocks(source, t):
            kept = list(eimgs)
            out = restrict((vimg, eimgs))[1]
            assert (out is eimgs) == same
            assert len(list(out)) == len(kept) and eimgs == kept


def test_a_reordering_bridge_passes_on_the_set_comparison():
    """Covering the wedge with U = y and V = x lists the apex generators as
    (u:y, v:x) and the direct ones as (x, y): the composites come out in
    another order than the apex block's, and only as sets do they match."""
    res = _wedge("y", "x")
    words = [res.bridge.emap[e].letters for e in res.square.apex.quiver.edges]
    assert words == [(("y", 1),), (("x", 1),)]
    t = TARGETS["c3"]
    ((vimg, eimgs),) = _morphism_blocks(res.direct, t)
    ((_, apex_eimgs),) = _morphism_blocks(res.square.apex, t)
    pulled = list(_restriction(res.bridge, t)((vimg, eimgs))[1])
    assert pulled != apex_eimgs and set(pulled) == set(apex_eimgs)
    assert all(e.ok for e in _same_evidence(res.square.apex, res.direct, res.bridge))
    assert res.evidence_ok


def test_relations_on_an_identity_bridge_fail_where_they_bite():
    """The bridge of the plain wedge gathers by identity.  An extra direct
    relation x x = 1 cuts the direct lists wherever x has elements of other
    orders; moving a relation across (y = 1 on the apex, x = 1 on the
    direct side) keeps the counts equal and changes only the content."""
    res = _wedge()
    apex, direct, q = res.square.apex, res.direct, res.direct.quiver
    one = empty_word("0")
    xx = presentation(q, [*direct.relations, (word(q, [("x", 1), ("x", 1)]), one)])
    got = _same_evidence(apex, xx, replace(res.bridge, target=xx))
    biting = {t for t in TARGETS if t not in ("c2", "interval")}
    assert {e.target for e in got if not e.ok} == biting
    x1 = presentation(q, [(word(q, [("x", 1)]), one)])
    y1 = presentation(apex.quiver, [(word(apex.quiver, [("v:y", 1)]), empty_word("u:0"))])
    got = _same_evidence(y1, x1, replace(res.bridge, source=y1, target=x1))
    assert all(e.apex_morphisms == e.direct_morphisms for e in got)
    assert {e.target for e in got if not e.ok} == set(TARGETS) - {"interval"}


def test_an_apex_block_without_composites_fails():
    """Two apex vertices sent to one direct vertex with a loop: into two
    copies of c2 both sides have four morphisms, and the pulled lists match
    their apex blocks as sets, but the apex blocks that split a and b
    receive no composites."""
    apex = presentation(quiver(("a", "b"), []))
    direct = presentation(quiver(("0",), [("x", "0", "0")]))
    bridge = PresentationMorphism(
        source=apex, target=direct, vmap={"a": "0", "b": "0"}, emap={}
    ).validate()
    c2c2 = disjoint_union(TARGETS["c2"], TARGETS["c2"])
    (e,) = _same_evidence(apex, direct, bridge, {"c2+c2": c2c2})
    assert (e.apex_morphisms, e.direct_morphisms, e.ok) == (4, 4, False)


def test_bouquet_evidence_is_the_lists_evidence():
    """The ``pushout-search`` squares, bouquets of 2 to 5 loops and the
    wedge, into every target: n^k morphisms on each side, all matched."""
    for res in _bouquet_and_wedge_squares():
        got = _same_as_lists(res.square.apex, res.direct, res.bridge)
        assert all(e.ok and e.apex_morphisms == e.direct_morphisms for e in got)


def test_a_guard_refusal_on_the_direct_side_only():
    """An apex of one edge and a direct side of three: a guard between
    their counts into s3 passes c2 and then refuses the direct search into
    s3 only, before a lawless bridge is validated; a guard below the apex's
    count refuses the apex first."""
    q1 = quiver((0, 1), [("a", 0, 1)])
    q3 = quiver((0, 1), [("x", 0, 1), ("y", 0, 0), ("z", 0, 0)])
    apex, direct = presentation(q1), presentation(q3)
    bridge = PresentationMorphism(
        source=apex, target=direct, vmap={0: 0, 1: 1}, emap={"a": word(q3, [("x", 1)])}
    ).validate()
    lawless = replace(bridge, emap={"a": word(q3, [("x", -1)])})
    c2, s3 = {"c2": TARGETS["c2"]}, {"s3": TARGETS["s3"]}
    (e,) = _same_as_lists(apex, direct, bridge, c2, 6**2)
    assert (e.apex_morphisms, e.direct_morphisms, e.ok) == (2, 8, False)
    message = "presentation morphism search needs more than {} candidates"
    for b, targets in ((bridge, {**c2, **s3}), (lawless, s3)):
        assert _same_as_lists(apex, direct, b, targets, 6**2) == (
            SizeGuardExceeded, message.format(6**2), 6**3, 6**2,
        )
    assert _same_as_lists(apex, direct, lawless, {**c2, **s3}, 1) == (
        SizeGuardExceeded, message.format(1), 2, 1,
    )
    assert _same_as_lists(apex, direct, lawless, c2)[:2] == (
        ValidationError, "edge image has wrong endpoints",
    )


def test_the_evidence_compares_without_collecting(monkeypatch):
    """On the five-loop bouquet into s3, ``_evidence`` never asks for the
    listed blocks, and its traced peak stays below the size of the one
    block ``_morphism_blocks`` lists for the apex (6^5 edge images)."""
    loops = [f"e{i}" for i in range(5)]
    x = complex2(("*",), [(e, "*", "*") for e in loops])
    res = vkt_square(cover(x, loops[:2], loops[2:]), ("*",), targets={})
    apex, direct, bridge, s3 = res.square.apex, res.direct, res.bridge, TARGETS["s3"]
    calls = []
    real = presentations_module._morphism_blocks

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(presentations_module, "_morphism_blocks", spy)
    monkeypatch.setattr(vankampen_module, "_morphism_blocks", spy, raising=False)
    real(apex, s3)  # every kept view and table is read before tracing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        block = real(apex, s3)
        size = tracemalloc.get_traced_memory()[0] - before
        del block
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = _evidence(apex, direct, bridge, {"s3": s3}, DEFAULT_SIZE_GUARD)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got == (TargetEvidence("s3", 6**5, 6**5, True),)
    assert calls == []
    assert 0 < peak < size


# ---------------------------------------------------------- group wrapper

_GROUPS = {
    "c1": cyclic_group(1),
    "c2": cyclic_group(2),
    "c4": cyclic_group(4),
    "s3": symmetric_group(3),
}


@st.composite
def group_presentations(draw):
    gens = tuple(f"g{i}" for i in range(draw(st.integers(0, 3))))
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=5), max_size=3)) if gens else []
    return GroupPresentation(
        generators=gens, relators=tuple(tuple(r) for r in relators)
    )


def test_vertex_group_morphisms_match_the_oracle():
    torus = complex2(
        ("*",),
        [("x", "*", "*"), ("y", "*", "*")],
        [("f", [("x", 1), ("y", 1), ("x", -1), ("y", -1)])],
    )
    gp = vertex_group_presentation(fundamental_groupoid(torus, ("*",)), "*")
    for g in _GROUPS.values():
        assert enumerate_group_morphisms(gp, g) == enumerate_group_morphisms_oracle(gp, g)


@settings(max_examples=80, deadline=None)
@given(group_presentations(), st.sampled_from(sorted(_GROUPS)))
def test_random_group_morphisms_match_the_oracle(gp, gname):
    g = _GROUPS[gname]
    assert enumerate_group_morphisms(gp, g) == enumerate_group_morphisms_oracle(gp, g)
    n = len(g.elements) ** len(gp.generators)
    for guard, trips in ((n - 1, True), (n, False)):
        for search in (enumerate_group_morphisms, enumerate_group_morphisms_oracle):
            try:
                search(gp, g, guard)
                assert not trips
            except SizeGuardExceeded:
                assert trips


# ------------------------------------------------------------- words_equal


def _separation_oracle(p, u, v, targets):
    ru, rv = free_reduce(u), free_reduce(v)
    for tname, t in targets.items():
        for pm in enumerate_pres_morphisms_oracle(p, t):
            if eval_word(ru, pm, t) != eval_word(rv, pm, t):
                return (tname, presmap_key(pm, p))
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_words_equal_separations_match_the_oracle(data):
    p = data.draw(presentations(max_edges=3))
    u, v = data.draw(_coterminal_pair(p.quiver))
    verdict = words_equal(p, u, v, targets=_SMALL, max_steps=50)
    if verdict.answer != "yes":
        witness = _separation_oracle(p, u, v, _SMALL)
        assert verdict.witness == witness
        assert verdict.answer == ("unknown" if witness is None else "no")
