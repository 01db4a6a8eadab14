"""Differential tests: functors and group homomorphisms found by the
integer search on the source's table, against the enumerators it replaced.

``old_enumerate_morphisms`` tries an image for every non-identity arrow,
and ``old_group_homs`` runs its own product loop over the images of
``generating_set``; both are the former ``core`` bodies, kept verbatim.
``pres_enumerate_morphisms`` and ``pres_group_homs`` are the bodies that
read functors off the presentation-morphism search, also verbatim, through
``old_arrow_presentation``, the walk that built that presentation on names.
``old_generating_set``, ``old_pushout`` and ``old_bounded_rewrite_search``
are the former bodies of the code that now shares one greedy loop, the
union-find of ``skeleton_components`` and one rewrite step.  The library
must return what they return, in the same order.
"""

from collections import deque
from dataclasses import replace
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gpdkit import enumerate_morphisms, group_homs
from gpdkit.core import (
    DEFAULT_SIZE_GUARD,
    GroupoidMorphism,
    SizeGuardExceeded,
    ValidationError,
    alternating_group,
    battery,
    check_morphism,
    cyclic_group,
    disjoint_union,
    finite_group,
    from_group,
    generating_set,
    index_view,
    interval_groupoid,
    symmetric_group,
)
from gpdkit.presentations import (
    GroupoidPresentation,
    PresentationMorphism,
    PushoutSquare,
    Quiver,
    Word,
    _arrow_tree,
    _bounded_rewrite_search,
    _morphism_blocks,
    _vertex_at,
    empty_word,
    enumerate_pres_morphisms,
    free_reduce,
    presentation,
    pushout,
    quiver,
    word,
)
from square_build import _rename_word
from test_presentations import (
    c2_free_product_span,
    glued_loops_span,
    two_arc_circle_span,
    wedge_span,
)
from test_validate import greedy_generators

# ----------------------------------------------------------------- oracles


def old_enumerate_morphisms(g, h, guard=DEFAULT_SIZE_GUARD):
    """All functors ``g -> h`` in canonical (object map, arrow images) order.

    The candidate space is the product of per-arrow image counts, summed
    over object maps; past ``guard`` candidates the search refuses.
    """
    free_arrows = tuple(a for a in g.arrows if a not in set(g.id_of.values()))
    obj_maps = []
    total = 0
    for images in product(h.objects, repeat=len(g.objects)):
        obj_map = dict(zip(g.objects, images))
        cands = []
        count = 1
        for a in free_arrows:
            c = h.arrows_between(obj_map[g.src[a]], obj_map[g.tgt[a]])
            cands.append(c)
            count *= len(c)
        total += count
        if total > guard:
            raise SizeGuardExceeded(
                f"morphism search needs more than {guard} candidates"
            )
        obj_maps.append((obj_map, cands))
    found = []
    for obj_map, cands in obj_maps:
        for images in product(*cands):
            arrow_map = dict(zip(free_arrows, images))
            for x in g.objects:
                arrow_map[g.id_of[x]] = h.id_of[obj_map[x]]
            if all(
                h.comp[(arrow_map[a], arrow_map[b])] == arrow_map[c]
                for (a, b), c in g.comp.items()
            ):
                found.append(GroupoidMorphism(obj_map=obj_map, arrow_map=arrow_map))
    return found


def old_group_homs(g, h, guard=DEFAULT_SIZE_GUARD):
    gens = generating_set(g)
    total = len(h.elements) ** len(gens)
    if total > guard:
        raise SizeGuardExceeded(
            f"homomorphism search needs {total} candidates, the guard allows {guard}"
        )
    gi = {x: i for i, x in enumerate(g.elements)}
    hi = {y: i for i, y in enumerate(h.elements)}
    hmul = [[hi[h.mul(a, b)] for b in h.elements] for a in h.elements]
    # steps[k][i]: the index of g.elements[i] times the k-th generator
    steps = [[gi[g.mul(x, s)] for x in g.elements] for s in gens]
    root = gi[g.unit]
    tree = []  # (element, parent, generator position) in breadth-first order
    seen = {root}
    frontier = deque([root])
    while frontier:
        i = frontier.popleft()
        for k, step in enumerate(steps):
            j = step[i]
            if j not in seen:
                seen.add(j)
                tree.append((j, i, k))
                frontier.append(j)
    phi = [None] * len(g.elements)
    phi[root] = hi[h.unit]
    found = []
    for images in product(range(len(h.elements)), repeat=len(gens)):
        for j, i, k in tree:
            phi[j] = hmul[phi[i]][images[k]]
        if all(
            all(phi[j] == hmul[p][c] for j, p in zip(step, phi))
            for step, c in zip(steps, images)
        ):
            found.append(tuple(h.elements[p] for p in phi))
    return tuple(found)


def pres_enumerate_morphisms(g, h, guard=DEFAULT_SIZE_GUARD):
    """All functors ``g -> h`` in canonical (object map, arrow images) order.

    ``enumerate_pres_morphisms`` assigns images to the generators of
    ``old_arrow_presentation(g)``, so the guard counts those assignments, and
    every other image is read off the tree once per functor found.  The
    generators are chosen greedily in arrow order, so every arrow listed
    before the k-th generator is a word in the earlier ones: assigning
    generator images in order lists the functors in the order of their
    arrow images.
    """
    p, tree = old_arrow_presentation(g)
    found = []
    for vimg, eimg in enumerate_pres_morphisms(p, h, guard):
        obj_map = dict(zip(g.objects, vimg))
        arrow_map = {g.id_of[x]: h.id_of[y] for x, y in obj_map.items()}
        for z, y, k in tree:
            arrow_map[z] = h.comp[arrow_map[y], eimg[k]]
        found.append(GroupoidMorphism(obj_map=obj_map, arrow_map=arrow_map))
    return found


def pres_group_homs(g, h, guard=DEFAULT_SIZE_GUARD):
    """Every homomorphism ``g -> h`` as an image tuple aligned with
    ``g.elements``, in lexicographic order of the tuples (an image ranks by
    its position in ``h.elements``): the functors between the one-object
    groupoids.  The generators of ``g`` are ``generating_set(g)``, so the
    guard counts |h|^|generators| candidates."""
    return tuple(
        tuple(map(f.arrow_map.__getitem__, g.elements))
        for f in pres_enumerate_morphisms(from_group(g), from_group(h), guard)
    )


def old_arrow_presentation(g):
    """Present finite groupoid ``g`` on its greedy generating arrows.

    The vertices are ``g.objects`` and the edges ``greedy_generators``
    chosen in ``g.arrows`` order.  A breadth-first tree from the identities,
    generators in order, gives every other arrow a positive word; it is
    returned as ``(arrow, parent, generator position)`` triples in the order
    they are reached.  Each composable pair (y, s) off the tree, y an arrow
    and s a generator, adds the relation ``w_y s = w_{y s}``.  By induction
    on word length, an assignment of the generators satisfying these
    relations extends along the tree to exactly one functor.
    """
    units = [g.id_of[x] for x in g.objects]
    gens = greedy_generators(g.arrows, units, g.comp)
    q = Quiver(
        vertices=g.objects,
        edges=gens,
        esrc={s: g.src[s] for s in gens},
        etgt={s: g.tgt[s] for s in gens},
    )
    words = {a: empty_word(g.src[a]) for a in units}
    tree = []
    relations = []
    frontier = deque(units)
    while frontier:
        y = frontier.popleft()
        for k, s in enumerate(gens):
            if (y, s) not in g.comp:
                continue
            z = g.comp[y, s]
            wy = words[y]
            w = Word(src=wy.src, tgt=g.tgt[s], letters=wy.letters + ((s, 1),))
            if z in words:
                relations.append((w, words[z]))
            else:
                words[z] = w
                tree.append((z, y, k))
                frontier.append(z)
    return GroupoidPresentation(quiver=q, relations=tuple(relations)), tree


def old_generating_set(g):
    """A small generating set, chosen greedily in element order."""
    gens = []
    span = {g.unit}
    for x in g.elements:
        if x in span:
            continue
        gens.append(x)
        frontier = [g.unit]
        span = {g.unit}
        while frontier:
            y = frontier.pop()
            for h in gens:
                z = g.mul(y, h)
                if z not in span:
                    span.add(z)
                    frontier.append(z)
        if len(span) == len(g.elements):
            break
    return tuple(gens)


def old_pushout(f, g):
    """Pushout of presentations along a common source.

    Vertices of U and V are tagged apart and then identified along the
    images of W's vertices; one relation ``f(e) = g(e)`` is added per
    generator of W.
    """
    if f.source != g.source:
        raise ValidationError("span legs have different sources")
    f.validate()
    g.validate()
    w, u, v = f.source, f.target, g.target

    tagged = [("u", x) for x in u.quiver.vertices] + [
        ("v", x) for x in v.quiver.vertices
    ]
    order = {t: i for i, t in enumerate(tagged)}
    parent = {t: t for t in tagged}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if order[ra] > order[rb]:
            ra, rb = rb, ra
        parent[rb] = ra

    for x in w.quiver.vertices:
        union(("u", f.vmap[x]), ("v", g.vmap[x]))

    def vname(t):
        tag, x = find(t)
        return f"{tag}:{x}"

    uvname = {x: vname(("u", x)) for x in u.quiver.vertices}
    vvname = {x: vname(("v", x)) for x in v.quiver.vertices}
    uename = {e: f"u:{e}" for e in u.quiver.edges}
    vename = {e: f"v:{e}" for e in v.quiver.edges}

    vertices = []
    for t in tagged:
        n = vname(t)
        if n not in vertices:
            vertices.append(n)
    edges = [
        (uename[e], uvname[u.quiver.esrc[e]], uvname[u.quiver.etgt[e]])
        for e in u.quiver.edges
    ] + [
        (vename[e], vvname[v.quiver.esrc[e]], vvname[v.quiver.etgt[e]])
        for e in v.quiver.edges
    ]
    q = quiver(vertices, edges)

    relations = [
        (_rename_word(lhs, uvname, uename), _rename_word(rhs, uvname, uename))
        for lhs, rhs in u.relations
    ] + [
        (_rename_word(lhs, vvname, vename), _rename_word(rhs, vvname, vename))
        for lhs, rhs in v.relations
    ]
    for e in w.quiver.edges:
        relations.append(
            (
                _rename_word(f.emap[e], uvname, uename),
                _rename_word(g.emap[e], vvname, vename),
            )
        )
    apex = presentation(q, relations)

    inj_u = PresentationMorphism(
        source=u,
        target=apex,
        vmap=dict(uvname),
        emap={e: word(q, [(uename[e], 1)]) for e in u.quiver.edges},
    ).validate()
    inj_v = PresentationMorphism(
        source=v,
        target=apex,
        vmap=dict(vvname),
        emap={e: word(q, [(vename[e], 1)]) for e in v.quiver.edges},
    ).validate()
    return PushoutSquare(
        w=w, u=u, v=v, f=f, g=g, apex=apex, inj_u=inj_u, inj_v=inj_v
    )


def old_bounded_rewrite_search(p, start, goal, max_steps, max_length):
    q = p.quiver
    sides = []
    for lhs, rhs in p.relations:
        sides.append((free_reduce(lhs), free_reduce(rhs)))
        sides.append((free_reduce(rhs), free_reduce(lhs)))
    seen = {start}
    queue = [(start, 0)]
    steps = 0
    while queue and steps < max_steps:
        w, depth = queue.pop(0)
        steps += 1
        for a, b in sides:
            if a.is_empty():
                # insert the loop b at any position based at its vertex
                for i in range(len(w.letters) + 1):
                    if _vertex_at(q, w, i) != b.src:
                        continue
                    letters = w.letters[:i] + b.letters + w.letters[i:]
                    nw = free_reduce(Word(src=w.src, tgt=w.tgt, letters=letters))
                    if nw == goal:
                        return depth + 1
                    if len(nw.letters) <= max_length and nw not in seen:
                        seen.add(nw)
                        queue.append((nw, depth + 1))
                continue
            n = len(a.letters)
            for i in range(len(w.letters) - n + 1):
                if w.letters[i : i + n] != a.letters:
                    continue
                letters = w.letters[:i] + b.letters + w.letters[i + n :]
                nw = free_reduce(Word(src=w.src, tgt=w.tgt, letters=letters))
                if nw == goal:
                    return depth + 1
                if len(nw.letters) <= max_length and nw not in seen:
                    seen.add(nw)
                    queue.append((nw, depth + 1))
    return None


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except SizeGuardExceeded:
        return SizeGuardExceeded


def _refusal(search, *args):
    """The search's result, or its guard's message, ``needed`` and ``allowed``."""
    try:
        return search(*args)
    except SizeGuardExceeded as e:
        return str(e), e.needed, e.allowed


# ----------------------------------------------------------------- functors


def _c2_cubed():
    elements = tuple(product(range(2), repeat=3))
    table = {
        (x, y): tuple((a + b) % 2 for a, b in zip(x, y))
        for x in elements
        for y in elements
    }
    return finite_group(elements, table, unit=(0, 0, 0), name="c2^3")


def _union(*parts):
    out = parts[0]
    for part in parts[1:]:
        out = disjoint_union(out, part)
    return out


BATTERY = battery()
INTERVAL = interval_groupoid()
GROUPOIDS = {
    "interval": INTERVAL,
    **BATTERY,
    "interval+c2": _union(INTERVAL, BATTERY["c2"]),
    "c3+interval": _union(BATTERY["c3"], INTERVAL),
    "c2+c3": _union(BATTERY["c2"], BATTERY["c3"]),
    "interval+interval": _union(INTERVAL, INTERVAL),
}


@pytest.mark.parametrize("gname", GROUPOIDS)
@pytest.mark.parametrize("hname", GROUPOIDS)
def test_functors_match_the_old_enumerator(gname, hname):
    g, h = GROUPOIDS[gname], GROUPOIDS[hname]
    found = enumerate_morphisms(g, h)
    assert found == old_enumerate_morphisms(g, h)
    # whole outputs, the arrow maps' key order included
    assert repr(found) == repr(pres_enumerate_morphisms(g, h))


PIECES = {
    "interval": INTERVAL,
    **{f"c{n}": from_group(cyclic_group(n), name=f"c{n}") for n in (1, 2, 3)},
}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(PIECES)), min_size=1, max_size=3),
    st.lists(st.sampled_from(sorted(PIECES)), min_size=1, max_size=2),
)
def test_functors_between_disjoint_unions_match_the_old_enumerator(gparts, hparts):
    g = _union(*(PIECES[n] for n in gparts))
    h = _union(*(PIECES[n] for n in hparts))
    found = enumerate_morphisms(g, h)
    assert found == old_enumerate_morphisms(g, h)
    assert repr(found) == repr(pres_enumerate_morphisms(g, h))
    assert all(check_morphism(f, g, h).ok for f in found)


def test_s4_to_c4_needs_only_the_generator_assignments():
    s4, c4 = symmetric_group(4), cyclic_group(4)
    g, h = from_group(s4), from_group(c4)
    with pytest.raises(SizeGuardExceeded):
        old_enumerate_morphisms(g, h)
    found = enumerate_morphisms(g, h)
    homs = group_homs(s4, c4)
    assert len(homs) == 2
    assert [tuple(f.arrow_map[x] for x in s4.elements) for f in found] == list(homs)
    assert all(check_morphism(f, g, h).ok for f in found)


@pytest.mark.parametrize("gname", GROUPOIDS)
@pytest.mark.parametrize("hname", sorted(BATTERY))
def test_the_guard_counts_generator_assignments(gname, hname):
    g, h = GROUPOIDS[gname], BATTERY[hname]
    p, _ = old_arrow_presentation(g)
    need = len(h.arrows) ** len(p.quiver.edges)
    assert enumerate_morphisms(g, h, guard=need) == enumerate_morphisms(g, h)
    with pytest.raises(SizeGuardExceeded) as info:
        enumerate_morphisms(g, h, guard=need - 1)
    assert str(info.value) == (
        f"presentation morphism search needs more than {need - 1} candidates"
    )


# -------------------------------------------------------------- group homs

GROUPS = {
    "c2": cyclic_group(2),
    "c4": cyclic_group(4),
    "c7": cyclic_group(7),
    "c8": cyclic_group(8),
    "c12": cyclic_group(12),
    "s3": symmetric_group(3),
    "a4": alternating_group(4),
    "s4": symmetric_group(4),
    "c2^3": _c2_cubed(),
    # 6 = 3 + 3 is reached before 4 + 2, so the pair (4, 2) is checked only
    # once the second generator 3 has an image
    "c8-reordered": finite_group(
        (0, 2, 3, 1, 5, 6, 4, 7), {(a, b): (a + b) % 8 for a in range(8) for b in range(8)},
        unit=0, name="c8-reordered",
    ),
}


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("hname", GROUPS)
@pytest.mark.parametrize("guard", [DEFAULT_SIZE_GUARD, 100])
def test_group_homs_match_the_old_product_loop(gname, hname, guard):
    g, h = GROUPS[gname], GROUPS[hname]
    assert _outcome(group_homs, g, h, guard) == _outcome(old_group_homs, g, h, guard)
    assert _refusal(group_homs, g, h, guard) == _refusal(pres_group_homs, g, h, guard)


# every battery group is here but c3
CHOOSER_GROUPS = {**GROUPS, "c3": cyclic_group(3)}


def _tree(g):
    """``_arrow_tree`` of ``g`` named: its generators and, in the order
    reached, its tree arrows."""
    v = index_view(g)
    gens, steps, _ = _arrow_tree(v)
    return tuple(v.items[s] for s in gens), [v.items[z] for _, z, _, _ in steps]


def test_the_chooser_on_a_disjoint_union_joins_its_parts():
    assert _tree(INTERVAL)[0] == ("i", "i_inv")
    for a, b in product(GROUPOIDS.values(), repeat=2):
        edges = _tree(disjoint_union(a, b))[0]
        assert edges == tuple(("l", e) for e in _tree(a)[0]) + tuple(
            ("r", e) for e in _tree(b)[0]
        )


@pytest.mark.parametrize("name", sorted(CHOOSER_GROUPS))
def test_the_chooser_on_a_group_gives_its_generating_set(name):
    group = CHOOSER_GROUPS[name]
    edges, reached = _tree(from_group(group))
    assert edges == generating_set(group) == old_generating_set(group)
    # the tree reaches every element but the unit, each exactly once
    assert sorted(reached) == sorted(x for x in group.elements if x != group.unit)


# ------------------------------------------ the presentation-routed oracle


TREES = {**GROUPOIDS, **{f"group-{name}": from_group(g) for name, g in GROUPS.items()}}


@pytest.mark.parametrize("name", TREES)
def test_the_index_tree_is_the_old_breadth_first_walk(name):
    """The generators, tree steps and off-tree pairs of ``_arrow_tree`` are
    those of the name walk, in its order, each staged at the last generator
    position its words use."""
    g = TREES[name]
    v = index_view(g)
    gens, steps, pairs = _arrow_tree(v)
    p, tree = old_arrow_presentation(g)
    edges = p.quiver.edges
    assert tuple(v.items[s] for s in gens) == edges

    def letters(w):
        return tuple(edges.index(e) for e, _ in w.letters)

    words = {g.id_of[x]: () for x in g.objects}
    for z, y, k in tree:
        words[z] = words[y] + (k,)
    assert [(at, v.items[z], v.items[y], k) for at, z, y, k in steps] == [
        (max(words[z], default=-1), z, y, k) for z, y, k in tree
    ]
    arrow_of = {(g.src[a], w): a for a, w in words.items()}
    assert [(at, v.items[y], k, v.items[z]) for at, y, k, z in pairs] == [
        (
            max(letters(lhs) + letters(rhs)),
            arrow_of[lhs.src, letters(lhs)[:-1]],
            letters(lhs)[-1],
            arrow_of[rhs.src, letters(rhs)],
        )
        for lhs, rhs in p.relations
    ]


def _candidates(g, h):
    """The candidates the functor search counts: per object map, the
    product of each generator's arrows between the images of its ends."""
    q = old_arrow_presentation(g)[0].quiver
    total = 0
    for images in product(h.objects, repeat=len(q.vertices)):
        at = dict(zip(q.vertices, images))
        total += prod(len(h.arrows_between(at[q.esrc[e]], at[q.etgt[e]])) for e in q.edges)
    return total


@pytest.mark.parametrize("gname", GROUPOIDS)
@pytest.mark.parametrize("hname", GROUPOIDS)
def test_the_functor_guard_refuses_as_the_presentation_routed_search(gname, hname):
    g, h = GROUPOIDS[gname], GROUPOIDS[hname]
    need = _candidates(g, h)
    for guard in (0, need - 1, need):
        new = _refusal(enumerate_morphisms, g, h, guard)
        assert repr(new) == repr(_refusal(pres_enumerate_morphisms, g, h, guard))
        assert isinstance(new, tuple) == (guard < need)


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("hname", ["c2", "c7", "s3", "s4"])
def test_the_group_hom_guard_refuses_as_the_presentation_routed_search(gname, hname):
    g, h = GROUPS[gname], GROUPS[hname]
    need = len(h) ** len(generating_set(g))
    new = _refusal(group_homs, g, h, need - 1)
    assert new == _refusal(pres_group_homs, g, h, need - 1)
    assert new == (f"presentation morphism search needs more than {need - 1} candidates",
                   need, need - 1)
    assert _refusal(group_homs, g, h, need) == _refusal(pres_group_homs, g, h, need)


@pytest.mark.parametrize("gname", GROUPOIDS)
@pytest.mark.parametrize("hname", GROUPOIDS)
def test_generator_images_are_the_presentation_blocks(gname, hname):
    g, h = GROUPOIDS[gname], GROUPOIDS[hname]
    p, _ = old_arrow_presentation(g)
    blocks = {}
    for f in enumerate_morphisms(g, h):
        vimg = tuple(f.obj_map[x] for x in g.objects)
        blocks.setdefault(vimg, []).append(tuple(f.arrow_map[s] for s in p.quiver.edges))
    assert _morphism_blocks(p, h) == list(blocks.items())


UNREADABLE = {
    "not total": {"comp": {k: v for k, v in INTERVAL.comp.items() if k != ("i", "i_inv")}},
    "leaves the carrier": {"comp": {**INTERVAL.comp, ("i", "i_inv"): "x"}},
    "bad endpoints": {"src": {**INTERVAL.src, "i": 7}},
    "no identity": {"id_of": {0: "id0"}},
    "no inverse": {"inv": {**INTERVAL.inv, "i": "i"}},
}


@pytest.mark.parametrize("damage", UNREADABLE)
def test_a_groupoid_index_view_cannot_read_raises_its_error(damage):
    broken = replace(INTERVAL, **UNREADABLE[damage])
    with pytest.raises(ValidationError) as info:
        index_view(broken)
    want = (str(info.value), info.value.witness)
    for args in ((broken, BATTERY["c2"]), (BATTERY["c2"], broken)):
        with pytest.raises(ValidationError) as info:
            enumerate_morphisms(*args)
        assert (str(info.value), info.value.witness) == want


def test_a_lawless_group_is_rejected_by_its_validation():
    c2 = GROUPS["c2"]
    broken = replace(c2, table={**c2.table, (1, 1): 1})
    with pytest.raises(ValidationError) as info:
        replace(broken).validate()
    want = (str(info.value), info.value.witness)
    for args in ((broken, c2), (c2, broken)):
        with pytest.raises(ValidationError) as info:
            group_homs(*args)
        assert (str(info.value), info.value.witness) == want


# ----------------------------------------------- pushouts and rewriting


SPANS = {
    "two-arc circle": two_arc_circle_span,
    "wedge": wedge_span,
    "c2 free product": c2_free_product_span,
    "glued loops": glued_loops_span,
}


@pytest.mark.parametrize("name", SPANS)
def test_pushout_matches_the_old_union_find(name):
    sq = SPANS[name]()
    assert pushout(sq.f, sq.g) == old_pushout(sq.f, sq.g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pushout_of_drawn_vertex_maps_matches_the_old_union_find(data):
    nu = data.draw(st.integers(1, 4))
    nv = data.draw(st.integers(1, 4))
    nw = data.draw(st.integers(0, 4))
    u = presentation(quiver(range(nu), [("a", 0, nu - 1)]))
    v = presentation(quiver(range(nv), [("b", nv - 1, 0)]))
    w = presentation(quiver(range(nw), []))
    fmap = data.draw(st.lists(st.integers(0, nu - 1), min_size=nw, max_size=nw))
    gmap = data.draw(st.lists(st.integers(0, nv - 1), min_size=nw, max_size=nw))
    f = PresentationMorphism(source=w, target=u, vmap=dict(enumerate(fmap)), emap={})
    g = PresentationMorphism(source=w, target=v, vmap=dict(enumerate(gmap)), emap={})
    assert pushout(f, g) == old_pushout(f, g)


def _letters(draw, size):
    return draw(
        st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from((1, -1))), max_size=size)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rewrite_search_matches_the_old_queue(data):
    q = quiver(("*",), [("x", "*", "*"), ("y", "*", "*")])
    nrel = data.draw(st.integers(1, 3))
    relations = [
        (
            word(q, _letters(data.draw, 4), at="*"),
            word(q, _letters(data.draw, 3), at="*"),
        )
        for _ in range(nrel)
    ]
    p = presentation(q, relations)
    # a start that is a product of relation loops reaches the empty word
    loops = data.draw(st.lists(st.sampled_from(relations), max_size=2))
    start = word(q, _letters(data.draw, 3), at="*")
    for lhs, rhs in loops:
        start = start.concat(lhs.concat(rhs.inverse()))
    start = free_reduce(start)
    goal = data.draw(
        st.sampled_from([empty_word("*"), free_reduce(word(q, _letters(data.draw, 5), at="*"))])
    )
    max_length = data.draw(st.integers(2, 8))
    # every step bound, so that cutting a level short at any word shows
    # the order in which the candidates are queued
    for max_steps in range(1, 40):
        args = (p, start, goal, max_steps, max_length)
        assert _bounded_rewrite_search(*args) == old_bounded_rewrite_search(*args)
