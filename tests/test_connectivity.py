"""Differential tests: the union-find components and the indexed spanning
forest against the edge-rescanning walkers they replaced.

The oracles below rescan every edge for each vertex they visit, which is
O(V·E) but obviously right; the library must agree with them exactly,
block order, forest paths and generator order included.

``old_spanning_tree`` is the body ``spanning_tree`` had while it built its
incident lists inside the walk, kept verbatim as an oracle for the walk on
the incidence that ``Quiver.validate`` builds and keeps.  The library's
forest is now int arrays (parent pointers, roots, tree-edge flags); it is
compared through ``name_keyed.named_forest``, which reads it back as the
old paths, roots and tree edges, and against ``name_keyed.spanning_tree``,
the walk on the named incidence it replaced.
"""

import random
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gpdkit.core import ValidationError, skeleton_components
from gpdkit.presentations import (
    GroupPresentation,
    empty_word,
    presentation,
    quiver,
    spanning_tree,
    vertex_group_presentation,
    word,
)
from gpdkit.documents import parse_document
from gpdkit.vankampen import fundamental_groupoid
from gpdkit.vankampen import skeleton_components as vankampen_components
from name_keyed import named_forest
from name_keyed import spanning_tree as name_keyed_spanning_tree

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Grid  # noqa: E402


def oracle_components(vertices, edges, esrc, etgt):
    order = {v: i for i, v in enumerate(vertices)}
    seen = set()
    blocks = []
    for start in vertices:
        if start in seen:
            continue
        block = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for e in edges:
                for s, t in ((esrc[e], etgt[e]), (etgt[e], esrc[e])):
                    if s == v and t not in block:
                        block.add(t)
                        frontier.append(t)
        seen |= block
        blocks.append(tuple(sorted(block, key=lambda v: order[v])))
    return tuple(blocks)


def oracle_spanning_tree(q, roots):
    vorder = {v: i for i, v in enumerate(q.vertices)}
    roots = sorted(roots, key=lambda v: vorder[v])
    paths = {r: () for r in roots}
    root_of = {r: r for r in roots}
    tree_edges = set()
    queue = list(roots)
    while queue:
        v = queue.pop(0)
        for e in q.edges:
            if q.esrc[e] == v and q.etgt[e] not in paths:
                w = q.etgt[e]
                paths[w] = paths[v] + ((e, 1),)
                root_of[w] = root_of[v]
                tree_edges.add(e)
                queue.append(w)
            elif q.etgt[e] == v and q.esrc[e] not in paths:
                w = q.esrc[e]
                paths[w] = paths[v] + ((e, -1),)
                root_of[w] = root_of[v]
                tree_edges.add(e)
                queue.append(w)
    return paths, root_of, tree_edges


def oracle_component_of(q, x):
    seen = {x}
    frontier = [x]
    while frontier:
        v = frontier.pop()
        for e in q.edges:
            for s, t in ((q.esrc[e], q.etgt[e]), (q.etgt[e], q.esrc[e])):
                if s == v and t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return seen


def oracle_vertex_group_presentation(p, x):
    q = p.quiver
    comp = oracle_component_of(q, x)
    vorder = {v: i for i, v in enumerate(q.vertices)}
    root = min(comp, key=lambda v: vorder[v])
    paths, _, tree_edges = oracle_spanning_tree(q, [root])
    generators = tuple(
        e for e in q.edges if e not in tree_edges and q.esrc[e] in comp
    )

    def rewrite(w):
        out = []
        for e, s in w.letters:
            if e in tree_edges:
                continue
            if out and out[-1] == (e, -s):
                out.pop()
            else:
                out.append((e, s))
        return tuple(out)

    relators = []
    dropped = []
    for lhs, rhs in p.relations:
        if lhs.src not in comp:
            dropped.append((lhs, rhs))
            continue
        rel = rewrite(lhs.concat(rhs.inverse()))
        if rel:
            relators.append(rel)
    return GroupPresentation(
        generators=generators,
        relators=tuple(relators),
        dropped_relations=tuple(dropped),
    )


@st.composite
def quivers(draw):
    """Small quivers with vertices declared in a shuffled order; small
    vertex counts make self-loops, parallel edges and isolated vertices
    common."""
    n = draw(st.integers(1, 8))
    vertices = tuple(draw(st.permutations(range(n))))
    ends = st.sampled_from(vertices)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=12))
    return quiver(vertices, [(f"e{i}", s, t) for i, (s, t) in enumerate(pairs)])


def _walk(q, start, choices):
    """A word from ``start`` that takes, at each step, the incident letter
    picked by the next choice (stopping at a vertex with no edges)."""
    letters = []
    v = start
    for c in choices:
        options = [(e, 1) for e in q.edges if q.esrc[e] == v]
        options += [(e, -1) for e in q.edges if q.etgt[e] == v]
        if not options:
            break
        letters.append(options[c % len(options)])
        v = q.letter_tgt(letters[-1])
    return word(q, letters, at=start)


@st.composite
def presentations(draw):
    """A presentation over a random quiver whose relations are the
    coterminal pairs among random walks, plus every closed walk set equal
    to the empty word."""
    q = draw(quivers())
    steps = st.lists(st.integers(0, 20), max_size=6)
    walks = [
        _walk(q, draw(st.sampled_from(q.vertices)), draw(steps))
        for _ in range(draw(st.integers(0, 6)))
    ]
    relations = [(w, empty_word(w.src)) for w in walks if w.src == w.tgt]
    relations += [
        (u, w) for u in walks for w in walks
        if u is not w and (u.src, u.tgt) == (w.src, w.tgt)
    ]
    return presentation(q, relations)


@settings(max_examples=300, deadline=None)
@given(quivers())
def test_components_match_oracle(q):
    want = oracle_components(q.vertices, q.edges, q.esrc, q.etgt)
    assert skeleton_components(q.vertices, q.edges, q.esrc, q.etgt) == want
    assert vankampen_components(q.vertices, q.edges, q.esrc, q.etgt) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_spanning_forest_matches_oracle(data):
    q = data.draw(quivers())
    roots = data.draw(st.lists(st.sampled_from(q.vertices), max_size=4))
    paths, root_of, tree_edges = named_forest(q, spanning_tree(q, roots))
    want_paths, want_root_of, want_tree_edges = oracle_spanning_tree(q, roots)
    assert paths == want_paths
    assert root_of == want_root_of
    assert tree_edges == want_tree_edges
    assert (paths, root_of, tree_edges) == name_keyed_spanning_tree(q, roots)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vertex_group_presentation_matches_oracle(data):
    p = data.draw(presentations())
    x = data.draw(st.sampled_from(p.quiver.vertices))
    assert vertex_group_presentation(p, x) == oracle_vertex_group_presentation(p, x)


@pytest.mark.parametrize(
    "roots, witness",
    [(["zz"], "zz"), ([0, "zz"], "zz"), (["zz", 0, "yy"], "zz"), ([1, [0]], [0])],
)
def test_a_root_that_is_not_a_vertex_is_named(roots, witness):
    q = quiver((0, 1), [("a", 0, 1)])
    with pytest.raises(ValidationError) as info:
        spanning_tree(q, roots)
    assert (str(info.value), info.value.witness) == ("no such vertex", witness)


@pytest.mark.parametrize("x", ["zz", [0]])
def test_a_vertex_group_at_a_vertex_the_quiver_lacks_is_refused(x):
    p = presentation(quiver((0, 1), [("a", 0, 1)]))
    with pytest.raises(ValidationError) as info:
        vertex_group_presentation(p, x)
    assert (str(info.value), info.value.witness) == ("no such vertex", x)


def old_spanning_tree(q, roots):
    """Breadth-first forest rooted at ``roots``: maps each reached vertex to
    the path of signed tree letters from its root, and lists tree edges.

    Roots are processed in vertex order, edges in input order, so the
    forest (and everything built from it) is deterministic.
    """
    vorder = {v: i for i, v in enumerate(q.vertices)}
    roots = sorted(roots, key=lambda v: vorder[v])
    # (edge, sign, far end) per vertex, in edge input order; a loop is
    # listed once, at its source.
    incident = {v: [] for v in q.vertices}
    for e in q.edges:
        s, t = q.esrc[e], q.etgt[e]
        incident[s].append((e, 1, t))
        if t != s:
            incident[t].append((e, -1, s))
    paths = {r: () for r in roots}
    root_of = {r: r for r in roots}
    tree_edges = set()
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        for e, sign, w in incident[v]:
            if w not in paths:
                paths[w] = paths[v] + ((e, sign),)
                root_of[w] = root_of[v]
                tree_edges.add(e)
                queue.append(w)
    return paths, root_of, tree_edges


def _complex_walks():
    """(label, quiver, root sets): the edge quiver and the fundamental
    groupoid's quiver of ``torus-bands.cx`` and of seeded torus grids, each
    with no root, every root, and every pair of roots (on a grid's edge
    quiver, seeded sets of two to five roots instead)."""
    data = Path(__file__).parent / "data" / "torus-bands.cx"
    complexes = [("torus-bands", parse_document(data.read_text(encoding="utf-8")).payload)]
    rng = random.Random(61)
    for n, components in ((8, 1), (10, 2), (12, 3)):
        text = "\n".join(["kind: complex", *Grid(rng, n, components).complex_lines()]) + "\n"
        complexes.append((f"grid-n{n}", parse_document(text).payload))
    out = []
    for label, x in complexes:
        eq = x.edge_quiver()
        blocks = skeleton_components(eq.vertices, eq.edges, eq.esrc, eq.etgt)
        base = [v for block in blocks for v in block[:: max(1, len(block) // 2)]]
        for kind, q in (("edges", eq), ("groupoid", fundamental_groupoid(x, base).quiver)):
            roots = [(), *((v,) for v in q.vertices)]
            if label == "torus-bands" or len(q.vertices) < 6:
                roots += combinations(q.vertices, 2)
            else:
                roots += [rng.sample(q.vertices, rng.randint(2, 5)) for _ in range(40)]
            out.append((f"{label}-{kind}", q, roots))
    return out


WALKS = _complex_walks()


@pytest.mark.parametrize("label, q, roots", WALKS, ids=[w[0] for w in WALKS])
def test_the_split_walk_matches_the_walk_that_built_its_lists(label, q, roots):
    for r in roots:
        want = old_spanning_tree(q, r)
        assert name_keyed_spanning_tree(q, r) == want, (label, r)
        assert named_forest(q, spanning_tree(q, r)) == want, (label, r)
