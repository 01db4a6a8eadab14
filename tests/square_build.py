"""The bodies that building the van Kampen square on int rows replaced,
kept as oracles for the tests (this module holds no tests itself).

``vkt_square`` used to restrict X to each piece by name, present each
piece and the whole with ``_fundamental``, build the inclusions and the
bridge from the named carrier words of ``ForestRetraction`` and check them
with ``PresentationMorphism.validate``; ``pushout`` renamed every relation
word with ``_rename_word`` and read each one back in ``presentation``;
``verify_pushout_universal`` counted the apex morphisms of every target by
their pair of restriction keys in a ``Counter``.  The bodies below are
those, kept verbatim but for the names they import.  ``ForestRetraction``,
once a public class of ``vankampen`` with a name-keyed carrier path
(``apply``, ``_into``, ``carrier_word``), now lives only here.
"""

from collections import Counter
from dataclasses import dataclass, fields
from itertools import compress
from operator import not_

from gpdkit.core import (
    DEFAULT_SIZE_GUARD,
    HypothesisError,
    ValidationError,
    battery,
    skeleton_components,
)
from gpdkit.presentations import (
    GroupoidPresentation,
    PresentationMorphism,
    PushoutSquare,
    Quiver,
    TargetUniversality,
    UniversalityReport,
    Word,
    _letter_table,
    _named,
    _reduced,
    _restricted,
    _restriction,
    _retracted,
    empty_word,
    enumerate_pres_morphisms,
    presentation,
    quiver,
    spanning_tree,
)
from gpdkit.vankampen import (
    VktResult,
    _evidence,
    check_cover,
    restrict,
)


# ------------------------------------------------------------ presentations


def _rename_word(w, vname, ename):
    return Word(vname[w.src], vname[w.tgt], tuple((ename[e], s) for e, s in w.letters))


def pushout(f, g):
    """Pushout of presentations along a common source.

    Vertices of U and V are tagged apart and then identified along the
    images of W's vertices; one relation ``f(e) = g(e)`` is added per
    generator of W.
    """
    if f.source != g.source:
        raise ValidationError("span legs have different sources")
    uq, vq = f.validate()._view[0], g.validate()._view[0]
    w, u, v = f.source, f.target, g.target
    wvs = w.quiver.vertices

    tagged = [("u", x) for x in uq.vertices] + [("v", x) for x in vq.vertices]
    blocks = skeleton_components(
        tagged,
        wvs,
        {x: ("u", f.vmap[x]) for x in wvs},
        {x: ("v", g.vmap[x]) for x in wvs},
    )
    # each block is named after its first tagged vertex
    vertices = [f"{tag}:{x}" for tag, x in (block[0] for block in blocks)]
    vname = {t: n for n, block in zip(vertices, blocks) for t in block}
    uvname = {x: vname["u", x] for x in uq.vertices}
    vvname = {x: vname["v", x] for x in vq.vertices}
    uename = {e: f"u:{e}" for e in uq.edges}
    vename = {e: f"v:{e}" for e in vq.edges}
    edges = [
        (uename[e], uvname[uq.esrc[e]], uvname[uq.etgt[e]]) for e in uq.edges
    ] + [
        (vename[e], vvname[vq.esrc[e]], vvname[vq.etgt[e]]) for e in vq.edges
    ]
    q = quiver(vertices, edges)

    relations = [
        (_rename_word(lhs, uvname, uename), _rename_word(rhs, uvname, uename))
        for lhs, rhs in u.relations
    ] + [
        (_rename_word(lhs, vvname, vename), _rename_word(rhs, vvname, vename))
        for lhs, rhs in v.relations
    ] + [
        (_rename_word(f.emap[e], uvname, uename), _rename_word(g.emap[e], vvname, vename))
        for e in w.quiver.edges
    ]
    apex = presentation(q, relations)

    inj_u, inj_v = (
        PresentationMorphism(
            source=p, target=apex, vmap=dict(vn),
            emap={e: Word(vn[pq.esrc[e]], vn[pq.etgt[e]], ((en[e], 1),)) for e in pq.edges},
        ).validate()
        for p, pq, vn, en in ((u, uq, uvname, uename), (v, vq, vvname, vename))
    )
    return PushoutSquare(
        w=w, u=u, v=v, f=f, g=g, apex=apex, inj_u=inj_u, inj_v=inj_v
    )


def verify_pushout_universal(square, targets=None, guard=DEFAULT_SIZE_GUARD):
    """Exhaustively verify the pushout's universal property against finite
    targets: every compatible pair of morphisms out of U and V admits
    exactly one mediating morphism out of the apex.

    Every apex morphism restricts to exactly one pair (its composites with
    the two injections), so counting apex morphisms by that pair of
    restriction keys gives each pair's mediator count by lookup.  The
    morphisms out of V are indexed by their restriction to W, so each
    morphism out of U meets only the morphisms out of V it is compatible
    with.  Per target this costs O(|U| + |V| + |apex| + pairs) restrictions,
    where |X| counts the morphisms out of X.  Pairs are visited in the
    order of the morphisms out of U, then out of V, and the first pair
    without exactly one mediator is the witness.  When every pair has one,
    the pairs must also exhaust the apex morphisms ("count-mismatch").

    The verdict is relative to the supplied target battery, and says so.
    """
    for part in fields(square):
        getattr(square, part.name).validate()
    if targets is None:
        targets = battery()
    results = []
    all_ok = True
    for tname, t in targets.items():
        mors_u = enumerate_pres_morphisms(square.u, t, guard)
        mors_v = enumerate_pres_morphisms(square.v, t, guard)
        mors_p = enumerate_pres_morphisms(square.apex, t, guard)
        over_w = {}
        for kv, kw in zip(mors_v, _restricted(_restriction(square.g), t, mors_v)):
            over_w.setdefault(kw, []).append(kv)
        mediators = Counter(
            zip(
                _restricted(_restriction(square.inj_u), t, mors_p),
                _restricted(_restriction(square.inj_v), t, mors_p),
            )
        )
        pairs = 0
        ok = True
        witness = None
        for ku, kw in zip(mors_u, _restricted(_restriction(square.f), t, mors_u)):
            for kv in over_w.get(kw, ()):
                pairs += 1
                n = mediators[ku, kv]
                if n != 1 and witness is None:
                    ok = False
                    witness = (ku, kv, n)
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


# ------------------------------------------------------------------ vankampen


@dataclass(frozen=True)
class ForestRetraction:
    """Contraction of a spanning forest rooted at the base points: sends a
    word over the complex's edges to a word over the surviving generators.

    ``parent``, ``root_of`` and ``tree`` are the int arrays of
    ``spanning_tree`` over the source quiver's view: the signed tree letter
    into each vertex index, the index of its root, and the tree-edge flags.
    """

    source_quiver: Quiver
    presentation_quiver: Quiver
    roots: tuple
    parent: list
    root_of: list
    tree: bytearray

    def apply(self, w):
        """The free reduction of ``w`` with its tree letters dropped, on the
        roots of its ends."""
        q = self.source_quiver
        vpos, epos = q._view[:2]
        root_of, tree, names = self.root_of, self.tree, q.vertices
        kept = [letter for letter in w.letters if not tree[epos[letter[0]]]]
        return Word(
            names[root_of[vpos[w.src]]], names[root_of[vpos[w.tgt]]], _reduced(kept)
        )

    def _into(self, v):
        """The tree path from the root of vertex ``v`` to ``v`` as a word,
        read up the parent pointers."""
        q, parent = self.source_quiver, self.parent
        vpos, _, src, tgt = q._view
        i = end = vpos[v]
        row = []
        while (j := parent[i]) is not None:
            row.append(j)
            i = src[j] if j >= 0 else tgt[~j]
        return _named(q, self.root_of[end], end, row[::-1])

    def carrier_word(self, e):
        """The loop-free word over the complex's edges that a generator
        stands for: tree path in, the edge, tree path back."""
        q = self.source_quiver
        s, t = q.esrc[e], q.etgt[e]
        middle = Word(s, t, ((e, 1),))
        return self._into(s).concat(middle).concat(self._into(t).inverse())


def _fundamental(x, base):
    """The presentation of the fundamental groupoid of ``x`` on ``base``,
    and the forest retraction that built it.

    The forest and the retraction run on the int rows of ``x``; the
    relations are named at the end from one letter table of the
    generators, so every letter of every relation is a shared tuple.  The
    presentation keeps its relator rows as its view at once, and its
    relations are not walked by ``validate``: they are valid over ``pq`` by
    construction.  A boundary row of ``x`` chains over its
    edge quiver and is closed.  A tree edge joins two vertices of one tree,
    so dropping its letters leaves each surviving letter starting
    on the root the previous one ends on, and its edge runs between the roots
    of its ends in ``pq``.  Free reduction cancels adjacent inverse letters
    and keeps that chaining.  The retracted word therefore runs from the
    root of the boundary's base point back to it, and the empty word there
    is the coterminal other side, one shared word per base point.
    """
    q, fbase, frows = x.validate()._view
    vpos, _, src, tgt = q._view
    base = tuple(dict.fromkeys(base))
    bad = [b for b in base if b not in x.vertices]
    if bad:
        raise ValidationError("base points outside the complex", witness=tuple(bad))
    parent, root_of, tree = spanning_tree(q, base)
    bset = set(base)
    if -1 in root_of:  # name the first component missed
        block = next(
            b for b in skeleton_components(x.vertices, x.edges, x.esrc, x.etgt)
            if bset.isdisjoint(b)
        )
        raise HypothesisError(f"base points miss a component: {block!r}", report=block)
    names = x.vertices
    at = sorted(map(vpos.__getitem__, bset))  # the roots' indexes, in vertex order
    roots = tuple(map(names.__getitem__, at))
    generators = list(compress(range(len(tree)), map(not_, tree)))
    edges = tuple(map(x.edges.__getitem__, generators))
    pq = Quiver(  # each generator runs between the roots of its ends
        vertices=roots,
        edges=edges,
        esrc={e: names[root_of[src[j]]] for e, j in zip(edges, generators)},
        etgt={e: names[root_of[tgt[j]]] for e, j in zip(edges, generators)},
    ).validate()
    relations, rows = [], []
    if frows:
        # each edge of x by signed index to its generator's, None on the tree
        keep = [None] * (2 * len(tree))
        for k, j in enumerate(generators):
            keep[j], keep[~j] = k, ~k
        rpos = {r: k for k, r in enumerate(at)}
        letters = _letter_table(pq.edges)
        empty = [empty_word(r) for r in roots]
        for b, row in zip(fbase, frows):
            r = rpos[root_of[b]]
            rel = _retracted(row, keep)
            rows.append((r, rel))
            relations.append((_named(pq, r, r, rel, letters), empty[r]))
    p = GroupoidPresentation(quiver=pq, relations=tuple(relations))
    object.__setattr__(p, "_view", tuple(rows))
    retraction = ForestRetraction(
        source_quiver=q,
        presentation_quiver=pq,
        roots=roots,
        parent=parent,
        root_of=root_of,
        tree=tree,
    )
    return p, retraction


def _inclusion_morphism(source_pres, source_ret, target_pres, target_ret):
    return PresentationMorphism(
        source=source_pres,
        target=target_pres,
        vmap={v: v for v in source_pres.quiver.vertices},
        emap={e: target_ret.apply(source_ret.carrier_word(e)) for e in source_pres.quiver.edges},
    ).validate()


def vkt_square(c, base, targets=None, guard=DEFAULT_SIZE_GUARD):
    """Compute the cover-induced pushout square and verify it presents the
    fundamental groupoid of the whole complex.

    Raises HypothesisError when the base-point set misses a component of
    U, V, or W (the report names the first missed component).
    """
    if targets is None:
        targets = battery()
    base = tuple(dict.fromkeys(base))
    report = check_cover(c, base)
    if not report.ok:
        piece, block = report.missed[0]
        raise HypothesisError(
            f"base points miss a component of {piece}: {block!r}", report=report
        )

    pieces = []
    for sub in (c.u, c.v, c.w):
        vset = set(sub.vertices)
        bsub = tuple(v for v in base if v in vset)
        pieces.append(_fundamental(restrict(c.x, sub), bsub))
    (pu, ru), (pv, rv), (pw, rw) = pieces

    f = _inclusion_morphism(pw, rw, pu, ru)
    g = _inclusion_morphism(pw, rw, pv, rv)
    square = pushout(f, g)

    direct, rx = _fundamental(c.x, base)

    hvmap, hemap = {}, {}
    for p, r, inj in ((pu, ru, square.inj_u), (pv, rv, square.inj_v)):
        hvmap.update((inj.vmap[s], s) for s in p.quiver.vertices)
        for e in p.quiver.edges:
            hemap[inj.emap[e].letters[0][0]] = rx.apply(r.carrier_word(e))
    bridge = PresentationMorphism(
        source=square.apex, target=direct, vmap=hvmap, emap=hemap
    ).validate()

    return VktResult(
        cover_report=report,
        base=base,
        square=square,
        direct=direct,
        bridge=bridge,
        evidence=_evidence(square.apex, direct, bridge, targets, guard),
        battery_names=tuple(targets.keys()),
    )
