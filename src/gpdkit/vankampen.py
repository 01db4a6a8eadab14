"""Fundamental groupoids of finite 2-complexes on chosen base points, and
the pushout square induced by a two-piece cover.

A 2-complex is a quiver plus faces, each face a closed word over the edge
quiver.  A complex is validated on first read, then kept: its view is its
edge quiver, kept once the faces pass the one check that ``validate``,
``complex2`` and the parser share.  So is a cover, keeping W = U ∩ V once
U and V cover every cell.  The fundamental groupoid on a
base-point set S is presented by contracting a breadth-first spanning
forest rooted at S: edges outside the forest become generators, face
boundaries (rewritten through the forest) become relations.

For a cover X = U ∪ V with W = U ∩ V and S meeting every component of U,
V, and W, the square of inclusion-induced morphisms is pushed out at the
presentation level and compared against the directly computed presentation
of X: a generator-level bridge morphism is produced, and precomposition
with it must biject morphism sets into every finite battery target.  The
evidence is relative to the battery used and the report says which one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    DEFAULT_SIZE_GUARD,
    HypothesisError,
    ValidationError,
    skeleton_components,
)
from .presentations import (
    GroupoidPresentation,
    PresentationMorphism,
    Quiver,
    Word,
    _check_word,
    _morphism_blocks,
    _restriction,
    _retracted,
    empty_word,
    pushout,
    quiver,
    spanning_tree,
    vertex_group_presentation,
    word,
)


@dataclass(frozen=True)
class Complex2:
    """Vertices, directed edges, and faces with closed boundary words."""

    vertices: tuple
    edges: tuple
    esrc: dict
    etgt: dict
    faces: tuple
    fboundary: dict
    # The checked edge quiver, kept once every face is checked; raw,
    # ``restrict``ed and ``replace``d complexes start without it.
    _view: Quiver = field(default=None, init=False, compare=False, repr=False)

    def edge_quiver(self):
        return self.validate()._view

    def validate(self):
        """Check the edge quiver and every face boundary, and keep the
        checked quiver, so a second call is free."""
        if self._view is not None:
            return self
        q = Quiver(vertices=self.vertices, edges=self.edges, esrc=self.esrc, etgt=self.etgt)
        return _checked_faces(self, q.validate(), words_checked=False)


def complex2(vertices, edges, faces=()):
    """Build a complex from edge triples and ``(face, boundary)`` pairs,
    where a boundary is a ``Word`` or a letter list and letters are
    ``(edge, sign)``.  Every boundary is checked."""
    q = quiver(vertices, edges)
    faces = [(f, w if isinstance(w, Word) else word(q, list(w))) for f, w in faces]
    return _complex_on(q, faces, words_checked=False)


def _complex_on(q, faces, words_checked):
    """The checked complex on edge quiver ``q`` with ``(face, boundary)``
    pairs ``faces``; the parser, having checked each word as it built it,
    passes ``words_checked``."""
    x = Complex2(
        vertices=q.vertices,
        edges=q.edges,
        esrc=q.esrc,
        etgt=q.etgt,
        faces=tuple(f for f, _ in faces),
        fboundary=dict(faces),
    )
    return _checked_faces(x, q, words_checked)


def _checked_faces(x, q, words_checked):
    """Check that the faces of ``x`` are distinct, each with a closed
    boundary word over ``q``, and keep ``q`` as the view of ``x``."""
    if len(set(x.faces)) != len(x.faces):
        raise ValidationError("duplicate faces", witness=x.faces)
    for f in x.faces:
        w = x.fboundary.get(f)
        if w is None:
            raise ValidationError("face without boundary", witness=f)
        if not words_checked:
            _check_word(q, w, "malformed boundary word", (f, w))
        if w.src != w.tgt:
            raise ValidationError("boundary word is not closed", witness=(f, w))
    object.__setattr__(x, "_view", q)
    return x


@dataclass(frozen=True)
class Subcomplex:
    """An incidence-closed selection of cells, kept in the ambient order."""

    vertices: tuple
    edges: tuple
    faces: tuple


def close_cells(x, cells):
    """Close a cell selection under incidence: faces bring their boundary
    edges, edges their endpoints."""
    cells = set(cells)
    faces = tuple(f for f in x.faces if f in cells)
    edges = set(e for e in x.edges if e in cells)
    for f in faces:
        for e, _ in x.fboundary[f].letters:
            edges.add(e)
    vertices = set(v for v in x.vertices if v in cells)
    for e in edges:
        vertices.add(x.esrc[e])
        vertices.add(x.etgt[e])
    for f in x.faces:
        if f in cells and not x.fboundary[f].letters:
            vertices.add(x.fboundary[f].src)
    _refuse_unknown(cells - set(x.vertices) - set(x.edges) - set(x.faces))
    return Subcomplex(
        vertices=tuple(v for v in x.vertices if v in vertices),
        edges=tuple(e for e in x.edges if e in edges),
        faces=faces,
    )


def _refuse_unknown(cells):
    if cells:
        raise ValidationError(
            "cells not in the complex", witness=tuple(sorted(cells, key=str))
        )


def restrict(x, sub):
    """The complex on the cells of ``sub``, each a cell of ``x`` of its kind."""
    _refuse_unknown(
        (set(sub.vertices) - set(x.vertices))
        | (set(sub.edges) - set(x.edges))
        | (set(sub.faces) - set(x.faces))
    )
    return Complex2(
        vertices=sub.vertices,
        edges=sub.edges,
        esrc={e: x.esrc[e] for e in sub.edges},
        etgt={e: x.etgt[e] for e in sub.edges},
        faces=sub.faces,
        fboundary={f: x.fboundary[f] for f in sub.faces},
    )


@dataclass(frozen=True)
class SubcomplexCover:
    """X = U ∪ V with W = U ∩ V, all three incidence-closed."""

    x: Complex2
    u: Subcomplex
    v: Subcomplex
    # W, kept once the cover is checked; raw and ``replace``d covers start
    # without it.
    _view: Subcomplex = field(default=None, init=False, compare=False, repr=False)

    @property
    def w(self):
        return self.validate()._view

    def validate(self):
        if self._view is not None:
            return self
        self.x.validate()
        w = {}
        for kind in ("vertices", "edges", "faces"):
            in_u, in_v = set(getattr(self.u, kind)), set(getattr(self.v, kind))
            cells = getattr(self.x, kind)
            if in_u | in_v != set(cells):
                raise ValidationError(
                    f"cover misses {kind}",
                    witness=tuple(sorted(set(cells) - in_u - in_v, key=str)),
                )
            w[kind] = tuple(a for a in cells if a in in_u and a in in_v)
        object.__setattr__(self, "_view", Subcomplex(**w))
        return self


def cover(x, u_cells, v_cells):
    return SubcomplexCover(x=x, u=close_cells(x, u_cells), v=close_cells(x, v_cells)).validate()


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    missed: tuple  # (piece name, component vertex tuple)
    pieces: tuple  # (piece name, component count)


def check_cover(c, base):
    """Check the theorem's hypothesis: the base-point set meets every
    component of U, V, and W."""
    c.validate()
    base = tuple(base)
    bad = [b for b in base if b not in c.x.vertices]
    if bad:
        raise ValidationError("base points outside the complex", witness=tuple(bad))
    bset = set(base)
    missed = []
    pieces = []
    for name, sub in (("U", c.u), ("V", c.v), ("W", c.w)):
        blocks = skeleton_components(sub.vertices, sub.edges, c.x.esrc, c.x.etgt)
        pieces.append((name, len(blocks)))
        for block in blocks:
            if not bset & set(block):
                missed.append((name, block))
    return CoverReport(ok=not missed, missed=tuple(missed), pieces=tuple(pieces))


@dataclass(frozen=True)
class ForestRetraction:
    """Contraction of a spanning forest rooted at the base points: sends a
    word over the complex's edges to a word over the surviving generators."""

    source_quiver: Quiver
    presentation_quiver: Quiver
    roots: tuple
    paths: dict
    root_of: dict
    tree_edges: frozenset

    def apply(self, w):
        """The free reduction of ``w`` with its tree letters dropped, on the
        roots of its ends."""
        root_of = self.root_of
        return Word(root_of[w.src], root_of[w.tgt], _retracted(w.letters, self.tree_edges))

    def carrier_word(self, e):
        """The loop-free word over the complex's edges that a generator
        stands for: tree path in, the edge, tree path back."""
        q = self.source_quiver
        s, t = q.esrc[e], q.etgt[e]
        into = Word(self.root_of[s], s, self.paths[s])
        back = Word(self.root_of[t], t, self.paths[t])
        middle = Word(s, t, ((e, 1),))
        return into.concat(middle).concat(back.inverse())


def _fundamental(x, base):
    """The presentation of the fundamental groupoid of ``x`` on ``base``,
    and the forest retraction that built it.

    The presentation keeps ``pq`` as its view at once, and its relations
    are not walked by ``validate``: they are valid over ``pq`` by
    construction.  A boundary word of ``x`` chains over its
    edge quiver and is closed.  A tree edge joins two vertices of one tree,
    so dropping its letters leaves each surviving letter ``(e, s)`` starting
    on the root the previous one ends on, and ``e`` runs between the roots
    of its ends in ``pq``.  Free reduction cancels adjacent inverse letters
    and keeps that chaining.  The retracted word therefore runs from the
    root of the boundary's base point back to it, and the empty word there
    is the coterminal other side, one shared word per base point.
    """
    q = x.edge_quiver()
    base = tuple(dict.fromkeys(base))
    bad = [b for b in base if b not in x.vertices]
    if bad:
        raise ValidationError("base points outside the complex", witness=tuple(bad))
    paths, root_of, tree_edges = spanning_tree(q, base)
    bset = set(base)
    if len(paths) < len(x.vertices):  # name the first component missed
        block = next(
            b for b in skeleton_components(x.vertices, x.edges, x.esrc, x.etgt)
            if bset.isdisjoint(b)
        )
        raise HypothesisError(f"base points miss a component: {block!r}", report=block)
    generators = tuple(e for e in x.edges if e not in tree_edges)
    pq = quiver(
        tuple(v for v in x.vertices if v in bset),
        [(e, root_of[x.esrc[e]], root_of[x.etgt[e]]) for e in generators],
    )
    retraction = ForestRetraction(
        source_quiver=q,
        presentation_quiver=pq,
        roots=tuple(v for v in x.vertices if v in bset),
        paths=paths,
        root_of=root_of,
        tree_edges=frozenset(tree_edges),
    )
    empty = {r: empty_word(r) for r in retraction.roots}
    relations = []
    for f in x.faces:
        w = retraction.apply(x.fboundary[f])
        relations.append((w, empty[w.src]))
    p = GroupoidPresentation(quiver=pq, relations=tuple(relations))
    object.__setattr__(p, "_view", pq)
    return p, retraction


def fundamental_groupoid(x, base):
    """Present the fundamental groupoid of ``x`` on the base-point set.

    The set must be nonempty and meet every component of the 1-skeleton;
    a missed component is named in the raised HypothesisError.
    """
    if not tuple(base):
        raise HypothesisError("base-point set is empty")
    return _fundamental(x, base)[0]


def pi1(x, base, v):
    """Vertex group presentation of the fundamental groupoid at ``v``."""
    base = tuple(dict.fromkeys(base))
    if v not in x.vertices:
        raise ValidationError("no such vertex", witness=v)
    if v not in base:
        raise ValidationError("vertex is not a base point", witness=v)
    return vertex_group_presentation(fundamental_groupoid(x, base), v)


@dataclass(frozen=True)
class TargetEvidence:
    target: str
    apex_morphisms: int
    direct_morphisms: int
    ok: bool


@dataclass(frozen=True)
class VktResult:
    """The computed square and its isomorphism evidence.

    ``square`` holds the piece presentations and their pushout; ``direct``
    is the independently computed presentation of the whole complex;
    ``bridge`` maps apex generators to direct generators, and ``evidence``
    records, per battery target, whether precomposition with the bridge
    bijects the morphism sets.  The two sides are compared per vertex
    image, as lists in the order the search enumerates them; only where
    the lists differ, as when the bridge reorders generators, are the edge
    images hashed and compared as sets.
    """

    cover_report: CoverReport
    base: tuple
    square: object
    direct: GroupoidPresentation
    bridge: PresentationMorphism
    evidence: tuple
    battery_names: tuple

    @property
    def evidence_ok(self):
        return all(t.ok for t in self.evidence)


def _inclusion_morphism(source_pres, source_ret, target_pres, target_ret):
    return PresentationMorphism(
        source=source_pres,
        target=target_pres,
        vmap={v: v for v in source_pres.quiver.vertices},
        emap={e: target_ret.apply(source_ret.carrier_word(e)) for e in source_pres.quiver.edges},
    ).validate()


def _evidence(apex, direct, bridge, targets, guard):
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


def vkt_square(c, base, targets=None, guard=DEFAULT_SIZE_GUARD):
    """Compute the cover-induced pushout square and verify it presents the
    fundamental groupoid of the whole complex.

    Raises HypothesisError when the base-point set misses a component of
    U, V, or W (the report names the first missed component).
    """
    from .core import battery

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
