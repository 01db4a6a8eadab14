"""Fundamental groupoids of finite 2-complexes on chosen base points, and
the pushout square induced by a two-piece cover.

A 2-complex is a quiver plus faces, each face a closed word over the edge
quiver.  The fundamental groupoid on a base-point set S is presented by
contracting a breadth-first spanning forest rooted at S: edges outside the
forest become generators, face boundaries (rewritten through the forest)
become relations.

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
    empty_word,
    free_reduce,
    presentation,
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
    # Set by a successful ``validate``; ``init=False`` keeps raw construction,
    # ``restrict`` and ``dataclasses.replace`` from inheriting it.
    _validated: bool = field(default=False, init=False, compare=False, repr=False)
    # The edge quiver, built on first use or handed over by ``_complex_on``.
    _quiver: Quiver = field(default=None, init=False, compare=False, repr=False)

    def edge_quiver(self):
        if self._quiver is None:
            object.__setattr__(self, "_quiver", Quiver(
                vertices=self.vertices, edges=self.edges, esrc=self.esrc, etgt=self.etgt
            ))
        return self._quiver

    def validate(self):
        """Check the edge quiver and every face boundary; a successful check
        is remembered, so a second call is free."""
        if self._validated:
            return self
        q = self.edge_quiver().validate()
        if len(set(self.faces)) != len(self.faces):
            raise ValidationError("duplicate faces", witness=self.faces)
        for f in self.faces:
            w = self.fboundary.get(f)
            if w is None:
                raise ValidationError("face without boundary", witness=f)
            _check_word(q, w, "malformed boundary word", (f, w))
            if w.src != w.tgt:
                raise ValidationError("boundary word is not closed", witness=(f, w))
        object.__setattr__(self, "_validated", True)
        return self


def complex2(vertices, edges, faces=()):
    """Build a complex from edge triples and ``(face, boundary)`` pairs,
    where a boundary is a letter list and letters are ``(edge, sign)``."""
    return _complex_on(quiver(vertices, edges), faces)


def _complex_on(q, faces):
    """The complex on a checked edge quiver ``q``, kept as its own."""
    fids = tuple(f for f, _ in faces)
    fboundary = {}
    for f, letters in faces:
        if isinstance(letters, Word):
            fboundary[f] = letters
        else:
            fboundary[f] = word(q, list(letters))
    x = Complex2(
        vertices=q.vertices,
        edges=q.edges,
        esrc=q.esrc,
        etgt=q.etgt,
        faces=fids,
        fboundary=fboundary,
    )
    object.__setattr__(x, "_quiver", q)
    return x.validate()


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
    unknown = cells - set(x.vertices) - set(x.edges) - set(x.faces)
    if unknown:
        raise ValidationError(
            "cells not in the complex", witness=tuple(sorted(unknown, key=str))
        )
    return Subcomplex(
        vertices=tuple(v for v in x.vertices if v in vertices),
        edges=tuple(e for e in x.edges if e in edges),
        faces=faces,
    )


def restrict(x, sub):
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

    @property
    def w(self):
        ue, ve = set(self.u.edges), set(self.v.edges)
        uv, vv = set(self.u.vertices), set(self.v.vertices)
        uf, vf = set(self.u.faces), set(self.v.faces)
        return Subcomplex(
            vertices=tuple(a for a in self.x.vertices if a in uv and a in vv),
            edges=tuple(e for e in self.x.edges if e in ue and e in ve),
            faces=tuple(f for f in self.x.faces if f in uf and f in vf),
        )

    def validate(self):
        self.x.validate()
        for kind, have in (
            ("vertices", set(self.u.vertices) | set(self.v.vertices)),
            ("edges", set(self.u.edges) | set(self.v.edges)),
            ("faces", set(self.u.faces) | set(self.v.faces)),
        ):
            want = set(getattr(self.x, kind))
            if have != want:
                raise ValidationError(
                    f"cover misses {kind}", witness=tuple(sorted(want - have, key=str))
                )
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
    base = tuple(base)
    bad = [b for b in base if b not in c.x.vertices]
    if bad:
        raise ValidationError("base points outside the complex", witness=tuple(bad))
    bset = set(base)
    missed = []
    pieces = []
    for name, sub in (("U", c.u), ("V", c.v), ("W", c.w)):
        blocks = skeleton_components(
            sub.vertices, sub.edges,
            {e: c.x.esrc[e] for e in sub.edges},
            {e: c.x.etgt[e] for e in sub.edges},
        )
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
        letters = tuple(
            (e, s) for e, s in w.letters if e not in self.tree_edges
        )
        return free_reduce(
            Word(src=self.root_of[w.src], tgt=self.root_of[w.tgt], letters=letters)
        )

    def carrier_word(self, e):
        """The loop-free word over the complex's edges that a generator
        stands for: tree path in, the edge, tree path back."""
        q = self.source_quiver
        into = Word(
            src=self.root_of[q.esrc[e]], tgt=q.esrc[e], letters=self.paths[q.esrc[e]]
        )
        back = Word(
            src=self.root_of[q.etgt[e]], tgt=q.etgt[e], letters=self.paths[q.etgt[e]]
        )
        middle = Word(src=q.esrc[e], tgt=q.etgt[e], letters=((e, 1),))
        return into.concat(middle).concat(back.inverse())


def _fundamental(x, base):
    x.validate()
    base = tuple(dict.fromkeys(base))
    bad = [b for b in base if b not in x.vertices]
    if bad:
        raise ValidationError("base points outside the complex", witness=tuple(bad))
    q = x.edge_quiver()
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
    relations = []
    for f in x.faces:
        w = retraction.apply(x.fboundary[f])
        relations.append((w, empty_word(w.src)))
    return presentation(pq, relations), retraction


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
    emap = {}
    for e in source_pres.quiver.edges:
        emap[e] = target_ret.apply(source_ret.carrier_word(e))
    return PresentationMorphism(
        source=source_pres,
        target=target_pres,
        vmap={v: v for v in source_pres.quiver.vertices},
        emap=emap,
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
    c.validate()
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

    hvmap = {}
    for s in pu.quiver.vertices:
        hvmap[square.inj_u.vmap[s]] = s
    for s in pv.quiver.vertices:
        hvmap[square.inj_v.vmap[s]] = s
    hemap = {}
    for e in pu.quiver.edges:
        hemap[square.inj_u.emap[e].letters[0][0]] = rx.apply(ru.carrier_word(e))
    for e in pv.quiver.edges:
        hemap[square.inj_v.emap[e].letters[0][0]] = rx.apply(rv.carrier_word(e))
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
