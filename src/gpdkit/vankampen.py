"""Fundamental groupoids of finite 2-complexes on chosen base points, and
the pushout square induced by a two-piece cover.

A 2-complex is a quiver plus faces, each face a closed word over the edge
quiver.  A complex is validated on first read, then kept: its view is
``(edge quiver, fbase, frows)``, the checked edge quiver (whose own view
holds its int rows) and each face's base vertex index and boundary word
as a tuple of signed edge indexes (see ``presentations``).  ``complex2``,
the parser and ``restrict`` build every complex the library makes
through ``_complex_on``, from rows: ``complex2`` reads its words with
the presentations' one word reader, the parser reads its tokens, and
``restrict`` renumbers its complex's rows.  Their ``fboundary`` is one
read-only mapping that names a boundary word when it is read.
``validate`` reads the words of a hand-built complex into the same rows
and leaves its dict as it is.

A selection of cells takes one path: ``_flags`` flags the named cells by
index, refusing every name that is no cell of its kind; ``_close`` closes
the flags under incidence, or refuses a cover piece that is not closed;
``_subcomplex`` names them, and ``_covering`` keeps W = U ∩ V once U and
V cover every cell.  ``close_cells``, ``cover``, ``restrict`` and
``SubcomplexCover.validate`` take it, and ``check_cover`` reads the int
rows.

The fundamental groupoid on a base-point set S is presented by
contracting a breadth-first spanning forest rooted at S: edges outside
the forest become generators, face boundaries (rewritten through the
forest on their int rows) become relations, named at the end from one
letter table.

For a cover X = U ∪ V with W = U ∩ V and S meeting every component of U,
V, and W, the square of inclusion-induced morphisms is pushed out at the
presentation level and compared against the directly computed presentation
of X: a generator-level bridge morphism is produced, and precomposition
with it must biject morphism sets into every finite battery target.  The
evidence is relative to the battery used and the report says which one.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress
from operator import and_, not_, or_

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
    _letter_table,
    _morphism_blocks,
    _named,
    _read,
    _reduced,
    _restriction,
    _retracted,
    empty_word,
    pushout,
    quiver,
    spanning_tree,
    vertex_group_presentation,
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
    # ``(edge quiver, fbase, frows)``, kept once every face is checked (see
    # the module docstring); raw and ``replace``d complexes start without it.
    _view: tuple = field(default=None, init=False, compare=False, repr=False)

    def edge_quiver(self):
        return self.validate()._view[0]

    def validate(self):
        """Check the edge quiver and every face boundary, read the words
        into int rows and keep them, so a second call is free."""
        if self._view is not None:
            return self
        q = Quiver(vertices=self.vertices, edges=self.edges, esrc=self.esrc, etgt=self.etgt)
        faces = ((f, self.fboundary.get(f), None) for f in self.faces)
        object.__setattr__(self, "_view", (q.validate(), *_read_faces(q, self.faces, faces)))
        return self


def _read_faces(q, names, faces):
    """The base vertex indexes and the rows of the boundaries of the faces
    ``names``, no two alike, each a closed word over the checked quiver
    ``q``, as tuples.  ``faces`` gives each face, in order, as ``(face,
    word, read)``: its boundary ``Word`` to check (None when it has none),
    or ``read``, the ``(src, tgt, row)`` its letters were read into."""
    _distinct(names)
    fbase, frows = [], []
    for f, w, read in faces:
        if read is None:
            if w is None:
                raise ValidationError("face without boundary", witness=f)
            read = _check_word(q, w, "malformed boundary word", (f, w))
        src, tgt, row = read
        if src != tgt:
            raise ValidationError(
                "boundary word is not closed", witness=(f, _named(q, *read) if w is None else w)
            )
        fbase.append(src)
        frows.append(row)
    return tuple(fbase), tuple(frows)


class _Boundaries(Mapping):
    """The boundary words of a complex read off its int rows: a read-only
    mapping from face to ``Word``, each word named when it is read."""

    __slots__ = ("_q", "_faces", "_at", "_fbase", "_frows")

    def __init__(self, q, faces, fbase, frows):
        self._q, self._faces, self._fbase, self._frows = q, faces, fbase, frows
        self._at = {f: i for i, f in enumerate(faces)}

    def __getitem__(self, f):
        i = self._at[f]
        return _named(self._q, self._fbase[i], self._fbase[i], self._frows[i])

    def __iter__(self):
        return iter(self._faces)

    def __len__(self):
        return len(self._faces)

    def __repr__(self):
        return repr(dict(self))


def complex2(vertices, edges, faces=()):
    """Build a complex from edge triples and ``(face, boundary)`` pairs,
    where a boundary is a ``Word`` or a letter list and letters are
    ``(edge, sign)``.  Every boundary is checked: the letter lists first,
    read as ``word`` reads them, then each face as ``Complex2.validate``
    checks it.  The complex keeps the rows read, and its ``fboundary`` is
    the read-only mapping that names them."""
    q = quiver(vertices, edges)
    faces = [
        (f, w, None) if isinstance(w, Word) else (f, None, _read(q, list(w))[:3])
        for f, w in faces
    ]
    names = tuple(f for f, _, _ in faces)
    return _complex_on(q, names, *_read_faces(q, names, faces))


def _complex_on(q, faces, fbase, frows):
    """The complex on the checked edge quiver ``q`` whose faces ``faces``,
    no two alike, have the base vertex indexes ``fbase`` and the boundary
    rows ``frows``, each a chain of signed edge indexes from its base
    vertex; its ``fboundary`` names the rows when read.  A row that does
    not end on its base vertex is refused."""
    faces, fbase, frows = tuple(faces), tuple(fbase), tuple(frows)
    _, _, src, tgt = q._view
    far = tgt + src[::-1]  # the vertex each signed letter ends at
    for f, b, row in zip(faces, fbase, frows):
        if row and far[row[-1]] != b:
            raise ValidationError(
                "boundary word is not closed", witness=(f, _named(q, b, far[row[-1]], row))
            )
    x = Complex2(
        vertices=q.vertices,
        edges=q.edges,
        esrc=q.esrc,
        etgt=q.etgt,
        faces=faces,
        fboundary=_Boundaries(q, faces, fbase, frows),
    )
    object.__setattr__(x, "_view", (q, fbase, frows))
    return x


def _distinct(faces):
    if len(set(faces)) != len(faces):
        raise ValidationError("duplicate faces", witness=faces)


@dataclass(frozen=True)
class Subcomplex:
    """An incidence-closed selection of cells, kept in the ambient order."""

    vertices: tuple
    edges: tuple
    faces: tuple


def _flags(x, pieces, kinds=((0,), (1,), (2,))):
    """The cells of the checked complex ``x`` that each piece names, as
    flags by index of each kind (vertices, edges, faces).  A piece holds a
    run of names per entry of ``kinds``, and a name is flagged as each cell
    of the kinds in its entry that it names: a ``Subcomplex``'s vertices,
    edges and faces, or, with ``kinds`` ``((0, 1, 2),)``, one run of cells
    of any kind.  The names that name no cell, unhashable ones among them,
    are refused at once over every piece, sorted by ``str`` (each once
    when all are hashable)."""
    vpos, epos = x._view[0]._view[:2]
    maps = (vpos, epos, {f: i for i, f in enumerate(x.faces)})
    out, strays = [], []
    for piece in pieces:
        flags = [bytearray(len(m)) for m in maps]
        for run, names in zip(kinds, piece):
            for c in names:
                hit = False
                try:
                    for k in run:
                        i = maps[k].get(c)
                        if i is not None:
                            flags[k][i] = hit = True
                except TypeError:  # an unhashable name is no cell
                    pass
                if not hit:
                    strays.append(c)
        out.append(flags)
    if strays:
        try:
            strays = set(strays)
        except TypeError:  # an unhashable name: each name as it comes
            pass
        raise ValidationError("cells not in the complex", witness=tuple(sorted(strays, key=str)))
    return out


def _close(x, flags, piece=None):
    """Close the selection ``flags`` of the checked complex ``x`` under
    incidence, in place, and return it: each face brings its edges (its
    vertex, for an empty boundary), then each edge its ends.  With a
    ``piece`` named, a selection that is not closed is refused instead,
    naming its first cell whose boundary leaves it (a face, in face and
    letter order, before an edge) and the cell missing."""
    q, fbase, frows = x._view
    _, _, src, tgt = q._view
    vertices, edges, faces = flags

    def gap(cell, missing):
        return ValidationError("cover piece is not incidence-closed", witness=(piece, cell, missing))

    for i in compress(range(len(faces)), faces):
        for j in frows[i]:
            k = j if j >= 0 else ~j
            if not edges[k]:
                if piece is not None:
                    raise gap(x.faces[i], x.edges[k])
                edges[k] = 1
        if not frows[i] and not vertices[fbase[i]]:
            if piece is not None:
                raise gap(x.faces[i], x.vertices[fbase[i]])
            vertices[fbase[i]] = 1
    for j in compress(range(len(edges)), edges):
        for v in (src[j], tgt[j]):
            if not vertices[v]:
                if piece is not None:
                    raise gap(x.edges[j], x.vertices[v])
                vertices[v] = 1
    return flags


def close_cells(x, cells):
    """Close a cell selection under incidence: faces bring their boundary
    edges, edges their endpoints."""
    (flags,) = _flags(x.validate(), [(cells,)], ((0, 1, 2),))
    return _subcomplex(x, _close(x, flags))


def _subcomplex(x, flags):
    vertices, edges, faces = flags
    return Subcomplex(
        vertices=tuple(compress(x.vertices, vertices)),
        edges=tuple(compress(x.edges, edges)),
        faces=tuple(compress(x.faces, faces)),
    )


def restrict(x, sub):
    """The complex on the cells of ``sub``, each a cell of ``x`` of its kind.

    Its face rows are those of ``x`` renumbered, so no word is named or
    walked again; a face whose boundary leaves ``sub`` is refused as its
    word would be ("malformed letter" on the first letter off ``sub``, or
    "empty word needs a vertex")."""
    xq, fbase, frows = x.validate()._view
    _flags(x, [(sub.vertices, sub.edges, sub.faces)])
    q = Quiver(
        vertices=sub.vertices,
        edges=sub.edges,
        esrc={e: x.esrc[e] for e in sub.edges},
        etgt={e: x.etgt[e] for e in sub.edges},
    ).validate()
    _distinct(sub.faces)
    base, rows = [], []
    if sub.faces:
        vpos, epos = q._view[:2]
        keep = [epos.get(e) for e in xq.edges]  # by signed index
        keep += [None if k is None else ~k for k in reversed(keep)]
        fpos = {f: i for i, f in enumerate(x.faces)}
        for f in sub.faces:
            i = fpos[f]
            row = tuple(map(keep.__getitem__, frows[i]))
            if None in row:
                j = frows[i][row.index(None)]
                raise ValidationError("malformed letter", witness=_letter_table(xq.edges)[j])
            b = vpos.get(xq.vertices[fbase[i]])
            if b is None:
                raise ValidationError("empty word needs a vertex", witness=xq.vertices[fbase[i]])
            base.append(b)
            rows.append(row)
    return _complex_on(q, sub.faces, base, rows)


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
        """Check that U and V hold only cells of X, are each
        incidence-closed and together hold every cell, and keep W."""
        if self._view is not None:
            return self
        x = self.x.validate()
        pieces = _flags(x, [(sub.vertices, sub.edges, sub.faces) for sub in (self.u, self.v)])
        for name, flags in zip("UV", pieces):
            _close(x, flags, name)
        return _covering(self, *pieces)


def _covering(c, u, v):
    """Keep W for the cover ``c`` of its checked complex, whose U and V are
    the incidence-closed selections flagged ``u`` and ``v``, once they hold
    every cell."""
    x, w = c.x, {}
    for kind, cells, a, b in zip(("vertices", "edges", "faces"),
                                 (x.vertices, x.edges, x.faces), u, v):
        if 0 in map(or_, a, b):
            missed = [c for c, i, j in zip(cells, a, b) if not (i or j)]
            raise ValidationError(
                f"cover misses {kind}", witness=tuple(sorted(missed, key=str))
            )
        w[kind] = tuple(compress(cells, map(and_, a, b)))
    object.__setattr__(c, "_view", Subcomplex(**w))
    return c


def cover(x, u_cells, v_cells):
    """The cover of ``x`` by the closures of two cell selections; closed
    as built, it is checked only for holding every cell."""
    x.validate()
    u, v = (_close(x, *_flags(x, [(cells,)], ((0, 1, 2),))) for cells in (u_cells, v_cells))
    return _covering(SubcomplexCover(x=x, u=_subcomplex(x, u), v=_subcomplex(x, v)), u, v)


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    missed: tuple  # (piece name, component vertex tuple)
    pieces: tuple  # (piece name, component count)


def check_cover(c, base):
    """Check the theorem's hypothesis: the base-point set meets every
    component of U, V, and W, found on the complex's int rows."""
    c.validate()
    base = tuple(base)
    bad = [b for b in base if b not in c.x.vertices]
    if bad:
        raise ValidationError("base points outside the complex", witness=tuple(bad))
    vpos, epos, src, tgt = c.x._view[0]._view
    at = {vpos[b] for b in base}
    missed = []
    pieces = []
    for name, sub in (("U", c.u), ("V", c.v), ("W", c.w)):
        blocks = skeleton_components(
            list(map(vpos.__getitem__, sub.vertices)), map(epos.__getitem__, sub.edges), src, tgt
        )
        pieces.append((name, len(blocks)))
        for block in blocks:
            if at.isdisjoint(block):
                missed.append((name, tuple(c.x.vertices[i] for i in block)))
    return CoverReport(ok=not missed, missed=tuple(missed), pieces=tuple(pieces))


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
