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
rows.  Faces are found by the index ``_complex_on`` builds once with the
view (``_faces_at``).

The fundamental groupoid on a base-point set S is presented by
contracting a breadth-first spanning forest rooted at S: edges outside
the forest become generators, face boundaries (rewritten through the
forest on their int rows) become relations, named at the end from one
letter table.  ``_fundamental`` presents the whole complex (its forest is
``spanning_tree``'s) and ``_piece`` a piece of a cover, both through
``_presented``, as one tuple: the forest, the presentation, the
generators and the two index maps the carriers are retracted through.
Every base-point set is read by ``_base_points``, which refuses a point
that is no vertex, hashable or not: "base points outside the complex".

For a cover X = U ∪ V with W = U ∩ V and S meeting every component of U,
V, and W, the square of inclusion-induced morphisms is pushed out at the
presentation level and compared against the directly computed presentation
of X: a generator-level bridge morphism is produced, and precomposition
with it must biject morphism sets into every finite battery target.  The
evidence is relative to the battery used and the report says which one.

The square is built on X's int rows and each word is named once: each
piece is read off them in the cover's order, each carrier (tree path in,
the edge, tree path back) retracted through the target piece's forest is
an image row of an inclusion or the bridge, and ``pushout`` builds on the
legs' rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import and_, eq, indexOf, invert, or_

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
    _incidence,
    _letter_table,
    _morphism_on,
    _morphism_runs,
    _named,
    _presentation_on,
    _read,
    _restriction,
    _retracted,
    _walk,
    empty_word,
    pushout,
    quiver,
    spanning_tree,
    vertex_group_presentation,
)

__all__ = [
    "Complex2",
    "CoverReport",
    "Subcomplex",
    "SubcomplexCover",
    "TargetEvidence",
    "VktResult",
    "check_cover",
    "close_cells",
    "complex2",
    "cover",
    "fundamental_groupoid",
    "pi1",
    "restrict",
    "vkt_square",
]


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
    of any kind.  Each run is read once, so an iterator of names is taken
    as its list would be, then as a set.  The names that name no cell,
    unhashable ones among them, are refused at once over every piece,
    sorted by ``str`` (each once when all are hashable)."""
    vpos, epos = x._view[0]._view[:2]
    maps = (vpos, epos, _faces_at(x))
    out, strays = [], []
    for piece in pieces:
        flags = [bytearray(len(m)) for m in maps]
        for run, names in zip(kinds, piece):
            names = list(names)
            try:
                named, whole = set(names), True
            except TypeError:  # an unhashable name is no cell
                named, whole = set(filter(_hashable, names)), False
            found = set()
            for k in run:
                cells, at = flags[k], maps[k]
                hits = named & at.keys()
                found |= hits
                for c in hits:
                    cells[at[c]] = 1
            if not whole or len(found) < len(named):  # the loose names, as they come
                strays += [c for c in names if not (_hashable(c) and c in found)]
        out.append(flags)
    if strays:
        try:
            strays = set(strays)
        except TypeError:  # an unhashable name: each name as it comes
            pass
        raise ValidationError("cells not in the complex", witness=tuple(sorted(strays, key=str)))
    return out


def _faces_at(x):
    """Each face's index in the checked complex ``x``: the one ``_complex_on``
    keeps in ``fboundary``, or, for a hand-built dict, built here."""
    b = x.fboundary
    if type(b) is _Boundaries and b._faces is x.faces:
        return b._at
    return dict(zip(x.faces, range(len(x.faces))))


def _hashable(c):
    try:
        hash(c)
    except TypeError:
        return False
    return True


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
        fpos = _faces_at(x)
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
    vpos, epos, src, tgt = c.x._view[0]._view
    at = set(_base_points(c.x, base)[1])
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


def _base_points(x, base):
    """The distinct points of the base-point set ``base`` of the checked
    complex ``x``, in order, and their vertex indexes.  The points that are
    no vertex, unhashable ones included, are refused together, each named
    once, in the order they first come."""
    vpos = x._view[0]._view[0]
    base = tuple(base)
    try:
        at = dict(zip(base, map(vpos.__getitem__, base)))
    except (KeyError, TypeError):  # a point that is no vertex, or unhashable
        bad = [b for b in base if not (_hashable(b) and b in vpos)]
        bad = [b for i, b in enumerate(bad) if b not in bad[:i]]  # each once, unhashable or not
        raise ValidationError("base points outside the complex", witness=tuple(bad)) from None
    return tuple(at), tuple(at.values())


def _fundamental(x, base):
    """``_piece`` for the whole of ``x`` on ``base``: the forest, then what
    ``_presented`` gives, the presentation of the fundamental groupoid
    first.  A base point outside ``x`` is refused, and so is a base set
    that misses a component, naming the first one missed (found on the
    int rows)."""
    q, _, frows = x.validate()._view
    vpos, _, src, tgt = q._view
    base, at = _base_points(x, base)
    forest = spanning_tree(q, base)
    if -1 in forest[1]:  # name the first component missed: its vertices have no root
        block = next(
            b for b in skeleton_components(range(len(vpos)), range(len(src)), src, tgt)
            if forest[1][b[0]] < 0
        )
        block = tuple(map(x.vertices.__getitem__, block))
        raise HypothesisError(f"base points miss a component: {block!r}", report=block)
    return (forest, *_presented(x, forest, sorted(at), range(len(src)), range(len(frows))))


def _presented(x, forest, at, es, fs):
    """``(p, generators, keep, rpos)`` for the piece of the checked complex
    ``x`` with the edges ``es`` and faces ``fs`` (indexes, in its order),
    contracted along its ``forest`` rooted at the vertex indexes ``at``:
    its presentation, the edges off the forest, each signed edge index's
    generator (None off them) and each root's index among the vertices.

    Each face row is retracted (tree letters dropped, freely reduced) and
    named at the end from one letter table.  Dropping the letters of a tree
    edge, which joins two vertices of one tree, leaves each letter starting
    on the root the one before ends on, so the row is a closed word at its
    base point's root: the relations, and so the relator rows the
    presentation keeps as its view at once, are valid by construction."""
    q, fbase, frows = x._view
    _, _, src, tgt = q._view
    _, root_of, tree = forest
    names = x.vertices
    roots = tuple(map(names.__getitem__, at))
    generators = [j for j in es if not tree[j]]
    edges = tuple(map(x.edges.__getitem__, generators))
    pq = Quiver(  # each generator runs between the roots of its ends
        vertices=roots,
        edges=edges,
        esrc={e: names[root_of[src[j]]] for e, j in zip(edges, generators)},
        etgt={e: names[root_of[tgt[j]]] for e, j in zip(edges, generators)},
    ).validate()
    keep = [None] * (2 * len(tree))  # by signed index, None off the generators
    for k, j in enumerate(generators):
        keep[j], keep[~j] = k, ~k
    rpos = {r: k for k, r in enumerate(at)}
    relations, rows = [], []
    if fs:
        letters = _letter_table(edges)
        empty = [empty_word(r) for r in roots]
        for i in fs:
            r = rpos[root_of[fbase[i]]]
            rel = _retracted(frows[i], keep)
            rows.append((r, rel))
            relations.append((_named(pq, r, r, rel, letters), empty[r]))
    return _presentation_on(pq, relations, rows), generators, keep, rpos


def fundamental_groupoid(x, base):
    """Present the fundamental groupoid of ``x`` on the base-point set.

    The set must be nonempty and meet every component of the 1-skeleton;
    a missed component is named in the raised HypothesisError.
    """
    base = tuple(base)
    if not base:
        raise HypothesisError("base-point set is empty")
    return _fundamental(x, base)[1]


def pi1(x, base, v):
    """Vertex group presentation of the fundamental groupoid at ``v``."""
    base = tuple(base)
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
    ``bridge`` maps apex generators to direct generators (each to its
    carrier in U or V, retracted through the forest of X), and ``evidence``
    records, per battery target, whether precomposition with the bridge
    bijects the morphism sets.  The two sides are compared per vertex
    image, in lockstep in the order the search enumerates them; only where
    they differ, as when the bridge reorders generators, are the edge
    images of that vertex image listed again and compared as sets.
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


def _evidence(apex, direct, bridge, targets, guard):
    """Per target, whether precomposition with ``bridge`` (apex -> direct)
    bijects the morphisms out of ``direct`` onto those out of ``apex``.

    Nothing is listed: each apex run is walked in lockstep with the
    composites that land on its vertex images, both sides counted and each
    pair dropped once compared.  Only a run with a pair that differs (a
    bridge that reorders generators) is read again, from fresh runs, and
    compared as a set.  Each composite lands on the vertex images of an
    apex run, so when every run matches as a set, the composites cover
    every apex morphism and nothing else; both searches list each morphism
    once, so equal totals then make the covering a bijection."""
    evidence, along = [], None
    for tname, t in targets.items():
        runs, direct_runs = _morphism_runs(apex, t, guard), _morphism_runs(direct, t, guard)
        along = along or _restriction(bridge)  # once, after two searches: their errors first
        pulled, fresh = _runs(along(t), direct_runs), None
        ok, apex_morphisms, direct_morphisms = True, 0, 0
        for i, (vimg, eimgs) in enumerate(runs):
            # Up to the first pair that differs; the runs match when that is
            # the pair of their ends, which equal nothing else.
            xs, ys = chain(eimgs, [0]), chain(pulled.get(vimg, ()), [1])
            a = d = indexOf(map(eq, xs, ys), False)
            if next(xs, None) is not None or next(ys, None) is not None:
                fresh = fresh or (
                    _morphism_runs(apex, t, guard),
                    _runs(along(t), _morphism_runs(direct, t, guard)),
                )
                eimgs, composites = list(fresh[0][i][1]), list(fresh[1].get(vimg, ()))
                ok = ok and set(eimgs) == set(composites)
                a, d = len(eimgs), len(composites)
            apex_morphisms += a
            direct_morphisms += d
        ok = ok and apex_morphisms == direct_morphisms
        evidence.append(TargetEvidence(tname, apex_morphisms, direct_morphisms, ok))
    return tuple(evidence)


def _runs(restrict, direct_runs):
    """The composites under ``restrict`` of the ``direct_runs``, chained
    per vertex images: what ``_evidence`` walks beside the apex's runs."""
    pulled = {}
    for vimg, composites in map(restrict, direct_runs):
        pulled.setdefault(vimg, []).append(composites)
    return {vimg: chain.from_iterable(its) for vimg, its in pulled.items()}


def _piece(x, sub, at):
    """``(forest, *_presented(...))`` for the cells ``sub`` of the checked
    complex ``x``, in ``sub``'s order, on the base points they hold, given
    as the set ``at`` of vertex indexes: what ``_fundamental`` gives on
    ``restrict(x, sub)``, which refuses a cell named twice as this does."""
    q = x._view[0]
    vpos, epos, src, tgt = q._view
    cells = (
        list(map(vpos.__getitem__, sub.vertices)),
        list(map(epos.__getitem__, sub.edges)),
        list(map(_faces_at(x).__getitem__, sub.faces)),
    )
    for kind, found in zip(("vertices", "edges", "faces"), cells):
        if len(set(found)) != len(found):
            raise ValidationError(f"duplicate {kind}", witness=getattr(sub, kind))
    vs, es, fs = cells
    roots = [v for v in vs if v in at]
    forest = _walk(_incidence(q, es), tgt + src[::-1], list(roots))
    return (forest, *_presented(x, forest, roots, es, fs))


def _carriers(x, piece, target):
    """Each generator of ``piece`` as ``(start vertex index, row)`` in the
    presentation of the piece ``target`` that holds it: its carrier (the
    tree path in from its start's root, the edge, the tree path back to
    its end's root), retracted through the forest of ``target`` (tree
    letters dropped, freely reduced)."""
    (parent, root_of, _), _, generators, _, _ = piece
    (_, troot_of, _), _, _, keep, rpos = target
    _, _, src, tgt = x._view[0]._view

    def up(v):  # the tree letters from vertex v up to its root
        row = []
        while (j := parent[v]) is not None:
            row.append(j)
            v = src[j] if j >= 0 else tgt[~j]
        return row

    return [
        (
            rpos[troot_of[root_of[src[j]]]],
            _retracted([*reversed(up(src[j])), j, *map(invert, up(tgt[j]))], keep),
        )
        for j in generators
    ]


def vkt_square(c, base, targets=None, guard=DEFAULT_SIZE_GUARD):
    """Compute the cover-induced pushout square and verify it presents the
    fundamental groupoid of the whole complex.

    Raises HypothesisError when the base-point set misses a component of
    U, V, or W (the report names the first missed component).
    """
    from .core import battery

    if targets is None:
        targets = battery()
    base, at = _base_points(c.validate().x, base)
    report = check_cover(c, base)
    if not report.ok:
        piece, block = report.missed[0]
        raise HypothesisError(
            f"base points miss a component of {piece}: {block!r}", report=report
        )

    x = c.x
    u, v, w = (_piece(x, sub, set(at)) for sub in (c.u, c.v, c.w))
    whole = _fundamental(x, base)
    pw, direct = w[1], whole[1]
    f, g = (
        _morphism_on(pw, p[1], {s: s for s in pw.quiver.vertices}, _carriers(x, w, p))
        for p in (u, v)
    )
    square = pushout(f, g)
    # each apex vertex back to the base point it names
    hvmap = {a: s for inj in (square.inj_u, square.inj_v) for s, a in inj.vmap.items()}
    bridge = _morphism_on(
        square.apex, direct, hvmap, _carriers(x, u, whole) + _carriers(x, v, whole)
    )

    return VktResult(
        cover_report=report,
        base=base,
        square=square,
        direct=direct,
        bridge=bridge,
        evidence=_evidence(square.apex, direct, bridge, targets, guard),
        battery_names=tuple(targets.keys()),
    )
