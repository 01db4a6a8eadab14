"""The bodies that one word reader, one boundary form and one cell
selection path replaced, kept as oracles for the tests (this module holds
no tests itself).

``complex2`` used to build its words with ``word``, keep them in a dict,
and check them again in ``_read_faces``, which turned each word into a
row with ``_row`` and left the closure check to ``_checked_faces``.  A
selection of cells went through eight helpers: ``_flags``, ``_strays``,
``_close``, ``_closed_flags``, ``_subcomplex``, ``_refuse_unknown``,
``_refuse_open`` and ``_covering``, behind ``close_cells``, ``cover``,
``restrict`` and ``SubcomplexCover.validate`` (here ``validate_cover``).
The bodies below are those, kept verbatim but for the names they import:
the old ``word`` and ``_check_word`` are ``word_oracle`` and
``check_word_oracle`` of ``test_words``, and ``_letter`` and ``_row``,
gone from the library, are kept here as they were.
"""

from itertools import compress
from operator import and_, or_

from gpdkit.core import ValidationError
from gpdkit.presentations import Quiver, Word, quiver
from gpdkit.vankampen import Complex2, Subcomplex, SubcomplexCover, _complex_on, _distinct
from test_words import check_word_oracle, word_oracle


def _letter(edges, j):
    """The named letter of signed index ``j`` over ``edges``."""
    return (edges[j], 1) if j >= 0 else (edges[~j], -1)


def _row(epos, letters):
    """Named letters as signed edge indexes."""
    return tuple(epos[e] if s > 0 else ~epos[e] for e, s in letters)


def _read_faces(x, q):
    """Check the boundary words of ``x`` over its checked edge quiver ``q``
    and read them into int rows, which ``x`` keeps."""
    vpos, epos = q._view[:2]
    _distinct(x.faces)
    fbase, frows = [], []
    for f in x.faces:
        w = x.fboundary.get(f)
        if w is None:
            raise ValidationError("face without boundary", witness=f)
        check_word_oracle(q, w, "malformed boundary word", (f, w))
        if w.src != w.tgt:
            raise ValidationError("boundary word is not closed", witness=(f, w))
        fbase.append(vpos[w.src])
        frows.append(_row(epos, w.letters))
    return _checked_faces(x, q, fbase, frows)


def complex2(vertices, edges, faces=()):
    """Build a complex from edge triples and ``(face, boundary)`` pairs,
    where a boundary is a ``Word`` or a letter list and letters are
    ``(edge, sign)``.  Every boundary is checked."""
    q = quiver(vertices, edges)
    faces = [(f, w if isinstance(w, Word) else word_oracle(q, list(w))) for f, w in faces]
    x = Complex2(
        vertices=q.vertices,
        edges=q.edges,
        esrc=q.esrc,
        etgt=q.etgt,
        faces=tuple(f for f, _ in faces),
        fboundary=dict(faces),
    )
    return _read_faces(x, q)


def _checked_faces(x, q, fbase, frows):
    """Check that each row of ``x``, read over ``q``, ends on its base
    vertex, and keep ``(q, fbase, frows)`` as the view of ``x``."""
    _, _, src, tgt = q._view
    far = tgt + src[::-1]  # the vertex each signed letter ends at
    for f, b, row in zip(x.faces, fbase, frows):
        if row and far[row[-1]] != b:
            raise ValidationError("boundary word is not closed", witness=(f, x.fboundary[f]))
    object.__setattr__(x, "_view", (q, tuple(fbase), tuple(frows)))
    return x


def _flags(x, vertices, edges, faces):
    """The named cells of the checked complex ``x``, of each kind, as flags
    by index."""
    vpos, epos = x._view[0]._view[:2]
    flags = [bytearray(len(vpos)), bytearray(len(epos)), bytearray(len(x.faces))]
    for c in vertices:
        flags[0][vpos[c]] = 1
    for c in edges:
        flags[1][epos[c]] = 1
    if faces:
        fpos = {f: i for i, f in enumerate(x.faces)}
        for c in faces:
            flags[2][fpos[c]] = 1
    return flags


def _strays(x, sub):
    """The cells of ``sub`` that are no cell of the checked complex ``x``
    of their kind."""
    vpos, epos = x._view[0]._view[:2]
    return {
        *set(sub.vertices).difference(vpos), *set(sub.edges).difference(epos),
        *set(sub.faces).difference(x.faces),
    }


def _close(x, vertices, edges, faces):
    """Add to the selection flagged the boundary of each cell in it, in
    place: a face's edges (its vertex, for an empty boundary), then each
    edge's ends."""
    q, fbase, frows = x._view
    _, _, src, tgt = q._view
    for i in compress(range(len(faces)), faces):
        for j in frows[i]:
            edges[j if j >= 0 else ~j] = 1
        if not frows[i]:
            vertices[fbase[i]] = 1
    for j in compress(range(len(edges)), edges):
        vertices[src[j]] = vertices[tgt[j]] = 1


def close_cells(x, cells):
    """Close a cell selection under incidence: faces bring their boundary
    edges, edges their endpoints."""
    return _subcomplex(x, _closed_flags(x, cells))


def _closed_flags(x, cells):
    """The flags of the closure of the cells named in ``cells``."""
    vpos, epos = x.validate()._view[0]._view[:2]
    cells = set(cells)
    faces = cells.intersection(x.faces)
    _refuse_unknown(cells - vpos.keys() - epos.keys() - faces)
    flags = _flags(x, cells & vpos.keys(), cells & epos.keys(), faces)
    _close(x, *flags)
    return flags


def _subcomplex(x, flags):
    vertices, edges, faces = flags
    return Subcomplex(
        vertices=tuple(compress(x.vertices, vertices)),
        edges=tuple(compress(x.edges, edges)),
        faces=tuple(compress(x.faces, faces)),
    )


def _refuse_unknown(cells):
    if cells:
        raise ValidationError(
            "cells not in the complex", witness=tuple(sorted(cells, key=str))
        )


def restrict(x, sub):
    """The complex on the cells of ``sub``, each a cell of ``x`` of its kind.

    Its face rows are those of ``x`` renumbered, so no word is named or
    walked again; a face whose boundary leaves ``sub`` is refused as its
    word would be ("malformed letter" on the first letter off ``sub``, or
    "empty word needs a vertex")."""
    xq, fbase, frows = x.validate()._view
    _refuse_unknown(_strays(x, sub))
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
                raise ValidationError("malformed letter", witness=_letter(xq.edges, j))
            b = vpos.get(xq.vertices[fbase[i]])
            if b is None:
                raise ValidationError("empty word needs a vertex", witness=xq.vertices[fbase[i]])
            base.append(b)
            rows.append(row)
    return _complex_on(q, sub.faces, base, rows)


def validate_cover(self):
    """Check that U and V hold only cells of X, are each
    incidence-closed and together hold every cell, and keep W."""
    if self._view is not None:
        return self
    x = self.x.validate()
    _refuse_unknown(_strays(x, self.u) | _strays(x, self.v))
    pieces = []
    for name, sub in (("U", self.u), ("V", self.v)):
        flags = _flags(x, sub.vertices, sub.edges, sub.faces)
        closed = [bytearray(f) for f in flags]
        _close(x, *closed)
        if closed != flags:
            _refuse_open(x, name, *flags)
        pieces.append(flags)
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


def _refuse_open(x, piece, vertices, edges, faces):
    """Refuse ``piece``, naming its first cell whose boundary leaves it (a
    face, in face and letter order, before an edge) and the cell missing."""
    q, fbase, frows = x._view
    _, _, src, tgt = q._view
    gaps = []
    for f, b, row in compress(zip(x.faces, fbase, frows), faces):
        if row:
            gaps += [(f, x.edges[k]) for k in (j if j >= 0 else ~j for j in row) if not edges[k]]
        elif not vertices[b]:
            gaps.append((f, x.vertices[b]))
    for e, s, t in compress(zip(x.edges, src, tgt), edges):
        gaps += [(e, x.vertices[v]) for v in (s, t) if not vertices[v]]
    raise ValidationError("cover piece is not incidence-closed", witness=(piece, *gaps[0]))


def cover(x, u_cells, v_cells):
    """The cover of ``x`` by the closures of two cell selections; closed
    as built, it is checked only for holding every cell."""
    u, v = _closed_flags(x, u_cells), _closed_flags(x, v_cells)
    return _covering(SubcomplexCover(x=x, u=_subcomplex(x, u), v=_subcomplex(x, v)), u, v)
