"""Squares over a crossed module, with two compositions satisfying the
interchange law, plus cubes over a group and the unit-collapse
(Eckmann-Hilton) check.

A square has four boundary arrows and a label from the crossed module:

          top
       o ------> o
  left |         | right        label n, based at the bottom-right
       v         v              corner: mu(n) = bottom^-1 left^-1 top right
       o ------> o
         bottom

All composition is diagrammatic ("first then second").  Horizontal
composition pastes a second square onto the right edge, vertical
composition onto the bottom edge; labels combine through the action:

  hcompose  label = n^(second.bottom) * m
  vcompose  label = m * n^(second.right)

where n labels the first square and m the second.

A commutative square in a group g is a thin square over the trivial
crossed module: ``make_square(trivial_xmod(g), unit, top, left, right,
bottom)`` with ``unit`` the fibre's only element, accepted exactly when
left-then-bottom equals top-then-right.  Its pastings are ``hcompose`` and
``vcompose``, so rows of commutative squares and the flattened cube fold
with the same code as every other square.

Inside the module a square is the int tuple ``(label, top, left, right,
bottom)``: the label's index in the fibre at the bottom-right corner and
the edges' arrow indexes, read through the crossed module's ``XModView``
(``CrossedModule._view``, read on the first square and kept; the base is
validated on first read, then kept, as every group and groupoid is).
Their inverses are the tables', as validation rejects a contradicting
``inverse`` or ``inv`` map.  One kernel does
``make_square``'s checks, both pastings, the grid folds,
``interchange_check``, ``commutative_cube_check``, ``from_xmod``'s
blocks and ``to_xmod``'s fibre tables and action on these tuples; a
``LabeledSquare`` is built only where a square leaves the library, and
``to_xmod`` names each result by the carrier's own square.  The public
functions take and return ``LabeledSquare``s and wrap the kernel, and
every error keeps its text and its witness in names.  A cube check reads
the group's own view and folds its thin squares on the trivial module's
view built from it.

A square enters the kernel one way, through ``_indexed``, which checks it
as ``make_square`` does; a 5-tuple that is not a square is rejected there
with ``make_square``'s error.  So every square the pastings see frames:
its top and left edges share their source, right starts where top ends,
bottom starts where left ends, and right and bottom end at the corner
whose fibre holds the label.  When ``s1.right == s2.left`` the tops
compose (top1 ends where right1 starts, which is where top2 starts), the
bottoms compose (bottom1 ends where right1 ends, which is where bottom2
starts), ``s1``'s label lies in the fibre ``s2.bottom`` acts on, and the
composite frames again; the vertical case is the mirror image.  So the
pastings need no "arrows do not compose" branch, and labels never move
between fibres by name.  The nine thin squares ``commutative_cube_check``
writes as int tuples frame by construction, and ``to_xmod`` reads the
carrier's squares through ``_indexed``.

``LabeledSquare`` is a NamedTuple whose ``repr``, ``str`` and ``hash`` are
the frozen dataclass's it replaced; it equals the 5-tuple of its fields,
unpacks and orders like it, and is copied with ``s._replace(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import NamedTuple

from .core import (
    DEFAULT_SIZE_GUARD,
    CompositionError,
    HypothesisError,
    SizeGuardExceeded,
    ValidationError,
    finite_group,
)
from .xmod import _ONE, CrossedModule, XModMorphism, XModView, xmod_view

__all__ = [
    "CUBE_EDGES",
    "CUBE_FACES",
    "Cube",
    "CubeComposeReport",
    "CubeReport",
    "DoubleGroupoidXM",
    "EHReport",
    "InterchangeReport",
    "LabeledSquare",
    "boundary_word",
    "commutative_cube_check",
    "compose_array",
    "connection_neg",
    "connection_pos",
    "cube",
    "cube_compose_check",
    "cube_face",
    "cube_glue",
    "double_identity",
    "eckmann_hilton_check",
    "eh_instance_from_squares",
    "from_xmod",
    "hcompose",
    "hidentity",
    "hinverse",
    "identity_edge_squares",
    "interchange_check",
    "is_thin",
    "make_square",
    "perturb_cube",
    "random_commutative_cube",
    "random_cube_sharing",
    "round_trip_isomorphism",
    "row_uniqueness",
    "sample_grid",
    "square_base",
    "to_xmod",
    "vcompose",
    "videntity",
    "vinverse",
]


class LabeledSquare(NamedTuple):
    label: object
    top: object
    left: object
    right: object
    bottom: object


def square_base(xm, s):
    """The object the label lives over: the bottom-right corner."""
    return xm.p.tgt[s.bottom]


def boundary_word(xm, s):
    """The clockwise boundary loop at the bottom-right corner.  The edges
    of ``s`` must frame a square, as ``make_square`` checks."""
    comp, inv = xm.p.comp, xm.p.inv
    return comp[(comp[(inv[s.bottom], inv[s.left])], comp[(s.top, s.right)])]


def make_square(xm, label, top, left, right, bottom):
    """Validated square: edges must frame a square, and the label's boundary
    must equal the boundary loop."""
    xv = xmod_view(xm)
    return _named(xv, _indexed(xm, xv, LabeledSquare(label, top, left, right, bottom)))


def hcompose(xm, s1, s2):
    """Paste ``s2`` onto the right edge of ``s1``."""
    xv = xmod_view(xm)
    return _named(xv, _h(xv, _indexed(xm, xv, s1), _indexed(xm, xv, s2)))


def vcompose(xm, s1, s2):
    """Paste ``s2`` onto the bottom edge of ``s1``."""
    xv = xmod_view(xm)
    return _named(xv, _v(xv, _indexed(xm, xv, s1), _indexed(xm, xv, s2)))


# The integer kernel, on int squares (see the module docstring).


def _indexed(xm, xv, s):
    """The int square of LabeledSquare ``s``, the one way a square enters
    the kernel: ``make_square``'s checks in its order (an unknown edge, the
    four framing checks, a label outside the corner's fibre, the label's
    boundary), each failure with its text and named witness."""
    b = xv.base
    index = b.index
    try:
        top, left, right, bottom = index[s.top], index[s.left], index[s.right], index[s.bottom]
    except KeyError:
        unknown = next(e for e in s[1:] if e not in index)
        raise ValidationError("unknown edge", witness=unknown) from None
    src, tgt = b.src, b.tgt
    if src[top] != src[left]:
        raise ValidationError("top and left must share their source", witness=(s.top, s.left))
    if tgt[top] != src[right]:
        raise ValidationError("right must start where top ends", witness=(s.top, s.right))
    if tgt[left] != src[bottom]:
        raise ValidationError("bottom must start where left ends", witness=(s.left, s.bottom))
    w = tgt[bottom]
    if tgt[right] != w:
        raise ValidationError(
            "right and bottom must share their target", witness=(s.right, s.bottom)
        )
    n = xv.fibres[w].index.get(s.label)
    if n is None:
        raise ValidationError("label outside the fibre group", witness=(s.label, xm.p.objects[w]))
    rows, inv = b.rows, b.inverse
    # the clockwise boundary loop at the corner, as boundary_word reads it
    want = rows[rows[inv[bottom]][inv[left]]][rows[top][right]]
    if xv.mu[w][n] != want:
        base = xm.p.objects[w]
        raise ValidationError(
            "label boundary does not match the square boundary",
            witness=(s.label, xm.mu[base][s.label], b.items[want]),
        )
    return (n, top, left, right, bottom)


def _named(xv, s):
    """The LabeledSquare of int square ``s``, built where a square leaves
    the library."""
    label, top, left, right, bottom = s
    b = xv.base
    items = b.items
    return LabeledSquare(
        xv.fibres[b.tgt[bottom]].items[label], items[top], items[left], items[right], items[bottom]
    )


def _h(xv, s1, s2):
    """``hcompose`` on int squares: label = n^(second.bottom) * m."""
    n, top1, left, right1, bottom1 = s1
    m, top2, left2, right, bottom2 = s2
    b = xv.base
    if right1 != left2:
        raise CompositionError(
            f"squares do not compose horizontally: {b.items[right1]!r} vs {b.items[left2]!r}"
        )
    rows = b.rows
    label = xv.fibres[b.tgt[bottom2]].rows[xv.act[bottom2][n]][m]
    return (label, rows[top1][top2], left, right, rows[bottom1][bottom2])


def _v(xv, s1, s2):
    """``vcompose`` on int squares: label = m * n^(second.right)."""
    n, top, left1, right1, bottom1 = s1
    m, top2, left2, right2, bottom = s2
    b = xv.base
    if bottom1 != top2:
        raise CompositionError(
            f"squares do not compose vertically: {b.items[bottom1]!r} vs {b.items[top2]!r}"
        )
    rows = b.rows
    label = xv.fibres[b.tgt[bottom]].rows[m][xv.act[right2][n]]
    return (label, top, rows[left1][left2], rows[right1][right2], bottom)


def _fold(xv, grid, order):
    """``compose_array`` on a grid of int squares.  Every strip is pasted
    before the strips are pasted together, so an error inside a strip is
    reported before one between strips."""
    first, then = (_h, _v) if order == "rows" else (_v, _h)
    if order == "columns":
        grid = list(zip(*grid))
    strips = []
    for row in grid:
        strip = row[0]
        for s in row[1:]:
            strip = first(xv, strip, s)
        strips.append(strip)
    out = strips[0]
    for strip in strips[1:]:
        out = then(xv, out, strip)
    return out


def hidentity(xm, a):
    """The square that is neutral for horizontal pasting along ``a``."""
    p = xm.p
    x, y = p.src[a], p.tgt[a]
    return LabeledSquare(label=xm.m[y].unit, top=p.id_of[x], left=a, right=a, bottom=p.id_of[y])


def videntity(xm, a):
    p = xm.p
    x, y = p.src[a], p.tgt[a]
    return LabeledSquare(label=xm.m[y].unit, top=a, left=p.id_of[x], right=p.id_of[y], bottom=a)


def double_identity(xm, x):
    i = xm.p.id_of[x]
    return LabeledSquare(label=xm.m[x].unit, top=i, left=i, right=i, bottom=i)


def connection_neg(xm, a):
    """The thin square folding ``a`` across the top-left corner."""
    p = xm.p
    y = p.tgt[a]
    return LabeledSquare(label=xm.m[y].unit, top=a, left=a, right=p.id_of[y], bottom=p.id_of[y])


def connection_pos(xm, a):
    """The thin square unfolding ``a`` across the bottom-right corner."""
    p = xm.p
    x, y = p.src[a], p.tgt[a]
    return LabeledSquare(label=xm.m[y].unit, top=p.id_of[x], left=p.id_of[x], right=a, bottom=a)


def hinverse(xm, s):
    xv = xmod_view(xm)
    n, top, left, right, bottom = _indexed(xm, xv, s)
    inv = xv.base.inverse
    label = xv.act[inv[bottom]][xv.fibres[xv.base.tgt[bottom]].inverse[n]]
    return _named(xv, (label, inv[top], right, left, inv[bottom]))


def vinverse(xm, s):
    xv = xmod_view(xm)
    n, top, left, right, bottom = _indexed(xm, xv, s)
    inv = xv.base.inverse
    label = xv.act[inv[right]][xv.fibres[xv.base.tgt[bottom]].inverse[n]]
    return _named(xv, (label, bottom, inv[left], inv[right], top))


def is_thin(xm, s):
    """Thin squares carry the unit label; they are exactly the composites
    of identities and connections."""
    xv = xmod_view(xm)
    n, _, _, _, bottom = _indexed(xm, xv, s)
    return n == xv.fibres[xv.base.tgt[bottom]].units[0]


@dataclass(frozen=True)
class InterchangeReport:
    ok: bool
    row_first: LabeledSquare
    column_first: LabeledSquare

    def __bool__(self):
        return self.ok


def interchange_check(xm, s11, s12, s21, s22):
    """Compare the two evaluation orders of a 2x2 grid::

        s11 s12
        s21 s22
    """
    xv = xmod_view(xm)
    grid = [[_indexed(xm, xv, s) for s in row] for row in ((s11, s12), (s21, s22))]
    rows, cols = _fold(xv, grid, "rows"), _fold(xv, grid, "columns")
    return InterchangeReport(
        ok=rows == cols, row_first=_named(xv, rows), column_first=_named(xv, cols)
    )


def compose_array(xm, grid, order="rows"):
    """Fold a rectangular grid of squares, rows first or columns first."""
    if not grid or any(len(row) != len(grid[0]) for row in grid):
        raise ValidationError("grid must be rectangular and nonempty")
    if order not in ("rows", "columns"):
        raise ValidationError("order must be 'rows' or 'columns'", witness=order)
    xv = xmod_view(xm)
    return _named(xv, _fold(xv, [[_indexed(xm, xv, s) for s in row] for row in grid], order))


@dataclass(frozen=True)
class DoubleGroupoidXM:
    """The full carrier of squares over a crossed module, with indexes by
    constrained edges for grid assembly."""

    xm: CrossedModule
    squares: tuple
    by_left: dict = field(compare=False)
    by_top: dict = field(compare=False)
    by_left_top: dict = field(compare=False)

    def __len__(self):
        return len(self.squares)

    def contains(self, s):
        return s in self.by_left_top.get((s.left, s.top), ())


def from_xmod(xm, guard=DEFAULT_SIZE_GUARD):
    """Enumerate every boundary-valid square: choose the right, top, and
    left edges and the label; the bottom edge is then forced.

    Arrows are composed as indexes through the module's XModView (read on
    the module's first use and kept), and the squares are filed under their
    left and top edges by index, one block per choice of edges."""
    p = xm.p
    xv = xmod_view(xm)
    v = xv.base
    arrows, rows, inv = v.items, v.rows, v.inverse
    into = [[] for _ in p.objects]
    out = [[] for _ in p.objects]
    for i, (x, y) in enumerate(zip(v.src, v.tgt)):
        out[x].append(i)
        into[y].append(i)
    total = 0
    for a, (x, w) in enumerate(zip(v.src, v.tgt)):
        for g in into[x]:
            total += len(out[v.src[g]]) * len(xv.fibres[w].items)
            if total > guard:
                raise SizeGuardExceeded(
                    f"carrier needs more than {guard} squares", total, guard
                )
    squares, new = [], tuple.__new__
    by_left, by_top, by_left_top = {}, {}, {}
    for w, fibre in enumerate(xv.fibres):
        if not into[w]:  # no square has its corner here
            continue
        labels = fibre.items
        mu_inv = [inv[k] for k in xv.mu[w]]
        for a in into[w]:
            right = arrows[a]
            for g in into[v.src[a]]:
                top = arrows[g]
                for h in out[v.src[g]]:
                    left = arrows[h]
                    # h^-1 g a is composable by the loop bounds; mu(n) is
                    # a loop at w only in a lawful crossed module, so the
                    # last step keeps the endpoint check.
                    hga = rows[rows[inv[h]][g]][a]
                    row = rows[hga]
                    bottoms = [row[k] for k in mu_inv]
                    if -1 in bottoms:
                        k = mu_inv[bottoms.index(-1)]
                        raise CompositionError(
                            f"arrows do not compose: {arrows[hga]!r} then {arrows[k]!r}"
                        )
                    block = [new(LabeledSquare, (n, top, left, right, arrows[k]))
                             for n, k in zip(labels, bottoms)]
                    squares += block
                    by_left.setdefault(h, []).extend(block)
                    by_top.setdefault(g, []).extend(block)
                    by_left_top.setdefault((h, g), []).extend(block)
    return DoubleGroupoidXM(
        xm=xm,
        squares=tuple(squares),
        by_left={arrows[h]: tuple(b) for h, b in by_left.items()},
        by_top={arrows[g]: tuple(b) for g, b in by_top.items()},
        by_left_top={(arrows[h], arrows[g]): tuple(b) for (h, g), b in by_left_top.items()},
    )


def sample_grid(d, rng, rows, cols):
    """A uniformly sampled composable grid from a full carrier."""
    grid = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if i == 0 and j == 0:
                pool = d.squares
            elif i == 0:
                pool = d.by_left.get(row[j - 1].right, ())
            elif j == 0:
                pool = d.by_top.get(grid[i - 1][j].bottom, ())
            else:
                pool = d.by_left_top.get(
                    (row[j - 1].right, grid[i - 1][j].bottom), ()
                )
            if not pool:
                raise CompositionError("carrier has no square fitting the grid cell")
            row.append(rng.choice(pool))
        grid.append(row)
    return grid


def identity_edge_squares(d, x):
    """Squares at ``x`` whose four edges are all the identity."""
    i = d.xm.p.id_of[x]
    return tuple(
        s
        for s in d.by_left_top.get((i, i), ())
        if s.right == i and s.bottom == i
    )


def to_xmod(d, name=""):
    """Recover a crossed module from the carrier: the fibre at ``x`` is the
    squares whose top, left, and bottom edges are identities, multiplied by
    vertical pasting; the boundary reads off the right edge; arrows act by
    sandwiching between horizontal identities.  Pastings run on int squares,
    each result named by the carrier's own square (or, off the carrier, by
    ``_named``, for ``finite_group`` to reject).  The module keeps the
    XModView these steps compute, the action as fibre positions and the
    boundary as the right edges' arrow indexes, so the checks that follow
    do not read it again."""
    xm = d.xm
    p = xm.p
    xv = xmod_view(xm)
    b = xv.base
    groups, mus, action, fibres = {}, {}, {}, []
    for x in p.objects:
        i = p.id_of[x]
        elems = tuple(s for s in d.by_left_top.get((i, i), ()) if s.bottom == i)
        ints = [_indexed(xm, xv, s) for s in elems]
        get = dict(zip(ints, elems)).get
        table = {}
        for s, u in zip(elems, ints):
            for t, w in zip(elems, ints):
                st = _v(xv, u, w)
                table[(s, t)] = get(st) or _named(xv, st)
        groups[x] = finite_group(
            elems, table, unit=double_identity(xm, x), name=f"fibre@{x!r}"
        )
        mus[x] = {s: s.right for s in elems}
        fibres.append((elems, ints, get, dict(zip(ints, range(len(ints)))).get))
    acts = []
    for a in p.arrows:
        before, after = (_indexed(xm, xv, hidentity(xm, e)) for e in (p.inverse(a), a))
        k = after[2]  # the index of a
        elems, ints, _, _ = fibres[b.src[k]]
        _, _, get, position = fibres[b.tgt[k]]
        row = []
        for s, u in zip(elems, ints):
            st = _v(xv, _v(xv, before, u), after)
            action[(s, a)] = get(st) or _named(xv, st)
            row.append(position(st))
        acts.append(tuple(row))
    out = CrossedModule(
        p=p, m=groups, mu=mus, action=action, name=name or f"recovered({xm.name})"
    )
    views = tuple(groups[x]._view for x in p.objects)
    mu = tuple(tuple(u[3] for u in ints) for _, ints, _, _ in fibres)
    object.__setattr__(out, "_view", XModView(b, views, tuple(acts), mu))
    return out


def round_trip_isomorphism(xm, recovered):
    """The label-indexing map from a crossed module onto the one recovered
    from its square carrier."""
    p = xm.p
    mmap = {}
    for x in p.objects:
        i = p.id_of[x]
        mmap[x] = {
            m: LabeledSquare(label=m, top=i, left=i, right=xm.mu[x][m], bottom=i)
            for m in xm.m[x].elements
        }
    return XModMorphism(
        source=xm,
        target=recovered,
        omap={x: x for x in p.objects},
        amap={a: a for a in p.arrows},
        mmap=mmap,
    )


def row_uniqueness(xm, squares):
    """Fold a composable row of commutative squares, thin squares over
    ``trivial_xmod``, whose outer vertical edges are identities; the top and
    bottom composites must agree, and the common value is returned."""
    if not squares:
        raise ValidationError("empty row")
    folded = compose_array(xm, [squares])
    p = xm.p
    for side, arrow in (("left", folded.left), ("right", folded.right)):
        if arrow != p.id_of[p.src[arrow]]:
            raise HypothesisError(f"outer {side} edge is not an identity: {arrow!r}")
    if folded.top != folded.bottom:
        raise ValidationError(
            "commutativity was violated along the row",
            witness=(folded.top, folded.bottom),
        )
    return folded.top


@dataclass(frozen=True)
class Cube:
    """Twelve group elements on the edges of a cube.

    Verticals run top face to bottom face; back/front edges run left to
    right on their faces; left/right edges run back to front.  A face, read
    as ``(left, top, bottom, right)`` by ``cube_face``, commutes when
    left-then-bottom equals top-then-right, that is when it frames a thin
    square over ``trivial_xmod(group)``.
    """

    back_left: object
    back_right: object
    front_left: object
    front_right: object
    top_left: object
    top_back: object
    top_front: object
    top_right: object
    bottom_left: object
    bottom_back: object
    bottom_front: object
    bottom_right: object


CUBE_EDGES = tuple(f.name for f in fields(Cube))

# face -> its (left, top, bottom, right) edges; the order is CUBE_FACES
_FACES = {
    "bottom": ("bottom_left", "bottom_back", "bottom_front", "bottom_right"),
    "back": ("back_left", "top_back", "bottom_back", "back_right"),
    "front": ("front_left", "top_front", "bottom_front", "front_right"),
    "left": ("top_left", "back_left", "front_left", "bottom_left"),
    "right": ("back_right", "top_right", "bottom_right", "front_right"),
    "top": ("top_left", "top_back", "top_front", "top_right"),
}

CUBE_FACES = tuple(_FACES)


def cube(group, **edges):
    missing = [e for e in CUBE_EDGES if e not in edges]
    if missing or set(edges) - set(CUBE_EDGES):
        raise ValidationError(
            "cube needs exactly the twelve named edges",
            witness=tuple(missing or sorted(set(edges) - set(CUBE_EDGES))),
        )
    for e, v in edges.items():
        if v not in group.elements:
            raise ValidationError("edge value outside the group", witness=(e, v))
    return Cube(**edges)


def cube_face(c, name):
    """The face as a ``(left, top, bottom, right)`` quadruple."""
    left, top, bottom, right = _FACES[name]
    return (getattr(c, left), getattr(c, top), getattr(c, bottom), getattr(c, right))


# the five lower faces, in CUBE_FACES order, with their (left, top,
# bottom, right) edges as positions in CUBE_EDGES
_LOWER_FACES = tuple(
    (name, tuple(map(CUBE_EDGES.index, _FACES[name]))) for name in CUBE_FACES if name != "top"
)


@dataclass(frozen=True)
class CubeReport:
    ok: bool
    failing_faces: tuple
    composite: object
    top_face: tuple

    def __bool__(self):
        return self.ok


def commutative_cube_check(group, c):
    """Check that five commuting faces force the sixth.

    The five non-top faces are checked first, on the group's own view; any
    failure is reported by face name.  The cube is then flattened into a
    3x3 grid of int thin squares ``(0, top, left, right, bottom)`` over
    ``trivial_xmod(group)``, folded on that module's view built from the
    group's, and the composite is compared against the top face.  With the
    lower faces commuting every square is valid, so none is checked again.
    """
    b = group.validate()._view
    rows, inv = b.rows, b.inverse
    e = [b.index.get(getattr(c, name)) for name in CUBE_EDGES]
    if None in e:
        name = CUBE_EDGES[e.index(None)]
        raise ValidationError("edge value outside the group", witness=(name, getattr(c, name)))
    bad = tuple(
        name
        for name, (left, top, bottom, right) in _LOWER_FACES
        if rows[e[left]][e[bottom]] != rows[e[top]][e[right]]
    )
    top = cube_face(c, "top")
    if bad:
        return CubeReport(ok=False, failing_faces=bad, composite=None, top_face=top)
    u = b.units[0]
    xv = XModView(b, (_ONE._view,), ((0,),) * len(b.items), ((u,),))
    (back_left, back_right, front_left, front_right, top_left, top_back, top_front,
     top_right, bottom_left, bottom_back, bottom_front, bottom_right) = e
    grid = [
        [
            (0, u, u, back_left, back_left),
            (0, top_back, back_left, back_right, bottom_back),
            (0, u, back_right, u, inv[back_right]),
        ],
        [
            (0, back_left, top_left, bottom_left, front_left),
            (0, bottom_back, bottom_left, bottom_right, bottom_front),
            (0, inv[back_right], bottom_right, top_right, inv[front_right]),
        ],
        [
            (0, front_left, u, inv[front_left], u),
            (0, bottom_front, inv[front_left], inv[front_right], top_front),
            (0, inv[front_right], inv[front_right], u, u),
        ],
    ]
    _, f_top, f_left, f_right, f_bottom = _fold(xv, grid, "rows")
    items = b.items
    composite = (items[f_left], items[f_top], items[f_bottom], items[f_right])
    ok = (f_left, f_top, f_bottom, f_right) == (top_left, top_back, top_front, top_right) and (
        rows[top_left][top_front] == rows[top_back][top_right]
    )
    return CubeReport(ok=ok, failing_faces=(), composite=composite, top_face=top)


def _solved_cube(group, edges):
    """Complete ``edges`` to a cube from the face equations
    left * bottom = top * right: sweep the faces in CUBE_FACES order,
    solving each face with exactly one unknown edge, until a sweep solves
    nothing.  The order fixes which face solves each edge, which matters
    only when a face copied in does not commute."""
    mul, inv = group.mul, group.inv
    solved = True
    while solved:
        solved = False
        for quad in _FACES.values():
            missing = [i for i, e in enumerate(quad) if e not in edges]
            if len(missing) != 1:
                continue
            left, top, bottom, right = (edges.get(e) for e in quad)
            i = missing[0]
            if i == 0:
                value = mul(mul(top, right), inv(bottom))
            elif i == 1:
                value = mul(mul(left, bottom), inv(right))
            elif i == 2:
                value = mul(inv(left), mul(top, right))
            else:
                value = mul(inv(top), mul(left, bottom))
            edges[quad[i]] = value
            solved = True
    return cube(group, **edges)


def random_commutative_cube(group, rng):
    """Pick seven edges freely and solve for the rest; every face of the
    result commutes."""
    free = ("bottom_left", "bottom_back", "bottom_front", "back_left", "back_right",
            "front_left", "front_right")
    return _solved_cube(group, {e: rng.choice(group.elements) for e in free})


def perturb_cube(c, edge, value):
    return replace(c, **{edge: value})


def random_cube_sharing(group, rng, c1, direction):
    """A random commutative cube that glues onto ``c1`` in ``direction``:
    the shared face is copied from ``c1`` and the direction's free edges
    are sampled, with the rest solved from the face equations."""
    if direction not in _GLUE:
        raise ValidationError("direction must be 'v', 'h', or 'd'", witness=direction)
    rule = _GLUE[direction]
    edges = {e2: getattr(c1, e1) for e1, e2 in rule["shared"]}
    for e in rule["free"]:
        edges[e] = rng.choice(group.elements)
    return _solved_cube(group, edges)


# direction -> the (edge of c1, edge of c2) pairs of the shared face, and
# the edges ``random_cube_sharing`` samples
_GLUE = {
    "v": {
        "shared": (
            ("bottom_left", "top_left"),
            ("bottom_back", "top_back"),
            ("bottom_front", "top_front"),
            ("bottom_right", "top_right"),
        ),
        "free": ("back_left", "back_right", "front_left", "front_right"),
    },
    "h": {
        "shared": (
            ("back_right", "back_left"),
            ("front_right", "front_left"),
            ("top_right", "top_left"),
            ("bottom_right", "bottom_left"),
        ),
        "free": ("back_right", "front_right", "top_back", "top_front"),
    },
    "d": {
        "shared": (
            ("front_left", "back_left"),
            ("front_right", "back_right"),
            ("top_front", "top_back"),
            ("bottom_front", "bottom_back"),
        ),
        "free": ("front_left", "front_right", "top_left", "top_front"),
    },
}


def cube_glue(group, c1, c2, direction):
    """Glue two cubes along a shared face: ``v`` stacks ``c2`` below,
    ``h`` puts it to the right, ``d`` puts it in front.  The glued cube
    has each cube's face away from the glue, and the four edges that run
    across the glue multiplied, ``c1``'s then ``c2``'s."""
    if direction not in _GLUE:
        raise ValidationError("direction must be 'v', 'h', or 'd'", witness=direction)
    shared = _GLUE[direction]["shared"]
    for e1, e2 in shared:
        if getattr(c1, e1) != getattr(c2, e2):
            raise CompositionError(
                f"cubes do not glue: {e1}={getattr(c1, e1)!r} vs {e2}={getattr(c2, e2)!r}"
            )
    edges = {e2: getattr(c1, e2) for _, e2 in shared}
    edges.update((e1, getattr(c2, e1)) for e1, _ in shared)
    for e in CUBE_EDGES:
        if e not in edges:
            edges[e] = group.mul(getattr(c1, e), getattr(c2, e))
    return cube(group, **edges)


@dataclass(frozen=True)
class CubeComposeReport:
    ok: bool
    first: CubeReport
    second: CubeReport
    glued: CubeReport

    def __bool__(self):
        return self.ok


def cube_compose_check(group, c1, c2, direction):
    first = commutative_cube_check(group, c1)
    second = commutative_cube_check(group, c2)
    glued = commutative_cube_check(group, cube_glue(group, c1, c2, direction))
    return CubeComposeReport(
        ok=first.ok and second.ok and glued.ok,
        first=first,
        second=second,
        glued=glued,
    )


@dataclass(frozen=True)
class EHReport:
    """Outcome of the unit-collapse check: when two unital operations on one
    set satisfy interchange, the units coincide, the operations agree, and
    the common operation is commutative."""

    ok: bool
    witness: object
    units_equal: object = None
    ops_equal: object = None
    commutative: object = None

    def __bool__(self):
        return self.ok


def eckmann_hilton_check(elements, op1, op2, unit1, unit2):
    elements = tuple(elements)
    eset = set(elements)
    for name, op in (("op1", op1), ("op2", op2)):
        for a, b in product(elements, repeat=2):
            v = op.get((a, b))
            if v not in eset:
                raise ValidationError(
                    f"{name} is not total or not closed", witness=(a, b, v)
                )
    for name, op, unit in (("op1", op1, unit1), ("op2", op2, unit2)):
        if unit not in eset:
            raise ValidationError(f"{name} unit outside the set", witness=unit)
        for a in elements:
            if op[(unit, a)] != a or op[(a, unit)] != a:
                return EHReport(ok=False, witness=(f"{name}-unit", a))
    for a, b, c, d in product(elements, repeat=4):
        lhs = op2[(op1[(a, b)], op1[(c, d)])]
        rhs = op1[(op2[(a, c)], op2[(b, d)])]
        if lhs != rhs:
            return EHReport(ok=False, witness=("interchange", (a, b, c, d)))
    units_equal = unit1 == unit2
    ops_equal = all(op1[(a, b)] == op2[(a, b)] for a, b in product(elements, repeat=2))
    commutative = all(
        op1[(a, b)] == op1[(b, a)] for a, b in product(elements, repeat=2)
    )
    return EHReport(
        ok=units_equal and ops_equal and commutative,
        witness=None,
        units_equal=units_equal,
        ops_equal=ops_equal,
        commutative=commutative,
    )


def eh_instance_from_squares(d, x):
    """The restricted pastings on the all-identity-edge squares at ``x``,
    packaged for the unit-collapse check."""
    elements = identity_edge_squares(d, x)
    op1 = {
        (s, t): hcompose(d.xm, s, t) for s in elements for t in elements
    }
    op2 = {
        (s, t): vcompose(d.xm, s, t) for s in elements for t in elements
    }
    unit = double_identity(d.xm, x)
    return elements, op1, op2, unit, unit
