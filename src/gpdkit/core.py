"""Finite groups and groupoids as explicit composition tables.

Conventions that hold across the whole package:

- Composition is diagrammatic: ``comp[(a, b)]`` means "a then b" and is
  defined exactly when ``tgt[a] == src[b]``.  Group tables follow the same
  reading, and permutations multiply as "apply left, then right".
- Values are immutable after construction; every operation is a pure
  function, so concurrent use needs no locking.
- Enumerations run in a canonical order derived from the declared order of
  objects and arrows, so repeated runs produce identical output.
- Connectivity has two routines: ``skeleton_components`` (union-find over
  any vertex and edge lists) partitions vertices into components, blocks
  ordered by their first vertex, each in vertex order; and
  ``presentations.spanning_tree`` builds a rooted breadth-first forest as
  int arrays (each vertex's parent letter, its root and the tree-edge
  flags), for presentations and vertex groups.
- Groups and groupoids share one validator, a group being the one-object
  case: the table is read into integer rows once, and associativity is
  checked with Light's test at O(n^2 |S|) instead of O(n^3); a table that
  fails still reports the first failing triple in product order.
- Validated on first read, then kept: the table of a group or groupoid is
  read once into an ``IndexView``, integer rows with inverses, identities,
  endpoints and the generators that ``_generators`` chose (for Light's
  test, ``xmod.check_axioms`` and the functor search) as indexes, kept in
  ``_view``.  ``FiniteGroup.validate`` (which ``finite_group`` and
  every group constructor call) and ``index_view`` (for groupoids) check
  every law on the first read and keep the view; ``build_groupoid`` and
  ``from_group`` (which shares ``g``'s view) keep it at once.  So every
  kept view is lawful, and a value built raw or by ``dataclasses.replace``
  is checked when it is first read.  The hot readers
  (``dblgpd.from_xmod``, ``xmod.automorphism_group``) compose through it,
  and ``xmod``'s laws, maps and ``dblgpd``'s squares run on the
  ``xmod.XModView`` built on top of these.
- Inverses and identities are the table's: ``validate`` stores a group's,
  and rejects a given ``inverse`` map that contradicts them, and
  ``index_view`` rejects a groupoid's ``id_of`` or ``inv`` that does,
  each with the first element, object or arrow whose entry differs as
  witness.
- Exhaustive searches count their candidate space first and refuse loudly
  (SizeGuardExceeded) past ``DEFAULT_SIZE_GUARD`` candidates.  Functors
  and group homomorphisms (``enumerate_morphisms``, ``group_homs``) are
  found by the one staged search in ``presentations``, run on integers:
  it assigns images to the source's kept generators and extends them
  along a tree on its ``IndexView`` rows, one row lookup per arrow and per
  relation, so the guard counts the |h|^|generators| assignments examined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product
from operator import itemgetter

DEFAULT_SIZE_GUARD = 10**6


class ValidationError(Exception):
    """A structure failed one of its defining laws; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SizeGuardExceeded(Exception):
    """An enumeration would exceed the configured candidate bound: it
    needed more than ``allowed`` candidates, ``needed`` when it stopped."""

    def __init__(self, message, needed=None, allowed=None):
        super().__init__(message)
        self.needed, self.allowed = needed, allowed


class CompositionError(Exception):
    """Arrows or squares do not line up for the requested composition."""


class HypothesisError(Exception):
    """A theorem's hypothesis is unmet (bad cover, bad row, ...)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class IndexView:
    """A group or groupoid table read into integers, kept by validation.

    ``items`` are the elements or arrows and ``index`` maps each to its
    position.  ``rows[i][j]`` is the index of "items[i] then items[j]", or
    -1 where the two do not compose, and ``inverse[i]`` the index of the
    inverse.  ``units[x]`` is the identity index at the x-th object,
    ``src``/``tgt`` give each arrow's object indexes and ``gens`` holds the
    generators ``_generators`` chose.  A group is one object: ``units`` is
    ``(unit index,)`` and every endpoint is 0.
    """

    items: tuple
    index: dict
    rows: tuple
    inverse: tuple
    units: tuple
    src: tuple
    tgt: tuple
    gens: tuple


def _ends(objects, arrows, src, tgt):
    """Each arrow's source and target as indexes into ``objects``; an end
    that is not an object raises ValidationError with its arrow."""
    at = dict(zip(objects, range(len(objects)))).get
    s = tuple(map(at, map(src.get, arrows)))
    t = tuple(map(at, map(tgt.get, arrows)))
    if None in s or None in t:
        bad = next(a for a, i, j in zip(arrows, s, t) if i is None or j is None)
        raise ValidationError("arrow with bad endpoints", witness=bad)
    return s, t


def _read_rows(items, src, tgt, comp):
    """Read the table ``comp`` on ``items``, whose ends are the object
    indexes ``src``/``tgt``, into the item index, the rows, and ``gap``:
    the first composable pair in row order whose composite is missing or
    not an item (the rows stop there), or None."""
    index = dict(zip(items, range(len(items))))
    get, missing, columns = index.get, object(), tuple(zip(items, src))
    rows = []
    for a, y in zip(items, tgt):
        row = tuple([get(comp.get((a, b), missing)) if x == y else -1 for b, x in columns])
        if None in row:
            return index, rows, (a, items[row.index(None)])
        rows.append(row)
    return index, tuple(rows), None


def _generators(rows, units):
    """Generators chosen greedily in row order: an index is taken when no
    positive word in the indexes taken before it reaches it from the
    identities ``units``; a pair that does not compose (-1) adds nothing."""
    gens, span = [], set(units)
    for x in range(len(rows)):
        if x not in span:
            gens.append(x)
            # the span is closed under the earlier generators; close it under x
            frontier = list(span)
            while frontier:
                row = rows[frontier.pop()]
                for s in gens:
                    z = row[s]
                    if z >= 0 and z not in span:
                        span.add(z)
                        frontier.append(z)
    return tuple(gens)


def _first_failing_triple(items, rows):
    """Raise ValidationError with the first composable ``(a, b, c)``, in
    product order, where (a b) c differs from a (b c); return if none."""
    for a, b, c in product(range(len(rows)), repeat=3):
        ab, bc = rows[a][b], rows[b][c]
        if ab >= 0 and bc >= 0 and rows[ab][c] != rows[a][bc]:
            raise ValidationError("associativity fails", witness=(items[a], items[b], items[c]))


def _checked_view(items, index, rows, units, src, tgt, no_inverse):
    """The IndexView of a read table whose identities ``units`` (indexes,
    one per object) obey the unit laws, once associativity and inverses
    are checked; a failure raises ValidationError with its witness.

    Associativity uses Light's test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, 1961): (x s) y = x (s y) for every s in the
    generators and all x, y composable with it.  The arrows s passing it
    are closed under composition, and identities pass by the unit laws.
    The generators, ``_generators`` of the rows and kept as the view's
    ``gens``, span by composing identities with generators on the right,
    so every arrow is a composite of passing arrows and passes, which is
    associativity.  Each (x, s) pair compares the row of x s with the row
    of x read through the row of s, O(n^2 |S|) in all instead of O(n^3); a
    -1 in the row of s reads the -1 appended to the row of x, as the row of
    x s has -1 there too.  When the test fails, ``_first_failing_triple``
    finds the witness.

    In an associative table an arrow a with a two-sided inverse b has no
    other right inverse c, as c = (b a) c = b (a c) = b, so the first right
    inverse is checked on the other side; an arrow failing raises
    ``no_inverse``.
    """
    gens = _generators(rows, units)
    for k in gens:
        start, through = src[k], itemgetter(*rows[k])
        if any(rows[row[k]] != through(row + (-1,)) for row, y in zip(rows, tgt) if y == start):
            _first_failing_triple(items, rows)
    inverse = []
    for i, row in enumerate(rows):
        u = units[src[i]]
        j = row.index(u) if u in row else None
        if j is None or rows[j][i] != units[tgt[i]]:
            raise ValidationError(no_inverse, witness=items[i])
        inverse.append(j)
    return IndexView(items, index, rows, tuple(inverse), tuple(units), src, tgt, gens)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: element tuple, full multiplication table, unit.

    ``table[(a, b)]`` is the product "a then b".  ``validate`` sets
    ``inverse`` to the table's inverse map, rejecting a given map that
    contradicts it.  Raw dataclass construction is allowed for deliberately
    broken tables in tests.
    """

    elements: tuple
    table: dict
    unit: object
    inverse: dict = field(default=None, compare=False)
    name: str = field(default="", compare=False)
    # The IndexView that a successful ``validate`` reads the table into, the
    # group's lawfulness mark; shared by ``from_group(self)`` and every later
    # reader.  ``init=False`` keeps raw construction and
    # ``dataclasses.replace`` from inheriting it.
    _view: IndexView = field(default=None, init=False, compare=False, repr=False)

    def mul(self, a, b):
        return self.table[(a, b)]

    def inv(self, a):
        return self.inverse[a]

    def conj(self, m, g):
        # m^g = g^-1 m g, diagrammatic reading of "conjugate m by g".
        return self.mul(self.mul(self.inv(g), m), g)

    def __len__(self):
        return len(self.elements)

    def validate(self):
        """Check the group laws, raising ValidationError with the first
        witness; a successful check keeps the view, so a second call is free.

        The table is checked as a groupoid with one object, by the reader,
        Light's test and inverse search ``build_groupoid`` uses.  The rows
        are kept as the group's ``IndexView`` and the table's inverse map as
        ``inverse``; a given map that differs fails at the first element
        whose entry differs, or else at its first extra key.
        """
        if self._view is not None:
            return self
        elems, table = self.elements, self.table
        ends = (0,) * len(elems)
        index, rows, gap = _read_rows(elems, ends, ends, table)
        if len(index) != len(elems):
            raise ValidationError("duplicate elements", witness=elems)
        if self.unit not in index:
            raise ValidationError("unit is not an element", witness=self.unit)
        if gap:
            if gap not in table:
                raise ValidationError("table is not total", witness=gap)
            raise ValidationError("table leaves the carrier", witness=(*gap, table[gap]))
        u = index[self.unit]
        for i, a in enumerate(elems):
            if rows[u][i] != i or rows[i][u] != i:
                raise ValidationError("unit law fails", witness=a)
        view = _checked_view(elems, index, rows, (u,), ends, ends, "no two-sided inverse")
        inverse = dict(zip(elems, map(elems.__getitem__, view.inverse)))
        if self.inverse is not None:
            _agree(self.inverse, inverse, "inverse map contradicts the table")
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "_view", view)
        return self


def finite_group(elements, table, unit=None, name=""):
    """Validated FiniteGroup constructor; infers the unit if not given."""
    elements = tuple(elements)
    table = dict(table)
    if unit is None:
        for e in elements:
            if all(
                table.get((e, a)) == a and table.get((a, e)) == a for a in elements
            ):
                unit = e
                break
        else:
            raise ValidationError("no unit found", witness=elements)
    return FiniteGroup(elements=elements, table=table, unit=unit, name=name).validate()


def cyclic_group(n, name=None):
    """Z/n, written additively on elements 0..n-1."""
    elements = tuple(range(n))
    table = {(a, b): (a + b) % n for a in elements for b in elements}
    return finite_group(elements, table, unit=0, name=name or f"c{n}")


def perm_mul(p, q):
    # apply p, then q
    return tuple(map(q.__getitem__, p))


def _permutation_group(elements, n, name):
    table = {(p, q): perm_mul(p, q) for p in elements for q in elements}
    return finite_group(elements, table, unit=tuple(range(n)), name=name)


def symmetric_group(n, name=None):
    """All permutations of 0..n-1 as sorted image tuples, composed left-then-right."""
    return _permutation_group(tuple(permutations(range(n))), n, name or f"s{n}")


def perm_parity(p):
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            parity ^= (length - 1) & 1
    return parity


def alternating_group(n, name=None):
    """The even permutations of 0..n-1, in the order of ``symmetric_group``."""
    even = tuple(p for p in permutations(range(n)) if perm_parity(p) == 0)
    return _permutation_group(even, n, name or f"a{n}")


def trivial_group(name="1"):
    return finite_group(("1",), {("1", "1"): "1"}, unit="1", name=name)


def subgroup(g, carrier, name=""):
    """The subgroup of ``g`` on ``carrier``; closure is checked."""
    carrier = tuple(carrier)
    cset = set(carrier)
    if not cset <= set(g.elements):
        raise ValidationError(
            "carrier is not a subset", witness=tuple(sorted(cset - set(g.elements), key=str))
        )
    if g.unit not in cset:
        raise ValidationError("carrier misses the unit", witness=g.unit)
    table = {ab: g.table[ab] for ab in product(carrier, repeat=2)}
    for ab, c in table.items():
        if c not in cset:
            raise ValidationError("carrier is not closed under products", witness=(*ab, c))
    return finite_group(carrier, table, unit=g.unit, name=name)


def generating_set(g):
    """The generators kept on the validated group's IndexView, named."""
    v = g.validate()._view
    return tuple(map(v.items.__getitem__, v.gens))


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid: objects, arrows, endpoint maps, composition table.

    ``comp[(a, b)]`` is "a then b", defined exactly when ``tgt[a] == src[b]``.
    ``id_of`` maps each object to its identity arrow, ``inv`` each arrow to
    its two-sided inverse.  A groupoid is validated on first read, then
    kept: raw construction skips every check, so that broken tables stay
    constructible, and ``index_view`` checks them on the first read.
    """

    objects: tuple
    arrows: tuple
    src: dict
    tgt: dict
    comp: dict
    id_of: dict
    inv: dict
    name: str = field(default="", compare=False)
    # The IndexView, set by ``build_groupoid`` and ``from_group``, or by
    # ``index_view`` on the first read, once every groupoid law holds.
    # ``init=False`` keeps ``dataclasses.replace`` from inheriting it, as
    # with ``FiniteGroup._view``.
    _view: IndexView = field(default=None, init=False, compare=False, repr=False)

    def compose(self, a, b):
        if self.tgt[a] != self.src[b]:
            raise CompositionError(f"arrows do not compose: {a!r} then {b!r}")
        return self.comp[(a, b)]

    def compose_many(self, arrows, at=None):
        """Fold a chain of arrows; ``at`` names the object for an empty chain."""
        arrows = list(arrows)
        if not arrows:
            if at is None:
                raise CompositionError("empty composite needs an object")
            return self.id_of[at]
        out = arrows[0]
        for a in arrows[1:]:
            out = self.compose(out, a)
        return out

    def identity(self, x):
        return self.id_of[x]

    def inverse(self, a):
        return self.inv[a]

    def loops(self, x):
        return tuple(a for a in self.arrows if self.src[a] == x and self.tgt[a] == x)

    def arrows_from(self, x):
        return tuple(a for a in self.arrows if self.src[a] == x)

    def arrows_between(self, x, y):
        return tuple(
            a for a in self.arrows if self.src[a] == x and self.tgt[a] == y
        )

    def __len__(self):
        return len(self.arrows)


def _groupoid_view(objects, arrows, src, tgt, comp):
    """The IndexView of the table ``comp`` on ``objects`` and ``arrows``
    once every groupoid law holds; the first failure raises ValidationError
    with its witness.

    Checks each listed composite, totality on composable pairs, identity
    laws, associativity and two-sided inverses with the validator groups
    use.  ``build_groupoid`` and ``index_view`` share it.
    """
    if len(set(objects)) != len(objects):
        raise ValidationError("duplicate objects", witness=objects)
    if len(set(arrows)) != len(arrows):
        raise ValidationError("duplicate arrows", witness=arrows)
    s, t = _ends(objects, arrows, src, tgt)
    index, rows, gap = _read_rows(arrows, s, t, comp)
    get = index.get
    for (a, b), c in comp.items():
        i, j, k = get(a), get(b), get(c)
        if i is None or j is None:
            raise ValidationError("composite of an unknown arrow", witness=(a, b))
        if t[i] != s[j]:
            raise ValidationError("composite of non-composable pair", witness=(a, b))
        if k is None:
            raise ValidationError("composite leaves the carrier", witness=(a, b, c))
        if s[k] != s[i] or t[k] != t[j]:
            raise ValidationError("composite has wrong endpoints", witness=(a, b, c))
    if gap:
        raise ValidationError("composition table is not total", witness=gap)
    units = []
    for x in range(len(objects)):
        # an identity's row reads every arrow from x, and -1 elsewhere
        row = tuple([a if y == x else -1 for a, y in enumerate(s)])
        into = [a for a, y in enumerate(t) if y == x]
        ids = (e for e in into if s[e] == x and rows[e] == row)
        units.append(next((e for e in ids if all(rows[a][e] == a for a in into)), None))
    if None in units:
        # Light's test spans from the identities, so without them the triple
        # loop looks for a failing triple, reported before the missing one.
        _first_failing_triple(arrows, rows)
        raise ValidationError("object with no identity arrow", witness=objects[units.index(None)])
    return _checked_view(arrows, index, rows, units, s, t, "arrow with no inverse")


def _named_maps(objects, arrows, view):
    """The identity map on ``objects`` and inverse map on ``arrows`` that
    ``view`` holds as indexes."""
    name = arrows.__getitem__
    return dict(zip(objects, map(name, view.units))), dict(zip(arrows, map(name, view.inverse)))


def _agree(given, want, message):
    """Raise ValidationError(message) if the map ``given`` differs from
    ``want``, with the first key of ``want``, else of ``given``, whose entry
    differs or is missing as witness."""
    if given != want:
        missing = object()
        bad = next(k for k in (*want, *given) if given.get(k, missing) != want.get(k, missing))
        raise ValidationError(message, witness=bad)


def build_groupoid(objects, arrows, src, tgt, comp, name=""):
    """Validated FiniteGroupoid constructor; infers identities and inverses.

    The table is checked by the validator ``index_view`` uses, reporting a
    witness for the first failure, and the rows it read are kept as the
    groupoid's IndexView.
    """
    objects, arrows = tuple(objects), tuple(arrows)
    src, tgt, comp = dict(src), dict(tgt), dict(comp)
    view = _groupoid_view(objects, arrows, src, tgt, comp)
    id_of, inv = _named_maps(objects, arrows, view)
    p = FiniteGroupoid(objects, arrows, src, tgt, comp, id_of, inv, name=name)
    object.__setattr__(p, "_view", view)
    return p


def index_view(p):
    """The IndexView of groupoid ``p``, validated on first read, then kept.

    A groupoid without a view yet (raw construction, ``dataclasses.replace``,
    ``disjoint_union``) is checked on its first read as ``build_groupoid``
    checks a table, with the same message and witness on a failure; its
    ``id_of`` and ``inv`` must then be the table's, or ValidationError
    names "identity map contradicts the table" or "inverse map contradicts
    the table" with the first object or arrow whose entry differs or is
    missing.  The view is kept on ``p``, so every later read is free."""
    if p._view is None:
        view = _groupoid_view(p.objects, p.arrows, p.src, p.tgt, p.comp)
        id_of, inv = _named_maps(p.objects, p.arrows, view)
        _agree(p.id_of, id_of, "identity map contradicts the table")
        _agree(p.inv, inv, "inverse map contradicts the table")
        object.__setattr__(p, "_view", view)
    return p._view


def interval_groupoid():
    """Two objects 0, 1; one arrow each way besides the identities."""
    objects = (0, 1)
    arrows = ("id0", "id1", "i", "i_inv")
    src = {"id0": 0, "id1": 1, "i": 0, "i_inv": 1}
    tgt = {"id0": 0, "id1": 1, "i": 1, "i_inv": 0}
    comp = {}
    for a in arrows:
        for b in arrows:
            if tgt[a] != src[b]:
                continue
            if a.startswith("id"):
                comp[(a, b)] = b
            elif b.startswith("id"):
                comp[(a, b)] = a
            else:
                # i then i_inv, or i_inv then i
                comp[(a, b)] = "id0" if a == "i" else "id1"
    return build_groupoid(objects, arrows, src, tgt, comp, name="interval")


def from_group(g, obj="*", name=""):
    """The one-object groupoid with arrow set ``g.elements``.

    ``g`` is validated first, so a given ``inverse`` map that contradicts
    its table is rejected.  Each call builds a fresh groupoid that shares
    ``g``'s table and inverse map and keeps ``g``'s IndexView: validated
    on ``g``'s first read, then kept, it needs no read of its own."""
    g.validate()
    arrows = g.elements
    p = FiniteGroupoid(
        objects=(obj,),
        arrows=arrows,
        src=dict.fromkeys(arrows, obj),
        tgt=dict.fromkeys(arrows, obj),
        comp=g.table,
        id_of={obj: g.unit},
        inv=g.inverse,
        name=name or g.name,
    )
    object.__setattr__(p, "_view", g._view)
    return p


def one_object_group(p):
    """The group of a one-object groupoid's arrows, named as ``p``.  Like
    every group it is validated on first read, then kept: ``validate``
    checks ``p``'s table as a group's and keeps the group's own view."""
    unit = p.id_of[p.objects[0]]
    return FiniteGroup(elements=p.arrows, table=p.comp, unit=unit, name=p.name).validate()


def vertex_group(g, x):
    """The group of loops of ``g`` at object ``x``."""
    if x not in g.objects:
        raise ValidationError("no such object", witness=x)
    loops = g.loops(x)
    table = {(a, b): g.comp[(a, b)] for a in loops for b in loops}
    return finite_group(loops, table, unit=g.id_of[x], name=f"{g.name or 'gpd'}@{x}")


def skeleton_components(vertices, edges, src, tgt):
    """Connected components of the graph on ``vertices`` whose edges join
    ``src[e]`` and ``tgt[e]``, direction ignored.

    Union-find keeps the lesser vertex index as each root, so blocks come
    in the order of their first vertex and each block is in vertex order.
    """
    index = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in edges:
        i, j = find(index[src[e]]), find(index[tgt[e]])
        if i != j:
            parent[max(i, j)] = min(i, j)
    blocks = {}
    for v in vertices:
        blocks.setdefault(find(index[v]), []).append(v)
    return tuple(tuple(blocks[r]) for r in sorted(blocks))


def components(g):
    """Connected components of ``g``'s objects, in canonical order."""
    return skeleton_components(g.objects, g.arrows, g.src, g.tgt)


def disjoint_union(g, h, tags=("l", "r")):
    """Disjoint union of two groupoids, objects and arrows tagged apart."""
    lt, rt = tags

    def tag(t, v):
        return (t, v)

    objects = tuple(tag(lt, x) for x in g.objects) + tuple(tag(rt, x) for x in h.objects)
    arrows = tuple(tag(lt, a) for a in g.arrows) + tuple(tag(rt, a) for a in h.arrows)
    src = {tag(lt, a): tag(lt, g.src[a]) for a in g.arrows}
    src.update({tag(rt, a): tag(rt, h.src[a]) for a in h.arrows})
    tgt = {tag(lt, a): tag(lt, g.tgt[a]) for a in g.arrows}
    tgt.update({tag(rt, a): tag(rt, h.tgt[a]) for a in h.arrows})
    comp = {(tag(lt, a), tag(lt, b)): tag(lt, c) for (a, b), c in g.comp.items()}
    comp.update({(tag(rt, a), tag(rt, b)): tag(rt, c) for (a, b), c in h.comp.items()})
    id_of = {tag(lt, x): tag(lt, g.id_of[x]) for x in g.objects}
    id_of.update({tag(rt, x): tag(rt, h.id_of[x]) for x in h.objects})
    inv = {tag(lt, a): tag(lt, g.inv[a]) for a in g.arrows}
    inv.update({tag(rt, a): tag(rt, h.inv[a]) for a in h.arrows})
    return FiniteGroupoid(
        objects=objects, arrows=arrows, src=src, tgt=tgt, comp=comp,
        id_of=id_of, inv=inv, name=f"{g.name}+{h.name}",
    )


@dataclass(frozen=True)
class GroupoidMorphism:
    """Object map and arrow map; check with ``check_morphism``."""

    obj_map: dict
    arrow_map: dict


@dataclass(frozen=True)
class MorphismReport:
    ok: bool
    law: str = None
    witness: tuple = None

    def __bool__(self):
        return self.ok


def check_morphism(f, g, h):
    """Check that ``f`` is a functor ``g -> h``, on groupoids validated on
    first read; stop at the first violated law."""
    index_view(g)
    index_view(h)
    for x in g.objects:
        if x not in f.obj_map:
            return MorphismReport(False, "object-totality", (x,))
        if f.obj_map[x] not in h.objects:
            return MorphismReport(False, "object-image", (x, f.obj_map[x]))
    for a in g.arrows:
        if a not in f.arrow_map:
            return MorphismReport(False, "arrow-totality", (a,))
        fa = f.arrow_map[a]
        if fa not in h.arrows:
            return MorphismReport(False, "arrow-image", (a, fa))
        if h.src[fa] != f.obj_map[g.src[a]] or h.tgt[fa] != f.obj_map[g.tgt[a]]:
            return MorphismReport(False, "endpoint-preservation", (a, fa))
    for x in g.objects:
        if f.arrow_map[g.id_of[x]] != h.id_of[f.obj_map[x]]:
            return MorphismReport(False, "identity-preservation", (x, f.arrow_map[g.id_of[x]]))
    for (a, b), c in g.comp.items():
        if h.comp[(f.arrow_map[a], f.arrow_map[b])] != f.arrow_map[c]:
            return MorphismReport(False, "composite-preservation", (a, b))
    for a in g.arrows:
        if f.arrow_map[g.inv[a]] != h.inv[f.arrow_map[a]]:
            return MorphismReport(False, "inverse-preservation", (a, f.arrow_map[a]))
    return MorphismReport(True)


def battery():
    """Default finite target battery for separation and universality checks.

    Each call returns a fresh dict, so a caller may add or drop keys; the
    groupoids in it are built once per process and shared by every call,
    so they must not be mutated."""
    return dict(_battery_groupoids())


@cache
def _battery_groupoids():
    return (
        ("c2", from_group(cyclic_group(2), name="c2")),
        ("c3", from_group(cyclic_group(3), name="c3")),
        ("c4", from_group(cyclic_group(4), name="c4")),
        ("s3", from_group(symmetric_group(3), name="s3")),
    )
