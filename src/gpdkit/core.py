"""Finite groups and groupoids as explicit composition tables.

Conventions that hold across the whole package:

- Composition is diagrammatic: ``comp[(a, b)]`` means "a then b" and is
  defined exactly when ``tgt[a] == src[b]``.  Group tables follow the same
  reading, and permutations multiply as "apply left, then right".
- Values are immutable after construction; every operation is a pure
  function, so concurrent use needs no locking.
- Enumerations run in a canonical order derived from the declared order of
  objects and arrows, so repeated runs produce identical output.
- Connectivity has one routine, ``skeleton_components`` (union-find over
  any vertex and edge lists): blocks come ordered by their first vertex,
  each block in vertex order.  Groupoid components, complex skeleta and
  vertex-group presentations all use it.
- Groups are validated once, when ``finite_group`` builds them; every
  constructor goes through it, and ``validate`` on a validated group
  returns at once.  Associativity is checked with Light's test over
  ``generating_set``, at O(n^2 |S|) instead of O(n^3); a table that fails
  still reports the first failing triple in product order.
- Groupoids that ``build_groupoid``, ``from_group`` or ``disjoint_union``
  return are marked lawful, which lets ``xmod.check_axioms`` check the
  laws over base arrows on generators.  ``from_group(g)`` with the
  default object and name is built once and kept on ``g``.
- Validation keeps an ``IndexView``, the table read into integer rows
  with inverses, identities and endpoints as indexes.  Every validated
  group and every groupoid marked lawful carries one (``from_group(g)``
  shares ``g``'s), and the hot readers (``dblgpd.from_xmod``,
  ``xmod.automorphism_group``) compose through it instead of hashing
  elements or arrows.  A crossed module keeps one more level on top of
  these, ``xmod.XModView``, which the square algebra in ``dblgpd`` runs on.
- Exhaustive searches count their candidate space first and refuse loudly
  (SizeGuardExceeded) past ``DEFAULT_SIZE_GUARD`` candidates.  Functors
  and group homomorphisms (``enumerate_morphisms``, ``group_homs``) are
  found by the one presentation-morphism search in ``presentations``,
  over the arrows ``greedy_generators`` picks, so the guard counts the
  |h|^|generators| assignments the search examines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product

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
    inverse.  ``units[x]`` is the identity index at the x-th object, and
    ``src``/``tgt`` give each arrow's object indexes.  A group is one
    object: ``units`` is ``(unit index,)`` and every endpoint is 0.
    """

    items: tuple
    index: dict
    rows: tuple
    inverse: tuple
    units: tuple
    src: tuple
    tgt: tuple


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: element tuple, full multiplication table, unit.

    ``table[(a, b)]`` is the product "a then b".  ``inverse`` is filled in
    by ``validate`` when not given; raw dataclass construction is allowed
    for deliberately broken tables in tests.
    """

    elements: tuple
    table: dict
    unit: object
    inverse: dict = field(default=None, compare=False)
    name: str = field(default="", compare=False)
    # Set by a successful ``validate``; ``init=False`` keeps raw construction
    # and ``dataclasses.replace`` from inheriting it.
    _validated: bool = field(default=False, init=False, compare=False, repr=False)
    # The IndexView that ``validate`` reads the table into; shared by
    # ``from_group(self)`` and every later reader.
    _view: IndexView = field(default=None, init=False, compare=False, repr=False)
    # ``from_group(self)`` with the default object and name, built on first
    # use; ``init=False`` again keeps copies from sharing it.
    _groupoid: object = field(default=None, init=False, compare=False, repr=False)
    # ``xmod.trivial_xmod(self)`` with the default name, kept the same way.
    _trivial: object = field(default=None, init=False, compare=False, repr=False)

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
        witness; a successful check is remembered, so a second call is free.

        Associativity uses Light's test (Clifford & Preston, *The Algebraic
        Theory of Semigroups* I, 1961): (x s) y = x (s y) for all x, y and
        every s in ``generating_set(self)``.  The elements s passing it are
        closed under products, and the unit passes by the unit law.
        ``generating_set`` spans by right-multiplying the unit by
        generators, so every element is a product of generators and passes,
        which is associativity.  The table is read once into rows of
        element indices, so each (x, s) pair compares two rows: O(n^2 |S|)
        in all, instead of O(n^3).  When the test fails, the triple loop
        finds the first failing ``(a, b, c)`` in product order, the witness
        it has always reported.  The rows are kept as the group's
        ``IndexView``, and a group built without an inverse map gets the
        table's.
        """
        if self._validated:
            return self
        elems = self.elements
        index = {x: i for i, x in enumerate(elems)}
        if len(index) != len(elems):
            raise ValidationError("duplicate elements", witness=elems)
        if self.unit not in index:
            raise ValidationError("unit is not an element", witness=self.unit)
        # rows[i][j]: the index of elems[i] times elems[j], None where the
        # product is missing or not an element
        table, get, missing = self.table, index.get, object()
        rows = []
        for a in elems:
            row = [get(table.get((a, b), missing)) for b in elems]
            if None in row:
                b = elems[row.index(None)]
                if (a, b) not in table:
                    raise ValidationError("table is not total", witness=(a, b))
                raise ValidationError(
                    "table leaves the carrier", witness=(a, b, table[(a, b)])
                )
            rows.append(row)
        u = index[self.unit]
        for i, a in enumerate(elems):
            if rows[u][i] != i or rows[i][u] != i:
                raise ValidationError("unit law fails", witness=a)
        ids = range(len(elems))
        for s in generating_set(self):
            k = index[s]
            # (x s) y == x (s y) for every y: the row of x s against the row
            # of x read through the row of s
            if any(rows[row[k]] != [row[j] for j in rows[k]] for row in rows):
                for a, b, c in product(ids, repeat=3):
                    if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                        witness = (elems[a], elems[b], elems[c])
                        raise ValidationError("associativity fails", witness=witness)
        # The table is associative now, so a right inverse is the only
        # two-sided inverse there can be.
        inverse = []
        for i, row in enumerate(rows):
            j = row.index(u) if u in row else None
            if j is None or rows[j][i] != u:
                raise ValidationError("no two-sided inverse", witness=elems[i])
            inverse.append(j)
        ends = (0,) * len(elems)
        view = IndexView(elems, index, tuple(map(tuple, rows)), tuple(inverse), (u,), ends, ends)
        if self.inverse is None:
            object.__setattr__(self, "inverse", dict(zip(elems, map(elems.__getitem__, inverse))))
        object.__setattr__(self, "_view", view)
        object.__setattr__(self, "_validated", True)
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
    return tuple(q[i] for i in p)


def symmetric_group(n, name=None):
    """All permutations of 0..n-1 as image tuples, composed left-then-right."""
    elements = tuple(sorted(product(*(range(n) for _ in range(n)))))
    elements = tuple(p for p in elements if len(set(p)) == n)
    table = {(p, q): perm_mul(p, q) for p in elements for q in elements}
    return finite_group(elements, table, unit=tuple(range(n)), name=name or f"s{n}")


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
    s = symmetric_group(n)
    carrier = tuple(p for p in s.elements if perm_parity(p) == 0)
    return subgroup(s, carrier, name=name or f"a{n}")


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
    for a, b in product(carrier, repeat=2):
        if g.mul(a, b) not in cset:
            raise ValidationError(
                "carrier is not closed under products", witness=(a, b, g.mul(a, b))
            )
    table = {(a, b): g.mul(a, b) for a in carrier for b in carrier}
    return finite_group(carrier, table, unit=g.unit, name=name)


def generating_set(g):
    """A small generating set, chosen greedily in element order."""
    return greedy_generators(g.elements, (g.unit,), g.table)


def greedy_generators(arrows, units, comp):
    """Generators chosen greedily in ``arrows`` order: an arrow is taken when
    no positive word in the arrows taken before it reaches it from
    ``units``.  ``comp[(y, s)]`` is "y then s" for each composable pair, so
    a group passes its table and a groupoid its composition."""
    gens = []
    span = set(units)
    for x in arrows:
        if x in span:
            continue
        gens.append(x)
        frontier = list(units)
        span = set(units)
        while frontier:
            y = frontier.pop()
            for s in gens:
                # a pair that does not compose stays at y, already spanned
                z = comp.get((y, s), y)
                if z not in span:
                    span.add(z)
                    frontier.append(z)
        if len(span) == len(arrows):
            break
    return tuple(gens)


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid: objects, arrows, endpoint maps, composition table.

    ``comp[(a, b)]`` is "a then b", defined exactly when ``tgt[a] == src[b]``.
    ``id_of`` maps each object to its identity arrow, ``inv`` each arrow to
    its two-sided inverse.  Raw construction skips every check; the
    validating constructors mark what they return as lawful.
    """

    objects: tuple
    arrows: tuple
    src: dict
    tgt: dict
    comp: dict
    id_of: dict
    inv: dict
    name: str = field(default="", compare=False)
    # Set by ``build_groupoid``, ``from_group`` and ``disjoint_union`` when
    # every groupoid law holds, together with the IndexView; raw
    # construction and ``dataclasses.replace`` start unmarked and without
    # a view, as with ``FiniteGroup._validated``.
    _validated: bool = field(default=False, init=False, compare=False, repr=False)
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


def build_groupoid(objects, arrows, src, tgt, comp, name=""):
    """Validated FiniteGroupoid constructor; infers identities and inverses.

    Checks totality of the composition table on composable pairs,
    associativity on all composable triples, identity laws, and existence
    of two-sided inverses, reporting a witness for the first failure.
    """
    objects = tuple(objects)
    arrows = tuple(arrows)
    src = dict(src)
    tgt = dict(tgt)
    comp = dict(comp)
    if len(set(objects)) != len(objects):
        raise ValidationError("duplicate objects", witness=objects)
    if len(set(arrows)) != len(arrows):
        raise ValidationError("duplicate arrows", witness=arrows)
    for a in arrows:
        if src.get(a) not in objects or tgt.get(a) not in objects:
            raise ValidationError("arrow with bad endpoints", witness=a)
    for (a, b), c in comp.items():
        if tgt[a] != src[b]:
            raise ValidationError("composite of non-composable pair", witness=(a, b))
        if c not in set(arrows):
            raise ValidationError("composite leaves the carrier", witness=(a, b, c))
        if src[c] != src[a] or tgt[c] != tgt[b]:
            raise ValidationError("composite has wrong endpoints", witness=(a, b, c))
    for a in arrows:
        for b in arrows:
            if tgt[a] == src[b] and (a, b) not in comp:
                raise ValidationError(
                    "composition table is not total", witness=(a, b)
                )
    for a in arrows:
        for b in arrows:
            if tgt[a] != src[b]:
                continue
            ab = comp[(a, b)]
            for c in arrows:
                if tgt[b] != src[c]:
                    continue
                if comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                    raise ValidationError("associativity fails", witness=(a, b, c))
    id_of = {}
    for x in objects:
        for e in arrows:
            if src[e] != x or tgt[e] != x:
                continue
            if all(
                comp[(e, a)] == a for a in arrows if src[a] == x
            ) and all(comp[(a, e)] == a for a in arrows if tgt[a] == x):
                id_of[x] = e
                break
        else:
            raise ValidationError("object with no identity arrow", witness=x)
    inv = {}
    for a in arrows:
        for b in arrows:
            if (
                tgt[a] == src[b]
                and tgt[b] == src[a]
                and comp[(a, b)] == id_of[src[a]]
                and comp[(b, a)] == id_of[src[b]]
            ):
                inv[a] = b
                break
        else:
            raise ValidationError("arrow with no inverse", witness=a)
    p = FiniteGroupoid(
        objects=objects,
        arrows=arrows,
        src=src,
        tgt=tgt,
        comp=comp,
        id_of=id_of,
        inv=inv,
        name=name,
    )
    return _lawful(p, index_view(p))


def _lawful(p, view):
    """Mark ``p`` as a groupoid whose laws hold, keeping ``view`` as its
    IndexView; a ``view`` of None leaves ``p`` unmarked."""
    if view is not None:
        object.__setattr__(p, "_view", view)
        object.__setattr__(p, "_validated", True)
    return p


def index_view(p):
    """The IndexView of groupoid ``p``: the one kept on ``p`` when it is
    marked lawful, else one built for the caller and not kept.  Nothing
    but indexing is checked: an arrow whose ends are not objects, a
    composable pair whose composite is missing or not an arrow, an object
    without an identity arrow, and an arrow without an inverse arrow
    running the other way raise ValidationError with a witness."""
    if p._view is not None:
        return p._view
    arrows = p.arrows
    index = {a: i for i, a in enumerate(arrows)}
    objects = {x: i for i, x in enumerate(p.objects)}
    src, tgt = [], []
    for a in arrows:
        x, y = objects.get(p.src.get(a)), objects.get(p.tgt.get(a))
        if x is None or y is None:
            raise ValidationError("arrow with bad endpoints", witness=a)
        src.append(x)
        tgt.append(y)
    comp, get, missing = p.comp, index.get, object()
    rows = []
    for a, y in zip(arrows, tgt):
        row = [
            get(comp.get((a, b), missing)) if x == y else -1 for b, x in zip(arrows, src)
        ]
        if None in row:
            b = arrows[row.index(None)]
            if (a, b) not in comp:
                raise ValidationError("composition table is not total", witness=(a, b))
            raise ValidationError("composite leaves the carrier", witness=(a, b))
        rows.append(tuple(row))
    units = [get(p.id_of.get(x, missing)) for x in p.objects]
    if None in units:
        witness = p.objects[units.index(None)]
        raise ValidationError("object with no identity arrow", witness=witness)
    inverse = [get(p.inv.get(a, missing)) for a in arrows]
    for i, j in enumerate(inverse):
        if j is None or src[j] != tgt[i] or tgt[j] != src[i]:
            raise ValidationError("arrow with no inverse", witness=arrows[i])
    return IndexView(
        arrows, index, tuple(rows), tuple(inverse), tuple(units), tuple(src), tuple(tgt)
    )


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

    It shares ``g``'s table and inverse map, and with the default object
    and name it is built once per group and kept on ``g``.  It is marked
    lawful, with ``g``'s IndexView, when ``g.inverse`` is the table's
    inverse map, as it is for every group ``finite_group`` builds."""
    g.validate()
    default = obj == "*" and not name
    if default and g._groupoid is not None:
        return g._groupoid
    objects = (obj,)
    arrows = g.elements
    src = {a: obj for a in arrows}
    tgt = {a: obj for a in arrows}
    inv = g.inverse
    p = _lawful(
        FiniteGroupoid(
            objects=objects,
            arrows=arrows,
            src=src,
            tgt=tgt,
            comp=g.table,
            id_of={obj: g.unit},
            inv=inv,
            name=name or g.name,
        ),
        g._view if all(g.table.get((a, inv.get(a))) == g.unit for a in arrows) else None,
    )
    if default:
        object.__setattr__(g, "_groupoid", p)
    return p


def one_object_group(p):
    """The group of a one-object groupoid's arrows, named as ``p``.  A
    lawful ``p`` lends its table, inverses and IndexView, so nothing is
    rebuilt or revalidated; an unmarked one goes through ``finite_group``."""
    unit = p.id_of[p.objects[0]]
    if not p._validated:
        return finite_group(p.arrows, p.comp, unit=unit, name=p.name)
    g = FiniteGroup(elements=p.arrows, table=p.comp, unit=unit, inverse=p.inv, name=p.name)
    object.__setattr__(g, "_view", p._view)
    object.__setattr__(g, "_validated", True)
    return g


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
    p = FiniteGroupoid(
        objects=objects, arrows=arrows, src=src, tgt=tgt, comp=comp,
        id_of=id_of, inv=inv, name=f"{g.name}+{h.name}",
    )
    return _lawful(p, index_view(p) if g._validated and h._validated else None)


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
    """Check that ``f`` is a functor ``g -> h``; stop at the first violated law."""
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
