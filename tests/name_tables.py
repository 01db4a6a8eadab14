"""The name-table group constructors that row-building constructors
replaced, kept as oracles for the tests (this module holds no tests
itself).

Before the library's groups were built on integer rows, each constructor
computed its products by name, wrote them into a name-keyed dict and
handed it to ``finite_group``, whose ``FiniteGroup.validate`` read the
dict back into rows; ``from_normal_subgroup`` conjugated by name with
``g.conj``, and ``one_object_group`` and ``vertex_group`` validated the
groupoid's table again as a group's.  The bodies below are those, kept as
they were but for the names they import.
"""

from itertools import permutations, product

from gpdkit.core import (
    DEFAULT_SIZE_GUARD,
    FiniteGroup,
    ValidationError,
    finite_group,
    from_group,
    perm_mul,
    perm_parity,
)
from gpdkit.documents import ParseError, _block, _entries, _find, _names, _need, _value_of
from gpdkit.presentations import _gather, _hom_rows
from gpdkit.xmod import CrossedModule

# -------------------------------------------------------------------- core


def cyclic_group(n, name=None):
    """Z/n, written additively on elements 0..n-1."""
    elements = tuple(range(n))
    table = {(a, b): (a + b) % n for a in elements for b in elements}
    return finite_group(elements, table, unit=0, name=name or f"c{n}")


def _permutation_group(elements, n, name):
    table = {(p, q): perm_mul(p, q) for p in elements for q in elements}
    return finite_group(elements, table, unit=tuple(range(n)), name=name)


def symmetric_group(n, name=None):
    """All permutations of 0..n-1 as sorted image tuples, composed left-then-right."""
    return _permutation_group(tuple(permutations(range(n))), n, name or f"s{n}")


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


# -------------------------------------------------------------------- xmod


def from_normal_subgroup(carrier, g, name=""):
    """The inclusion of a normal subgroup with the conjugation action.

    ``carrier`` is an element list (or a FiniteGroup); subset, closure,
    and normality are all checked, each failure with a witness.
    """
    if isinstance(carrier, FiniteGroup):
        carrier = carrier.elements
    sub = subgroup(g, tuple(carrier), name=name or "sub")
    cset = set(sub.elements)
    action = {(m, x): g.conj(m, x) for m in sub.elements for x in g.elements}
    for (m, x), c in action.items():
        if c not in cset:
            raise ValidationError("subgroup is not normal", witness=(m, x, c))
    return CrossedModule(
        p=from_group(g),
        m={"*": sub},
        mu={"*": {m: m for m in sub.elements}},
        action=action,
        name=name or f"{sub.name}<|{g.name or 'group'}",
    )


def automorphism_group(g, guard=DEFAULT_SIZE_GUARD):
    """All automorphisms of a finite group, encoded as image tuples aligned
    with ``g.elements``; composition is "apply left, then right".  They are
    the bijective ``group_homs(g, g, guard)``, read as rows of indexes of
    ``g``'s IndexView.  An automorphism is fixed by its images of the
    generators that view keeps, so each product is composed there and
    looked up among the automorphisms instead of being rebuilt element by
    element."""
    v = g.validate()._view
    n = len(v.items)
    images = [a for a in _hom_rows(g, g, guard) if len(set(a)) == n]
    autos = [tuple(map(v.items.__getitem__, a)) for a in images]
    at_gens = _gather(v.gens)
    by_gens = {at_gens(a): x for a, x in zip(images, autos)}
    table = {}
    for x, a in zip(autos, images):
        # b read at a's generator images: (a then b) at the generators
        then = _gather(at_gens(a))
        for y, b in zip(autos, images):
            table[(x, y)] = by_gens[then(b)]
    return finite_group(
        tuple(autos), table, unit=tuple(g.elements), name=f"aut({g.name or 'group'})"
    )


# --------------------------------------------------------------- documents


def group_of(node):
    name = _value_of(node, "name", required=False)[0] or ""
    perms = _find(node, "perms")
    if perms is not None:
        _block(perms)
        degree_text, degree_line = _value_of(node, "degree")
        try:
            degree = int(degree_text)
        except ValueError:
            raise ParseError(
                f"degree must be an integer, got {degree_text!r}", degree_line
            )
        elements = []
        images, lookup = {}, {}
        for line, key, value, _, kids in _entries(perms):
            if kids:
                raise ParseError("permutation rows take no nested lines", line)
            if key in images:
                raise ParseError(f"duplicate element {key!r}", line)
            try:
                perm = tuple(int(t) for t in value.split())
            except ValueError:
                raise ParseError("permutation images must be integers", line)
            if sorted(perm) != list(range(degree)):
                raise ParseError(f"row is not a permutation of 0..{degree - 1}", line)
            if perm in lookup:
                raise ParseError(
                    f"rows {lookup[perm]!r} and {key!r} list the same permutation", line
                )
            elements.append(key)
            images[key] = perm
            lookup[perm] = key
        if not elements:
            raise ParseError("perms section is empty", perms[0])
        table = {}
        for a in elements:
            for b in elements:
                prod = perm_mul(images[a], images[b])
                if prod not in lookup:
                    raise ParseError(
                        f"product of {a!r} and {b!r} is not listed", perms[0]
                    )
                table[(a, b)] = lookup[prod]
        unit = lookup.get(tuple(range(degree)))
        if unit is None:
            raise ParseError("identity permutation is not listed", perms[0])
        return finite_group(tuple(elements), table, unit=unit, name=name)
    elements = tuple(_names(*_value_of(node, "elements")))
    unit = _value_of(node, "unit", required=False)[0]
    tbl = _block(_need(node, "table"))
    table = {}
    for line, x, value, _, kids in _entries(tbl):
        if kids:
            raise ParseError("table rows take no nested lines", line)
        if x not in elements:
            raise ParseError(f"unknown element {x!r}", line)
        products = _names(value, line)
        if len(products) != len(elements):
            raise ParseError(f"row for {x!r} needs {len(elements)} products", line)
        for y, p in zip(elements, products):
            if (x, y) in table:
                raise ParseError(f"duplicate row for {x!r}", line)
            table[(x, y)] = p
    return finite_group(elements, table, unit=unit, name=name)
