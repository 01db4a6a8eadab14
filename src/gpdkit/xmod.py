"""Crossed modules over groupoids: a family of groups M(x) indexed by the
objects of a base groupoid P, a boundary map into the loops of P, and a
right action of P's arrows on the family.

Laws, checked by ``check_axioms`` with one witness per violated family:

  boundary-type          mu(x) sends M(x) into the loops of P at x
  boundary-hom           mu(m n) = mu(m) mu(n)
  action-type            m^a lies in M(tgt a) for m in M(src a)
  action-identity        m^{id} = m
  action-compose         m^{a then b} = (m^a)^b
  action-hom             (m n)^a = m^a n^a and 1^a = 1
  boundary-equivariance  mu(m^a) = a^{-1} mu(m) a
  peiffer                m^{mu(n)} = n^{-1} m n

The laws are read on the module's ``XModView``, the two type laws as its
holes.  Those two, ``boundary-hom``, ``action-identity`` and ``peiffer``
are checked on every element.  The base is validated on first read, then
kept (``core.index_view``), so it is always lawful, and the laws that
quantify over base arrows are checked on a generating set S of the arrows:
``action-compose`` for b in S and every a, ``action-hom`` and
``boundary-equivariance`` for a in S.  Induction on word length extends
them to every arrow (see ``check_axioms``); a failure reruns the check
over all arrows, so the witnesses do not depend on S.  Inverses are the
tables', as validation rejects a contradicting ``inverse`` or ``inv`` map.

``check_xmod_morphism`` reads the views of its source and target, and
``GroupHom.validate`` those of its groups: maps are read once into index
rows, and elements and arrows are named only for a witness.

Conventions: the action is a right action written ``act(m, a)``, groupoid
composition is diagrammatic, and conjugation is ``g^{-1} m g``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .core import (
    DEFAULT_SIZE_GUARD,
    FiniteGroup,
    FiniteGroupoid,
    GroupoidMorphism,
    IndexView,
    SizeGuardExceeded,
    ValidationError,
    _group_of_rows,
    check_morphism,
    cyclic_group,
    from_group,
    index_view,
    perm_parity,
    subgroup,
    symmetric_group,
    trivial_group,
)
from .presentations import _gather, _hom_rows

__all__ = [
    "CentralityReport",
    "CrossedModule",
    "FiberReport",
    "FreeXModPresentation",
    "GroupHom",
    "InducedXModPresentation",
    "LawReport",
    "XModMorphism",
    "automorphism_group",
    "automorphism_xmod",
    "bundled_xmods",
    "check_axioms",
    "check_xmod_morphism",
    "crossed_module",
    "free_xmod",
    "from_normal_subgroup",
    "group_hom",
    "identity_hom",
    "identity_xmod_morphism",
    "induced_xmod_presentation",
    "is_xmod_isomorphism",
    "kernel_central_check",
    "morphisms_from_free",
    "morphisms_over",
    "trivial_xmod",
]


@dataclass(frozen=True)
class XModView:
    """A crossed module read into integers, on top of the IndexViews of its
    base and fibres.

    ``base`` is the base groupoid's IndexView and ``fibres[x]`` the
    IndexView of the group at the x-th object.  ``act[a][i]`` is the index
    in M(tgt a) of the i-th element of M(src a) acted on by the a-th arrow,
    and ``mu[x][i]`` the arrow index of the boundary of the i-th element of
    M(x).  Where a lawless module's tables give no such index (an action
    value missing or outside the fibre, a boundary that is not an arrow)
    the entry is None, and composing through it fails with a TypeError.
    """

    base: IndexView
    fibres: tuple
    act: tuple
    mu: tuple


@dataclass(frozen=True)
class CrossedModule:
    """Groups ``m[x]`` over base groupoid ``p``, boundary ``mu[x]`` into the
    loops at ``x``, and action table ``action[(m, a)]``."""

    p: FiniteGroupoid
    m: dict
    mu: dict
    action: dict
    name: str = field(default="", compare=False)
    # The XModView, read by ``xmod_view`` on first use and kept;
    # ``init=False`` keeps a ``dataclasses.replace`` copy from sharing it,
    # as with ``FiniteGroup._view``.
    _view: XModView = field(default=None, init=False, compare=False, repr=False)

    def group_at(self, x):
        return self.m[x]

    def boundary(self, x, elt):
        return self.mu[x][elt]

    def act(self, elt, arrow):
        return self.action[(elt, arrow)]

    def total_elements(self):
        return sum(len(self.m[x].elements) for x in self.p.objects)


def crossed_module(p, m, mu, action, name=""):
    """Structural constructor: groups are validated, laws are not (use
    ``check_axioms``), so deliberately broken inputs stay constructible."""
    if set(m.keys()) != set(p.objects):
        raise ValidationError(
            "groups must be indexed by the objects",
            witness=tuple(sorted(set(m.keys()) ^ set(p.objects), key=str)),
        )
    for x in p.objects:
        m[x].validate()
    return CrossedModule(p=p, m=dict(m), mu=dict(mu), action=dict(action), name=name)


def xmod_view(xm):
    """The XModView of ``xm``, read on first use, then kept on ``xm``.  The
    base is validated on first read by ``index_view`` and each fibre by
    ``validate``, so a base or fibre that breaks a law raises
    ValidationError with its witness."""
    if xm._view is not None:
        return xm._view
    p = xm.p
    base = index_view(p)
    fibres = tuple(xm.m[x].validate()._view for x in p.objects)
    action, missing = xm.action, object()
    act = tuple(
        tuple(map(fibres[y].index.get, [action.get((m, a), missing) for m in fibres[x].items]))
        for a, x, y in zip(base.items, base.src, base.tgt)
    )
    mu = tuple(
        tuple(base.index.get(xm.mu.get(x, {}).get(m, missing)) for m in fibre.items)
        for x, fibre in zip(p.objects, fibres)
    )
    v = XModView(base, fibres, act, mu)
    object.__setattr__(xm, "_view", v)
    return v


@dataclass(frozen=True)
class LawReport:
    """Outcome of a law check: ``failures`` pairs each violated family with
    one witness."""

    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok

    def family(self, name):
        return next((w for f, w in self.failures if f == name), None)


def check_axioms(xm):
    """Check every law of the module docstring, with the first witness of
    each violated family in the order of an all-arrows pass.

    The three laws that quantify over base arrows are first checked for b
    (``action-compose``) or a (``action-hom``, ``boundary-equivariance``)
    in S only, where S is the generating set kept on the base's IndexView,
    chosen greedily in arrow order from the identities when its table was
    read.  Every arrow is then a positive word ``id_x s1 ... sk`` in S, and
    each law extends to all arrows by induction on the last letter s, using
    associativity, the unit laws and inverses in P, which hold as the base
    is validated on first read, then kept, and the ``action-identity`` and
    type laws, which are checked exhaustively:

    - ``action-compose``: m^{a (b s)} = m^{(a b) s} = (m^{a b})^s
      = ((m^a)^b)^s = (m^a)^{b s}, the last step being the law for s at
      the arrow b;
    - ``action-hom``: (m n)^{a s} = ((m n)^a)^s = (m^a n^a)^s
      = m^{a s} n^{a s}, and 1^{a s} = (1^a)^s = 1;
    - ``boundary-equivariance``: mu(m^{a s}) = s^-1 mu(m^a) s
      = s^-1 a^-1 mu(m) a s = (a s)^-1 mu(m) (a s).

    The empty word is an identity, where each law follows from
    ``action-identity``.  So the check on S passes exactly when the check
    on all arrows does.  A failure anywhere reruns the all-arrows pass,
    whose witnesses are the ones reported.

    The laws are read on ``xmod_view(xm)``, which raises ValidationError on
    a base that is not a groupoid or a fibre that is not a group.  Inverses
    are the tables', as validation rejects a contradicting ``inverse`` or
    ``inv`` map.
    """
    arrows = xm.p.arrows
    gens = [arrows[k] for k in xmod_view(xm).base.gens]
    return _check_laws(xm, gens) or _check_laws(xm, arrows)


def _check_laws(xm, over):
    """The law check of ``check_axioms`` on the XModView, with the base-arrow
    laws checked for b (``action-compose``) or a (``action-hom``,
    ``boundary-equivariance``) in the arrows ``over``; every other law, and
    a in ``action-compose``, ranges over everything."""
    v = xmod_view(xm)
    base, fibres, act, mu = v.base, v.fibres, v.act, v.mu
    rows, src, tgt, arrows, objects = base.rows, base.src, base.tgt, base.items, xm.p.objects
    failures = {}  # family -> its first witness, in the order they fail
    fail = failures.setdefault
    hole = next(((x, i) for x, mux in enumerate(mu) for i, a in enumerate(mux)
                 if a is None or not src[a] == tgt[a] == x), None)
    if hole:
        x, m = objects[hole[0]], fibres[hole[0]].items[hole[1]]
        fail("boundary-type", (x, m, xm.mu.get(x, {}).get(m)))
    a = next((a for a, acta in enumerate(act) if None in acta), None)
    if a is not None:
        m = fibres[src[a]].items[act[a].index(None)]
        fail("action-type", (m, arrows[a], xm.action.get((m, arrows[a]))))
    if failures:
        return LawReport(ok=False, failures=tuple(failures.items()))
    for x, (fibre, mux) in enumerate(zip(fibres, mu)):
        items = fibre.items
        at = _first((map(rows[mux[i]].__getitem__, mux), map(mux.__getitem__, row))
                    for i, row in enumerate(fibre.rows))
        if at:
            fail("boundary-hom", (objects[x], items[at[0]], items[at[1]]))
        at = _first([(act[base.units[x]], range(len(items)))])
        if at:
            fail("action-identity", (objects[x], items[at[1]]))
    # the b of action-compose and the a of the other two laws, in order
    over = [base.index[b] for b in over]
    after = [[b for b in over if src[b] == y] for y in range(len(objects))]
    chosen = set(over)
    for a, (x, y, acta) in enumerate(zip(src, tgt, act)):
        items, fy = fibres[x].items, fibres[y]
        at = _first((act[rows[a][b]], map(act[b].__getitem__, acta)) for b in after[y])
        if at:
            fail("action-compose", (items[at[1]], arrows[a], arrows[after[y][at[0]]]))
        if a not in chosen:
            continue
        at = _first((map(acta.__getitem__, row), map(fy.rows[acta[i]].__getitem__, acta))
                    for i, row in enumerate(fibres[x].rows))
        if at:
            fail("action-hom", (items[at[0]], items[at[1]], arrows[a]))
        # 1^a = 1 follows, as 1^a = (1 1)^a = 1^a 1^a in the group M(y)
        back = rows[base.inverse[a]]
        at = _first([(map(mu[y].__getitem__, acta), [rows[back[k]][a] for k in mu[x]])])
        if at:
            fail("boundary-equivariance", (items[at[1]], arrows[a]))
    for x, (fibre, mux) in enumerate(zip(fibres, mu)):
        frows, inverse, by = fibre.rows, fibre.inverse, [act[k] for k in mux]
        # m^{mu(n)} against n^-1 m n, over n
        at = _first(([t[m] for t in by], [frows[frows[k][m]][n] for n, k in enumerate(inverse)])
                    for m in range(len(frows)))
        if at:
            fail("peiffer", (objects[x], fibre.items[at[0]], fibre.items[at[1]]))
    return LawReport(ok=not failures, failures=tuple(failures.items()))


def _first(pairs):
    """The first (i, j) where the i-th pair of int sequences differs at j, or None."""
    for i, (lhs, rhs) in enumerate(pairs):
        lhs, rhs = tuple(lhs), tuple(rhs)
        if lhs != rhs:
            return i, next(j for j, (u, w) in enumerate(zip(lhs, rhs)) if u != w)
    return None


def _unhomomorphic(phi, source, target):
    """The first (i, j) with phi(i j) != phi(i) phi(j) in the ``source`` and
    ``target`` rows, or None."""
    return _first((map(phi.__getitem__, row), map(target[phi[i]].__getitem__, phi))
                  for i, row in enumerate(source))


@dataclass(frozen=True)
class CentralityReport:
    ok: bool
    kernel_sizes: tuple
    witness: object = None

    def __bool__(self):
        return self.ok


def kernel_central_check(xm):
    """The kernel of the boundary must be central in each M(x); read on the
    XModView, where a boundary entry that is not an arrow is outside it."""
    v = xmod_view(xm)
    sizes, witness = [], None
    for x, fibre, mux, unit in zip(xm.p.objects, v.fibres, v.mu, v.base.units):
        kernel = [k for k, a in enumerate(mux) if a == unit]
        sizes.append((x, len(kernel)))
        rows = fibre.rows
        # k m against m k, over m
        at = witness is None and _first((rows[k], [row[k] for row in rows]) for k in kernel)
        if at:
            witness = (x, fibre.items[kernel[at[0]]], fibre.items[at[1]])
    return CentralityReport(ok=witness is None, kernel_sizes=tuple(sizes), witness=witness)


def from_normal_subgroup(carrier, g, name=""):
    """The inclusion of a normal subgroup with the conjugation action.

    ``carrier`` is an element list (or a FiniteGroup); subset, closure,
    and normality are all checked, each failure with a witness.
    """
    if isinstance(carrier, FiniteGroup):
        carrier = carrier.elements
    sub = subgroup(g, tuple(carrier), name=name or "sub")
    v = g._view
    items, rows, at = v.items, v.rows, v.index
    cset = set(sub.elements)
    action = {}
    for m in sub.elements:
        i = at[m]
        # m^x = x^-1 m x, read off the rows
        for x, c in zip(items, [rows[rows[k][i]][j] for j, k in enumerate(v.inverse)]):
            c = items[c]
            if c not in cset:
                raise ValidationError("subgroup is not normal", witness=(m, x, c))
            action[(m, x)] = c
    return CrossedModule(
        p=from_group(g),
        m={"*": sub},
        mu={"*": {m: m for m in sub.elements}},
        action=action,
        name=name or f"{sub.name}<|{g.name or 'group'}",
    )


_ONE = trivial_group()


def trivial_xmod(g, name=""):
    """The trivial crossed module over a group: M is the one-element group."""
    one = _ONE
    return CrossedModule(
        p=from_group(g),
        m={"*": one},
        mu={"*": {one.unit: g.unit}},
        action={(one.unit, x): one.unit for x in g.elements},
        name=name or f"1<|{g.name or 'group'}",
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
    by_gens = {at_gens(a): k for k, a in enumerate(images)}
    rows = []
    for a in images:
        # b read at a's generator images: (a then b) at the generators
        then = _gather(at_gens(a))
        rows.append(tuple([by_gens[then(b)] for b in images]))
    return _group_of_rows(
        tuple(autos), tuple(rows), tuple(g.elements), f"aut({g.name or 'group'})"
    )


def automorphism_xmod(g, name=""):
    """A group over its automorphism group: the boundary sends an element m
    to conjugation by it, x -> m^-1 x m, read off ``g``'s IndexView rows,
    and automorphisms act by application."""
    aut = automorphism_group(g)
    p = from_group(aut, name=aut.name)
    v = g._view
    items, rows = v.items, v.rows
    inner = {
        m: tuple([items[rows[k][i]] for k in rows[v.inverse[i]]])
        for i, m in enumerate(items)
    }
    return CrossedModule(
        p=p,
        m={"*": g},
        mu={"*": inner},
        action={
            (m, alpha): alpha[i] for i, m in enumerate(g.elements) for alpha in aut.elements
        },
        name=name or f"{g.name or 'group'}<|aut",
    )


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    mapping: dict

    def __call__(self, x):
        return self.mapping[x]

    def validate(self):
        """Raise ValidationError at the first stray key, missing or outside
        image, or pair (a, b) in product order with phi(a b) != phi(a) phi(b),
        read on the IndexViews of the groups, which are validated first."""
        sv, tv = self.source.validate()._view, self.target.validate()._view
        for x in self.mapping:
            if x not in sv.index:
                raise ValidationError(
                    f"mapped name {x!r} is not an element of the source", witness=x
                )
        phi = list(map(tv.index.get, map(self.mapping.get, sv.items)))
        if None in phi:
            witness = sv.items[phi.index(None)]
            raise ValidationError("image missing or outside target", witness=witness)
        at = _unhomomorphic(phi, sv.rows, tv.rows)
        if at:
            raise ValidationError(
                "mapping is not a homomorphism", witness=(sv.items[at[0]], sv.items[at[1]])
            )
        return self


def group_hom(source, target, mapping):
    return GroupHom(source=source, target=target, mapping=dict(mapping)).validate()


def identity_hom(g):
    return GroupHom(source=g, target=g, mapping={x: x for x in g.elements})


@dataclass(frozen=True)
class XModMorphism:
    """A morphism of crossed modules: a groupoid morphism on the bases and a
    per-object group map ``mmap[x]``."""

    source: CrossedModule
    target: CrossedModule
    omap: dict
    amap: dict
    mmap: dict


def identity_xmod_morphism(xm):
    return XModMorphism(
        source=xm,
        target=xm,
        omap={x: x for x in xm.p.objects},
        amap={a: a for a in xm.p.arrows},
        mmap={x: {m: m for m in xm.m[x].elements} for x in xm.p.objects},
    )


def check_xmod_morphism(f):
    """Law families: base (groupoid morphism), group-hom, boundary
    compatibility, equivariance.  First witness per family; a missing or
    outside image (``group-map-type``) ends the check.  Past the base check
    the laws are read on the XModViews of the source and target, which
    raise ValidationError on a fibre that is not a group or a base that
    cannot be indexed; an entry a view leaves empty fails its law there."""
    src, tgt = f.source, f.target
    base = check_morphism(GroupoidMorphism(obj_map=f.omap, arrow_map=f.amap), src.p, tgt.p)
    if not base:
        return LawReport(ok=False, failures=(("base", (base.law, base.witness)),))
    failures = []
    v, w = xmod_view(src), xmod_view(tgt)
    h = [w.base.index[f.amap[a]] for a in v.base.items]
    phis = []  # mmap[x] as target-fibre indexes, over the source objects
    for x, fibre, mux, unit in zip(src.p.objects, v.fibres, v.mu, v.base.units):
        y = w.base.src[h[unit]]  # the object omap[x]
        table, items = f.mmap.get(x, {}), fibre.items
        phi = list(map(w.fibres[y].index.get, map(table.get, items)))
        if None in phi:
            failures.append(("group-map-type", (x, items[phi.index(None)])))
            return LawReport(ok=False, failures=tuple(failures))
        phis.append(phi)
        at = _unhomomorphic(phi, fibre.rows, w.fibres[y].rows)
        if at:
            failures.append(("group-hom", (x, items[at[0]], items[at[1]])))
        at = _first([(map(w.mu[y].__getitem__, phi), [-1 if k is None else h[k] for k in mux])])
        if at:
            failures.append(("boundary-compat", (x, items[at[1]])))
    for a, (x, y, acta) in enumerate(zip(v.base.src, v.base.tgt, v.act)):
        phi = phis[y]
        at = _first([([-1 if k is None else phi[k] for k in acta],
                      map(w.act[h[a]].__getitem__, phis[x]))])
        if at:
            failures.append(("equivariance", (v.fibres[x].items[at[1]], v.base.items[a])))
            break
    return LawReport(ok=not failures, failures=tuple(failures))


def is_xmod_isomorphism(f):
    """A morphism that is a bijection on objects, on arrows and on each
    fibre, counted on the images of the source's own objects, arrows and
    elements: a key outside the source is not read."""
    if not check_xmod_morphism(f):
        return False
    src, tgt = f.source, f.target

    def bijective(keys, image, onto):
        return len(set(map(image.__getitem__, keys))) == len(keys) == len(onto)

    return (bijective(src.p.objects, f.omap, tgt.p.objects)
            and bijective(src.p.arrows, f.amap, tgt.p.arrows)
            and all(bijective(src.m[x].elements, f.mmap[x], tgt.m[f.omap[x]].elements)
                    for x in src.p.objects))


@dataclass(frozen=True)
class FreeXModPresentation:
    """The free crossed module on generators with prescribed boundaries.

    Carried elements are formal pairs ``(r, q)`` (a generator conjugated by
    a group element) combined freely modulo the Peiffer relations; only the
    presentation data is stored, since the carrier is infinite in general.
    Its defining property: morphisms to a crossed module over the same group
    correspond to boundary-compatible images of the generators.
    """

    group: FiniteGroup
    generators: tuple
    boundary: dict

    def validate(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValidationError("duplicate generators", witness=self.generators)
        for r in self.generators:
            if self.boundary.get(r) not in self.group.elements:
                raise ValidationError("boundary image missing", witness=r)
        return self

    def render(self):
        lines = [
            f"free crossed module over {self.group.name or 'group'} "
            f"on {len(self.generators)} generator(s)",
        ]
        for r in self.generators:
            lines.append(f"  d({r}) = {self.boundary[r]}")
        lines.append("  elements: products of pairs (r, q), q in the group")
        lines.append("  d(r, q) = q^-1 d(r) q;  (r, q)^u = (r, q u)")
        lines.append("  peiffer: s^-1 t s = t^{d(s)} for formal elements s, t")
        return "\n".join(lines)


def free_xmod(group, generators, boundary):
    return FreeXModPresentation(
        group=group, generators=tuple(generators), boundary=dict(boundary)
    ).validate()


@dataclass(frozen=True)
class FiberReport:
    """Morphisms from a free crossed module, classified by generator images:
    one boundary-compatible choice per generator, independently."""

    fibers: tuple  # (generator, images tuple)
    count: int
    assignments: tuple  # dicts generator -> element, canonical order


def morphisms_from_free(free, xm, guard=DEFAULT_SIZE_GUARD):
    """All morphisms (over the identity on the base group) from a free
    crossed module into ``xm``; the count is the product of the boundary
    fiber sizes."""
    free.validate()
    if tuple(xm.p.objects) != ("*",) or set(xm.p.arrows) != set(free.group.elements):
        raise ValidationError(
            "target is not a crossed module over the same group",
            witness=xm.p.objects,
        )
    gm = xm.m["*"]
    fibers = []
    for r in free.generators:
        want = free.boundary[r]
        fibers.append((r, tuple(m for m in gm.elements if xm.mu["*"][m] == want)))
    count = 1
    for _, images in fibers:
        count *= len(images)
    if count > guard:
        raise SizeGuardExceeded(f"{count} assignments exceed the guard", count, guard)
    assignments = tuple(
        dict(zip(free.generators, choice))
        for choice in product(*(images for _, images in fibers))
    )
    return FiberReport(fibers=tuple(fibers), count=count, assignments=assignments)


@dataclass(frozen=True)
class InducedXModPresentation:
    """The crossed module induced along a group homomorphism, by
    presentation.  Generators are pairs (m, q); only the data is stored.
    Its defining property: morphisms out of it over the identity correspond
    to morphisms out of the source over ``hom`` (see ``morphisms_over``).
    """

    source: CrossedModule
    hom: GroupHom

    def validate(self):
        if tuple(self.source.p.objects) != ("*",):
            raise ValidationError(
                "induction starts from a one-object crossed module",
                witness=self.source.p.objects,
            )
        if set(self.source.p.arrows) != set(self.hom.source.elements):
            raise ValidationError(
                "homomorphism source must be the base group",
                witness=self.hom.source.name,
            )
        self.hom.validate()
        return self

    def render(self):
        gm = self.source.m["*"]
        lines = [
            f"induced crossed module along {self.hom.source.name or 'P'} -> "
            f"{self.hom.target.name or 'Q'}",
            f"  generators: pairs (m, q), m in {gm.name or 'M'} "
            f"({len(gm.elements)} elements), q in the target group "
            f"({len(self.hom.target.elements)} elements)",
            "  relations:",
            "    (m, q) (n, q) = (m n, q)",
            "    (m, f(p) q) = (m^p, q)",
            "    d(m, q) = q^-1 f(d m) q",
            "    peiffer: s^-1 t s = t^{d(s)}",
        ]
        return "\n".join(lines)


def induced_xmod_presentation(xm, hom):
    return InducedXModPresentation(source=xm, hom=hom).validate()


def morphisms_over(xm, hom, target, guard=DEFAULT_SIZE_GUARD):
    """All maps phi: M -> N over ``hom`` (group hom, boundary-compatible,
    equivariant) from a one-object crossed module to one over ``hom``'s
    target group, ``hom`` checked as ``induced_xmod_presentation`` checks
    it.  They classify morphisms out of the induced crossed module, one
    each.  ``guard`` bounds the |N|^|generators of M| ``group_homs``
    candidates, whose images are read as rows of N's indexes."""
    if tuple(xm.p.objects) != ("*",) or tuple(target.p.objects) != ("*",):
        raise ValidationError("one-object crossed modules required")
    if set(target.p.arrows) != set(hom.target.elements):
        raise ValidationError(
            "target base must be the homomorphism's target group",
            witness=target.p.objects,
        )
    InducedXModPresentation(xm, hom).validate()
    v, w = xmod_view(xm), xmod_view(target)
    # hom on base indexes, each m's boundary under it, each arrow's actions
    h = [w.base.index[hom(p)] for p in v.base.items]
    want = [h[a] for a in v.mu[0]]
    acts = [(v.act[p], w.act[q]) for p, q in enumerate(h)]
    found, names = [], w.fibres[0].items
    for phi in _hom_rows(xm.m["*"], target.m["*"], guard):
        if list(map(w.mu[0].__getitem__, phi)) == want and all(
            list(map(phi.__getitem__, am)) == list(map(an.__getitem__, phi)) for am, an in acts
        ):
            found.append(dict(zip(v.fibres[0].items, map(names.__getitem__, phi))))
    return tuple(found)


def bundled_xmods():
    """Small named crossed modules used throughout the test batteries."""
    c2 = cyclic_group(2)
    c4 = cyclic_group(4)
    s3 = symmetric_group(3)
    out = {}

    out["c2"] = crossed_module(
        from_group(c2, name="c2"),
        {"*": c2},
        {"*": {m: 0 for m in c2.elements}},
        {(m, p): m for m in c2.elements for p in c2.elements},
        name="c2-over-c2",
    )
    a3 = tuple(x for x in s3.elements if perm_parity(x) == 0)
    out["a3s3"] = from_normal_subgroup(a3, s3, name="a3<|s3")
    out["ts3"] = trivial_xmod(s3, name="1<|s3")
    out["auts3"] = automorphism_xmod(s3, name="s3<|aut")
    out["c4c2"] = crossed_module(
        from_group(c2, name="c2"),
        {"*": c4},
        {"*": {m: m % 2 for m in c4.elements}},
        {(m, p): m for m in c4.elements for p in c2.elements},
        name="c4-over-c2",
    )
    return out
