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

The two type laws, ``boundary-hom``, ``action-identity`` and ``peiffer``
are checked on every element.  Over a base that a validating constructor
built (``build_groupoid``, ``from_group``, ``disjoint_union``), the laws
that quantify over base arrows are checked on a generating set S of the
arrows: ``action-compose`` for b in S and every a, ``action-hom`` and
``boundary-equivariance`` for a in S.  Induction on word length extends
them to every arrow (see ``check_axioms``); a failure reruns the check
over all arrows, so the witnesses do not depend on S.

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
    SizeGuardExceeded,
    ValidationError,
    check_morphism,
    cyclic_group,
    finite_group,
    from_group,
    generating_set,
    greedy_generators,
    perm_parity,
    subgroup,
    symmetric_group,
    trivial_group,
)
from .presentations import _gather, group_homs


@dataclass(frozen=True)
class CrossedModule:
    """Groups ``m[x]`` over base groupoid ``p``, boundary ``mu[x]`` into the
    loops at ``x``, and action table ``action[(m, a)]``."""

    p: FiniteGroupoid
    m: dict
    mu: dict
    action: dict
    name: str = field(default="", compare=False)

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

    When ``xm.p`` is marked lawful, the three laws that quantify over base
    arrows are first checked for b (``action-compose``) or a
    (``action-hom``, ``boundary-equivariance``) in S only, where S is
    ``greedy_generators`` of the arrows from the identities.  Every arrow
    is then a positive word ``id_x s1 ... sk`` in S, and each law extends
    to all arrows by induction on the last letter s, using associativity,
    the unit laws and inverses in P, which the mark guarantees, and the
    ``action-identity`` and type laws, which are checked exhaustively:

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
    whose witnesses are the ones reported.  An unmarked base (raw
    construction or a ``dataclasses.replace`` copy) gets the all-arrows
    pass alone.
    """
    p = xm.p
    if p._validated:
        units = tuple(p.id_of[x] for x in p.objects)
        report = _check_laws(xm, greedy_generators(p.arrows, units, p.comp))
        if report:
            return report
    return _check_laws(xm, p.arrows)


def _check_laws(xm, over):
    """The law check of ``check_axioms`` with the base-arrow laws checked
    for b (``action-compose``) or a (``action-hom``,
    ``boundary-equivariance``) in ``over``; every other law, and a in
    ``action-compose``, ranges over everything."""
    p = xm.p
    action = xm.action
    failures = []

    def fail(family, witness):
        if not any(f == family for f, _ in failures):
            failures.append((family, witness))

    arrows = set(p.arrows)
    carriers = {x: set(xm.m[x].elements) for x in p.objects}
    for x in p.objects:
        table = xm.mu.get(x, {})
        for m in xm.m[x].elements:
            a = table.get(m)
            if a is None or a not in arrows or p.src[a] != x or p.tgt[a] != x:
                fail("boundary-type", (x, m, a))
    for a in p.arrows:
        x, y = p.src[a], p.tgt[a]
        for m in xm.m[x].elements:
            out = action.get((m, a))
            if out is None or out not in carriers[y]:
                fail("action-type", (m, a, out))
    if failures:
        return LawReport(ok=False, failures=tuple(failures))

    for x in p.objects:
        gm = xm.m[x]
        for m, n in product(gm.elements, repeat=2):
            if p.compose(xm.mu[x][m], xm.mu[x][n]) != xm.mu[x][gm.mul(m, n)]:
                fail("boundary-hom", (x, m, n))
                break
        for m in gm.elements:
            if action[(m, p.id_of[x])] != m:
                fail("action-identity", (x, m))
                break
    # the b of action-compose and the a of the other two laws, in order
    after = {x: [b for b in over if p.src[b] == x] for x in p.objects}
    chosen = set(over)
    for a in p.arrows:
        x, y = p.src[a], p.tgt[a]
        gx, gy = xm.m[x], xm.m[y]
        for b in after[y]:
            ab = p.compose(a, b)
            for m in gx.elements:
                if action[(m, ab)] != action[(action[(m, a)], b)]:
                    fail("action-compose", (m, a, b))
                    break
        if a not in chosen:
            continue
        for m, n in product(gx.elements, repeat=2):
            if action[(gx.mul(m, n), a)] != gy.mul(action[(m, a)], action[(n, a)]):
                fail("action-hom", (m, n, a))
                break
        if action[(gx.unit, a)] != gy.unit:
            fail("action-hom", (gx.unit, gx.unit, a))
        for m in gx.elements:
            lhs = xm.mu[y][action[(m, a)]]
            rhs = p.compose(p.compose(p.inverse(a), xm.mu[x][m]), a)
            if lhs != rhs:
                fail("boundary-equivariance", (m, a))
                break
    for x in p.objects:
        gm = xm.m[x]
        for m, n in product(gm.elements, repeat=2):
            if action[(m, xm.mu[x][n])] != gm.conj(m, n):
                fail("peiffer", (x, m, n))
                break
    return LawReport(ok=not failures, failures=tuple(failures))


@dataclass(frozen=True)
class CentralityReport:
    ok: bool
    kernel_sizes: tuple
    witness: object = None

    def __bool__(self):
        return self.ok


def kernel_central_check(xm):
    """The kernel of the boundary must be central in each M(x)."""
    sizes = []
    witness = None
    for x in xm.p.objects:
        gm = xm.m[x]
        kernel = [m for m in gm.elements if xm.mu[x][m] == xm.p.id_of[x]]
        sizes.append((x, len(kernel)))
        for k in kernel:
            for m in gm.elements:
                if gm.mul(k, m) != gm.mul(m, k) and witness is None:
                    witness = (x, k, m)
    return CentralityReport(ok=witness is None, kernel_sizes=tuple(sizes), witness=witness)


def from_normal_subgroup(carrier, g, name=""):
    """The inclusion of a normal subgroup with the conjugation action.

    ``carrier`` is an element list (or a FiniteGroup); subset, closure,
    and normality are all checked, each failure with a witness.
    """
    if isinstance(carrier, FiniteGroup):
        carrier = carrier.elements
    sub = subgroup(g, tuple(carrier), name=name or "sub")
    cset = set(sub.elements)
    for m in sub.elements:
        for x in g.elements:
            c = g.conj(m, x)
            if c not in cset:
                raise ValidationError(
                    "subgroup is not normal", witness=(m, x, c)
                )
    p = from_group(g)
    return CrossedModule(
        p=p,
        m={"*": sub},
        mu={"*": {m: m for m in sub.elements}},
        action={(m, x): g.conj(m, x) for m in sub.elements for x in g.elements},
        name=name or f"{sub.name}<|{g.name or 'group'}",
    )


# Built and validated once: commutative_cube_check asks for a trivial
# crossed module on every cube.
_ONE = trivial_group()


def trivial_xmod(g, name=""):
    """The trivial crossed module over a group: M is the one-element group."""
    one = _ONE
    p = from_group(g)
    return CrossedModule(
        p=p,
        m={"*": one},
        mu={"*": {one.unit: g.unit}},
        action={(one.unit, x): one.unit for x in g.elements},
        name=name or f"1<|{g.name or 'group'}",
    )


def automorphism_group(g, guard=DEFAULT_SIZE_GUARD):
    """All automorphisms of a finite group, encoded as image tuples aligned
    with ``g.elements``; composition is "apply left, then right".  They are
    the bijective ``group_homs(g, g, guard)``.  An automorphism is fixed by
    its images of ``generating_set(g)``, so each product is composed there,
    on indexes of ``g``'s IndexView, and looked up among the automorphisms
    instead of being rebuilt element by element."""
    index = g.validate()._view.index
    n = len(g.elements)
    autos = [images for images in group_homs(g, g, guard) if len(set(images)) == n]
    images = [tuple(map(index.__getitem__, x)) for x in autos]
    at_gens = _gather([index[s] for s in generating_set(g)])
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


def automorphism_xmod(g, name=""):
    """A group over its automorphism group: the boundary sends an element to
    conjugation by it, and automorphisms act by application."""
    aut = automorphism_group(g)
    p = from_group(aut, name=aut.name)
    inner = {m: tuple(g.conj(x, m) for x in g.elements) for m in g.elements}
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
        for x in self.mapping:
            if x not in self.source.elements:
                raise ValidationError(
                    f"mapped name {x!r} is not an element of the source", witness=x
                )
        for x in self.source.elements:
            if self.mapping.get(x) not in self.target.elements:
                raise ValidationError("image missing or outside target", witness=x)
        for a, b in product(self.source.elements, repeat=2):
            lhs = self.mapping[self.source.mul(a, b)]
            rhs = self.target.mul(self.mapping[a], self.mapping[b])
            if lhs != rhs:
                raise ValidationError(
                    "mapping is not a homomorphism", witness=(a, b)
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
    compatibility, equivariance.  First witness per family."""
    src, tgt = f.source, f.target
    failures = []
    base = check_morphism(GroupoidMorphism(obj_map=f.omap, arrow_map=f.amap), src.p, tgt.p)
    if not base:
        failures.append(("base", (base.law, base.witness)))
        return LawReport(ok=False, failures=tuple(failures))
    for x in src.p.objects:
        gm, gn = src.m[x], tgt.m[f.omap[x]]
        table = f.mmap.get(x, {})
        for m in gm.elements:
            if table.get(m) not in gn.elements:
                failures.append(("group-map-type", (x, m)))
                return LawReport(ok=False, failures=tuple(failures))
        for m, n in product(gm.elements, repeat=2):
            if table[gm.mul(m, n)] != gn.mul(table[m], table[n]):
                failures.append(("group-hom", (x, m, n)))
                break
        for m in gm.elements:
            if tgt.mu[f.omap[x]][table[m]] != f.amap[src.mu[x][m]]:
                failures.append(("boundary-compat", (x, m)))
                break
    for a in src.p.arrows:
        x, y = src.p.src[a], src.p.tgt[a]
        for m in src.m[x].elements:
            lhs = f.mmap[y][src.act(m, a)]
            rhs = tgt.act(f.mmap[x][m], f.amap[a])
            if lhs != rhs:
                failures.append(("equivariance", (m, a)))
                break
        else:
            continue
        break
    return LawReport(ok=not failures, failures=tuple(failures))


def is_xmod_isomorphism(f):
    report = check_xmod_morphism(f)
    if not report:
        return False
    images = set(f.omap.values())
    if images != set(f.target.p.objects) or len(images) != len(f.omap):
        return False
    if len(set(f.amap.values())) != len(f.target.p.arrows):
        return False
    for x in f.source.p.objects:
        images = set(f.mmap[x].values())
        if len(images) != len(f.target.m[f.omap[x]].elements):
            return False
    return True


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
    target group.  These classify morphisms out of the induced crossed
    module, one each.  The group homs come from ``group_homs``, so
    ``guard`` bounds |N|^|generators of M| candidates."""
    if tuple(xm.p.objects) != ("*",) or tuple(target.p.objects) != ("*",):
        raise ValidationError("one-object crossed modules required")
    if set(target.p.arrows) != set(hom.target.elements):
        raise ValidationError(
            "target base must be the homomorphism's target group",
            witness=target.p.objects,
        )
    gm, gn = xm.m["*"], target.m["*"]
    found = []
    for images in group_homs(gm, gn, guard):
        phi = dict(zip(gm.elements, images))
        if any(
            target.mu["*"][phi[m]] != hom(xm.mu["*"][m]) for m in gm.elements
        ):
            continue
        if any(
            phi[xm.act(m, p)] != target.act(phi[m], hom(p))
            for m in gm.elements
            for p in xm.p.arrows
        ):
            continue
        found.append(phi)
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
