"""The generator-driven homomorphism search against the brute-force
enumerators it replaced.

``_old_validate`` is the body ``GroupHom.validate`` had while it tested
membership by scanning element tuples and the homomorphism law by a
name-keyed product loop, kept verbatim as an oracle for the index-row
check.

``_old_automorphism_group`` and ``_old_morphisms_over`` are the former
``xmod`` implementations, kept verbatim as oracles: they try every
permutation of the elements, and every map ``M -> N``.  ``_product_homs``
is the group-hom filter of the latter on its own.  Where |h|^|g| is too
large for it, ``_lex_homs`` stands in: a depth-first search over images in
element order that cuts a partial map as soon as an assigned product has
the wrong image.  It is checked against ``_product_homs`` wherever both
run.
"""

import math
from dataclasses import replace
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from gpdkit import group_homs
from gpdkit.core import (
    DEFAULT_SIZE_GUARD,
    FiniteGroup,
    SizeGuardExceeded,
    ValidationError,
    alternating_group,
    cyclic_group,
    finite_group,
    generating_set,
    perm_parity,
    symmetric_group,
)
from gpdkit.xmod import (
    GroupHom,
    automorphism_group,
    bundled_xmods,
    from_normal_subgroup,
    group_hom,
    identity_hom,
    morphisms_over,
)


def _old_automorphism_group(g, guard=DEFAULT_SIZE_GUARD):
    """All automorphisms of a finite group, encoded as image tuples aligned
    with ``g.elements``; composition is "apply left, then right"."""
    g.validate()
    n = len(g.elements)
    if math.factorial(n) > guard:
        raise SizeGuardExceeded(f"automorphism search over {n}! candidates")
    idx = {x: i for i, x in enumerate(g.elements)}
    autos = []
    for images in permutations(g.elements):
        if images[idx[g.unit]] != g.unit:
            continue
        if all(
            images[idx[g.mul(a, b)]] == g.mul(images[idx[a]], images[idx[b]])
            for a in g.elements
            for b in g.elements
        ):
            autos.append(images)
    table = {
        (a, b): tuple(b[idx[a[i]]] for i in range(n))
        for a in autos
        for b in autos
    }
    return finite_group(
        tuple(autos), table, unit=tuple(g.elements), name=f"aut({g.name or 'group'})"
    )


def _old_morphisms_over(xm, hom, target, guard=DEFAULT_SIZE_GUARD):
    """All maps phi: M -> N over ``hom`` (group hom, boundary-compatible,
    equivariant) from a one-object crossed module to one over ``hom``'s
    target group.  These classify morphisms out of the induced crossed
    module, one each."""
    if tuple(xm.p.objects) != ("*",) or tuple(target.p.objects) != ("*",):
        raise ValidationError("one-object crossed modules required")
    if set(target.p.arrows) != set(hom.target.elements):
        raise ValidationError(
            "target base must be the homomorphism's target group",
            witness=target.p.objects,
        )
    gm, gn = xm.m["*"], target.m["*"]
    total = len(gn.elements) ** len(gm.elements)
    if total > guard:
        raise SizeGuardExceeded(f"{total} candidate maps exceed the guard")
    found = []
    for images in product(gn.elements, repeat=len(gm.elements)):
        phi = dict(zip(gm.elements, images))
        if any(
            phi[gm.mul(a, b)] != gn.mul(phi[a], phi[b])
            for a in gm.elements
            for b in gm.elements
        ):
            continue
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


def _product_homs(gm, gn):
    """The group-hom filter of ``_old_morphisms_over``, as image tuples."""
    found = []
    for images in product(gn.elements, repeat=len(gm.elements)):
        phi = dict(zip(gm.elements, images))
        if any(
            phi[gm.mul(a, b)] != gn.mul(phi[a], phi[b])
            for a in gm.elements
            for b in gm.elements
        ):
            continue
        found.append(images)
    return tuple(found)


def _lex_homs(g, h):
    elems = g.elements
    pos = {x: i for i, x in enumerate(elems)}
    found = []
    phi = []

    def extend(k):
        if k == len(elems):
            found.append(tuple(phi))
            return
        for y in h.elements:
            phi.append(y)
            if all(
                pos[g.mul(a, b)] > k or phi[pos[g.mul(a, b)]] == h.mul(phi[i], phi[j])
                for i, a in enumerate(elems[: k + 1])
                for j, b in enumerate(elems[: k + 1])
            ):
                extend(k + 1)
            phi.pop()

    extend(0)
    return tuple(found)


# Above this many candidate maps the product oracle gives way to _lex_homs.
PRODUCT_CAP = 50_000


def _oracle_homs(g, h):
    if len(h.elements) ** len(g.elements) <= PRODUCT_CAP:
        return _product_homs(g, h)
    return _lex_homs(g, h)


GROUPS = {f"c{n}": cyclic_group(n) for n in range(1, 7)}
GROUPS["s3"] = symmetric_group(3)
GROUPS["a4"] = alternating_group(4)


@pytest.mark.parametrize("gname", sorted(GROUPS))
@pytest.mark.parametrize("hname", sorted(GROUPS))
def test_group_homs_match_the_brute_force_list(gname, hname):
    g, h = GROUPS[gname], GROUPS[hname]
    assert group_homs(g, h) == _oracle_homs(g, h)


def test_the_lex_oracle_matches_the_product_oracle():
    small = [g for name, g in GROUPS.items() if name != "a4"]
    checked = 0
    for g, h in product(small, repeat=2):
        if len(h.elements) ** len(g.elements) <= 5_000:
            assert _lex_homs(g, h) == _product_homs(g, h)
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_automorphism_group_matches_the_permutation_oracle(name):
    g = GROUPS[name]
    aut = automorphism_group(g)
    if math.factorial(len(g)) <= DEFAULT_SIZE_GUARD:
        old = _old_automorphism_group(g)
        assert (aut.elements, aut.table, aut.unit) == (old.elements, old.table, old.unit)
    else:
        n = len(g)
        bijective = tuple(t for t in _lex_homs(g, g) if len(set(t)) == n)
        assert aut.elements == bijective
    assert len(aut) == {"c1": 1, "c2": 1, "c3": 2, "c4": 2, "c5": 4, "c6": 2,
                        "s3": 6, "a4": 24}[name]


def _base_group(xm):
    return finite_group(xm.p.arrows, xm.p.comp, unit=xm.p.id_of["*"])


def _onto_c2(group, image):
    return group_hom(group, cyclic_group(2), {x: image(x) for x in group.elements})


def _over_cases():
    """(label, source, hom, target): identity homs between every ordered
    pair of bundled modules over one base, and homs onto c2 into the two
    bundled modules over c2."""
    mods = bundled_xmods()
    cases = []
    for (sname, src), (tname, tgt) in product(mods.items(), repeat=2):
        if set(src.p.arrows) == set(tgt.p.arrows):
            hom = identity_hom(_base_group(src))
            cases.append((f"{sname}-id-{tname}", src, hom, tgt))
    s3, c4 = symmetric_group(3), cyclic_group(4)
    r = (1, 2, 0)
    rpos = s3.elements.index(r)
    quotients = {
        "a3s3": (mods["a3s3"], _onto_c2(s3, perm_parity)),
        "ts3": (mods["ts3"], _onto_c2(s3, perm_parity)),
        # an automorphism of s3 is odd when it swaps the two 3-cycles
        "auts3": (
            mods["auts3"],
            _onto_c2(_base_group(mods["auts3"]), lambda alpha: int(alpha[rpos] != r)),
        ),
        "c4c4": (from_normal_subgroup(c4.elements, c4), _onto_c2(c4, lambda i: i % 2)),
    }
    for sname, (src, hom) in quotients.items():
        for tname in ("c2", "c4c2"):
            cases.append((f"{sname}-quotient-{tname}", src, hom, mods[tname]))
    return cases


OVER_CASES = _over_cases()


@pytest.mark.parametrize("label,src,hom,tgt", OVER_CASES, ids=[c[0] for c in OVER_CASES])
def test_morphisms_over_match_the_old_enumerator(label, src, hom, tgt):
    assert morphisms_over(src, hom, tgt) == _old_morphisms_over(src, hom, tgt)


def _action_perturbations(xm):
    """``xm`` with one action entry moved to another element of its fibre,
    for each entry and element."""
    elements = xm.m["*"].elements
    for key, out in xm.action.items():
        for v in elements:
            if v != out:
                yield replace(xm, action={**xm.action, key: v})


SMALL_OVER_CASES = [
    c for c in OVER_CASES if len(c[3].m["*"]) ** len(c[1].m["*"]) <= 256
]


@pytest.mark.parametrize(
    "label,src,hom,tgt", SMALL_OVER_CASES, ids=[c[0] for c in SMALL_OVER_CASES]
)
def test_morphisms_over_a_perturbed_action_match_the_old_enumerator(label, src, hom, tgt):
    # The old enumerator tries all |N|^|M| maps, so only the small cases.
    cases = [(s, tgt) for s in _action_perturbations(src)]
    cases += [(src, t) for t in _action_perturbations(tgt)]
    for s, t in cases:
        assert morphisms_over(s, hom, t) == _old_morphisms_over(s, hom, t)


def test_the_over_cases_count_maps():
    # A zero means some boundary cannot be matched: c2's boundary is
    # trivial, but conjugation by a transposition is an odd automorphism.
    found = {label: len(morphisms_over(s, h, t)) for label, s, h, t in OVER_CASES}
    assert found == {
        "c2-id-c2": 2, "c2-id-c4c2": 2, "c4c2-id-c2": 0, "c4c2-id-c4c2": 2,
        "a3s3-id-a3s3": 1, "a3s3-id-ts3": 0, "ts3-id-a3s3": 1, "ts3-id-ts3": 1,
        "auts3-id-auts3": 1,
        "a3s3-quotient-c2": 1, "a3s3-quotient-c4c2": 1,
        "ts3-quotient-c2": 1, "ts3-quotient-c4c2": 1,
        "auts3-quotient-c2": 0, "auts3-quotient-c4c2": 0,
        "c4c4-quotient-c2": 0, "c4c4-quotient-c4c2": 2,
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_group_homs_between_cyclic_groups(m, n):
    cm, cn = cyclic_group(m), cyclic_group(n)
    homs = group_homs(cm, cn)
    assert homs == _oracle_homs(cm, cn)
    assert len(homs) == math.gcd(m, n)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 8))
def test_cyclic_automorphisms_match_the_permutation_oracle(n):
    g = cyclic_group(n)
    aut, old = automorphism_group(g), _old_automorphism_group(g)
    assert (aut.elements, aut.table) == (old.elements, old.table)
    assert len(aut) == sum(1 for k in range(n) if math.gcd(k, n) == 1)


def test_a_broken_raw_group_is_still_rejected():
    c3 = cyclic_group(3)
    table = dict(c3.table)
    table[(1, 1)] = 1  # (1 1) 2 = 0 but 1 (1 2) = 1
    broken = FiniteGroup(elements=c3.elements, table=table, unit=0)
    with pytest.raises(ValidationError) as new:
        automorphism_group(broken)
    with pytest.raises(ValidationError) as old:
        _old_automorphism_group(broken)
    assert (str(new.value), new.value.witness) == (str(old.value), old.value.witness)
    assert str(new.value) == "associativity fails"


def test_the_guard_counts_generator_assignments():
    s3 = symmetric_group(3)
    need = len(s3) ** len(generating_set(s3))
    assert need == 36
    assert len(group_homs(s3, s3, guard=need)) == 10
    with pytest.raises(SizeGuardExceeded) as info:
        group_homs(s3, s3, guard=need - 1)
    assert str(info.value) == (
        "presentation morphism search needs more than 35 candidates"
    )


def test_callers_pass_their_guard_through():
    s3 = symmetric_group(3)
    auts3 = bundled_xmods()["auts3"]
    over = identity_hom(_base_group(auts3))
    assert len(morphisms_over(auts3, over, auts3, guard=36)) == 1
    assert len(automorphism_group(s3, guard=36)) == 6
    with pytest.raises(SizeGuardExceeded, match="needs more than 35 candidates"):
        morphisms_over(auts3, over, auts3, guard=35)
    with pytest.raises(SizeGuardExceeded, match="needs more than 11 candidates"):
        automorphism_group(cyclic_group(12), guard=11)


def _old_validate(self):
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


def _verdict(validate, f):
    try:
        return validate(f)
    except ValidationError as exc:
        return str(exc), exc.witness


def _hom_perturbations(hom):
    """``hom`` with a stranger key added, and each single image dropped or
    changed to every other target element and to a name outside it."""
    mapping = hom.mapping
    yield replace(hom, mapping={**mapping, "stray": hom.target.unit})
    for x in mapping:
        yield replace(hom, mapping={k: v for k, v in mapping.items() if k != x})
        for image in (*hom.target.elements, "stray"):
            if image != mapping[x]:
                yield replace(hom, mapping={**mapping, x: image})


HOMS = {label: hom for label, _, hom, _ in OVER_CASES}
HOMS["c4-onto-c2-reversed"] = GroupHom(
    cyclic_group(4), cyclic_group(2), {i: i % 2 for i in reversed(range(4))}
)


@pytest.mark.parametrize("label", sorted(HOMS))
def test_hom_validation_matches_the_name_loop(label):
    hom = HOMS[label]
    assert _verdict(GroupHom.validate, hom) is hom
    assert _old_validate(hom) is hom
    messages = set()
    for broken in _hom_perturbations(hom):
        got = _verdict(GroupHom.validate, broken)
        assert got == _verdict(_old_validate, broken)
        messages.add("valid" if got is broken else got[0].split(" ")[0])
    assert {"mapped", "image", "mapping"} <= messages
