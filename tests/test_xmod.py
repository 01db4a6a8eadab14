"""Crossed-module law checking against hand-computed small cases.

``_old_check_xmod_morphism`` is the body ``check_xmod_morphism`` had while
it tested each image for membership by scanning the target fibre's
element tuple, kept verbatim as an oracle.  The library reads the laws on
the XModViews of the source and target and must report the same failures,
on round-trip isomorphisms and on every single-image perturbation of them.
"""

from dataclasses import replace
from itertools import product

import pytest

from gpdkit.core import (
    GroupoidMorphism,
    SizeGuardExceeded,
    ValidationError,
    alternating_group,
    check_morphism,
    cyclic_group,
    finite_group,
    from_group,
    perm_parity,
    symmetric_group,
)
from gpdkit.dblgpd import from_xmod, round_trip_isomorphism, to_xmod
from gpdkit.xmod import (
    CentralityReport,
    GroupHom,
    LawReport,
    XModMorphism,
    automorphism_group,
    automorphism_xmod,
    bundled_xmods,
    check_axioms,
    check_xmod_morphism,
    crossed_module,
    free_xmod,
    from_normal_subgroup,
    group_hom,
    identity_hom,
    identity_xmod_morphism,
    induced_xmod_presentation,
    is_xmod_isomorphism,
    kernel_central_check,
    morphisms_from_free,
    morphisms_over,
    trivial_xmod,
)
from test_cubes import CARRIER_MODULES
from test_int_squares import reordered_interval_xmod


def bad_xmod():
    # nonabelian fibre with trivial boundary and trivial action
    s3 = symmetric_group(3)
    c2 = cyclic_group(2)
    return crossed_module(
        from_group(c2, name="c2"),
        {"*": s3},
        {"*": {m: 0 for m in s3.elements}},
        {(m, p): m for m in s3.elements for p in c2.elements},
        name="bad",
    )


def test_bundled_xmods_satisfy_the_axioms():
    for name, xm in bundled_xmods().items():
        report = check_axioms(xm)
        assert report.ok, (name, report.failures)


def test_normal_subgroup_inclusion_passes():
    s3 = symmetric_group(3)
    xm = from_normal_subgroup(alternating_group(3).elements, s3)
    assert check_axioms(xm).ok
    assert len(xm.m["*"].elements) == 3
    assert len(xm.p.arrows) == 6


def test_non_normal_subgroup_is_rejected_with_witness():
    s3 = symmetric_group(3)
    swap = (1, 0, 2)
    with pytest.raises(ValidationError) as exc:
        from_normal_subgroup(((0, 1, 2), swap), s3)
    m, x, c = exc.value.witness
    assert m == swap and c not in {(0, 1, 2), swap}


def old_normality_witness(sub, g):
    """The first ``(m, x, m^x)`` leaving ``sub``, by the double loop
    ``from_normal_subgroup`` ran before it built its action table once."""
    cset = set(sub)
    for m in sub:
        for x in g.elements:
            c = g.conj(m, x)
            if c not in cset:
                return (m, x, c)
    return None


@pytest.mark.parametrize("n", [3, 4])
def test_every_subgroup_keeps_its_normality_witness_and_action(n):
    """Every subgroup of s3 and s4 generated by at most two elements."""
    g = symmetric_group(n)
    seen = set()
    for a, b in product(g.elements, repeat=2):
        sub = tuple(x for x in g.elements if x in _generated(g, (a, b)))
        if sub in seen:
            continue
        seen.add(sub)
        want = old_normality_witness(sub, g)
        if want is None:
            xm = from_normal_subgroup(sub, g)
            assert xm.action == {(m, x): g.conj(m, x) for m in sub for x in g.elements}
            assert list(xm.action) == list(product(sub, g.elements))
        else:
            with pytest.raises(ValidationError) as info:
                from_normal_subgroup(sub, g)
            assert (str(info.value), info.value.witness) == ("subgroup is not normal", want)
    assert any(old_normality_witness(sub, g) for sub in seen)


def _generated(g, gens):
    span = {g.unit}
    while True:
        more = span | {g.mul(x, y) for x in span for y in gens}
        if more == span:
            return span
        span = more


def test_peiffer_violation_is_witnessed():
    report = check_axioms(bad_xmod())
    assert not report.ok
    assert [f for f, _ in report.failures] == ["peiffer"]
    _, m, n = report.family("peiffer")
    s3 = symmetric_group(3)
    assert s3.conj(m, n) != m


def test_missing_action_entry_is_a_type_failure():
    xm = bundled_xmods()["c2"]
    action = dict(xm.action)
    del action[(1, 1)]
    broken = crossed_module(xm.p, xm.m, xm.mu, action)
    report = check_axioms(broken)
    assert not report.ok
    assert report.family("action-type") == (1, 1, None)


def test_boundary_must_land_on_loops():
    xm = bundled_xmods()["c2"]
    mu = {"*": {0: 0, 1: "nope"}}
    report = check_axioms(crossed_module(xm.p, xm.m, mu, xm.action))
    assert not report.ok
    assert report.family("boundary-type") is not None


def test_kernel_centrality_of_bundled_xmods():
    for name, xm in bundled_xmods().items():
        report = kernel_central_check(xm)
        assert report.ok, name
    sizes = dict(kernel_central_check(bundled_xmods()["c4c2"]).kernel_sizes)
    assert sizes["*"] == 2


def test_kernel_centrality_failure_is_witnessed():
    report = kernel_central_check(bad_xmod())
    assert not report.ok
    x, k, m = report.witness
    s3 = symmetric_group(3)
    assert s3.mul(k, m) != s3.mul(m, k)


def test_automorphism_group_sizes():
    assert len(automorphism_group(symmetric_group(3))) == 6
    assert len(automorphism_group(cyclic_group(3))) == 2
    assert len(automorphism_group(cyclic_group(4))) == 2


def test_automorphism_groups_past_the_old_permutation_search():
    # 24! and 8! permutations; the generator search needs 24^3 and 8^2.
    assert len(automorphism_group(symmetric_group(4))) == 24
    elements = tuple(product(range(2), range(4)))
    table = {
        (x, y): ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4)
        for x in elements
        for y in elements
    }
    c2c4 = finite_group(elements, table, unit=(0, 0), name="c2xc4")
    assert len(automorphism_group(c2c4)) == 8


def test_automorphism_composition_is_diagrammatic():
    s3 = symmetric_group(3)
    aut = automorphism_group(s3)
    idx = {x: i for i, x in enumerate(s3.elements)}
    inner = {m: tuple(s3.conj(x, m) for x in s3.elements) for m in s3.elements}
    for m, n in product(s3.elements, repeat=2):
        assert aut.mul(inner[m], inner[n]) == inner[s3.mul(m, n)]
    alpha = next(a for a in aut.elements if a != aut.unit)
    some = s3.elements[1]
    assert aut.mul(aut.unit, alpha)[idx[some]] == alpha[idx[some]]


def test_automorphism_xmod_of_s3():
    xm = automorphism_xmod(symmetric_group(3))
    assert check_axioms(xm).ok
    assert len(xm.p.arrows) == 6
    assert len(xm.m["*"].elements) == 6


def test_automorphism_xmod_of_c3_has_two_arrow_base():
    xm = automorphism_xmod(cyclic_group(3))
    assert check_axioms(xm).ok
    assert len(xm.p.arrows) == 2
    assert kernel_central_check(xm).ok


def test_trivial_xmod_is_lawful():
    xm = trivial_xmod(symmetric_group(3))
    assert check_axioms(xm).ok
    assert len(xm.m["*"].elements) == 1


def test_group_hom_validation():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    f = group_hom(c4, c2, {i: i % 2 for i in range(4)})
    assert f(3) == 1
    with pytest.raises(ValidationError):
        group_hom(c4, c2, {i: 1 for i in range(4)})
    with pytest.raises(ValidationError) as exc:
        group_hom(c4, c2, {**{i: i % 2 for i in range(4)}, 5: 1})
    assert exc.value.witness == 5


def test_identity_xmod_morphism_checks_out():
    for name, xm in bundled_xmods().items():
        f = identity_xmod_morphism(xm)
        assert check_xmod_morphism(f).ok, name
        assert is_xmod_isomorphism(f), name


def test_broken_xmod_morphism_is_witnessed():
    xm = bundled_xmods()["c4c2"]
    f = identity_xmod_morphism(xm)
    f.mmap["*"][1] = 3
    f.mmap["*"][3] = 1
    report = check_xmod_morphism(f)
    # swapping 1 and 3 in c4 is a group automorphism and respects the
    # boundary, so it is a legitimate non-identity automorphism
    assert report.ok
    f.mmap["*"][1] = 2
    report = check_xmod_morphism(f)
    assert not report.ok


def test_free_fiber_counts_match_brute_force():
    c2 = cyclic_group(2)
    target = bundled_xmods()["c4c2"]
    free = free_xmod(c2, ("r",), {"r": 1})
    report = morphisms_from_free(free, target)
    assert report.count == 2
    assert dict(report.fibers)["r"] == (1, 3)
    gm = target.m["*"]
    brute = [
        imgs
        for imgs in product(gm.elements, repeat=1)
        if target.mu["*"][imgs[0]] == 1
    ]
    assert len(brute) == report.count

    free2 = free_xmod(c2, ("r", "s"), {"r": 1, "s": 0})
    report2 = morphisms_from_free(free2, target)
    assert report2.count == 4
    brute2 = [
        imgs
        for imgs in product(gm.elements, repeat=2)
        if target.mu["*"][imgs[0]] == 1 and target.mu["*"][imgs[1]] == 0
    ]
    assert len(brute2) == report2.count
    assert len(report2.assignments) == report2.count


def test_the_free_guard_reports_the_count_it_needed():
    target = bundled_xmods()["c4c2"]
    free = free_xmod(cyclic_group(2), ("r", "s"), {"r": 1, "s": 0})
    assert morphisms_from_free(free, target, guard=4).count == 4
    with pytest.raises(SizeGuardExceeded) as info:
        morphisms_from_free(free, target, guard=3)
    assert str(info.value) == "4 assignments exceed the guard"
    assert (info.value.needed, info.value.allowed) == (4, 3)


def test_free_render_names_the_boundaries():
    free = free_xmod(cyclic_group(2), ("r",), {"r": 1})
    text = free.render()
    assert "d(r) = 1" in text


def test_morphisms_over_identity():
    xm = bundled_xmods()["c4c2"]
    maps = morphisms_over(xm, identity_hom(cyclic_group(2)), xm)
    assert len(maps) == 2
    assert {m: m for m in xm.m["*"].elements} in maps


def test_morphisms_over_a_quotient_hom():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    xm = from_normal_subgroup(c4.elements, c4)
    f = group_hom(c4, c2, {i: i % 2 for i in range(4)})
    target = bundled_xmods()["c4c2"]
    maps = morphisms_over(xm, f, target)
    assert len(maps) == 2
    for phi in maps:
        assert target.mu["*"][phi[1]] == 1


def test_morphisms_over_rejects_a_homomorphism_from_another_group():
    # The sign map s3 -> c2 over c4c2, whose base is c2: the hom cannot be
    # read on the base's arrows, so the call is refused with the hom's
    # source, as the induced presentation refuses it.
    c4c2 = bundled_xmods()["c4c2"]
    s3 = symmetric_group(3)
    sign = group_hom(s3, cyclic_group(2), {x: perm_parity(x) for x in s3.elements})
    for call in (
        lambda: morphisms_over(c4c2, sign, c4c2),
        lambda: induced_xmod_presentation(c4c2, sign),
    ):
        with pytest.raises(ValidationError, match="source must be the base group") as exc:
            call()
        assert exc.value.witness == "s3"
    # A map that is not a homomorphism is refused the same way.
    swap = GroupHom(cyclic_group(2), cyclic_group(2), {0: 1, 1: 0})
    with pytest.raises(ValidationError, match="not a homomorphism"):
        morphisms_over(c4c2, swap, c4c2)


def test_a_missing_boundary_entry_is_outside_the_kernel():
    # c4 -> c2 with no boundary for 3: the law check reports the hole, and
    # the kernel is {0, 2}, which c4 centralises.
    broken = replace(bundled_xmods()["c4c2"], mu={"*": {0: 0, 1: 1, 2: 0}})
    assert check_axioms(broken).failures == (("boundary-type", ("*", 3, None)),)
    assert kernel_central_check(broken) == CentralityReport(
        ok=True, kernel_sizes=(("*", 2),)
    )


def test_induced_presentation_renders():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    xm = from_normal_subgroup(c4.elements, c4)
    f = group_hom(c4, c2, {i: i % 2 for i in range(4)})
    ind = induced_xmod_presentation(xm, f)
    text = ind.render()
    assert "generators" in text and "(m, q)" in text.replace("pairs ", "pairs ")
    with pytest.raises(ValidationError):
        induced_xmod_presentation(xm, group_hom(c2, c2, {0: 0, 1: 1}))


def _old_check_xmod_morphism(f):
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


def _morphisms_to_check():
    out = {}
    for name, xm in bundled_xmods().items():
        out[f"id-{name}"] = identity_xmod_morphism(xm)
    # Round trips over one-, two- and three-object bases, one with fibres
    # listing their elements in different orders.
    for name in (*bundled_xmods(), "interval", "two-object", "three-object"):
        xm = CARRIER_MODULES[name]
        out[f"roundtrip-{name}"] = round_trip_isomorphism(xm, to_xmod(from_xmod(xm)))
    xm = reordered_interval_xmod()
    out["roundtrip-interval-reordered"] = round_trip_isomorphism(xm, to_xmod(from_xmod(xm)))
    # A target fibre that was ``replace``d, so it keeps no view.
    f = out["id-c4c2"]
    unviewed = replace(f.target, m={"*": replace(f.target.m["*"])})
    assert unviewed.m["*"]._view is None
    out["unviewed-c4c2"] = replace(f, target=unviewed)
    return out


def _perturbed(f):
    """``f`` with each single image of ``mmap`` changed: to every other
    element of the target fibre, to a name outside it, and dropped."""
    for x, table in f.mmap.items():
        gn = f.target.m[f.omap[x]]
        for m in table:
            for image in (*gn.elements, "stray"):
                if image != table[m]:
                    yield replace(f, mmap={**f.mmap, x: {**table, m: image}})
            yield replace(f, mmap={**f.mmap, x: {k: v for k, v in table.items() if k != m}})


MORPHISMS = _morphisms_to_check()


@pytest.mark.parametrize("name", sorted(MORPHISMS))
def test_xmod_morphism_reports_match_the_tuple_scan(name):
    f = MORPHISMS[name]
    assert check_xmod_morphism(f) == _old_check_xmod_morphism(f)
    families = set()
    for broken in _perturbed(f):
        report = check_xmod_morphism(broken)
        assert report == _old_check_xmod_morphism(broken)
        families.update(family for family, _ in report.failures)
    assert "group-map-type" in families


def test_a_morphism_into_a_fibre_that_is_not_a_group_raises_validation_error():
    """The target's view validates its fibres: a ``replace``d fibre whose
    table is not associative raises ValidationError with the group's
    witness, where the name body went on to check the broken table."""
    f = MORPHISMS["id-c4c2"]
    c4 = f.target.m["*"]
    table = {**c4.table, (1, 1): 3, (1, 3): 1}
    broken = replace(f.target, m={"*": replace(c4, table=table)})
    with pytest.raises(ValidationError) as exc:
        check_xmod_morphism(replace(f, target=broken))
    assert str(exc.value) == "associativity fails"
    assert not _old_check_xmod_morphism(replace(f, target=broken)).ok


def test_a_hole_in_the_target_action_fails_equivariance_at_its_element():
    """An action entry missing from the target is a hole of its view: the
    check reports equivariance there, where the name body raised
    KeyError."""
    f = MORPHISMS["id-a3s3"]
    (m, a), *_ = f.target.action
    action = {k: v for k, v in f.target.action.items() if k != (m, a)}
    g = replace(f, target=replace(f.target, action=action))
    assert check_xmod_morphism(g).failures == (("equivariance", (m, a)),)
    with pytest.raises(KeyError):
        _old_check_xmod_morphism(g)


def test_a_hole_in_the_source_boundary_fails_boundary_compat_at_its_element():
    """A boundary entry missing from the source is a hole of its view: the
    check reports boundary-compat there, where the name body raised
    KeyError."""
    f = MORPHISMS["id-c4c2"]
    mu = {"*": {m: k for m, k in f.source.mu["*"].items() if m != 3}}
    g = replace(f, source=replace(f.source, mu=mu))
    assert check_xmod_morphism(g).failures == (("boundary-compat", ("*", 3)),)
    with pytest.raises(KeyError):
        _old_check_xmod_morphism(g)


def _old_is_xmod_isomorphism(f):
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


@pytest.mark.parametrize("name", sorted(MORPHISMS))
def test_isomorphisms_and_their_perturbations_are_judged_as_before(name):
    f = MORPHISMS[name]
    assert is_xmod_isomorphism(f)
    for broken in _perturbed(f):
        assert is_xmod_isomorphism(broken) == _old_is_xmod_isomorphism(broken)


def test_a_morphism_onto_a_smaller_fibre_is_not_an_isomorphism():
    """c4 -> c2 over the identity of c2, onto the identity crossed module of
    c2, is a morphism onto every fibre but not injective; neither is the
    trivial self-map of c2-over-c2, whatever an extra key maps to.  The
    old count took each fibre's image size against the target's alone, and
    counted the values of keys outside the source."""
    xm = bundled_xmods()["c4c2"]
    p, c2 = xm.p, cyclic_group(2)
    identity = crossed_module(
        p, {"*": c2}, {"*": {0: 0, 1: 1}}, {(m, a): m for m in (0, 1) for a in p.arrows}
    )
    onto = XModMorphism(xm, identity, {"*": "*"}, {a: a for a in p.arrows},
                        {"*": {m: m % 2 for m in range(4)}})
    f = identity_xmod_morphism(bundled_xmods()["c2"])
    collapsed = replace(f, mmap={"*": {0: 0, 1: 0, "stray": 1}})
    for g in (onto, collapsed):
        assert check_xmod_morphism(g).ok
        assert _old_is_xmod_isomorphism(g) and not is_xmod_isomorphism(g)
