"""Crossed-module law checking against hand-computed small cases."""

from itertools import product

import pytest

from gpdkit.core import (
    SizeGuardExceeded,
    ValidationError,
    alternating_group,
    cyclic_group,
    finite_group,
    from_group,
    symmetric_group,
)
from gpdkit.xmod import (
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


def test_induced_presentation_renders():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    xm = from_normal_subgroup(c4.elements, c4)
    f = group_hom(c4, c2, {i: i % 2 for i in range(4)})
    ind = induced_xmod_presentation(xm, f)
    text = ind.render()
    assert "generators" in text and "(m, q)" in text.replace("pairs ", "pairs ")
    with pytest.raises(ValidationError):
        induced_xmod_presentation(xm, group_hom(c2, c2, {0: 0, 1: 1}))
