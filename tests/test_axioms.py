"""Crossed-module law checking over generators of the base groupoid,
against the all-arrows check it replaced, and the groupoid ``from_group``
keeps on each group.

``_old_check_axioms`` is the former body of ``xmod.check_axioms``, kept
verbatim as the oracle: it checks ``action-compose`` on every composable
pair of base arrows and ``action-hom`` and ``boundary-equivariance`` on
every arrow.  Every crossed module, lawful or broken, over a base built
validated or a copy validated on its first read, must get the same
``LawReport`` from both: verdict, families and witnesses.  A module over
a base that breaks a groupoid law is rejected by every reader with the
``ValidationError`` that ``build_groupoid`` raises on its table.

``_old_check_laws`` and ``_old_kernel_central_check`` are the former
bodies of ``xmod._check_laws`` and ``xmod.kernel_central_check``, kept
verbatim as oracles: they read every fibre, action and boundary by name,
where the library reads the module's XModView.  Each pass of the law
check is compared on its own, for any ``over``, since ``check_axioms``
alone would hide a generator pass that failed a lawful module behind its
all-arrows fallback.
"""

import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gpdkit import xmod
from gpdkit.core import (
    FiniteGroup,
    FiniteGroupoid,
    ValidationError,
    alternating_group,
    build_groupoid,
    cyclic_group,
    disjoint_union,
    from_group,
    index_view,
    interval_groupoid,
    perm_parity,
    symmetric_group,
)
from gpdkit.dblgpd import (
    CUBE_EDGES,
    commutative_cube_check,
    perturb_cube,
    random_commutative_cube,
    random_cube_sharing,
)
from gpdkit.xmod import (
    CentralityReport,
    CrossedModule,
    LawReport,
    automorphism_xmod,
    bundled_xmods,
    check_axioms,
    crossed_module,
    from_normal_subgroup,
    kernel_central_check,
    trivial_xmod,
    xmod_view,
)
from test_cubes import GROUPS, old_commutative_cube_check
from test_xmod import bad_xmod
from test_validate import greedy_generators


def _old_check_axioms(xm):
    p = xm.p
    failures = []

    def fail(family, witness):
        if not any(f == family for f, _ in failures):
            failures.append((family, witness))

    for x in p.objects:
        table = xm.mu.get(x, {})
        for m in xm.m[x].elements:
            a = table.get(m)
            if a is None or a not in p.arrows or p.src[a] != x or p.tgt[a] != x:
                fail("boundary-type", (x, m, a))
    for a in p.arrows:
        x, y = p.src[a], p.tgt[a]
        for m in xm.m[x].elements:
            out = xm.action.get((m, a))
            if out is None or out not in xm.m[y].elements:
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
            if xm.act(m, p.id_of[x]) != m:
                fail("action-identity", (x, m))
                break
    for a in p.arrows:
        x, y = p.src[a], p.tgt[a]
        gx, gy = xm.m[x], xm.m[y]
        for b in p.arrows_from(y):
            ab = p.compose(a, b)
            for m in gx.elements:
                if xm.act(m, ab) != xm.act(xm.act(m, a), b):
                    fail("action-compose", (m, a, b))
                    break
        for m, n in product(gx.elements, repeat=2):
            if xm.act(gx.mul(m, n), a) != gy.mul(xm.act(m, a), xm.act(n, a)):
                fail("action-hom", (m, n, a))
                break
        if xm.act(gx.unit, a) != gy.unit:
            fail("action-hom", (gx.unit, gx.unit, a))
        for m in gx.elements:
            lhs = xm.mu[y][xm.act(m, a)]
            rhs = p.compose(p.compose(p.inverse(a), xm.mu[x][m]), a)
            if lhs != rhs:
                fail("boundary-equivariance", (m, a))
                break
    for x in p.objects:
        gm = xm.m[x]
        for m, n in product(gm.elements, repeat=2):
            if xm.act(m, xm.mu[x][n]) != gm.conj(m, n):
                fail("peiffer", (x, m, n))
                break
    return LawReport(ok=not failures, failures=tuple(failures))


def _old_check_laws(xm, over):
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


def _old_kernel_central_check(xm):
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


def _two_object_xmod():
    """c3 fibres with trivial boundary over the interval beside s3: the
    interval's two non-identity arrows and the odd permutations act by
    negation.  Greedy generators of this base include ``i`` and
    ``i_inv``, which are not loops."""
    p = disjoint_union(interval_groupoid(), from_group(symmetric_group(3)))
    c3 = cyclic_group(3)

    def sign(a):
        side, v = a
        odd = v in ("i", "i_inv") if side == "l" else perm_parity(v) == 1
        return -1 if odd else 1

    return crossed_module(
        p,
        {x: c3 for x in p.objects},
        {x: {m: p.id_of[x] for m in c3.elements} for x in p.objects},
        {(m, a): sign(a) * m % 3 for a in p.arrows for m in c3.elements},
        name="c3-over-interval+s3",
    )


# The smallest non-associative loop (see tests/test_validate.py): unit 0,
# x x = 0, and (1 2) 3 = 4 but 1 (2 3) = 0.
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def _loop_base_xmod():
    """c2 over a raw one-object "groupoid" whose composition is LOOP5, with
    trivial boundary and trivial action: no validating constructor accepts
    this base, and every reader rejects it."""
    arrows = tuple(range(5))
    p = FiniteGroupoid(
        objects=("*",),
        arrows=arrows,
        src={a: "*" for a in arrows},
        tgt={a: "*" for a in arrows},
        comp={(a, b): LOOP5[a][b] for a, b in product(arrows, repeat=2)},
        id_of={"*": 0},
        inv={a: a for a in arrows},
        name="loop5",
    )
    c2 = cyclic_group(2)
    return CrossedModule(
        p=p,
        m={"*": c2},
        mu={"*": {m: 0 for m in c2.elements}},
        action={(m, a): m for m in c2.elements for a in arrows},
        name="c2-over-loop5",
    )


MODULES = dict(bundled_xmods())
MODULES["a4s4"] = from_normal_subgroup(alternating_group(4), symmetric_group(4))
for _n, _g in (("s3", symmetric_group(3)), ("c7", cyclic_group(7)), ("c8", cyclic_group(8))):
    MODULES[f"aut-{_n}"] = automorphism_xmod(_g)
MODULES["two-object"] = _two_object_xmod()


def _copy(xm, p=None, mu=None, action=None):
    """``xm`` with some of its parts replaced, built raw so that broken
    tables stay constructible."""
    return CrossedModule(
        p=xm.p if p is None else p,
        m=xm.m,
        mu={x: dict(t) for x, t in (xm.mu if mu is None else mu).items()},
        action=dict(xm.action if action is None else action),
        name=xm.name,
    )


def _loops(p, x):
    return [a for a in p.arrows if p.src[a] == x and p.tgt[a] == x]


@st.composite
def perturbed(draw):
    """A copy of one of MODULES with one to three action or boundary entries
    rewritten: an action entry to an element of its target fibre, or to one
    of another fibre; a boundary entry to a loop at its object, or to any
    arrow."""
    xm = MODULES[draw(st.sampled_from(sorted(MODULES)))]
    p = xm.p
    out = _copy(xm)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            m, a = draw(st.sampled_from(sorted(xm.action, key=repr)))
            y = p.tgt[a] if draw(st.integers(0, 4)) else draw(st.sampled_from(p.objects))
            out.action[(m, a)] = draw(st.sampled_from(xm.m[y].elements))
        else:
            x = draw(st.sampled_from(p.objects))
            m = draw(st.sampled_from(xm.m[x].elements))
            pool = _loops(p, x) if draw(st.integers(0, 4)) else p.arrows
            out.mu[x][m] = draw(st.sampled_from(pool))
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_module_gets_the_oracle_report(name):
    xm = MODULES[name]
    report = check_axioms(xm)
    assert report == _old_check_axioms(xm)
    assert report.ok


@settings(max_examples=400, deadline=None)
@given(perturbed())
def test_perturbed_modules_get_the_oracle_report(xm):
    assert check_axioms(xm) == _old_check_axioms(xm)


@pytest.mark.parametrize("name", ["c4c2", "auts3", "two-object"])
def test_every_single_entry_perturbation_gets_the_oracle_report(name):
    xm = MODULES[name]
    p = xm.p
    rejected = 0
    cases = [
        _copy(xm, action={**xm.action, key: v})
        for key in xm.action
        for v in xm.m[p.tgt[key[1]]].elements
        if v != xm.action[key]
    ]
    for x in p.objects:
        for m in xm.m[x].elements:
            for a in _loops(p, x):
                if a != xm.mu[x][m]:
                    mu = {y: dict(t) for y, t in xm.mu.items()}
                    mu[x][m] = a
                    cases.append(_copy(xm, mu=mu))
    for broken in cases:
        old = _old_check_axioms(broken)
        assert check_axioms(broken) == old
        rejected += not old.ok
    assert rejected > 0


def test_the_two_object_base_has_non_loop_generators():
    p = MODULES["two-object"].p
    assert index_view(p) is p._view
    gens = greedy_generators(p.arrows, tuple(p.id_of.values()), p.comp)
    assert {("l", "i"), ("l", "i_inv")} <= set(gens)
    # Negating along i but not along i_inv breaks action-compose only at
    # pairs through the interval.
    xm = MODULES["two-object"]
    broken = _copy(xm, action={**xm.action, **{(m, ("l", "i_inv")): m for m in range(3)}})
    report = check_axioms(broken)
    assert report == _old_check_axioms(broken)
    assert report.family("action-compose") == (1, ("l", "i"), ("l", "i_inv"))


def _raw_inverse_base(c3):
    """The one-object groupoid of c3 built raw, with a wrong inverse of 2
    only, which its first read rejects."""
    p = from_group(c3)
    return FiniteGroupoid(
        objects=p.objects, arrows=p.arrows, src=p.src, tgt=p.tgt,
        comp=p.comp, id_of=p.id_of, inv={0: 0, 1: 2, 2: 2},
    )


def test_a_raw_inverse_map_the_generators_miss_is_still_caught():
    # 1 generates c3, so a check of boundary-equivariance on generators
    # alone would pass; the name oracle fails it at 2 by reading the map.
    # The base's first read rejects the map at 2 instead.
    xm = _raw_inverse_base_xmod()
    assert _old_check_axioms(xm).failures == (("boundary-equivariance", (0, 2)),)
    with pytest.raises(ValidationError) as info:
        check_axioms(xm)
    assert (str(info.value), info.value.witness) == ("inverse map contradicts the table", 2)


# ------------------------------------------------- each pass against its oracle


def _raw_inverse_base_xmod():
    """c3 over c3 with the identity boundary, over a base whose raw inverse
    map is wrong at 2 only, which the base's first read rejects."""
    c3 = cyclic_group(3)
    return CrossedModule(
        p=_raw_inverse_base(c3),
        m={"*": c3},
        mu={"*": {m: m for m in c3.elements}},
        action={(m, a): m for m in c3.elements for a in c3.elements},
        name="c3-over-raw-inverse",
    )


def _central_then_not():
    """c3 then s3 over two copies of c2, both boundaries trivial: the first
    kernel is central, the second is not."""
    p = disjoint_union(from_group(cyclic_group(2)), from_group(cyclic_group(2)))
    m = {"l": cyclic_group(3), "r": symmetric_group(3)}
    return CrossedModule(
        p=p,
        m={x: m[x[0]] for x in p.objects},
        mu={x: {e: p.id_of[x] for e in m[x[0]].elements} for x in p.objects},
        action={(e, a): e for a in p.arrows for e in m[p.src[a][0]].elements},
    )


ORACLE_MODULES = {
    **MODULES,
    "bad": bad_xmod(),
    "central-then-not": _central_then_not(),
}


def _passes(xm):
    """The ``over`` of each pass ``check_axioms`` may run: the greedy
    generators of the base, then all its arrows."""
    p = xm.p
    units = tuple(p.id_of[x] for x in p.objects)
    return [greedy_generators(p.arrows, units, p.comp), p.arrows]


def _assert_passes_match(xm, overs):
    for over in overs:
        assert xmod._check_laws(xm, over) == _old_check_laws(xm, over), over


@pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
def test_each_pass_gets_the_oracle_report(name):
    _assert_passes_match(ORACLE_MODULES[name], _passes(ORACLE_MODULES[name]))


@st.composite
def any_over(draw, xm):
    """Distinct arrows of the base of ``xm``, in a drawn order."""
    return draw(st.lists(st.sampled_from(xm.p.arrows), unique=True))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ORACLE_MODULES)), st.data())
def test_any_over_gets_the_oracle_report(name, data):
    xm = ORACLE_MODULES[name]
    _assert_passes_match(xm, [data.draw(any_over(xm))])


@settings(max_examples=400, deadline=None)
@given(perturbed(), st.data())
def test_each_pass_on_a_perturbed_module_gets_the_oracle_report(xm, data):
    _assert_passes_match(xm, [*_passes(xm), data.draw(any_over(xm))])


@pytest.mark.parametrize("arrow", [("l", "i"), ("l", "i_inv"), ("r", (1, 0, 2))])
def test_a_boundary_off_the_loops_at_its_object_is_a_type_hole(arrow):
    # At the object ("l", 0): i starts there but ends at ("l", 1), i_inv
    # ends there but starts at ("l", 1), and the s3 arrow is elsewhere.
    xm = MODULES["two-object"]
    mu = {x: dict(t) for x, t in xm.mu.items()}
    mu[("l", 0)][1] = arrow
    broken = _copy(xm, mu=mu)
    _assert_passes_match(broken, _passes(broken))
    assert check_axioms(broken).failures == (("boundary-type", (("l", 0), 1, arrow)),)


@pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
def test_kernel_centrality_gets_the_oracle_report(name):
    xm = ORACLE_MODULES[name]
    assert kernel_central_check(xm) == _old_kernel_central_check(xm)


def test_the_kernel_witness_comes_from_the_first_failing_object():
    report = kernel_central_check(ORACLE_MODULES["central-then-not"])
    assert report.kernel_sizes == ((("l", "*"), 3), (("r", "*"), 6))
    assert report.witness[0] == ("r", "*")


@settings(max_examples=300, deadline=None)
@given(perturbed())
def test_kernel_centrality_on_a_perturbed_module_gets_the_oracle_report(xm):
    assert kernel_central_check(xm) == _old_kernel_central_check(xm)


def test_a_fibre_with_a_contradicting_inverse_map_is_rejected():
    # c3 with a raw inverse map that is the identity.  Once such a fibre
    # validated, and the name code conjugated with the map and failed
    # peiffer on a module that is lawful by its tables; now the fibre is
    # rejected at the first element whose inverse the map gets wrong.
    c3 = cyclic_group(3)
    raw = FiniteGroup(c3.elements, c3.table, c3.unit, inverse={0: 0, 1: 1, 2: 2})
    xm = CrossedModule(
        p=from_group(c3),
        m={"*": raw},
        mu={"*": {m: m for m in c3.elements}},
        action={(m, a): m for m in c3.elements for a in c3.elements},
    )
    for check in (check_axioms, kernel_central_check):
        with pytest.raises(ValidationError) as info:
            check(xm)
        assert (str(info.value), info.value.witness) == ("inverse map contradicts the table", 1)
    with pytest.raises(ValidationError, match="inverse map contradicts the table"):
        crossed_module(xm.p, xm.m, xm.mu, xm.action)


def test_a_base_it_cannot_index_or_a_fibre_that_is_no_group_raises():
    xm = MODULES["c4c2"]
    p = xm.p
    no_inverse = FiniteGroupoid(
        objects=p.objects, arrows=p.arrows, src=p.src, tgt=p.tgt,
        comp=p.comp, id_of=p.id_of, inv={},
    )
    with pytest.raises(ValidationError) as info:
        check_axioms(_copy(xm, p=no_inverse))
    assert (str(info.value), info.value.witness) == ("inverse map contradicts the table", 0)
    c4 = xm.m["*"]
    magma = FiniteGroup(c4.elements, {**c4.table, (1, 1): 1}, c4.unit)
    broken = CrossedModule(p=p, m={"*": magma}, mu=xm.mu, action=xm.action)
    for check in (check_axioms, kernel_central_check):
        with pytest.raises(ValidationError):
            check(broken)


# ------------------------------------------------------------- which pass runs


@pytest.fixture
def passes(monkeypatch):
    """Record, for each pass of the law loop, whether it ranged over every
    base arrow."""
    calls = []
    real = xmod._check_laws

    def spy(xm, over):
        calls.append(tuple(over) == tuple(xm.p.arrows))
        return real(xm, over)

    monkeypatch.setattr(xmod, "_check_laws", spy)
    return calls


@pytest.mark.parametrize("name", sorted(MODULES))
def test_a_lawful_module_never_takes_the_all_arrows_pass(name, passes):
    assert check_axioms(MODULES[name]).ok
    assert passes == [False]


def test_a_failing_module_falls_back_to_the_all_arrows_pass(passes):
    xm = MODULES["c4c2"]
    broken = _copy(xm, action={**xm.action, (1, 1): 3})
    assert not check_axioms(broken).ok
    assert passes == [False, True]


def _raw_copy(p):
    return FiniteGroupoid(p.objects, p.arrows, p.src, p.tgt, p.comp, p.id_of, p.inv)


@pytest.mark.parametrize("copy", [_raw_copy, replace], ids=["raw", "replace"])
def test_a_copied_base_is_validated_and_takes_the_generator_pass(copy, passes):
    xm = MODULES["a3s3"]
    p = copy(xm.p)
    assert p._view is None
    assert check_axioms(_copy(xm, p=p)) == check_axioms(xm)
    assert passes == [False, False]
    assert p._view == xm.p._view


@pytest.mark.parametrize(
    "lawless, message, witness",
    [
        (_loop_base_xmod, "associativity fails", (1, 1, 2)),
        (_raw_inverse_base_xmod, "inverse map contradicts the table", 2),
    ],
    ids=["loop-base", "raw-inverse"],
)
def test_a_module_over_a_lawless_base_is_rejected_by_every_reader(
    lawless, message, witness, passes
):
    xm = lawless()
    for read in (check_axioms, kernel_central_check, xmod_view):
        with pytest.raises(ValidationError) as info:
            read(xm)
        assert (str(info.value), info.value.witness) == (message, witness)
    assert passes == [] and xm.p._view is None and xm._view is None


# ------------------------------------------------------------ lawful bases


def test_validating_constructors_mark_the_base():
    s3 = from_group(symmetric_group(3))
    interval = interval_groupoid()
    assert s3._view is not None and interval._view is not None
    built = build_groupoid(s3.objects, s3.arrows, s3.src, s3.tgt, s3.comp)
    assert built._view == s3._view
    union = disjoint_union(interval, s3)
    want = build_groupoid(union.objects, union.arrows, union.src, union.tgt, union.comp)
    # a union, a raw copy and a replaced one are validated on their first read
    for later, view in ((union, want._view), (_raw_copy(s3), s3._view), (replace(s3), s3._view)):
        assert later._view is None
        assert index_view(later) == view and later._view is index_view(later)
    with pytest.raises(ValidationError, match="associativity fails"):
        index_view(disjoint_union(_loop_base_xmod().p, interval))


# ------------------------------------------------------- one groupoid per group


def test_from_group_builds_equal_groupoids_per_group():
    g = symmetric_group(3)
    p = from_group(g)
    assert from_group(g) == p and from_group(g) is not p
    assert trivial_xmod(g).p == p
    assert from_normal_subgroup(alternating_group(3), g).p == p
    assert from_group(g)._view is p._view is g._view


def test_copies_and_other_names_get_fresh_groupoids():
    g = cyclic_group(4)
    p = from_group(g)
    for fresh in (
        from_group(replace(g)),
        from_group(g, name="c4"),
        from_group(g, obj="o"),
        from_group(FiniteGroup(g.elements, g.table, g.unit)),
    ):
        assert fresh is not p
        assert fresh._view is not None
    copy = replace(g)
    assert from_group(copy) == p
    assert from_group(copy) == from_group(copy)
    assert from_group(g, name="c4") is not from_group(g, name="c4")
    assert from_group(g, obj="o").objects == ("o",)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_cube_reports_match_the_oracle_with_the_shared_groupoid(group):
    rng = random.Random(5)
    p = from_group(group)
    for _ in range(3):
        c = random_commutative_cube(group, rng)
        for base in [c] + [random_cube_sharing(group, rng, c, d) for d in ("v", "h", "d")]:
            edge = rng.choice(CUBE_EDGES)
            for d in (base, perturb_cube(base, edge, rng.choice(group.elements))):
                assert commutative_cube_check(group, d) == old_commutative_cube_check(
                    group, d
                )
    assert from_group(group) == p
