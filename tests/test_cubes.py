"""Differential tests for commutative squares as thin squares over the
trivial crossed module.

The functions below, up to the first test, are the implementations that
kept commutative squares (``CommSquare``) apart from labeled squares and
solved each cube edge by hand.  They are kept verbatim as oracles, with
an ``old_`` prefix where the library still has the name: the library's
thin-square pasting, face-table cube solver and ``from_xmod`` must
reproduce them exactly, including every random draw.  ``from_xmod`` is
compared square by square and index by index on one-, two- and
three-object modules, bases built validated and ``replace``d copies
validated on their first read, and bases that break;
``_old_fibre``, further down, is the scan ``to_xmod`` made for each fibre.
At the end, each square of the grid ``commutative_cube_check`` folds,
unchecked, is checked with ``make_square`` over ``trivial_xmod``.
"""

import random
from dataclasses import dataclass, replace
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import dblgpd
from gpdkit.core import (
    DEFAULT_SIZE_GUARD,
    CompositionError,
    HypothesisError,
    SizeGuardExceeded,
    ValidationError,
    battery,
    cyclic_group,
    disjoint_union,
    from_group,
    interval_groupoid,
    one_object_group,
    symmetric_group,
)
from gpdkit.dblgpd import (
    CUBE_EDGES,
    CubeReport,
    DoubleGroupoidXM,
    LabeledSquare,
    commutative_cube_check,
    cube,
    from_xmod,
    make_square,
    perturb_cube,
    random_commutative_cube,
    random_cube_sharing,
    row_uniqueness,
    to_xmod,
)
from gpdkit.xmod import CrossedModule, automorphism_xmod, bundled_xmods, trivial_xmod, xmod_view


@dataclass(frozen=True)
class CommSquare:
    """A commutative square in a groupoid: left-then-bottom equals
    top-then-right."""

    left: object
    top: object
    bottom: object
    right: object


def comm_square(g, left, top, bottom, right):
    for e in (left, top, bottom, right):
        if e not in g.src:
            raise ValidationError("unknown edge", witness=e)
    if g.src[left] != g.src[top]:
        raise ValidationError("left and top must share their source", witness=(left, top))
    if g.tgt[left] != g.src[bottom] or g.tgt[top] != g.src[right]:
        raise ValidationError(
            "edges do not frame a square", witness=(left, top, bottom, right)
        )
    if g.compose(left, bottom) != g.compose(top, right):
        raise ValidationError(
            "square does not commute",
            witness=(g.compose(left, bottom), g.compose(top, right)),
        )
    return CommSquare(left=left, top=top, bottom=bottom, right=right)


def comm_compose_h(g, q1, q2):
    if q1.right != q2.left:
        raise CompositionError(
            f"squares do not compose horizontally: {q1.right!r} vs {q2.left!r}"
        )
    return CommSquare(
        left=q1.left,
        top=g.compose(q1.top, q2.top),
        bottom=g.compose(q1.bottom, q2.bottom),
        right=q2.right,
    )


def comm_compose_v(g, q1, q2):
    if q1.bottom != q2.top:
        raise CompositionError(
            f"squares do not compose vertically: {q1.bottom!r} vs {q2.top!r}"
        )
    return CommSquare(
        left=g.compose(q1.left, q2.left),
        top=q1.top,
        bottom=q2.bottom,
        right=g.compose(q1.right, q2.right),
    )


def old_row_uniqueness(g, squares):
    """Fold a composable row of commutative squares whose outer vertical
    edges are identities; the top and bottom composites must agree, and the
    common value is returned."""
    if not squares:
        raise ValidationError("empty row")
    folded = squares[0]
    for q in squares[1:]:
        folded = comm_compose_h(g, folded, q)
    for side, arrow in (("left", folded.left), ("right", folded.right)):
        if arrow != g.id_of[g.src[arrow]]:
            raise HypothesisError(f"outer {side} edge is not an identity: {arrow!r}")
    if folded.top != folded.bottom:
        raise ValidationError(
            "commutativity was violated along the row",
            witness=(folded.top, folded.bottom),
        )
    return folded.top



def old_cube_face(c, name):
    """The face as a ``(left, top, bottom, right)`` quadruple."""
    quads = {
        "bottom": (c.bottom_left, c.bottom_back, c.bottom_front, c.bottom_right),
        "top": (c.top_left, c.top_back, c.top_front, c.top_right),
        "back": (c.back_left, c.top_back, c.bottom_back, c.back_right),
        "front": (c.front_left, c.top_front, c.bottom_front, c.front_right),
        "left": (c.top_left, c.back_left, c.front_left, c.bottom_left),
        "right": (c.back_right, c.top_right, c.bottom_right, c.front_right),
    }
    return quads[name]


def _face_commutes(group, quad):
    left, top, bottom, right = quad
    return group.mul(left, bottom) == group.mul(top, right)



def old_commutative_cube_check(group, c):
    """Check that five commuting faces force the sixth.

    The five non-top faces are checked first; any failure is reported by
    face name.  The cube is then flattened into a 3x3 grid of commutative
    squares whose composite is compared against the top face.
    """
    bad = tuple(
        name
        for name in ("bottom", "back", "front", "left", "right")
        if not _face_commutes(group, old_cube_face(c, name))
    )
    top = old_cube_face(c, "top")
    if bad:
        return CubeReport(ok=False, failing_faces=bad, composite=None, top_face=top)
    g0 = from_group(group)
    e = group.unit
    inv = group.inv

    def cs(left, top_, bottom, right):
        return comm_square(g0, left, top_, bottom, right)

    grid = [
        [
            cs(e, e, c.back_left, c.back_left),
            cs(c.back_left, c.top_back, c.bottom_back, c.back_right),
            cs(c.back_right, e, inv(c.back_right), e),
        ],
        [
            cs(c.top_left, c.back_left, c.front_left, c.bottom_left),
            cs(c.bottom_left, c.bottom_back, c.bottom_front, c.bottom_right),
            cs(c.bottom_right, inv(c.back_right), inv(c.front_right), c.top_right),
        ],
        [
            cs(e, c.front_left, e, inv(c.front_left)),
            cs(inv(c.front_left), c.bottom_front, c.top_front, inv(c.front_right)),
            cs(inv(c.front_right), inv(c.front_right), e, e),
        ],
    ]
    strips = []
    for row in grid:
        strip = row[0]
        for q in row[1:]:
            strip = comm_compose_h(g0, strip, q)
        strips.append(strip)
    folded = strips[0]
    for strip in strips[1:]:
        folded = comm_compose_v(g0, folded, strip)
    composite = (folded.left, folded.top, folded.bottom, folded.right)
    ok = composite == top and _face_commutes(group, top)
    return CubeReport(ok=ok, failing_faces=(), composite=composite, top_face=top)


def old_random_commutative_cube(group, rng):
    """Pick seven edges freely and solve for the rest; every face of the
    result commutes."""

    def pick():
        return rng.choice(group.elements)

    bottom_left, bottom_back, bottom_front = pick(), pick(), pick()
    a, b, c, d = pick(), pick(), pick(), pick()
    mul, inv = group.mul, group.inv
    bottom_right = mul(inv(bottom_back), mul(bottom_left, bottom_front))
    top_back = mul(a, mul(bottom_back, inv(b)))
    top_left = mul(a, mul(bottom_left, inv(c)))
    top_front = mul(c, mul(bottom_front, inv(d)))
    top_right = mul(b, mul(bottom_right, inv(d)))
    return cube(
        group,
        back_left=a,
        back_right=b,
        front_left=c,
        front_right=d,
        top_left=top_left,
        top_back=top_back,
        top_front=top_front,
        top_right=top_right,
        bottom_left=bottom_left,
        bottom_back=bottom_back,
        bottom_front=bottom_front,
        bottom_right=bottom_right,
    )



def old_random_cube_sharing(group, rng, c1, direction):
    """A random commutative cube that glues onto ``c1`` in ``direction``:
    the shared face is copied from ``c1`` and the remaining free edges are
    sampled, with the rest solved from the face equations."""
    mul, inv = group.mul, group.inv

    def pick():
        return rng.choice(group.elements)

    if direction == "v":
        a, b, cv, d = pick(), pick(), pick(), pick()
        tl, tb, tf, tr = (
            c1.bottom_left,
            c1.bottom_back,
            c1.bottom_front,
            c1.bottom_right,
        )
        return cube(
            group,
            back_left=a,
            back_right=b,
            front_left=cv,
            front_right=d,
            top_left=tl,
            top_back=tb,
            top_front=tf,
            top_right=tr,
            bottom_left=mul(inv(a), mul(tl, cv)),
            bottom_back=mul(inv(a), mul(tb, b)),
            bottom_front=mul(inv(cv), mul(tf, d)),
            bottom_right=mul(inv(b), mul(tr, d)),
        )
    if direction == "h":
        b, d = pick(), pick()
        top_back, top_front = pick(), pick()
        a, cv = c1.back_right, c1.front_right
        tl, bl = c1.top_right, c1.bottom_right
        bottom_back = mul(inv(a), mul(top_back, b))
        bottom_front = mul(inv(cv), mul(top_front, d))
        return cube(
            group,
            back_left=a,
            back_right=b,
            front_left=cv,
            front_right=d,
            top_left=tl,
            top_back=top_back,
            top_front=top_front,
            top_right=mul(inv(top_back), mul(tl, top_front)),
            bottom_left=bl,
            bottom_back=bottom_back,
            bottom_front=bottom_front,
            bottom_right=mul(inv(bottom_back), mul(bl, bottom_front)),
        )
    if direction == "d":
        cv, d = pick(), pick()
        top_left, top_front = pick(), pick()
        a, b = c1.front_left, c1.front_right
        tb, bb = c1.top_front, c1.bottom_front
        bottom_left = mul(inv(a), mul(top_left, cv))
        bottom_front = mul(inv(cv), mul(top_front, d))
        return cube(
            group,
            back_left=a,
            back_right=b,
            front_left=cv,
            front_right=d,
            top_left=top_left,
            top_back=tb,
            top_front=top_front,
            top_right=mul(inv(tb), mul(top_left, top_front)),
            bottom_left=bottom_left,
            bottom_back=bb,
            bottom_front=bottom_front,
            bottom_right=mul(inv(bb), mul(bottom_left, bottom_front)),
        )
    raise ValidationError("direction must be 'v', 'h', or 'd'", witness=direction)



def old_from_xmod(xm, guard=DEFAULT_SIZE_GUARD):
    """Enumerate every boundary-valid square: choose the right, top, and
    left edges and the label; the bottom edge is then forced."""
    p = xm.p
    total = 0
    for a in p.arrows:
        w = p.tgt[a]
        for g in p.arrows:
            if p.tgt[g] != p.src[a]:
                continue
            total += len(p.arrows_from(p.src[g])) * len(xm.m[w].elements)
            if total > guard:
                raise SizeGuardExceeded(f"carrier needs more than {guard} squares")
    squares = []
    for w in p.objects:
        for a in p.arrows:
            if p.tgt[a] != w:
                continue
            for g in p.arrows:
                if p.tgt[g] != p.src[a]:
                    continue
                for h in p.arrows_from(p.src[g]):
                    for n in xm.m[w].elements:
                        k = p.compose_many(
                            [
                                p.inverse(h),
                                g,
                                a,
                                p.inverse(xm.mu[w][n]),
                            ]
                        )
                        squares.append(
                            LabeledSquare(label=n, top=g, left=h, right=a, bottom=k)
                        )
    by_left, by_top, by_left_top = {}, {}, {}
    for s in squares:
        by_left.setdefault(s.left, []).append(s)
        by_top.setdefault(s.top, []).append(s)
        by_left_top.setdefault((s.left, s.top), []).append(s)
    return DoubleGroupoidXM(
        xm=xm,
        squares=tuple(squares),
        by_left={k: tuple(v) for k, v in by_left.items()},
        by_top={k: tuple(v) for k, v in by_top.items()},
        by_left_top={k: tuple(v) for k, v in by_left_top.items()},
    )



GROUPS = (cyclic_group(5), cyclic_group(7), symmetric_group(3), symmetric_group(4))


def group_id(g):
    return g.name


def bumped(group, c, edge):
    """``c`` with ``edge`` moved to the next element of the group."""
    els = group.elements
    return perturb_cube(c, edge, els[(els.index(getattr(c, edge)) + 1) % len(els)])


@pytest.mark.parametrize("group", GROUPS, ids=group_id)
def test_solved_cubes_and_draws_match_the_hand_solved_cubes(group):
    # Every free-edge table solves to all twelve edges: ``cube`` rejects a
    # missing one.  Shared faces that do not commute are included, so the
    # face chosen to solve each edge matches too.
    for seed in range(25):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        c = random_commutative_cube(group, new_rng)
        assert c == old_random_commutative_cube(group, old_rng)
        assert new_rng.random() == old_rng.random()
        for c1 in (c, bumped(group, c, CUBE_EDGES[seed % len(CUBE_EDGES)])):
            for direction in ("v", "h", "d"):
                c2 = random_cube_sharing(group, new_rng, c1, direction)
                assert c2 == old_random_cube_sharing(group, old_rng, c1, direction)
                assert new_rng.random() == old_rng.random()


def test_unknown_direction_is_rejected_before_any_draw():
    group = cyclic_group(5)
    rng = random.Random(3)
    c = random_commutative_cube(group, rng)
    state = rng.getstate()
    with pytest.raises(ValidationError):
        random_cube_sharing(group, rng, c, "x")
    with pytest.raises(ValidationError):
        old_random_cube_sharing(group, rng, c, "x")
    assert rng.getstate() == state


@pytest.mark.parametrize("group", GROUPS, ids=group_id)
def test_cube_reports_match_on_every_single_edge_perturbation(group):
    rng = random.Random(11)
    for _ in range(3):
        c = random_commutative_cube(group, rng)
        cubes = [c] + [random_cube_sharing(group, rng, c, d) for d in ("v", "h", "d")]
        for base in cubes:
            for d in [base] + [
                perturb_cube(base, e, v)
                for e in CUBE_EDGES
                for v in group.elements
                if v != getattr(base, e)
            ]:
                assert commutative_cube_check(group, d) == old_commutative_cube_check(
                    group, d
                )


def _interval_xmod(boundary=None):
    """c2 fibres over the interval with the trivial action; the boundary
    sends every label at ``x`` to ``boundary[x]``, the identity when not
    given, which makes a lawful crossed module."""
    p = interval_groupoid()
    c2 = cyclic_group(2)
    boundary = boundary or p.id_of
    return CrossedModule(
        p=p,
        m={x: c2 for x in p.objects},
        mu={x: {m: boundary[x] for m in c2.elements} for x in p.objects},
        action={(m, a): m for m in c2.elements for a in p.arrows},
        name="c2-over-interval",
    )


def _union_xmod(xl, xr):
    """The crossed module over ``disjoint_union(xl.p, xr.p)`` that is ``xl``
    on the left objects and ``xr`` on the right ones."""
    p = disjoint_union(xl.p, xr.p)
    m, mu, action = {}, {}, {}
    for t, xm in (("l", xl), ("r", xr)):
        for x in xm.p.objects:
            m[(t, x)] = xm.m[x]
            mu[(t, x)] = {n: (t, a) for n, a in xm.mu[x].items()}
        action.update({(n, (t, a)): out for (n, a), out in xm.action.items()})
    return CrossedModule(p=p, m=m, mu=mu, action=action, name=f"{xl.name}+{xr.name}")


CARRIER_MODULES = {
    **bundled_xmods(),
    "interval": _interval_xmod(),
    "aut-c8": automorphism_xmod(cyclic_group(8)),
}
CARRIER_MODULES["two-object"] = _union_xmod(CARRIER_MODULES["c4c2"], CARRIER_MODULES["a3s3"])
CARRIER_MODULES["three-object"] = _union_xmod(
    CARRIER_MODULES["interval"], CARRIER_MODULES["auts3"]
)
# A ``replace``d base starts without a view and is validated on its first read.
CARRIER_MODULES["replaced-auts3"] = replace(
    CARRIER_MODULES["auts3"], p=replace(CARRIER_MODULES["auts3"].p)
)


def test_from_xmod_enumerates_the_same_squares():
    for name, xm in CARRIER_MODULES.items():
        new, old = from_xmod(xm), old_from_xmod(xm)
        assert new.squares == old.squares, name
        for index in ("by_left", "by_top", "by_left_top"):
            assert list(getattr(new, index).items()) == list(getattr(old, index).items()), name


def _failure(build, xm):
    try:
        build(xm)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_a_boundary_off_the_loops_at_w_fails_the_last_step_as_before():
    # The interval's arrow 0 -> 1 as the boundary at 0: h^-1 g a ends at 0,
    # where the inverse of the boundary does not start.
    xm = _interval_xmod({0: "i", 1: "id1"})
    want = _failure(old_from_xmod, xm)
    assert want == (CompositionError, "arrows do not compose: 'id0' then 'i_inv'")
    assert _failure(from_xmod, xm) == want


def test_a_base_with_a_missing_pair_is_a_validation_error():
    xm = bundled_xmods()["a3s3"]
    pair = (xm.p.arrows[1], xm.p.arrows[2])
    comp = {k: v for k, v in xm.p.comp.items() if k != pair}
    broken = replace(xm, p=replace(xm.p, comp=comp))
    with pytest.raises(KeyError):
        old_from_xmod(broken)
    with pytest.raises(ValidationError) as info:
        from_xmod(broken)
    assert str(info.value) == "composition table is not total"
    assert info.value.witness == pair
    # A composite outside the arrows is reported with its pair, as
    # ``build_groupoid`` reports it.
    comp[pair] = "stray"
    with pytest.raises(ValidationError) as info:
        from_xmod(replace(xm, p=replace(xm.p, comp=comp)))
    want = ("composite leaves the carrier", (*pair, "stray"))
    assert (str(info.value), info.value.witness) == want


def test_a_replaced_base_is_validated_on_its_first_read_and_keeps_its_view():
    auts3 = CARRIER_MODULES["auts3"]
    xm = replace(auts3, p=replace(auts3.p))
    assert xm.p._view is None and xm._view is None
    assert from_xmod(xm).squares == old_from_xmod(xm).squares
    assert xm.p._view == auts3.p._view and xm._view == xmod_view(auts3)


def _old_fibre(d, x):
    """The fibre scan that ``to_xmod`` used, verbatim."""
    p = d.xm.p
    i = p.id_of[x]
    return tuple(
        s
        for s in d.squares
        if s.top == i and s.left == i and s.bottom == i
    )


@pytest.mark.parametrize("name", [*sorted(bundled_xmods()), "two-object", "three-object"])
def test_to_xmod_reads_the_same_fibres_off_the_index(name):
    xm = CARRIER_MODULES[name]
    d = from_xmod(xm)
    recovered = to_xmod(d)
    for x in xm.p.objects:
        assert recovered.m[x].elements == _old_fibre(d, x)
        assert len(recovered.m[x]) == len(xm.m[x])


def _guard_outcome(build, xm, guard):
    try:
        build(xm, guard=guard)
    except SizeGuardExceeded as exc:
        return str(exc)
    return None


def test_from_xmod_guard_trips_where_the_old_one_did():
    for name, xm in CARRIER_MODULES.items():
        for guard in (0, 3, 4, 17, 35, 36, 647, 648):
            want = _guard_outcome(old_from_xmod, xm, guard)
            assert _guard_outcome(from_xmod, xm, guard) == want, (name, guard)
            if want is not None:
                with pytest.raises(SizeGuardExceeded) as info:
                    from_xmod(xm, guard=guard)
                assert info.value.allowed == guard
                assert info.value.needed > guard


def outcome(fold, *args):
    try:
        return ("value", fold(*args))
    except (CompositionError, HypothesisError, ValidationError) as exc:
        return (type(exc), str(exc))


def row_cases(g, seed):
    """The rows of acceptance 9, each followed by a copy whose outer
    vertical edges are drawn from a second generator."""
    rng, ends = random.Random(seed), random.Random(seed + 1)
    for _ in range(200):
        n = rng.randrange(2, 6)
        verticals = [g.unit] + [rng.choice(g.elements) for _ in range(n - 1)] + [g.unit]
        tops = [rng.choice(g.elements) for _ in range(n)]
        yield verticals, tops
        yield [ends.choice(g.elements)] + verticals[1:-1] + [ends.choice(g.elements)], tops


def test_row_uniqueness_matches_the_commutative_square_row():
    for g, seed in ((cyclic_group(6), 541), (symmetric_group(3), 547)):
        g0, xm = from_group(g), trivial_xmod(g)
        one = xm.m["*"].unit
        raised = set()
        for verticals, tops in row_cases(g, seed):
            old_row, new_row = [], []
            for i, top in enumerate(tops):
                left, right = verticals[i], verticals[i + 1]
                bottom = g.mul(g.mul(g.inv(left), top), right)
                old_row.append(comm_square(g0, left, top, bottom, right))
                new_row.append(make_square(xm, one, top, left, right, bottom))
            want = outcome(old_row_uniqueness, g0, old_row)
            assert outcome(row_uniqueness, xm, new_row) == want
            raised.add(want[0])
        assert raised == {"value", HypothesisError}
        # rows no validated square can form: empty, not composable, and
        # with top and bottom apart
        e, a, b = g.elements[0], g.elements[1], g.elements[2]
        assert e == g.unit
        for frames, error in (
            ([], ValidationError),
            ([(e, a, a, e), (a, a, a, a)], CompositionError),
            ([(e, a, b, e)], ValidationError),
        ):
            old_row = [CommSquare(l, t, bt, r) for l, t, bt, r in frames]
            new_row = [LabeledSquare(one, t, l, r, bt) for l, t, bt, r in frames]
            want = outcome(old_row_uniqueness, g0, old_row)
            assert want[0] is error
            assert outcome(row_uniqueness, xm, new_row) == want


def test_thin_squares_accept_exactly_the_commuting_frames():
    s3 = symmetric_group(3)
    g0, xm = from_group(s3), trivial_xmod(s3)
    one = xm.m["*"].unit
    accepted = 0
    for left, top, bottom, right in product(s3.elements, repeat=4):
        try:
            old = comm_square(g0, left, top, bottom, right)
        except ValidationError:
            old = None
        try:
            new = make_square(xm, one, top, left, right, bottom)
        except ValidationError:
            new = None
        assert (old is None) == (new is None), (left, top, bottom, right)
        if new is not None:
            accepted += 1
            assert (new.left, new.top, new.bottom, new.right) == (
                old.left, old.top, old.bottom, old.right
            )
    assert accepted == 216


# The grid ``commutative_cube_check`` folds, against ``make_square``: the
# check writes its nine thin squares as int tuples, unchecked, on a view it
# builds from the group's, so the squares' validity and the view are
# checked here.

ORACLE_GROUPS = {
    **{name: one_object_group(p) for name, p in battery().items()},
    "s4": symmetric_group(4),
}


def folded_grid(group, c):
    """The report of ``commutative_cube_check(group, c)`` and the
    ``(view, grid)`` it folded, or None when it folded nothing."""
    seen = []
    real = dblgpd._fold

    def spy(xv, grid, order):
        seen.append((xv, grid))
        return real(xv, grid, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dblgpd, "_fold", spy)
        report = commutative_cube_check(group, c)
    return report, (seen[0] if seen else None)


def lower_faces_commute(group, c):
    faces = ("bottom", "back", "front", "left", "right")
    return all(_face_commutes(group, old_cube_face(c, name)) for name in faces)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_GROUPS)), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_folded_grid_is_nine_squares_make_square_accepts(name, seed, data):
    group = ORACLE_GROUPS[name]
    xm = trivial_xmod(group)
    drawn = cube(group, **{e: data.draw(st.sampled_from(group.elements)) for e in CUBE_EDGES})
    for c in (random_commutative_cube(group, random.Random(seed)), drawn):
        report, folded = folded_grid(group, c)
        assert (folded is not None) == lower_faces_commute(group, c) == (not report.failing_faces)
        if folded is None:
            continue
        xv, grid = folded
        assert [len(row) for row in grid] == [3, 3, 3]
        for s in chain.from_iterable(grid):
            square = dblgpd._named(xv, s)
            assert make_square(xm, *square) == square


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_the_cube_check_folds_on_the_trivial_modules_view(name):
    group = ORACLE_GROUPS[name]
    _, (xv, _) = folded_grid(group, random_commutative_cube(group, random.Random(7)))
    assert xv == xmod_view(trivial_xmod(group))
    assert xv.base is group._view
