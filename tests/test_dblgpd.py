"""Square pasting over crossed modules: exhaustive checks on the smallest
carrier, seeded sampling on the larger ones."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit.core import (
    CompositionError,
    HypothesisError,
    ValidationError,
    cyclic_group,
    symmetric_group,
)
from gpdkit.dblgpd import (
    CUBE_EDGES,
    Cube,
    commutative_cube_check,
    compose_array,
    connection_neg,
    connection_pos,
    cube,
    cube_compose_check,
    cube_glue,
    double_identity,
    eckmann_hilton_check,
    eh_instance_from_squares,
    from_xmod,
    hcompose,
    hidentity,
    hinverse,
    identity_edge_squares,
    interchange_check,
    is_thin,
    make_square,
    perturb_cube,
    random_commutative_cube,
    random_cube_sharing,
    round_trip_isomorphism,
    row_uniqueness,
    sample_grid,
    to_xmod,
    vcompose,
    videntity,
    vinverse,
)
from gpdkit.xmod import (
    bundled_xmods,
    check_axioms,
    check_xmod_morphism,
    is_xmod_isomorphism,
    trivial_xmod,
)


def carrier(name):
    return from_xmod(bundled_xmods()[name])


def composable_quads(d):
    """Every composable 2x2 grid in a carrier."""
    for s11 in d.squares:
        for s12 in d.by_left.get(s11.right, ()):
            for s21 in d.by_top.get(s11.bottom, ()):
                for s22 in d.by_left_top.get((s21.right, s12.bottom), ()):
                    yield s11, s12, s21, s22


def test_carrier_sizes():
    assert len(carrier("c2")) == 16
    assert len(carrier("a3s3")) == 648
    assert len(carrier("ts3")) == 216
    assert len(carrier("auts3")) == 1296


def test_every_carrier_square_satisfies_the_boundary_law():
    for name in ("c2", "a3s3"):
        d = carrier(name)
        for s in d.squares:
            rebuilt = make_square(d.xm, s.label, s.top, s.left, s.right, s.bottom)
            assert rebuilt == s


def test_make_square_rejects_bad_boundaries():
    d = carrier("c2")
    # boundary word is 1 but the label's boundary is the identity
    with pytest.raises(ValidationError):
        make_square(d.xm, 1, top=1, left=0, right=0, bottom=0)
    with pytest.raises(ValidationError):
        make_square(d.xm, 0, "zz", 0, 0, 0)
    a3s3 = bundled_xmods()["a3s3"]
    cycle = (1, 2, 0)
    e = a3s3.p.id_of["*"]
    with pytest.raises(ValidationError):
        make_square(a3s3, cycle, top=e, left=e, right=e, bottom=e)


def test_two_squares_cancel_to_the_double_identity():
    # both squares carry the nontrivial label; pasted horizontally they
    # cancel to the doubly degenerate identity square
    xm = bundled_xmods()["c2"]
    s1 = make_square(xm, 1, top=1, left=0, right=1, bottom=0)
    s2 = make_square(xm, 1, top=1, left=1, right=0, bottom=0)
    assert hcompose(xm, s1, s2) == double_identity(xm, "*")


def test_identities_are_neutral_exhaustively():
    d = carrier("c2")
    xm = d.xm
    for s in d.squares:
        assert hcompose(xm, hidentity(xm, s.left), s) == s
        assert hcompose(xm, s, hidentity(xm, s.right)) == s
        assert vcompose(xm, videntity(xm, s.top), s) == s
        assert vcompose(xm, s, videntity(xm, s.bottom)) == s


def test_identities_are_neutral_sampled():
    d = carrier("a3s3")
    xm = d.xm
    rng = random.Random(7)
    for _ in range(200):
        s = rng.choice(d.squares)
        assert hcompose(xm, hidentity(xm, s.left), s) == s
        assert hcompose(xm, s, hidentity(xm, s.right)) == s
        assert vcompose(xm, videntity(xm, s.top), s) == s
        assert vcompose(xm, s, videntity(xm, s.bottom)) == s


def test_inverses_cancel():
    for name, samples in (("c2", None), ("a3s3", 200)):
        d = carrier(name)
        xm = d.xm
        pool = d.squares
        if samples:
            rng = random.Random(11)
            pool = [rng.choice(d.squares) for _ in range(samples)]
        for s in pool:
            assert hcompose(xm, s, hinverse(xm, s)) == hidentity(xm, s.left)
            assert hcompose(xm, hinverse(xm, s), s) == hidentity(xm, s.right)
            assert vcompose(xm, s, vinverse(xm, s)) == videntity(xm, s.top)
            assert vcompose(xm, vinverse(xm, s), s) == videntity(xm, s.bottom)


def test_inverses_stay_in_the_carrier():
    d = carrier("c2")
    for s in d.squares:
        assert d.contains(hinverse(d.xm, s))
        assert d.contains(vinverse(d.xm, s))


def test_connections_fold_to_identities():
    xm = bundled_xmods()["a3s3"]
    for a in xm.p.arrows:
        pos, neg = connection_pos(xm, a), connection_neg(xm, a)
        assert is_thin(xm, pos) and is_thin(xm, neg)
        assert hcompose(xm, pos, neg) == videntity(xm, a)
        assert vcompose(xm, pos, neg) == hidentity(xm, a)


def test_composition_closes_exhaustively():
    d = carrier("c2")
    for s1 in d.squares:
        for s2 in d.by_left.get(s1.right, ()):
            assert d.contains(hcompose(d.xm, s1, s2))
        for s2 in d.by_top.get(s1.bottom, ()):
            assert d.contains(vcompose(d.xm, s1, s2))


def test_composites_satisfy_the_boundary_law():
    d = carrier("a3s3")
    rng = random.Random(23)
    for _ in range(200):
        (row,) = sample_grid(d, rng, 1, 2)
        r = hcompose(d.xm, row[0], row[1])
        assert make_square(d.xm, r.label, r.top, r.left, r.right, r.bottom) == r
        col = sample_grid(d, rng, 2, 1)
        r = vcompose(d.xm, col[0][0], col[1][0])
        assert make_square(d.xm, r.label, r.top, r.left, r.right, r.bottom) == r


def test_interchange_exhaustive_on_the_small_carrier():
    d = carrier("c2")
    count = 0
    for s11, s12, s21, s22 in composable_quads(d):
        report = interchange_check(d.xm, s11, s12, s21, s22)
        assert report.ok, (s11, s12, s21, s22)
        count += 1
    assert count == 4096


def test_interchange_sampled_on_the_large_carrier():
    d = carrier("a3s3")
    rng = random.Random(31)
    for _ in range(300):
        grid = sample_grid(d, rng, 2, 2)
        report = interchange_check(d.xm, grid[0][0], grid[0][1], grid[1][0], grid[1][1])
        assert report.ok


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_interchange_holds_on_indexed_grids(i, j, k, l):
    d = carrier("c2")
    s11 = d.squares[i % len(d.squares)]
    pool12 = d.by_left[s11.right]
    s12 = pool12[j % len(pool12)]
    pool21 = d.by_top[s11.bottom]
    s21 = pool21[k % len(pool21)]
    pool22 = d.by_left_top[(s21.right, s12.bottom)]
    s22 = pool22[l % len(pool22)]
    assert interchange_check(d.xm, s11, s12, s21, s22).ok


def test_thin_squares_compose_to_thin_squares():
    d = carrier("c2")
    xm = d.xm
    thin = [s for s in d.squares if is_thin(xm, s)]
    assert len(thin) == 8
    for s1 in thin:
        for s2 in thin:
            if s1.right == s2.left:
                assert is_thin(xm, hcompose(xm, s1, s2))
            if s1.bottom == s2.top:
                assert is_thin(xm, vcompose(xm, s1, s2))


def test_array_composition_orders_agree():
    for name, rounds, shape in (("c2", 150, (3, 3)), ("a3s3", 60, (3, 3))):
        d = carrier(name)
        rng = random.Random(41)
        for _ in range(rounds):
            grid = sample_grid(d, rng, *shape)
            assert compose_array(d.xm, grid, "rows") == compose_array(
                d.xm, grid, "columns"
            )


def test_array_composition_rejects_ragged_grids():
    d = carrier("c2")
    s = d.squares[0]
    with pytest.raises(ValidationError):
        compose_array(d.xm, [[s], [s, s]])
    with pytest.raises(ValidationError):
        compose_array(d.xm, [[s]], order="diagonal")


def test_mismatched_squares_raise():
    xm = bundled_xmods()["c2"]
    s1 = make_square(xm, 1, top=1, left=0, right=1, bottom=0)
    with pytest.raises(CompositionError):
        hcompose(xm, s1, hidentity(xm, 0))
    with pytest.raises(CompositionError):
        vcompose(xm, s1, videntity(xm, 1))


FOREIGN_SQUARES = {"unknown edge": {"top": 9}, "unknown label": {"label": 7}}
PASTINGS = {
    "hcompose": lambda xm, s, bad: hcompose(xm, bad, s),
    "vcompose": lambda xm, s, bad: vcompose(xm, s, bad),
    "interchange_check": lambda xm, s, bad: interchange_check(xm, s, s, s, bad),
    "compose_array": lambda xm, s, bad: compose_array(xm, [[s, bad]]),
}


@pytest.mark.parametrize("paste", PASTINGS)
@pytest.mark.parametrize("foreign", FOREIGN_SQUARES)
def test_a_square_the_module_does_not_hold_is_named_as_make_square_names_it(paste, foreign):
    xm = bundled_xmods()["c2"]
    s = from_xmod(xm).squares[0]
    bad = s._replace(**FOREIGN_SQUARES[foreign])
    with pytest.raises(ValidationError) as want:
        make_square(xm, *bad)
    with pytest.raises(ValidationError) as got:
        PASTINGS[paste](xm, s, bad)
    assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)
    assert str(got.value) in ("unknown edge", "label outside the fibre group")


def test_round_trip_recovers_the_crossed_module():
    for name in ("c2", "a3s3", "c4c2", "ts3"):
        xm = bundled_xmods()[name]
        recovered = to_xmod(from_xmod(xm))
        assert check_axioms(recovered).ok, name
        iso = round_trip_isomorphism(xm, recovered)
        assert check_xmod_morphism(iso).ok, name
        assert is_xmod_isomorphism(iso), name


def thin(xm, left, top, bottom, right):
    """A commutative square: a thin square over a trivial crossed module."""
    return make_square(xm, xm.m["*"].unit, top, left, right, bottom)


def test_comm_square_validation():
    xm = trivial_xmod(symmetric_group(3))
    g = xm.p
    a, b = g.arrows[1], g.arrows[2]
    ab = g.compose(a, b)
    thin(xm, left=a, top=a, bottom=b, right=b)
    with pytest.raises(ValidationError):
        thin(xm, left=a, top=ab, bottom=b, right=b)


def test_comm_composition_matches_labeled_composition():
    # thin squares over a trivial fibre are exactly commutative squares
    s3 = symmetric_group(3)
    xm = trivial_xmod(s3)
    d = from_xmod(xm)
    assert len(d.squares) == 216
    assert all(is_thin(xm, s) for s in d.squares)
    seen = {(s.left, s.top, s.bottom, s.right) for s in d.squares}
    brute = {
        (l, t, b, r)
        for l, t, b, r in product(s3.elements, repeat=4)
        if s3.mul(l, b) == s3.mul(t, r)
    }
    assert seen == brute
    assert len(brute) == 216


def test_row_uniqueness_over_two_groups():
    for group in (cyclic_group(6), symmetric_group(3)):
        xm = trivial_xmod(group)
        rng = random.Random(53)
        for _ in range(50):
            n = rng.randint(1, 5)
            verts = (
                [group.unit]
                + [rng.choice(group.elements) for _ in range(n - 1)]
                + [group.unit]
            )
            tops = [rng.choice(group.elements) for _ in range(n)]
            row = []
            for i in range(n):
                bottom = group.mul(
                    group.inv(verts[i]), group.mul(tops[i], verts[i + 1])
                )
                row.append(
                    thin(
                        xm, left=verts[i], top=tops[i], bottom=bottom, right=verts[i + 1]
                    )
                )
            value = row_uniqueness(xm, row)
            expected = group.unit
            for t in tops:
                expected = group.mul(expected, t)
            assert value == expected


def test_row_uniqueness_needs_identity_ends():
    xm = trivial_xmod(cyclic_group(6))
    q = thin(xm, left=2, top=1, bottom=1, right=2)
    with pytest.raises(HypothesisError):
        row_uniqueness(xm, [q])


def test_comm_vertical_composition():
    group = symmetric_group(3)
    xm = trivial_xmod(group)
    rng = random.Random(59)
    for _ in range(50):
        l1, t1, r1 = (rng.choice(group.elements) for _ in range(3))
        b1 = group.mul(group.inv(l1), group.mul(t1, r1))
        q1 = thin(xm, left=l1, top=t1, bottom=b1, right=r1)
        l2, r2 = rng.choice(group.elements), rng.choice(group.elements)
        b2 = group.mul(group.inv(l2), group.mul(b1, r2))
        q2 = thin(xm, left=l2, top=b1, bottom=b2, right=r2)
        v = vcompose(xm, q1, q2)
        assert v.left == group.mul(l1, l2)
        assert v.right == group.mul(r1, r2)
        assert v.top == t1 and v.bottom == b2
        assert is_thin(xm, v)
        t3, r3 = rng.choice(group.elements), rng.choice(group.elements)
        b3 = group.mul(group.inv(r1), group.mul(t3, r3))
        q3 = thin(xm, left=r1, top=t3, bottom=b3, right=r3)
        h = hcompose(xm, q1, q3)
        assert h.top == group.mul(t1, t3)
        assert h.bottom == group.mul(b1, b3)
        assert is_thin(xm, h)


def test_random_cubes_commute_and_fold_to_the_top_face():
    for group in (cyclic_group(5), cyclic_group(7)):
        rng = random.Random(61)
        for _ in range(60):
            c = random_commutative_cube(group, rng)
            report = commutative_cube_check(group, c)
            assert report.ok
            assert report.composite == report.top_face


def test_single_edge_perturbations_fail_at_a_face():
    group = cyclic_group(5)
    rng = random.Random(67)
    c = random_commutative_cube(group, rng)
    from gpdkit.dblgpd import CUBE_EDGES

    for edge in CUBE_EDGES:
        old = getattr(c, edge)
        new = (old + 1) % 5
        report = commutative_cube_check(group, perturb_cube(c, edge, new))
        assert not report.ok
        assert report.failing_faces, edge


def test_cube_gluing_in_three_directions():
    for group in (cyclic_group(5), symmetric_group(3)):
        rng = random.Random(71)
        for direction in ("v", "h", "d"):
            for _ in range(40):
                c1 = random_commutative_cube(group, rng)
                c2 = random_cube_sharing(group, rng, c1, direction)
                report = cube_compose_check(group, c1, c2, direction)
                assert report.ok, direction


def test_cube_gluing_rejects_mismatched_faces():
    group = cyclic_group(5)
    rng = random.Random(73)
    c1 = random_commutative_cube(group, rng)
    c2 = random_cube_sharing(group, rng, c1, "v")
    bad = perturb_cube(c2, "top_back", (c2.top_back + 1) % 5)
    with pytest.raises(CompositionError):
        cube_glue(group, c1, bad, "v")


def test_cube_constructor_checks_edges():
    group = cyclic_group(5)
    with pytest.raises(ValidationError):
        cube(group, back_left=0)
    kwargs = {e: 0 for e in (
        "back_left", "back_right", "front_left", "front_right",
        "top_left", "top_back", "top_front", "top_right",
        "bottom_left", "bottom_back", "bottom_front", "bottom_right",
    )}
    kwargs["top_back"] = 99
    with pytest.raises(ValidationError):
        cube(group, **kwargs)


CUBE_CHECKS = {
    "commutative_cube_check": lambda group, c, bad: commutative_cube_check(group, bad),
    "cube_compose_check first": lambda group, c, bad: cube_compose_check(group, bad, c, "v"),
    "cube_compose_check second": lambda group, c, bad: cube_compose_check(group, c, bad, "v"),
}


@pytest.mark.parametrize("check", CUBE_CHECKS)
@pytest.mark.parametrize("raw", [False, True], ids=["perturbed", "raw"])
def test_a_cube_edge_outside_the_group_is_named_as_cube_names_it(check, raw):
    group = cyclic_group(5)
    c = random_commutative_cube(group, random.Random(11))
    if raw:
        bad = Cube(**{**{e: getattr(c, e) for e in CUBE_EDGES}, "top_back": "zz"})
    else:
        bad = perturb_cube(c, "top_back", "zz")
    with pytest.raises(ValidationError) as got:
        CUBE_CHECKS[check](group, c, bad)
    assert str(got.value) == "edge value outside the group"
    assert got.value.witness == ("top_back", "zz")


def test_unit_collapse_on_identity_edge_squares():
    d = carrier("c2")
    elements, op1, op2, u1, u2 = eh_instance_from_squares(d, "*")
    assert len(elements) == 2
    report = eckmann_hilton_check(elements, op1, op2, u1, u2)
    assert report.ok
    assert report.units_equal and report.ops_equal and report.commutative


def test_unit_collapse_fails_on_a_nonabelian_group():
    s3 = symmetric_group(3)
    table = dict(s3.table)
    report = eckmann_hilton_check(s3.elements, table, table, s3.unit, s3.unit)
    assert not report.ok
    kind, (a, b, c, d) = report.witness
    assert kind == "interchange"
    lhs = s3.mul(s3.mul(a, b), s3.mul(c, d))
    rhs = s3.mul(s3.mul(a, c), s3.mul(b, d))
    assert lhs != rhs


def test_unit_collapse_checks_units():
    c2 = cyclic_group(2)
    report = eckmann_hilton_check(c2.elements, dict(c2.table), dict(c2.table), 0, 1)
    assert not report.ok
    assert report.witness[0] == "op2-unit"


def test_identity_edge_squares_have_kernel_labels():
    d = carrier("c4c2")
    squares = identity_edge_squares(d, "*")
    assert sorted(s.label for s in squares) == [0, 2]
