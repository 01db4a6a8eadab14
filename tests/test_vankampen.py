"""Fundamental groupoid presentations and cover pushouts on small
complexes whose answers are known independently."""

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit.cli import main
from gpdkit.core import (
    HypothesisError,
    ValidationError,
    battery,
    skeleton_components,
    symmetric_group,
)
from gpdkit.presentations import (
    empty_word,
    enumerate_group_morphisms,
    free_loop_counts,
    word,
    words_equal,
)
from gpdkit.vankampen import (
    Subcomplex,
    check_cover,
    close_cells,
    complex2,
    cover,
    fundamental_groupoid,
    pi1,
    restrict,
    vkt_square,
)


def circle():
    # two arcs between two poles
    return complex2((0, 1), [("a", 0, 1), ("b", 0, 1)])


def circle_cover():
    x = circle()
    return cover(x, ["a"], ["b"])


def disc():
    return complex2((0, 1), [("a", 0, 1), ("b", 0, 1)], [("f", [("a", 1), ("b", -1)])])


def sphere():
    return complex2(
        (0, 1),
        [("a", 0, 1), ("b", 0, 1)],
        [("f1", [("a", 1), ("b", -1)]), ("f2", [("b", 1), ("a", -1)])],
    )


def wedge():
    return complex2(("*",), [("x", "*", "*"), ("y", "*", "*")])


def torus():
    boundary = [("x", 1), ("y", 1), ("x", -1), ("y", -1)]
    return complex2(("*",), [("x", "*", "*"), ("y", "*", "*")], [("f", boundary)])


def theta():
    return complex2((0, 1), [("a", 0, 1), ("b", 0, 1), ("c", 0, 1)])


def test_closure_pulls_in_boundary_cells():
    x = disc()
    sub = close_cells(x, ["f"])
    assert sub.vertices == (0, 1)
    assert sub.edges == ("a", "b")
    assert sub.faces == ("f",)


def test_closure_rejects_unknown_cells():
    with pytest.raises(ValidationError):
        close_cells(circle(), ["nope"])


def test_cover_must_reach_every_cell():
    x = circle()
    with pytest.raises(ValidationError):
        cover(x, ["a"], ["a"])


def _outcome(f, *args):
    """A call's value, or its error's type, message, witness and report."""
    try:
        return ("returned", f(*args))
    except (ValidationError, HypothesisError) as exc:
        detail = getattr(exc, "witness", None), getattr(exc, "report", None)
        return ("raised", type(exc), str(exc), *detail)


def test_an_iterator_of_cells_or_base_points_is_read_as_its_tuple():
    """Each run of names is read once: an iterator gives what its tuple
    gives, a stray name or a missed component refused alike."""
    x, two = disc(), complex2(("p", "q"), [("x", "p", "p"), ("y", "q", "q")])
    for cells in [("f",), ("a", "zz"), ("zz", ["u"], "a"), ()]:
        assert _outcome(close_cells, x, iter(cells)) == _outcome(close_cells, x, cells)
    for u, v in [(("a",), ("b", "f")), (("a", "zz"), ("b",)), (("a",), ("a",))]:
        assert _outcome(cover, x, iter(u), iter(v)) == _outcome(cover, x, u, v)
    for base in [("p", "q"), ("q", "p", "q"), ("p",), (), ("zz", "p")]:
        want = _outcome(fundamental_groupoid, two, base)
        assert _outcome(fundamental_groupoid, two, iter(base)) == want
    assert _outcome(close_cells, x, iter(("a", "zz")))[1:] == (
        ValidationError, "cells not in the complex", ("zz",), None,
    )
    assert _outcome(fundamental_groupoid, two, iter(("p", "q")))[0] == "returned"


def test_circle_on_two_points_is_free_on_two_arrows():
    p = fundamental_groupoid(circle(), (0, 1))
    assert p.quiver.vertices == (0, 1)
    assert p.quiver.edges == ("a", "b")
    assert p.relations == ()


def test_circle_vertex_group_is_free_of_rank_one():
    for base in ((0, 1), (0,)):
        gp = pi1(circle(), base, 0)
        assert len(gp.generators) == 1
        assert gp.relators == ()
        assert free_loop_counts(gp, 6) == [2 * k + 1 for k in range(7)]


def test_empty_base_is_rejected():
    with pytest.raises(HypothesisError):
        fundamental_groupoid(circle(), ())


def test_missed_component_is_named():
    two = complex2(("p", "q"), [("x", "p", "p"), ("y", "q", "q")])
    with pytest.raises(HypothesisError) as exc:
        fundamental_groupoid(two, ("p",))
    assert exc.value.report == ("q",)
    p = fundamental_groupoid(two, ("p", "q"))
    assert p.quiver.edges == ("x", "y")
    gp = pi1(two, ("p", "q"), "p")
    assert len(gp.generators) == 1 and gp.relators == ()


def test_disc_vertex_group_is_trivial():
    x = disc()
    p = fundamental_groupoid(x, (0,))
    # one generator killed by the face relation
    assert len(p.quiver.edges) == 1
    gp = pi1(x, (0,), 0)
    for g in (symmetric_group(3),):
        assert len(enumerate_group_morphisms(gp, g)) == 1
    loop = word(p.quiver, [(p.quiver.edges[0], 1)])
    verdict = words_equal(p, loop, empty_word(loop.src))
    assert verdict.answer == "yes"


def test_sphere_vertex_group_is_trivial():
    gp = pi1(sphere(), (0,), 0)
    for g in (symmetric_group(3),):
        assert len(enumerate_group_morphisms(gp, g)) == 1


def test_torus_morphism_counts_match_commuting_pairs():
    gp = pi1(torus(), ("*",), "*")
    assert sorted(gp.generators) == ["x", "y"]
    assert len(gp.relators) == 1
    s3 = symmetric_group(3)
    pairs = sum(
        1
        for g, h in product(s3.elements, repeat=2)
        if s3.mul(g, h) == s3.mul(h, g)
    )
    assert len(enumerate_group_morphisms(gp, s3)) == pairs


def test_check_cover_reports_missed_w_component():
    report = check_cover(circle_cover(), (0,))
    assert not report.ok
    assert ("W", (1,)) in report.missed
    assert dict(report.pieces) == {"U": 1, "V": 1, "W": 2}
    assert check_cover(circle_cover(), (0, 1)).ok


def test_vkt_raises_on_missed_component():
    with pytest.raises(HypothesisError) as exc:
        vkt_square(circle_cover(), (0,))
    assert "W" in str(exc.value)


def test_vkt_circle_evidence():
    result = vkt_square(circle_cover(), (0, 1))
    assert result.evidence_ok
    assert result.square.apex.relations == ()
    assert len(result.square.apex.quiver.edges) == 2
    by_name = {t.target: t for t in result.evidence}
    # free groupoid on two parallel arrows over two objects
    assert by_name["s3"].apex_morphisms == by_name["s3"].direct_morphisms


def test_vkt_wedge_evidence():
    x = wedge()
    c = cover(x, ["x"], ["y"])
    result = vkt_square(c, ("*",))
    assert result.evidence_ok
    by_name = {t.target: t for t in result.evidence}
    assert by_name["c2"].apex_morphisms == 4
    assert by_name["s3"].apex_morphisms == 36


def test_vkt_theta_with_shared_arc():
    x = theta()
    c = cover(x, ["a", "b"], ["b", "c"])
    assert c.w.edges == ("b",)
    result = vkt_square(c, (0, 1))
    assert result.evidence_ok
    # the shared arc contributes exactly one gluing relation
    assert len(result.square.apex.relations) == 1


def test_vkt_disc_kills_the_loop():
    x = disc()
    c = cover(x, ["f"], ["a", "b"])
    result = vkt_square(c, (0, 1))
    assert result.evidence_ok
    by_name = {t.target: t for t in result.evidence}
    for name, t in by_name.items():
        assert t.apex_morphisms == t.direct_morphisms


def test_vkt_explicit_targets_and_determinism():
    targets = {k: v for k, v in battery().items() if k in ("c2", "s3")}
    a = vkt_square(circle_cover(), (0, 1), targets=targets)
    b = vkt_square(circle_cover(), (0, 1), targets=targets)
    assert a.battery_names == ("c2", "s3")
    assert a.evidence == b.evidence
    assert a.bridge.emap == b.bridge.emap


def test_pi1_requires_a_base_vertex():
    with pytest.raises(ValidationError) as info:
        pi1(circle(), (0,), 1)
    assert (str(info.value), info.value.witness) == ("vertex is not a base point", 1)


@pytest.mark.parametrize("base", [(0,), (0, 1)])
def test_pi1_names_a_vertex_the_complex_lacks_as_no_such_vertex(base):
    # as README and ``gpdkit pi1 --vertex`` word it
    with pytest.raises(ValidationError) as info:
        pi1(circle(), base, "zz")
    assert (str(info.value), info.value.witness) == ("no such vertex", "zz")


@pytest.mark.parametrize(
    "sub, witness",
    [
        (Subcomplex(vertices=(0, 1), edges=("a", "zz"), faces=()), ("zz",)),
        (Subcomplex(vertices=(0, 7), edges=(), faces=()), (7,)),
        (Subcomplex(vertices=(0, 1), edges=("a", "b"), faces=("g",)), ("g",)),
        # a name of the complex, but not of a cell of that kind
        (Subcomplex(vertices=(0,), edges=(0,), faces=("a",)), (0, "a")),
    ],
)
def test_restricting_to_cells_the_complex_lacks_is_close_cells_error(sub, witness):
    x = complex2((0, 1), [("a", 0, 1), ("b", 0, 1)], [("f", [("a", 1), ("b", -1)])])
    with pytest.raises(ValidationError) as info:
        restrict(x, sub)
    assert (str(info.value), info.value.witness) == ("cells not in the complex", witness)
    names = [c for c in witness if c not in (*x.vertices, *x.edges, *x.faces)]
    if names:  # the error ``close_cells`` gives for the same names
        with pytest.raises(ValidationError) as want:
            close_cells(x, names)
        assert (str(want.value), want.value.witness) == (str(info.value), info.value.witness)


# A filled circle on a0, a1, a circle of two arcs on b0, b1, and an
# isolated vertex z, listed so that the b-component comes first.
TWO_AND_A_POINT = complex2(
    ("b1", "a0", "z", "b0", "a1"),
    [("a", "a0", "a1"), ("b", "a1", "a0"), ("c", "b0", "b1"), ("d", "b0", "b1")],
    [("f", [("a", 1), ("b", 1)])],
)


@pytest.mark.parametrize("base", [("a1",), ("a0", "a1")])
def test_a_missed_component_is_named_before_the_isolated_vertex(base):
    with pytest.raises(HypothesisError) as exc:
        fundamental_groupoid(TWO_AND_A_POINT, base)
    assert str(exc.value) == "base points miss a component: ('b1', 'b0')"
    assert exc.value.report == ("b1", "b0")


def test_an_isolated_vertex_is_named_once_the_other_components_are_met():
    with pytest.raises(HypothesisError) as exc:
        fundamental_groupoid(TWO_AND_A_POINT, ("b0", "a0"))
    assert str(exc.value) == "base points miss a component: ('z',)"
    assert exc.value.report == ("z",)
    assert fundamental_groupoid(TWO_AND_A_POINT, ("z", "b0", "a0")).quiver.vertices == (
        "a0", "z", "b0",
    )


def test_the_cli_names_the_missed_component(tmp_path, capsys):
    path = tmp_path / "two.cx"
    path.write_text(
        "kind: complex\n"
        "vertices: b1 a0 z b0 a1\n"
        "edges:\n  a: a0 a1\n  b: a1 a0\n  c: b0 b1\n  d: b0 b1\n"
        "faces:\n  f: a b\n",
        encoding="utf-8",
    )
    assert main(["pi1", str(path), "--base", "a1", "--vertex", "a1", "--machine"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    message = "base points miss a component: ('b1', 'b0')"
    assert report["verdict"] == "fail"
    assert report["witnesses"] == [message]
    assert report["data"] == {"error_kind": "hypothesis-unmet"}
    assert captured.err == f"error: {message}\n"


def _first_missed_block(x, base):
    """The component check ``_fundamental`` made before the spanning forest
    came first: the first union-find block without a base point."""
    bset = set(base)
    for block in skeleton_components(x.vertices, x.edges, x.esrc, x.etgt):
        if not bset & set(block):
            return block
    return None


@st.composite
def complexes_and_bases(draw):
    n = draw(st.integers(1, 7))
    vertices = draw(st.permutations(range(n)))
    edges = [
        (f"e{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        for i in range(draw(st.integers(0, 7)))
    ]
    base = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3))
    return complex2(vertices, edges), base


@settings(max_examples=300, deadline=None)
@given(case=complexes_and_bases())
def test_the_forest_first_check_names_the_union_find_block(case):
    x, base = case
    block = _first_missed_block(x, base)
    if block is None:
        fundamental_groupoid(x, base)
        return
    with pytest.raises(HypothesisError) as exc:
        fundamental_groupoid(x, base)
    assert str(exc.value) == f"base points miss a component: {block!r}"
    assert exc.value.report == block


@pytest.mark.parametrize(
    "base, witness",
    [
        ((0, "zz"), ("zz",)),
        ((7, 1), (7,)),
        ((["x"], 0, "zz"), (["x"], "zz")),
        (({},), ({},)),
        (("zz", ["x"], 0, "zz", ["x"], 7), ("zz", ["x"], 7)),
    ],
)
def test_base_points_outside_the_complex_are_named_hashable_or_not(base, witness):
    """A base point that is no vertex is named once, in the order it first
    comes, and one that cannot be hashed is no vertex: every reader of a
    base-point set refuses it with the same error and witness, not with a
    TypeError.  ``pi1`` is asked for the vertex group at 0, made a base
    point, so that it reaches the base-point set."""
    readers = [
        lambda b: check_cover(circle_cover(), b),
        lambda b: fundamental_groupoid(circle(), b),
        lambda b: pi1(circle(), (*b, 0), 0),
        lambda b: vkt_square(circle_cover(), b, targets={}),
    ]
    for read in readers:
        with pytest.raises(ValidationError) as info:
            read(iter(base))
        assert (str(info.value), info.value.witness) == ("base points outside the complex", witness)
