"""Library refusals and failure reports, each with the message and the
witness the code states: the checks no other test reaches."""

import random
from dataclasses import replace
from itertools import product

import pytest

from gpdkit.core import (
    CompositionError,
    GroupoidMorphism,
    ValidationError,
    build_groupoid,
    check_morphism,
    cyclic_group,
    finite_group,
    from_group,
    interval_groupoid,
    trivial_group,
    vertex_group,
)
from gpdkit.dblgpd import (
    CUBE_EDGES,
    boundary_word,
    cube,
    cube_glue,
    eckmann_hilton_check,
    from_xmod,
    make_square,
    row_uniqueness,
    sample_grid,
    square_base,
)
from gpdkit.presentations import (
    GroupPresentation,
    PresentationMorphism,
    count_reduced_words,
    free_loop_counts,
    presentation,
    quiver,
    word,
)
from gpdkit.vankampen import (
    Complex2,
    Subcomplex,
    complex2,
    cover,
    fundamental_groupoid,
    restrict,
    vkt_square,
)
from gpdkit.xmod import (
    bundled_xmods,
    crossed_module,
    free_xmod,
    from_normal_subgroup,
    identity_hom,
    induced_xmod_presentation,
    morphisms_from_free,
    morphisms_over,
)

C2 = cyclic_group(2)


def _refused(call, *args):
    """The message and witness of the ValidationError ``call`` raises."""
    with pytest.raises(ValidationError) as info:
        call(*args)
    return str(info.value), info.value.witness


# ------------------------------------------------------------------ core


def test_check_morphism_names_an_object_left_unmapped_or_sent_outside():
    g = from_group(C2)
    arrows = {a: a for a in g.arrows}
    unmapped = check_morphism(GroupoidMorphism(obj_map={}, arrow_map=arrows), g, g)
    assert (unmapped.ok, unmapped.law, unmapped.witness) == (False, "object-totality", ("*",))
    outside = check_morphism(GroupoidMorphism(obj_map={"*": "o"}, arrow_map=arrows), g, g)
    assert (outside.ok, outside.law, outside.witness) == (False, "object-image", ("*", "o"))


def _interval_parts():
    p = interval_groupoid()
    return [p.objects, p.arrows, p.src, p.tgt, p.comp]


def test_a_groupoid_with_a_repeated_object_or_arrow_is_refused():
    objects, arrows, src, tgt, comp = _interval_parts()
    assert _refused(build_groupoid, (0, 1, 0), arrows, src, tgt, comp) == (
        "duplicate objects", (0, 1, 0),
    )
    twice = (*arrows, "i")
    assert _refused(build_groupoid, objects, twice, src, tgt, comp) == (
        "duplicate arrows", twice,
    )


def test_a_composite_of_a_non_composable_pair_is_refused():
    objects, arrows, src, tgt, comp = _interval_parts()
    # i runs from 0 to 1, so i then i does not compose
    comp = {("i", "i"): "i", **comp}
    assert _refused(build_groupoid, objects, arrows, src, tgt, comp) == (
        "composite of non-composable pair", ("i", "i"),
    )


def test_vertex_group_refuses_an_unknown_object():
    assert _refused(vertex_group, interval_groupoid(), 7) == ("no such object", 7)


def test_a_group_with_a_repeated_element_is_refused():
    table = {(a, b): (a + b) % 2 for a, b in product((0, 1), repeat=2)}
    assert _refused(finite_group, (0, 1, 0), table, 0) == ("duplicate elements", (0, 1, 0))


# --------------------------------------------------------- presentations


def _reduced_words_by_brute_force(q, x, k):
    """The composable words from ``x`` of length at most ``k`` with no
    letter next to its inverse, listed one by one."""
    letters = [(e, s) for e in q.edges for s in (1, -1)]
    count = 0
    for n in range(k + 1):
        for w in product(letters, repeat=n):
            at, ok = x, True
            for i, letter in enumerate(w):
                if q.letter_src(letter) != at or (i and w[i - 1] == (letter[0], -letter[1])):
                    ok = False
                    break
                at = q.letter_tgt(letter)
            count += ok
    return count


def test_count_reduced_words_on_two_vertices_counts_each_reduced_word():
    q = quiver((0, 1), [("a", 0, 1), ("b", 0, 1), ("c", 1, 1)])
    for x, k in product(q.vertices, range(5)):
        assert count_reduced_words(q, x, k) == _reduced_words_by_brute_force(q, x, k)
    assert [count_reduced_words(q, 0, k) for k in range(4)] == [1, 3, 9, 23]


def test_count_reduced_words_refuses_an_unknown_vertex():
    q = quiver((0, 1), [("a", 0, 1)])
    assert _refused(count_reduced_words, q, 9, 2) == ("no such vertex", 9)


def test_a_morphism_missing_an_edge_image_is_refused():
    q = quiver(("x",), [("a", "x", "x"), ("b", "x", "x")])
    p = presentation(q)
    f = PresentationMorphism(
        source=p, target=p, vmap={"x": "x"}, emap={"a": word(q, [("a", 1)])}
    )
    assert _refused(f.validate) == ("edge image missing", "b")


def test_free_loop_counts_refuses_a_presentation_with_relators():
    gp = GroupPresentation(generators=("a",), relators=((("a", 1), ("a", 1)),))
    assert _refused(free_loop_counts, gp, 3) == ("presentation is not free", gp.relators)


# ------------------------------------------------------------- vankampen


def _disc(raw):
    """Two arcs between two poles and the disc they bound, built by
    ``complex2`` or, with ``raw``, by hand with a plain ``fboundary`` dict."""
    x = complex2((0, 1), [("a", 0, 1), ("b", 0, 1)], [("f", [("a", 1), ("b", -1)])])
    if not raw:
        return x
    return Complex2(
        vertices=x.vertices,
        edges=x.edges,
        esrc=dict(x.esrc),
        etgt=dict(x.etgt),
        faces=x.faces,
        fboundary=dict(x.fboundary),
    )


def test_a_hand_built_boundary_dict_finds_its_faces_as_the_built_one():
    """``cover``, ``restrict`` and ``vkt_square`` find a face by its index
    the same way when ``fboundary`` is a plain dict."""
    results = []
    for raw in (False, True):
        x = _disc(raw)
        assert (type(x.fboundary) is dict) == raw
        c = cover(x, ["f"], ["b"])
        sub = restrict(x, Subcomplex(vertices=(0, 1), edges=("a", "b"), faces=("f",)))
        res = vkt_square(c, (0, 1))
        results.append((
            c.u, c.v, c.w, dict(sub.fboundary), res.direct, res.square.apex, res.evidence,
            fundamental_groupoid(sub, (0,)),
        ))
    assert results[0] == results[1]
    assert results[1][6] and all(t.ok for t in results[1][6])


# ---------------------------------------------------------------- dblgpd


@pytest.mark.parametrize("name", ["c2", "a3s3", "c4c2"])
def test_boundary_word_is_the_loop_make_square_checks(name):
    xm = bundled_xmods()[name]
    d = from_xmod(xm)
    for s in d.squares:
        assert boundary_word(xm, s) == xm.mu[square_base(xm, s)][s.label]
    # a frame with a label that does not bound it: make_square names the loop
    for s in d.squares:
        mu = xm.mu[square_base(xm, s)]
        for n in xm.m[square_base(xm, s)].elements:
            if mu[n] != boundary_word(xm, s):
                assert _refused(make_square, xm, n, *s[1:]) == (
                    "label boundary does not match the square boundary",
                    (n, mu[n], boundary_word(xm, s)),
                )


def test_row_uniqueness_names_a_row_whose_top_and_bottom_differ():
    """Over the identity crossed module on C2, the square labelled 1 has
    identity sides and top 1 over bottom 0: the row does not commute."""
    xm = from_normal_subgroup(C2, C2)
    s = make_square(xm, 1, top=1, left=0, right=0, bottom=0)
    assert _refused(row_uniqueness, xm, [s]) == (
        "commutativity was violated along the row", (1, 0),
    )


def test_sample_grid_refuses_a_carrier_with_no_square_for_a_cell():
    d = from_xmod(bundled_xmods()["c2"])
    cut = replace(d, by_left={})
    with pytest.raises(CompositionError) as info:
        sample_grid(cut, random.Random(0), 1, 2)
    assert str(info.value) == "carrier has no square fitting the grid cell"
    assert len(sample_grid(d, random.Random(0), 1, 2)[0]) == 2


def test_cube_glue_refuses_an_unknown_direction():
    c = cube(C2, **dict.fromkeys(CUBE_EDGES, 0))
    assert _refused(cube_glue, C2, c, c, "x") == ("direction must be 'v', 'h', or 'd'", "x")


def test_eckmann_hilton_refuses_a_unit_outside_the_set():
    op = {(a, b): (a + b) % 2 for a, b in product((0, 1), repeat=2)}
    assert _refused(eckmann_hilton_check, (0, 1), op, op, 0, 5) == ("op2 unit outside the set", 5)
    assert _refused(eckmann_hilton_check, (0, 1), op, op, 5, 0) == ("op1 unit outside the set", 5)


# ------------------------------------------------------------------ xmod


def _several_objects():
    """A crossed module of trivial groups over the interval groupoid."""
    p = interval_groupoid()
    one = trivial_group()
    (e,) = one.elements
    return crossed_module(
        p, {x: one for x in p.objects}, {x: {e: p.id_of[x]} for x in p.objects},
        {(e, a): e for a in p.arrows},
    )


def test_crossed_module_refuses_groups_not_indexed_by_the_objects():
    p = from_group(C2)
    assert _refused(crossed_module, p, {"x": C2}, {}, {}) == (
        "groups must be indexed by the objects", ("*", "x"),
    )


def test_free_xmod_refuses_repeated_generators_and_a_missing_boundary():
    assert _refused(free_xmod, C2, ["r", "r"], {"r": 1}) == ("duplicate generators", ("r", "r"))
    assert _refused(free_xmod, C2, ["r", "s"], {"r": 1}) == ("boundary image missing", "s")
    assert _refused(free_xmod, C2, ["r"], {"r": 7}) == ("boundary image missing", "r")


def test_morphisms_from_free_refuses_a_module_over_another_base():
    free = free_xmod(C2, ["r"], {"r": 1})
    assert _refused(morphisms_from_free, free, bundled_xmods()["a3s3"]) == (
        "target is not a crossed module over the same group", ("*",),
    )
    assert _refused(morphisms_from_free, free, _several_objects()) == (
        "target is not a crossed module over the same group", (0, 1),
    )


def test_induction_refuses_a_crossed_module_with_several_objects():
    assert _refused(induced_xmod_presentation, _several_objects(), identity_hom(C2)) == (
        "induction starts from a one-object crossed module", (0, 1),
    )


def test_morphisms_over_refuses_several_objects_and_a_target_over_another_group():
    c2 = bundled_xmods()["c2"]
    hom = identity_hom(C2)
    for xm, target in ((_several_objects(), c2), (c2, _several_objects())):
        assert _refused(morphisms_over, xm, hom, target) == (
            "one-object crossed modules required", None,
        )
    assert _refused(morphisms_over, c2, hom, bundled_xmods()["a3s3"]) == (
        "target base must be the homomorphism's target group", ("*",),
    )
