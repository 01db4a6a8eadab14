import itertools

import pytest
from hypothesis import given, strategies as st

from gpdkit.core import cyclic_group, from_group, symmetric_group, ValidationError
from gpdkit.presentations import (
    GroupoidPresentation,
    PresentationMorphism,
    Word,
    count_reduced_words,
    empty_word,
    enumerate_group_morphisms,
    enumerate_pres_morphisms,
    free_loop_counts,
    free_reduce,
    identity_morphism,
    presentation,
    pushout,
    quiver,
    vertex_group_presentation,
    verify_pushout_universal,
    word,
    words_equal,
)
from gpdkit.vankampen import Complex2


def two_arc_circle_span():
    """Two arcs glued along their endpoints: W discrete {0,1}, U carries
    edge a, V carries edge b."""
    w = presentation(quiver((0, 1), []))
    u = presentation(quiver((0, 1), [("a", 0, 1)]))
    v = presentation(quiver((0, 1), [("b", 0, 1)]))
    f = PresentationMorphism(source=w, target=u, vmap={0: 0, 1: 1}, emap={})
    g = PresentationMorphism(source=w, target=v, vmap={0: 0, 1: 1}, emap={})
    return pushout(f, g)


def wedge_span():
    """Two loops glued at the single shared vertex."""
    w = presentation(quiver(("*",), []))
    u = presentation(quiver(("*",), [("x", "*", "*")]))
    v = presentation(quiver(("*",), [("y", "*", "*")]))
    f = PresentationMorphism(source=w, target=u, vmap={"*": "*"}, emap={})
    g = PresentationMorphism(source=w, target=v, vmap={"*": "*"}, emap={})
    return pushout(f, g)


def c2_free_product_span():
    w = presentation(quiver(("*",), []))

    def c2_pres(edge):
        q = quiver(("*",), [(edge, "*", "*")])
        rel = (word(q, [(edge, 1), (edge, 1)]), empty_word("*"))
        return presentation(q, [rel])

    u, v = c2_pres("x"), c2_pres("y")
    f = PresentationMorphism(source=w, target=u, vmap={"*": "*"}, emap={})
    g = PresentationMorphism(source=w, target=v, vmap={"*": "*"}, emap={})
    return pushout(f, g)


def glued_loops_span():
    """W is one loop sent to U's loop x and to V's loop y, so the apex
    carries the one gluing relation u:x = v:y."""
    w = presentation(quiver(("*",), [("e", "*", "*")]))
    u = presentation(quiver(("*",), [("x", "*", "*")]))
    v = presentation(quiver(("*",), [("y", "*", "*")]))
    f = PresentationMorphism(
        source=w, target=u, vmap={"*": "*"}, emap={"e": word(u.quiver, [("x", 1)])}
    )
    g = PresentationMorphism(
        source=w, target=v, vmap={"*": "*"}, emap={"e": word(v.quiver, [("y", 1)])}
    )
    return pushout(f, g)


def test_free_reduce_cancels_inner_pair():
    q = quiver(("a", "b", "c"), [("e", "a", "b"), ("f", "a", "c")])
    w = word(q, [("e", 1), ("e", -1), ("f", 1)])
    r = free_reduce(w)
    assert r.letters == (("f", 1),)
    assert (r.src, r.tgt) == ("a", "c")


def test_free_reduce_fixed_point_and_empty():
    q = quiver(("a", "b"), [("e", "a", "b")])
    w = word(q, [("e", 1)])
    assert free_reduce(w) == w
    we = word(q, [("e", 1), ("e", -1)])
    assert free_reduce(we) == empty_word("a")


@given(st.lists(st.tuples(st.sampled_from(["x", "y"]), st.sampled_from([1, -1])), max_size=30))
def test_free_reduce_properties_on_loop_words(letters):
    q = quiver(("*",), [("x", "*", "*"), ("y", "*", "*")])
    w = word(q, letters, at="*")
    r = free_reduce(w)
    # idempotent, endpoint-preserving, and actually reduced
    assert free_reduce(r) == r
    assert (r.src, r.tgt) == (w.src, w.tgt)
    for (e1, s1), (e2, s2) in zip(r.letters, r.letters[1:]):
        assert not (e1 == e2 and s1 == -s2)


def test_word_rejects_broken_chain():
    q = quiver(("a", "b"), [("e", "a", "b")])
    with pytest.raises(ValidationError):
        word(q, [("e", 1), ("e", 1)])


def test_count_reduced_words_one_loop():
    q = quiver(("*",), [("x", "*", "*")])
    assert count_reduced_words(q, "*", 3) == 7


def test_count_reduced_words_two_loops():
    q = quiver(("*",), [("x", "*", "*"), ("y", "*", "*")])
    assert count_reduced_words(q, "*", 2) == 17


def test_count_reduced_words_edgeless():
    q = quiver((0,), [])
    assert count_reduced_words(q, 0, 5) == 1


def test_pushout_of_two_arcs_is_circle_presentation():
    sq = two_arc_circle_span()
    assert len(sq.apex.quiver.vertices) == 2
    assert len(sq.apex.quiver.edges) == 2
    assert sq.apex.relations == ()
    gp = vertex_group_presentation(sq.apex, sq.inj_u.vmap[0])
    assert len(gp.generators) == 1
    assert gp.relators == ()
    assert free_loop_counts(gp, 6) == [2 * k + 1 for k in range(7)]


def test_pushout_against_identity_leg_is_isomorphic_to_u():
    u = presentation(quiver((0, 1), [("a", 0, 1)]))
    f = identity_morphism(u)
    g = identity_morphism(u)
    sq = pushout(f, g)
    from gpdkit.core import battery

    for name, t in battery().items():
        assert len(enumerate_pres_morphisms(sq.apex, t)) == len(
            enumerate_pres_morphisms(u, t)
        )


def test_pushout_glues_w_generators_into_relations():
    # W carries an edge; the pushout must equate its two images
    w = presentation(quiver((0, 1), [("e", 0, 1)]))
    u = presentation(quiver((0, 1), [("a", 0, 1)]))
    v = presentation(quiver((0, 1), [("b", 0, 1)]))
    f = PresentationMorphism(
        source=w, target=u, vmap={0: 0, 1: 1},
        emap={"e": word(u.quiver, [("a", 1)])},
    )
    g = PresentationMorphism(
        source=w, target=v, vmap={0: 0, 1: 1},
        emap={"e": word(v.quiver, [("b", 1)])},
    )
    sq = pushout(f, g)
    assert len(sq.apex.relations) == 1
    lhs, rhs = sq.apex.relations[0]
    assert lhs.letters == (("u:a", 1),)
    assert rhs.letters == (("v:b", 1),)
    # gluing the two arcs along each other leaves an interval
    from gpdkit.core import battery

    for name, t in battery().items():
        assert len(enumerate_pres_morphisms(sq.apex, t)) == len(
            enumerate_pres_morphisms(u, t)
        )


def test_free_product_of_two_c2():
    n = 3
    sq = c2_free_product_span()
    assert len(sq.apex.quiver.vertices) == 1
    assert len(sq.apex.quiver.edges) == 2
    assert len(sq.apex.relations) == 2
    s3 = from_group(symmetric_group(3))
    assert len(enumerate_pres_morphisms(sq.apex, s3)) == 16

    # alternating-word oracle: distinct elements of C2 * C2 expressible by
    # words of length <= k number 2k + 1
    x, y = sq.apex.quiver.edges

    def normalize(seq):
        out = []
        for letter in seq:
            if out and out[-1] == letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    for k in range(n + 1):
        seen = set()
        for length in range(k + 1):
            for seq in itertools.product((x, y), repeat=length):
                seen.add(normalize(seq))
        assert len(seen) == 2 * k + 1


def test_enumerate_pres_morphisms_counts():
    sq = two_arc_circle_span()
    c2 = from_group(cyclic_group(2))
    assert len(enumerate_pres_morphisms(sq.apex, c2)) == 4
    # C3 presentation into C2: only the trivial assignment kills t^3
    q = quiver(("*",), [("t", "*", "*")])
    p = presentation(q, [(word(q, [("t", 1)] * 3), empty_word("*"))])
    assert len(enumerate_pres_morphisms(p, c2)) == 1
    nothing = presentation(quiver(("*",), []))
    assert len(enumerate_pres_morphisms(nothing, c2)) == 1


def test_universal_property_circle():
    sq = two_arc_circle_span()
    report = verify_pushout_universal(sq)
    assert report.ok
    by_name = {r.target: r for r in report.per_target}
    assert by_name["c2"].compatible_pairs == 4
    assert by_name["c2"].apex_morphisms == 4


def test_universal_property_wedge():
    report = verify_pushout_universal(wedge_span())
    assert report.ok
    by_name = {r.target: r for r in report.per_target}
    assert by_name["c2"].compatible_pairs == 4
    assert by_name["s3"].compatible_pairs == 36


def test_vertex_group_presentation_of_tree_is_trivial():
    p = presentation(quiver((0, 1, 2), [("a", 0, 1), ("b", 1, 2)]))
    gp = vertex_group_presentation(p, 0)
    assert gp.generators == ()
    assert gp.relators == ()


def test_vertex_group_presentation_keeps_one_object_presentation():
    q = quiver(("*",), [("x", "*", "*"), ("y", "*", "*")])
    p = presentation(q, [(word(q, [("x", 1), ("y", 1)]), word(q, [("y", 1), ("x", 1)]))])
    gp = vertex_group_presentation(p, "*")
    assert gp.generators == ("x", "y")
    assert gp.relators == ((("x", 1), ("y", 1), ("x", -1), ("y", -1)),)


def test_vertex_group_presentation_drops_foreign_relations():
    q = quiver((0, 1), [("x", 0, 0), ("y", 1, 1)])
    p = presentation(q, [(word(q, [("y", 1), ("y", 1)]), empty_word(1))])
    gp = vertex_group_presentation(p, 0)
    assert gp.generators == ("x",)
    assert gp.relators == ()
    assert len(gp.dropped_relations) == 1


def test_wedge_free_loop_counts():
    sq = wedge_span()
    gp = vertex_group_presentation(sq.apex, sq.inj_u.vmap["*"])
    assert len(gp.generators) == 2
    assert gp.relators == ()
    assert free_loop_counts(gp, 2) == [1, 5, 17]


def test_enumerate_group_morphisms_counts():
    gp = vertex_group_presentation(wedge_span().apex, "u:*")
    s3 = symmetric_group(3)
    assert len(enumerate_group_morphisms(gp, s3)) == 36


def test_words_equal_yes_by_free_reduction():
    q = quiver(("*",), [("x", "*", "*")])
    p = presentation(q)
    u = word(q, [("x", 1), ("x", -1), ("x", 1)])
    v = word(q, [("x", 1)])
    verdict = words_equal(p, u, v)
    assert verdict.answer == "yes"
    assert verdict.reason == "free reduction"


def test_words_equal_yes_by_rewriting():
    q = quiver(("*",), [("x", "*", "*")])
    p = presentation(q, [(word(q, [("x", 1), ("x", 1)]), empty_word("*"))])
    verdict = words_equal(p, word(q, [("x", 1)] * 4), empty_word("*"))
    assert verdict.answer == "yes"
    assert verdict.reason == "bounded rewriting"


def test_words_equal_no_with_separating_quotient():
    sq = two_arc_circle_span()
    q = sq.apex.quiver
    a, b = q.edges
    loop = word(q, [(a, 1), (b, -1)])
    verdict = words_equal(sq.apex, loop, empty_word(loop.src))
    assert verdict.answer == "no"
    assert "c2" in verdict.reason


def test_words_equal_no_witness_is_the_first_separating_key():
    sq = two_arc_circle_span()
    q = sq.apex.quiver
    a, b = q.edges
    loop = word(q, [(a, 1), (b, -1)])
    verdict = words_equal(sq.apex, loop, empty_word(loop.src))
    assert verdict.reason == "separated in c2"
    assert verdict.witness == ("c2", (("*", "*"), (0, 1)))


def test_words_equal_unknown_when_bounds_exhaust():
    # <x | x^5>: x is nontrivial, but no battery target of order 2,3,4,6
    # separates it and rewriting cannot shrink x to the empty word.
    q = quiver(("*",), [("x", "*", "*")])
    p = presentation(q, [(word(q, [("x", 1)] * 5), empty_word("*"))])
    verdict = words_equal(p, word(q, [("x", 1)]), empty_word("*"))
    assert verdict.answer == "unknown"


def test_words_equal_rejects_non_coterminal():
    q = quiver((0, 1), [("a", 0, 1)])
    p = presentation(q)
    with pytest.raises(ValidationError):
        words_equal(p, word(q, [("a", 1)]), empty_word(0))



# Malformed words reach three validators: relation sides, edge images and
# face boundaries.  Each case names the word-level error it raises, or
# None when the word only fails to be rebuilt exactly as given (wrong
# endpoints, a list of letters, an unnormalised sign), in which case the
# validator's own message and witness apply.
_PIN_Q = quiver((0, 1), [("a", 0, 1), ("l", 0, 0)])
_MALFORMED_WORDS = {
    "broken chain": (
        Word(0, 1, (("a", 1), ("a", 1))),
        ("letters do not chain", (1, ("a", 1), 1)),
    ),
    "bad sign": (Word(0, 1, (("a", 2),)), ("malformed letter", ("a", 2))),
    "unknown edge after the first": (
        Word(0, 0, (("l", 1), ("zz", 1))),
        ("malformed letter", ("zz", 1)),
    ),
    "wrong source": (Word(1, 1, (("a", 1),)), None),
    "wrong target": (Word(0, 0, (("a", 1),)), None),
    "empty word off the quiver": (Word(9, 9, ()), ("empty word needs a vertex", 9)),
    "empty word with two ends": (Word(0, 1, ()), None),
    "letters in a list": (Word(0, 1, [("a", 1)]), None),
    "sign as a string": (Word(0, 1, (("a", "1"),)), None),
}


def _in_relation(w):
    other = w if w.letters else empty_word(w.src)
    GroupoidPresentation(quiver=_PIN_Q, relations=((w, other),)).validate()


def _as_edge_image(w):
    PresentationMorphism(
        source=presentation(quiver(("s", "t"), [("e", "s", "t")])),
        target=presentation(_PIN_Q),
        vmap={"s": 0, "t": 1},
        emap={"e": w},
    ).validate()


def _as_boundary(w):
    Complex2(
        vertices=_PIN_Q.vertices,
        edges=_PIN_Q.edges,
        esrc=_PIN_Q.esrc,
        etgt=_PIN_Q.etgt,
        faces=("F",),
        fboundary={"F": w},
    ).validate()


# validator, its own message, its witness for word w
_WORD_VALIDATORS = {
    "relation": (_in_relation, "malformed relation word", lambda w: w),
    "edge image": (_as_edge_image, "edge image is malformed", lambda w: ("e", w)),
    "boundary": (_as_boundary, "malformed boundary word", lambda w: ("F", w)),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_WORDS))
@pytest.mark.parametrize("where", sorted(_WORD_VALIDATORS))
def test_validators_reject_malformed_words_with_a_witness(case, where):
    w, expected = _MALFORMED_WORDS[case]
    validate, message, witness_of = _WORD_VALIDATORS[where]
    if expected is None:
        expected = (message, witness_of(w))
    with pytest.raises(ValidationError) as info:
        validate(w)
    assert (str(info.value), info.value.witness) == expected


def test_word_rejects_an_unknown_first_letter():
    with pytest.raises(ValidationError) as info:
        word(_PIN_Q, [("zz", 1)])
    assert (str(info.value), info.value.witness) == ("malformed letter", ("zz", 1))
    for validate, _, _ in _WORD_VALIDATORS.values():
        with pytest.raises(ValidationError, match="malformed letter"):
            validate(Word(0, 0, (("zz", 1),)))


@pytest.mark.parametrize("letter", [("a", "x"), ("a", None), ("a",), 5])
def test_word_rejects_an_unreadable_letter(letter):
    with pytest.raises(ValidationError) as info:
        word(_PIN_Q, [letter])
    assert (str(info.value), info.value.witness) == ("malformed letter", letter)
