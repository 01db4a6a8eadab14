"""The van Kampen square built on int rows against the named-word build it
replaced.

``vkt_square`` reads each piece of the cover off X's rows, names the
inclusions and the bridge from their image rows, and ``pushout`` builds
the apex's relator rows and its injections from the legs' rows; the
oracles in ``square_build`` restrict, name and read every word back.  On
the squares of ``_vkt_results()``, the ``tests/data`` covers and spans,
the bouquets and wedges, every cover of the five small complexes in
``every_cover``, hand-built covers listing their cells out of order, and
hypothesis spans, the two must give equal values with equal kept views,
field by field, or raise the same error with the same witness.
``verify_pushout_universal`` must give the oracle's report on every
square, broken ones included.
"""

import random
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import every_cover
import square_build as old
import test_search
from gpdkit.cli import _name_inclusion
from gpdkit.core import (
    HypothesisError,
    SizeGuardExceeded,
    ValidationError,
    battery,
    disjoint_union,
    interval_groupoid,
)
from gpdkit.documents import load_document
from gpdkit.presentations import (
    GroupoidPresentation,
    PresentationMorphism,
    PushoutSquare,
    Quiver,
    presentation,
    pushout,
    quiver,
    verify_pushout_universal,
)
from gpdkit.vankampen import (
    Subcomplex,
    SubcomplexCover,
    VktResult,
    _fundamental,
    complex2,
    cover,
    vkt_square,
)
from test_presentations import (
    c2_free_product_span,
    glued_loops_span,
    two_arc_circle_span,
    wedge_span,
)
from test_universality import _BREAKAGES, _drop_gluing, _inj_v_through_u, _kill_u_loop, spans

DATA = Path(__file__).parent / "data"
SMALL = {name: t for name, t in battery().items() if name in ("c2", "s3")}
SEVERAL = {
    "interval": interval_groupoid(),
    "c2+c3": disjoint_union(battery()["c2"], battery()["c3"]),
}


def _views(value):
    """``value`` with every view kept inside it, read as plain data: a
    value without its view fails to unpack."""
    if isinstance(value, VktResult):
        return value, _views(value.square), _views(value.direct), _views(value.bridge)
    if isinstance(value, PushoutSquare):
        return tuple(_views(getattr(value, part.name)) for part in fields(value))
    if isinstance(value, GroupoidPresentation):
        return value, value._view, _views(value.quiver)
    if isinstance(value, PresentationMorphism):
        tq, images = value._view
        return value, _views(tq), images
    if isinstance(value, Quiver):
        vpos, epos, src, tgt = value._view
        return value, vpos, epos, src, tgt
    return value


def _outcome(f, *args, **kwargs):
    """What a call did: its value with its views, or the error's type,
    message, witness or report and arguments."""
    try:
        return ("returned", _views(f(*args, **kwargs)))
    except (ValidationError, HypothesisError, SizeGuardExceeded) as exc:
        detail = getattr(exc, "witness", getattr(exc, "report", None))
        return ("raised", type(exc), str(exc), detail, exc.args)


def _same_square(c, base, **kwargs):
    got = _outcome(vkt_square, c, base, **kwargs)
    assert got == _outcome(old.vkt_square, c, base, **kwargs)
    return got


def _same_pushout(f, g):
    got = _outcome(pushout, f, g)
    assert got == _outcome(old.pushout, f, g)
    return got


def _same_universality(square, targets=None):
    got = _outcome(verify_pushout_universal, square, targets)
    assert got == _outcome(old.verify_pushout_universal, square, targets)
    return got


# -------------------------------------------------------------- vkt squares


def _vkt_calls():
    """The ``(cover, base)`` of each square ``_vkt_results()`` builds."""
    calls = []

    def record(c, base, *args, **kwargs):
        calls.append((c, base))
        return vkt_square(c, base, *args, **kwargs)

    with mock.patch.object(test_search, "vkt_square", record):
        test_search._vkt_results()
    return calls


def test_the_vkt_results_match_the_named_build():
    calls = _vkt_calls()
    assert len(calls) == 6
    for c, base in calls:
        assert _same_square(c, base)[0] == "returned"


@pytest.mark.parametrize("name", ["circle.cov", "wedge.cov"])
def test_the_data_covers_match_the_named_build_on_every_base(name):
    c = load_document(DATA / name).payload
    vs = c.x.vertices
    bases = [vs[:k] for k in range(len(vs) + 1)] + [vs[::-1], ("zz",), (vs[0], "zz")]
    outcomes = {_same_square(c, base, targets=SMALL)[0] for base in bases}
    assert outcomes == {"returned", "raised"}


def _bouquet(rng, a, b):
    loops = [f"e{rng.randrange(16 ** 6):06x}" for _ in range(a + b)]
    x = complex2(("v",), [(e, "v", "v") for e in loops])
    return cover(x, loops[:a], loops[a:])


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_the_bouquets_and_wedges_match_the_named_build(a, b):
    rng = random.Random(a * 10 + b)
    c = _bouquet(rng, a, b)
    _same_square(c, ("v",))
    res = vkt_square(c, ("v",))
    _same_pushout(res.square.f, res.square.g)
    assert _same_universality(res.square)[1].ok


def test_the_torus_bands_match_the_named_build():
    for name in ("torus-bands.cx",):
        x = load_document(DATA / name).payload
        vs, edges = x.vertices, x.edges
        half = len(edges) // 2
        c = cover(x, [*edges[:half], *x.faces[: len(x.faces) // 2]], [*edges[half:], *x.faces])
        for base in (vs, vs[:1], vs[::3]):
            _same_square(c, base, targets=SMALL)


@pytest.mark.parametrize("name", sorted(every_cover.SMALL))
def test_every_cover_of_the_small_complexes_matches_the_named_build(name):
    x = every_cover.SMALL[name]()
    covers = every_cover.covers(x)
    assert len(covers) == {"circle-3": 27, "circle-4": 98, "projective-plane": 8,
                           "torus-1x1": 6, "torus-1x2": 30}[name]
    for c in covers:
        base = every_cover.greedy_base(c)
        assert _same_square(c, base)[0] == "returned"
        # one base point too few: the hypothesis check refuses both alike
        if len(base) > 1:
            assert _same_square(c, base[:-1])[0] == "raised"


def _disc():
    return complex2((0, 1), [("a", 0, 1), ("b", 0, 1)], [("f", [("a", 1), ("b", -1)])])


def test_hand_built_covers_out_of_order_match_the_named_build():
    """A hand-built cover may list a piece's cells in any order, or a cell
    twice: the pieces follow that order, and a cell named twice is refused
    as ``restrict`` refuses it."""
    x = every_cover.SMALL["torus-1x2"]()
    whole = Subcomplex(x.vertices, x.edges, x.faces)
    band = Subcomplex(x.vertices, x.edges, ("f0",))
    for u, v in [
        (Subcomplex(x.vertices[::-1], x.edges[::-1], x.faces[::-1]), band),
        (whole, Subcomplex(x.vertices, ("u1", "h1", "u0", "h0"), ("f0",))),
        (replace(whole, vertices=x.vertices * 2), band),
        (replace(whole, edges=x.edges + x.edges[:1]), band),
        (whole, replace(band, faces=("f0", "f0"))),
        (replace(whole, faces=("f1", "f1", "f0")), replace(band, vertices=x.vertices * 2)),
    ]:
        c = SubcomplexCover(x=x, u=u, v=v)
        for base in (x.vertices, x.vertices[::-1]):
            _same_square(c, base, targets=SMALL)
    disc = _disc()
    c = SubcomplexCover(x=disc, u=Subcomplex((1, 0), ("b", "a"), ("f",)), v=Subcomplex((0, 1), ("b",), ()))
    assert _same_square(c, (1, 0))[0] == "returned"


def test_the_refusals_match_the_named_build():
    x = _disc()
    torn = SubcomplexCover(x=x, u=Subcomplex((0, 1), ("a",), ()), v=Subcomplex((0, 1), ("b",), ()))
    c = cover(x, ["f"], ["a", "b"])
    for args, kwargs in [
        ((torn, (0,)), {}),
        ((c, ()), {}),
        ((c, (7,)), {}),
        ((c, (0,)), {"guard": 1}),
        ((cover(x, ["a"], ["b", "f"]), (0, 1)), {"guard": 3}),
    ]:
        assert _same_square(*args, **kwargs)[0] == "raised"


def test_the_whole_complex_presents_as_the_named_build():
    """The forest and the presentation, with its views, that
    ``_fundamental`` gives and that the old one kept in its retraction."""

    def whole(x, base):
        forest, p, *_ = _fundamental(x, base)
        return forest, _views(p)

    def named(x, base):
        p, r = old._fundamental(x, base)
        return (r.parent, r.root_of, r.tree), _views(p)

    for name in ("disc.cx", "circle.cx", "grid-commented.cx", "torus-bands.cx"):
        x = load_document(DATA / name).payload
        for base in (x.vertices, x.vertices[:1], ("zz",)):
            assert _outcome(whole, x, base) == _outcome(named, x, base)


# ----------------------------------------------------------------- pushouts


def _data_span():
    pu, pv, pw = (load_document(DATA / f"wedge-{x}.pres").payload for x in ("u", "v", "w"))
    return _name_inclusion(pw, pu, "u"), _name_inclusion(pw, pv, "v")


def _bundled_spans():
    squares = [two_arc_circle_span(), wedge_span(), c2_free_product_span(), glued_loops_span()]
    return [(sq.f, sq.g) for sq in squares] + [_data_span()]


def test_the_bundled_and_data_spans_push_out_as_before():
    for f, g in _bundled_spans() + [(c.square.f, c.square.g) for c in test_search._vkt_results()]:
        assert _same_pushout(f, g)[0] == "returned"


def test_pushout_refusals_match_the_named_build():
    """Different sources; apex names that collide (the vertex 1 and the
    vertex "1", the edge 1 and the edge "1"); a leg that is not lawful."""
    w = presentation(quiver((0,), []))
    u = presentation(quiver((0, 1, "1"), [("a", 0, 1)]))
    v = presentation(quiver((0,), [(1, 0, 0), ("1", 0, 0)]))
    f = PresentationMorphism(source=w, target=u, vmap={0: 0}, emap={})
    g = PresentationMorphism(source=w, target=v, vmap={0: 0}, emap={})
    w2 = presentation(quiver(("x",), []))
    g2 = PresentationMorphism(source=w2, target=v, vmap={"x": 0}, emap={})
    bad = PresentationMorphism(source=w, target=v, vmap={0: 9}, emap={})
    for legs in [(f, g2), (f, g), (f, bad)]:
        assert _same_pushout(*legs)[0] == "raised"


@settings(max_examples=60, deadline=None)
@given(spans())
def test_random_spans_push_out_as_before(square):
    _same_pushout(square.f, square.g)


# ------------------------------------------------------------- universality


def test_the_bundled_squares_are_universal_as_before():
    for f, g in _bundled_spans():
        square = pushout(f, g)
        for targets in (None, SEVERAL):
            _same_universality(square, targets)
        for broken in (_drop_gluing(square), _kill_u_loop(square)):
            if broken is not None:
                _same_universality(broken, SMALL)
    _same_universality(_inj_v_through_u(wedge_span()))
    # a search past the guard is refused alike
    square = pushout(*_data_span())
    refused = _outcome(verify_pushout_universal, square, None, 1)
    assert refused[0] == "raised" and refused == _outcome(old.verify_pushout_universal, square, None, 1)


@settings(max_examples=40, deadline=None)
@given(spans(), st.sampled_from(sorted(_BREAKAGES) + ["none"]), st.booleans())
def test_random_squares_are_universal_as_before(square, breakage, several):
    broken = square if breakage == "none" else _BREAKAGES[breakage](square)
    if broken is not None:
        _same_universality(broken, SEVERAL if several else SMALL)
