"""Differential tests for the square algebra on integers.

The functions below, up to the first strategy, are the name-based bodies
that ``make_square``, ``hcompose``, ``vcompose``, ``compose_array``,
``interchange_check``, ``commutative_cube_check`` and ``cube_glue`` had
before squares were composed as int tuples through the crossed module's
``XModView``.  They are kept verbatim as oracles, with an ``old_`` prefix
on each name and on the calls between them.  The library must give the
same squares, reports and cubes, and on bad input the same exception
class, text and witness.

``OldLabeledSquare`` is the frozen dataclass ``LabeledSquare`` was before
it became a NamedTuple, and ``old_to_xmod`` the body ``to_xmod`` had while
it pasted through the public ``vcompose``; both are kept as oracles.
``OLD_GLUE`` is the table ``old_cube_glue`` read, before the library's
table kept only the shared and free edges and ``cube_glue`` derived the
rest from them.

The old pastings took any 5-tuple; the library's read each square as
``make_square`` checks it.  So on squares ``make_square`` accepts the
library must agree with the old bodies, and on a square it rejects it
must fail with ``make_square``'s error for the first such square.
"""

import random
from dataclasses import dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit.core import (
    CompositionError,
    ValidationError,
    alternating_group,
    cyclic_group,
    finite_group,
    interval_groupoid,
    symmetric_group,
)
from gpdkit.dblgpd import (
    CUBE_EDGES,
    CubeReport,
    InterchangeReport,
    LabeledSquare,
    commutative_cube_check,
    compose_array,
    cube,
    cube_face,
    cube_glue,
    double_identity,
    from_xmod,
    hcompose,
    hidentity,
    interchange_check,
    make_square,
    perturb_cube,
    random_commutative_cube,
    random_cube_sharing,
    sample_grid,
    to_xmod,
    vcompose,
)
from gpdkit.xmod import CrossedModule, bundled_xmods, crossed_module, trivial_xmod, xmod_view
from test_cubes import CARRIER_MODULES


@dataclass(frozen=True)
class OldLabeledSquare:
    label: object
    top: object
    left: object
    right: object
    bottom: object


def old_to_xmod(d, name=""):
    """Recover a crossed module from the carrier: the fibre at ``x`` is the
    squares whose top, left, and bottom edges are identities, multiplied by
    vertical pasting; the boundary reads off the right edge; arrows act by
    sandwiching between horizontal identities."""
    xm = d.xm
    p = xm.p
    groups, mus, action = {}, {}, {}
    for x in p.objects:
        i = p.id_of[x]
        elems = tuple(s for s in d.by_left_top.get((i, i), ()) if s.bottom == i)
        table = {(s, t): vcompose(xm, s, t) for s in elems for t in elems}
        groups[x] = finite_group(
            elems, table, unit=double_identity(xm, x), name=f"fibre@{x!r}"
        )
        mus[x] = {s: s.right for s in elems}
    for a in p.arrows:
        x = p.src[a]
        before = hidentity(xm, p.inverse(a))
        after = hidentity(xm, a)
        for s in groups[x].elements:
            action[(s, a)] = vcompose(xm, vcompose(xm, before, s), after)
    return CrossedModule(
        p=p, m=groups, mu=mus, action=action, name=name or f"recovered({xm.name})"
    )


def old_boundary_word(xm, s):
    """The clockwise boundary loop at the bottom-right corner.  The edges
    of ``s`` must frame a square, as ``make_square`` checks."""
    comp, inv = xm.p.comp, xm.p.inv
    return comp[(comp[(inv[s.bottom], inv[s.left])], comp[(s.top, s.right)])]


def old_make_square(xm, label, top, left, right, bottom):
    """Validated square: edges must frame a square, and the label's boundary
    must equal the boundary loop."""
    p = xm.p
    for e in (top, left, right, bottom):
        if e not in p.src:
            raise ValidationError("unknown edge", witness=e)
    if p.src[top] != p.src[left]:
        raise ValidationError("top and left must share their source", witness=(top, left))
    if p.tgt[top] != p.src[right]:
        raise ValidationError("right must start where top ends", witness=(top, right))
    if p.tgt[left] != p.src[bottom]:
        raise ValidationError("bottom must start where left ends", witness=(left, bottom))
    if p.tgt[right] != p.tgt[bottom]:
        raise ValidationError("right and bottom must share their target", witness=(right, bottom))
    base = p.tgt[bottom]
    if label not in xm.m[base].elements:
        raise ValidationError("label outside the fibre group", witness=(label, base))
    s = LabeledSquare(label=label, top=top, left=left, right=right, bottom=bottom)
    want = old_boundary_word(xm, s)
    if xm.mu[base][label] != want:
        raise ValidationError(
            "label boundary does not match the square boundary",
            witness=(label, xm.mu[base][label], want),
        )
    return s


def old_hcompose(xm, s1, s2):
    """Paste ``s2`` onto the right edge of ``s1``."""
    if s1.right != s2.left:
        raise CompositionError(
            f"squares do not compose horizontally: {s1.right!r} vs {s2.left!r}"
        )
    p = xm.p
    base = xm.m[p.tgt[s2.bottom]]
    label = base.mul(xm.act(s1.label, s2.bottom), s2.label)
    return LabeledSquare(
        label=label,
        top=p.compose(s1.top, s2.top),
        left=s1.left,
        right=s2.right,
        bottom=p.compose(s1.bottom, s2.bottom),
    )


def old_vcompose(xm, s1, s2):
    """Paste ``s2`` onto the bottom edge of ``s1``."""
    if s1.bottom != s2.top:
        raise CompositionError(
            f"squares do not compose vertically: {s1.bottom!r} vs {s2.top!r}"
        )
    p = xm.p
    base = xm.m[p.tgt[s2.bottom]]
    label = base.mul(s2.label, xm.act(s1.label, s2.right))
    return LabeledSquare(
        label=label,
        top=s1.top,
        left=p.compose(s1.left, s2.left),
        right=p.compose(s1.right, s2.right),
        bottom=s2.bottom,
    )


def old_interchange_check(xm, s11, s12, s21, s22):
    """Compare the two evaluation orders of a 2x2 grid::

        s11 s12
        s21 s22
    """
    rows = old_vcompose(xm, old_hcompose(xm, s11, s12), old_hcompose(xm, s21, s22))
    cols = old_hcompose(xm, old_vcompose(xm, s11, s21), old_vcompose(xm, s12, s22))
    return InterchangeReport(ok=rows == cols, row_first=rows, column_first=cols)


def old_compose_array(xm, grid, order="rows"):
    """Fold a rectangular grid of squares, rows first or columns first."""
    if not grid or any(len(row) != len(grid[0]) for row in grid):
        raise ValidationError("grid must be rectangular and nonempty")
    if order == "rows":
        strips = []
        for row in grid:
            strip = row[0]
            for s in row[1:]:
                strip = old_hcompose(xm, strip, s)
            strips.append(strip)
        out = strips[0]
        for strip in strips[1:]:
            out = old_vcompose(xm, out, strip)
        return out
    if order == "columns":
        strips = []
        for j in range(len(grid[0])):
            strip = grid[0][j]
            for i in range(1, len(grid)):
                strip = old_vcompose(xm, strip, grid[i][j])
            strips.append(strip)
        out = strips[0]
        for strip in strips[1:]:
            out = old_hcompose(xm, out, strip)
        return out
    raise ValidationError("order must be 'rows' or 'columns'", witness=order)


def old_face_commutes(group, quad):
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
        if not old_face_commutes(group, cube_face(c, name))
    )
    top = cube_face(c, "top")
    if bad:
        return CubeReport(ok=False, failing_faces=bad, composite=None, top_face=top)
    xm = trivial_xmod(group)
    one = xm.m["*"].unit
    e = group.unit
    inv = group.inv

    def cs(left, top_, bottom, right):
        return old_make_square(xm, one, top_, left, right, bottom)

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
    folded = old_compose_array(xm, grid, "rows")
    composite = (folded.left, folded.top, folded.bottom, folded.right)
    ok = composite == top and old_face_commutes(group, top)
    return CubeReport(ok=ok, failing_faces=(), composite=composite, top_face=top)


OLD_GLUE = {
    "v": {
        "shared": (
            ("bottom_left", "top_left"),
            ("bottom_back", "top_back"),
            ("bottom_front", "top_front"),
            ("bottom_right", "top_right"),
        ),
        "first": ("top_left", "top_back", "top_front", "top_right"),
        "second": ("bottom_left", "bottom_back", "bottom_front", "bottom_right"),
        "composed": ("back_left", "back_right", "front_left", "front_right"),
        "free": ("back_left", "back_right", "front_left", "front_right"),
    },
    "h": {
        "shared": (
            ("back_right", "back_left"),
            ("front_right", "front_left"),
            ("top_right", "top_left"),
            ("bottom_right", "bottom_left"),
        ),
        "first": ("back_left", "front_left", "top_left", "bottom_left"),
        "second": ("back_right", "front_right", "top_right", "bottom_right"),
        "composed": ("top_back", "top_front", "bottom_back", "bottom_front"),
        "free": ("back_right", "front_right", "top_back", "top_front"),
    },
    "d": {
        "shared": (
            ("front_left", "back_left"),
            ("front_right", "back_right"),
            ("top_front", "top_back"),
            ("bottom_front", "bottom_back"),
        ),
        "first": ("back_left", "back_right", "top_back", "bottom_back"),
        "second": ("front_left", "front_right", "top_front", "bottom_front"),
        "composed": ("top_left", "top_right", "bottom_left", "bottom_right"),
        "free": ("front_left", "front_right", "top_left", "top_front"),
    },
}


def old_cube_glue(group, c1, c2, direction):
    """Glue two cubes along a shared face: ``v`` stacks ``c2`` below,
    ``h`` puts it to the right, ``d`` puts it in front."""
    if direction not in OLD_GLUE:
        raise ValidationError("direction must be 'v', 'h', or 'd'", witness=direction)
    rule = OLD_GLUE[direction]
    for e1, e2 in rule["shared"]:
        if getattr(c1, e1) != getattr(c2, e2):
            raise CompositionError(
                f"cubes do not glue: {e1}={getattr(c1, e1)!r} vs {e2}={getattr(c2, e2)!r}"
            )
    edges = {}
    for e in rule["first"]:
        edges[e] = getattr(c1, e)
    for e in rule["second"]:
        edges[e] = getattr(c2, e)
    for e in rule["composed"]:
        edges[e] = group.mul(getattr(c1, e), getattr(c2, e))
    return cube(group, **edges)


# ------------------------------------------------------------------ helpers


def outcome(fn, *args):
    """The value, or the exception's class, text and witness."""
    try:
        return ("value", fn(*args))
    except (CompositionError, ValidationError) as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None))


def message(result):
    """An outcome's error text up to its first colon, or "value"."""
    return "value" if result[0] == "value" else result[1].split(":")[0]


def reordered_interval_xmod():
    """c2 at both ends of the interval, listed 0 1 at object 0 and 1 0 at
    object 1, with the trivial action and boundary: the arrows between the
    objects act by a map that is the identity on names but not on
    indexes."""
    p = interval_groupoid()
    c2 = cyclic_group(2)
    c2_reordered = finite_group((1, 0), c2.table, unit=0, name="c2'")
    return crossed_module(
        p,
        {0: c2, 1: c2_reordered},
        {x: {m: p.id_of[x] for m in (0, 1)} for x in p.objects},
        {(m, a): m for m in (0, 1) for a in p.arrows},
        name="c2-over-interval-reordered",
    )


# Every bundled module, modules over a two- and a three-object base, one
# whose fibres list their elements in different orders, and one whose
# base was ``replace``d, so it keeps no view.
MODULES = {
    name: CARRIER_MODULES[name]
    for name in (*bundled_xmods(), "interval", "two-object", "three-object", "replaced-auts3")
}
MODULES["interval-reordered"] = reordered_interval_xmod()
CARRIERS = {name: from_xmod(xm) for name, xm in MODULES.items()}
NAMES = sorted(MODULES)
SETTINGS = settings(max_examples=60, deadline=None)


def _labels(xm):
    """Every fibre element of ``xm``, then a name that is in no fibre."""
    out = []
    for x in xm.p.objects:
        out += [m for m in xm.m[x].elements if m not in out]
    return out + ["stray"]


# ------------------------------------------------------------------ squares


@SETTINGS
@given(
    name=st.sampled_from(NAMES),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
)
def test_grids_fold_to_the_same_square_both_ways(name, seed, rows, cols):
    xm, d = MODULES[name], CARRIERS[name]
    grid = sample_grid(d, random.Random(seed), rows, cols)
    for order in ("rows", "columns"):
        assert compose_array(xm, grid, order) == old_compose_array(xm, grid, order)
    for row in grid:
        for s1, s2 in zip(row, row[1:]):
            assert hcompose(xm, s1, s2) == old_hcompose(xm, s1, s2)
    for upper, lower in zip(grid, grid[1:]):
        for s1, s2 in zip(upper, lower):
            assert vcompose(xm, s1, s2) == old_vcompose(xm, s1, s2)
    if rows > 1 and cols > 1:
        quad = (grid[0][0], grid[0][1], grid[1][0], grid[1][1])
        assert interchange_check(xm, *quad) == old_interchange_check(xm, *quad)
    s = grid[-1][-1]
    fields = (s.label, s.top, s.left, s.right, s.bottom)
    assert make_square(xm, *fields) == old_make_square(xm, *fields) == s


@SETTINGS
@given(name=st.sampled_from(NAMES), data=st.data())
def test_bad_squares_fail_with_the_same_text_and_witness(name, data):
    """Edges drawn freely mostly fail to frame a square; labels drawn from
    every fibre, and one from none, mostly sit outside the corner's fibre
    or have the wrong boundary."""
    xm = MODULES[name]
    arrows = st.sampled_from((*xm.p.arrows, "nope"))
    args = (
        data.draw(st.sampled_from(_labels(xm))),
        data.draw(arrows), data.draw(arrows), data.draw(arrows), data.draw(arrows),
    )
    assert outcome(make_square, xm, *args) == outcome(old_make_square, xm, *args)


def test_each_make_square_failure_is_reached_with_the_old_text():
    # The interval part has arrows between objects, so every endpoint
    # check can fail.
    xm = MODULES["three-object"]
    seen = set()
    labels = _labels(xm)
    arrows = (*xm.p.arrows, "nope")
    rng = random.Random(17)
    for _ in range(4000):
        args = (rng.choice(labels), *(rng.choice(arrows) for _ in range(4)))
        got = outcome(make_square, xm, *args)
        assert got == outcome(old_make_square, xm, *args)
        seen.add(message(got))
    assert seen == {
        "value",
        "unknown edge",
        "top and left must share their source",
        "right must start where top ends",
        "bottom must start where left ends",
        "right and bottom must share their target",
        "label outside the fibre group",
        "label boundary does not match the square boundary",
    }


@SETTINGS
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2**32 - 1))
def test_pastings_that_do_not_line_up_fail_the_same_way(name, seed):
    xm, d = MODULES[name], CARRIERS[name]
    rng = random.Random(seed)
    s1, s2 = rng.choice(d.squares), rng.choice(d.squares)
    for new, old in ((hcompose, old_hcompose), (vcompose, old_vcompose)):
        assert outcome(new, xm, s1, s2) == outcome(old, xm, s1, s2)
    quad = [rng.choice(d.squares) for _ in range(4)]
    assert outcome(interchange_check, xm, *quad) == outcome(old_interchange_check, xm, *quad)
    grid = [[rng.choice(d.squares) for _ in range(2)] for _ in range(2)]
    for order in ("rows", "columns", "diagonal"):
        assert outcome(compose_array, xm, grid, order) == outcome(
            old_compose_array, xm, grid, order
        )


def make_square_first(xm, squares, old, *args):
    """``make_square``'s outcome on the first of ``squares`` it rejects,
    else the outcome of ``old`` on ``args``."""
    for s in squares:
        got = outcome(make_square, xm, *s)
        if got[0] != "value":
            return got
    return outcome(old, xm, *args)


@SETTINGS
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_square_make_square_rejects_fails_every_pasting_as_make_square_does(
    name, seed, data
):
    """A composable 2x2 grid from the carrier with some cells replaced by
    5-tuples: a label from any fibre, or from none, and four base arrows,
    drawn freely or lined up with the cells to the left and above."""
    xm, d = MODULES[name], CARRIERS[name]
    grid = sample_grid(d, random.Random(seed), 2, 2)
    cells = data.draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]), unique=True))
    labels, arrows = st.sampled_from(_labels(xm)), st.sampled_from(xm.p.arrows)
    for i, j in sorted(cells):
        s = LabeledSquare(data.draw(labels), *(data.draw(arrows) for _ in range(4)))
        if data.draw(st.booleans()):
            s = s._replace(left=grid[i][j - 1].right) if j else s
            s = s._replace(top=grid[i - 1][j].bottom) if i else s
        grid[i][j] = s
    (a, b), (c, e) = grid
    for new, old, pair in (
        (hcompose, old_hcompose, (a, b)), (hcompose, old_hcompose, (c, e)),
        (vcompose, old_vcompose, (a, c)), (vcompose, old_vcompose, (b, e)),
    ):
        assert outcome(new, xm, *pair) == make_square_first(xm, pair, old, *pair)
    for order in ("rows", "columns"):
        assert outcome(compose_array, xm, grid, order) == make_square_first(
            xm, (a, b, c, e), old_compose_array, grid, order
        )
    assert outcome(interchange_check, xm, a, b, c, e) == make_square_first(
        xm, (a, b, c, e), old_interchange_check, a, b, c, e
    )


@pytest.mark.parametrize("name", ["interval", "interval-reordered"])
def test_hand_built_squares_that_do_not_frame_fail_as_make_square_does(name):
    """Squares built without ``make_square``, with labels from either fibre,
    whose shared edges agree.  The old pastings gave a value or failed in
    the base's composition; now each pasting fails as ``make_square`` fails
    on its first bad square, and pastes as before when both are squares.
    Each framing check is met; in the interval every loop is an identity,
    so every framed square's label has the right boundary."""
    xm = MODULES[name]
    p = xm.p
    seen = set()
    rng = random.Random(23)
    for _ in range(600):
        s1, s2 = (LabeledSquare(rng.choice((0, 1)), *(rng.choice(p.arrows) for _ in range(4)))
                  for _ in range(2))
        s2 = s2._replace(left=s1.right, top=s1.bottom)
        for new, old in ((hcompose, old_hcompose), (vcompose, old_vcompose)):
            got = outcome(new, xm, s1, s2)
            assert got == make_square_first(xm, (s1, s2), old, s1, s2)
            seen.add(message(got))
    assert seen == {
        "value",
        "top and left must share their source",
        "right must start where top ends",
        "bottom must start where left ends",
        "right and bottom must share their target",
    }


def test_a_fold_reports_an_error_inside_a_strip_before_one_between_strips():
    """Two valid strips that do not paste onto each other, then a third
    strip that is not valid: rows of a 3x2 grid folded rows first, and
    columns of a 2x3 grid folded columns first."""
    seen = set()
    for name in ("a3s3", "auts3", "two-object", "interval-reordered"):
        xm, d = MODULES[name], CARRIERS[name]
        rng = random.Random(29)
        for _ in range(40):
            rows = [sample_grid(d, rng, 1, 2)[0], sample_grid(d, rng, 1, 2)[0]]
            rows.append([rng.choice(d.squares), rng.choice(d.squares)])
            columns = [sample_grid(d, rng, 2, 1), sample_grid(d, rng, 2, 1)]
            columns.append([[rng.choice(d.squares)], [rng.choice(d.squares)]])
            by_columns = [[column[i][0] for column in columns] for i in range(2)]
            for grid, order in ((rows, "rows"), (by_columns, "columns")):
                got = outcome(compose_array, xm, grid, order)
                assert got == outcome(old_compose_array, xm, grid, order)
                seen.add((order, message(got)))
    # Each order met both the error inside a strip and the one between.
    assert {
        ("rows", "squares do not compose horizontally"),
        ("rows", "squares do not compose vertically"),
        ("columns", "squares do not compose horizontally"),
        ("columns", "squares do not compose vertically"),
    } <= seen


def test_a_mismatched_pasting_keeps_its_message():
    xm = MODULES["c2"]
    s = make_square(xm, 0, 0, 1, 1, 0)
    t = make_square(xm, 0, 1, 0, 0, 1)
    assert outcome(vcompose, xm, s, t) == (
        CompositionError, "squares do not compose vertically: 0 vs 1", None
    )
    assert outcome(hcompose, xm, t, s) == (
        CompositionError, "squares do not compose horizontally: 0 vs 1", None
    )
    assert outcome(compose_array, xm, [[s], []]) == outcome(old_compose_array, xm, [[s], []])


# -------------------------------------------------------------------- cubes

CUBE_GROUPS = {"s3": symmetric_group(3), "c7": cyclic_group(7), "a4": alternating_group(4)}


@SETTINGS
@given(
    name=st.sampled_from(sorted(CUBE_GROUPS)),
    seed=st.integers(0, 2**32 - 1),
    edge=st.sampled_from(CUBE_EDGES),
    direction=st.sampled_from(("v", "h", "d")),
    data=st.data(),
)
def test_random_and_perturbed_cubes_get_the_old_report(name, seed, edge, direction, data):
    group = CUBE_GROUPS[name]
    rng = random.Random(seed)
    c = random_commutative_cube(group, rng)
    broken = perturb_cube(c, edge, data.draw(st.sampled_from(group.elements)))
    for d in (c, broken):
        assert commutative_cube_check(group, d) == old_commutative_cube_check(group, d)
    partner = random_cube_sharing(group, rng, c, direction)
    glued = cube_glue(group, c, partner, direction)
    assert glued == old_cube_glue(group, c, partner, direction)
    assert commutative_cube_check(group, glued) == old_commutative_cube_check(group, glued)
    assert commutative_cube_check(group, glued).ok
    assert outcome(cube_glue, group, broken, partner, direction) == outcome(
        old_cube_glue, group, broken, partner, direction
    )



# ------------------------------------------------------------------ carriers


@pytest.mark.parametrize("name", NAMES)
def test_squares_print_and_hash_as_the_frozen_dataclass_did(name):
    """Every carrier square has the old type's repr, str, hash and field
    order, so witnesses, set and dict orders and reports do not move; it
    also equals its plain tuple, which the old type did not."""
    assert LabeledSquare._fields == tuple(f.name for f in fields(OldLabeledSquare))
    for s in CARRIERS[name].squares:
        old = OldLabeledSquare(*s)
        assert "Old" + repr(s) == repr(old) and "Old" + str(s) == str(old)
        assert hash(s) == hash(old)
        assert tuple(s) == tuple(getattr(old, f) for f in s._fields)
        assert s == tuple(s) and old != tuple(s)
        assert s._replace(label=s.label) == s


@pytest.mark.parametrize("name", NAMES)
def test_to_xmod_recovers_what_the_vcompose_body_did(name):
    """The recovered fibres list the same squares with the same tables, and
    the boundaries and actions agree entry by entry and in order.  The
    recovered squares are the carrier's own objects."""
    d = CARRIERS[name]
    new, old = to_xmod(d), old_to_xmod(d)
    assert new == old and new.name == old.name
    carrier = {id(s) for s in d.squares}
    for x in d.xm.p.objects:
        gn, go = new.m[x], old.m[x]
        assert gn.elements == go.elements and gn.unit == go.unit and gn.name == go.name
        assert list(gn.table.items()) == list(go.table.items())
        assert {id(s) for s in gn.table.values()} <= carrier
        assert list(new.mu[x].items()) == list(old.mu[x].items())
    assert list(new.action.items()) == list(old.action.items())
    assert {id(s) for s in new.action.values()} <= carrier


@pytest.mark.parametrize("name", NAMES)
def test_to_xmod_keeps_the_view_it_computed(name):
    """The recovered module keeps the view its fibre tables and action were
    computed on, equal to the view read afresh from a ``replace``d copy."""
    recovered = to_xmod(CARRIERS[name])
    fresh = xmod_view(replace(recovered))
    assert recovered._view is not None and recovered._view == fresh


def test_to_xmod_of_a_lawless_carrier_fails_as_the_vcompose_body_did():
    """A boundary that is not a homomorphism pastes two fibre squares to
    one off the carrier; the recovered table leaves the fibre, with the
    same witness."""
    c4 = cyclic_group(4)
    xm = crossed_module(
        MODULES["c4c2"].p,
        {"*": c4},
        {"*": {0: 0, 1: 1, 2: 1, 3: 1}},
        {(m, a): m for m in c4.elements for a in (0, 1)},
    )
    d = from_xmod(xm)
    want = outcome(old_to_xmod, d)
    assert want[:2] == (ValidationError, "table leaves the carrier")
    assert outcome(to_xmod, d) == want
