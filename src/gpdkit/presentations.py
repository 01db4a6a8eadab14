"""Groupoid presentations: quivers, words, relations, and pushouts.

A word is a composable chain of signed edges of a quiver, read left to
right.  A ``Word`` is the slotted tuple ``(src, tgt, letters)``, built
positionally on the hot paths; its ``repr``, ``str`` and ``hash`` are
those of the frozen dataclass it once was, but it equals the plain
3-tuple of its fields and unpacks and orders like a tuple.  Relations
are coterminal pairs of words.  Free reduction (cancel adjacent
``e e^-1`` pairs) computes the unique normal form in the free groupoid
on a quiver.

A quiver is validated on first read, then kept: ``Quiver.validate``
reads it into integers, the view ``(vpos, epos, src, tgt)``: the index of
each vertex and each edge, and each edge's end vertex indexes as int
rows.  A letter is a signed edge index, ``j`` for edge j and ``~j`` for
its reverse.  A signed index reads off any table laid out as ``forward +
reversed(backward)``, as ``_letter_table`` lays out the named letters, so
``table[j]`` is edge j and ``table[~j]`` its reverse.  ``_incidence``
builds each vertex's incident letters from the end rows, ``j`` for edge
j leaving it and ``~j`` for edge j entering it (a loop once, as ``j``);
``spanning_tree`` walks them and keeps parent pointers, roots and
tree-edge flags as int arrays.

Every named word the library checks is read by one reader, ``_read``:
in one pass over its letters, each looked up on the checked quiver's view
and chained to the one before, into the vertex indexes it runs between,
its signed edge indexes and its letters with normalised signs.  The first
bad letter raises, in letter order.  ``word`` is what it reads;
``_check_word`` reads a given word, compares it with what it read, and
hands the indexes back.  ``_named`` turns a row read elsewhere back into
a ``Word``, once, at the end.  So are
presentations validated and kept, keeping each relation as its base
vertex index and its relator ``lhs rhs^-1`` in signed edge indexes, which
``vertex_group_presentation`` retracts and names at the end; and their
morphisms, keeping their target's checked quiver and each edge image's
start vertex index and row once source, target and images pass.  Every
reader validates first, so a lawless value is refused with ``validate``'s
error and a checked one is not walked again; the parser and
``vankampen._presented``, which read each word into integers as they
build it, keep the view at once, and so do ``pushout`` and
``_morphism_on``, which build their rows from checked rows.

Morphisms of presentations send vertices to vertices and each generating
edge to a *word* of the target; that generality is what inclusion-induced
maps between fundamental groupoids need.  Pushouts are computed at the
presentation level: disjoint union, identify image vertices, add one
relation ``f(e) = g(e)`` per generator of the common source; the apex's
relator rows are the legs' rows renumbered, and no word is read back.

Every Hom count is one staged search.  ``_vertex_plans`` gives each
vertex map its generators' candidates, the arrows between the images of
their ends, and is the one place the guard counts them: past it the search
refuses with ``SizeGuardExceeded`` and "presentation morphism search
needs more than {guard} candidates".  ``_search`` stages solved steps and
checks at the generators they wait for and walks them in lazy runs
``(vertex images, iterator of assignments)``, depth first, the first
failing check pruning; generators with nothing to solve or check are one
``product``, in C.  A presentation's edges are its generators, on names,
each kept relator row checked at its last edge; ``enumerate_pres_morphisms``
reads the runs out as keys ``(vertex images, edge images)``, and a
presentation morphism compiles its image rows once into a map restricting
them.  Functors and group homomorphisms run on the IndexViews' integers:
the generators the source's view keeps, a breadth-first tree's arrows as
solved steps and its off-tree pairs as checks, so a search into a group H
examines |H|^k candidates for k generators.
"""

from __future__ import annotations

from collections import Counter, _tuplegetter, deque
from dataclasses import dataclass, field, fields
from itertools import chain, compress, groupby, product, repeat
from math import prod
from operator import itemgetter

from .core import (
    DEFAULT_SIZE_GUARD,
    GroupoidMorphism,
    SizeGuardExceeded,
    ValidationError,
    from_group,
    index_view,
    skeleton_components,
)


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    edges: tuple
    esrc: dict
    etgt: dict
    # ``(vpos, epos, src, tgt)``, read into integers by the
    # check (see the module docstring); raw and ``replace``d quivers start
    # without it.
    _view: tuple = field(default=None, init=False, compare=False, repr=False)

    def validate(self):
        if self._view is not None:
            return self
        vertices, edges = self.vertices, self.edges
        vpos = {v: i for i, v in enumerate(vertices)}
        if len(vpos) != len(vertices):
            raise ValidationError("duplicate vertices", witness=vertices)
        epos = {e: j for j, e in enumerate(edges)}
        if len(epos) != len(edges):
            raise ValidationError("duplicate edges", witness=edges)
        esrc, etgt = self.esrc, self.etgt
        src, tgt = [], []
        for e in edges:
            try:
                s, t = vpos.get(esrc.get(e, _ANY)), vpos.get(etgt.get(e, _ANY))
            except TypeError:  # an unhashable end is no vertex
                s = None
            if s is None or t is None:
                raise ValidationError("edge with bad endpoints", witness=e)
            src.append(s)
            tgt.append(t)
        object.__setattr__(self, "_view", (vpos, epos, src, tgt))
        return self

    def letter_src(self, letter):
        e, s = letter
        return self.esrc[e] if s > 0 else self.etgt[e]

    def letter_tgt(self, letter):
        e, s = letter
        return self.etgt[e] if s > 0 else self.esrc[e]


def quiver(vertices, edges):
    """Build a quiver from ``(edge, src, tgt)`` triples."""
    vertices = tuple(vertices)
    ids = tuple(e for e, _, _ in edges)
    esrc = {e: s for e, s, _ in edges}
    etgt = {e: t for e, _, t in edges}
    return Quiver(vertices=vertices, edges=ids, esrc=esrc, etgt=etgt).validate()


class Word(tuple):
    """A composable chain of signed edges, the tuple ``(src, tgt,
    letters)``; ``letters`` is a tuple of ``(edge, +1|-1)`` pairs.  The
    empty word carries its base vertex.

    A Word is an immutable, slotted tuple.  Its ``repr``, ``str`` and
    ``hash`` are those of the frozen dataclass it once was, and ``len``
    counts its letters.  As a tuple it unpacks, indexes and orders as
    ``(src, tgt, letters)``, and it equals the plain 3-tuple, and any
    instance of a subclass, with the same fields."""

    __slots__ = ()

    # The C field readers ``collections.namedtuple`` uses.
    src = _tuplegetter(0, "The vertex the word starts at.")
    tgt = _tuplegetter(1, "The vertex the word ends at.")
    letters = _tuplegetter(2, "The ``(edge, sign)`` letters, in order.")

    def __new__(cls, src, tgt, letters):
        return tuple.__new__(cls, (src, tgt, letters))

    def __getnewargs__(self):  # for ``copy`` and ``pickle``
        return tuple(self)

    def __repr__(self):
        src, tgt, letters = self
        return f"{type(self).__qualname__}(src={src!r}, tgt={tgt!r}, letters={letters!r})"

    def __len__(self):
        return len(self.letters)

    def is_empty(self):
        return not self.letters

    def inverse(self):
        return Word(self.tgt, self.src, tuple((e, -s) for e, s in reversed(self.letters)))

    def concat(self, other):
        if self.tgt != other.src:
            raise ValidationError(
                "words do not concatenate", witness=(self.tgt, other.src)
            )
        return Word(self.src, other.tgt, self.letters + other.letters)


def empty_word(v):
    return Word(v, v, ())


_ANY = object()  # the end of an edge that ``esrc`` or ``etgt`` lacks
_INVERSE = object()  # the key of the inverse's row in a table read by name


def _read(q, letters, at=None):
    """The named ``letters`` over quiver ``q``, read in one pass into
    ``(src, tgt, row, letters)`` on the checked quiver's view: the indexes
    of the vertices the word runs between, its letters as signed edge
    indexes, and its letters with their signs normalised by ``int``.  The
    first letter that is malformed (no ``(edge, sign)`` pair, an edge not
    in ``q.edges``, a sign other than 1 or -1) or does not start where the
    letters before it end raises; no letters read as the empty word at the
    vertex ``at``, which None never is."""
    letters = tuple(letters)
    if not letters:
        try:
            i = None if at is None else q.validate()._view[0].get(at)
        except TypeError:  # at, or a vertex of a raw q, is unhashable
            i = q.vertices.index(at) if at in q.vertices else None
        if i is None:
            raise ValidationError("empty word needs a vertex", witness=at)
        return i, i, (), ()
    _, epos, src, tgt = q.validate()._view
    row, normal = [], []
    for i, letter in enumerate(letters):
        try:
            e, s = letter
            if s.__class__ is not int:  # an int is its own normal form
                s = int(s)
        except (TypeError, ValueError):
            raise ValidationError("malformed letter", witness=letter) from None
        try:
            j = epos[e]
        except (KeyError, TypeError):  # no edge of q, or unhashable
            raise ValidationError("malformed letter", witness=(e, s)) from None
        if s == 1:
            start, end = src[j], tgt[j]
        elif s == -1:
            start, end, j = tgt[j], src[j], ~j
        else:
            raise ValidationError("malformed letter", witness=(e, s))
        if not row:
            first = start
        elif start != here:
            raise ValidationError("letters do not chain", witness=(i, (e, s), q.vertices[here]))
        here = end
        row.append(j)
        normal.append((e, s))
    return first, here, tuple(row), tuple(normal)


def _named(q, src, tgt, row, letters=None):
    """The ``Word`` over ``q`` from vertex index ``src`` to ``tgt`` whose
    letters are the signed edge indexes ``row``, looked up in ``letters``
    (laid out by ``_letter_table``) when given."""
    names, edges = q.vertices, q.edges
    if letters is None:
        letters = [(edges[j], 1) if j >= 0 else (edges[~j], -1) for j in row]
    else:
        letters = map(letters.__getitem__, row)
    return Word(names[src], names[tgt], tuple(letters))


def word(q, letters, at=None):
    """Validated word over quiver ``q``; ``at`` places an empty word.
    Signs are normalised with ``int``, so ``("a", "1")`` reads as ``("a", 1)``."""
    src, tgt, _, letters = _read(q, letters, at)
    return Word(q.vertices[src], q.vertices[tgt], letters)


def _check_word(q, w, message, witness):
    """``(src, tgt, row)``, the word ``w`` read once over ``q``.  Raise
    ``ValidationError(message, witness)`` unless ``w`` is the word ``word``
    builds from its letters; a word ``word`` rejects raises ``word``'s own
    error."""
    src, tgt, row, letters = _read(q, w.letters, w.src)
    if (q.vertices[src], q.vertices[tgt], letters) != w:
        raise ValidationError(message, witness=witness)
    return src, tgt, row


def free_reduce(w):
    """Unique normal form: cancel adjacent ``(e,s)(e,-s)`` pairs."""
    return Word(w.src, w.tgt, _reduced(w.letters))


def _reduced(letters):
    """``letters`` freely reduced, in one stack pass."""
    stack = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _letter_table(edges):
    """The named letters of ``edges`` by signed index: ``(e, 1)`` at j and
    ``(e, -1)`` at ``~j`` for the j-th edge e, each built once."""
    return [(e, 1) for e in edges] + [(e, -1) for e in reversed(edges)]


def _identity(n):
    """The identity on the signed indexes of ``n`` edges, laid out by
    signed index."""
    return [*range(n), *range(-n, 0)]


def _retracted(row, keep):
    """The signed indexes of ``row`` sent through ``keep`` (laid out by
    signed index), those it sends to None dropped, freely reduced in one
    stack pass."""
    stack = []
    for j in row:
        k = keep[j]
        if k is None:
            continue
        if stack and stack[-1] == ~k:
            stack.pop()
        else:
            stack.append(k)
    return tuple(stack)


def count_reduced_words(q, x, k):
    """Number of reduced words with source ``x`` and length at most ``k``."""
    if x not in q.vertices:
        raise ValidationError("no such vertex", witness=x)
    letters = [(e, s) for e in q.edges for s in (1, -1)]
    total = 1  # the empty word
    frontier = {(x, None): 1}
    for _ in range(k):
        nxt = {}
        for (v, last), n in frontier.items():
            for letter in letters:
                if q.letter_src(letter) != v:
                    continue
                if last is not None and letter == (last[0], -last[1]):
                    continue
                key = (q.letter_tgt(letter), letter)
                nxt[key] = nxt.get(key, 0) + n
        total += sum(nxt.values())
        frontier = nxt
    return total


@dataclass(frozen=True)
class GroupoidPresentation:
    """A quiver plus coterminal word-pair relations."""

    quiver: Quiver
    relations: tuple
    # Each relation as ``(base vertex index, relator)``, the relator
    # ``lhs rhs^-1`` freely reduced, in signed edge indexes; kept once
    # every relation is checked over the quiver, which is then checked
    # too.  Raw and ``replace``d presentations start without it.
    _view: tuple = field(default=None, init=False, compare=False, repr=False)

    def validate(self):
        if self._view is not None:
            return self
        q = self.quiver.validate()
        identity = _identity(len(q.edges)) if self.relations else None
        rows = []
        for lhs, rhs in self.relations:
            a, b = (_check_word(q, w, "malformed relation word", w) for w in (lhs, rhs))
            if lhs.src != rhs.src or lhs.tgt != rhs.tgt:
                raise ValidationError(
                    "relation sides are not coterminal", witness=(lhs, rhs)
                )
            relator = a[2] + tuple(~j for j in reversed(b[2]))
            rows.append((a[0], _retracted(relator, identity)))
        object.__setattr__(self, "_view", tuple(rows))
        return self


def presentation(q, relations=()):
    return GroupoidPresentation(quiver=q, relations=tuple(relations)).validate()


@dataclass(frozen=True)
class PresentationMorphism:
    """Vertices to vertices, generators to words of the target."""

    source: GroupoidPresentation
    target: GroupoidPresentation
    vmap: dict
    emap: dict
    # ``(target quiver, images)``: the target's checked quiver and, per
    # source edge, its image's start vertex index and signed edge indexes,
    # kept once source, target and images pass; raw and ``replace``d
    # morphisms start without it.
    _view: tuple = field(default=None, init=False, compare=False, repr=False)

    def validate(self):
        if self._view is not None:
            return self
        sq, tq = self.source.validate().quiver, self.target.validate().quiver
        for v in sq.vertices:
            if self.vmap.get(v) not in tq.vertices:
                raise ValidationError("vertex image missing", witness=v)
        images = []
        for e in sq.edges:
            w = self.emap.get(e)
            if w is None:
                raise ValidationError("edge image missing", witness=e)
            start, _, row = _check_word(tq, w, "edge image is malformed", (e, w))
            if w.src != self.vmap[sq.esrc[e]] or w.tgt != self.vmap[sq.etgt[e]]:
                raise ValidationError(
                    "edge image has wrong endpoints", witness=(e, w)
                )
            images.append((start, row))
        object.__setattr__(self, "_view", (tq, tuple(images)))
        return self


def identity_morphism(p):
    q = p.validate().quiver
    return PresentationMorphism(
        source=p,
        target=p,
        vmap={v: v for v in q.vertices},
        emap={e: word(q, [(e, 1)]) for e in q.edges},
    )


def _evaluate(prog, vimg, eimg, t):
    """Value in groupoid ``t`` of the word ``prog``, its start vertex index
    and signed edge indexes, given the vertex and edge images of a morphism
    key."""
    start, row = prog
    out = t.id_of[vimg[start]]
    for j in row:
        out = t.comp[out, eimg[j] if j >= 0 else t.inv[eimg[~j]]]
    return out


def enumerate_pres_morphisms(p, t, guard=DEFAULT_SIZE_GUARD):
    """All relation-respecting assignments of ``p`` into groupoid ``t``, as
    keys ``(vertex images, edge images)`` aligned with ``p.quiver``'s
    vertices and edges, in canonical (vertex images, edge images) order:
    the blocks of ``_morphism_blocks``, each vertex image paired with every
    edge image of its block."""
    blocks = _morphism_blocks(p, t, guard)
    return list(chain.from_iterable(zip(repeat(v), eimgs) for v, eimgs in blocks))


def _morphism_blocks(p, t, guard=DEFAULT_SIZE_GUARD):
    """The runs of ``_morphism_runs`` that have a morphism, as blocks
    ``(vertex images, [edge images, ...])``."""
    return [(vimg, eimgs) for vimg, run in _morphism_runs(p, t, guard) if (eimgs := list(run))]


def _morphism_runs(p, t, guard=DEFAULT_SIZE_GUARD):
    """The morphisms of ``p`` into groupoid ``t`` as lazy runs ``(vertex
    images, iterator of edge images)``, one per vertex assignment (maybe
    yielding none), in canonical order; each call gives them afresh.

    The edges are the generators; a kept relator row solves its prefixes
    from the identity at its base vertex's image, an inverse letter from the
    inverse's row, and checks at its last edge that it comes back to that
    identity.  The search runs on names, reading ``t``'s table by name only
    for a check: integer keys were slower on the pushout benchmark (10-30%).
    """
    q = p.validate().quiver
    index_view(t)  # a lawless target is refused, not searched
    _, _, src, tgt = q._view
    n, m = len(q.edges), len(q.vertices)
    # the slots: the edges, each vertex's identity, the inverse's row key,
    # then each inverted letter and each prefix of a nonempty relator row
    image, steps, checks = [None] * (n + m) + [_INVERSE], [], []
    for base, row in filter(_second, p._view):
        y, at = n + base, 0
        for j in row:
            at = max(at, j if j >= 0 else ~j)
            if j < 0:  # solved at its edge's stage
                steps.append((~j, n + m, ~j, len(image)))
                j = len(image)
                image.append(None)
            steps.append((at, y, j, len(image)))
            y = len(image)
            image.append(None)
        checks.append((at, y, n + base, n + base))  # y then the identity is the identity
    rows = {_INVERSE: t.inv}
    for (a, b), c in t.comp.items() if checks else ():
        rows.setdefault(a, {})[b] = c
    plans = _vertex_plans(t.objects, t.arrows, t.src, t.tgt, m, list(zip(src, tgt)), guard)
    return _search(plans, n, steps, checks, range(n, n + m), image, slice(0, n), rows, t.id_of)


def _vertex_plans(objects, arrows, src, tgt, count, ends, guard):
    """``(vertex images, candidates)`` for each map of ``count`` vertices
    into ``objects``, in ``product`` order: for each edge, whose vertex
    positions are the pair in ``ends``, the ``arrows`` (in order) from the
    image of its source to the image of its target.  The guard counts the
    candidate assignments summed over the vertex maps and refuses past
    ``guard``."""
    between = {(x, y): [] for x in objects for y in objects}
    for a in arrows:
        between[src[a], tgt[a]].append(a)
    plans = []
    total = 0
    for vimg in product(objects, repeat=count):
        cands = [between[vimg[s], vimg[r]] for s, r in ends]
        total += prod(map(len, cands))
        if total > guard:
            raise SizeGuardExceeded(
                f"presentation morphism search needs more than {guard} candidates",
                total,
                guard,
            )
        plans.append((vimg, cands))
    return plans


def _search(plans, depth, steps, checks, ids, image, out, rows, units):
    """The runs ``(vertex images, iterator of assignments)`` of the search
    over ``depth`` generators, one per plan of ``_vertex_plans``.  Each of
    ``steps`` and ``checks`` is ``(stage, y, j, z)``, done once generator
    ``stage`` is assigned: a step sets slot z to slot y composed with slot
    j, a check prunes unless that composite is slot z's value.  A stage
    assigns its generators from one ``product``, so generators with nothing
    of their own join the next stage, and with nothing at all (a
    presentation without relators) the runs are ``product``'s tuples.  Each
    run walks its own copy of ``image``, depth first, seeding the identity
    ``units[x]`` at each vertex image x in the slots ``ids`` and yielding
    the slots ``out`` of each assignment passing every check."""
    staged = {}
    for i, ops in enumerate((steps, checks)):
        for k, *op in ops:
            staged.setdefault(k, ([], []))[i].append(op)
    if depth and not staged:
        return [(vimg, product(*cands)) for vimg, cands in plans]
    staged.setdefault(depth - 1, ([], []))  # the last stage takes every generator left
    stages, lo = [], 0
    for k in sorted(staged):
        stages.append((slice(lo, k + 1), *staged[k]))
        lo = k + 1

    def walk(vimg, cands):
        img = image.copy()
        for s, x in zip(ids, vimg):
            img[s] = units[x]
        level = [product(*cands[stages[0][0]])]  # the product read at each stage entered
        while level:
            cut, solve, check = stages[len(level) - 1]
            for img[cut] in level[-1]:
                for y, j, z in solve:
                    img[z] = rows[img[y]][img[j]]
                for y, j, z in check:
                    if rows[img[y]][img[j]] != img[z]:
                        break
                else:
                    if len(level) == len(stages):
                        yield tuple(img[out])
                        continue
                    level.append(product(*cands[stages[len(level)][0]]))
                    break
            else:
                level.pop()

    return [(vimg, walk(vimg, cands)) for vimg, cands in plans]


def _arrow_tree(v):
    """``(generators, steps, pairs)``: the breadth-first tree on the
    IndexView ``v`` of a finite groupoid, as indexes.

    The generators are the view's ``gens``, chosen greedily in arrow order
    when the table was read.  From the identities, each reached arrow y is
    composed with every generator s_k in order; an arrow z = y s_k reached
    first joins the tree with the word w_z = w_y s_k as the step
    ``(stage, z, y, k)``, and any other composable pair is the relation
    w_y s_k = w_z, the pair ``(stage, y, k, z)``.  Both come in the order
    reached, each staged at the last generator position its words use.
    """
    rows, gens = v.rows, v.gens
    stage = dict.fromkeys(v.units, -1)  # the identities' words are empty
    steps, pairs = [], []
    frontier = deque(v.units)
    while frontier:
        y = frontier.popleft()
        row, at = rows[y], stage[y]
        for k, s in enumerate(gens):
            z = row[s]
            if z < 0:
                continue
            if z in stage:
                pairs.append((max(at, k, stage[z]), y, k, z))
            else:
                stage[z] = max(at, k)
                steps.append((stage[z], z, y, k))
                frontier.append(z)
    return gens, steps, pairs


def _functor_rows(gv, tree, hv, guard):
    """Every functor between the groupoids read into IndexViews ``gv`` and
    ``hv``, as ``(object images, arrow images)`` of ``hv`` indexes aligned
    with ``gv.units`` and ``gv.items``, object maps in ``product`` order and
    arrow images in lexicographic order; ``tree`` is ``_arrow_tree(gv)``.

    ``_search`` assigns the tree's generators (slots before the arrows'),
    solves its steps and checks its off-tree pairs: by induction on word
    length each assignment passing every check is one functor.
    """
    gens, steps, pairs = tree
    d = len(gens)
    ends = [(gv.src[s], gv.tgt[s]) for s in gens]
    plans = _vertex_plans(
        range(len(hv.units)), range(len(hv.items)), hv.src, hv.tgt, len(gv.units), ends, guard
    )
    runs = _search(
        plans, d,
        [(k, d + y, j, d + z) for k, z, y, j in steps],
        [(k, d + y, j, d + z) for k, y, j, z in pairs],
        [d + u for u in gv.units], [None] * (d + len(gv.items)), slice(d, None), hv.rows, hv.units,
    )
    return [(vimg, img) for vimg, run in runs for img in run]


def enumerate_morphisms(g, h, guard=DEFAULT_SIZE_GUARD):
    """All functors ``g -> h`` in canonical (object map, arrow images) order.

    ``_functor_rows`` assigns images to the generators kept on ``g``'s
    IndexView, read with ``h``'s by ``index_view`` (which raises
    ValidationError on a groupoid that breaks a law), so the guard counts those
    assignments.  The generators are chosen greedily in arrow order, so
    every arrow listed before the k-th generator is a word in the earlier
    ones: assigning generator images in order lists the functors in the
    order of their arrow images.  Each functor is named once, its arrow map
    keyed by the identities, then the tree arrows as reached.
    """
    gv, hv = index_view(g), index_view(h)
    _, steps, _ = tree = _arrow_tree(gv)
    order = [*gv.units, *(z for _, z, _, _ in steps)]
    keys = [gv.items[a] for a in order]
    at, objects, arrows = _gather(order), h.objects, h.arrows
    return [
        GroupoidMorphism(
            obj_map=dict(zip(g.objects, map(objects.__getitem__, vimg))),
            arrow_map=dict(zip(keys, map(arrows.__getitem__, at(img)))),
        )
        for vimg, img in _functor_rows(gv, tree, hv, guard)
    ]


def _hom_rows(g, h, guard=DEFAULT_SIZE_GUARD):
    """``group_homs`` as rows of ``h`` indexes, for the callers that read
    the images on ``h``'s IndexView."""
    gv, hv = g.validate()._view, h.validate()._view
    return [img for _, img in _functor_rows(gv, _arrow_tree(gv), hv, guard)]


def group_homs(g, h, guard=DEFAULT_SIZE_GUARD):
    """Every homomorphism ``g -> h`` as an image tuple aligned with
    ``g.elements``, in lexicographic order of the tuples (an image ranks by
    its position in ``h.elements``): the functors between the one-object
    groupoids, found by ``_functor_rows`` on the groups' IndexViews, each
    row named once.  The generators of ``g`` are its view's ``gens``
    (``generating_set(g)`` names them), so the guard counts
    |h|^|generators| candidates.  Both groups are validated first."""
    names = h.elements
    return tuple(tuple(map(names.__getitem__, img)) for img in _hom_rows(g, h, guard))


def _gather(positions):
    """``xs -> tuple(xs[i] for i in positions)`` as an ``itemgetter``."""
    if len(positions) == 1:
        (i,) = positions
        return itemgetter(slice(i, i + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _restriction(f):
    """Compile ``f`` once: the map sending a groupoid ``t`` (a lawless one
    is refused) to the map sending a block (or a run) of morphisms out of
    ``f.target`` into ``t`` to the run ``(vertex images, iterable of edge
    images)`` of their composites with ``f``, in the same order.  Edge
    images are gathered by position when ``f`` sends every edge to a single
    positive edge, else each image word is evaluated in ``t`` per morphism.
    When the gather is the identity (the i-th edge to the i-th edge, every
    target edge covered), the block's own edge images are returned."""
    tq, images = f.validate()._view
    vpos = tq._view[0]
    vgather = _gather([vpos[f.vmap[v]] for v in f.source.quiver.vertices])
    positions = [row[0] for _, row in images if len(row) == 1 and row[0] >= 0]
    egather, same = _gather(positions), positions == list(range(len(tq.edges)))

    def along(t):
        index_view(t)  # a lawless target is refused, not searched
        if len(positions) < len(images):  # some image is a word
            return lambda block: (vgather(block[0]), (
                tuple(_evaluate(image, block[0], eimg, t) for image in images)
                for eimg in block[1]
            ))
        if same:
            return lambda block: (vgather(block[0]), block[1])
        return lambda block: (vgather(block[0]), map(egather, block[1]))

    return along


_second = itemgetter(1)


def _restricted(along, t, keys):
    """The keys ``keys`` of morphisms into ``t`` restricted, in order, by
    the compiled ``_restriction`` ``along``; each run of keys with the
    same vertex images passes through its map for ``t`` as one block."""
    restrict = along(t)
    out = []
    for vimg, run in groupby(keys, itemgetter(0)):
        v, eimgs = restrict((vimg, list(map(_second, run))))
        out.extend(zip(repeat(v), eimgs))
    return out


@dataclass(frozen=True)
class PushoutSquare:
    """A span W -> U, W -> V together with its computed pushout."""

    w: GroupoidPresentation
    u: GroupoidPresentation
    v: GroupoidPresentation
    f: PresentationMorphism
    g: PresentationMorphism
    apex: GroupoidPresentation
    inj_u: PresentationMorphism
    inj_v: PresentationMorphism


def pushout(f, g):
    """Pushout of presentations along a common source.

    Vertices of U and V are tagged apart and then identified along the
    images of W's vertices; one relation ``f(e) = g(e)`` is added per
    generator of W.  U's edges keep their signed indexes in the apex and
    V's follow, so the apex keeps the relator rows of U and V renumbered,
    then each ``f(e) g(e)^-1`` of the legs' image rows, reduced: the rows
    ``validate`` would read off the renamed relations, which are not read.
    """
    if f.source != g.source:
        raise ValidationError("span legs have different sources")
    (uq, uimages), (vq, vimages) = f.validate()._view, g.validate()._view
    w, u, v = f.source, f.target, g.target
    uvpos, _, usrc, utgt = uq._view
    vvpos, _, vsrc, vtgt = vq._view
    wvs = w.quiver.vertices
    nu, nue = len(uq.vertices), len(uq.edges)

    # U's vertex indexes, then V's after them, joined along W's vertices
    blocks = skeleton_components(
        range(nu + len(vq.vertices)),
        range(len(wvs)),
        [uvpos[f.vmap[x]] for x in wvs],
        [nu + vvpos[g.vmap[x]] for x in wvs],
    )
    at = [0] * (nu + len(vq.vertices))  # the apex vertex of each tagged one
    for k, block in enumerate(blocks):
        for i in block:
            at[i] = k
    uat, vat = at[:nu], at[nu:]
    # each block is named after its first tagged vertex
    vertices = tuple(
        f"u:{uq.vertices[i]}" if i < nu else f"v:{vq.vertices[i - nu]}" for i, *_ in blocks
    )
    uvname = dict(zip(uq.vertices, map(vertices.__getitem__, uat)))
    vvname = dict(zip(vq.vertices, map(vertices.__getitem__, vat)))
    edges = (*(f"u:{e}" for e in uq.edges), *(f"v:{e}" for e in vq.edges))
    ne = len(edges)
    srcs = [*map(uat.__getitem__, usrc), *map(vat.__getitem__, vsrc)]
    tgts = [*map(uat.__getitem__, utgt), *map(vat.__getitem__, vtgt)]
    q = Quiver(
        vertices=vertices,
        edges=edges,
        esrc=dict(zip(edges, map(vertices.__getitem__, srcs))),
        etgt=dict(zip(edges, map(vertices.__getitem__, tgts))),
    ).validate()

    relations, rows = [], []
    if u.relations or v.relations or w.quiver.edges:
        letters = _letter_table(edges)
        uletters = dict(zip(_letter_table(uq.edges), letters[:nue] + letters[2 * ne - nue :]))
        vletters = dict(zip(_letter_table(vq.edges), letters[nue : 2 * ne - nue]))

        def renamed(word, vname, lname):
            return Word(vname[word.src], vname[word.tgt], tuple(map(lname.__getitem__, word.letters)))

        relations += [(renamed(a, uvname, uletters), renamed(b, uvname, uletters)) for a, b in u.relations]
        relations += [(renamed(a, vvname, vletters), renamed(b, vvname, vletters)) for a, b in v.relations]
        relations += [
            (renamed(f.emap[e], uvname, uletters), renamed(g.emap[e], vvname, vletters))
            for e in w.quiver.edges
        ]
        vshift = [*range(nue, ne), *range(-ne, -nue)]  # V's signed indexes in the apex
        identity = _identity(ne)
        rows += [(uat[b], row) for b, row in u._view]
        rows += [(vat[b], tuple(map(vshift.__getitem__, row))) for b, row in v._view]
        rows += [
            (uat[b], _retracted(urow + tuple(~vshift[j] for j in reversed(vrow)), identity))
            for (b, urow), (_, vrow) in zip(uimages, vimages)
        ]
    apex = GroupoidPresentation(quiver=q, relations=tuple(relations))
    object.__setattr__(apex, "_view", tuple(rows))

    # each injection sends an edge to its one letter in the apex
    images = list(zip(srcs, zip(range(ne))))
    words = list(map(
        Word, map(vertices.__getitem__, srcs), map(vertices.__getitem__, tgts),
        zip(zip(edges, repeat(1))),
    ))
    inj_u, inj_v = (
        PresentationMorphism(source=p, target=apex, vmap=vmap, emap=dict(zip(pq.edges, words[cut])))
        for p, pq, vmap, cut in ((u, uq, uvname, slice(nue)), (v, vq, vvname, slice(nue, ne)))
    )
    object.__setattr__(inj_u, "_view", (q, tuple(images[:nue])))
    object.__setattr__(inj_v, "_view", (q, tuple(images[nue:])))
    return PushoutSquare(
        w=w, u=u, v=v, f=f, g=g, apex=apex, inj_u=inj_u, inj_v=inj_v
    )


def _morphism_on(source, target, vmap, images):
    """The morphism ``source -> target`` of checked presentations with the
    vertex map ``vmap`` whose edge images are ``images``, built to chain
    between the images of each edge's ends over the target's quiver: it
    keeps them as its view at once, each named once."""
    sq, tq = source.quiver, target.quiver
    letters = _letter_table(tq.edges)
    emap = {
        e: Word(vmap[sq.esrc[e]], vmap[sq.etgt[e]], tuple(map(letters.__getitem__, row)))
        for e, (_, row) in zip(sq.edges, images)
    }
    m = PresentationMorphism(source=source, target=target, vmap=vmap, emap=emap)
    object.__setattr__(m, "_view", (tq, tuple(images)))
    return m


@dataclass(frozen=True)
class TargetUniversality:
    target: str
    compatible_pairs: int
    apex_morphisms: int
    ok: bool
    witness: tuple = None


@dataclass(frozen=True)
class UniversalityReport:
    ok: bool
    per_target: tuple


def verify_pushout_universal(square, targets=None, guard=DEFAULT_SIZE_GUARD):
    """Exhaustively verify the pushout's universal property against finite
    targets: every compatible pair of morphisms out of U and V admits
    exactly one mediating morphism out of the apex.

    Every apex morphism restricts to exactly one pair (its composites with
    the two injections).  The morphisms out of V are indexed by their
    restriction to W, so each morphism out of U meets only the morphisms
    out of V it is compatible with.  Pairs are visited in the order of the
    morphisms out of U, then out of V, in lockstep with the apex morphisms'
    restrictions: when the two sequences are equal, each pair has exactly
    one mediator and the pairs exhaust the apex.  Only a target where they
    differ (another vertex order, or a broken square) counts the apex
    morphisms by their pair of restriction keys: the first pair without
    exactly one mediator is the witness, and when every pair has one, the
    pairs must also exhaust the apex morphisms ("count-mismatch").  Per
    target this costs O(|U| + |V| + |apex| + pairs) restrictions, where
    |X| counts the morphisms out of X.

    The verdict is relative to the supplied target battery, and says so.
    """
    from .core import battery

    for part in fields(square):
        getattr(square, part.name).validate()
    if targets is None:
        targets = battery()
    f, g, inj_u, inj_v = map(_restriction, (square.f, square.g, square.inj_u, square.inj_v))
    results = []
    all_ok = True
    for tname, t in targets.items():
        mors_u = enumerate_pres_morphisms(square.u, t, guard)
        mors_v = enumerate_pres_morphisms(square.v, t, guard)
        mors_p = enumerate_pres_morphisms(square.apex, t, guard)
        over_w = {}
        for kv, kw in zip(mors_v, _restricted(g, t, mors_v)):
            over_w.setdefault(kw, []).append(kv)
        # the compatible pairs, in order, as their U and V halves
        first, second = [], []
        for ku, kw in zip(mors_u, _restricted(f, t, mors_u)):
            kvs = over_w.get(kw, ())
            first += repeat(ku, len(kvs))
            second += kvs
        on_u, on_v = (_restricted(inj, t, mors_p) for inj in (inj_u, inj_v))
        pairs, ok, witness = len(first), True, None
        if first != on_u or second != on_v:
            mediators = Counter(zip(on_u, on_v))
            for ku, kv in zip(first, second):
                n = mediators[ku, kv]
                if n != 1:
                    ok, witness = False, (ku, kv, n)
                    break
            if ok and pairs != len(mors_p):
                ok, witness = False, ("count-mismatch", pairs, len(mors_p))
        results.append(
            TargetUniversality(
                target=tname,
                compatible_pairs=pairs,
                apex_morphisms=len(mors_p),
                ok=ok,
                witness=witness,
            )
        )
        all_ok = all_ok and ok
    return UniversalityReport(ok=all_ok, per_target=tuple(results))


@dataclass(frozen=True)
class GroupPresentation:
    """Generators and relator words ``((gen, sign), ...)`` for a group."""

    generators: tuple
    relators: tuple
    dropped_relations: tuple = ()

    def render(self):
        gens = ", ".join(str(g) for g in self.generators)
        rels = ", ".join(
            " ".join(f"{e}" if s > 0 else f"{e}^-1" for e, s in r) or "1"
            for r in self.relators
        )
        return f"<{gens} | {rels}>"


def spanning_tree(q, roots):
    """Breadth-first forest rooted at ``roots``, on the integer view of
    ``q``: ``(parent, root_of, tree)``, where ``parent[v]`` is the signed
    index of the tree letter that reaches vertex index v (None at a root
    and off the forest), ``root_of[v]`` the index of its root (-1 off the
    forest), and ``tree[j]`` is 1 on the tree edges.

    Roots are processed in vertex order, letters in incidence order (edges
    in input order, see the module docstring), so the forest (and
    everything built from it) is deterministic.  A root that is not a
    vertex raises "no such vertex".
    """
    return _forest(q, _incidence(q), roots)


def _incidence(q, edges=None):
    """Each vertex's incident letters on the checked view of ``q``, from
    every edge or, when given, from the edge indexes ``edges`` in their
    order."""
    vpos, _, src, tgt = q.validate()._view
    incident = [[] for _ in vpos]
    for j in range(len(src)) if edges is None else edges:
        s, t = src[j], tgt[j]
        incident[s].append(j)
        if t != s:
            incident[t].append(~j)
    return incident


def _forest(q, incident, roots):
    """``spanning_tree`` over the lists ``_incidence(q)`` built."""
    vpos, _, src, tgt = q._view
    try:
        order = sorted(set(map(vpos.__getitem__, roots)))
    except (KeyError, TypeError):  # a root that is no vertex, or unhashable
        stray = next(r for r in roots if r not in q.vertices)
        raise ValidationError("no such vertex", witness=stray) from None
    return _walk(incident, tgt + src[::-1], order)


def _walk(incident, far, order):
    """``spanning_tree``'s forest over ``incident`` from the root indexes
    ``order``, in order; ``far`` is the vertex each signed letter ends at."""
    parent = [None] * len(incident)
    root_of = [-1] * len(incident)
    tree = bytearray(len(far) // 2)
    for r in order:
        root_of[r] = r
    for v in order:  # grows as the walk reaches vertices
        r = root_of[v]
        for j in incident[v]:
            w = far[j]
            if root_of[w] < 0:
                root_of[w] = r
                parent[w] = j
                tree[j if j >= 0 else ~j] = 1
                order.append(w)
    return parent, root_of, tree


def vertex_group_presentation(p, x):
    """Present the vertex group of a presented groupoid at ``x``.

    Chooses a spanning tree of the component of ``x`` (breadth-first from
    the least vertex, edges in input order); generators are the non-tree
    edges, relators the relation words rewritten through the tree.
    Relations living on other components are dropped and reported in
    ``dropped_relations``.  A walk from ``x`` finds the component; it is
    walked again from its least vertex only when that is not ``x``, over
    the same incidence lists.
    ``p`` is validated first, so every relation is coterminal, and its
    kept relators are retracted as signed edge indexes and named at the
    end.
    """
    rows = p.validate()._view
    q, letters = p.quiver, None
    incident = _incidence(q)
    _, root_of, tree = _forest(q, incident, [x])  # keyed by the component
    root = root_of.index(max(root_of))  # the one root, least in its component
    if q.vertices[root] != x:
        _, root_of, tree = _forest(q, incident, [q.vertices[root]])
    src = q._view[2]
    keep = None  # the kept relators are reduced: only tree letters can go
    if any(tree):
        keep = _identity(len(tree))  # by signed index, None on the tree
        for j in compress(range(len(tree)), tree):
            keep[j] = keep[~j] = None
    generators = tuple(
        e for e, t, s in zip(q.edges, tree, src) if not t and root_of[s] >= 0
    )
    relators = []
    dropped = []
    for relation, (b, row) in zip(p.relations, rows):
        if root_of[b] < 0:
            dropped.append(relation)
            continue
        rel = row if keep is None else _retracted(row, keep)
        lhs, rhs = relation
        if rel and not rhs.letters and len(rel) == len(lhs.letters):
            relators.append(lhs.letters)  # nothing dropped: the side as it stands
        elif rel:
            letters = letters or _letter_table(q.edges)
            relators.append(tuple(map(letters.__getitem__, rel)))
    return GroupPresentation(
        generators=generators,
        relators=tuple(relators),
        dropped_relations=tuple(dropped),
    )


def free_loop_counts(gp, kmax):
    """Reduced-word counts (length <= k, k = 0..kmax) in the free group on
    ``gp.generators``; requires a relator-free presentation.

    In the free group of rank r there is one reduced word of length 0 and
    2r (2r - 1)^(n - 1) of length n >= 1: 2r choices of first letter, then
    any letter but the inverse of the one before.  The counts are those
    sums, the same numbers ``count_reduced_words`` finds on the bouquet of
    r loops."""
    if gp.relators:
        raise ValidationError("presentation is not free", witness=gp.relators)
    q = quiver(("*",), [(g, "*", "*") for g in gp.generators])
    letters = 2 * len(q.edges)
    counts = [1]
    words = letters  # of length 1
    for _ in range(kmax):
        counts.append(counts[-1] + words)
        words *= letters - 1
    return counts[: kmax + 1]


def enumerate_group_morphisms(gp, group, guard=DEFAULT_SIZE_GUARD):
    """All assignments of ``gp.generators`` into a finite group that kill
    every relator, as dicts in canonical order: the morphisms out of the
    one-vertex presentation of ``gp``."""
    q = quiver(("*",), [(g, "*", "*") for g in gp.generators])
    p = presentation(q, [(word(q, r, at="*"), empty_word("*")) for r in gp.relators])
    keys = enumerate_pres_morphisms(p, from_group(group), guard)
    return [dict(zip(gp.generators, images)) for _, images in keys]


@dataclass(frozen=True)
class WordVerdict:
    answer: str  # "yes" | "no" | "unknown"
    reason: str
    witness: tuple = None


def words_equal(p, u, v, targets=None, max_steps=2000, max_length=24):
    """Three-valued word equality in a presented groupoid.

    "yes" comes with a derivation (free reduction, or bounded rewriting);
    "no" comes with the first separating morphism into a finite battery
    target, read lazily; anything the bounds cannot settle is "unknown".
    """
    from .core import battery

    q = p.validate().quiver
    u = word(q, u.letters, at=u.src)
    v = word(q, v.letters, at=v.src)
    if u.src != v.src or u.tgt != v.tgt:
        raise ValidationError("words are not coterminal", witness=(u, v))
    ru, rv = free_reduce(u), free_reduce(v)
    if ru == rv:
        return WordVerdict("yes", "free reduction", witness=(ru.letters,))
    if p.relations:
        reached = _bounded_rewrite_search(p, ru, rv, max_steps, max_length)
        if reached is not None:
            return WordVerdict("yes", "bounded rewriting", witness=(reached,))
    if targets is None:
        targets = battery()
    pu, pv = (_read(q, w.letters, w.src)[::2] for w in (ru, rv))
    for tname, t in targets.items():
        for vimg, eimg in chain.from_iterable(zip(repeat(v), run) for v, run in _morphism_runs(p, t)):
            if _evaluate(pu, vimg, eimg, t) != _evaluate(pv, vimg, eimg, t):
                return WordVerdict(
                    "no", f"separated in {tname}", witness=(tname, (vimg, eimg))
                )
    return WordVerdict("unknown", "bounds exhausted without a certificate")


def _vertex_at(q, w, i):
    return w.src if i == 0 else q.letter_tgt(w.letters[i - 1])


def _bounded_rewrite_search(p, start, goal, max_steps, max_length):
    q = p.quiver
    sides = []
    for lhs, rhs in p.relations:
        sides.append((free_reduce(lhs), free_reduce(rhs)))
        sides.append((free_reduce(rhs), free_reduce(lhs)))
    seen = {start}
    queue = deque([(start, 0)])
    steps = 0
    while queue and steps < max_steps:
        w, depth = queue.popleft()
        steps += 1
        for letters in _rewrites(q, w, sides):
            nw = free_reduce(Word(w.src, w.tgt, letters))
            if nw == goal:
                return depth + 1
            if len(nw.letters) <= max_length and nw not in seen:
                seen.add(nw)
                queue.append((nw, depth + 1))
    return None


def _rewrites(q, w, sides):
    """The letters of each one-step rewrite of ``w``, in order: per side
    pair (a, b), an empty ``a`` inserts the loop ``b`` at every position
    based at its vertex, any other ``a`` is replaced by ``b`` at every
    occurrence."""
    for a, b in sides:
        if a.is_empty():
            for i in range(len(w.letters) + 1):
                if _vertex_at(q, w, i) == b.src:
                    yield w.letters[:i] + b.letters + w.letters[i:]
        else:
            n = len(a.letters)
            for i in range(len(w.letters) - n + 1):
                if w.letters[i : i + n] == a.letters:
                    yield w.letters[:i] + b.letters + w.letters[i + n :]
