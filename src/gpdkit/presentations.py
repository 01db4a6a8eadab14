"""Groupoid presentations: quivers, words, relations, and pushouts.

A word is a composable chain of signed edges of a quiver, read left to
right.  Relations are coterminal pairs of words.  Free reduction (cancel
adjacent ``e e^-1`` pairs) computes the unique normal form in the free
groupoid on a quiver.

Morphisms of presentations send vertices to vertices and each generating
edge to a *word* of the target; that generality is what inclusion-induced
maps between fundamental groupoids need.  Pushouts are computed at the
presentation level: disjoint union, identify image vertices, add one
relation ``f(e) = g(e)`` per generator of the common source.

Morphisms into a finite groupoid are enumerated in blocks ``(vertex
images, [edge images, ...])``, one per vertex assignment, each relation
checked as soon as its last edge is assigned; a presentation morphism
compiles into a map restricting such blocks along it.
``enumerate_pres_morphisms`` reads them out as keys ``(vertex images, edge
images)``.

Functors (``enumerate_morphisms``) and group homomorphisms
(``group_homs``) have their own search on integers, on the IndexViews of
the source and target: k greedily chosen generating arrows get candidate
images, and a breadth-first tree from the identities and its off-tree
pairs, each staged at the last generator its words use, extend and check
each assignment by one row lookup per arrow or pair.  A search into a
group H examines |H|^k candidates.  Both searches refuse past the guard
with ``SizeGuardExceeded`` and "presentation morphism search needs more
than {guard} candidates".
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby, product, repeat
from math import prod
from operator import add, itemgetter

from .core import (
    DEFAULT_SIZE_GUARD,
    GroupoidMorphism,
    SizeGuardExceeded,
    ValidationError,
    from_group,
    greedy_generators,
    index_view,
    skeleton_components,
)


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    edges: tuple
    esrc: dict
    etgt: dict
    # Set by a successful ``validate``, as on ``FiniteGroup``.
    _validated: bool = field(default=False, init=False, compare=False, repr=False)

    def validate(self):
        if self._validated:
            return self
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValidationError("duplicate vertices", witness=self.vertices)
        if len(set(self.edges)) != len(self.edges):
            raise ValidationError("duplicate edges", witness=self.edges)
        for e in self.edges:
            if self.esrc.get(e) not in vset or self.etgt.get(e) not in vset:
                raise ValidationError("edge with bad endpoints", witness=e)
        object.__setattr__(self, "_validated", True)
        return self

    @cached_property
    def vertex_set(self):
        return frozenset(self.vertices)

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


@dataclass(frozen=True)
class Word:
    """A composable chain of signed edges; ``letters`` is a tuple of
    ``(edge, +1|-1)`` pairs.  The empty word carries its base vertex."""

    src: object
    tgt: object
    letters: tuple

    def __len__(self):
        return len(self.letters)

    def is_empty(self):
        return not self.letters

    def inverse(self):
        return Word(
            src=self.tgt,
            tgt=self.src,
            letters=tuple((e, -s) for e, s in reversed(self.letters)),
        )

    def concat(self, other):
        if self.tgt != other.src:
            raise ValidationError(
                "words do not concatenate", witness=(self.tgt, other.src)
            )
        return Word(src=self.src, tgt=other.tgt, letters=self.letters + other.letters)


def empty_word(v):
    return Word(src=v, tgt=v, letters=())


_ANY = object()  # ``_chain`` start: wherever the first letter starts


def _chain(q, letters, here=_ANY):
    """Source and target of ``letters``, tuples ``(edge, 1 | -1)`` with
    ``int`` signs, read from vertex ``here``; the first letter that is
    malformed or does not start where the chain stands raises."""
    esrc, etgt = q.esrc, q.etgt
    src = here
    for i, letter in enumerate(letters):
        try:
            e, s = letter
            known = e in esrc
        except (TypeError, ValueError):
            known = False
        if not (known and type(letter) is tuple and type(s) is int and s in (1, -1)):
            raise ValidationError("malformed letter", witness=letter)
        start = esrc[e] if s == 1 else etgt[e]
        if here is _ANY:
            src = start
        elif start != here:
            raise ValidationError("letters do not chain", witness=(i, letter, here))
        here = etgt[e] if s == 1 else esrc[e]
    return src, here


def _is_vertex(q, v):
    """Whether ``v`` is a vertex of ``q`` that can place an empty word
    (``None`` never can)."""
    try:
        return v is not None and v in q.vertex_set
    except TypeError:  # v, or a vertex of q, is unhashable
        return v in q.vertices


def word(q, letters, at=None):
    """Validated word over quiver ``q``; ``at`` places an empty word.
    Signs are normalised with ``int``, so ``("a", "1")`` reads as ``("a", 1)``."""
    normal = []

    def normalised():
        for letter in letters:
            try:
                e, s = letter
                letter = (e, int(s))
            except (TypeError, ValueError):
                raise ValidationError("malformed letter", witness=letter) from None
            normal.append(letter)
            yield letter

    src, tgt = _chain(q, normalised())
    if not normal:
        if not _is_vertex(q, at):
            raise ValidationError("empty word needs a vertex", witness=at)
        return empty_word(at)
    return Word(src=src, tgt=tgt, letters=tuple(normal))


def _check_word(q, w, message, witness):
    """Raise ``ValidationError(message, witness)`` unless ``w`` is the word
    ``word`` builds from its letters; a word that ``word`` rejects raises
    ``word``'s own error.  A nonempty word whose letters walk from ``w.src``
    to ``w.tgt``, or an empty word at a vertex of ``q``, passes in place; any
    other is rebuilt for ``word``'s say."""
    letters = w.letters
    if type(w) is Word and type(letters) is tuple:
        try:
            if _chain(q, letters, w.src)[1] == w.tgt and (
                letters or _is_vertex(q, w.src)
            ):
                return
        except ValidationError:
            pass
    if word(q, letters, at=w.src) != w:
        raise ValidationError(message, witness=witness)


def free_reduce(w):
    """Unique normal form: cancel adjacent ``(e,s)(e,-s)`` pairs."""
    return Word(src=w.src, tgt=w.tgt, letters=_retracted(w.letters, ()))


def _retracted(letters, dropped):
    """``letters`` without the letters on the edges in ``dropped``, freely
    reduced, in one stack pass."""
    stack = []
    for letter in letters:
        if letter[0] in dropped:
            continue
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
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

    def validate(self):
        self.quiver.validate()
        for lhs, rhs in self.relations:
            for w in (lhs, rhs):
                _check_word(self.quiver, w, "malformed relation word", w)
            if lhs.src != rhs.src or lhs.tgt != rhs.tgt:
                raise ValidationError(
                    "relation sides are not coterminal", witness=(lhs, rhs)
                )
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

    def validate(self):
        sq, tq = self.source.quiver, self.target.quiver
        for v in sq.vertices:
            if self.vmap.get(v) not in tq.vertices:
                raise ValidationError("vertex image missing", witness=v)
        for e in sq.edges:
            w = self.emap.get(e)
            if w is None:
                raise ValidationError("edge image missing", witness=e)
            _check_word(tq, w, "edge image is malformed", (e, w))
            if w.src != self.vmap[sq.esrc[e]] or w.tgt != self.vmap[sq.etgt[e]]:
                raise ValidationError(
                    "edge image has wrong endpoints", witness=(e, w)
                )
        return self


def identity_morphism(p):
    q = p.quiver
    return PresentationMorphism(
        source=p,
        target=p,
        vmap={v: v for v in q.vertices},
        emap={e: word(q, [(e, 1)]) for e in q.edges},
    )


def _positions(q):
    """Index of each vertex and each edge of ``q``."""
    return (
        {v: i for i, v in enumerate(q.vertices)},
        {e: i for i, e in enumerate(q.edges)},
    )


def _program(w, vpos, epos):
    """A word compiled against positions: its start vertex position and
    ``(edge position, sign)`` letters."""
    return vpos[w.src], tuple((epos[e], s) for e, s in w.letters)


def _evaluate(prog, vimg, eimg, t):
    """Value in groupoid ``t`` of a compiled word, given the vertex and edge
    images of a morphism key."""
    start, letters = prog
    out = t.id_of[vimg[start]]
    for i, s in letters:
        out = t.comp[out, eimg[i] if s > 0 else t.inv[eimg[i]]]
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
    """The morphisms of ``p`` into groupoid ``t`` as blocks ``(vertex
    images, [edge images, ...])``: one block per assignment of the vertices
    that has a morphism, blocks in canonical vertex-image order and edge
    images in canonical order within each.

    The guard counts the whole product space of edge candidates.  The
    edges, in order, are cut into segments that end where some relation's
    last edge is assigned; each segment extends the prefixes by one
    ``product`` over its edges' candidate arrows, and the relations ending
    there are checked at once.

    This is the reader for presentations (the pushout and ``vkt`` paths).
    It shares only the vertex maps and the guard count, ``_vertex_plans``,
    with the functor search ``_functor_rows``; the candidate walks stay
    apart.  A prototype that sent presentations through integer keys as well was
    slower on the pushout benchmark, bouquets of 2 to 4 loops by 10-30% and
    the wedges by about 30%, because their keys must come back as names.
    """
    q = p.quiver
    vpos, epos = _positions(q)
    ends = [(vpos[q.esrc[e]], vpos[q.etgt[e]]) for e in q.edges]
    plans = _vertex_plans(t.objects, t.arrows, t.src, t.tgt, len(q.vertices), ends, guard)
    checks = {}
    for lhs, rhs in p.relations:
        last = max((epos[e] for e, _ in lhs.letters + rhs.letters), default=0)
        checks.setdefault(min(last + 1, len(q.edges)), []).append(
            (_program(lhs, vpos, epos), _program(rhs, vpos, epos))
        )
    cuts = sorted({*checks, len(q.edges)})
    segments = [(lo, hi, checks.get(hi, ())) for lo, hi in zip([0] + cuts, cuts)]
    blocks = []
    for vimg, cands in plans:
        eimgs = [()]
        for lo, hi, rels in segments:
            eimgs = _grow(eimgs, cands[lo:hi], rels, vimg, t)
        eimgs = list(eimgs)
        if eimgs:
            blocks.append((vimg, eimgs))
    return blocks


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


def _grow(prefixes, cands, rels, vimg, t):
    """Extend each edge-image prefix by every choice from ``cands``, lazily
    and in order, keeping the extensions on which the relations ``rels``
    hold."""
    grown = chain.from_iterable(map(add, repeat(pre), product(*cands)) for pre in prefixes)
    if not rels:
        return grown

    def holds(eimg):
        for lhs, rhs in rels:
            if _evaluate(lhs, vimg, eimg, t) != _evaluate(rhs, vimg, eimg, t):
                return False
        return True

    return filter(holds, grown)


def _arrow_tree(v, comp):
    """``(generators, steps, pairs)``: the breadth-first tree on the
    IndexView ``v`` of a finite groupoid whose table is ``comp``, as indexes.

    The generators are ``greedy_generators`` of ``v.items`` from the
    identities.  From the identities, each reached arrow y is composed with
    every generator s_k in order; an arrow z = y s_k reached first joins
    the tree with the word w_z = w_y s_k as the step ``(stage, z, y, k)``,
    and any other composable pair is the relation w_y s_k = w_z, the pair
    ``(stage, y, k, z)``.  Both come in the order reached, each staged at
    the last generator position its words use.
    """
    rows = v.rows
    gens = greedy_generators(v.items, [v.items[u] for u in v.units], comp)
    gens = [v.index[s] for s in gens]
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
    arrow images in lexicographic order; ``tree`` is ``_arrow_tree(gv, ...)``.

    ``_vertex_plans`` gives each generator its candidates (the arrows
    between the images of its ends) and counts the guard, as for
    ``_morphism_blocks``.  Then generator k takes each candidate in turn,
    the tree arrows of stage k get their images by one row lookup each and
    the pairs of stage k are checked by one lookup each, the first failure
    pruning.  By induction on word length each assignment passing every
    stage is one functor.  This walk shares no code with
    ``_morphism_blocks`` (see there).
    """
    gens, steps, pairs = tree
    staged = [([], []) for _ in gens]
    for k, *step in steps:
        staged[k][0].append(step)
    for k, *pair in pairs:
        staged[k][1].append(pair)
    ends = [(gv.src[s], gv.tgt[s]) for s in gens]
    plans = [
        (vimg, tuple(zip(cands, staged)))
        for vimg, cands in _vertex_plans(
            range(len(hv.units)), range(len(hv.items)), hv.src, hv.tgt,
            len(gv.units), ends, guard,
        )
    ]
    rows, depth, found = hv.rows, len(gens), []
    img, e = [0] * len(gv.items), [0] * depth

    def grow(levels, k, vimg):
        if k == depth:
            found.append((vimg, tuple(img)))
            return
        cands, (tree_steps, checks) = levels[k]
        for c in cands:
            e[k] = c
            for z, y, j in tree_steps:
                img[z] = rows[img[y]][e[j]]
            for y, j, z in checks:
                if rows[img[y]][e[j]] != img[z]:
                    break
            else:
                grow(levels, k + 1, vimg)

    for vimg, levels in plans:
        for u, x in zip(gv.units, vimg):
            img[u] = hv.units[x]
        grow(levels, 0, vimg)
    return found


def enumerate_morphisms(g, h, guard=DEFAULT_SIZE_GUARD):
    """All functors ``g -> h`` in canonical (object map, arrow images) order.

    ``_functor_rows`` assigns images to the greedy generators of ``g`` on
    the IndexViews of ``g`` and ``h`` (``index_view`` raises
    ValidationError on a table it cannot index), so the guard counts those
    assignments.  The generators are chosen greedily in arrow order, so
    every arrow listed before the k-th generator is a word in the earlier
    ones: assigning generator images in order lists the functors in the
    order of their arrow images.  Each functor is named once, its arrow map
    keyed by the identities, then the tree arrows as reached.
    """
    gv, hv = index_view(g), index_view(h)
    _, steps, _ = tree = _arrow_tree(gv, g.comp)
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
    return [img for _, img in _functor_rows(gv, _arrow_tree(gv, g.table), hv, guard)]


def group_homs(g, h, guard=DEFAULT_SIZE_GUARD):
    """Every homomorphism ``g -> h`` as an image tuple aligned with
    ``g.elements``, in lexicographic order of the tuples (an image ranks by
    its position in ``h.elements``): the functors between the one-object
    groupoids, found by ``_functor_rows`` on the groups' IndexViews, each
    row named once.  The generators of ``g`` are ``generating_set(g)``, so
    the guard counts |h|^|generators| candidates.  Both groups are
    validated first."""
    names = h.elements
    return tuple(tuple(map(names.__getitem__, img)) for img in _hom_rows(g, h, guard))


def _gather(positions):
    """``xs -> tuple(xs[i] for i in positions)`` as an ``itemgetter``."""
    if len(positions) == 1:
        (i,) = positions
        return itemgetter(slice(i, i + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _restriction(f, t):
    """Compile ``f`` against groupoid ``t``: the map sending a block of
    morphisms out of ``f.target`` to the block ``(vertex images, iterable
    of edge images)`` of their composites with ``f``, in the same order.
    Edge images are gathered by position when ``f`` sends every edge to a
    single positive edge, else each image word is evaluated per morphism.
    When the gather is the identity (the i-th edge to the i-th edge, every
    target edge covered), the block's own edge-image list is returned."""
    vpos, epos = _positions(f.target.quiver)
    vgather = _gather([vpos[f.vmap[v]] for v in f.source.quiver.vertices])
    words = [f.emap[e] for e in f.source.quiver.edges]
    if all(len(w) == 1 and w.letters[0][1] > 0 for w in words):
        positions = [epos[w.letters[0][0]] for w in words]
        if positions == list(range(len(epos))):
            return lambda block: (vgather(block[0]), block[1])
        egather = _gather(positions)
        return lambda block: (vgather(block[0]), map(egather, block[1]))
    progs = [_program(w, vpos, epos) for w in words]

    def restrict(block):
        vimg, eimgs = block
        return vgather(vimg), (
            tuple(_evaluate(prog, vimg, eimg, t) for prog in progs) for eimg in eimgs
        )

    return restrict


def _restricted(f, t, keys):
    """The keys ``keys`` of morphisms out of ``f.target`` restricted along
    ``f``, in order; each run of keys with the same vertex images passes
    through ``_restriction``'s map as one block."""
    restrict = _restriction(f, t)
    out = []
    for vimg, run in groupby(keys, itemgetter(0)):
        v, eimgs = restrict((vimg, [eimg for _, eimg in run]))
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


def _rename_word(w, vname, ename):
    return Word(
        src=vname[w.src],
        tgt=vname[w.tgt],
        letters=tuple((ename[e], s) for e, s in w.letters),
    )


def pushout(f, g):
    """Pushout of presentations along a common source.

    Vertices of U and V are tagged apart and then identified along the
    images of W's vertices; one relation ``f(e) = g(e)`` is added per
    generator of W.
    """
    if f.source != g.source:
        raise ValidationError("span legs have different sources")
    f.validate()
    g.validate()
    w, u, v = f.source, f.target, g.target

    tagged = [("u", x) for x in u.quiver.vertices] + [
        ("v", x) for x in v.quiver.vertices
    ]
    blocks = skeleton_components(
        tagged,
        w.quiver.vertices,
        {x: ("u", f.vmap[x]) for x in w.quiver.vertices},
        {x: ("v", g.vmap[x]) for x in w.quiver.vertices},
    )
    # each block is named after its first tagged vertex
    vertices = [f"{tag}:{x}" for tag, x in (block[0] for block in blocks)]
    vname = {t: n for n, block in zip(vertices, blocks) for t in block}
    uvname = {x: vname["u", x] for x in u.quiver.vertices}
    vvname = {x: vname["v", x] for x in v.quiver.vertices}
    uename = {e: f"u:{e}" for e in u.quiver.edges}
    vename = {e: f"v:{e}" for e in v.quiver.edges}
    edges = [
        (uename[e], uvname[u.quiver.esrc[e]], uvname[u.quiver.etgt[e]])
        for e in u.quiver.edges
    ] + [
        (vename[e], vvname[v.quiver.esrc[e]], vvname[v.quiver.etgt[e]])
        for e in v.quiver.edges
    ]
    q = quiver(vertices, edges)

    relations = [
        (_rename_word(lhs, uvname, uename), _rename_word(rhs, uvname, uename))
        for lhs, rhs in u.relations
    ] + [
        (_rename_word(lhs, vvname, vename), _rename_word(rhs, vvname, vename))
        for lhs, rhs in v.relations
    ]
    for e in w.quiver.edges:
        relations.append(
            (
                _rename_word(f.emap[e], uvname, uename),
                _rename_word(g.emap[e], vvname, vename),
            )
        )
    apex = presentation(q, relations)

    inj_u = PresentationMorphism(
        source=u,
        target=apex,
        vmap=dict(uvname),
        emap={e: word(q, [(uename[e], 1)]) for e in u.quiver.edges},
    ).validate()
    inj_v = PresentationMorphism(
        source=v,
        target=apex,
        vmap=dict(vvname),
        emap={e: word(q, [(vename[e], 1)]) for e in v.quiver.edges},
    ).validate()
    return PushoutSquare(
        w=w, u=u, v=v, f=f, g=g, apex=apex, inj_u=inj_u, inj_v=inj_v
    )


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
    the two injections), so counting apex morphisms by that pair of
    restriction keys gives each pair's mediator count by lookup.  The
    morphisms out of V are indexed by their restriction to W, so each
    morphism out of U meets only the morphisms out of V it is compatible
    with.  Per target this costs O(|U| + |V| + |apex| + pairs) restrictions,
    where |X| counts the morphisms out of X.  Pairs are visited in the
    order of the morphisms out of U, then out of V, and the first pair
    without exactly one mediator is the witness.  When every pair has one,
    the pairs must also exhaust the apex morphisms ("count-mismatch").

    The verdict is relative to the supplied target battery, and says so.
    """
    from .core import battery

    if targets is None:
        targets = battery()
    results = []
    all_ok = True
    for tname, t in targets.items():
        mors_u = enumerate_pres_morphisms(square.u, t, guard)
        mors_v = enumerate_pres_morphisms(square.v, t, guard)
        mors_p = enumerate_pres_morphisms(square.apex, t, guard)
        over_w = {}
        for kv, kw in zip(mors_v, _restricted(square.g, t, mors_v)):
            over_w.setdefault(kw, []).append(kv)
        mediators = Counter(
            zip(_restricted(square.inj_u, t, mors_p), _restricted(square.inj_v, t, mors_p))
        )
        pairs = 0
        ok = True
        witness = None
        for ku, kw in zip(mors_u, _restricted(square.f, t, mors_u)):
            for kv in over_w.get(kw, ()):
                pairs += 1
                n = mediators[ku, kv]
                if n != 1 and witness is None:
                    ok = False
                    witness = (ku, kv, n)
        if ok and pairs != len(mors_p):
            ok = False
            witness = ("count-mismatch", pairs, len(mors_p))
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


def _incident(q):
    """(edge, sign, far end) per vertex of ``q`` in edge order; a loop once, at its source."""
    incident, esrc, etgt = {v: [] for v in q.vertices}, q.esrc, q.etgt
    for e in q.edges:
        s, t = esrc[e], etgt[e]
        incident[s].append((e, 1, t))
        if t != s:
            incident[t].append((e, -1, s))
    return incident


def spanning_tree(q, roots):
    """Breadth-first forest rooted at ``roots``: maps each reached vertex to
    the path of signed tree letters from its root, and lists tree edges.

    Roots are processed in vertex order, edges in input order, so the
    forest (and everything built from it) is deterministic.  ``q`` is a
    quiver, or its ``(vertices, _incident(q))`` built once for many walks.
    """
    vertices, incident = q if isinstance(q, tuple) else (q.vertices, _incident(q))
    vorder = {v: i for i, v in enumerate(vertices)}
    roots = sorted(roots, key=lambda v: vorder[v])
    paths = {r: () for r in roots}
    root_of = {r: r for r in roots}
    tree_edges = set()
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        for e, sign, w in incident[v]:
            if w not in paths:
                paths[w] = paths[v] + ((e, sign),)
                root_of[w] = root_of[v]
                tree_edges.add(e)
                queue.append(w)
    return paths, root_of, tree_edges


def vertex_group_presentation(p, x):
    """Present the vertex group of a presented groupoid at ``x``.

    Chooses a spanning tree of the component of ``x`` (breadth-first from
    the least vertex, edges in input order); generators are the non-tree
    edges, relators the relation words rewritten through the tree.
    Relations living on other components are dropped and reported in
    ``dropped_relations``.  A walk from ``x`` finds the component; it is
    walked again from its least vertex only when that is not ``x``.
    """
    q = p.quiver
    if x not in q.vertices:
        raise ValidationError("no such vertex", witness=x)
    walks = (q.vertices, _incident(q))
    comp, _, tree_edges = spanning_tree(walks, [x])  # keyed by the component
    root = next(v for v in q.vertices if v in comp)
    if root != x:
        comp, _, tree_edges = spanning_tree(walks, [root])
    generators = tuple(
        e for e in q.edges if e not in tree_edges and q.esrc[e] in comp
    )

    relators = []
    dropped = []
    for lhs, rhs in p.relations:
        if lhs.src not in comp:
            dropped.append((lhs, rhs))
            continue
        if lhs.tgt != rhs.tgt:
            raise ValidationError(
                "words do not concatenate", witness=(lhs.tgt, rhs.tgt)
            )
        # lhs . rhs^-1, read straight off the two letter tuples
        inverse = ((e, -s) for e, s in reversed(rhs.letters))
        rel = _retracted(chain(lhs.letters, inverse), tree_edges)
        if rel:
            relators.append(rel)
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
    "no" comes with a separating morphism into a finite battery target;
    anything the bounds cannot settle is "unknown".
    """
    from .core import battery

    q = p.quiver
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
    vpos, epos = _positions(q)
    pu, pv = _program(ru, vpos, epos), _program(rv, vpos, epos)
    for tname, t in targets.items():
        for vimg, eimg in enumerate_pres_morphisms(p, t):
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
            nw = free_reduce(Word(src=w.src, tgt=w.tgt, letters=letters))
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
