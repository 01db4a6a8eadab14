"""The two morphism searches that one staged search replaced, kept as
oracles for the tests (this module holds no tests itself).

Before the search was compiled into stages and walked by one kernel,
presentations had ``_morphism_runs``, which cut the edges into segments
ending where a relation's last edge is assigned and grew each segment with
``_grow``, and tables had ``_functor_rows``, which staged one generator at
a time with its solved tree arrows and its checked pairs.  The two shared
only ``_vertex_plans``, the vertex maps with their candidates and the
guard count.  The bodies below are those, kept as they were but for the
names they import.
"""

from itertools import chain, product, repeat
from math import prod
from operator import add

from gpdkit.core import DEFAULT_SIZE_GUARD, SizeGuardExceeded, index_view
from gpdkit.presentations import _evaluate


def _morphism_runs(p, t, guard=DEFAULT_SIZE_GUARD):
    """The morphisms of ``p`` into groupoid ``t`` as lazy runs ``(vertex
    images, iterator of edge images)``, one per vertex assignment (maybe
    yielding none), in canonical order; each call gives them afresh.

    Up front, ``p`` is validated, ``t`` read and the guard counts the
    whole product space of edge candidates.  The edges, in order, are cut
    into segments that end where some relation's last edge is assigned;
    each segment extends the prefixes by one ``product`` over its edges'
    candidate arrows (the first segment's tuples are yielded as they come),
    and the relations ending there are checked at once: each relation's
    kept relator row must evaluate to the identity at the image of its
    base vertex.

    This is the reader for presentations (the pushout and ``vkt`` paths).
    It shares only the vertex maps and the guard count, ``_vertex_plans``,
    with the functor search ``_functor_rows``.  Integer keys here were
    slower on the pushout benchmark (10-30%): the keys come back as names.
    """
    q = p.validate().quiver
    index_view(t)  # a lawless target is refused, not searched
    _, _, src, tgt = q._view
    ends = list(zip(src, tgt))
    plans = _vertex_plans(t.objects, t.arrows, t.src, t.tgt, len(q.vertices), ends, guard)
    checks = {}
    for relator in p._view:
        last = max((j if j >= 0 else ~j for j in relator[1]), default=0)
        checks.setdefault(min(last + 1, len(q.edges)), []).append(relator)
    cuts = sorted({*checks, len(q.edges)})
    segments = [(lo, hi, checks.get(hi, ())) for lo, hi in zip([0] + cuts, cuts)]
    runs = []
    for vimg, cands in plans:
        eimgs = None
        for lo, hi, rels in segments:
            eimgs = _grow(eimgs, cands[lo:hi], rels, vimg, t)
        runs.append((vimg, eimgs))
    return runs


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
    and in order, keeping the extensions on which the relator rows ``rels``
    evaluate to the identity.  ``prefixes`` None is the first segment:
    ``product``'s tuples are the extensions of the empty prefix as they
    come."""
    if prefixes is None:
        grown = product(*cands)
    else:
        grown = chain.from_iterable(
            map(add, repeat(pre), product(*cands)) for pre in prefixes
        )
    if not rels:
        return grown

    def holds(eimg):
        for relator in rels:
            if _evaluate(relator, vimg, eimg, t) != t.id_of[vimg[relator[0]]]:
                return False
        return True

    return filter(holds, grown)


def _functor_rows(gv, tree, hv, guard):
    """Every functor between the groupoids read into IndexViews ``gv`` and
    ``hv``, as ``(object images, arrow images)`` of ``hv`` indexes aligned
    with ``gv.units`` and ``gv.items``, object maps in ``product`` order and
    arrow images in lexicographic order; ``tree`` is ``_arrow_tree(gv)``.

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

