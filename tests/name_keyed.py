"""The name-keyed bodies that complexes on integers replaced, kept as
oracles for the tests (this module holds no tests itself).

Before complexes were stored as integers, ``Quiver.validate`` kept each
vertex's ``(edge, sign, far end)`` triples, the parser built a ``Word``
per face with ``_word_of``, ``spanning_tree`` kept a path tuple per vertex
and a set of tree-edge names, ``_fundamental`` retracted the named face
words through ``ForestRetraction.apply``, and ``vertex_group_presentation``
retracted the named relation words.  The bodies below are those, kept as
they were but for the names they import; ``named_forest`` reads the int
forest the library returns in the old terms, so the two can be compared.
"""

from collections import deque
from itertools import chain

from gpdkit.core import HypothesisError, ValidationError, skeleton_components
from gpdkit.documents import ParseError, _block, _entries, _find, _names, _need, _value_of
from gpdkit.presentations import (
    GroupoidPresentation,
    GroupPresentation,
    Quiver,
    Word,
    empty_word,
)
from gpdkit.vankampen import Complex2


# ------------------------------------------------------------------ quivers


def incidence(q):
    """``Quiver.validate`` as it was: each vertex's ``(edge, sign, far
    end)`` triples, a loop once, at its source."""
    incident = {v: [] for v in q.vertices}
    if len(incident) != len(q.vertices):
        raise ValidationError("duplicate vertices", witness=q.vertices)
    if len(set(q.edges)) != len(q.edges):
        raise ValidationError("duplicate edges", witness=q.edges)
    esrc, etgt = q.esrc, q.etgt
    for e in q.edges:
        s, t = esrc.get(e), etgt.get(e)
        try:
            incident[s].append((e, 1, t))
            if t != s:
                incident[t].append((e, -1, s))
        except KeyError:
            raise ValidationError("edge with bad endpoints", witness=e) from None
    return incident


def spanning_tree(q, roots):
    """Breadth-first forest rooted at ``roots``: maps each reached vertex to
    the path of signed tree letters from its root, and lists tree edges."""
    incident = incidence(q)
    vorder = {v: i for i, v in enumerate(incident)}
    try:
        roots = sorted(roots, key=vorder.__getitem__)
    except (KeyError, TypeError):  # a root that is no vertex, or unhashable
        stray = next(r for r in roots if r not in q.vertices)
        raise ValidationError("no such vertex", witness=stray) from None
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


def named_forest(q, forest):
    """The int forest ``(parent, root_of, tree)`` of the library's
    ``spanning_tree`` over ``q``, read as the old ``(paths, root_of,
    tree_edges)``, the paths followed up the parent pointers."""
    parent, root_of, tree = forest
    _, _, src, tgt = q.validate()._view
    paths = {}
    for i, r in enumerate(root_of):
        if r < 0:
            continue
        letters, k = [], i
        while parent[k] is not None:
            j = parent[k]
            letters.append((q.edges[j], 1) if j >= 0 else (q.edges[~j], -1))
            k = src[j] if j >= 0 else tgt[~j]
        paths[q.vertices[i]] = tuple(reversed(letters))
    root_names = {q.vertices[i]: q.vertices[r] for i, r in enumerate(root_of) if r >= 0}
    return paths, root_names, {e for e, t in zip(q.edges, tree) if t}


def retracted(letters, dropped):
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


# ------------------------------------------------------------------ parsing


def quiver_of(node):
    """``documents._quiver_of`` as it read the rows one by one, then
    checked them as the old ``Quiver.validate`` did."""
    vertices = tuple(_names(*_value_of(node, "vertices")))
    triples = []
    for line, key, value, _, _ in _entries(_block(_need(node, "edges"))):
        ends = _names(value, line)
        if len(ends) != 2:
            raise ParseError("edge rows are 'id: src tgt'", line)
        if key == "1":
            raise ParseError("edge name '1' is reserved for the empty word", line)
        triples.append((key, ends[0], ends[1]))
    q = Quiver(
        vertices=vertices,
        edges=tuple(e for e, _, _ in triples),
        esrc={e: s for e, s, _ in triples},
        etgt={e: t for e, _, t in triples},
    )
    incidence(q)
    return q


def word_of(tokens, q, line, at=None):
    """The word ``tokens`` spell over ``q``, built and checked in one pass
    over the tokens: each is split off its ``^-1``, looked up, and chained
    to the letter before it.  A break in the chain is reported only after
    the last token, so an unknown edge anywhere in the word comes first.
    ``at`` places the empty word ``1``."""
    if tokens == ["1"]:
        if at is None:
            raise ParseError(
                "an empty word is only allowed opposite a nonempty side", line
            )
        return empty_word(at)
    esrc, etgt = q.esrc, q.etgt
    letters = []
    chained = True
    for t in tokens:
        if t.endswith("^-1"):
            e, sign, head, tail = t[:-3], -1, etgt, esrc
        else:
            e, sign, head, tail = t, 1, esrc, etgt
        if e not in esrc:
            raise ParseError(f"unknown edge {e!r}", line)
        if not letters:
            src = head[e]
        elif head[e] != tgt:
            chained = False
        tgt = tail[e]
        letters.append((e, sign))
    if not letters:
        raise ParseError("word does not chain: empty word needs a vertex", line)
    if not chained:
        raise ParseError("word does not chain: letters do not chain", line)
    return Word(src, tgt, tuple(letters))


def complex_of(node):
    """``documents._complex_of`` as it built a ``Word`` per face, with the
    checks of the old ``_checked_faces`` on words the parser checked."""
    q = quiver_of(node)
    faces = []
    faces_node = _find(node, "faces")
    if faces_node is not None:
        for line, key, value, _, _ in _entries(_block(faces_node)):
            tokens = value.split()
            if len(tokens) == 2 and tokens[0] == "1":  # an empty boundary
                if tokens[1] not in q.vertices:
                    raise ParseError(f"unknown vertex {tokens[1]!r}", line)
                w = empty_word(tokens[1])
            else:
                w = word_of(tokens, q, line)
            faces.append((key, w))
    x = Complex2(
        vertices=q.vertices,
        edges=q.edges,
        esrc=q.esrc,
        etgt=q.etgt,
        faces=tuple(f for f, _ in faces),
        fboundary=dict(faces),
    )
    if len(set(x.faces)) != len(x.faces):
        raise ValidationError("duplicate faces", witness=x.faces)
    for f in x.faces:
        w = x.fboundary[f]
        if w.src != w.tgt:
            raise ValidationError("boundary word is not closed", witness=(f, w))
    return x


# ------------------------------------------------------------ the pi1 path


def fundamental(x, base):
    """``vankampen._fundamental`` as it ran on names: the presentation,
    unvalidated, and the named forest ``(paths, root_of, tree_edges)``."""
    q = Quiver(vertices=x.vertices, edges=x.edges, esrc=x.esrc, etgt=x.etgt)
    base = tuple(dict.fromkeys(base))
    bad = [b for b in base if b not in x.vertices]
    if bad:
        raise ValidationError("base points outside the complex", witness=tuple(bad))
    paths, root_of, tree_edges = forest = spanning_tree(q, base)
    bset = set(base)
    if len(paths) < len(x.vertices):  # name the first component missed
        block = next(
            b for b in skeleton_components(x.vertices, x.edges, x.esrc, x.etgt)
            if bset.isdisjoint(b)
        )
        raise HypothesisError(f"base points miss a component: {block!r}", report=block)
    generators = tuple(e for e in x.edges if e not in tree_edges)
    roots = tuple(v for v in x.vertices if v in bset)
    pq = Quiver(
        vertices=roots,
        edges=generators,
        esrc={e: root_of[x.esrc[e]] for e in generators},
        etgt={e: root_of[x.etgt[e]] for e in generators},
    )
    empty = {r: empty_word(r) for r in roots}
    relations = []
    for f in x.faces:
        w = x.fboundary[f]
        w = Word(root_of[w.src], root_of[w.tgt], retracted(w.letters, tree_edges))
        relations.append((w, empty[w.src]))
    return GroupoidPresentation(quiver=pq, relations=tuple(relations)), forest


def vertex_group_presentation(p, x):
    """``vertex_group_presentation`` as it ran on names: a walk from ``x``,
    again from the least vertex of its component when that is not ``x``,
    and each relation ``lhs rhs^-1`` retracted through the tree.  ``p``
    must be lawful."""
    q = p.quiver
    comp, _, tree_edges = spanning_tree(q, [x])  # keyed by the component
    root = next(v for v in q.vertices if v in comp)
    if root != x:
        comp, _, tree_edges = spanning_tree(q, [root])
    generators = tuple(
        e for e in q.edges if e not in tree_edges and q.esrc[e] in comp
    )
    relators = []
    dropped = []
    for lhs, rhs in p.relations:
        if lhs.src not in comp:
            dropped.append((lhs, rhs))
            continue
        inverse = ((e, -s) for e, s in reversed(rhs.letters))
        rel = retracted(chain(lhs.letters, inverse), tree_edges)
        if rel:
            relators.append(rel)
    return GroupPresentation(
        generators=generators,
        relators=tuple(relators),
        dropped_relations=tuple(dropped),
    )
