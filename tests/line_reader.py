"""The line-by-line document reader that flat row blocks replaced, kept
as an oracle for the tests (this module holds no tests itself).

Before ``documents._tree`` kept the flat ``key: value`` rows under a block
header as one ``_Rows``, it built one node ``(line, key, value, indent,
children)`` per line; ``_entries`` and ``_raws`` dropped the children of
the other form without a word; ``_quiver_of`` never checked an edge's key;
and ``_complex_of`` and ``_presentation_of`` read their rows from the
nodes.  The bodies below are those, with the ``_row_of`` they call, kept
verbatim but for the quiver view they unpack, which no longer keeps
incidence lists.  ``parse_document`` reads a document with them: the
quiver, presentation, complex and cover kinds through these readers,
every other kind through the library's interpreter on this tree.
"""

from gpdkit.documents import (
    _INTERPRETERS,
    KINDS,
    Document,
    ParseError,
    _block,
    _find,
    _names,
    _need,
    _value_of,
)
from gpdkit.presentations import (
    GroupoidPresentation,
    Quiver,
    Word,
    _identity,
    _letter_table,
    _retracted,
)
from gpdkit.vankampen import _complex_on, _distinct, cover

def _tree(text):
    """Indentation tree of entry and raw nodes, each the tuple ``(line, key,
    value, indent, children)``: ``key`` is None for a raw line and
    ``indent`` the column its text starts in.  Blank and comment-only
    lines are skipped before the indentation is looked at."""
    root = (0, None, "", -1, [])
    stack = [root]
    for lineno, content in enumerate(text.splitlines(), start=1):
        if "#" in content:
            content = content.partition("#")[0]
        content = content.rstrip()
        if not content:
            continue
        body = content.lstrip()
        indent = len(content) - len(body)
        if indent:
            rest = content[:indent].lstrip(" ")
            if rest:  # whitespace other than spaces after the leading ones
                if "\t" in rest:
                    raise ParseError("tabs are not allowed in indentation", lineno)
                indent -= len(rest)
        key, colon, value = body.partition(":")
        if colon:
            key = key.strip()
            if not key:
                raise ParseError("empty key", lineno)
            node = (lineno, key, value.strip(), indent, [])
        else:
            node = (lineno, None, body, indent, [])
        while indent <= stack[-1][3]:
            stack.pop()
        parent = stack[-1]
        siblings = parent[4]
        if siblings:
            if indent != siblings[0][3]:
                raise ParseError("inconsistent indentation", lineno)
        elif parent is not root:
            # The first child checks its parent once for all its siblings.
            if parent[1] is None:
                raise ParseError("raw lines cannot have nested lines", lineno)
            if parent[2]:
                raise ParseError(
                    f"entry {parent[1]!r} has both a value and nested lines", lineno
                )
        siblings.append(node)
        stack.append(node)
    return root


def _entries(node):
    return [c for c in node[4] if c[1] is not None]


def _raws(node):
    return [c for c in node[4] if c[1] is None]


def _quiver_of(node):
    """The checked quiver a document spells.  The edge rows are read in
    bulk; only when some row is bad are they read again one by one, so
    the first bad row is reported as that reading finds it."""
    vertices = tuple(_names(*_value_of(node, "vertices")))
    rows = _entries(_block(_need(node, "edges")))
    edges = tuple(key for _, key, _, _, _ in rows)
    values = [value for _, _, value, _, _ in rows]
    ends = list(map(str.split, values))
    text = "".join(values)
    if (
        {*map(len, ends)} - {2} or "1" in edges
        or ":" in text or "=" in text or "^" in text or "#" in text
    ):
        for line, key, value, _, _ in rows:
            if len(_names(value, line)) != 2:
                raise ParseError("edge rows are 'id: src tgt'", line)
            if key == "1":
                raise ParseError("edge name '1' is reserved for the empty word", line)
    src, tgt = zip(*ends) if ends else ((), ())
    q = Quiver(vertices=vertices, edges=edges, esrc=dict(zip(edges, src)), etgt=dict(zip(edges, tgt)))
    return q.validate()


def _row_of(tokens, q, line, at=None):
    """The word ``tokens`` spell over the checked quiver ``q``, read in one
    pass over the tokens into ``(src, tgt, row)``: vertex indexes and the
    signed edge indexes of its letters (see ``presentations``).  Each token
    is split off its ``^-1``, looked up, and chained to the letter before
    it.  A break in the chain is reported only after the last token, so an
    unknown edge anywhere in the word comes first.  ``at``, a vertex
    index, places the empty word ``1``."""
    if tokens == ["1"]:
        if at is None:
            raise ParseError(
                "an empty word is only allowed opposite a nonempty side", line
            )
        return at, at, ()
    _, epos, src, tgt = q._view
    row = []
    chained = True
    for t in tokens:
        if t.endswith("^-1"):
            j = epos.get(t[:-3])
            if j is None:
                raise ParseError(f"unknown edge {t[:-3]!r}", line)
            if row and tgt[j] != here:
                chained = False
            here = src[j]
            row.append(~j)
        else:
            j = epos.get(t)
            if j is None:
                raise ParseError(f"unknown edge {t!r}", line)
            if row and src[j] != here:
                chained = False
            here = tgt[j]
            row.append(j)
    if not row:
        raise ParseError("word does not chain: empty word needs a vertex", line)
    if not chained:
        raise ParseError("word does not chain: letters do not chain", line)
    j = row[0]
    return (src[j] if j >= 0 else tgt[~j]), here, tuple(row)


def _presentation_of(node):
    q = _quiver_of(node)
    names, letters = q.vertices, _letter_table(q.edges)
    identity = _identity(len(q.edges))
    relations, rows = [], []
    rel_node = _find(node, "relations")
    if rel_node is not None:
        for line, _, value, _, _ in _raws(_block(rel_node)):
            if "=" not in value:
                raise ParseError("relations are 'word = word'", line)
            lhs_text, rhs_text = value.split("=", 1)
            lhs_tokens, rhs_tokens = lhs_text.split(), rhs_text.split()
            if lhs_tokens == ["1"] and rhs_tokens == ["1"]:
                raise ParseError("a relation needs a nonempty side", line)
            if lhs_tokens == ["1"]:
                rhs = _row_of(rhs_tokens, q, line)
                lhs = _row_of(lhs_tokens, q, line, at=rhs[0])
            else:
                lhs = _row_of(lhs_tokens, q, line)
                rhs = _row_of(rhs_tokens, q, line, at=lhs[0])
            if lhs[:2] != rhs[:2]:
                raise ParseError("relation sides are not coterminal", line)
            relations.append(tuple(
                Word(names[s], names[t], tuple(map(letters.__getitem__, row)))
                for s, t, row in (lhs, rhs)
            ))
            relator = lhs[2] + tuple(~j for j in reversed(rhs[2]))
            rows.append((lhs[0], _retracted(relator, identity)))
    # Each side was read over ``q`` as it was built, and the sides are
    # coterminal, so the presentation keeps its relator rows at once.
    p = GroupoidPresentation(quiver=q, relations=tuple(relations))
    object.__setattr__(p, "_view", tuple(rows))
    return p


def _complex_of(node):
    """The complex a document spells, its faces read straight into int
    rows over the checked edge quiver: no word is named."""
    q = _quiver_of(node)
    vpos = q._view[0]
    faces, fbase, frows = [], [], []
    faces_node = _find(node, "faces")
    if faces_node is not None:
        for line, key, value, _, _ in _entries(_block(faces_node)):
            tokens = value.split()
            if len(tokens) == 2 and tokens[0] == "1":  # an empty boundary
                b = vpos.get(tokens[1])
                if b is None:
                    raise ParseError(f"unknown vertex {tokens[1]!r}", line)
                row = ()
            else:
                b, _, row = _row_of(tokens, q, line)
            faces.append(key)
            fbase.append(b)
            frows.append(row)
    _distinct(tuple(faces))
    return _complex_on(q, faces, fbase, frows)


def _cover_of(node):
    cx = _complex_of(_block(_need(node, "complex")))
    return cover(cx, _names(*_value_of(node, "u")), _names(*_value_of(node, "v")))


READERS = {
    "quiver": _quiver_of,
    "presentation": _presentation_of,
    "complex": _complex_of,
    "cover": _cover_of,
}


def parse_document(text):
    """``documents.parse_document`` on the line-by-line tree."""
    root = _tree(text)
    kind = _value_of(root, "kind")[0]
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}", 1)
    return Document(kind=kind, payload=READERS.get(kind, _INTERPRETERS[kind])(root))
