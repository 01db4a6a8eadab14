"""Differential tests for the one word reader.

``_check_word`` used to rebuild every word through ``word`` and compare;
both now read a word's letters once, through ``_read``, into signed edge
indexes on the checked quiver's view and its letters with normalised
signs: ``word`` returns the letters as a word, ``_check_word`` compares
them with the word and returns the indexes.  The originals of both are kept here verbatim as
``word_oracle`` and ``check_word_oracle``.  On random quivers, and on
words that are well formed or broken in every way a caller can break them
(list containers and list letters, ``str``, ``bool``, float and ±2 signs,
unknown edges, letters that do not chain, wrong ``src``/``tgt``, empty
words at unknown vertices), both functions must pass exactly where the
oracle passes and otherwise raise the oracle's exception with the same
message and witness, and ``_check_word`` must return the word's row.

The one difference is a letter on an edge that a raw quiver's ``esrc``
names but its ``edges`` lack: the reader looks edges up on the view, so
it is a "malformed letter", where the oracles, which looked in ``esrc``,
raised ``KeyError`` or "letters do not chain" at it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import presentations
from gpdkit.core import ValidationError
from gpdkit.presentations import Quiver, Word, _check_word, empty_word, presentation, quiver, word

# ------------------------------------------------------------------ oracles


def word_oracle(q, letters, at=None):
    """Validated word over quiver ``q``; ``at`` places an empty word.
    Signs are normalised with ``int``, so ``("a", "1")`` reads as ``("a", 1)``."""
    normal = []
    for letter in letters:
        try:
            e, s = letter
            letter = (e, int(s))
            known = e in q.esrc
        except (TypeError, ValueError):
            raise ValidationError("malformed letter", witness=letter) from None
        if not known or letter[1] not in (1, -1):
            raise ValidationError("malformed letter", witness=letter)
        if not normal:
            src = here = q.letter_src(letter)
        elif q.letter_src(letter) != here:
            raise ValidationError(
                "letters do not chain", witness=(len(normal), letter, here)
            )
        here = q.letter_tgt(letter)
        normal.append(letter)
    if not normal:
        if at is None or at not in q.vertices:
            raise ValidationError("empty word needs a vertex", witness=at)
        return empty_word(at)
    return Word(src=src, tgt=here, letters=tuple(normal))


def check_word_oracle(q, w, message, witness):
    """Raise ``ValidationError(message, witness)`` unless ``w`` is the word
    ``word`` builds from its letters; a word that ``word`` rejects raises
    ``word``'s own error."""
    if word_oracle(q, w.letters, at=w.src) != w:
        raise ValidationError(message, witness=witness)


def _outcome(f, *args):
    """What a call did: its value, or the exception's type, arguments and
    witness."""
    try:
        return ("returned", f(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), exc.args, getattr(exc, "witness", None))


def _want(oracle, q, *args):
    """The oracle's outcome over ``q``, but for a letter on an edge that
    ``q.esrc`` names and ``q.edges`` lacks: that is a "malformed letter",
    the outcome the oracle gives once ``esrc`` holds only the edges, and
    only where the oracle over ``q`` raised ``KeyError`` or "letters do not
    chain" at that letter."""
    want = _outcome(oracle, q, *args)
    edges_only = Quiver(
        vertices=q.vertices, edges=q.edges,
        esrc={e: q.esrc[e] for e in q.edges}, etgt=q.etgt,
    )
    fixed = _outcome(oracle, edges_only, *args)
    if fixed != want:
        letter = fixed[3]
        assert fixed[2] == ("malformed letter",) and letter[0] in q.esrc
        assert letter[0] not in q.edges
        assert want[1] is KeyError or (
            want[2] == ("letters do not chain",) and want[3][1] == letter
        )
    return fixed


def check_word(q, w, message, witness):
    """``_check_word``, which must return ``w`` read over ``q`` (its end
    vertex indexes and signed edge indexes), with that dropped, as the
    oracle returns nothing."""
    src, tgt, row = _check_word(q, w, message, witness)
    vertices = list(q.vertices)
    assert (vertices[src], vertices[tgt]) == (w.src, w.tgt)
    epos = {e: j for j, e in enumerate(q.edges)}
    assert row == tuple(epos[e] if s > 0 else ~epos[e] for e, s in w.letters)


# --------------------------------------------------------------- strategies

VERTICES = (0, 1, 2, "p")
SIGNS = (1, -1, 2, -2, 0, "1", "-1", "x", True, False, 1.0, -1.0, None)


@st.composite
def quivers(draw):
    vs = draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 5))
    q = quiver(
        vs,
        [(f"e{i}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs))) for i in range(n)],
    )
    if draw(st.booleans()):
        return q
    # A raw quiver whose source map names an edge the target map lacks:
    # ``validate`` looks at listed edges only, so it still passes.
    return Quiver(
        vertices=q.vertices, edges=q.edges, esrc={**q.esrc, "stray": vs[0]}, etgt=q.etgt
    )


def _junk(names):
    pair = st.tuples(st.sampled_from(names), st.sampled_from(SIGNS))
    return st.one_of(
        pair,  # unknown edges, bad signs, letters that do not chain
        pair.map(list),  # a list letter
        st.sampled_from([("e0",), ("e0", 1, 0), (["e0"], 1), "e0", None, 7]),
    )


@st.composite
def cases(draw):
    """A quiver and a word on it: a walk, then up to three damages."""
    q = draw(quivers())
    start = here = draw(st.sampled_from(q.vertices))
    letters = []
    for _ in range(draw(st.integers(0, 6))):
        out = [
            (e, s) for e in q.edges for s in (1, -1)
            if (q.esrc[e] if s > 0 else q.etgt[e]) == here
        ]
        if not out:
            break
        letter = draw(st.sampled_from(out))
        letters.append(letter)
        here = q.etgt[letter[0]] if letter[1] > 0 else q.esrc[letter[0]]
    src, tgt = start, here
    names = [*q.edges, "zz", "stray"]
    for _ in range(draw(st.integers(0, 3))):
        damage = draw(st.sampled_from(["insert", "replace", "drop", "src", "tgt"]))
        if damage == "insert":
            letters.insert(draw(st.integers(0, len(letters))), draw(_junk(names)))
        elif damage in ("replace", "drop") and letters:
            i = draw(st.integers(0, len(letters) - 1))
            if damage == "drop":
                del letters[i]
            else:
                letters[i] = draw(_junk(names))
        elif damage == "src":
            src = draw(st.sampled_from(VERTICES + ("nowhere", None)))
        elif damage == "tgt":
            tgt = draw(st.sampled_from(VERTICES + ("nowhere", None)))
    container = draw(st.sampled_from([tuple, tuple, list]))
    return q, Word(src=src, tgt=tgt, letters=container(letters))


# -------------------------------------------------------------------- tests


@settings(max_examples=600, deadline=None)
@given(case=cases())
def test_check_word_agrees_with_the_rebuilding_oracle(case):
    q, w = case
    witness = ("w", w)
    want = _want(check_word_oracle, q, w, "bad word", witness)
    assert _outcome(check_word, q, w, "bad word", witness) == want


@settings(max_examples=600, deadline=None)
@given(case=cases(), at=st.sampled_from(VERTICES + ("nowhere", None)))
def test_word_agrees_with_the_original(case, at):
    q, w = case
    want = _want(word_oracle, q, w.letters, at)
    assert _outcome(word, q, w.letters, at) == want


class TaggedWord(Word):
    """A Word subclass: it equals the Word with the same fields, so both
    checks pass it by rebuilding and comparing."""

    __slots__ = ()


Q = quiver((0, 1), [("a", 0, 1), ("b", 1, 0)])


@pytest.mark.parametrize(
    "w",
    [
        Word(src=0, tgt=0, letters=(("a", 1), ("b", 1))),
        Word(src=0, tgt=0, letters=(("a", 1), ("a", -1))),
        Word(src=0, tgt=0, letters=()),
        Word(src=0, tgt=1, letters=()),
        Word(src="nowhere", tgt="nowhere", letters=()),
        Word(src=None, tgt=None, letters=()),
        Word(src=[0], tgt=[0], letters=()),
        Word(src=True, tgt=1, letters=()),
        Word(src=0, tgt=0, letters=[]),
        Word(src=0, tgt=0, letters=[("a", 1), ("b", 1)]),
        Word(src=0, tgt=0, letters=(["a", 1], ("b", 1))),
        Word(src=0, tgt=0, letters=(("a", True), ("b", 1))),
        Word(src=0, tgt=0, letters=(("a", 1.0), ("b", 1))),
        Word(src=0, tgt=0, letters=(("a", "1"), ("b", 1))),
        Word(src=0, tgt=0, letters=(("a", 2), ("b", 1))),
        Word(src=0, tgt=0, letters=(("z", 1), ("b", 1))),
        Word(src=0, tgt=0, letters=(("a", 1), ("a", 1))),
        Word(src=1, tgt=0, letters=(("a", 1), ("b", 1))),
        Word(src=0, tgt=1, letters=(("a", 1), ("b", 1))),
        TaggedWord(src=0, tgt=0, letters=(("a", 1), ("b", 1))),
    ],
    ids=repr,
)
def test_check_word_agrees_on_hand_picked_words(w):
    want = _outcome(check_word_oracle, Q, w, "bad word", w)
    assert _outcome(check_word, Q, w, "bad word", w) == want


# ``None`` is a vertex here, but it never places an empty word.
QN = quiver((None, 0), [("a", None, 0), ("b", 0, None)])


@pytest.mark.parametrize(
    "w",
    [
        Word(src=None, tgt=None, letters=()),
        Word(src=0, tgt=0, letters=()),
        Word(src=None, tgt=None, letters=(("a", 1), ("b", 1))),
        Word(src=None, tgt=0, letters=(("a", 1),)),
        Word(src=0, tgt=None, letters=()),
    ],
    ids=repr,
)
def test_none_as_a_vertex_agrees_with_the_oracle(w):
    want = _outcome(check_word_oracle, QN, w, "bad word", w)
    assert _outcome(check_word, QN, w, "bad word", w) == want
    assert _outcome(word, QN, w.letters, w.src) == _outcome(
        word_oracle, QN, w.letters, w.src
    )


def test_an_unhashable_vertex_of_a_raw_quiver_places_an_empty_word():
    # ``validate`` rejects unhashable vertices; a raw quiver keeps them.
    raw = Quiver(vertices=([0], 1), edges=(), esrc={}, etgt={})
    for w in (empty_word([0]), empty_word([1]), empty_word(1)):
        want = _outcome(check_word_oracle, raw, w, "bad word", w)
        assert _outcome(check_word, raw, w, "bad word", w) == want
        assert _outcome(word, raw, (), w.src) == _outcome(word_oracle, raw, (), w.src)
    assert _outcome(word, raw, (), [0])[0] == "returned"


def _spy(monkeypatch, name):
    """The ``(args, kwargs)`` of every call of ``presentations.<name>`` made
    from now on."""
    calls = []
    real = getattr(presentations, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(presentations, name, spy)
    return calls


def test_a_word_is_checked_in_one_read(monkeypatch):
    reads, words = _spy(monkeypatch, "_read"), _spy(monkeypatch, "word")
    good = Word(src=0, tgt=0, letters=(("a", 1), ("b", 1)))
    assert _check_word(Q, good, "bad", None) == (0, 0, (0, 1))
    assert reads == [((Q, good.letters, 0), {})]
    with pytest.raises(ValidationError) as info:
        _check_word(Q, Word(src=0, tgt=1, letters=good.letters), "bad", "w")
    assert (str(info.value), info.value.witness) == ("bad", "w")
    assert len(reads) == 2 and words == []


def test_an_empty_word_is_checked_in_one_read(monkeypatch):
    reads, words = _spy(monkeypatch, "_read"), _spy(monkeypatch, "word")
    for v in Q.vertices:
        assert _check_word(Q, empty_word(v), "bad", None) == (v, v, ())
    with pytest.raises(ValidationError) as info:
        _check_word(Q, Word(src=0, tgt=1, letters=()), "bad", "w")
    assert (str(info.value), info.value.witness) == ("bad", "w")
    with pytest.raises(ValidationError) as info:
        _check_word(Q, empty_word("nowhere"), "bad", "w")
    assert str(info.value) == "empty word needs a vertex"
    assert info.value.witness == "nowhere"
    assert [args[2] for args, _ in reads] == [0, 1, 0, "nowhere"] and words == []


def test_a_letter_off_the_edges_is_malformed():
    """A raw quiver whose end maps name an edge ``edges`` lacks: a letter on
    it is refused as malformed, where the oracles raised ``KeyError``."""
    raw = Quiver(vertices=(0,), edges=("a",), esrc={"a": 0, "stray": 0}, etgt={"a": 0, "stray": 0})
    for letters in ([("stray", 1)], [("a", 1), ("stray", -1)]):
        with pytest.raises(ValidationError) as info:
            word(raw, letters)
        assert (str(info.value), info.value.witness) == ("malformed letter", letters[-1])
    assert _outcome(word_oracle, raw, [("stray", 1)]) == (
        "returned", Word(src=0, tgt=0, letters=(("stray", 1),))
    )
    with pytest.raises(ValidationError) as info:
        presentation(raw, [(Word(0, 0, (("stray", 1),)), empty_word(0))])
    assert (str(info.value), info.value.witness) == ("malformed letter", ("stray", 1))
