"""``Word`` as a slotted tuple ``(src, tgt, letters)``.

``Word`` was a frozen dataclass.  That class is kept here verbatim as the
oracle ``OldWord`` (its ``__qualname__`` is set to ``Word``, so the two
``repr``s can be compared as bytes).  On hypothesis words, including an
unhashable ``src``, list ``letters`` and list letters, the tuple must give
the oracle's ``repr``, ``str``, ``hash``, ``len``, equality among Words,
``is_empty``, ``inverse`` and ``concat``, and the oracle's
``ValidationError`` witnesses.  It must refuse attribute assignment and
survive ``copy``, ``deepcopy`` and ``pickle``.

The tuple also behaves in ways the dataclass did not, on purpose, and the
last tests pin them: a Word equals its plain 3-tuple and any subclass
instance with the same fields; it unpacks, indexes and orders like a
tuple; and ``cli._json`` writes one as an array.

The ``pi1`` path builds each word once: a complex of the size of the
benchmark's ``pi1-n20`` with one base point builds 721 Words, 360 face
words, 360 retracted relations and one shared empty word.
"""

import copy
import json
import pickle
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import cli
from gpdkit.cli import main
from gpdkit.core import ValidationError
from gpdkit.documents import load_document
from gpdkit.presentations import Word, empty_word
from gpdkit.vankampen import fundamental_groupoid

DATA = Path(__file__).parent / "data"

# ------------------------------------------------------------------ oracle


@dataclass(frozen=True)
class OldWord:
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
        return OldWord(
            src=self.tgt,
            tgt=self.src,
            letters=tuple((e, -s) for e, s in reversed(self.letters)),
        )

    def concat(self, other):
        if self.tgt != other.src:
            raise ValidationError(
                "words do not concatenate", witness=(self.tgt, other.src)
            )
        return OldWord(src=self.src, tgt=other.tgt, letters=self.letters + other.letters)


OldWord.__qualname__ = "Word"


def _fields(w):
    return (w.src, w.tgt, w.letters)


def _outcome(f, *args):
    """What a call did: the fields and ``repr`` of the word it returned,
    or the exception's type, arguments and witness."""
    try:
        w = f(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), exc.args, getattr(exc, "witness", None))
    return ("returned", _fields(w), repr(w))


# --------------------------------------------------------------- strategies

VERTICES = st.sampled_from([0, 1, True, "p", None, (0, 1)]) | st.just([0])
LETTER = st.tuples(st.sampled_from(["a", "b", 0]), st.sampled_from([1, -1]))


@st.composite
def fields(draw):
    letters = draw(st.lists(LETTER | LETTER.map(list), max_size=4))
    container = draw(st.sampled_from([tuple, tuple, list]))
    return draw(VERTICES), draw(VERTICES), container(letters)


def _pair(f):
    src, tgt, letters = f
    return OldWord(src=src, tgt=tgt, letters=letters), Word(src=src, tgt=tgt, letters=letters)


def _hash(w):
    try:
        return ("hash", hash(w))
    except TypeError as exc:
        return ("raised", exc.args)


# ------------------------------------------------------ the old contract


@settings(max_examples=300, deadline=None)
@given(f=fields())
def test_repr_str_hash_and_len_are_the_dataclass_ones(f):
    old, new = _pair(f)
    assert repr(new) == repr(old)
    assert str(new) == str(old)
    assert _hash(new) == _hash(old)
    assert len(new) == len(old)
    assert bool(new) == bool(old)
    assert new.is_empty() == old.is_empty()


@settings(max_examples=300, deadline=None)
@given(f=fields())
def test_positional_and_keyword_construction_agree(f):
    w = Word(*f)
    assert w == Word(src=f[0], tgt=f[1], letters=f[2])
    assert _fields(w) == f
    assert type(w) is Word


@settings(max_examples=300, deadline=None)
@given(f=fields(), g=fields())
def test_equality_among_words_is_the_dataclass_one(f, g):
    (old_f, new_f), (old_g, new_g) = _pair(f), _pair(g)
    assert (new_f == new_g) == (old_f == old_g)
    assert (new_f != new_g) == (old_f != old_g)
    assert new_f == Word(*f)


@settings(max_examples=300, deadline=None)
@given(f=fields(), g=fields())
def test_inverse_and_concat_are_the_dataclass_ones(f, g):
    (old_f, new_f), (old_g, new_g) = _pair(f), _pair(g)
    assert _outcome(new_f.inverse) == _outcome(old_f.inverse)
    assert type(new_f.inverse()) is Word
    assert _outcome(new_f.concat, new_g) == _outcome(old_f.concat, old_g)
    # Coterminal on purpose, so the letters meet as well.
    new_h, old_h = Word(f[1], g[1], g[2]), OldWord(f[1], g[1], g[2])
    assert _outcome(new_f.concat, new_h) == _outcome(old_f.concat, old_h)


def test_a_failed_concat_names_both_ends():
    a, b = Word(0, 1, (("a", 1),)), Word(2, 0, (("b", 1),))
    with pytest.raises(ValidationError, match="words do not concatenate") as info:
        a.concat(b)
    assert info.value.witness == (1, 2)


@pytest.mark.parametrize("name", ["src", "tgt", "letters", "other"])
def test_a_word_refuses_assignment(name):
    w = Word(0, 1, (("a", 1),))
    with pytest.raises(AttributeError):
        setattr(w, name, 2)
    with pytest.raises(AttributeError):
        delattr(w, name)
    assert _fields(w) == (0, 1, (("a", 1),))


@settings(max_examples=100, deadline=None)
@given(f=fields())
def test_copies_and_pickles_round_trip(f):
    w = Word(*f)
    for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(twin) is Word
        assert twin == w and repr(twin) == repr(w)


# ------------------------------------------------------------ new on purpose


def test_a_word_equals_its_plain_tuple_and_a_subclass_with_its_fields():
    class Tagged(Word):
        __slots__ = ()

    w = Word(0, 1, (("a", 1),))
    assert w == (0, 1, (("a", 1),)) and (0, 1, (("a", 1),)) == w
    assert hash(w) == hash((0, 1, (("a", 1),)))
    assert w == Tagged(0, 1, (("a", 1),))
    assert repr(Tagged(0, 1, ())) == f"{Tagged.__qualname__}(src=0, tgt=1, letters=())"
    assert {w: "x"}[(0, 1, (("a", 1),))] == "x"
    # The dataclass equalled none of these.
    old = OldWord(0, 1, (("a", 1),))
    assert old != (0, 1, (("a", 1),))


def test_a_word_unpacks_indexes_and_orders_like_a_tuple():
    w = Word("x", "y", (("a", 1), ("b", -1)))
    src, tgt, letters = w
    assert (src, tgt, letters) == ("x", "y", (("a", 1), ("b", -1)))
    assert (w[0], w[1], w[2], w[-1]) == ("x", "y", letters, letters)
    assert w[:2] == ("x", "y")
    assert len(w) == 2  # the letters, not the fields
    words = [Word(1, 0, ()), Word(0, 1, (("b", 1),)), Word(0, 1, (("a", 1),))]
    assert sorted(words) == sorted(tuple(v) for v in words)
    assert sorted(words)[0] == (0, 1, (("a", 1),))
    assert Word(0, 0, ()) < Word(0, 1, ())
    with pytest.raises(TypeError):
        OldWord(0, 0, ()) < OldWord(0, 1, ())  # noqa: B015 - the raise is the test


def test_cli_json_writes_a_word_as_an_array():
    w = Word("x", "y", (("a", 1),))
    want = json.dumps({"w": ["x", "y", [["a", 1]]]}, sort_keys=True, indent=2)
    assert cli._json({"w": w}) == want


# --------------------------------------------------- words built on pi1


def _torus(n):
    """An ``n`` by ``n`` torus grid with every tenth face removed, as a
    complex document: the shape of the benchmark's ``pi1-n20``."""
    def v(i, j):
        return f"v{i % n}_{j % n}"

    edges, faces = [], []
    for i in range(n):
        for j in range(n):
            edges += [f"  h{i}_{j}: {v(i, j)} {v(i, j + 1)}",
                      f"  u{i}_{j}: {v(i, j)} {v(i + 1, j)}"]
            faces.append(f"  f{i}_{j}: h{i}_{j} u{i}_{(j + 1) % n} "
                         f"h{(i + 1) % n}_{j}^-1 u{i}_{j}^-1")
    faces = [f for k, f in enumerate(faces) if k % 10]
    vertices = " ".join(v(i, j) for i in range(n) for j in range(n))
    return ["kind: complex", f"vertices: {vertices}", "edges:", *edges,
            "faces:", *faces]


@pytest.fixture
def built(monkeypatch):
    """The number of Words built since the fixture was set up."""
    counts = []
    make = Word.__new__

    def counted(cls, *args, **kwargs):
        counts.append(cls)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Word, "__new__", counted)
    return counts


def test_pi1_on_a_large_complex_builds_each_word_once(tmp_path, built, capsys):
    path = tmp_path / "torus.cx"
    path.write_text("\n".join(_torus(20)) + "\n", encoding="utf-8")
    argv = ["pi1", str(path), "--base", "v0_0", "--vertex", "v0_0", "--machine"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["relations"] == 360
    # 360 retracted relations and one empty word: the faces are read into
    # int rows, and no face word is built.
    assert len(built) == 361


def test_parsing_a_complex_or_a_cover_builds_no_word(tmp_path, built):
    path = tmp_path / "torus.cx"
    path.write_text("\n".join(_torus(12)) + "\n", encoding="utf-8")
    want = Word("v0_1", "v0_1", (("h0_1", 1), ("u0_2", 1), ("h1_1", -1), ("u0_1", -1)))
    del built[:]
    x = load_document(path).payload
    c = load_document(DATA / "wedge.cov").payload
    assert built == [] and c.x.validate() is c.x
    # a boundary word is named when it is read
    assert x.fboundary["f0_1"] == want and len(built) == 1


def test_the_relations_share_one_empty_word_per_base_point(tmp_path):
    path = tmp_path / "torus.cx"
    path.write_text("\n".join(_torus(6)) + "\n", encoding="utf-8")
    x = load_document(path).payload
    pres = fundamental_groupoid(x, ("v0_0", "v3_3", "v0_0"))
    empties = {}
    for lhs, rhs in pres.relations:
        assert rhs is empties.setdefault(lhs.src, rhs)
        assert rhs == empty_word(lhs.src)
    assert sorted(empties) == ["v0_0", "v3_3"]
