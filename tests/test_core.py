import itertools

import pytest

from gpdkit import enumerate_morphisms
from gpdkit.core import (
    CompositionError,
    GroupoidMorphism,
    SizeGuardExceeded,
    ValidationError,
    alternating_group,
    build_groupoid,
    check_morphism,
    components,
    cyclic_group,
    disjoint_union,
    finite_group,
    from_group,
    interval_groupoid,
    subgroup,
    symmetric_group,
    vertex_group,
)


def perm_oracle_mul(p, q):
    # independent of the library: apply p, then q
    return tuple(q[p[i]] for i in range(len(p)))


def test_cyclic_group_table():
    c4 = cyclic_group(4)
    assert c4.unit == 0
    assert c4.mul(3, 2) == 1
    assert c4.inv(3) == 1
    c4.validate()


def test_symmetric_group_matches_permutation_product_oracle():
    s3 = symmetric_group(3)
    assert len(s3) == 6
    for p, q in itertools.product(s3.elements, repeat=2):
        assert s3.mul(p, q) == perm_oracle_mul(p, q)
    # nonabelian witness
    a, b = (1, 0, 2), (0, 2, 1)
    assert s3.mul(a, b) != s3.mul(b, a)


def test_group_validation_reports_witness_triple():
    elems = ("e", "x")
    table = {
        ("e", "e"): "e",
        ("e", "x"): "x",
        ("x", "e"): "x",
        ("x", "x"): "x",  # forces a law failure
    }
    with pytest.raises(ValidationError):
        finite_group(elems, table, unit="e")


def test_subgroup_rejects_non_closed_carrier():
    s3 = symmetric_group(3)
    with pytest.raises(ValidationError) as err:
        subgroup(s3, ((0, 1, 2), (1, 0, 2), (0, 2, 1)))
    assert err.value.witness is not None


def test_interval_groupoid_shape():
    i = interval_groupoid()
    assert len(i.arrows) == 4
    assert i.compose("i", "i_inv") == "id0"
    assert i.compose("i_inv", "i") == "id1"
    assert i.inverse("i") == "i_inv"
    vg = vertex_group(i, 0)
    assert len(vg) == 1


def test_from_group_s3_composition_table():
    s3 = symmetric_group(3)
    g = from_group(s3)
    assert len(g.arrows) == 6
    for p, q in itertools.product(s3.elements, repeat=2):
        assert g.compose(p, q) == perm_oracle_mul(p, q)


def test_vertex_group_of_disjoint_union():
    g = disjoint_union(interval_groupoid(), from_group(cyclic_group(3)))
    vg = vertex_group(g, ("r", "*"))
    assert len(vg) == 3
    got = {(a[1], b[1]): vg.mul(a, b)[1] for a in vg.elements for b in vg.elements}
    want = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    assert got == want


def test_components_against_reachability_oracle():
    g = disjoint_union(interval_groupoid(), from_group(cyclic_group(2)))
    blocks = components(g)
    assert len(blocks) == 2

    # oracle: undirected reachability over arrows
    def reachable(x, y):
        seen = {x}
        frontier = [x]
        while frontier:
            v = frontier.pop()
            for a in g.arrows:
                for s, t in ((g.src[a], g.tgt[a]), (g.tgt[a], g.src[a])):
                    if s == v and t not in seen:
                        seen.add(t)
                        frontier.append(t)
        return y in seen

    for block in blocks:
        for x, y in itertools.product(block, repeat=2):
            assert reachable(x, y)
    for b1, b2 in itertools.combinations(blocks, 2):
        assert not reachable(b1[0], b2[0])


def test_compose_rejects_non_composable():
    i = interval_groupoid()
    with pytest.raises(CompositionError):
        i.compose("i", "i")


def test_build_groupoid_flags_missing_composite():
    with pytest.raises(ValidationError):
        build_groupoid(
            objects=(0,),
            arrows=("e", "a"),
            src={"e": 0, "a": 0},
            tgt={"e": 0, "a": 0},
            comp={("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a"},
        )


def test_check_morphism_collapse_is_valid():
    i = interval_groupoid()
    f = GroupoidMorphism(
        obj_map={0: 0, 1: 0},
        arrow_map={"id0": "id0", "id1": "id0", "i": "id0", "i_inv": "id0"},
    )
    assert check_morphism(f, i, i).ok


def test_check_morphism_flags_broken_inverse_assignment():
    i = interval_groupoid()
    f = GroupoidMorphism(
        obj_map={0: 0, 1: 1},
        arrow_map={"id0": "id0", "id1": "id1", "i": "i", "i_inv": "i"},
    )
    report = check_morphism(f, i, i)
    assert not report.ok
    assert "i_inv" in report.witness


def test_enumerate_morphisms_counts():
    i = interval_groupoid()
    c2 = from_group(cyclic_group(2))
    c3 = from_group(cyclic_group(3))
    assert len(enumerate_morphisms(i, c2)) == 2
    assert len(enumerate_morphisms(c3, c2)) == 1
    # discrete two-object groupoid into the interval: object maps only
    disc = build_groupoid(
        objects=("p", "q"),
        arrows=("ip", "iq"),
        src={"ip": "p", "iq": "q"},
        tgt={"ip": "p", "iq": "q"},
        comp={("ip", "ip"): "ip", ("iq", "iq"): "iq"},
    )
    assert len(enumerate_morphisms(disc, i)) == 4


def test_enumerate_morphisms_endomorphism_count_s3():
    s3 = from_group(symmetric_group(3))
    assert len(enumerate_morphisms(s3, s3)) == 10


def test_morphism_count_multiplicative_over_disjoint_union():
    c2 = from_group(cyclic_group(2))
    c3 = from_group(cyclic_group(3))
    i = interval_groupoid()
    u = disjoint_union(i, c3)
    lhs = len(enumerate_morphisms(u, c2))
    rhs = len(enumerate_morphisms(i, c2)) * len(enumerate_morphisms(c3, c2))
    assert lhs == rhs


def test_enumerate_morphisms_respects_size_guard():
    s3 = from_group(symmetric_group(3))
    with pytest.raises(SizeGuardExceeded):
        enumerate_morphisms(s3, s3, guard=10)


def test_every_enumerated_morphism_passes_check():
    i = interval_groupoid()
    c2 = from_group(cyclic_group(2))
    for f in enumerate_morphisms(i, c2):
        assert check_morphism(f, i, c2).ok


def test_alternating_group_inside_symmetric():
    a3 = alternating_group(3)
    s3 = symmetric_group(3)
    assert set(a3.elements) <= set(s3.elements)
    assert len(a3) == 3
