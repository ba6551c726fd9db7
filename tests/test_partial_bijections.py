import pytest
from hypothesis import given, settings, strategies as st

from invsem import partial_bijections as pb
from invsem.core import TooLarge


def random_pb(degree):
    """Strategy: a partial injective map on {0..degree-1}."""
    def build(seed):
        xs = list(range(degree))
        graph = [pb.UNDEF] * degree
        free = list(range(degree))
        for x in xs:
            pick = seed % (len(free) + 1)
            seed //= len(free) + 1
            if pick < len(free):
                graph[x] = free.pop(pick)
        return pb.PartialBijection(degree, tuple(graph))
    return st.integers(min_value=0, max_value=10**6).map(build)


def test_monoid_orders():
    # sum over k of C(n,k)^2 * k!
    for n, expect in [(0, 1), (1, 2), (2, 7), (3, 34), (4, 209)]:
        S, of = pb.symmetric_inverse_monoid(n)
        assert S.order == expect
        assert len(of) == expect


def test_degree_bound():
    with pytest.raises(TooLarge) as e:
        pb.symmetric_inverse_monoid(5)
    assert e.value.size == 5 and e.value.bound == pb.SYM_DEGREE_BOUND
    with pytest.raises(ValueError):
        pb.symmetric_inverse_monoid(-1)


def test_table_matches_composition():
    S, of = pb.symmetric_inverse_monoid(2)
    for i in range(S.order):
        for j in range(S.order):
            assert of[S.table[i, j]] == pb.compose(of[i], of[j])
        # table-level inverse agrees with map-level inverse
        assert of[S.inv[i]] == pb.inverse(of[i])


def test_idempotents_are_partial_identities():
    S, of = pb.symmetric_inverse_monoid(3)
    idem = {of[int(e)].graph for e in S.idempotents}
    partial_ids = set()
    for mask in range(8):
        g = tuple(x if mask >> x & 1 else pb.UNDEF for x in range(3))
        partial_ids.add(g)
    assert idem == partial_ids  # 2^3 of them


def test_constructor_rejections():
    with pytest.raises(ValueError):
        pb.PartialBijection(2, (0, 0))  # not injective
    with pytest.raises(ValueError):
        pb.PartialBijection(2, (2, pb.UNDEF))  # value out of range
    with pytest.raises(ValueError):
        pb.PartialBijection(2, (0,))  # wrong length
    with pytest.raises(ValueError):
        pb.from_pairs(2, [(0, 0), (0, 1)])  # duplicate source
    with pytest.raises(pb.DegreeMismatch):
        pb.compose(pb.identity(2), pb.identity(3))


def test_identity_neutral():
    one = pb.identity(3)
    f = pb.from_pairs(3, [(0, 2), (2, 1)])
    assert pb.compose(one, f) == f
    assert pb.compose(f, one) == f
    assert f(0) == 2 and f(1) is None and f.rank == 2


def pb_as_dict(b):
    return {"degree": b.degree, "graph": [[x, v] for x, v in enumerate(b.graph) if v != pb.UNDEF]}


def pb_from_dict(d):
    return pb.from_pairs(d["degree"], d.get("graph", []))


def test_json_round_trip():
    f = pb.from_pairs(4, [(0, 3), (2, 2), (3, 1)])
    d = pb_as_dict(f)
    assert d == {"degree": 4, "graph": [[0, 3], [2, 2], [3, 1]]}
    assert pb_from_dict(d) == f
    empty = pb.PartialBijection(2, (pb.UNDEF, pb.UNDEF))
    assert pb_from_dict(pb_as_dict(empty)) == empty


@settings(max_examples=50, deadline=None)
@given(random_pb(4))
def test_inverse_laws(f):
    assert pb.inverse(pb.inverse(f)) == f
    assert pb.compose(pb.compose(f, pb.inverse(f)), f) == f
    assert pb.compose(pb.compose(pb.inverse(f), f), pb.inverse(f)) == pb.inverse(f)


@settings(max_examples=50, deadline=None)
@given(random_pb(3), random_pb(3), random_pb(3))
def test_composition_laws(f, g, h):
    assert pb.compose(pb.compose(f, g), h) == pb.compose(f, pb.compose(g, h))
    assert pb.inverse(pb.compose(f, g)) == pb.compose(pb.inverse(g), pb.inverse(f))
