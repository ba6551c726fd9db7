"""The symmetric inverse monoid I_n as `fixtures.symmetric_inverse_monoid`
builds it, against partial maps held as dicts."""

import hashlib

import numpy as np

from invsem.fixtures import symmetric_inverse_monoid


def as_dict(name):
    """The partial map an element name spells, "x>v,..." or "empty"."""
    if name == "empty":
        return {}
    return {int(x): int(v) for x, v in (pair.split(">") for pair in name.split(","))}


def test_monoid_orders():
    # sum over k of C(n,k)^2 * k!
    for n, expect in [(0, 1), (1, 2), (2, 7), (3, 34), (4, 209)]:
        S = symmetric_inverse_monoid(n)
        assert S.order == expect
        maps = [as_dict(name) for name in S.names]
        # every partial injective map once, in the lexicographic order of its
        # graph with -1 for undefined
        graphs = [tuple(f.get(x, -1) for x in range(n)) for f in maps]
        assert graphs == sorted(set(graphs))
        assert all(len(set(f.values())) == len(f) for f in maps)


def test_table_matches_composition():
    for n in (2, 3):
        S = symmetric_inverse_monoid(n)
        maps = [as_dict(name) for name in S.names]
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                # i*j is i after j
                assert maps[S.table[i, j]] == {x: f[v] for x, v in g.items() if v in f}


def test_idempotents_are_partial_identities():
    n = 3
    S = symmetric_inverse_monoid(n)
    idem = {tuple(sorted(as_dict(S.names[e]).items())) for e in S.idempotents}
    partial_ids = {tuple((x, x) for x in range(n) if mask >> x & 1) for mask in range(2 ** n)}
    assert idem == partial_ids and len(idem) == 2 ** n


def test_inverses_are_graph_inverses():
    for n in (2, 3, 4):
        S = symmetric_inverse_monoid(n)
        maps = [as_dict(name) for name in S.names]
        for f, finv in zip(maps, S.inv):
            assert maps[finv] == {v: x for x, v in f.items()}


def test_tables_and_names_are_pinned():
    digests = {3: "0e92be389615965b293eb3bafc0e306325d46bc6b7561c6ddbc4927ed99a0857",
               4: "c77e76e2f27fdc8a615d0daa51d062b14deb47bad4bb29cbf84d4ece444e4b97"}
    for n, digest in digests.items():
        S = symmetric_inverse_monoid(n)
        h = hashlib.sha256(np.asarray(S.table, dtype="<i8").tobytes())
        h.update("\n".join(S.names).encode())
        assert h.hexdigest() == digest, n

