import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from invsem import congruences, core, fixtures, products


@pytest.fixture(scope="session")
def catalog():
    return fixtures.catalog()


@pytest.fixture(scope="session")
def lsd_fixtures():
    return fixtures.lsd_fixtures()


@pytest.fixture(scope="session")
def rsd_fixtures():
    return fixtures.rsd_fixtures()


def _peak_traced(fn):
    """Call fn() and return the peak of the memory traced meanwhile, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def peak_traced():
    """peak_traced(fn): the traced peak, in bytes, of calling fn()."""
    return _peak_traced


def _zero_with_atoms(k):
    ar = np.arange(k + 1)
    table = np.zeros((k + 1, k + 1), dtype=np.int64)
    table[ar, ar] = ar
    return core.validate(table)


@pytest.fixture(scope="session")
def zero_with_atoms():
    """zero_with_atoms(k): the semilattice of a zero 0 and k atoms 1..k.  Its
    order is k + 1, its hull's 2^k, and k! of its automorphisms fix 0."""
    return _zero_with_atoms


def _kernel_via_congruence(P):
    """Members of the kernel of ker(pi2), through the congruence machinery."""
    return congruences.kernel(products.pi2_congruence(P))


def _kernel_lsd(P):
    """Fiberwise kernel of the unrestricted product: over e it is e.K x {e}."""
    act = P.action.act
    A, U = P.elements.T
    out = {}
    for e in P.T.idempotents:
        members = P.pairdex[np.unique(act[e]), e]
        fixed = np.flatnonzero((U == e) & (act[e, A] == A))
        assert np.array_equal(members, fixed), (e, np.setxor1d(members, fixed))
        out[e] = tuple(members.tolist())
    return out


def _kernel_rsd(P):
    """Fiberwise kernel of the restricted product: over e it is K_e x {e}."""
    return {e: tuple(P.pairdex[np.flatnonzero(P.eps.map == e), e].tolist())
            for e in P.T.idempotents}


@pytest.fixture(scope="session")
def kernels():
    """The kernel of ker(pi2) of a pair product three ways: `lsd` and `rsd`
    by the fiber formulas, e -> members over e, and `via_congruence`."""
    return SimpleNamespace(lsd=_kernel_lsd, rsd=_kernel_rsd,
                           via_congruence=_kernel_via_congruence)
