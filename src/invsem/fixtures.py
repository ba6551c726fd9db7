"""Built-in instance catalog and shared enumeration sweeps.

The sweeps are cached at module level because both the test suite and
the command line verifier quantify over the same data.
"""

from functools import cache

from . import actions, core, partial_bijections
from .core import validate


def _min_table(n):
    return [[min(i, j) for j in range(n)] for i in range(n)]


@cache
def catalog():
    out = {}
    out["trivial"] = validate([[0]], names=["e"])
    out["chain2"] = validate(_min_table(2), names=["0", "1"])
    out["z2"] = validate([[0, 1], [1, 0]], names=["1", "g"])
    out["chain3"] = validate(_min_table(3), names=["0", "1", "2"])
    out["fork"] = validate([[0, 0, 0], [0, 1, 0], [0, 0, 2]], names=["0", "e", "f"])
    out["z3"] = validate([[0, 1, 2], [1, 2, 0], [2, 0, 1]], names=["1", "g", "g2"])
    out["z2_zero"] = validate([[0, 0, 0], [0, 1, 2], [0, 2, 1]], names=["0", "1", "g"])
    out["chain4"] = validate(_min_table(4), names=["0", "1", "2", "3"])
    out["square4"] = core.direct_product(out["chain2"], out["chain2"])
    out["clifford4"] = core.direct_product(out["z2"], out["chain2"])
    b2 = [
        [0, 0, 0, 0, 0],
        [0, 1, 2, 0, 0],
        [0, 0, 0, 1, 2],
        [0, 3, 4, 0, 0],
        [0, 0, 0, 3, 4],
    ]
    out["b2"] = validate(b2, names=["0", "e11", "a12", "a21", "e22"])
    out["i1"] = partial_bijections.symmetric_inverse_monoid(1)[0]
    out["i2"] = partial_bijections.symmetric_inverse_monoid(2)[0]
    return out


# i1 is isomorphic to chain2, so sweeps skip it
SWEEP_NAMES = (
    "trivial", "chain2", "z2", "chain3", "fork", "z3", "z2_zero",
    "chain4", "square4", "clifford4", "b2", "i2",
)


@cache
def sweep_names(max_order):
    cat = catalog()
    return tuple(n for n in SWEEP_NAMES if cat[n].order <= max_order)


@cache
def action_sweep(max_order):
    """(k_name, t_name, action) for every enumerated action on catalog pairs."""
    cat = catalog()
    out = []
    for tname in sweep_names(max_order):
        for kname in sweep_names(max_order):
            for act in actions.enumerate_actions(cat[tname], cat[kname]):
                out.append((kname, tname, act))
    return tuple(out)


@cache
def afr_sweep(max_order):
    """(k_name, t_name, action, eps) for every pair passing check_AFR."""
    cat = catalog()
    out = []
    eps_of = {}             # (k_name, t_name) -> its eps maps, enumerated once
    for kname, tname, act in action_sweep(max_order):
        if (kname, tname) not in eps_of:
            eps_of[kname, tname] = actions.enumerate_surjective_eps(cat[kname], cat[tname])
        for eps in eps_of[kname, tname]:
            if actions.check_AFR(act, eps)[0]:
                out.append((kname, tname, act, eps))
    return tuple(out)


_PRODUCT_PAIRS = (
    ("chain2", "chain2"),
    ("z2", "chain2"),
    ("chain2", "z2"),
    ("z3", "z2"),
    ("chain3", "chain2"),
    ("z2_zero", "chain2"),
    ("fork", "chain2"),
    ("chain2", "fork"),
    ("z2", "z2"),
    ("chain2", "chain3"),
)

_PER_PAIR = 6
_SIZE_CAP = 24


@cache
def lsd_fixtures():
    from . import products
    cat = catalog()
    out = []
    for kname, tname in _PRODUCT_PAIRS:
        K, T = cat[kname], cat[tname]
        taken = 0
        for i, act in enumerate(actions.enumerate_actions(T, K)):
            if taken >= _PER_PAIR:
                break
            P = products.build_lsd(K, T, act)
            if P.sg.order > _SIZE_CAP:
                continue
            out.append((f"lsd({kname},{tname})#{i}", P))
            taken += 1
    return tuple(out)


@cache
def rsd_fixtures():
    from . import products
    cat = catalog()
    out = []
    for kname, tname in _PRODUCT_PAIRS:
        K, T = cat[kname], cat[tname]
        epss = actions.enumerate_surjective_eps(K, T)
        taken = 0
        for i, act in enumerate(actions.enumerate_actions(T, K)):
            if taken >= _PER_PAIR:
                break
            for j, eps in enumerate(epss):
                if taken >= _PER_PAIR:
                    break
                if not actions.check_AFR(act, eps)[0]:
                    continue
                P = products.build_rsd(K, T, act, eps)
                if P.sg.order > _SIZE_CAP:
                    continue
                out.append((f"rsd({kname},{tname})#{i}.{j}", P))
                taken += 1
    # one pointwise-power instance, so the wreath route shows up as well
    hw = products.build_hwr(cat["z2"], cat["chain2"])
    out.append(("rsd(P(z2,chain2),chain2)", hw.rsd))
    return tuple(out)
