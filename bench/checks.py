"""Correctness checks for the benchmark, computed apart from invsem.

Every function here works on plain integer arrays (Cayley tables, action
tables, class labels, maps) and uses no invsem code, so a fault in the
program cannot hide itself by also being in the check.  Each returns
True/False or a list of problems; an empty list means the check passed.
"""

import numpy as np


# ------------------------------------------------------------------ tables

def inverses(table):
    """The unique x with a x a = a and x a x = x, for every a."""
    T = np.asarray(table)
    ar = np.arange(len(T))
    inv = np.empty(len(T), dtype=np.int64)
    for a in ar:
        xs = np.flatnonzero((T[T[a, ar], a] == a) & (T[T[ar, a], ar] == ar))
        if len(xs) != 1:
            raise ValueError(f"element {a} has {len(xs)} inverses")
        inv[a] = xs[0]
    return inv


def idempotents(table):
    T = np.asarray(table)
    ar = np.arange(len(T))
    return np.flatnonzero(T[ar, ar] == ar)


def inverse_identities_hold(table, inv):
    """x x^-1 x = x and x^-1 x x^-1 = x^-1 for every x."""
    T = np.asarray(table)
    inv = np.asarray(inv)
    ar = np.arange(len(T))
    return bool((T[T[ar, inv], ar] == ar).all() and (T[T[inv, ar], inv] == inv).all())


def sample_triples(n, rng, size):
    """All n^3 triples when that is at most `size`, else `size` random ones."""
    if n ** 3 <= size:
        grid = np.indices((n, n, n)).reshape(3, -1)
        return grid[0], grid[1], grid[2]
    return tuple(rng.integers(0, n, size=size) for _ in range(3))


def associates_on(table, triples):
    T = np.asarray(table)
    a, b, c = triples
    return bool((T[T[a, b], c] == T[a, T[b, c]]).all())


def is_homomorphism(m, src, dst):
    m = np.asarray(m)
    src, dst = np.asarray(src), np.asarray(dst)
    if m.shape != (len(src),) or m.min() < 0 or m.max() >= len(dst):
        return False
    return bool((m[src] == dst[m[:, None], m[None, :]]).all())


def is_injective_homomorphism(m, src, dst):
    return is_homomorphism(m, src, dst) and len(set(np.asarray(m).tolist())) == len(m)


def is_bijective_homomorphism(m, src, dst):
    return is_injective_homomorphism(m, src, dst) and len(m) == len(dst)


# ------------------------------------------------------------------ actions

def action_law_failures(K, T, acts):
    """Indices of the action tables act[t, a] = t.a that break a law:
    each t acts by an endomorphism, t.(ab) = (t.a)(t.b), and the action is
    a homomorphism, (tu).a = t.(u.a)."""
    K, T = np.asarray(K), np.asarray(T)
    m, n = len(T), len(K)
    A = np.asarray(acts, dtype=np.int64).reshape(-1, m, n)
    if not len(A):
        return []
    in_range = ((A >= 0) & (A < n)).all(axis=(1, 2))
    A = np.where(in_range[:, None, None], A, 0)
    endo = (A[:, :, K] == K[A[:, :, :, None], A[:, :, None, :]]).all(axis=(1, 2, 3))
    rows = np.arange(len(A))[:, None, None, None]
    ts = np.arange(m)[None, :, None, None]
    hom = (A[:, T, :] == A[rows, ts, A[:, None, :, :]]).all(axis=(1, 2, 3))
    return np.flatnonzero(~(in_range & endo & hom)).tolist()


def duplicate_count(arrays):
    return len(arrays) - len({np.asarray(a).tobytes() for a in arrays})


def count_actions(K, T):
    """Number of actions of T on K by endomorphisms, by plain backtracking.

    End(K) is found by trying every self-map; then the elements of T are
    given endomorphisms in index order, and each pair (x, y) is checked as
    soon as x, y and xy all have one.
    """
    K, T = np.asarray(K).tolist(), np.asarray(T).tolist()
    n, m = len(K), len(T)
    endos = []
    for code in range(n ** n):
        f = [(code // n ** i) % n for i in range(n)]
        if all(f[K[a][b]] == K[f[a]][f[b]] for a in range(n) for b in range(n)):
            endos.append(tuple(f))
    pos = {f: i for i, f in enumerate(endos)}
    # comp[i][j] is the endomorphism a -> f_i(f_j(a)), since (tu).a = t.(u.a)
    comp = [[pos[tuple(fi[fj[a]] for a in range(n))] for fj in endos] for fi in endos]
    due = [[] for _ in range(m)]
    for x in range(m):
        for y in range(m):
            due[max(x, y, T[x][y])].append((x, y, T[x][y]))
    assigned = [0] * m

    def extend(k):
        if k == m:
            return 1
        total = 0
        for e in range(len(endos)):
            assigned[k] = e
            if all(comp[assigned[x]][assigned[y]] == assigned[z] for x, y, z in due[k]):
                total += extend(k + 1)
        return total

    return extend(0)


def afr_direct(K, T, act, eps):
    """The fixed-range axiom read off the tables: for every idempotent e of
    T and every a in K, e.a = a exactly when eps(a) <= e, where for
    idempotents f <= e means f = fe."""
    T = np.asarray(T)
    act, eps = np.asarray(act), np.asarray(eps)
    E = idempotents(T)
    fixed = act[E] == np.arange(len(act[0]))[None, :]              # [e, a]
    below = T[eps[None, :], E[:, None]] == eps[None, :]            # [e, a]
    return bool((fixed == below).all())


# ------------------------------------------------------------------ congruences

def canonical(labels):
    """Class labels renumbered by first appearance, as a tuple."""
    seen = {}
    return tuple(seen.setdefault(int(c), len(seen)) for c in labels)


def is_compatible(table, labels):
    """a ~ a' implies ab ~ a'b and ba ~ ba' for every b."""
    T = np.asarray(table)
    c = np.asarray(labels)
    if c.shape != (len(T),):
        return False
    first = {}
    rep = np.array([first.setdefault(int(x), i) for i, x in enumerate(c)])
    return bool((c[T] == c[T[rep]]).all() and (c[T] == c[T[:, rep]]).all())


def interval_partitions(n):
    """Every partition of the chain 0 < 1 < ... < n-1 into intervals, canonically
    labelled; for the chain these are exactly its congruences."""
    out = set()
    for cuts in range(1 << (n - 1)):
        labels, k = [0], 0
        for i in range(1, n):
            k += (cuts >> (i - 1)) & 1
            labels.append(k)
        out.add(tuple(labels))
    return out


# ------------------------------------------------------------------ wreath products

def principal_ideal(T, e):
    return sorted({int(x) for x in np.asarray(T)[:, e]})


def wreath_counts(K, T, eta=None):
    """Order and idempotent count of the partial-map wreath product of K by T.

    Its elements are the pairs (f, t) with f a map from the ideal T.ran(t)
    to K, so the order is the sum over t of |K|^|T.ran(t)|, and (f, t) is
    idempotent when t is and f takes idempotent values.  With a fiber map
    eta (K onto the idempotents of T, given as T indices), f(x) is further
    confined to the fiber over ran(x).
    """
    K, T = np.asarray(K), np.asarray(T)
    invT = inverses(T)
    rans = T[np.arange(len(T)), invT]
    EK = set(idempotents(K).tolist())
    allowed = []
    for x in range(len(T)):
        if eta is None:
            allowed.append(list(range(len(K))))
        else:
            allowed.append([a for a in range(len(K)) if int(eta[a]) == int(rans[x])])
    order = 0
    for t in range(len(T)):
        order += int(np.prod([len(allowed[x]) for x in principal_ideal(T, rans[t])]))
    idem = 0
    for e in idempotents(T):
        idem += int(np.prod([len(EK.intersection(allowed[x])) for x in principal_ideal(T, e)]))
    return order, idem


def remark43_problems(K, T, lwr, hwr):
    """Restricting total maps to T.ran(t), and extending maps on T.ran(t) along
    x -> x.ran(t), are inverse bijections between the total-map wreath
    product `lwr` and the partial-map one `hwr` (both instance documents with
    "table" and "elements"), and the restriction is a homomorphism.

    Element labels: in `lwr`, (f, t) with f the base-|K| number whose digit
    at place x (most significant first) is the value at x; in `hwr`, (p, t)
    with p counted through one block per idempotent e of T (in index order)
    of base-|K| numbers over the sorted ideal Te.
    """
    K, T = np.asarray(K), np.asarray(T)
    nK, nT = len(K), len(T)
    rans = T[np.arange(nT), inverses(T)]
    ideals, offset, off = {}, {}, 0
    for e in idempotents(T).tolist():
        ideals[e] = principal_ideal(T, e)
        offset[e] = off
        off += nK ** len(ideals[e])

    def number(values):
        v = 0
        for d in values:
            v = v * nK + int(d)
        return v

    def digits(v, width):
        out = []
        for _ in range(width):
            out.append(v % nK)
            v //= nK
        return out[::-1]

    block_of = sorted((o, e) for e, o in offset.items())
    l_index = {(int(f), int(t)): i for i, (f, t) in enumerate(lwr["elements"])}
    h_index = {(int(p), int(t)): i for i, (p, t) in enumerate(hwr["elements"])}
    problems = []
    if len(l_index) != len(lwr["elements"]) or len(h_index) != len(hwr["elements"]):
        return ["element labels repeat"]
    restrict = np.full(len(l_index), -1, dtype=np.int64)
    for (f, t), i in l_index.items():
        total = digits(f, nT)
        e = int(rans[t])
        restrict[i] = h_index.get((offset[e] + number(total[x] for x in ideals[e]), t), -1)
    extend = np.full(len(h_index), -1, dtype=np.int64)
    for (p, t), i in h_index.items():
        e = [e for o, e in block_of if o <= p][-1]
        local = dict(zip(ideals[e], digits(p - offset[e], len(ideals[e]))))
        if e != int(rans[t]):
            problems.append(f"hwr element {i} has domain {e}, not ran({t})")
            continue
        extend[i] = l_index.get((number(local[int(T[x, e])] for x in range(nT)), t), -1)
    ar_l, ar_h = np.arange(len(restrict)), np.arange(len(extend))
    if (restrict < 0).any() or (extend < 0).any():
        problems.append("a restricted or extended map is not an element")
    elif not (np.array_equal(extend[restrict], ar_l) and np.array_equal(restrict[extend], ar_h)):
        problems.append("restriction and extension are not inverse bijections")
    elif not is_homomorphism(restrict, lwr["table"], hwr["table"]):
        problems.append("restriction is not a homomorphism")
    return problems
