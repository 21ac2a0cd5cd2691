"""Independent reference implementations used as test oracles.

Everything here recomputes quantities from first principles by a route
different from the package's (subset-sum spans, matchings grown member
by member, literal definitions), so agreement is evidence and not
tautology.
"""

import itertools

import numpy as np

from kinser import elements_of

FANO_COLS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def gf2_span_closure(mask: int) -> int:
    """Closure of a Fano column set = columns lying in the GF(2) span."""
    chosen = [FANO_COLS[i] for i in elements_of(mask)]
    span = set()
    for bits in range(1 << len(chosen)):
        v = (0, 0, 0)
        for i, col in enumerate(chosen):
            if (bits >> i) & 1:
                v = tuple((a + b) % 2 for a, b in zip(v, col))
        span.add(v)
    out = 0
    for j, col in enumerate(FANO_COLS):
        if col in span:
            out |= 1 << j
    return out


def brute_matching_rank(x: int, family: tuple[int, ...]) -> int:
    """Largest partial transversal of X, from the definition: the subsets of
    X whose elements get distinct members containing them, grown one member
    at a time (member j either stays unused or takes one new element)."""
    matched = {0}
    for a in family:
        a &= x
        matched |= {s | (1 << e) for s in matched for e in elements_of(a & ~s)}
        if x in matched:
            break
    return max(s.bit_count() for s in matched)


def ingleton_sides(r, x1, x2, x3, x4):
    """The Ingleton inequality's two sides, written out literally, for any
    rank function r; with numpy mask arrays the sets broadcast."""
    lhs = r(x3) + r(x4) + r(x1 | x2) + r(x1 | x3 | x4) + r(x2 | x3 | x4)
    rhs = r(x1 | x3) + r(x1 | x4) + r(x2 | x3) + r(x2 | x4) + r(x3 | x4)
    return lhs, rhs


def ingleton_value(M, x1, x2, x3, x4):
    return ingleton_sides(M.rank, x1, x2, x3, x4)


def conditional_information(r, a, b, c=0):
    """I(A;B|C) = r(A u C) + r(B u C) - r(A u B u C) - r(C), written out
    literally for any rank function r; I(A;B) is the case C = empty set."""
    return r(a | c) + r(b | c) - r(a | b | c) - r(c)


def kinser_value(M, sets):
    """Inequality n from the displayed formula, 1-based summation indices."""
    return kinser_sides(M.rank, sets)


def kinser_sides(r, sets):
    """Inequality n's two sides, written out literally, for any rank
    function r; with numpy mask arrays the sets broadcast."""
    n = len(sets)
    X = [None] + list(sets)

    def u(*idx):
        m = 0
        for i in idx:
            m = m | X[i]  # not in place, so that sets of any shapes broadcast
        return m

    lhs = sum(r(X[i]) for i in range(3, n + 1)) + r(u(1, 2)) + r(u(1, 3, n))
    lhs += sum(r(u(2, i - 1, i)) for i in range(4, n + 1))
    rhs = r(u(1, 3)) + r(u(1, n)) + sum(r(u(2, i)) for i in range(3, n + 1))
    rhs += sum(r(u(i - 1, i)) for i in range(4, n + 1))
    return lhs, rhs


def definition_closure(M, x: int) -> int:
    return x | sum(1 << e for e in range(M.m)
                   if not (x >> e) & 1 and M.rank(x | (1 << e)) == M.rank(x))


def closure_hull(M, masks) -> list[int]:
    """The sorted least superset of ``masks`` that holds cl(X u Y) for each
    pair X, Y of its members (X = Y included), closures by definition."""
    hull, fresh = set(masks), set(masks)
    while fresh:
        fresh = {definition_closure(M, a | b) for a in hull for b in fresh} - hull
        hull |= fresh
    return sorted(hull)


def literal_minor(M, deletions: int, contractions: int) -> list[int]:
    """Ranks of M / C \\ D by definition, one mask at a time: entry Y is
    r(X u C) - r(C), where X puts bit i of Y on the i-th kept element."""
    kept = [e for e in range(M.m) if not (deletions | contractions) >> e & 1]
    base = M.rank(contractions)
    return [M.rank(contractions | sum(1 << e for i, e in enumerate(kept) if y >> i & 1)) - base
            for y in range(1 << len(kept))]


def literal_search_tables(M, masks, pruning: bool):
    """The n = 4 search tables from their definitions, by per-pair loops
    over ``M.rank``: PR[i][j] = r(Xi u Xj); the lex-ordered pair list, every
    (i, j) or with ``pruning`` those with i <= j and
    r(X3) + r(X4) - r(X3 u X4) > r(cl X3 n cl X4); that difference per
    pair; per pair the row r(X3 u X4 u Xj) over j; and per pair the index
    of cl(X3 u X4) in ``masks``, which must hold it."""
    r = M.rank
    PR = [[r(a | b) for b in masks] for a in masks]
    pairs = []
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            meet = definition_closure(M, a) & definition_closure(M, b)
            if not pruning or (i <= j and r(a) + r(b) - r(a | b) > r(meet)):
                pairs.append((i, j))
    c34 = [r(masks[i]) + r(masks[j]) - r(masks[i] | masks[j]) for i, j in pairs]
    triples = [[r(masks[i] | masks[j] | x) for x in masks] for i, j in pairs]
    closures = [definition_closure(M, masks[i] | masks[j]) for i, j in pairs]
    return PR, pairs, c34, triples, [masks.index(c) for c in closures]


def definition_flats(M) -> list[int]:
    """Flats as deduplicated closures of every subset."""
    return sorted({definition_closure(M, x) for x in range(1 << M.m)})


def definition_is_circuit(M, x: int) -> bool:
    """Dependent with every proper subset independent (all of them)."""
    if M.rank(x) == M.size(x):
        return False
    els = elements_of(x)
    for k in range(len(els)):
        for sub in itertools.combinations(els, k):
            s = sum(1 << e for e in sub)
            if M.rank(s) != len(sub):
                return False
    return True


def gf_column_rank(p: int, columns) -> int:
    """Rank of integer column vectors mod p by full elimination."""
    if not columns:
        return 0
    a = np.array(columns, dtype=np.int64).T % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r, c] % p), None)
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        for r in range(rows):
            if r != rank and a[r, c] % p:
                a[r] = (a[r] - a[r, c] * a[rank]) % p
        rank += 1
    return rank


def bias_rank_oracle(edges, group_order: int, x: int) -> int:
    """Frame-matroid rank by linear algebra over Z_p (p = 1, 2 or 3).

    Components found by union-find; a component is balanced iff the system
    phi(head) - phi(tail) = label (and 0 = label for loops) is consistent,
    decided by Gaussian elimination over Z_p on the incidence system.
    """
    idxs = [i for i in range(len(edges)) if (x >> i) & 1]
    verts = sorted({v for i in idxs for v in (edges[i][0], edges[i][1])})
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in idxs:
        u, v = edges[i][0], edges[i][1]
        parent[find(u)] = find(v)
    comps: dict[int, list[int]] = {}
    for i in idxs:
        comps.setdefault(find(edges[i][0]), []).append(i)

    balanced = 0
    for comp_edges in comps.values():
        if group_order == 1:
            balanced += 1
            continue
        vs = sorted({v for i in comp_edges for v in (edges[i][0], edges[i][1])})
        col = {v: j for j, v in enumerate(vs)}
        rows = []
        rhs = []
        consistent = True
        for i in comp_edges:
            u, v, lab, is_loop = edges[i]
            if is_loop:
                consistent = False
                break
            row = [0] * len(vs)
            row[col[v]] = (row[col[v]] + 1) % group_order
            row[col[u]] = (row[col[u]] - 1) % group_order
            rows.append(row)
            rhs.append(lab % group_order)
        if consistent:
            aug = [row + [b] for row, b in zip(rows, rhs)]
            a = np.array(aug, dtype=np.int64)
            p = group_order
            rank = 0
            for c in range(len(vs)):
                piv = next((r for r in range(rank, len(aug)) if a[r, c] % p), None)
                if piv is None:
                    continue
                a[[rank, piv]] = a[[piv, rank]]
                inv = pow(int(a[rank, c]), p - 2, p)
                a[rank] = (a[rank] * inv) % p
                for r2 in range(len(aug)):
                    if r2 != rank and a[r2, c] % p:
                        a[r2] = (a[r2] - a[r2, c] * a[rank]) % p
                rank += 1
            consistent = not any((row[:-1] % p == 0).all() and row[-1] % p
                                 for row in a)
        balanced += 1 if consistent else 0
    return len(verts) - balanced


def literal_rank_tokens(body: str) -> list[int]:
    """A ranks body read literally: every token of every line that is not a
    '#' comment, cut at the six ASCII space characters (space, tab, line
    feed, carriage return, vertical tab, form feed).  A token is an optional
    ASCII sign, then one or more ASCII digits, summed digit by digit; any
    other token raises ValueError.
    """
    values = []
    for line in body.splitlines():
        if line.strip().startswith("#"):
            continue
        token = ""
        for ch in line + " ":
            if ch not in " \t\n\r\x0b\x0c":
                token += ch
                continue
            if token:
                sign = token[0] if token[0] in "+-" else ""
                digits = token[len(sign):]
                if not digits or any(d not in "0123456789" for d in digits):
                    raise ValueError(f"not a decimal token: {token!r}")
                value = 0
                for d in digits:
                    value = 10 * value + "0123456789".index(d)
                values.append(-value if sign == "-" else value)
            token = ""
    return values


def literal_rank_violation(m: int, table) -> tuple[str, tuple] | None:
    """First rank-axiom violation found by literal loops, or None.

    Order: r(0) = 0, then r(X) <= |X| by X; r(X) <= r(X + e) by e, then X;
    r(X + e) + r(X + f) >= r(X + e + f) + r(X) by e < f, then X.
    """
    r = [int(v) for v in table]
    if r[0] != 0:
        return "R1", (0,)
    for x in range(1 << m):
        if r[x] > bin(x).count("1"):
            return "R1", (x,)
    for e in range(m):
        for x in range(1 << m):
            if not (x >> e) & 1 and r[x | 1 << e] < r[x]:
                return "R2", (x, x | 1 << e)
    for e in range(m):
        for f in range(e + 1, m):
            for x in range(1 << m):
                if (x >> e) & 1 or (x >> f) & 1:
                    continue
                xe, xf = x | 1 << e, x | 1 << f
                if r[xe] + r[xf] < r[xe | xf] + r[x]:
                    return "R3", (xe, xf)
    return None


def literal_independence_violation(m: int, table) -> tuple[str, tuple] | None:
    """First independence-axiom violation found by literal loops, or None.

    X is independent when r(X) = |X|.  Order: I1 on the empty set; I2 as
    (X + e, X) with X + e independent and X dependent, by e, then X; I3
    as (I, J) with |J| = |I| + 1 and no e in J - I making I + e
    independent, by |I|, then I, then J.
    """
    indep = [int(table[x]) == bin(x).count("1") for x in range(1 << m)]
    if not indep[0]:
        return "I1", (0,)
    for e in range(m):
        for x in range(1 << m):
            if not (x >> e) & 1 and indep[x | 1 << e] and not indep[x]:
                return "I2", (x | 1 << e, x)
    for k in range(m):
        smaller = [x for x in range(1 << m) if indep[x] and bin(x).count("1") == k]
        larger = [x for x in range(1 << m) if indep[x] and bin(x).count("1") == k + 1]
        for i in smaller:
            for j in larger:
                if not any((j >> e) & 1 and not (i >> e) & 1 and indep[i | 1 << e]
                           for e in range(m)):
                    return "I3", (i, j)
    return None


def brute_force_automorphisms(M) -> list[tuple[int, ...]]:
    """Every permutation sigma of the ground set (m <= 8) with
    r(sigma X) = r(X) for all 2^m sets X, by trying all m! of them.

    sigma[e] is the image of element e; sigma X is built bit by bit.
    """
    assert M.m <= 8
    xs = np.arange(1 << M.m)
    bits = [(xs >> e) & 1 for e in range(M.m)]
    table = np.asarray(M.table)
    out = []
    perms = list(itertools.permutations(range(M.m)))
    for start in range(0, len(perms), 720):
        batch = np.array(perms[start:start + 720])
        image = sum(bits[e][None, :] << batch[:, e, None] for e in range(M.m))
        keep = (table[image] == table[None, :]).all(axis=1)
        out.extend(perms[start + i] for i in np.flatnonzero(keep))
    return out


def permuted_mask(sigma, x: int) -> int:
    """sigma X for a mask X: element e goes to sigma[e]."""
    return sum(1 << int(sigma[e]) for e in elements_of(x))


def orbit_minima(group, masks: list[int]) -> list[int]:
    """Indices of the masks that come first in their orbit under the group."""
    index = {x: i for i, x in enumerate(masks)}
    return [i for i, x in enumerate(masks)
            if all(index[permuted_mask(g, x)] >= i for g in group)]
