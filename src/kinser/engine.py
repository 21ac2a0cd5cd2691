"""Kinser inequality evaluation and exhaustive bad-family search.

Inequality n (n >= 4) compares, for subsets X_1..X_n,

    sum_{i=3..n} r(X_i) + r(X1 u X2) + r(X1 u X3 u Xn)
        + sum_{i=4..n} r(X2 u X_{i-1} u X_i)
    <=  r(X1 u X3) + r(X1 u Xn) + sum_{i=3..n} r(X2 u X_i)
        + sum_{i=4..n} r(X_{i-1} u X_i)

with 2n-3 terms per side; n = 4 is the Ingleton inequality.  The search
for violating families runs over the flats of the matroid (replacing each
set by its closure changes no term rank, so this loses nothing), in
lexicographic tuple order, with optional pruning by two rules.

Symmetry:

* for every n the inequality is invariant under reversing (X3, ..., Xn);
* at n = 4 it is additionally invariant under swapping X1 with X2 and
  under swapping X3 with X4 independently.

A tuple is enumerated only if it is the lexicographically least member of
its orbit; the least violating tuple overall is always canonical.

Common information (n = 4 only):  the Ingleton margin is

    I(X3;X4) - I(X3;X4|X1) - I(X3;X4|X2) - I(X1;X2)

with I(A;B) = r(A) + r(B) - r(A u B) and I(A;B|C) the same with C joined to
every set.  If some Z lies in cl X3 and in cl X4 with r(Z) = I(X3;X4), no
(X1, X2) can make the margin positive (Hammer, Romashchenko, Shen and
Vereshchagin, JCSS 2000).  Sketch, by submodularity alone, with A = X3
and B = X4: r(A u C) + r(B u C) >= r(A u B u C) + r(Z u C) gives
r(Z u C) - r(C) <= I(A;B|C) for C = X1 and for C = X2, and
r(Z u X1) + r(Z u X2) >= r(X1 u X2) + r(Z) adds up to
I(X3;X4) = r(Z) <= I(X3;X4|X1) + I(X3;X4|X2) + I(X1;X2).  For closed sets
Z = cl X3 n cl X4 qualifies exactly when (cl X3, cl X4) is a modular pair,
r(cl X3) + r(cl X4) = r(X3 u X4) + r(cl X3 n cl X4), so only non-modular
(X3, X4) pairs are scanned.

A pruned tuple either cannot violate or is not the least of its orbit, so
pruning changes neither the verdict nor the lex-first certificate.

Closure (n = 4 precompute):  r(A u B) = r(A u cl B) for any sets, since
A u B <= A u cl B <= cl(A u B) and rank is monotone with r(cl S) = r(S).
So r(Xj u X3 u X4) = r(Xj u U) with U = cl(X3 u X4), and the n = 4 array

    GP[j][p] = RU[U_of[p]][j] - PR[P3[p]][j] - PR[P4[p]][j]

is read off the pair ranks PR[i][j] = r(Xi u Xj) and one rank row
RU[u][j] = r(U_u u Xj) per distinct closure, without touching the 2^m
table per entry.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Matroid, MatroidError, SizeCapError, content_fingerprint
from .transforms import dual

ALL_SUBSETS_LIMIT = 8       # all-subsets search space allowed only up to this m
# n=4 GP bytes held at once (512 MiB); above it GP is rebuilt in cached
# blocks of X2 rows, an eighth of the limit each (64 MiB), for every X1
TENSOR_BYTES_LIMIT = 1 << 29
SCAN_BLOCK = 1 << 18        # int8 entries per n=4 scan or build block


@dataclass(frozen=True)
class Family:
    """Ordered tuple X_1..X_n of subset masks; repeats and empties allowed."""

    n: int
    sets: tuple[int, ...]

    def __post_init__(self):
        if self.n < 4:
            raise MatroidError(f"inequality index must be >= 4, got {self.n}")
        if len(self.sets) != self.n:
            raise MatroidError(f"family needs {self.n} sets, got {len(self.sets)}")


def family(*sets: int) -> Family:
    return Family(len(sets), tuple(sets))


@dataclass(frozen=True)
class TermValue:
    side: str                 # "lhs" | "rhs"
    kind: str                 # "single" | "pair" | "triple"
    members: tuple[int, ...]  # 1-based indices of the X_i in the term
    mask: int
    rank: int


@dataclass(frozen=True)
class InequalityValue:
    lhs: int
    rhs: int
    terms: tuple[TermValue, ...]

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def margin(self) -> int:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class BadFamilyCertificate:
    matroid_label: str
    fingerprint: str
    family: Family
    lhs: int
    rhs: int


@dataclass(frozen=True)
class SearchConfig:
    space: str = "flats"            # "flats" | "all_subsets"
    symmetry_pruning: bool = True   # both rules: symmetry and common information
    parallel_width: int = 1         # worker processes, at most os.cpu_count()


@dataclass(frozen=True)
class Verdict:
    """Outcome of one search.

    ``tuples_examined`` counts the candidate tuples (those the pruning rules
    keep) in lex order up to and including the lex-first violator, or all of
    them when there is none; it does not depend on the parallel width.
    ``rank_queries`` counts reads of the 2^m rank table, summed over all
    workers; tables built from those reads (the n = 4 pair ranks PR and
    closure rows RU) count when built, not when read.
    ``space_size`` is F, the number of sets in the search space, and
    ``pairs`` the number of (X3, X4) pairs the n = 4 scan covers (None for
    n >= 5).
    """

    in_class: bool
    n: int
    tuples_examined: int
    rank_queries: int
    certificate: BadFamilyCertificate | None = None
    space_size: int = 0
    pairs: int | None = None


def term_members(n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The 2n-3 member tuples per side of inequality n (1-based indices)."""
    lhs = [(i,) for i in range(3, n + 1)]
    lhs.append((1, 2))
    lhs.append((1, 3, n))
    lhs.extend((2, i - 1, i) for i in range(4, n + 1))
    rhs = [(1, 3), (1, n)]
    rhs.extend((2, i) for i in range(3, n + 1))
    rhs.extend((i - 1, i) for i in range(4, n + 1))
    return lhs, rhs


_KINDS = {1: "single", 2: "pair", 3: "triple"}


def evaluate(M: Matroid, fam: Family) -> InequalityValue:
    """Evaluate inequality n for an explicit family, term by term."""
    for x in fam.sets:
        M.check_mask(x)
    lhs_members, rhs_members = term_members(fam.n)
    terms = []
    totals = {"lhs": 0, "rhs": 0}
    for side, members_list in (("lhs", lhs_members), ("rhs", rhs_members)):
        for members in members_list:
            mask = 0
            for i in members:
                mask |= fam.sets[i - 1]
            r = M.rank(mask)
            # members with equal sets still count by index multiplicity
            terms.append(TermValue(side, _KINDS[len(set(members))], members, mask, r))
            totals[side] += r
    value = InequalityValue(totals["lhs"], totals["rhs"], tuple(terms))
    assert len(lhs_members) == len(rhs_members) == 2 * fam.n - 3
    return value


# -- family reductions ---------------------------------------------------------


def reduce_family(M: Matroid, fam: Family, mode: str) -> Family:
    """Replace each set by its closure, or by its lex-least maximal
    independent subset; both leave every term rank unchanged."""
    if mode == "closure":
        return Family(fam.n, tuple(M.closure(x) for x in fam.sets))
    if mode == "basis":
        out = []
        for x in fam.sets:
            cur = 0
            rest = M.check_mask(x)
            while rest:
                b = rest & (-rest)
                if M.table[cur | b] > M.table[cur]:
                    cur |= b
                rest ^= b
            out.append(cur)
        return Family(fam.n, tuple(out))
    raise MatroidError(f"unknown reduction mode {mode!r}")


def extend_family(fam: Family) -> Family:
    """The n+1 family with X_{n+1} = X_n; preserves lhs - rhs exactly."""
    return Family(fam.n + 1, fam.sets + (fam.sets[-1],))


def canonical_family(M: Matroid, kind: str, transversal_mask: int | None = None) -> Family:
    """The paper families: the part tuple (V_1..V_r) of a Kinser matroid, or
    the four-part partition attached to a spike circuit-hyperplane Z."""
    if M.layout is None:
        raise MatroidError(f"{M.label or 'matroid'} carries no layout")
    if kind == "kinser":
        r = max(int(name[1:]) for name in M.layout if name.startswith("V"))
        return Family(r, tuple(M.part(f"V{i}") for i in range(1, r + 1)))
    if kind == "spike":
        if transversal_mask is None:
            raise MatroidError("spike family needs the transversal mask Z")
        Z = M.check_mask(transversal_mask)
        legs = max(int(name[1:]) for name in M.layout if name.startswith("a"))
        A, B = M.part("A"), M.part("B")
        x1, x2 = Z & A, Z & B
        if x1 == 0 or x2 == 0:
            raise MatroidError("Z must meet both legs sides: Z&A and Z&B nonempty")
        x3 = x4 = 0
        bcount = 0
        for i in range(1, legs + 1):
            a, b = M.part(f"a{i}"), M.part(f"b{i}")
            if bool(Z & a) == bool(Z & b):
                raise MatroidError(f"Z is not a transversal: leg {i} hit {bin(Z & (a | b)).count('1')} times")
            if Z & a:
                x3 |= b
            else:
                x4 |= a
                bcount += 1
        if bcount % 2:
            raise MatroidError("Z has an odd number of b-elements, not a circuit-hyperplane")
        return Family(4, (x1, x2, x3, x4))
    raise MatroidError(f"unknown canonical family kind {kind!r}")


@dataclass(frozen=True)
class TermReport:
    side: str
    kind: str
    members: tuple[int, ...]
    mask: int
    size: int
    rank_complement: int
    corank: int


def corank_term_report(M: Matroid, fam: Family) -> list[TermReport]:
    """Per term U of the inequality: |U|, r(E - U) and r*(U) by the dual
    rank formula, all computed on the primal matroid."""
    E = M.full_mask
    rm = M.rank_total
    out = []
    for t in evaluate(M, fam).terms:
        size = M.size(t.mask)
        rc = M.rank(E & ~t.mask)
        out.append(TermReport(t.side, t.kind, t.members, t.mask, size, rc,
                              size + rc - rm))
    return out


# -- exhaustive search ----------------------------------------------------------


def _space_masks(M: Matroid, cfg: SearchConfig) -> np.ndarray:
    if cfg.space == "flats":
        return np.array(M.enumerate("flats"), dtype=np.int64)
    if cfg.space == "all_subsets":
        if M.m > ALL_SUBSETS_LIMIT:
            raise SizeCapError(
                f"all-subsets search refused for m={M.m} > {ALL_SUBSETS_LIMIT}")
        return np.arange(1 << M.m, dtype=np.int64)
    raise MatroidError(f"unknown search space {cfg.space!r}")


def _closures(table: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """cl X for every mask X, read off the rank table (m + 1 reads per mask)."""
    rank = table[masks]
    out = masks.copy()
    for e in range(table.size.bit_length() - 1):
        bit = np.int64(1 << e)
        out[table[masks | bit] == rank] |= bit
    return out


def _search_n4_chunk(table: np.ndarray, masks: np.ndarray, i1_lo: int, i1_hi: int,
                     pruning: bool) -> tuple[tuple[int, ...] | None, int, int, int]:
    """Scan inequality 4 for i1 in [i1_lo, i1_hi), lex order, first hit wins.

    The (X3, X4) pairs scanned form the lex-ordered list P: every pair, or
    with pruning only the non-modular pairs with i3 <= i4.  For fixed
    (X1, X2) the margin over P decomposes as

        margin = r(X1 u X2) + GP[X1] + GP[X2] + (r(X3) + r(X4) - r(X3 u X4))

    with GP[j][p] = r(Xj u X3 u X4) - r(Xj u X3) - r(Xj u X4) for p = (i3, i4),
    so a block of X2 rows is two precomputed-array adds and a compare.
    GP entries lie in [-r, 0] and every sum stays within int8 (r <= 24).

    GP is read off small tables instead of the 2^m rank table.  For any sets
    r(A u B) = r(A u cl B), since A u B <= A u cl B <= cl(A u B).  So with
    U the distinct closures cl(X3 u X4), RU[u][j] = r(U_u u Xj) and the
    pair ranks PR[i][j] = r(Xi u Xj) (symmetric),

        GP[j][p] = RU[U_of[p]][j] - PR[P3[p]][j] - PR[P4[p]][j],

    built by contiguous row gathers over blocks of pairs, each block
    transposed into the row-major GP.  U comes from np.unique on the
    closures, so ``masks`` need not be closed under closure.

    Returns (lex-first hit or None, tuples examined, rank queries, |P|).
    """
    F = len(masks)
    m = table.size.bit_length() - 1
    rank8 = table.view(np.int8)          # ranks are at most 24
    rank_f = rank8[masks]
    PR = rank8[masks[:, None] | masks[None, :]]
    base34 = rank_f[:, None] + rank_f[None, :] - PR    # I(X3; X4)
    queries = F + F * F
    if pruning:
        cl = _closures(table, masks)
        meet = table[cl[:, None] & cl[None, :]]
        queries += (m + 1) * F + F * F
        P3, P4 = np.nonzero(np.triu(base34 > meet))
    else:
        P3, P4 = np.nonzero(np.ones((F, F), dtype=bool))
    width = len(P3)
    if width == 0:
        return None, 0, queries, 0
    # rows j >= i1_lo suffice with pruning, since then i2 >= i1
    base = i1_lo if pruning else 0
    unions, union_of = np.unique(masks[P3] | masks[P4], return_inverse=True)
    U, closure_of = np.unique(_closures(table, unions), return_inverse=True)
    U_of = closure_of[union_of]
    RU = rank8[U[:, None] | masks[None, base:]]
    queries += (m + 1) * len(unions) + len(U) * (F - base)

    def g_rows(a: int, b: int) -> np.ndarray:
        out = np.empty((b - a, width), dtype=np.int8)
        ru, pr = RU[:, a - base:b - base], PR[:, a:b]
        step = max(1, SCAN_BLOCK // (b - a))
        for s in range(0, width, step):
            t = slice(s, s + step)
            T = ru.take(U_of[t], axis=0)
            T -= pr.take(P3[t], axis=0)
            T -= pr.take(P4[t], axis=0)
            out[:, t] = T.T
        return out

    # GP rows in blocks on a fixed grid from base: one block when it fits the
    # limit, else blocks of an eighth of it; the block holding row i1 stays
    # cached while later blocks are rebuilt for each i1
    if (F - base) * width <= TENSOR_BYTES_LIMIT:
        block_rows = F - base
    else:
        block_rows = max(1, TENSOR_BYTES_LIMIT // 8 // width)
    cache: dict[int, np.ndarray] = {}

    def block(row: int, keep: int | None) -> tuple[int, np.ndarray]:
        lo = row - (row - base) % block_rows
        if lo not in cache:
            for k in [k for k in cache if k != keep]:
                del cache[k]
            cache[lo] = g_rows(lo, min(F, lo + block_rows))
        return lo, cache[lo]

    rows = max(1, SCAN_BLOCK // width)
    c34 = base34[P3, P4]
    tuples = 0
    for i1 in range(i1_lo, i1_hi):
        home, G = block(i1, None)
        c1 = G[i1 - home] + c34
        floor = -PR[i1, :, None]
        a = i1 if pruning else 0
        while a < F:
            lo, G = block(a, home)
            b = min(F, a + rows, lo + len(G))
            hits = G[a - lo:b - lo] + c1 > floor[a:b]
            k = int(hits.argmax())
            if hits.flat[k]:
                tuples += k + 1
                j = k % width
                return (i1, a + k // width, int(P3[j]), int(P4[j])), tuples, queries, width
            tuples += (b - a) * width
            a = b
    return None, tuples, queries, width


def _search_generic_chunk(table: np.ndarray, masks: np.ndarray, n: int,
                          i1_lo: int, i1_hi: int,
                          pruning: bool) -> tuple[tuple[int, ...] | None, int, int]:
    """Depth-first scan for n >= 5, vectorized over the last family slot.

    Constants accumulate along the prefix; the X_n axis needs two fresh
    union-rank gathers plus three precomputed pair-rank rows.  Reversal
    canonicality (X3..Xn) <= reversed is applied on the final axis.
    """
    F = len(masks)
    rank_f = table[masks].astype(np.int32)
    PR = table[masks[:, None] | masks[None, :]].astype(np.int32)
    state = {"queries": F + F * F, "tuples": 0}
    idxs = [0] * (n + 1)  # 1-based slots 1..n
    found: list[tuple[int, ...]] = []

    def mid_reversed_cmp() -> int:
        """Compare (j4..j_{n-1}) with its reverse; settles jn == j3 ties."""
        mid = [idxs[i] for i in range(4, n)]
        rev = mid[::-1]
        return (mid > rev) - (mid < rev)

    def rec(d: int, const: int):
        if found:
            return
        if d == n:
            m1, m2 = masks[idxs[1]], masks[idxs[2]]
            m3, mprev = masks[idxs[3]], masks[idxs[n - 1]]
            vec = (const + rank_f
                   + table[(m1 | m3) | masks] + table[(m2 | mprev) | masks]
                   - PR[idxs[1]] - PR[idxs[2]] - PR[idxs[n - 1]])
            state["queries"] += 2 * F
            state["tuples"] += F
            hits = vec > 0
            if pruning:
                j3 = idxs[3]
                allowed = np.arange(F) > j3
                if mid_reversed_cmp() <= 0:
                    allowed |= np.arange(F) == j3
                hits &= allowed
            nz = np.nonzero(hits)[0]
            if nz.size:
                found.append(tuple(idxs[1:n]) + (int(nz[0]),))
            return
        lo, hi = (i1_lo, i1_hi) if d == 1 else (0, F)
        for j in range(lo, hi):
            idxs[d] = j
            delta = 0
            if d == 2:
                delta += PR[idxs[1]][j]
            if d >= 3:
                delta += int(rank_f[j]) - PR[idxs[2]][j]
            if d == 3:
                delta -= PR[idxs[1]][j]
            if d >= 4:
                prev = idxs[d - 1]
                delta += int(table[masks[idxs[2]] | masks[prev] | masks[j]])
                delta -= PR[prev][j]
                state["queries"] += 1
            rec(d + 1, const + delta)
            if found:
                return

    rec(1, 0)
    best = found[0] if found else None
    return best, state["tuples"], state["queries"]


def _balanced_chunks(F: int, width: int, triangular: bool) -> list[tuple[int, int]]:
    """Split i1 over [0, F) into runs of about equal tuple counts.

    A row i1 scans F - i1 rows of X2 when the n=4 search is pruned
    (i2 >= i1), and F rows otherwise, so cuts go where the cumulative
    per-i1 tuple count crosses each multiple of total / width.
    """
    work = np.arange(F, 0, -1) if triangular else np.full(F, F)
    before = np.concatenate(([0], np.cumsum(work)))
    cuts = np.searchsorted(before, before[-1] * np.arange(1, width) / width)
    bounds = [0, *(int(c) for c in cuts), F]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _chunk_worker(args):
    table, masks, n, lo, hi, pruning = args
    if n == 4:
        return _search_n4_chunk(table, masks, lo, hi, pruning)
    return _search_generic_chunk(table, masks, n, lo, hi, pruning) + (None,)


def search_bad_family(M: Matroid, n: int, cfg: SearchConfig | None = None
                      ) -> BadFamilyCertificate | None:
    """Exhaustive search for a violating family; None when the space is clean.

    The returned family is the lexicographically least violating tuple over
    the configured space, with pruning on or off.
    """
    return membership(M, n, cfg).certificate


def membership(M: Matroid, n: int, cfg: SearchConfig | None = None) -> Verdict:
    """Decide membership in Kinser class n over the configured space."""
    cfg = cfg or SearchConfig()
    masks = _space_masks(M, cfg)
    F = len(masks)
    width = max(1, min(cfg.parallel_width, os.cpu_count() or 1))
    if width == 1 or F < 2 * width:
        chunks = [(0, F)]
    else:
        chunks = _balanced_chunks(F, width, n == 4 and cfg.symmetry_pruning)
    jobs = [(M.table, masks, n, lo, hi, cfg.symmetry_pruning) for lo, hi in chunks]
    if len(jobs) == 1:
        results = [_chunk_worker(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=width) as pool:
            results = list(pool.map(_chunk_worker, jobs))
    queries = sum(r[2] for r in results)
    pairs = results[0][3]
    # chunks run in i1 order, so the first chunk with a hit holds the
    # lex-first violator and the tuples of later chunks do not count
    tuples = 0
    for best, chunk_tuples, _, _ in results:
        tuples += chunk_tuples
        if best is not None:
            break
    else:
        return Verdict(True, n, tuples, queries, None, F, pairs)
    fam = Family(n, tuple(int(masks[j]) for j in best))
    value = evaluate(M, fam)
    assert value.lhs > value.rhs
    cert = BadFamilyCertificate(M.label, content_fingerprint(M), fam,
                                value.lhs, value.rhs)
    return Verdict(False, n, tuples, queries, cert, F, pairs)


def dual_membership(M: Matroid, n: int, cfg: SearchConfig | None = None) -> Verdict:
    """Membership of the dual matroid (class K_n applied to M*)."""
    return membership(dual(M), n, cfg)
