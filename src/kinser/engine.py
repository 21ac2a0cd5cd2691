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

Symmetry (n = 4 only):  inequality 4 is invariant under swapping X1 with
X2 and under swapping X3 with X4 independently.  A tuple is enumerated
only if it is the lexicographically least member of its orbit; the least
violating tuple overall is always canonical.  For every n the inequality
is also invariant under reversing (X3, ..., Xn), but that is not a pruning
rule: the chain form (n >= 5, below) rebuilds the lex-first violator slot
by slot without it.  Slot symmetry and common information apply at n = 4
only.

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

Automorphisms (every n):  a permutation sigma of the ground set is kept
only when it maps the search-space masks onto themselves with equal ranks.
For ``all_subsets`` that is r(sigma X) = r(X) for every X.  For flats it is
the same: cl S is the intersection of the flats containing S, and sigma
permutes the flats, so sigma(cl S) = cl(sigma S); then
r(sigma S) = r(cl sigma S) = r(sigma cl S) = r(cl S) = r(S) for every set S.
So sigma maps every violating tuple to a violating tuple, and with t* the
lex-first violator, t* <= sigma t* gives X1* <= sigma X1*: X1* is the least
member of its orbit under the group the kept sigma generate.  Only those
orbit-least X1 rows are scanned.  The rule holds for any subgroup, so the
generator search need not be complete.  At n >= 5 it is the only rule;
at n = 4 it combines with the two swaps and the common-information rule
below, since each rule is a case of "t* <= g t*" for g in the group
generated by Aut(M) and the slot symmetries, or says that a tuple cannot
violate.

Generators come from individualization and refinement on the incidence of
elements and hyperplanes (the search-space masks of rank r - 1, or every
mask when there are none).  Colours are refined by 64-bit multiset
hashes: a hyperplane's colour is its rank plus the sum of the weights of
its elements' colours, an element's colour is its old colour together
with the sum of the weights of its hyperplanes' colours, and weights are
splitmix64 of the colour index.  The first path individualizes the least
element of the first non-singleton cell down to a discrete colouring; at
each level, deepest first, every other member of that cell not yet in an
orbit of the first one's is individualized in its place and followed down
the first path below it.  Each pair of leaves gives a candidate sigma, kept
only after the check above (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998).

A pruned tuple either cannot violate or is not the least of its orbit, so
pruning changes neither the verdict nor the lex-first certificate.

Live pairs (n = 4):  with I(A;B|C) = r(A u C) + r(B u C) - r(A u B u C) - r(C)
and I(A;B) = I(A;B|empty set), put d1 = I(X3;X4) - I(X3;X4|X1).  Then

    margin = lhs - rhs = d1 - I(X1;X2) - I(X3;X4|X2).

Proof: writing rS for the rank of the union of the X_i with i in S, the
right-hand side is (r3 + r4 - r34) - (r13 + r14 - r134 - r1)
- (r1 + r2 - r12) - (r23 + r24 - r234 - r2), and after r1 and r2 cancel
it is r3 + r4 + r12 + r134 + r234 - r13 - r14 - r23 - r24 - r34, the
Ingleton margin term by term.  Every I(A;B|C) is >= 0: submodularity on
A u C and B u C, whose intersection contains C, gives r(A u C) + r(B u C)
>= r(A u B u C) + r(C) by monotonicity.  So margin <= d1 - I(X1;X2) <= d1,
and a pair (X3, X4) with d1 <= 0 violates with no X2: only the pairs with
d1 > 0, the live pairs of X1, are scanned for X1.  An X1 whose largest d1
is at most its least I(X1;X2) over the X2 to scan is skipped; so is every
X1 with no live pair, such as X1 = cl of the empty set, where d1 = 0 for
every pair.  Both rules say that a tuple cannot violate, so they change
neither the verdict nor the lex-first certificate, nor which tuples count
as examined.

Chain form (n >= 5):  with I and rS as above, for every n >= 4

    margin_n = I(X2;X3) - I(X1;X2) - I(X3;Xn|X1)
               - sum_{i=4..n} I(X2; X_{i-1} | X_i).

Proof, term by term from ``term_members(n)``: the terms that hold X1 are
r12 + r13n on the left and r13 + r1n on the right, and
r2 - I(X1;X2) - I(X3;Xn|X1) = r2 - (r1 + r2 - r12) - (r13 + r1n - r13n - r1)
is r12 + r13n - r13 - r1n.  The others add up to
sum_{i=3..n} (ri - r2i) + sum_{i=4..n} (r2,i-1,i - ri-1,i); since
I(X2;X_{i-1}|X_i) = r2i + ri-1,i - r2,i-1,i - ri, adding the sum of those
informations leaves r3 - r23 = I(X2;X3) - r2, and the two r2 cancel.  At
n = 4 this is the "Live pairs" margin, because I(X2;X3) - I(X2;X3|X4) and
I(X3;X4) - I(X3;X4|X2) both equal r2 + r3 + r4 - r23 - r24 - r34 + r234.

Every subtracted term is >= 0.  For fixed X2 the chain X3 -> X4 -> ... -> Xn
is a path of n - 3 steps, the step from Xa to Xc costing
L[a][c] = I(X2; Xa | Xc) >= 0 with L[a][a] = 0.  So the least cost of the
chain over X4..X_{n-1} is the (n-3)-hop min-plus distance
dist_{n-3}(X3, Xn) (Kinser, JCTA 2011; Zwick, JACM 2002), and some
X4..X_{n-1} completes (X1, X2, X3, Xn) to a violator exactly when

    I(X2;X3) - I(X1;X2) - I(X3;Xn|X1) > dist_{n-3}(X3, Xn).

A path may stay put at cost 0, so dist_{k+1} <= dist_k; once
dist_{k+1} = dist_k, every later product repeats it, and that happens
within F - 1 hops, since a least path can drop any cycle.  So each n costs
at most F - 1 min-plus products per X2.  The lex-first violator is then
rebuilt slot by slot: the least scanned X1 with a completion, the least X2 for
it, the least X3 with some Xn passing the test, and for i = 4..n the least
Xi with cost so far + L[X_{i-1}][Xi] + dist_{n-i}(Xi, Xn) below the
budget I(X2;X3) - I(X1;X2) - I(X3;Xn|X1) for some Xn (dist_0 is 0 at
Xn = Xi and infinite elsewhere).  Each test says exactly whether a
completion exists, so no rule on reversing (X3, ..., Xn) is needed.  Every
triple rank r(Xx u Xa u Xb) is r(Xx u cl(Xa u Xb)) (see "Closure"), read
off one closure row per distinct cl(Xa u Xb).

Closure (n = 4 scan):  r(A u B) = r(A u cl B) for any sets, since
A u B <= A u cl B <= cl(A u B) and rank is monotone with r(cl S) = r(S).
So r(Xj u X3 u X4) = r(Xj u U) with U = cl(X3 u X4), and the n = 4 term

    GP[p][j] = RU[U_of[p]][j] - PR[P3[p]][j] - PR[P4[p]][j]

is read off the pair ranks PR[i][j] = r(Xi u Xj) and one rank row
RU[u][j] = r(U_u u Xj) per distinct closure, without touching the 2^m
table per entry.  GP is never stored: the scan computes the rows of one
run of live pairs (X3, X4) at a time, one column per X2, by contiguous
row gathers, and reduces over those pairs for each X2 column.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Matroid, MatroidError, SizeCapError, content_fingerprint
from .transforms import dual

ALL_SUBSETS_LIMIT = 8       # all-subsets search space allowed only up to this m
# n=4 scans whose summed row weights, F(F+1)/2 |P| tuples, reach this
# search for automorphisms and scan only orbit-least X1 rows.  The search
# takes 2.5-5 ms; the scan takes about 0.4 ns a tuple on all 288 rows of
# F7 (+) F7^- and more where X2 rows are short (0.7-1.1 ns on Kin(4),
# F = 76) on a 2-core x86 host (Python 3.11, numpy 2.4), so below 2^24
# tuples, 6-18 ms of scan, the search costs about what it can save
ORBIT_SCAN_MIN = 1 << 24
SCAN_BLOCK = 1 << 18        # int8 entries per scan block (n=4 scan, n>=5 min-plus and X1 tests)


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
    symmetry_pruning: bool = True   # automorphisms; at n=4 also slot symmetry, common information
    parallel_width: int = 1         # worker processes, at most os.cpu_count()


@dataclass(frozen=True)
class Verdict:
    """Outcome of one search.

    ``tuples_examined`` counts (X1, X2, X3, X_last) candidates in lex order,
    at any width.  P is the (X3, X_last) pair list: at n = 4 with pruning
    the non-modular pairs with i3 <= i4, else all F^2 pairs.  X2 starts at
    s(i1) = i1 under the n = 4 slot symmetry, else at 0, so a scanned X1
    row i1 weighs (F - s(i1)) |P|.  In class the count is the summed weight
    of the scanned rows; for a violator (i1, i2, i3, ..., i_last) it is the
    weight of the scanned rows below i1, plus (i2 - s(i1)) |P|, plus the
    index of (i3, i_last) in P, plus 1.
    ``rank_queries`` is the number of rank-table reads made by
    ``membership``, the same at any width: the search tables (the pair
    ranks PR, the pair list and the closure rows RU, ``_search_tables``)
    and the ranks the automorphism search reads.  The scan chunks read
    only those tables.
    ``space_size`` is F, the number of sets in the search space,
    ``pairs`` |P| at n = 4 (None for n >= 5) and ``x1_rows`` the number of
    X1 rows scanned: the orbit-least rows when automorphisms were searched,
    else F.
    """

    in_class: bool
    n: int
    tuples_examined: int
    rank_queries: int
    certificate: BadFamilyCertificate | None = None
    space_size: int = 0
    pairs: int | None = None
    x1_rows: int = 0


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


# -- automorphisms ---------------------------------------------------------------


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each entry: a 64-bit weight per colour index."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _split(cells: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Split colour cells by a key: colours 0.. in (old colour, key) order."""
    order = np.lexsort((key, cells))
    c, k = cells[order], key[order]
    new = np.empty_like(cells)
    new[order] = np.cumsum(np.concatenate(([0], (c[1:] != c[:-1]) | (k[1:] != k[:-1]))))
    return new


def _mask_permutation(masks: np.ndarray, ranks: np.ndarray, sigma: np.ndarray
                      ) -> np.ndarray | None:
    """pi with masks[pi[i]] = sigma(masks[i]) when sigma maps the sorted masks
    onto themselves and keeps every rank (ranks[pi] == ranks), else None."""
    image = np.zeros_like(masks)
    for e, f in enumerate(sigma):
        image |= ((masks >> e) & 1) << int(f)
    pi = np.minimum(np.searchsorted(masks, image), len(masks) - 1)
    if np.array_equal(masks[pi], image) and np.array_equal(ranks[pi], ranks):
        return pi
    return None


def _automorphisms(table: np.ndarray, masks: np.ndarray
                   ) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """Verified automorphism generators of the search space (see the module
    docstring), found by individualization and refinement.

    ``masks`` must be sorted and distinct.  Returns the pairs (sigma, pi):
    sigma[e] is the image of element e and pi[i] the index of sigma(masks[i])
    in ``masks``; and the number of rank-table reads.
    """
    m = table.size.bit_length() - 1
    ranks = table[masks]
    hyper = ranks == int(table[-1]) - 1
    if not hyper.any():
        hyper[:] = True
    inc = ((masks[hyper, None] >> np.arange(m)) & 1).astype(np.uint64)
    inc_t = np.ascontiguousarray(inc.T)
    h_rank = ranks[hyper].astype(np.uint64)
    weight = _splitmix64(np.arange(max(len(inc), m)))

    def refine(cells: np.ndarray) -> np.ndarray:
        while True:
            h_col = np.unique(h_rank + inc @ weight[cells], return_inverse=True)[1]
            new = _split(cells, inc_t @ weight[h_col])
            if new.max() == cells.max():
                return cells
            cells = new

    def individualize(cells: np.ndarray, v: int) -> np.ndarray:
        return refine(_split(cells, np.arange(m) == v))

    def first_path(cells: np.ndarray) -> tuple[np.ndarray, list]:
        """The leaf below ``cells`` and the (colouring, target cell) above it."""
        path = []
        while True:
            sizes = np.bincount(cells)
            if sizes.max() == 1:
                return cells, path
            cell = np.flatnonzero(cells == int(np.argmax(sizes > 1)))
            path.append((cells, cell))
            cells = individualize(cells, int(cell[0]))

    leaf0, path = first_path(refine(np.zeros(m, dtype=np.int64)))
    orbit = list(range(m))

    def find(e: int) -> int:
        while orbit[e] != e:
            orbit[e] = e = orbit[orbit[e]]
        return e

    gens = []
    for cells, cell in reversed(path):
        for w in cell[1:]:
            if find(int(w)) == find(int(cell[0])):
                continue
            leaf, _ = first_path(individualize(cells, int(w)))
            sigma = np.argsort(leaf)[leaf0]
            pi = _mask_permutation(masks, ranks, sigma)
            if pi is not None:
                gens.append((sigma, pi))
                for e in range(m):
                    orbit[find(e)] = find(int(sigma[e]))
    return gens, len(masks)


def _orbit_least(F: int, perms: list[np.ndarray]) -> np.ndarray:
    """Indices i < F that are least in their orbit under the permutations."""
    least = np.arange(F)
    while True:
        new = least
        for pi in perms:
            new = np.minimum(new, new[pi])
        if np.array_equal(new, least):
            return np.flatnonzero(least == np.arange(F))
        least = new


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


def _search_tables(table: np.ndarray, masks: np.ndarray, pruning: bool
                   ) -> tuple[tuple[np.ndarray, ...], int]:
    """The rank tables both scans read, and the rank reads they took.

    Returns (PR, P3, P4, C34, RU, U_of): the pair ranks PR[i][j] = r(Xi u Xj),
    the lex-ordered (X3, X4) pair list P as index arrays (every pair, or
    with pruning only the non-modular pairs with i3 <= i4),
    C34[p] = r(X3) + r(X4) - r(X3 u X4) = I(X3; X4) per pair, and the
    closure rows that give the triple ranks (module docstring, "Closure"):
    with U the distinct closures cl(X3 u X4) of the pairs, U_of[p] is the
    index in U of pair p's closure and RU[u][j] = r(U_u u Xj).  U comes
    from np.unique on the closures, so ``masks`` need not be closed under
    closure.  The n = 4 scan computes the GP rows it needs from RU and PR
    (``_n4_gp``); no GP array is kept.
    """
    F = len(masks)
    m = table.size.bit_length() - 1
    rank8 = table.view(np.int8)          # ranks are at most 24
    rank_f = rank8[masks]
    PR = rank8[masks[:, None] | masks[None, :]]
    base34 = rank_f[:, None] + rank_f[None, :] - PR
    queries = F + F * F
    if pruning:
        cl = _closures(table, masks)
        meet = table[cl[:, None] & cl[None, :]]
        queries += (m + 1) * F + F * F
        P3, P4 = np.nonzero(np.triu(base34 > meet))
    else:
        P3, P4 = np.nonzero(np.ones((F, F), dtype=bool))
    unions, union_of = np.unique(masks[P3] | masks[P4], return_inverse=True)
    U, closure_of = np.unique(_closures(table, unions), return_inverse=True)
    RU = rank8[U[:, None] | masks[None, :]]
    queries += (m + 1) * len(unions) + len(U) * F
    return (PR, P3, P4, base34[P3, P4], RU, closure_of[union_of]), queries


def _n4_gp(ru: np.ndarray, pr: np.ndarray, u: np.ndarray, p3: np.ndarray, p4: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """GP[p][j] = RU[U_of[p]][j] - PR[P3[p]][j] - PR[P4[p]][j] for the pairs p
    with U_of[p], P3[p], P4[p] = ``u``, ``p3``, ``p4``, over the columns j
    that ``ru`` and ``pr`` hold of RU and PR (module docstring, "Closure")."""
    out = ru.take(u, axis=0, out=out, mode="clip")
    out -= pr.take(p3, axis=0)
    out -= pr.take(p4, axis=0)
    return out


def _n4_d1(tables: tuple[np.ndarray, ...], x1s: np.ndarray) -> np.ndarray:
    """d1[k][p] = I(X3;X4) - I(X3;X4|X1) for the X1 rows ``x1s``.

    ``tables`` is ``_search_tables(...)[0]``.  d1 is C34[p] + GP[p][X1]
    + r(X1), computed pair-major from the rows of PR and RU, then laid out
    one row per X1; only the pairs with d1 > 0 can violate with X1 (module
    docstring, "Live pairs").
    """
    PR, P3, P4, c34, RU, U_of = tables
    d1 = _n4_gp(np.ascontiguousarray(RU[:, x1s]), np.ascontiguousarray(PR[:, x1s]),
                U_of, P3, P4)
    d1 += c34[:, None]
    d1 += PR[x1s, x1s]
    return np.ascontiguousarray(d1.T)


def _max_over_pairs(T: np.ndarray) -> np.ndarray:
    """T[:, 0] after folding each T[r] onto its first row by elementwise
    maxima of its two halves: each step is one pass over contiguous rows,
    so short rows cost no more per entry than long ones."""
    n = T.shape[1]
    while n > 1:
        h = n // 2
        np.maximum(T[:, :h], T[:, n - h:n], out=T[:, :h])
        n -= h
    return T[:, 0]


def _search_n4_chunk(tables: tuple[np.ndarray, ...], i1s: np.ndarray, pruning: bool
                     ) -> tuple[int, ...] | None:
    """Scan inequality 4 over the X1 rows ``i1s`` (ascending), lex order,
    first hit wins.

    ``tables`` is ``_search_tables(table, masks, pruning)[0]``, with
    ``pruning`` the same.  For fixed (X1, X2) the margin over the pair list
    P decomposes as

        margin = r(X1 u X2) + GP[p][X1] + GP[p][X2] + (r(X3) + r(X4) - r(X3 u X4))

    with GP[p][j] = r(Xj u X3 u X4) - r(Xj u X3) - r(Xj u X4) for p = (i3, i4).
    GP entries lie in [-r, 0] and every sum below stays within int8
    (r <= 24).

    Live pairs (module docstring): with d1[p] = I(X3;X4) - I(X3;X4|X1)
    = C34[p] + GP[p][X1] + r(X1), margin = d1[p] - I(X1;X2) - I(X3;X4|X2)
    and both subtracted terms are >= 0, so only the pairs with d1 > 0 can
    violate with X1.  In those terms margin > 0 reads

        d1[p] + GP[p][X2] > r(X1) - r(X1 u X2).

    d1, I(X1;X2) and the right-hand thresholds are computed for a batch of
    X1 rows in one array pass (``_n4_d1``); a row whose largest d1 is at
    most its least I(X1;X2) is skipped (margin <= d1 - I(X1;X2)), and so is
    every row without a live pair.  The others are scanned in groups whose
    (X1, pair, X2) block fits SCAN_BLOCK entries, over the union of the
    group's live pairs (a pair that is not live for a row cannot pass for
    it) and every X2 column (with pruning, a column below a row's i1 cannot
    pass: its threshold is 127 - r(X2) >= 103, while d1 + GP <= I(X3;X4)
    <= 24).  For each run of those pairs the GP rows are computed
    (``_n4_gp``), d1 is added per X1 row, and the maximum over pairs of
    each X2 column (``_max_over_pairs``) is compared with the threshold.
    Only the first passing column of the first passing row is searched for
    its first pair, from the same formula.

    GP is never stored: each group computes the rows of its live pairs from
    the closure rows RU and the pair ranks PR, read in place (module
    docstring, "Closure"; both are C-contiguous), so working memory is
    O(SCAN_BLOCK + |U| F + F^2), not F |P|.

    Returns the lex-first hit as indices into the search space, or None.
    The chunk reads no rank table beyond ``tables``.
    """
    PR, P3, P4, c34, RU, U_of = tables
    F = len(PR)
    width = len(P3)
    if width == 0:
        return None

    # the GP rows of one run of live pairs and their sums with d1, at most
    # SCAN_BLOCK entries each (or one pair's row of F columns)
    bufs = np.empty((2, max(SCAN_BLOCK, F)), dtype=np.int8)

    def scan(rows: np.ndarray, d: np.ndarray, floor: np.ndarray
             ) -> tuple[int, int, int] | None:
        """Lex-first hit (index into ``rows``, X2 column, pair) of the X1
        ``rows`` with d1 rows ``d`` and thresholds ``floor``, scanned
        together over the union of their live pairs and every X2 column."""
        live = (d > 0).any(axis=0).nonzero()[0]
        u, p3, p4 = U_of[live], P3[live], P4[live]
        step = max(1, SCAN_BLOCK // (len(rows) * F))
        top = np.full((len(rows), F), -128, dtype=np.int8)
        for q in range(0, len(live), step):
            p = live[q:q + step]
            t = _n4_gp(RU, PR, u[q:q + step], p3[q:q + step], p4[q:q + step],
                       out=bufs[0, :len(p) * F].reshape(len(p), -1))
            sums = np.add(t, d.take(p, axis=1)[:, :, None],
                          out=bufs[1, :len(rows) * len(p) * F].reshape(len(rows), len(p), -1))
            np.maximum(top, _max_over_pairs(sums), out=top)
        hits = top > floor
        if not hits.any():
            return None
        r = int(hits.any(axis=1).argmax())
        c = int(hits[r].argmax())
        col = _n4_gp(RU[:, c], PR[:, c], u, p3, p4) + d[r, live]
        return r, c, int(live[(col > floor[r, c]).argmax()])

    # d1, I(X1;X2) and the thresholds r(X1) - r(X1 u X2) = I(X1;X2) - r(X2)
    # for a batch of X1 rows in one pass, I(X1;X2) set to 127 (more than
    # any d1) below i1 when pruning.  Since margin <= d1 - I(X1;X2), a row
    # whose largest d1 is at most its least I(X1;X2) cannot violate, and a
    # row with no live pair is one of them; the others are scanned in groups
    # whose (X1, pair, X2) block fits SCAN_BLOCK
    batch = max(1, SCAN_BLOCK // width)
    group = max(1, SCAN_BLOCK // (width * F))
    r2 = PR.diagonal()
    for k0 in range(0, len(i1s), batch):
        x1 = i1s[k0:k0 + batch]
        d1 = _n4_d1(tables, x1)
        i12 = PR[x1, x1][:, None] + r2 - PR[x1]
        if pruning:
            i12[np.arange(F) < x1[:, None]] = 127
        floor = i12 - r2
        scan_rows = (d1.max(axis=1) > i12.min(axis=1)).nonzero()[0]
        for g0 in range(0, len(scan_rows), group):
            g = scan_rows[g0:g0 + group]
            found = scan(x1[g], d1[g], floor[g])
            if found is not None:
                r, c, j = found
                return int(x1[g[r]]), c, int(P3[j]), int(P4[j])
    return None


def _distances(L: np.ndarray, rows, hops: int) -> list[np.ndarray]:
    """[dist_1, dist_2, ...] from the ``rows`` of the step costs L (module
    docstring, "Chain form"): dist_{h+1}[a][b] = min over c of
    dist_h[a][c] + L[c][b], over blocks of c whose sums fit SCAN_BLOCK
    entries, up to ``hops`` hops or until a hop changes nothing."""
    out = [L[rows]]
    # a block sums len(rows) x step x F entries; ``rows`` may be empty
    step = max(1, SCAN_BLOCK // max(1, out[0].size))
    while len(out) < hops:
        D = out[-1]
        nxt = (D[:, :step, None] + L[:step]).min(axis=1)
        for c in range(step, len(L), step):
            np.minimum(nxt, (D[:, c:c + step, None] + L[c:c + step]).min(axis=1), out=nxt)
        if np.array_equal(nxt, D):
            break
        out.append(nxt)
    return out


def _search_chain_chunk(tables: tuple[np.ndarray, ...], n: int, x1s: np.ndarray
                        ) -> tuple[int, ...] | None:
    """Scan inequality n >= 5 over the X1 rows ``x1s`` (ascending) by its
    chain form (module docstring, "Chain form"), lex order, first hit wins.

    ``tables`` is ``_search_tables(table, masks, False)[0]``: the pair
    ranks, I(Xa;Xb) and the closure rows RU of all F^2 pairs, from which
    the triple ranks come.  Per X2,
    only the rows X3 with I(X2;X3) above the least I(X1;X2) of the X1 rows
    still to test get distances D = dist_{n-3}(X3, .); each X1 row is then
    tested on the entries (X3, Xn) where W = I(X2;X3) - D exceeds that
    least I(X1;X2), as W - I(X3;Xn|X1) > I(X1;X2).  After a hit only the
    rows before it are tested.  Ranks are at most 24, so every int8 sum
    below stays within [-48, 48].

    Returns the lex-first hit as indices into the search space, or None.
    The chunk reads no rank table beyond ``tables``.
    """
    PR, _, _, c34, RU, U_of = tables
    F = len(PR)
    I, UF, r = c34.reshape(F, F), U_of.reshape(F, F), PR.diagonal()
    PX, RX, I1 = PR[x1s], np.ascontiguousarray(RU[:, x1s].T), I[x1s]

    def steps(j: int) -> np.ndarray:
        """L[a][c] = I(X2;Xa|Xc) for X2 = Xj."""
        return PR[j] + PR - r - RU[:, j][UF]

    def cond(k, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """I(Xa;Xb|X1) for the X1 rows x1s[k] and the entries (a, b)."""
        return PX[k][:, a] + PX[k][:, b] - RX[k][:, UF[a, b]] - r[x1s[k]][:, None]

    best = None                    # (position in x1s, X2)
    for j in range(F):
        cand = len(x1s) if best is None else best[0]
        if cand == 0:
            break
        floor = I1[:cand, j].min()
        a = (I[j] > floor).nonzero()[0]
        W = I[j, a][:, None] - _distances(steps(j), a, n - 3)[-1]
        ai, b = (W > floor).nonzero()
        if len(ai) == 0:
            continue
        w, a = W[ai, b], a[ai]
        block = max(1, SCAN_BLOCK // len(w))
        for k0 in range(0, cand, block):
            k = slice(k0, min(k0 + block, cand))
            hit = ((w - cond(k, a, b)).max(axis=1) > I1[k, j]).nonzero()[0]
            if len(hit):
                best = (k0 + int(hit[0]), j)
                break
    if best is None:
        return None

    # rebuild: each slot takes the least index whose step cost plus the
    # distance of the hops left keeps the chain under the budget
    k, i2 = best
    L = steps(i2)
    hops = _distances(L, slice(None), n - 3)
    a, b = np.indices((F, F)).reshape(2, -1)
    budget = (I[i2][:, None] - I1[k, i2] - cond([k], a, b).reshape(F, F)).astype(np.int64)
    i3 = int((hops[-1] < budget).any(axis=1).argmax())
    budget = budget[i3]
    # G[h][c] = least dist_h(Xc, Xn) - budget(Xn) over Xn, dist_0 = 0 at Xn = Xc only
    G = [-budget] + [(D - budget).min(axis=1) for D in hops]
    tup, cost = [int(x1s[k]), i2, i3], 0
    for i in range(4, n + 1):
        c = int((cost + L[tup[-1]] + G[min(n - i, len(hops))] < 0).argmax())
        cost += int(L[tup[-1], c])
        tup.append(c)
    return tuple(tup)


def _x2_rows(F: int, symmetric: bool) -> np.ndarray:
    """F - s(i1) for each X1 row i1 < F: the row weight over |P| (``Verdict``).
    The tuple count, the chunk cuts and the ORBIT_SCAN_MIN test all read it."""
    return F - np.arange(F) if symmetric else np.full(F, F)


def _tuples_examined(tables: tuple[np.ndarray, ...], x2: np.ndarray, rows: np.ndarray,
                     hit: tuple[int, ...] | None) -> int:
    """``Verdict.tuples_examined`` of a scan of the X1 ``rows`` that found
    ``hit`` (None in class), ``x2`` from ``_x2_rows``, in Python ints.  P is
    lex-sorted, so the hit's pair is found by binary search."""
    P3, P4 = tables[1:3]
    if hit is None:
        return int(x2[rows].sum()) * len(P3)
    i1, i2, i3, *_, i_last = hit
    # the rows below i1, then X2 from s(i1) = F - x2[i1] up to i2
    before = int(x2[rows[:np.searchsorted(rows, i1)]].sum()) + i2 - len(x2) + int(x2[i1])
    lo, hi = np.searchsorted(P3, [i3, i3 + 1])
    return before * len(P3) + int(lo + np.searchsorted(P4[lo:hi], i_last)) + 1


def _balanced_chunks(rows: np.ndarray, weights: np.ndarray, width: int) -> list[np.ndarray]:
    """Split the ascending X1 ``rows`` into at most ``width`` contiguous runs
    of about equal summed ``weights`` (one per row): cuts go where the
    cumulative weight crosses each multiple of total / width."""
    before = np.concatenate(([0], np.cumsum(weights)))
    cuts = np.searchsorted(before, before[-1] * np.arange(1, width) / width)
    bounds = [0, *(int(c) for c in cuts), len(rows)]
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


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
    if n < 4:
        raise MatroidError(f"inequality index must be >= 4, got {n}")
    masks = _space_masks(M, cfg)
    F = len(masks)
    pruning = cfg.symmetry_pruning
    tables, queries = _search_tables(M.table, masks, n == 4 and pruning)
    x2 = _x2_rows(F, n == 4 and pruning)
    rows = np.arange(F)
    if pruning and (n > 4 or _tuples_examined(tables, x2, rows, None) >= ORBIT_SCAN_MIN):
        gens, reads = _automorphisms(M.table, masks)
        rows = _orbit_least(F, [pi for _, pi in gens])
        queries += reads
    width = max(1, min(cfg.parallel_width, os.cpu_count() or 1))
    chunks = [rows] if F < 2 * width else _balanced_chunks(rows, x2[rows], width)
    kernel = (partial(_search_n4_chunk, tables, pruning=pruning) if n == 4
              else partial(_search_chain_chunk, tables, n))
    if len(chunks) == 1:
        hits = [kernel(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=width) as pool:
            hits = list(pool.map(kernel, chunks))
    # chunks run in i1 order, so the first hit is the lex-first violator
    best = next((hit for hit in hits if hit is not None), None)
    tuples = _tuples_examined(tables, x2, rows, best)
    stats = {"space_size": F, "pairs": len(tables[1]) if n == 4 else None, "x1_rows": len(rows)}
    if best is None:
        return Verdict(True, n, tuples, queries, None, **stats)
    fam = Family(n, tuple(int(masks[j]) for j in best))
    value = evaluate(M, fam)
    assert value.lhs > value.rhs
    cert = BadFamilyCertificate(M.label, content_fingerprint(M), fam,
                                value.lhs, value.rhs)
    return Verdict(False, n, tuples, queries, cert, **stats)


def dual_membership(M: Matroid, n: int, cfg: SearchConfig | None = None) -> Verdict:
    """Membership of the dual matroid (class K_n applied to M*)."""
    return membership(dual(M), n, cfg)
