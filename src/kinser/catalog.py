"""Constructors for the named matroids: uniform, GF(p)-linear, Fano pair,
transversal systems, the Kinser family Kin(r) and its relaxations, binary
spikes, and the Dowling geometries of the cyclic groups Z_g.

Each construction attaches a layout exposing its named parts (V1..Vr and
the series pair e,f for Kinser matroids; legs a_i/b_i for spikes; one name
per labelled edge and loop, edge_u_v_k and loop_v_k, for Dowling
geometries) so families of subsets can be addressed symbolically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (MAX_GROUND, InvalidSubsetError, Matroid, MatroidError,
                   NotAMatroidError, SizeCapError, halves, matroid_from_circuits,
                   popcount_array, rank_from_independent, subset_reduce,
                   validate_circuit_axioms)
from .transforms import relax, truncate


def uniform(k: int, m: int, label: str | None = None) -> Matroid:
    """U_{k,m}: rank of X is min(|X|, k)."""
    if not 0 <= k <= m:
        raise MatroidError(f"uniform matroid needs 0 <= k <= m, got k={k}, m={m}")
    if m > MAX_GROUND:
        raise SizeCapError(f"ground size {m} exceeds cap {MAX_GROUND}")
    table = np.minimum(popcount_array(m), k).astype(np.uint8)
    return Matroid(m, table, label=label or f"U({k},{m})", validate=False)


# -- linear matroids over GF(p) ----------------------------------------------


# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound, the least strong pseudoprime to all of them (the first twelve
# are fooled by 318665857834031151167461)
PRIME_TEST_LIMIT = 3317044064679887385961981
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; refuses p >= PRIME_TEST_LIMIT."""
    if p >= PRIME_TEST_LIMIT:
        raise MatroidError(f"modulus {p} is too large to test for primality")
    if p < 2:
        return False
    for a in _WITNESS_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class MatrixGFp:
    """A rows x cols matrix over GF(p), row-major residues."""

    p: int
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise MatroidError(f"modulus {self.p} is not prime")
        if len(self.entries) != self.rows * self.cols:
            raise MatroidError("entry count does not match dimensions")
        if any(not 0 <= v < self.p for v in self.entries):
            raise MatroidError(f"entries must be residues in [0, {self.p})")

    def column(self, j: int) -> list[int]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]


def from_matrix(mat: MatrixGFp, label: str | None = None) -> Matroid:
    """Linear matroid of the matrix columns: r(X) = GF(p) rank of X's columns.

    The table is filled by a depth-first walk over the column-inclusion
    tree, carrying a reduced pivot basis, so each subset costs one column
    reduction instead of a full elimination.
    """
    m = mat.cols
    if m > MAX_GROUND:
        raise SizeCapError(f"column count {m} exceeds cap {MAX_GROUND}")
    p = mat.p
    table = np.zeros(1 << m, dtype=np.uint8)
    basis: list[tuple[int, list[int]]] = []  # (pivot position, normalized vector)

    def reduce(vec: list[int]) -> list[int]:
        v = list(vec)
        for piv, bvec in basis:
            c = v[piv]
            if c:
                for i in range(mat.rows):
                    v[i] = (v[i] - c * bvec[i]) % p
        return v

    def walk(j: int, mask: int):
        if j == m:
            table[mask] = len(basis)
            return
        walk(j + 1, mask)
        v = reduce(mat.column(j))
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            walk(j + 1, mask | (1 << j))
        else:
            inv = pow(v[piv], p - 2, p)
            basis.append((piv, [(c * inv) % p for c in v]))
            walk(j + 1, mask | (1 << j))
            basis.pop()

    walk(0, 0)
    return Matroid(m, table, label=label or f"GF({p})[{mat.rows}x{mat.cols}]", validate=False)


FANO_ROWS = ((1, 0, 0, 1, 1, 0, 1),
             (0, 1, 0, 1, 0, 1, 1),
             (0, 0, 1, 0, 1, 1, 1))


def fano_pair() -> tuple[Matroid, Matroid]:
    """(F_7, F_7^-): the 3x7 matrix read over GF(2) and over GF(3)."""
    entries = tuple(v for row in FANO_ROWS for v in row)
    f7 = from_matrix(MatrixGFp(2, 3, 7, entries), label="F7")
    f7m = from_matrix(MatrixGFp(3, 3, 7, entries), label="F7-")
    return f7, f7m


# -- transversal matroids ------------------------------------------------------


@dataclass(frozen=True)
class SetSystem:
    """Ordered family (A_1, ..., A_k) of subsets of {0..m-1}, as masks."""

    m: int
    family: tuple[int, ...]

    def __post_init__(self):
        for a in self.family:
            if a >> self.m or a < 0:
                raise InvalidSubsetError(f"family member {a:#x} outside ground size {self.m}")


def transversal(system: SetSystem, label: str | None = None) -> Matroid:
    """Transversal matroid M[A]: independent sets are partial transversals.

    By Hall's theorem S is a partial transversal iff |N(T)| >= |T| for
    every T within S, where N(T) = {j : A_j meets T}.  The members that
    miss S are those within E - S, so |N(S)| = k - #{j : A_j within E - S}
    = k - inside[E - S], where inside[Y] = #{j : A_j within Y} is a
    histogram of the members summed over subsets, read at E - S through
    inside[::-1].  The Hall violators, inside[E - S] + |S| > k, are passed
    up to supersets; the other sets are independent, and r(X) is the size
    of the largest independent set within X.  The counts use the narrowest
    unsigned dtype that holds k + m, so a family of any size works.
    """
    m, fam = system.m, system.family
    if m > MAX_GROUND:
        raise SizeCapError(f"ground size {m} exceeds cap {MAX_GROUND}")
    k = len(fam)
    inside = np.zeros(1 << m, dtype=np.min_scalar_type(k + m))
    np.add.at(inside, np.array(fam, dtype=np.int64), 1)
    subset_reduce(inside, np.add)
    dependent = subset_reduce(inside[::-1] + popcount_array(m) > k, np.logical_or)
    return Matroid(m, rank_from_independent(m, ~dependent),
                   label=label or f"M[A], k={k}", validate=False)


# -- Kinser matroids -----------------------------------------------------------


def _kinser_parts(r: int) -> tuple[int, dict[str, int]]:
    """Ground size and layout V1..Vr (V2 = {e,f}), laid out in that order."""
    sizes = [r - 2, 2] + [r - 2] * (r - 2)
    layout: dict[str, int] = {}
    off = 0
    for i, size in enumerate(sizes, start=1):
        layout[f"V{i}"] = ((1 << size) - 1) << off
        off += size
    layout["e"] = 1 << (r - 2)
    layout["f"] = 1 << (r - 1)
    return off, layout


def kinser_base(r: int) -> Matroid:
    """The rank r+1 transversal matroid whose truncation is Kin(r).

    Parts V1..Vr with |V2| = 2 and all others of size r-2; the presented
    family is (A_1, A_3, ..., A_r, A, A') where A_i omits the cyclically
    consecutive pair of parts, A is the whole ground set and A' = V2.
    """
    if r < 4:
        raise MatroidError(f"kinser construction needs r >= 4, got {r}")
    m, layout = _kinser_parts(r)
    if m > MAX_GROUND:
        raise SizeCapError(f"kinser ground size r^2-3r+4 = {m} exceeds cap {MAX_GROUND}")
    E = (1 << m) - 1
    W = E & ~layout["V2"]
    fam = [W & ~(layout["V1"] | layout[f"V{r}"]),
           W & ~(layout["V1"] | layout["V3"])]
    for i in range(4, r + 1):
        fam.append(W & ~(layout[f"V{i - 1}"] | layout[f"V{i}"]))
    fam.extend([E, layout["V2"]])
    M = transversal(SetSystem(m, tuple(fam)), label=f"M_{r + 1}")
    if M.rank_total != r + 1:
        raise NotAMatroidError(f"kinser base has rank {M.rank_total}, expected {r + 1}")
    return Matroid(m, M.table, label=f"M_{r + 1}", layout=layout, validate=False)


def kinser(r: int) -> Matroid:
    """Kin(r): the truncation of the base transversal matroid, rank r."""
    base = kinser_base(r)
    t = truncate(base)
    return Matroid(base.m, t.table, label=f"Kin({r})", layout=base.layout, validate=False)


def kinser_relaxed(r: int, also_relax: int | None = None) -> Matroid:
    """Kin(r)^-: relax the circuit-hyperplane V1 u V2.

    With also_relax = i (3 <= i <= r), additionally relax V2 u Vi, giving
    the doubly relaxed matroid; Kin(4)^- is the Vamos matroid.
    """
    M = kinser(r)
    out = relax(M, M.parts("V1", "V2"))
    label = f"Kin({r})-"
    if also_relax is not None:
        if not 3 <= also_relax <= r:
            raise MatroidError(f"also_relax must be in [3, {r}], got {also_relax}")
        out = relax(out, M.parts("V2", f"V{also_relax}"))
        label = f"Kin({r})_{also_relax}="
    return Matroid(M.m, out.table, label=label, layout=M.layout, validate=False)


# -- binary spikes --------------------------------------------------------------


def spike_transversals(r: int, parity: str = "even") -> list[int]:
    """Leg transversals {z_1..z_r}, z_i in {a_i, b_i}, filtered by b-count parity."""
    want = 0 if parity == "even" else 1
    out = []
    for bits in range(1 << r):
        if bits.bit_count() % 2 != want:
            continue
        z = 0
        for i in range(r):
            z |= (1 << (r + i)) if (bits >> i) & 1 else (1 << i)
        out.append(z)
    return sorted(out)


def binary_spike(r: int) -> Matroid:
    """Z_r on legs {a_i, b_i}: non-spanning circuits are the transversals
    with an even number of b's plus every two-leg set {a_i,b_i,a_k,b_k}.

    Built from the circuit description (rank table by largest-independent-
    subset search) and cross-validated against the circuit axioms.
    """
    if not 4 <= r <= 8:
        raise MatroidError(f"binary spike supported for 4 <= r <= 8, got {r}")
    m = 2 * r
    circuits = spike_transversals(r, "even")
    for i, k in itertools.combinations(range(r), 2):
        circuits.append((1 << i) | (1 << (r + i)) | (1 << k) | (1 << (r + k)))
    res = validate_circuit_axioms(m, circuits)
    if not res:
        raise NotAMatroidError(f"spike circuit list fails {res.axiom}: {res.message}",
                               axiom=res.axiom, witness=res.witness)
    layout = {f"a{i + 1}": 1 << i for i in range(r)}
    layout.update({f"b{i + 1}": 1 << (r + i) for i in range(r)})
    layout["A"] = (1 << r) - 1
    layout["B"] = ((1 << r) - 1) << r
    return matroid_from_circuits(m, r, circuits, label=f"Z{r}", layout=layout)


# -- Dowling geometries ----------------------------------------------------------


def dowling(g: int, n: int) -> Matroid:
    """Dowling geometry of the cyclic group Z_g on n vertices.

    Elements, in order, with their layout names: for each vertex pair
    u < v in lex order, the edges ``edge_u_v_k`` from u to v with labels
    k = 0..g-1; then, for each vertex v, the loops ``loop_v_k`` with the
    non-identity labels k = 1..g-1.  So m = n(n-1)/2 g + n(g-1); g < 1,
    n < 1 and m > MAX_GROUND are refused before anything is built.

    r(X) = |V(X)| - b(X), the frame-matroid rank: V(X) is the set of
    vertices X touches and b(X) counts the components of (V(X), X) whose
    edges are balanced.  Every table pass is a per-element pass over the
    halves of a mask vector (see core.halves):

    - an edge set is balanced iff it lies in the consistent set
      B_phi = {u -> v edges labelled k with phi(v) = phi(u) + k mod g} of
      some potential phi in Z_g^n (loops carry labels k != 0 and lie in
      none), so B_phi is marked for every phi and marks are passed down to
      subsets;
    - V(X) is an OR of edge endpoints, one pass per edge;
    - comp[v][X], the least vertex joined to v by a path in X, comes from
      n - 1 rounds of min-propagation over the edges (a path has at most
      n - 1 edges), each a pass per edge;
    - each component root v (a touched vertex with comp[v][X] = v) adds
      bal[X & E(C)], where E(C) holds the edges with both ends in its
      vertex set C.

    The table is validated as a matroid on construction.
    """
    if g < 1 or n < 1:
        raise MatroidError(f"dowling needs group order >= 1 and n >= 1, got {g} and {n}")
    m = n * (n - 1) // 2 * g + n * (g - 1)
    if m > MAX_GROUND:
        raise SizeCapError(f"dowling geometry of group order {g} on {n} vertices has "
                           f"{m} elements, more than {MAX_GROUND}")
    edges = [(u, v, k) for u, v in itertools.combinations(range(n), 2) for k in range(g)]
    edges += [(v, v, k) for v in range(n) for k in range(1, g)]
    size = 1 << m
    bal = np.zeros(size, dtype=bool)
    for phi in itertools.product(range(g), repeat=n):
        bal[sum(1 << i for i, (t, h, k) in enumerate(edges) if phi[h] == (phi[t] + k) % g)] = True
    touched = np.zeros(size, dtype=np.uint8)
    comp = [np.full(size, v, dtype=np.uint8) for v in range(n)]
    for i, (t, h, _) in enumerate(edges):
        lo, hi = halves(bal, i)
        np.logical_or(lo, hi, out=lo, order="C")
        _, touched_with = halves(touched, i)
        np.bitwise_or(touched_with, (1 << t) | (1 << h), out=touched_with, order="C")
    for _ in range(n - 1):
        for i, (t, h, _) in enumerate(edges):
            if t == h:
                continue
            # both ends take the smaller label: the second minimum copies it
            _, tail = halves(comp[t], i)
            _, head = halves(comp[h], i)
            np.minimum(tail, head, out=tail, order="C")
            np.minimum(tail, head, out=head, order="C")
    inside = np.array([sum(1 << i for i, (t, h, _) in enumerate(edges) if (s >> t) & (s >> h) & 1)
                       for s in range(1 << n)], dtype=np.uint32)  # E(C) by vertex set C
    masks = np.arange(size, dtype=np.uint32)
    table = np.bitwise_count(touched)
    for v in range(n):
        members = sum((comp[w] == v).astype(np.uint8) << w for w in range(n))
        root = (comp[v] == v) & ((touched >> v) & 1).astype(bool)
        table -= root & bal[masks & inside[members]]
    layout = {f"loop_{t}_{k}" if t == h else f"edge_{t}_{h}_{k}": 1 << i
              for i, (t, h, k) in enumerate(edges)}
    return Matroid(m, table, label=f"Dowling({g},{n})", layout=layout)


def cyclic_group(order: int) -> int:
    """Z_order in the form ``dowling`` takes it: its order.

    Nothing in the package calls it; benchmark/tracing.py lists it among
    the catalog functions it traces by name, so the name stays until that
    list drops it.
    """
    return order
