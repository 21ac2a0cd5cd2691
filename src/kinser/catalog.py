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
                   NotAMatroidError, SizeCapError, count_reduce, halves,
                   matroid_from_circuits, popcount_array, subset_reduce,
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
        if self.rows < 0 or self.cols < 0:
            raise MatroidError(f"matrix size {self.rows} x {self.cols} is negative")
        if not _is_prime(self.p):
            raise MatroidError(f"modulus {self.p} is not prime")
        if len(self.entries) != self.rows * self.cols:
            raise MatroidError("entry count does not match dimensions")
        if any(not 0 <= v < self.p for v in self.entries):
            raise MatroidError(f"entries must be residues in [0, {self.p})")


# a from_matrix pass holds under four times its largest state, 2^(b-1) x rows
STATE_ENTRIES = 1 << 20


def _eliminate(state: np.ndarray, ranks: np.ndarray, count: int, p: int) -> tuple:
    """count passes of from_matrix from the ranks and state of some masks."""
    for _ in range(count):
        head, later = state[:, 0], state[:, 1:]
        lead = (head != 0).argmax(axis=1)[:, None]
        scale = np.take_along_axis(head, lead, axis=1)
        ranks = np.concatenate([ranks, ranks + (scale[:, 0] != 0)])
        scale[scale == 0] = 1  # a zero head eliminates nothing: later passes through
        new = later * scale[:, :, None]
        new -= np.take_along_axis(later, lead[:, :, None], axis=2) * head[:, None]
        new %= p
        state = np.concatenate([later, new])
    return ranks, state


def from_matrix(mat: MatrixGFp, label: str | None = None) -> Matroid:
    """Linear matroid of the matrix columns: r(X) = GF(p) rank of X's columns.

    By element passes: the state holds, for each mask X, the later columns
    under a linear map whose kernel is the span of X.  X + e gains a rank
    where the head h, column e's image, is nonzero, and maps its later
    columns on by w -> h_i w - w_i h (kernel: the span of h), i the first
    nonzero entry of h; scaling by h_i needs no inverse, a zero h scales
    by 1.  Residues are np.min_scalar_type(-p * p), which holds products:
    int8 to p = 11, int64 to 2^31 - 1, then Python ints.  Rank does not
    depend on the order, so the top m - b elements pass first and each
    high mask fills its 2^b masks from its own row, b the largest with
    2^(b+1) x rows <= STATE_ENTRIES.  No rows reads as one zero row.
    """
    m, p = mat.cols, mat.p
    if m > MAX_GROUND:
        raise SizeCapError(f"column count {m} exceeds cap {MAX_GROUND}")
    rows, dtype = max(mat.rows, 1), np.min_scalar_type(-p * p)
    cols = np.zeros((m, rows), dtype=dtype)
    cols[:, :mat.rows] = np.array(mat.entries, dtype=dtype).reshape(mat.rows, m).T
    low = min(m, max(0, (STATE_ENTRIES // rows).bit_length() - 2))
    high, state = _eliminate(np.roll(cols, -low, axis=0)[None], np.zeros(1, np.uint8), m - low, p)
    table = np.empty((len(high), 1 << low), dtype=np.uint8)
    for h, row in enumerate(state):
        table[h] = _eliminate(row[None], high[h:h + 1], low, p)[0]
    return Matroid(m, table.reshape(-1), label=label or f"GF({p})[{mat.rows}x{mat.cols}]",
                   validate=False)


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
        if self.m < 0:
            raise MatroidError(f"ground size {self.m} is negative")
        for a in self.family:
            if a >> self.m or a < 0:
                raise InvalidSubsetError(f"family member {a:#x} outside ground size {self.m}")


def _spread(vec: np.ndarray, sizes: list[int], index) -> np.ndarray:
    """Widen the axes of a mixed-radix vector, place value 1 first: the
    axis of the run of s elements becomes vec taken along it at index(s),
    whose last entry is the axis's last digit.  Runs of one element keep
    their axis (index(1) is [0, 1]); the others take one copy each, low
    runs first, so the last and largest takes copy contiguous blocks."""
    stride = 1
    for s in sizes:
        idx = index(s)
        if s > 1:
            vec = np.take(vec.reshape(-1, int(idx[-1]) + 1, stride), idx, axis=1).reshape(-1)
        stride *= idx.size
    return vec


def _support_digits(s: int) -> np.ndarray:
    """Whether a run of s elements is met, by each count 0..s taken from it: 0, 1, ..., 1."""
    return np.minimum(np.arange(s + 1), 1)


def transversal(system: SetSystem, label: str | None = None) -> Matroid:
    """Transversal matroid M[A]: independent sets are partial transversals.

    By the deficiency form of Hall's theorem the largest partial
    transversal within X has size r(X) = |X| + min over T within X of
    (|N(T)| - |T|), where N(T) = {j : A_j meets T}; T = empty gives 0.

    The ground set splits into maximal runs of consecutive elements that
    lie in the same members, q runs of s_1, ..., s_q elements.  N(T)
    depends only on which runs T meets and |T| only on how many elements
    T takes from each, so r(X) depends only on the counts c of X: r(c) =
    |c| + min over t <= c of (|N(t)| - |t|).  So the work is done on a
    count tensor with one axis of s_i + 1 digits per run (9,375 entries
    for Kin(6), against 2^22 masks), held as a flat mixed-radix vector
    with the first run at place value 1:

    - member counts go over the 2^q run supports: the members that miss
      the runs S are those within the others, so |N(S)| = k - inside[~S],
      where inside[Y] = #{j : A_j within the runs Y} is a histogram of the
      members' supports summed over subsets, read through inside[::-1];
    - |N(S)| is spread to the counts by the support of each digit, and
      Hall's slack |N(t)| - |t| is minimised over sub-counts, digit by
      digit along each axis (core.count_reduce); adding |c| gives r(c);
    - one take per run, at the popcounts of its 2^s_i masks, expands the
      counts to the 2^m table (_spread).

    A run of one element has the axis 0, 1 of its mask bit, so when no
    two elements share a run the tensor is the 2^m table itself, nothing
    is taken, |c| is the cached popcount vector, and every pass is a
    subset_reduce pass over halves.  The vectors use the narrowest signed
    dtype that holds both -m and k + m, so a family of any size works;
    the ranks are made uint8 before the expansion.
    """
    m, fam = system.m, system.family
    if m > MAX_GROUND:
        raise SizeCapError(f"ground size {m} exceeds cap {MAX_GROUND}")
    k = len(fam)
    members = np.array(fam, dtype=np.int64)
    # bit e of a ^ (a >> 1) is set where a takes e and not e + 1, or e + 1 and not e
    cuts = np.bitwise_or.reduce(members ^ (members >> 1))
    starts = [0] + [e + 1 for e in range(m - 1) if cuts >> e & 1]
    sizes = np.diff(starts + [m]).tolist()
    supports = sum((members >> start & 1) << i for i, start in enumerate(starts))
    inside = np.zeros(1 << len(starts), dtype=np.min_scalar_type(-1 - k - m))
    np.add.at(inside, supports, 1)
    subset_reduce(inside, np.add)
    slack = _spread(k - inside[::-1], sizes, _support_digits)  # |N(t)|
    if len(sizes) == m:
        count = popcount_array(m)
    else:
        count = np.zeros(1, dtype=np.uint8)
        for s in sizes:
            count = np.add.outer(np.arange(s + 1, dtype=np.uint8), count).reshape(-1)
    slack -= count  # Hall's slack |N(t)| - |t|
    table = count_reduce(slack, [s + 1 for s in sizes], np.minimum)
    table += count
    table = _spread(table.astype(np.uint8), sizes, popcount_array)
    return Matroid(m, table, label=label or f"M[A], k={k}", validate=False)


# -- Kinser matroids -----------------------------------------------------------


def _kinser_parts(r: int) -> dict[str, int]:
    """Layout V1..Vr (V2 = {e,f}) of the r^2-3r+4 elements, in that order."""
    sizes = [r - 2, 2] + [r - 2] * (r - 2)
    layout: dict[str, int] = {}
    off = 0
    for i, size in enumerate(sizes, start=1):
        layout[f"V{i}"] = ((1 << size) - 1) << off
        off += size
    layout["e"] = 1 << (r - 2)
    layout["f"] = 1 << (r - 1)
    return layout


def kinser_base(r: int) -> Matroid:
    """The rank r+1 transversal matroid whose truncation is Kin(r).

    Parts V1..Vr with |V2| = 2 and all others of size r-2; the presented
    family is (A_1, A_3, ..., A_r, A, A') where A_i omits the cyclically
    consecutive pair of parts, A is the whole ground set and A' = V2.

    Every member is a union of parts, so the elements of one part lie in
    the same members, and the parts are laid out as consecutive elements;
    neighbouring parts differ (A' holds V2 alone, and A_i holds V_(i+1)
    but not V_i), so the parts are exactly the runs that ``transversal``
    folds over: its count tensor has (r-1)^(r-1) 3 entries, 9,375 for
    Kin(6), against 2^(r^2-3r+4) masks.
    """
    if r < 4:
        raise MatroidError(f"kinser construction needs r >= 4, got {r}")
    m = r * r - 3 * r + 4
    if m > MAX_GROUND:
        raise SizeCapError(f"kinser ground size r^2-3r+4 = {m} exceeds cap {MAX_GROUND}")
    layout = _kinser_parts(r)
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
    the doubly relaxed matroid; Kin(4)^- is the Vamos matroid.  An
    also_relax out of range is refused before anything is built.
    """
    if also_relax is not None and not 3 <= also_relax <= r:
        raise MatroidError(f"also_relax must be in [3, {r}], got {also_relax}")
    M = kinser(r)
    out = relax(M, M.parts("V1", "V2"))
    label = f"Kin({r})-"
    if also_relax is not None:
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
