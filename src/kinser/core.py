"""Rank-table matroids on bitmask subsets.

A matroid on ground set {0, ..., m-1} is stored as a full table of 2**m
ranks, indexed by subset mask (element i <-> bit i).  Everything else --
closure, flats, circuits, axiom validation -- is derived from table
lookups, so the cost model is "one array access per rank query".

Every scan over all 2^m subsets is a sequence of per-element passes.
The pass for element e is one array operation on two views of a mask
vector, the masks without and with e, and ``halves`` alone decides where
those lie and how a pass loops over them; folds over subsets
(``subset_reduce``), the flat and circuit vectors, rank validation, the
Dowling table and deletion and contraction all take their halves from
it.  The same passes fold a mixed-radix vector, whose axes may be longer
than 2: ``digits`` gives the views of one axis at each of its digits
(``halves`` is its radix-2 case), and ``count_reduce`` folds digit d - 1
into digit d along each axis in turn, a radix-2 axis by exactly the
``subset_reduce`` pass.  A transversal table is so folded over the
counts X takes from each run of elements that lie in the same members,
then expanded to the 2^m masks.  A GF(p) pass appends the masks with e.

Rank tables are validated exhaustively (R1-R3) at every ground size.
The closure and independence axioms are equivalent to them, so no table
is scanned for those; ``validate_circuit_axioms`` checks a circuit list
as given, before any table is built from it.

Validation makes two passes.  The first, per element e, checks the
increments r(X + e) - r(X) for R2 and packs where they are positive, as
one bit plane, into row e of a single stacked uint64 array of m 2^(m-4)
bytes.  The second, per element f, checks R3 at every pair e < f with
one array operation over the rows e < f (cut into cache-sized blocks
above m = 18).  A double increment at e forces an R3 failure at a pair
no later than e's, so only the rows before the first element with one
are packed, and there every increment is 0 or 1 and the plane exact.
An invalid table's witness is read off the table itself.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

MAX_GROUND = 24

ENUM_KINDS = ("flats", "circuits", "bases", "hyperplanes", "circuit_hyperplanes")


class MatroidError(ValueError):
    """Base class for all matroid construction/usage errors."""


class InvalidSubsetError(MatroidError):
    """Subset mask has bits at positions >= ground size."""


class NotAMatroidError(MatroidError):
    """Input data does not define a matroid (carries a witness)."""

    def __init__(self, message, axiom=None, witness=None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class SizeCapError(MatroidError):
    """Request exceeds the size cap of an exhaustive operation."""


@functools.cache
def popcount_array(m: int) -> np.ndarray:
    """|X| for every mask X on m elements, as uint8 (cached per m)."""
    pc = np.bitwise_count(np.arange(1 << m, dtype=np.uint32)).astype(np.uint8)
    pc.flags.writeable = False  # shared by every caller
    return pc


def halves(vec: np.ndarray, e: int, parts: int = 2) -> tuple[np.ndarray, ...]:
    """Views of a mask vector at the masks without and with element e.

    In vec.reshape(-1, 2, 2^e) they are [:, 0] and [:, 1]: rows of 2^e
    masks, in mask order.  For e < 4 those rows are too short for numpy's
    inner loop, so both views come transposed and a pass over them must
    run with order="C": it then loops across the rows, one strided column
    at a time (at m = 22 the pass for e = 1 drops from about 10 ms to
    0.8 ms).  Every pass runs with order="C", at every e.

    With parts=1, vec holds only the masks without e (2^(m-1) entries in
    mask order) and comes back as one view laid out like the halves: the
    out= array of a pass whose result is read flat, in mask order (argmax,
    packing, a table).  The views always write through to vec.
    """
    return digits(vec, 1 << e, parts)


def digits(vec: np.ndarray, stride: int, radix: int) -> tuple[np.ndarray, ...]:
    """Views of a mixed-radix vector at each digit 0..radix-1 of the axis
    whose place value is stride: [:, d] of vec.reshape(-1, radix, stride),
    transposed when stride < 16 as in halves, which is stride 2^e, radix 2.
    """
    runs = vec.reshape(-1, radix, stride)
    return tuple(runs.transpose(1, 2, 0) if stride < 16 else runs.transpose(1, 0, 2))


def _insert_zero_bit(i: int, p: int) -> int:
    """Mask whose bit p is 0 and whose other bits, in order, are i.

    Maps an index into a vector over the masks without element p, in mask
    order (see halves), back to a mask.
    """
    return ((i >> p) << (p + 1)) | (i & ((1 << p) - 1))


def subset_reduce(vec: np.ndarray, op: np.ufunc) -> np.ndarray:
    """In place, vec[X] becomes op folded over vec[Y] for every Y within X.

    One pass per element e folds the masks without e into those with e.
    With np.add it counts, with np.logical_or it flags every superset of a
    flagged mask, and with np.maximum it is a running subset maximum.
    Returns vec.
    """
    return count_reduce(vec, (2,) * (vec.size.bit_length() - 1), op)


def count_reduce(vec: np.ndarray, radices, op: np.ufunc) -> np.ndarray:
    """In place, over a mixed-radix vector whose axes have the given
    lengths (place value 1 first), vec[c] becomes op folded over vec[t] for
    every t <= c digit by digit.

    Per axis, each digit d >= 1 folds in digit d - 1, so a radix-2 axis is
    exactly one subset_reduce pass.  Returns vec.
    """
    stride = 1
    for radix in radices:
        views = digits(vec, stride, radix)
        for lo, hi in zip(views, views[1:]):
            op(hi, lo, out=hi, order="C")
        stride *= radix
    return vec


def _superset_vector(m: int, masks) -> np.ndarray:
    """Boolean vector over all 2^m masks: True on every superset of a given mask."""
    up = np.zeros(1 << m, dtype=bool)
    up[np.asarray(masks, dtype=np.int64)] = True
    return subset_reduce(up, np.logical_or)


def mask_of(elements) -> int:
    """Mask with the given element indices set."""
    x = 0
    for e in elements:
        x |= 1 << e
    return x


def elements_of(mask: int) -> list[int]:
    """Ascending element indices of a mask."""
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def closures(table: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """cl X for every int64 mask X, read off the rank table (m + 1 reads per mask)."""
    rank = table[masks]
    out = masks.copy()
    for e in range(table.size.bit_length() - 1):
        bit = np.int64(1 << e)
        out[table[masks | bit] == rank] |= bit
    return out


@dataclass(frozen=True)
class SetClass:
    """Classification flags of one subset, all derived from rank lookups."""

    independent: bool
    dependent: bool
    spanning: bool
    basis: bool
    flat: bool
    circuit: bool
    hyperplane: bool
    circuit_hyperplane: bool
    loop: bool
    coloop: bool


@dataclass(frozen=True)
class AxiomResult:
    """Outcome of an axiom scan: ok, or the violated axiom plus witness."""

    ok: bool
    axiom: str | None = None
    witness: tuple | None = None
    message: str = ""

    def __bool__(self):
        return self.ok


class Matroid:
    """Immutable matroid with a materialized rank table.

    Parameters
    ----------
    m:      ground size, 1 <= m <= 24
    table:  sequence of 2**m ranks in mask order
    label:  provenance string
    layout: optional name -> mask dict for the construction's named parts,
            each a subset of the ground set
    validate: run the exhaustive rank-axiom check (R1-R3)

    The table must have an integer dtype and entries in [0, m]; anything
    else raises MatroidError before the entries are stored as uint8.
    """

    __slots__ = ("m", "table", "label", "layout", "_pc")

    def __init__(self, m: int, table, label: str = "", layout: dict[str, int] | None = None,
                 validate: bool = True):
        if not 1 <= m <= MAX_GROUND:
            raise MatroidError(f"ground size must be in [1, {MAX_GROUND}], got {m}")
        raw = np.asarray(table)
        if raw.shape != (1 << m,):
            raise MatroidError(f"rank table must have 2^{m} entries, got {raw.shape}")
        if raw.dtype.kind not in "iu":
            raise MatroidError(f"rank table must have an integer dtype, got {raw.dtype}")
        lo, hi = (int(raw.min()) if raw.dtype.kind == "i" else 0), int(raw.max())
        if lo < 0 or hi > m:
            raise MatroidError(f"rank value {lo if lo < 0 else hi} outside [0, {m}]")
        tab = np.asarray(raw, dtype=np.uint8)
        self.m = m
        self.table = tab
        self.table.flags.writeable = False
        self.label = label
        self.layout = dict(layout) if layout else None
        for part in (self.layout or {}).values():
            self.check_mask(part)
        self._pc = popcount_array(m)
        if validate:
            res = validate_rank_table(m, tab)
            if not res:
                raise NotAMatroidError(f"{label or 'table'}: {res.message}",
                                       axiom=res.axiom, witness=res.witness)

    # -- basic queries ----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @property
    def rank_total(self) -> int:
        return int(self.table[-1])

    def check_mask(self, x: int) -> int:
        if x < 0 or x >> self.m:
            raise InvalidSubsetError(f"mask {x:#x} has bits outside ground size {self.m}")
        return x

    def rank(self, x: int) -> int:
        return int(self.table[self.check_mask(x)])

    def size(self, x: int) -> int:
        return int(self._pc[self.check_mask(x)])

    def closure(self, x: int) -> int:
        """X together with every e outside X that keeps the rank unchanged."""
        return int(closures(self.table, np.array([self.check_mask(x)]))[0])

    def classify(self, x: int) -> SetClass:
        x = self.check_mask(x)
        tab = self.table
        rx = int(tab[x])
        n = int(self._pc[x])
        rm = self.rank_total
        independent = rx == n
        spanning = rx == rm
        circuit = not independent and all(
            tab[x ^ (1 << e)] == n - 1 for e in range(self.m) if x & (1 << e))
        flat = all(tab[x | (1 << e)] > rx for e in range(self.m) if not x & (1 << e))
        hyperplane = flat and rx == rm - 1
        return SetClass(
            independent=independent,
            dependent=not independent,
            spanning=spanning,
            basis=independent and spanning,
            flat=flat,
            circuit=circuit,
            hyperplane=hyperplane,
            circuit_hyperplane=circuit and hyperplane,
            loop=n == 1 and rx == 0,
            coloop=n == 1 and bool(tab[self.full_mask ^ x] == rm - 1),
        )

    # -- enumeration ------------------------------------------------------

    def _flat_mask_vector(self) -> np.ndarray:
        """Boolean vector over all masks: True where the mask is a flat."""
        is_flat = np.ones(1 << self.m, dtype=bool)
        for e in range(self.m):
            lo, hi = halves(self.table, e)
            without, _ = halves(is_flat, e)
            np.logical_and(without, np.less(lo, hi, order="C"), out=without, order="C")
        return is_flat

    def _circuit_mask_vector(self) -> np.ndarray:
        """Boolean vector over all masks: dependent with every X - e independent."""
        dep = self.table < self._pc
        is_circ, indep = dep.copy(), ~dep
        for e in range(self.m):
            _, with_e = halves(is_circ, e)
            np.logical_and(with_e, halves(indep, e)[0], out=with_e, order="C")
        return is_circ

    def enumerate(self, kind: str) -> list[int]:
        """All masks of the requested kind, ascending by mask value."""
        if kind not in ENUM_KINDS:
            raise MatroidError(f"unknown enumeration kind {kind!r}")
        if kind == "flats":
            sel = self._flat_mask_vector()
        elif kind == "circuits":
            sel = self._circuit_mask_vector()
        elif kind == "bases":
            sel = (self.table == self.rank_total) & (self._pc == self.rank_total)
        elif kind == "hyperplanes":
            sel = self._flat_mask_vector() & (self.table == self.rank_total - 1)
        else:  # circuit_hyperplanes
            sel = (self._circuit_mask_vector()
                   & self._flat_mask_vector()
                   & (self.table == self.rank_total - 1))
        return np.flatnonzero(sel).tolist()

    # -- misc ---------------------------------------------------------------

    def table_equal(self, other: "Matroid") -> bool:
        return self.m == other.m and np.array_equal(self.table, other.table)

    def part(self, name: str) -> int:
        """Mask of a named layout part."""
        if not self.layout or name not in self.layout:
            raise MatroidError(f"{self.label or 'matroid'} has no layout part {name!r}")
        return self.layout[name]

    def parts(self, *names: str) -> int:
        """Union mask of several named layout parts."""
        x = 0
        for name in names:
            x |= self.part(name)
        return x

    def __repr__(self):
        return f"Matroid(m={self.m}, r={self.rank_total}, label={self.label!r})"


def content_fingerprint(M: Matroid) -> str:
    """Stable digest of the rank table; binds certificates to matroid content."""
    h = hashlib.sha256()
    h.update(b"matroid-v1")
    h.update(M.m.to_bytes(1, "little"))
    h.update(M.table.tobytes())
    return h.hexdigest()[:16]


# -- axiom validation -------------------------------------------------------


# words of bit planes compared per array operation, so that a block and
# its result stay in a core's cache: all the rows for m <= 18, two at m = 22
PLANE_BLOCK_WORDS = 1 << 16

# bits of a 64-bit word whose position has bit k clear, for k < 6
_LOW_HALF_BITS = (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                  0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)


def _pack_plane(bits: np.ndarray, row: np.ndarray) -> None:
    """Pack a 0/1 vector little-endian into a row of uint64 words: bit b of
    word w is entry 64 w + b.  Bits past the end of the vector stay as
    they are (clear in a zeroed row)."""
    packed = np.packbits(bits, bitorder="little")
    row.view(np.uint8)[:packed.size] = packed


def _increases(planes: np.ndarray, k: int, buf: np.ndarray) -> np.ndarray:
    """Per row of packed planes, the bits of the masks X with bit k clear
    whose plane is clear at X and set at X + 2^k, written into buf and
    returned as rows.

    For k < 6 the partner bit lies in the same word, 2^k places up, and a
    result row is laid out like its plane; for k >= 6 it lies in the word
    2^(k-6) places up, and a result row holds the words without bit k - 6
    in mask order (see halves).  (a | p) ^ p is a & ~p with no temporary.
    """
    n, words = planes.shape
    if k < 6:
        out = buf[:n * words].reshape(n, words)
        np.right_shift(planes, np.uint64(1 << k), out=out)
        np.bitwise_and(out, np.uint64(_LOW_HALF_BITS[k]), out=out)
        np.bitwise_or(out, planes, out=out)
        np.bitwise_xor(out, planes, out=out)
        return out
    flat = buf[:n * words // 2]
    (out,) = halves(flat, k - 6, parts=1)
    lo, hi = halves(planes, k - 6)
    np.bitwise_or(hi, lo, out=out, order="C")
    np.bitwise_xor(out, lo, out=out, order="C")
    return flat.reshape(n, -1)


def _r3_witness(table: np.ndarray, e: int) -> tuple[int, int]:
    """The first R3 witness (X + e, X + f) with smaller element e: the least
    f > e, then the least X, with inc_e(X + f) > inc_e(X), where inc_e(X) =
    r(X + e) - r(X).  The caller knows that some f fails."""
    inc = np.empty(table.size // 2, dtype=np.uint8)
    lo, hi = halves(table, e)
    np.subtract(hi, lo, out=halves(inc, e, parts=1)[0], order="C")
    rises = np.empty(inc.size // 2, dtype=bool)
    for f in range(e + 1, table.size.bit_length() - 1):
        lo, hi = halves(inc, f - 1)  # f is bit f - 1 of the masks without e
        np.greater(hi, lo, out=halves(rises, f - 1, parts=1)[0], order="C")
        if rises.any():
            x = _insert_zero_bit(_insert_zero_bit(int(rises.argmax()), f - 1), e)
            return x | 1 << e, x | 1 << f
    raise AssertionError(f"no R3 failure at element {e}")


def validate_rank_table(m: int, table: np.ndarray) -> AxiomResult:
    """Check R1-R3 (plus r(empty)=0) on a rank table, exhaustively.

    Monotonicity and submodularity are checked through their single-element
    local forms, which are equivalent to the quantified axioms; the reported
    witness is the first instance in (e, f, mask) order and is always an
    instance of the literal axiom.  Any R1 failure is reported before any
    R2 failure, and any R2 failure before any R3 failure.

    The table is uint8, as Matroid stores it.  R1 is one comparison with
    the popcounts; then come two passes.

    1. Per element e, inc_e(X) = r(X + e) - r(X) is written into one
       reused uint8 vector over the masks X without e, in mask order.  A
       value that wrapped below zero (above m) is an R2 failure, reported
       at once.  The bit plane [inc_e >= 1] is packed, 64 masks to a
       word, into row e of one (m, max(1, 2^(m-7))) uint64 array.
    2. Per bit position k = 0..m-2 of those masks, that is per element
       f = k + 1: R3 at (e, f) says inc_e(X + f) <= inc_e(X) for every X
       without f.  Where every inc_e is 0 or 1 it fails exactly where the
       plane of e is set at X + f and clear at X.  One array operation
       compares the rows e <= k (a shift within a word for k < 6, word
       halves for k >= 6), in blocks of PLANE_BLOCK_WORDS words (a single
       block up to m = 18), and only the least failing e is kept.

    Let e0 be the first element with some inc_e0(X) >= 2.  By R1,
    inc_e0(empty) = r({e0}) <= 1, so inc_e0 rises somewhere on a chain of
    single-element steps from the empty set to X: inc_e0(Y + f) >
    inc_e0(Y) for some Y and f.  That is an R3 failure at {e0, f}, and the
    local form is symmetric in its two elements, so the first R3 failure
    has its smaller element at most e0.  Below e0 every increment is 0 or
    1 and the planes are exact, so only the rows before e0 are packed and
    compared (every element is still checked for R2); the failing element
    is the least failing row, or e0 if none fails.  The witness at that
    element is then read off the table, one f at a time (_r3_witness).

    Memory: the plane array takes m 2^(m-4) bytes, the pass 2 buffer (one
    block of rows) at most as much, and inc 2^(m-1) bytes.  Where pass 2
    compares word halves (k >= 6), its 2-D views loop over runs shorter
    than numpy's buffer size, and a ufunc call may then iterate buffered,
    with up to three buffers of min(np.getbufsize(), half a block) words:
    192 KiB at most at the default size.  Up to m = 18 the block holds all
    m rows and half of it is m 2^(m-8) words; from m = 20 on it holds
    fewer rows than m, and the buffers fit in what the pass 2 buffer's
    bound leaves.  Reading a witness adds 3 2^(m-2) bytes.
    """
    pc = popcount_array(m)
    if table[0] != 0:
        return AxiomResult(False, "R1", (0,), "rank of empty set is nonzero")
    bad = np.nonzero(table > pc)[0]
    if bad.size:
        x = int(bad[0])
        return AxiomResult(False, "R1", (x,), f"r(X)={int(table[x])} > |X|={int(pc[x])} for X={x:#x}")
    inc = np.empty(table.size // 2, dtype=np.uint8)
    words = max(1, inc.size >> 6)
    planes = np.zeros((m, words), dtype="<u8")
    first = m  # the least element known to fail R3: e0, then any failing row below
    for e in range(m):
        lo, hi = halves(table, e)
        np.subtract(hi, lo, out=halves(inc, e, parts=1)[0], order="C")
        top = int(inc.max())
        if top > m:
            x = _insert_zero_bit(int((inc > m).argmax()), e)
            return AxiomResult(False, "R2", (x, x | (1 << e)),
                               f"r decreases from X={x:#x} to X+{{{e}}}")
        if top > 1:
            first = min(first, e)
        if e < first and top:
            _pack_plane(inc, planes[e])
    block = max(1, PLANE_BLOCK_WORDS // words)
    buf = np.empty(min(block, first) * words, dtype="<u8")
    for k in range(m - 1):
        n = min(k + 1, first)
        for a in range(0, n, block):
            viol = _increases(planes[a:min(n, a + block)], k, buf)
            if viol.any():
                first = a + int(viol.any(axis=1).argmax())
                break
    if first == m:
        return AxiomResult(True)
    x, y = _r3_witness(table, first)
    return AxiomResult(False, "R3", (x, y), f"submodularity fails at X={x:#x}, Y={y:#x}")


def _nested_pair(circuits: np.ndarray) -> tuple[int, int] | None:
    """The first pair (c, d) in list order with c inside d or d inside c, or
    None for an antichain; one array operation per listed circuit."""
    for i, c in enumerate(circuits.tolist()):
        later = circuits[i + 1:]
        nested = later[((later & c) == c) | ((later & c) == later)]
        if nested.size:
            return c, int(nested[0])
    return None


def validate_circuit_axioms(m: int, circuits: list[int]) -> AxiomResult:
    """Check C1-C3 on a circuit list, literally, as given.

    C3 is checked for e in the intersection; for e outside it the axiom
    holds trivially because one of the two circuits survives untouched.
    It is answered by lookups in the vector of supersets of listed
    circuits; pairs are scanned in list order, one row of pairs at a time.
    """
    sets = [int(c) for c in circuits]
    for c in sets:
        if c >> m:
            return AxiomResult(False, "C1", (c,), f"circuit {c:#x} outside ground size {m}")
    if 0 in sets:
        return AxiomResult(False, "C1", (0,), "empty set listed as a circuit")
    if len(set(sets)) != len(sets):
        dup = next(c for c in sets if sets.count(c) > 1)
        return AxiomResult(False, "C2", (dup, dup), "duplicate circuit")
    if m > MAX_GROUND:
        raise SizeCapError(f"ground size {m} exceeds cap {MAX_GROUND}")
    arr = np.array(sets, dtype=np.int64)
    nested = _nested_pair(arr)
    if nested:
        return AxiomResult(False, "C2", nested,
                           "circuits {:#x} and {:#x} are nested".format(*nested))
    dependent = _superset_vector(m, arr)
    bits = np.int64(1) << np.arange(m, dtype=np.int64)
    for i, c in enumerate(sets):
        later = arr[i + 1:, None]
        shared = (later & c & bits) != 0
        bad = shared & ~dependent[(later | c) ^ bits]
        if bad.any():
            j, e = np.argwhere(bad)[0]
            return AxiomResult(False, "C3", (c, int(later[j, 0]), int(e)),
                               "elimination produced a circuit-free set")
    return AxiomResult(True)


# -- construction from circuits ----------------------------------------------


def matroid_from_circuits(m: int, r: int, nonspanning_circuits: list[int],
                          label: str = "", layout: dict[str, int] | None = None) -> Matroid:
    """Matroid from its non-spanning circuits plus a declared rank.

    X is independent iff |X| <= r and no listed circuit is contained in X;
    the rank of X is the size of its largest independent subset.  The
    resulting table is validated; a failure raises NotAMatroidError with
    the witnessing axiom instance.
    """
    if m > MAX_GROUND:
        raise SizeCapError(f"ground size {m} exceeds cap {MAX_GROUND}")
    circuits = [int(c) for c in nonspanning_circuits]
    for c in circuits:
        if c >> m:
            raise InvalidSubsetError(f"circuit {c:#x} outside ground size {m}")
        if not c:
            raise NotAMatroidError("empty set listed as a circuit", "C1", (0,))
        if c.bit_count() > r + 1:
            raise NotAMatroidError(f"circuit {c:#x} has more than r+1 elements", "C1", (c,))
    nested = _nested_pair(np.array(circuits, dtype=np.int64))
    if nested:
        raise NotAMatroidError(
            "circuit list is not an antichain: {:#x} vs {:#x}".format(*nested), "C2", nested)

    pc = popcount_array(m)
    indep = (pc <= r) & ~_superset_vector(m, circuits)
    table = subset_reduce(np.where(indep, pc, 0).astype(np.uint8, copy=False), np.maximum)
    if int(table[-1]) != r:
        raise NotAMatroidError(
            f"declared rank {r} but circuits force rank {int(table[-1])}", "R1",
            ((1 << m) - 1,))
    return Matroid(m, table, label=label, layout=layout)
