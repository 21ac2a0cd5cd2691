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
it.  Rank tables are validated exhaustively (R1-R3) at every ground
size.  The closure and independence axioms are equivalent to them, so
no table is scanned for those; ``validate_circuit_axioms`` checks a
circuit list as given, before any table is built from it.
"""

from __future__ import annotations

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


_POPCOUNT_CACHE: dict[int, np.ndarray] = {}


def popcount_array(m: int) -> np.ndarray:
    """|X| for every mask X on m elements, as uint8 (cached per m)."""
    pc = _POPCOUNT_CACHE.get(m)
    if pc is None:
        idx = np.arange(1 << m, dtype=np.uint32)
        pc = np.bitwise_count(idx).astype(np.uint8)
        pc.flags.writeable = False
        _POPCOUNT_CACHE[m] = pc
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
    runs = vec.reshape(-1, parts, 1 << e)
    return tuple(runs.transpose(1, 2, 0) if e < 4 else runs.transpose(1, 0, 2))


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
    for e in range(vec.size.bit_length() - 1):
        lo, hi = halves(vec, e)
        op(hi, lo, out=hi, order="C")
    return vec


def _superset_vector(m: int, masks) -> np.ndarray:
    """Boolean vector over all 2^m masks: True on every superset of a given mask."""
    up = np.zeros(1 << m, dtype=bool)
    up[np.asarray(masks, dtype=np.int64)] = True
    return subset_reduce(up, np.logical_or)


def rank_from_independent(m: int, indep: np.ndarray) -> np.ndarray:
    """Rank table from the independence vector: r(X) is the size of the
    largest independent I within X, as uint8."""
    sizes = np.where(indep, popcount_array(m), 0).astype(np.uint8, copy=False)
    return subset_reduce(sizes, np.maximum)


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
        x = self.check_mask(x)
        rx = self.table[x]
        out = x
        for e in range(self.m):
            b = 1 << e
            if not x & b and self.table[x | b] == rx:
                out |= b
        return out

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


# bits of a 64-bit word whose position has bit k clear, for k < 6
_LOW_HALF_BITS = (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                  0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)


def _packed_planes(inc: np.ndarray, top: int) -> list[np.ndarray]:
    """Bit planes [inc >= t], t = 1..top, packed little-endian into uint64 words.

    Bit b of word w stands for index 64 w + b of the flattened array;
    short arrays are padded with clear bits to one word.
    """
    flat = inc.reshape(-1)
    planes = []
    for t in range(1, top + 1):
        packed = np.packbits(flat if t == 1 else flat >= t, bitorder="little")
        if packed.size % 8:
            packed = np.concatenate([packed, np.zeros(8 - packed.size % 8, np.uint8)])
        planes.append(packed.view("<u8"))
    return planes


def _first_increase(planes: list[np.ndarray], k: int) -> int | None:
    """First index X with bit k clear at which some plane is clear while
    its bit at X + 2^k is set, or None.

    For k < 6 the partner bit lies in the same word, 2^k places up; for
    k >= 6 it lies in the word 2^(k-6) places up, and the words are split
    into halves like a mask vector.
    """
    if k < 6:
        shift = np.uint64(1 << k)
        viol = np.zeros_like(planes[0])
        for p in planes:
            viol |= (p >> shift) & ~p
        viol &= np.uint64(_LOW_HALF_BITS[k])
    else:
        viol = np.zeros(planes[0].size // 2, dtype=np.uint64)
        (out,) = halves(viol, k - 6, parts=1)
        for p in planes:
            lo, hi = halves(p, k - 6)
            gain = np.bitwise_and(hi, np.invert(lo, order="C"), order="C")
            np.bitwise_or(out, gain, out=out, order="C")
    if not viol.any():
        return None
    i = int((viol != 0).argmax())
    word = int(viol[i])
    w = i if k < 6 else _insert_zero_bit(i, k - 6)
    return 64 * w + (word & -word).bit_length() - 1


def validate_rank_table(m: int, table: np.ndarray) -> AxiomResult:
    """Check R1-R3 (plus r(empty)=0) on a rank table, exhaustively.

    Monotonicity and submodularity are checked through their single-element
    local forms, which are equivalent to the quantified axioms; the reported
    witness is the first instance in (e, f, mask) order and is always an
    instance of the literal axiom.

    The table is uint8, as Matroid stores it.  One pass per element e
    writes inc_e(X) = r(X + e) - r(X) as a uint8 vector over the masks X
    without e, in mask order; a value that wrapped below zero (above m) is
    an R2 failure.
    R2 failures come first, so once an R3 failure is found it is kept
    while the pass goes on looking for R2 failures only.  R3 at (e, f) says
    inc_e(X + f) <= inc_e(X) for every X without f.  It runs on packed
    bits: it fails exactly where some bit plane [inc_e >= t] is set at
    X + f and clear at X, so the planes are packed 64 masks to a word and
    compared by a shift within a word (f - 1 < 6) or between word halves.
    For a valid table R1 and R3 give inc_e(X) <= r({e}) <= 1, so there is
    one plane; an invalid table may have more, and their union still finds
    exactly the violations, first one first.
    """
    pc = popcount_array(m)
    if table[0] != 0:
        return AxiomResult(False, "R1", (0,), "rank of empty set is nonzero")
    bad = np.nonzero(table > pc)[0]
    if bad.size:
        x = int(bad[0])
        return AxiomResult(False, "R1", (x,), f"r(X)={int(table[x])} > |X|={int(pc[x])} for X={x:#x}")
    first_r3 = None
    inc = np.empty(table.size // 2, dtype=np.uint8)
    for e in range(m):
        lo, hi = halves(table, e)
        np.subtract(hi, lo, out=halves(inc, e, parts=1)[0], order="C")
        top = int(inc.max())
        if top > m:
            x = _insert_zero_bit(int((inc > m).argmax()), e)
            return AxiomResult(False, "R2", (x, x | (1 << e)),
                               f"r decreases from X={x:#x} to X+{{{e}}}")
        if first_r3 is not None or not top:
            continue
        planes = _packed_planes(inc, top)
        for f in range(e + 1, m):
            i = _first_increase(planes, f - 1)
            if i is not None:
                x = _insert_zero_bit(i, e)
                be, bf = 1 << e, 1 << f
                first_r3 = AxiomResult(
                    False, "R3", (x | be, x | bf),
                    f"submodularity fails at X={(x | be):#x}, Y={(x | bf):#x}")
                break
    return AxiomResult(True) if first_r3 is None else first_r3


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
        if c.bit_count() > r + 1:
            raise NotAMatroidError(f"circuit {c:#x} has more than r+1 elements", "C1", (c,))
    nested = _nested_pair(np.array(circuits, dtype=np.int64))
    if nested:
        raise NotAMatroidError(
            "circuit list is not an antichain: {:#x} vs {:#x}".format(*nested), "C2", nested)

    pc = popcount_array(m)
    indep = (pc <= r) & ~_superset_vector(m, circuits)
    table = rank_from_independent(m, indep)
    if int(table[-1]) != r:
        raise NotAMatroidError(
            f"declared rank {r} but circuits force rank {int(table[-1])}", "R1",
            ((1 << m) - 1,))
    return Matroid(m, table, label=label, layout=layout)
