"""Rank-table matroids on bitmask subsets.

A matroid on ground set {0, ..., m-1} is stored as a full table of 2**m
ranks, indexed by subset mask (element i <-> bit i).  Everything else --
closure, flats, circuits, axiom validation -- is derived from table
lookups, so the cost model is "one array access per rank query".

Every scan over all 2^m subsets runs on the hypercube view
``table.reshape((2,) * m)``: in C order axis k holds element m-1-k, so
the subsets without and with element e are two slice views (see
``cube_halves``) and a per-element pass is one array operation; folds
over subsets (``subset_reduce``) take the same halves from
``vec.reshape(-1, 2, 2**e)``.  Rank tables are validated exhaustively at
every ground size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

MAX_GROUND = 24
CLOSURE_SCAN_LIMIT = 16  # closure and independence axiom scans refuse above this

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


def hypercube(vec: np.ndarray) -> np.ndarray:
    """View of a vector over all 2^m masks as a (2,) * m array."""
    return vec.reshape((2,) * (vec.size.bit_length() - 1))


def cube_halves(cube: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a mask hypercube at the masks without and with element e.

    Axis k holds element ndim-1-k, so each half is again a hypercube over
    the remaining elements, in increasing mask order.  The halves are
    always views, 0-d ones for a 1-d cube, so in-place passes write through.
    """
    pre = (slice(None),) * (cube.ndim - 1 - e)
    return cube[pre + (0, ...)], cube[pre + (1, ...)]


def _insert_zero_bits(i: int, *positions: int) -> int:
    """Mask whose bits at `positions` are 0 and whose other bits, in order, are i.

    Maps a flat index into a sub-cube (see cube_halves) back to a mask.
    """
    for p in sorted(positions):
        i = ((i >> p) << (p + 1)) | (i & ((1 << p) - 1))
    return i


def subset_reduce(vec: np.ndarray, op: np.ufunc) -> np.ndarray:
    """In place, vec[X] becomes op folded over vec[Y] for every Y within X.

    One pass per element e folds the masks without e into those with e:
    in vec.reshape(-1, 2, 2^e) they are the rows [:, 0] and [:, 1].  With
    np.add it counts, with np.logical_or it flags every superset of a
    flagged mask, and with np.maximum it is a running subset maximum.
    Returns vec.
    """
    for e in range(vec.size.bit_length() - 1):
        halves = vec.reshape(-1, 2, 1 << e)
        lo, hi = halves[:, 0], halves[:, 1]
        if e < 4:
            # runs of 2^e masks are too short for the inner loop: loop
            # across them, one strided column at a time (at m = 22 the
            # pass for e = 1 drops from about 10 ms to 0.8 ms)
            lo, hi = lo.T, hi.T
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
    layout: optional name -> mask dict for the construction's named parts
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
        flat_cube, tab_cube = hypercube(is_flat), hypercube(self.table)
        for e in range(self.m):
            without, _ = cube_halves(flat_cube, e)
            lo, hi = cube_halves(tab_cube, e)
            without &= hi > lo
        return is_flat

    def _circuit_mask_vector(self) -> np.ndarray:
        """Boolean vector over all masks: dependent with every X - e independent."""
        dep = self.table < self._pc
        is_circ = dep.copy()
        circ_cube, indep_cube = hypercube(is_circ), hypercube(~dep)
        for e in range(self.m):
            _, with_e = cube_halves(circ_cube, e)
            with_e &= cube_halves(indep_cube, e)[0]
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
    into halves like a mask hypercube.
    """
    if k < 6:
        shift = np.uint64(1 << k)
        viol = np.zeros_like(planes[0])
        for p in planes:
            viol |= (p >> shift) & ~p
        viol &= np.uint64(_LOW_HALF_BITS[k])
    else:
        viol = np.zeros(planes[0].size // 2, dtype=np.uint64)
        for p in planes:
            lo, hi = cube_halves(hypercube(p), k - 6)
            viol |= (hi & ~lo).reshape(-1)
    if not viol.any():
        return None
    i = int((viol != 0).argmax())
    word = int(viol[i])
    w = i if k < 6 else _insert_zero_bits(i, k - 6)
    return 64 * w + (word & -word).bit_length() - 1


def validate_rank_table(m: int, table: np.ndarray) -> AxiomResult:
    """Check R1-R3 (plus r(empty)=0) on a rank table, exhaustively.

    Monotonicity and submodularity are checked through their single-element
    local forms, which are equivalent to the quantified axioms; the reported
    witness is the first instance in (e, f, mask) order and is always an
    instance of the literal axiom.

    The table is uint8, as Matroid stores it.  One pass per element e
    takes inc_e(X) = r(X + e) - r(X) as a uint8 hypercube over the masks X
    without e; a value that wrapped below zero (above m) is an R2 failure.
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
    cube = hypercube(table)
    first_r3 = None
    for e in range(m):
        lo, hi = cube_halves(cube, e)
        inc = hi - lo
        top = int(inc.max())
        if top > m:
            x = _insert_zero_bits(int((hi < lo).argmax()), e)
            return AxiomResult(False, "R2", (x, x | (1 << e)),
                               f"r decreases from X={x:#x} to X+{{{e}}}")
        if first_r3 is not None or not top:
            continue
        planes = _packed_planes(inc, top)
        for f in range(e + 1, m):
            i = _first_increase(planes, f - 1)
            if i is not None:
                x = _insert_zero_bits(i, e)
                be, bf = 1 << e, 1 << f
                first_r3 = AxiomResult(
                    False, "R3", (x | be, x | bf),
                    f"submodularity fails at X={(x | be):#x}, Y={(x | bf):#x}")
                break
    return AxiomResult(True) if first_r3 is None else first_r3


def validate_closure_axioms(matroid: Matroid) -> AxiomResult:
    """Check CL1-CL4 for every subset (exhaustive).

    cl(X) is read off the rank table: X plus every e with r(X + e) = r(X).
    """
    m = matroid.m
    masks = np.arange(1 << m, dtype=np.int64)
    cl = masks.copy()
    cl_cube, tab_cube, mask_cube = hypercube(cl), hypercube(matroid.table), hypercube(masks)
    for e in range(m):
        lo, hi = cube_halves(tab_cube, e)
        without, _ = cube_halves(cl_cube, e)
        np.bitwise_or(without, 1 << e, out=without, where=hi == lo)
    bad = np.nonzero((cl & masks) != masks)[0]
    if bad.size:
        x = int(bad[0])
        return AxiomResult(False, "CL1", (x,), f"X not contained in cl(X) for X={x:#x}")
    for e in range(m):
        lo, hi = cube_halves(cl_cube, e)
        bad = (lo & ~hi) != 0
        if bad.any():
            x = _insert_zero_bits(int(bad.argmax()), e)
            return AxiomResult(False, "CL2", (x, x | (1 << e)),
                               f"cl not monotone from X={x:#x} to X+{{{e}}}")
    bad = np.nonzero(cl[cl] != cl)[0]
    if bad.size:
        x = int(bad[0])
        return AxiomResult(False, "CL3", (x,), f"cl(cl(X)) != cl(X) for X={x:#x}")
    for x_bit in range(m):
        bx = 1 << x_bit
        cl_lo, cl_hi = cube_halves(cl_cube, x_bit)
        gained = cl_hi & ~cl_lo & ~(cube_halves(mask_cube, x_bit)[0] | bx)
        for y_bit in range(m):
            if y_bit == x_bit:
                continue
            by = 1 << y_bit
            y_axis = y_bit if y_bit < x_bit else y_bit - 1
            gained_lo = cube_halves(gained, y_axis)[0]
            cl_y = cube_halves(cl_lo, y_axis)[1]
            bad = ((gained_lo & by) != 0) & ((cl_y & bx) == 0)
            if bad.any():
                x = _insert_zero_bits(int(bad.argmax()), x_bit, y_bit)
                return AxiomResult(False, "CL4", (x, x_bit, y_bit),
                                   f"exchange fails for X={x:#x}, x={x_bit}, y={y_bit}")
    return AxiomResult(True)


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
    for i, c in enumerate(sets):
        later = arr[i + 1:]
        inter = later & c
        nested = np.nonzero((inter == c) | (inter == later))[0]
        if nested.size:
            d = int(later[nested[0]])
            return AxiomResult(False, "C2", (c, d), f"circuits {c:#x} and {d:#x} are nested")
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


def validate_independence_axioms(m: int, table: np.ndarray) -> AxiomResult:
    """Check I1-I3 on the independence system derived from a rank table."""
    pc = popcount_array(m)
    indep = np.asarray(table) == pc
    if not indep[0]:
        return AxiomResult(False, "I1", (0,), "empty set is dependent")
    cube = hypercube(indep)
    for e in range(m):
        lo, hi = cube_halves(cube, e)
        bad = hi & ~lo
        if bad.any():
            x = _insert_zero_bits(int(bad.argmax()), e) | (1 << e)
            return AxiomResult(False, "I2", (x, x ^ (1 << e)),
                               f"subset of independent {x:#x} dependent")
    # I3 with |J| = |I| + 1 (equivalent to the general form by induction);
    # aug[I] holds the elements e outside I with I + e independent
    aug = np.zeros(1 << m, dtype=np.uint32)
    aug_cube = hypercube(aug)
    for e in range(m):
        without, _ = cube_halves(aug_cube, e)
        np.bitwise_or(without, 1 << e, out=without, where=cube_halves(cube, e)[1])
    ind_masks = np.flatnonzero(indep).astype(np.uint32)
    sizes = pc[ind_masks]
    for k in range(m):
        smaller, larger = ind_masks[sizes == k], ind_masks[sizes == k + 1]
        if larger.size == 0:
            continue
        for i in smaller.tolist():
            stuck = (larger & aug[i]) == 0
            if stuck.any():
                j = int(larger[stuck.argmax()])
                return AxiomResult(False, "I3", (i, j), f"no augmentation of {i:#x} from {j:#x}")
    return AxiomResult(True)


def validate_axioms(matroid_or_input, which: str) -> AxiomResult:
    """Dispatch an axiom scan by family name.

    `which` is one of rank | closure | circuits | independence.  The input
    is a Matroid for rank/closure/independence, or an (m, circuit list)
    pair for circuits.  The rank scan runs at every ground size; the
    closure and independence scans refuse beyond m = CLOSURE_SCAN_LIMIT.
    """
    if which == "circuits":
        m, circuits = matroid_or_input
        return validate_circuit_axioms(m, circuits)
    M = matroid_or_input
    if which == "rank":
        return validate_rank_table(M.m, M.table)
    if which in ("closure", "independence") and M.m > CLOSURE_SCAN_LIMIT:
        raise SizeCapError(
            f"exhaustive {which} axiom scan refused for m={M.m} > {CLOSURE_SCAN_LIMIT}")
    if which == "closure":
        return validate_closure_axioms(M)
    if which == "independence":
        return validate_independence_axioms(M.m, M.table)
    raise MatroidError(f"unknown axiom family {which!r}")


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
    for i, c in enumerate(circuits):
        for d in circuits[i + 1:]:
            if c & d == c or c & d == d:
                raise NotAMatroidError(
                    f"circuit list is not an antichain: {c:#x} vs {d:#x}", "C2", (c, d))

    pc = popcount_array(m)
    indep = (pc <= r) & ~_superset_vector(m, circuits)
    table = rank_from_independent(m, indep)
    if int(table[-1]) != r:
        raise NotAMatroidError(
            f"declared rank {r} but circuits force rank {int(table[-1])}", "R1",
            ((1 << m) - 1,))
    res = validate_rank_table(m, table)
    if not res:
        raise NotAMatroidError(f"circuit input yields invalid rank table: {res.message}",
                               axiom=res.axiom, witness=res.witness)
    return Matroid(m, table, label=label, layout=layout, validate=False)
