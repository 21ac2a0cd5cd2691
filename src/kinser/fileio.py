"""Bit-exact text formats for matroids and bad-family certificates.

Matroid files start with the header line ``matroid v1`` and carry exactly
one body section: a full ``ranks`` table, a ``circuits`` list with the
declared rank, a ``matrix p=<prime>`` block, or a ``transversal`` family.
Masks and element lists are little-endian by element index (element i is
bit i); writers always emit the canonical ``ranks`` body so that
write-then-parse is the identity on tables.

Certificates are self-verifying: parsing re-evaluates the inequality
against the supplied matroid and refuses on any mismatch of fingerprint,
lhs or rhs.

Large tables and long mask lists are written and read in whole-array
passes, a block of RANKS_CHUNK ranks or characters at a time.
``_ranks_body`` writes one little-endian word cell per rank: uint16
(digit, separator) when every rank is below 10, and otherwise uint32
(tens digit or 0, units digit, separator, 0) with the zero bytes cut out
by ``bytes.translate``.  ``_decimal_values`` reads a chunk where digits
and single separators alternate, as the writer emits for ranks below 10,
through a strided ``<u2`` view; any other chunk whose tokens are all one
or two ASCII digits, as in every written table, in byte passes; and any
other chunk, malformed ones included, token by token with
``parse_int``.  That is the one integer grammar of both formats: an
optional ASCII sign, then ASCII digits; elements take no sign.  Every
element list written is a line of one ``format_element_lines`` call over
all the masks of a file or listing.  Lookup tables are built on first
use, not at import.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .core import (MAX_GROUND, Matroid, MatroidError, content_fingerprint,
                   mask_of, matroid_from_circuits, validate_rank_table)
from .catalog import PRIME_TEST_LIMIT, MatrixGFp, SetSystem, from_matrix, transversal
from .engine import BadFamilyCertificate, Family, evaluate

MATROID_HEADER = "matroid v1"
CERT_HEADER = "kinser-certificate v1"
MASK_ORDER_COMMENT = "# masks little-endian: element i <-> bit i of the subset index"
RANKS_PER_LINE = 16


class FormatError(MatroidError):
    """Malformed matroid or certificate text."""


class StaleCertificateError(MatroidError):
    """Certificate does not re-verify against the named matroid."""


LINES_BLOCK = 1 << 16  # masks formatted per array pass by format_element_lines


@functools.cache
def _element_digits() -> np.ndarray:
    """Row e < MAX_GROUND holds the digit bytes of e, zero-padded; row
    MAX_GROUND holds '-', the text of the empty set (built on first use)."""
    digits = np.array([str(e) for e in range(MAX_GROUND)] + ["-"], dtype="S3")
    digits = digits.view(np.uint8).reshape(-1, 3)
    digits.flags.writeable = False  # shared by every caller
    return digits


def format_element_lines(masks: list[int]) -> str:
    """One line per mask, in array passes: the comma list of its elements
    in ascending order, or '-' for the empty set.

    Each block of LINES_BLOCK masks is unpacked into a (mask, 32-bit) bit
    matrix whose column MAX_GROUND (< 32) marks the empty masks; the flat
    indices of its set bits list them mask by mask in ascending element
    order.  Every bit becomes a token of its digits and a comma, scattered
    at the cumulative token offsets, and the last comma of each mask becomes
    a newline.  A mask outside [0, 2^MAX_GROUND) raises MatroidError.
    """
    try:
        arr = np.asarray(masks, dtype=np.int64).reshape(-1)
    except OverflowError:
        arr = None
    if arr is None or (arr >> MAX_GROUND).any():
        bad = next(x for x in masks if x >> MAX_GROUND)
        raise MatroidError(f"mask {bad:#x} has an element outside [0, {MAX_GROUND})")
    digits = _element_digits()
    blocks = []
    for lo in range(0, arr.size, LINES_BLOCK):
        part = arr[lo:lo + LINES_BLOCK].astype("<u4")
        bits = np.unpackbits(part.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little")
        bits[:, MAX_GROUND] = part == 0
        at = np.flatnonzero(bits.view(bool))
        del bits
        rows, elements = at >> 5, at & 31
        two = (elements >= 10) & (elements < MAX_GROUND)
        ends = np.cumsum(2 + two)
        out = np.full(int(ends[-1]), ord(","), dtype=np.uint8)
        out[ends - 2] = digits[elements, 1]        # one-digit tokens: overwritten next
        out[ends - 2 - two] = digits[elements, 0]
        out[ends[np.append(rows[1:] != rows[:-1], True)] - 1] = ord("\n")
        blocks.append(str(out, "ascii"))
    return "".join(blocks)


def parse_elements(text: str) -> int:
    """The mask of a comma list of ASCII decimal elements; '-' or blank is 0."""
    text = text.strip()
    if text == "-" or not text:
        return 0
    tokens = [tok.strip() for tok in text.split(",")]
    try:
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError
        elements = [int(tok) for tok in tokens]
    except ValueError:  # also a token longer than int() converts
        raise FormatError(f"bad element list {text!r}") from None
    if not all(0 <= e < MAX_GROUND for e in elements):
        raise FormatError(f"element list {text!r} has an element outside [0, {MAX_GROUND})")
    return mask_of(elements)


def write_matroid(M: Matroid) -> str:
    lines = [MATROID_HEADER, MASK_ORDER_COMMENT]
    if M.label:
        lines.append(f"label {M.label}")
    lines.append(f"elements {M.m}")
    lines.append(f"rank {M.rank_total}")
    lines.append("ranks")
    names = sorted(M.layout or ())
    parts = format_element_lines([M.layout[name] for name in names]).splitlines()
    tail = "".join(f"layout {name}={part}\n" for name, part in zip(names, parts))
    return "".join(("\n".join(lines), "\n", _ranks_body(M.table), tail))


@functools.cache
def _two_digit_cells() -> np.ndarray:
    """Entry v < 256 is the little-endian uint32 cell (tens digit, or 0 below
    10; units digit; space; 0) of the rank v (built on first use)."""
    v = np.arange(256, dtype="<u4")
    cells = np.where(v >= 10, ord("0") + v // 10, 0) | (ord("0") + v % 10) << 8 | ord(" ") << 16
    cells = cells.astype("<u4")
    cells.flags.writeable = False  # shared by every caller
    return cells


def _ranks_body(table: np.ndarray) -> str:
    """The table as decimal text, RANKS_PER_LINE values a line, in blocks of
    RANKS_CHUNK values.

    Each value gets one little-endian word cell of its digits and a
    separator; the separator is a space, turned into a newline by one
    strided subtraction at the end of each line (counted by the global
    value index, so blocks may cut lines anywhere) and after the last value.
    When every value is below 10 (found by one ``max`` pass, since a table
    built with ``validate=False`` need not be monotone, so r(E) does not
    bound it) the cells are uint16 (digit, separator), made by one add, and
    decode as they stand.  Otherwise they are uint32 (tens or 0, units,
    separator, 0) read off ``_two_digit_cells``, and ``bytes.translate``
    drops their zero bytes (ranks are at most 24).  Both give the bytes of
    ``" ".join(str(v) ...)`` over each line of RANKS_PER_LINE values.
    """
    wide = int(table.max()) >= 10
    newline = (ord(" ") - ord("\n")) << (16 if wide else 8)
    blocks = []
    for lo in range(0, table.size, RANKS_CHUNK):
        part = table[lo:lo + RANKS_CHUNK]
        if wide:
            cells = _two_digit_cells().take(part)
        else:
            cells = np.add(part, np.uint16(ord("0") | ord(" ") << 8)).astype("<u2", copy=False)
        cells[(RANKS_PER_LINE - 1 - lo) % RANKS_PER_LINE::RANKS_PER_LINE] -= newline
        if lo + part.size == table.size and table.size % RANKS_PER_LINE:
            cells[-1] -= newline
        blocks.append(str(cells.tobytes().translate(None, b"\0") if wide else cells, "ascii"))
    return "".join(blocks)


def parse_int(text: str, what: str) -> int:
    """An optional ASCII sign and ASCII digits, as the ranks body reads them."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        return int(text)
    except ValueError:  # also a token longer than int() converts
        raise FormatError(f"bad {what} {text!r}") from None


def _meaningful_lines(text: str):
    """(offset after the line, stripped line) of each line that is neither
    blank nor a '#' comment; lines end where str.splitlines ends them."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end + 1
        for piece in text[pos:end].splitlines(keepends=True):
            pos += len(piece)
            line = piece.strip()
            if line and not line.startswith("#"):
                yield pos, line


def _newline_text(text: str, start: int) -> tuple[str, int]:
    """(src, offset) with src[offset:] equal to text[start:] once every
    str.splitlines line break is written as one newline; text itself when
    it has no other line breaks, so the common case copies nothing."""
    if text.isascii() and not any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e"):
        return text, start
    return "\n".join(text[start:].splitlines()), 0


def _cut_lines(src: str, start: int) -> tuple[list[tuple[int, int]], list[str]]:
    """Split off the comment and layout lines of the newline-separated
    lines of src[start:].

    Returns the spans (lo, hi) of src holding the other lines, in order and
    cut only after newlines, and the stripped layout lines in order.  Only
    the lines holding a '#' or 'layout' are looked at, and no text is copied.
    """
    def find(needle: str, at: int) -> int:
        # a one-character find is an order of magnitude faster than a word's
        i = src.find(needle[0], at)
        return i if i < 0 or src.startswith(needle, i) else src.find(needle, i)

    cuts: dict[int, int] = {}
    for needle in ("#", "layout"):
        i = find(needle, start)
        while i >= 0:
            lo = max(start, src.rfind("\n", start, i) + 1)
            end = src.find("\n", i) + 1 or len(src)
            if not src[lo:i].strip():
                cuts[lo] = end
            i = find(needle, end)
    spans, layout, at = [], [], start
    for lo in sorted(cuts):
        spans.append((at, lo))
        line = src[lo:cuts[lo]].strip()
        if not line.startswith("#"):
            layout.append(line)
        at = cuts[lo]
    spans.append((at, len(src)))
    return [(lo, hi) for lo, hi in spans if hi > lo], layout


RANKS_CHUNK = 1 << 18  # characters read, or values written, per array pass of a ranks body
ASCII_SPACE = " \t\n\r\x0b\x0c"


def _rank_values(src: str, spans: list[tuple[int, int]], m: int) -> np.ndarray:
    """The 2^m whitespace-separated decimal ranks in the spans of src, as uint8.

    Each span is converted in chunks of about RANKS_CHUNK characters, cut
    at the next whitespace (found by one regex search), so the temporaries
    stay small and the text is never copied whole.  Raises FormatError for
    a non-decimal token, a wrong count or a value outside [0, m].
    """
    parts = []
    for at, hi in spans:
        while at < hi:
            cut = re.compile(f"[{ASCII_SPACE}]").search(src, min(hi, at + RANKS_CHUNK), hi)
            end = cut.start() if cut else hi
            parts.append(_decimal_values(src[at:end], m))
            at = end
    count = sum(p.size for p in parts)
    if count != 1 << m:
        raise FormatError(f"ranks body has {count} values, expected {1 << m}")
    return np.concatenate(parts)


def _decimal_values(text: str, m: int) -> np.ndarray:
    """Whitespace-separated decimal tokens with values in [0, m], as uint8.

    A chunk of one-byte tokens with one separator between each two, as
    the writer emits when every rank is below 10, alternates token and
    separator bytes, so its tokens are the low bytes of a little-endian
    ``<u2`` view of the chunk from its first token on, taken by one
    ``astype``.  Any other chunk whose tokens are all one or two ASCII
    digits, as every written table is (ranks are at most 24), is read in
    array passes: the last byte of each token minus '0' is its units
    digit, and the first byte of each two-byte token adds ten times its
    digit into the units digit after it; when every token is one byte
    this is a single ``compress`` of the non-space bytes.  Any other
    chunk is split at the same six ASCII space bytes by ``bytes.split``
    and read token by token with ``parse_int``; a token it refuses, one
    too long for int() included, is reported as a non-decimal token quoted
    to 24 characters.  A chunk with a value outside [0, m] reports its
    least value if that is negative, else its largest.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError(f"non-ASCII character {exc.object[exc.start]!r} "
                          "in ranks body") from None
    data = np.frombuffer(raw, dtype=np.uint8)
    filled = (data != ord(" ")) & (data - 9 >= 5)      # not space, \t \n \v \f \r
    lead = int(data.size > 0 and not filled[0])        # the chunk starts at a separator
    cells, odd = divmod(data.size - lead, 2)           # odd: a last token with no separator
    if (filled[lead:lead + 2 * cells].view("<u2") == 1).all() and (not odd or filled[-1]):
        vals = np.frombuffer(raw, "<u2", cells, lead).astype(np.uint8)  # the token bytes
        if odd:
            vals = np.append(vals, data[-1])
        vals -= ord("0")                               # a non-digit wraps to >= 10
        hi = int(vals.max(initial=0))
        if hi < 10:
            if hi > m:
                raise FormatError(f"rank value {hi} outside [0, {m}]")
            return vals
    pair = filled[1:] & filled[:-1]                    # bytes i and i + 1 in one token
    two = pair.any()
    if not (two and (pair[1:] & pair[:-1]).any()):     # no token of three bytes
        units = filled
        if two:
            units = filled.copy()
            units[:-1] &= ~pair                        # the last byte of each token
        vals = np.compress(units, data) - ord("0")     # a non-digit wraps to >= 10
        tens = np.compress(pair, data[:-1]) - ord("0") if two else vals[:0]
        hi = max(int(vals.max(initial=0)), int(tens.max(initial=0)))
        if hi < 10:
            if two:  # the units digit of each two-byte token follows its tens digit
                vals[np.flatnonzero(np.compress(units[1:], pair)) + units[0]] += 10 * tens
                hi = int(vals.max())
            if hi > m:
                raise FormatError(f"rank value {hi} outside [0, {m}]")
            return vals
    values = []
    for token in raw.split():
        try:
            values.append(parse_int(token.decode(), "rank"))
        except FormatError:
            raise FormatError(f"non-decimal token {token[:24].decode()!r} "
                              "in ranks body") from None
    lo, hi = min(values, default=0), max(values, default=0)
    if lo < 0 or hi > m:
        raise FormatError(f"rank value {lo if lo < 0 else hi} outside [0, {m}]")
    return np.array(values, dtype=np.uint8)


def parse_matroid(text: str) -> Matroid:
    """Parse any of the four bodies; the result is validated on load.

    Any malformed text raises FormatError or another MatroidError.
    """
    lines = _meaningful_lines(text)
    _, line = next(lines, (0, None))
    if line != MATROID_HEADER:
        raise FormatError(f"missing header {MATROID_HEADER!r}")
    _, line = next(lines, (0, None))
    label = ""
    if line is not None and line.partition(" ")[0] == "label":
        label = line[len("label"):].strip()
        _, line = next(lines, (0, None))
    if line is None or not line.startswith("elements "):
        raise FormatError("missing 'elements <m>' line")
    m = parse_int(line.partition(" ")[2].strip(), "ground size")
    if not 1 <= m <= MAX_GROUND:
        raise FormatError(f"ground size {m} outside [1, {MAX_GROUND}]")
    _, line = next(lines, (0, None))
    if line is None or not line.startswith("rank "):
        raise FormatError("missing 'rank <r>' line")
    declared_rank = parse_int(line.partition(" ")[2].strip(), "rank")
    after, section = next(lines, (0, None))
    if section is None:
        raise FormatError("missing body section")
    src, start = _newline_text(text, after)
    spans, layout_lines = _cut_lines(src, start)
    layout = {}
    for ln in layout_lines:
        name, eq, els = ln[len("layout"):].partition("=")
        if not eq:
            raise FormatError(f"bad layout line {ln!r}")
        if (name := name.strip()) in layout:
            raise FormatError(f"layout names the part {name!r} twice")
        layout[name] = parse_elements(els)
    rows = [] if section == "ranks" else [
        s for lo, hi in spans for ln in src[lo:hi].splitlines() if (s := ln.strip())]

    if section == "ranks":
        table = _rank_values(src, spans, m)
        res = validate_rank_table(m, table)
        if not res:
            raise FormatError(f"rank table violates {res.axiom} "
                              f"(witness masks {res.witness}): {res.message}")
        M = Matroid(m, table, label=label, layout=layout or None, validate=False)
    elif section == "circuits":
        circuits = [parse_elements(ln) for ln in rows]
        M = matroid_from_circuits(m, declared_rank, circuits, label=label,
                                  layout=layout or None)
    elif section.startswith("matrix"):
        tail = section[len("matrix"):].strip()
        if not tail.startswith("p="):
            raise FormatError(f"bad matrix section {section!r}")
        p = parse_int(tail[2:].strip(), "modulus")
        if p < 2:
            raise FormatError(f"modulus {p} is not prime")
        if p >= PRIME_TEST_LIMIT:
            raise FormatError(f"modulus {p} is not below {PRIME_TEST_LIMIT}")
        entries = [[parse_int(tok, "matrix entry") for tok in ln.split()] for ln in rows]
        if not entries or any(len(r) != m for r in entries):
            raise FormatError("matrix rows must have one entry per element")
        flat = tuple(v % p for row in entries for v in row)
        M = from_matrix(MatrixGFp(p, len(entries), m, flat), label=label)
    elif section == "transversal":
        fam = tuple(parse_elements(ln) for ln in rows)
        M = transversal(SetSystem(m, fam), label=label)
    else:
        raise FormatError(f"unknown body section {section!r}")
    if layout and M.layout is None:
        M = Matroid(m, M.table, label=label, layout=layout, validate=False)

    if M.rank_total != declared_rank:
        raise FormatError(f"declared rank {declared_rank} but body gives {M.rank_total}")
    return M


def write_certificate(cert: BadFamilyCertificate) -> str:
    lines = [CERT_HEADER,
             f"matroid {cert.matroid_label or '?'} {cert.fingerprint}",
             f"n {cert.family.n}"]
    sets = format_element_lines(list(cert.family.sets)).splitlines()
    lines.extend(f"X{i} {part}" for i, part in enumerate(sets, start=1))
    lines.append(f"lhs {cert.lhs}")
    lines.append(f"rhs {cert.rhs}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, M: Matroid) -> BadFamilyCertificate:
    """Parse and re-verify a certificate against the matroid it names."""
    lines = [line for _, line in _meaningful_lines(text)]
    if not lines or lines[0] != CERT_HEADER:
        raise FormatError(f"missing header {CERT_HEADER!r}")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key in fields:
            raise FormatError(f"certificate repeats the {key!r} line")
        fields[key] = rest.strip()
    sets: dict[int, int] = {}
    for key, rest in fields.items():
        index = key[1:]
        if key.startswith("X") and index.isdecimal():
            if not index.isascii() or index != str(parse_int(index, "set index")):
                raise FormatError(f"bad set index in {key!r}")
            sets[int(index)] = parse_elements(rest)
        elif key not in ("matroid", "n", "lhs", "rhs"):
            raise FormatError(f"unknown certificate line {key!r}")
    for key in ("matroid", "n", "lhs", "rhs"):
        if key not in fields:
            raise FormatError(f"certificate missing {key!r} line")
    label, _, fingerprint = fields["matroid"].rpartition(" ")
    n = parse_int(fields["n"], "n")
    if len(sets) != n or sorted(sets) != list(range(1, n + 1)):
        raise FormatError("certificate must list X1..Xn exactly")
    cert = BadFamilyCertificate(label, fingerprint,
                                Family(n, tuple(sets[i] for i in range(1, n + 1))),
                                parse_int(fields["lhs"], "lhs"), parse_int(fields["rhs"], "rhs"))
    verify_certificate(cert, M)
    return cert


def verify_certificate(cert: BadFamilyCertificate, M: Matroid) -> None:
    if cert.fingerprint != content_fingerprint(M):
        raise StaleCertificateError(
            f"fingerprint {cert.fingerprint} does not match matroid content")
    value = evaluate(M, cert.family)
    if (value.lhs, value.rhs) != (cert.lhs, cert.rhs):
        raise StaleCertificateError(
            f"re-evaluation gives ({value.lhs},{value.rhs}), "
            f"certificate claims ({cert.lhs},{cert.rhs})")
    if not cert.lhs > cert.rhs:
        raise StaleCertificateError("certificate does not witness a violation")
