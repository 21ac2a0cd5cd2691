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
"""

from __future__ import annotations

import numpy as np

from .core import (Matroid, MatroidError, content_fingerprint, elements_of,
                   mask_of, matroid_from_circuits, validate_rank_table)
from .catalog import MatrixGFp, SetSystem, from_matrix, transversal
from .engine import BadFamilyCertificate, Family, evaluate

MATROID_HEADER = "matroid v1"
CERT_HEADER = "kinser-certificate v1"
MASK_ORDER_COMMENT = "# masks little-endian: element i <-> bit i of the subset index"


class FormatError(MatroidError):
    """Malformed matroid or certificate text."""


class StaleCertificateError(MatroidError):
    """Certificate does not re-verify against the named matroid."""


def format_elements(mask: int) -> str:
    """Comma list of a mask's elements; '-' for the empty set."""
    els = elements_of(mask)
    return ",".join(str(e) for e in els) if els else "-"


def parse_elements(text: str) -> int:
    text = text.strip()
    if text == "-" or not text:
        return 0
    try:
        return mask_of(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise FormatError(f"bad element list {text!r}") from exc


def write_matroid(M: Matroid) -> str:
    lines = [MATROID_HEADER, MASK_ORDER_COMMENT]
    if M.label:
        lines.append(f"label {M.label}")
    lines.append(f"elements {M.m}")
    lines.append(f"rank {M.rank_total}")
    lines.append("ranks")
    vals = M.table.tolist()
    for i in range(0, len(vals), 16):
        lines.append(" ".join(str(v) for v in vals[i:i + 16]))
    if M.layout:
        for name in sorted(M.layout):
            lines.append(f"layout {name}={format_elements(M.layout[name])}")
    return "\n".join(lines) + "\n"


def _parse_layout_line(line: str) -> tuple[str, int]:
    body = line[len("layout"):].strip()
    if "=" not in body:
        raise FormatError(f"bad layout line {line!r}")
    name, _, els = body.partition("=")
    return name.strip(), parse_elements(els)


def parse_matroid(text: str) -> Matroid:
    """Parse any of the four bodies; the result is validated on load."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != MATROID_HEADER:
        raise FormatError(f"missing header {MATROID_HEADER!r}")
    pos = 1
    label = ""
    if pos < len(lines) and lines[pos].startswith("label "):
        label = lines[pos][len("label "):].strip()
        pos += 1
    if pos >= len(lines) or not lines[pos].startswith("elements "):
        raise FormatError("missing 'elements <m>' line")
    m = int(lines[pos].split()[1])
    pos += 1
    if pos >= len(lines) or not lines[pos].startswith("rank "):
        raise FormatError("missing 'rank <r>' line")
    declared_rank = int(lines[pos].split()[1])
    pos += 1
    if pos >= len(lines):
        raise FormatError("missing body section")
    section = lines[pos]
    pos += 1
    body: list[str] = []
    layout: dict[str, int] = {}
    while pos < len(lines):
        if lines[pos].startswith("layout"):
            name, mask = _parse_layout_line(lines[pos])
            layout[name] = mask
        else:
            body.append(lines[pos])
        pos += 1

    if section == "ranks":
        vals = [int(tok) for ln in body for tok in ln.split()]
        if len(vals) != 1 << m:
            raise FormatError(f"ranks body has {len(vals)} values, expected {1 << m}")
        lo, hi = min(vals), max(vals)
        if lo < 0 or hi > m:
            raise FormatError(f"rank value {lo if lo < 0 else hi} outside [0, {m}]")
        table = np.array(vals, dtype=np.uint8)
        res = validate_rank_table(m, table, exhaustive=(m <= 16))
        if not res:
            raise FormatError(f"rank table violates {res.axiom} "
                              f"(witness masks {res.witness}): {res.message}")
        M = Matroid(m, table, label=label, layout=layout or None, validate=False)
    elif section == "circuits":
        circuits = [parse_elements(ln) for ln in body]
        M = matroid_from_circuits(m, declared_rank, circuits, label=label,
                                  layout=layout or None)
    elif section.startswith("matrix"):
        tail = section[len("matrix"):].strip()
        if not tail.startswith("p="):
            raise FormatError(f"bad matrix section {section!r}")
        p = int(tail[2:])
        rows = [[int(tok) for tok in ln.split()] for ln in body]
        if not rows or any(len(r) != m for r in rows):
            raise FormatError("matrix rows must have one entry per element")
        entries = tuple(v % p for row in rows for v in row)
        M = from_matrix(MatrixGFp(p, len(rows), m, entries), label=label)
        if layout:
            M = Matroid(m, M.table, label=label, layout=layout, validate=False)
    elif section == "transversal":
        fam = tuple(parse_elements(ln) for ln in body)
        M = transversal(SetSystem(m, fam), label=label)
        if layout:
            M = Matroid(m, M.table, label=label, layout=layout, validate=False)
    else:
        raise FormatError(f"unknown body section {section!r}")

    if M.rank_total != declared_rank:
        raise FormatError(f"declared rank {declared_rank} but body gives {M.rank_total}")
    return M


def write_certificate(cert: BadFamilyCertificate) -> str:
    lines = [CERT_HEADER,
             f"matroid {cert.matroid_label or '?'} {cert.fingerprint}",
             f"n {cert.family.n}"]
    for i, x in enumerate(cert.family.sets, start=1):
        lines.append(f"X{i} {format_elements(x)}")
    lines.append(f"lhs {cert.lhs}")
    lines.append(f"rhs {cert.rhs}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, M: Matroid) -> BadFamilyCertificate:
    """Parse and re-verify a certificate against the matroid it names."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != CERT_HEADER:
        raise FormatError(f"missing header {CERT_HEADER!r}")
    fields: dict[str, str] = {}
    sets: dict[int, int] = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key.startswith("X") and key[1:].isdigit():
            sets[int(key[1:])] = parse_elements(rest)
        else:
            fields[key] = rest.strip()
    for key in ("matroid", "n", "lhs", "rhs"):
        if key not in fields:
            raise FormatError(f"certificate missing {key!r} line")
    label, _, fingerprint = fields["matroid"].rpartition(" ")
    n = int(fields["n"])
    if sorted(sets) != list(range(1, n + 1)):
        raise FormatError("certificate must list X1..Xn exactly")
    cert = BadFamilyCertificate(label, fingerprint,
                                Family(n, tuple(sets[i] for i in range(1, n + 1))),
                                int(fields["lhs"]), int(fields["rhs"]))
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
