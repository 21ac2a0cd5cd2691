"""Independent re-check of Kinser certificates.

This module deliberately imports nothing from ``kinser``: it reads the
``ranks`` body of a matroid file and a certificate with its own parsers and
evaluates inequality n term by term from its definition,

    sum_{i=3..n} r(X_i) + r(X1 u X2) + r(X1 u X3 u Xn)
        + sum_{i=4..n} r(X2 u X_{i-1} u X_i)
    <=  r(X1 u X3) + r(X1 u Xn) + sum_{i=3..n} r(X2 u X_i)
        + sum_{i=4..n} r(X_{i-1} u X_i),

so a defect in ``kinser.engine.evaluate`` cannot vouch for itself.
"""

from __future__ import annotations

import hashlib


class LiteralCheckError(ValueError):
    """A certificate that does not witness a violation of its inequality."""


def read_rank_table(text: str) -> tuple[int, list[int]]:
    """(m, ranks) from a ``matroid v1`` file with a ``ranks`` body."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    m = None
    ranks: list[int] = []
    in_body = False
    for ln in lines:
        if ln.startswith("elements "):
            m = int(ln.split()[1])
        elif ln == "ranks":
            in_body = True
        elif ln.startswith("layout"):
            in_body = False
        elif in_body:
            ranks.extend(int(tok) for tok in ln.split())
    if m is None or len(ranks) != 1 << m:
        raise LiteralCheckError("matroid file has no complete ranks body")
    return m, ranks


def fingerprint(m: int, ranks: list[int]) -> str:
    """The certificate format's content binding: sha256 of the table."""
    return hashlib.sha256(b"matroid-v1" + bytes([m]) + bytes(ranks)).hexdigest()[:16]


def _mask(m: int, text: str) -> int:
    if text == "-":
        return 0
    mask = 0
    for tok in text.split(","):
        e = int(tok)
        if not 0 <= e < m:
            raise LiteralCheckError(f"element {e} outside ground set of size {m}")
        mask |= 1 << e
    return mask


def inequality_sides(ranks: list[int], xs: list[int]) -> tuple[int, int]:
    """(lhs, rhs) of inequality n = len(xs) for the family X1..Xn."""
    n = len(xs)
    X = [None] + xs  # 1-based, as in the formula

    def r(*idx: int) -> int:
        u = 0
        for i in idx:
            u |= X[i]
        return ranks[u]

    lhs = sum(r(i) for i in range(3, n + 1)) + r(1, 2) + r(1, 3, n)
    lhs += sum(r(2, i - 1, i) for i in range(4, n + 1))
    rhs = r(1, 3) + r(1, n) + sum(r(2, i) for i in range(3, n + 1))
    rhs += sum(r(i - 1, i) for i in range(4, n + 1))
    return lhs, rhs


def check_certificate(cert_text: str, matroid_text: str) -> tuple[int, int]:
    """Re-check a certificate against the matroid file it was made from.

    Returns (lhs, rhs); raises LiteralCheckError unless the fingerprint
    matches, X1..Xn are listed in order, the stated sides equal the literal
    evaluation and lhs > rhs.
    """
    m, ranks = read_rank_table(matroid_text)
    lines = [ln.strip() for ln in cert_text.splitlines() if ln.strip()]
    if not lines or lines[0] != "kinser-certificate v1":
        raise LiteralCheckError("missing certificate header")
    fields: dict[str, str] = {}
    sets: dict[int, int] = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key.startswith("X") and key[1:].isdigit():
            sets[int(key[1:])] = _mask(m, rest.strip())
        else:
            fields[key] = rest.strip()
    n = int(fields["n"])
    if sorted(sets) != list(range(1, n + 1)) or n < 4:
        raise LiteralCheckError(f"certificate must list X1..X{n} with n >= 4")
    if fields["matroid"].rpartition(" ")[2] != fingerprint(m, ranks):
        raise LiteralCheckError("fingerprint does not match the matroid file")
    lhs, rhs = inequality_sides(ranks, [sets[i] for i in range(1, n + 1)])
    if (lhs, rhs) != (int(fields["lhs"]), int(fields["rhs"])):
        raise LiteralCheckError(f"literal evaluation gives lhs={lhs} rhs={rhs}, "
                                f"certificate states lhs={fields['lhs']} rhs={fields['rhs']}")
    if lhs <= rhs:
        raise LiteralCheckError(f"lhs={lhs} <= rhs={rhs}: no violation")
    return lhs, rhs
