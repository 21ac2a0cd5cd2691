"""Matroid-to-matroid operations, exact on rank tables.

Deletion, contraction and minors re-index the surviving elements and
return the old -> new index map alongside the result.  Relaxation and
tightening change exactly one table entry: every proper subset of a
circuit-hyperplane is independent and every proper superset spanning.
Both re-validate.  Relaxing a circuit-hyperplane of a matroid gives a
matroid (Oxley, Matroid Theory, Section 1.5), but a table built with
``validate=False`` need not be one, and tightening can break R3.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_GROUND, Matroid, MatroidError, SizeCapError, halves, popcount_array


def _drop_layout(layout: dict[str, int] | None, e: int) -> dict[str, int] | None:
    """Re-index layout masks after removing element e; parts touching e are dropped."""
    if layout is None:
        return None
    out = {}
    for name, mask in layout.items():
        if mask & (1 << e):
            continue
        low = mask & ((1 << e) - 1)
        high = (mask >> (e + 1)) << e
        out[name] = high | low
    return out or None


def _single_minor(M: Matroid, e: int, op: str) -> tuple[Matroid, dict[int, int]]:
    """M \\ e (``op`` "\\") or M / e (``op`` "/") with the old -> new index map:
    r'(X) = r(X), or r(X + e) - r({e}), on the subsets X avoiding e."""
    if not 0 <= e < M.m:
        raise MatroidError(f"element {e} out of range for ground size {M.m}")
    contracting = op == "/"
    if M.m < 2:
        verb = "contract" if contracting else "delete"
        raise MatroidError(f"cannot {verb} from a single-element ground set")
    table = np.empty(1 << (M.m - 1), dtype=np.uint8)
    np.subtract(halves(M.table, e)[contracting], M.table[1 << e] if contracting else 0,
                out=halves(table, e, parts=1)[0], order="C")
    index_map = {old: (old if old < e else old - 1) for old in range(M.m) if old != e}
    out = Matroid(M.m - 1, table, label=f"{M.label}{op}{e}",
                  layout=_drop_layout(M.layout, e), validate=False)
    return out, index_map


def delete(M: Matroid, e: int) -> tuple[Matroid, dict[int, int]]:
    """M \\ e: ranks restricted to subsets avoiding e."""
    return _single_minor(M, e, "\\")


def contract(M: Matroid, e: int) -> tuple[Matroid, dict[int, int]]:
    """M / e: r'(X) = r(X + e) - r({e}); contracting a loop deletes it."""
    return _single_minor(M, e, "/")


def minor(M: Matroid, deletions: int, contractions: int) -> tuple[Matroid, dict[int, int]]:
    """Apply contractions first, then deletions, composing the index maps.

    Order independence is a property of the operations, not of this code;
    the suite checks it on small cases rather than assuming it.
    """
    M.check_mask(deletions)
    M.check_mask(contractions)
    if deletions & contractions:
        raise MatroidError("deletion and contraction masks overlap")
    if (deletions | contractions) == M.full_mask:
        raise MatroidError("minor would empty the ground set")
    current = M
    index_map = {i: i for i in range(M.m)}

    def apply(op, element_old):
        nonlocal current, index_map
        result, step = op(current, index_map[element_old])
        index_map = {old: step[new] for old, new in index_map.items() if new in step}
        current = result

    for e in range(M.m):
        if contractions & (1 << e):
            apply(contract, e)
    for e in range(M.m):
        if deletions & (1 << e):
            apply(delete, e)
    return current, index_map


def dual(M: Matroid) -> Matroid:
    """M*: r*(X) = |X| + r(E - X) - r(M); E - X is mask 2^m - 1 - X."""
    table = popcount_array(M.m) + M.table[::-1]
    table -= M.rank_total
    return Matroid(M.m, table, label=f"dual({M.label})", layout=M.layout, validate=False)


def direct_sum(M1: Matroid, M2: Matroid) -> tuple[Matroid, dict[int, int], dict[int, int]]:
    """M1 (+) M2 with M2's elements shifted above M1's; additive ranks."""
    m = M1.m + M2.m
    if m > MAX_GROUND:
        raise SizeCapError(f"direct sum ground size {m} exceeds cap {MAX_GROUND}")
    table = (M2.table.astype(np.int16)[:, None] + M1.table[None, :]).ravel()
    map1 = {i: i for i in range(M1.m)}
    map2 = {i: i + M1.m for i in range(M2.m)}
    layout = None
    if M1.layout or M2.layout:
        layout = {}
        for name, mask in (M1.layout or {}).items():
            layout[f"L.{name}"] = mask
        for name, mask in (M2.layout or {}).items():
            layout[f"R.{name}"] = mask << M1.m
    out = Matroid(m, table.astype(np.uint8), label=f"{M1.label}(+){M2.label}",
                  layout=layout, validate=False)
    return out, map1, map2


def relax(M: Matroid, H: int) -> Matroid:
    """Turn the circuit-hyperplane H into a basis (rank += 1 at H only)."""
    H = M.check_mask(H)
    if not M.classify(H).circuit_hyperplane:
        raise MatroidError(f"{M.label}: mask {H:#x} is not a circuit-hyperplane")
    table = M.table.copy()
    table[H] += 1
    return Matroid(M.m, table, label=f"relax({M.label},{H:#x})", layout=M.layout)


def tighten(M: Matroid, H: int) -> Matroid:
    """Inverse of relax: drop r(H) from r(M) to r(M) - 1, if that is a matroid."""
    H = M.check_mask(H)
    if not M.classify(H).basis:
        raise MatroidError(f"{M.label}: mask {H:#x} is not a basis, cannot tighten")
    table = M.table.copy()
    table[H] -= 1
    return Matroid(M.m, table, label=f"tighten({M.label},{H:#x})", layout=M.layout)


def truncate(M: Matroid) -> Matroid:
    """Cap ranks at r(M) - 1, discarding the old bases."""
    if M.rank_total < 1:
        raise MatroidError("cannot truncate a rank-0 matroid")
    table = np.minimum(M.table, M.rank_total - 1)
    return Matroid(M.m, table, label=f"truncate({M.label})", layout=M.layout, validate=False)
