"""Inequality evaluation, reductions, canonical families, exhaustive search."""

import concurrent.futures
import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinser as K
from kinser import engine
from kinser.engine import (_automorphisms, _mask_permutation, _n4_d1, _orbit_least,
                           _search_chain_chunk, _search_n4_chunk, _search_tables,
                           _space_masks, _tuples_examined, _x2_rows)

from oracles import (brute_force_automorphisms, closure_hull, conditional_information,
                     definition_closure, definition_flats, ingleton_sides, ingleton_value,
                     kinser_sides, kinser_value, literal_search_tables, orbit_minima,
                     permuted_mask)


def n4_chunk(table, masks, pruning, rows=None):
    """The n = 4 chunk's hit over the X1 ``rows`` of ``masks`` (default
    all), and the tuples ``_tuples_examined`` counts for that hit."""
    rows = np.arange(len(masks)) if rows is None else rows
    tables = _search_tables(table, masks, pruning)[0]
    hit = _search_n4_chunk(tables, rows, pruning)
    return hit, _tuples_examined(tables, _x2_rows(len(masks), pruning), rows, hit)


def random_linear_matroid(rng, rows=4, cols=8):
    entries = tuple(int(v) for v in rng.integers(0, 2, size=rows * cols))
    return K.from_matrix(K.MatrixGFp(2, rows, cols, entries))


class TestEvaluate:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_term_count_is_2n_minus_3(self, n, fano):
        fam = K.Family(n, tuple([0b11, 0, 0b101] + [0b1] * (n - 3)))
        value = K.evaluate(fano, fam)
        for side in ("lhs", "rhs"):
            assert sum(1 for t in value.terms if t.side == side) == 2 * n - 3

    def test_ingleton_at_n4(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(20):
            M = random_linear_matroid(rng)
            for _ in range(500):
                sets = tuple(int(x) for x in rng.integers(0, 1 << 8, size=4))
                value = K.evaluate(M, K.Family(4, sets))
                assert (value.lhs, value.rhs) == ingleton_value(M, *sets)
                checked += 1
        assert checked == 10_000

    def test_formula_for_larger_n(self, fano):
        rng = np.random.default_rng(1)
        for n in (5, 6, 7):
            for _ in range(300):
                sets = tuple(int(x) for x in rng.integers(0, 1 << 7, size=n))
                value = K.evaluate(fano, K.Family(n, sets))
                assert (value.lhs, value.rhs) == kinser_value(fano, sets)

    def test_canonical_margin_vamos(self, vamos):
        value = K.evaluate(vamos, K.canonical_family(vamos, "kinser"))
        assert (value.lhs, value.rhs) == (16, 15)
        assert not value.satisfied and value.margin == 1

    def test_all_empty_family(self, fano):
        value = K.evaluate(fano, K.Family(4, (0, 0, 0, 0)))
        assert (value.lhs, value.rhs) == (0, 0) and value.satisfied

    def test_spike_relaxation_margin(self, z4):
        Z = z4.parts("a1", "a2", "b3", "b4")
        relaxed = K.relax(z4, Z)
        fam = K.canonical_family(relaxed, "spike", Z)
        value = K.evaluate(relaxed, fam)
        assert (value.lhs, value.rhs) == (16, 15)

    def test_representable_satisfy_everything(self, fano):
        rng = np.random.default_rng(9)
        for n in (4, 5, 6):
            for _ in range(300):
                sets = tuple(int(x) for x in rng.integers(0, 1 << 7, size=n))
                assert K.evaluate(fano, K.Family(n, sets)).satisfied

    def test_n_below_four_rejected(self):
        with pytest.raises(K.MatroidError):
            K.Family(3, (0, 0, 0))

    @pytest.mark.parametrize("n", [4.0, 4.5, "4", None])
    def test_non_integer_index_rejected_before_search(self, n, vamos, monkeypatch):
        monkeypatch.setattr(engine, "_space_masks", lambda *args: pytest.fail("searched"))
        with pytest.raises(K.MatroidError, match="inequality index must be an int"):
            K.Family(n, (0, 0, 0, 0))
        with pytest.raises(K.MatroidError, match="inequality index must be an int"):
            K.membership(vamos, n)

    def test_numpy_integer_index_stored_as_int(self, vamos):
        fam = K.Family(np.int64(4), (0, 0, 0, 0))
        assert type(fam.n) is int and fam == K.Family(4, (0, 0, 0, 0))
        verdict = K.membership(vamos, np.int32(4))
        assert type(verdict.n) is int and verdict == K.membership(vamos, 4)
        assert type(verdict.certificate.family.n) is int

    @pytest.mark.parametrize("bad", [1.5, "3", None])
    def test_non_integer_set_rejected(self, bad, vamos):
        with pytest.raises(K.MatroidError, match=f"family set must be an int, got {bad!r}"):
            K.evaluate(vamos, K.Family(4, (0, 1, 2, bad)))

    @pytest.mark.parametrize("sets", [15, None])
    def test_non_sequence_sets_rejected(self, sets):
        with pytest.raises(K.MatroidError, match=f"family sets must be a sequence, got {sets!r}"):
            K.Family(4, sets)

    def test_sets_stored_as_a_tuple_of_ints(self, vamos):
        fam = K.Family(4, [np.int64(0), 1, np.uint8(2), 3])
        assert fam.sets == (0, 1, 2, 3) and all(type(x) is int for x in fam.sets)
        assert fam == K.Family(4, (0, 1, 2, 3)) and hash(fam) == hash(K.Family(4, (0, 1, 2, 3)))
        assert K.extend_family(fam) == K.Family(5, (0, 1, 2, 3, 3))
        assert K.evaluate(vamos, fam) == K.evaluate(vamos, K.Family(4, (0, 1, 2, 3)))


class TestClosureKeepsTermRanks:
    """Replacing each set by its closure, as the search over flats does,
    changes no term rank."""

    def test_flats_are_fixed(self, vamos):
        flats = vamos.enumerate("flats")
        assert [vamos.closure(x) for x in flats[3:7]] == flats[3:7]

    def test_vamos_singletons_already_closed(self, vamos):
        assert [vamos.closure(x) for x in (1, 2, 4, 8)] == [1, 2, 4, 8]

    def test_reduction_preserves_every_term_rank(self, fano):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            sets = tuple(int(x) for x in rng.integers(0, 1 << 7, size=4))
            fam = K.Family(4, sets)
            reduced = K.Family(4, tuple(fano.closure(x) for x in sets))
            a, b = K.evaluate(fano, fam), K.evaluate(fano, reduced)
            assert (a.lhs, a.rhs) == (b.lhs, b.rhs)
            for ta, tb in zip(a.terms, b.terms):
                assert ta.rank == tb.rank


class TestExtendFamily:
    def test_margin_preserved_on_vamos(self, vamos):
        fam = K.canonical_family(vamos, "kinser")
        for n in (4, 5, 6):
            value = K.evaluate(vamos, fam)
            assert value.margin == 1
            fam = K.extend_family(fam)

    def test_all_empty(self):
        fam = K.extend_family(K.Family(4, (0, 0, 0, 0)))
        assert fam == K.Family(5, (0, 0, 0, 0, 0))

    def test_random_margins_equal(self, fano):
        rng = np.random.default_rng(13)
        for _ in range(400):
            sets = tuple(int(x) for x in rng.integers(0, 1 << 7, size=4))
            fam = K.Family(4, sets)
            a = K.evaluate(fano, fam)
            b = K.evaluate(fano, K.extend_family(fam))
            assert a.margin == b.margin


class TestCanonicalFamilies:
    def test_kinser_parts(self, kin5_relaxed):
        fam = K.canonical_family(kin5_relaxed, "kinser")
        assert fam.n == 5
        assert fam.sets == tuple(kin5_relaxed.part(f"V{i}") for i in range(1, 6))
        value = K.evaluate(kin5_relaxed, fam)
        assert (value.lhs, value.rhs) == (29, 28)

    def test_spike_partition(self, z4):
        Z = z4.parts("a1", "a2", "b3", "b4")
        fam = K.canonical_family(z4, "spike", Z)
        assert fam.sets == (z4.parts("a1", "a2"), z4.parts("b3", "b4"),
                            z4.parts("b1", "b2"), z4.parts("a3", "a4"))
        assert sum(fam.sets) == z4.full_mask  # the four parts partition E

    def test_spike_rejects_one_sided_z(self, z4):
        with pytest.raises(K.MatroidError):
            K.canonical_family(z4, "spike", z4.part("A"))

    def test_spike_rejects_odd_z(self, z4):
        odd = z4.parts("b1", "a2", "a3", "a4")
        with pytest.raises(K.MatroidError):
            K.canonical_family(z4, "spike", odd)

    def test_layout_required(self, u24):
        with pytest.raises(K.MatroidError):
            K.canonical_family(u24, "kinser")

    @pytest.mark.parametrize("kind,args,missing", [("kinser", (), "V1"),
                                                   ("spike", (0b11,), "a1")])
    def test_layout_without_the_family_parts_refused(self, u24, kind, args, missing):
        # "Vx" is no V part and there is no "a" leg: int("x") and max() of
        # nothing would raise bare ValueErrors
        M = K.Matroid(4, u24.table, layout={"Vx": 1, "A": 2})
        with pytest.raises(K.MatroidError, match=f"no layout parts {missing}, "):
            K.canonical_family(M, kind, *args)


def search_masks(M, space):
    if space == "flats":
        return M.enumerate("flats")
    return list(range(1 << M.m))


def brute_force_lex_first(M, n, masks, rows=None):
    """Reference search: full lexicographic scan by the displayed formula,
    each prefix (X1, X2) against every (X3, ..., Xn) at once, one broadcast
    axis per slot, with X1 over the indices ``rows`` (default all)."""
    F = len(masks)
    tail = [np.array(masks, dtype=np.int64).reshape((F,) + (1,) * (n - i))
            for i in range(3, n + 1)]

    def r(x):
        return M.table[x].astype(np.int64)

    rows = range(F) if rows is None else rows
    for prefix in itertools.product(rows, range(F)):
        lhs, rhs = kinser_sides(r, [masks[j] for j in prefix] + tail)
        bad = np.flatnonzero(lhs > rhs)
        if bad.size:
            j = int(bad[0])
            rest = np.unravel_index(j, lhs.shape)
            return prefix + tuple(int(i) for i in rest), (int(lhs.flat[j]), int(rhs.flat[j]))
    return None, None


class TestSearch:
    def test_vamos_certificate(self, vamos):
        cert = K.membership(vamos, 4).certificate
        assert cert is not None
        assert cert.lhs - cert.rhs == 1
        value = K.evaluate(vamos, cert.family)
        assert (value.lhs, value.rhs) == (cert.lhs, cert.rhs)

    def test_vamos_lex_first_is_stable(self, vamos):
        a = K.membership(vamos, 4).certificate
        b = K.membership(vamos, 4).certificate
        c = K.membership(vamos, 4, K.SearchConfig(symmetry_pruning=False)).certificate
        d = K.membership(vamos, 4, K.SearchConfig(parallel_width=2)).certificate
        assert a == b == c == d

    @pytest.mark.parametrize("width", [0, -1, 2.0, "2", None])
    def test_parallel_width_must_be_a_positive_int(self, width, vamos):
        with pytest.raises(K.MatroidError, match="parallel width must be an int >= 1"):
            K.membership(vamos, 4, K.SearchConfig(parallel_width=width))

    @pytest.mark.parametrize("width", [2, 64])
    def test_parallel_width_capped_by_cpu_count(self, width, vamos, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        wide = K.membership(vamos, 4, K.SearchConfig(parallel_width=width))
        assert wide == K.membership(vamos, 4)
        assert not wide.in_class and wide.certificate is not None

    def test_vamos_lex_first_matches_brute_force(self, vamos):
        flats = vamos.enumerate("flats")
        tup, _ = brute_force_lex_first(vamos, 4, flats)
        cert = K.membership(vamos, 4).certificate
        assert cert.family.sets == tuple(flats[j] for j in tup)

    def test_fano_in_class(self, fano, nonfano):
        for M in (fano, nonfano):
            for n in (4, 5):
                assert K.membership(M, n).in_class

    def test_spike_dichotomy(self, z4):
        assert K.membership(z4, 4).in_class
        Z = z4.parts("a1", "b2", "b3", "a4")
        verdict = K.membership(K.relax(z4, Z), 4)
        assert not verdict.in_class
        assert verdict.certificate.lhs > verdict.certificate.rhs

    def test_all_subsets_refused_above_cap(self, fano_sum):
        with pytest.raises(K.SizeCapError):
            K.membership(fano_sum, 4, K.SearchConfig(space="all_subsets"))

    @pytest.mark.parametrize("maker,n", [
        (lambda: K.uniform(1, 3), 4),
        (lambda: K.uniform(1, 3), 5),
        (lambda: K.uniform(2, 4), 4),
        (lambda: K.uniform(2, 4), 5),
        (lambda: K.uniform(3, 6), 4),
        (lambda: K.dowling(1, 3), 4),
    ])
    def test_flats_vs_all_subsets_agree(self, maker, n):
        M = maker()
        flats_verdict = K.membership(M, n, K.SearchConfig(space="flats"))
        all_verdict = K.membership(M, n, K.SearchConfig(space="all_subsets"))
        assert flats_verdict.in_class == all_verdict.in_class

    def test_pruning_soundness_n4(self, vamos, z4):
        relaxed = K.relax(z4, z4.parts("a1", "a2", "b3", "b4"))
        for M in (vamos, relaxed):
            on = K.membership(M, 4, K.SearchConfig(symmetry_pruning=True)).certificate
            off = K.membership(M, 4, K.SearchConfig(symmetry_pruning=False)).certificate
            assert on == off

    def test_pruning_soundness_n5(self, fano):
        on = K.membership(fano, 5, K.SearchConfig(symmetry_pruning=True))
        off = K.membership(fano, 5, K.SearchConfig(symmetry_pruning=False))
        assert on.in_class and off.in_class

    def test_generic_path_matches_brute_force(self, kin5_relaxed):
        # white-box: restrict the space to the part masks and the closures
        # of their unions (14 masks) so n=5 is tractable
        M = kin5_relaxed
        masks = closure_hull(M, [0] + [M.part(f"V{i}") for i in range(1, 6)])
        arr = np.array(masks, dtype=np.int64)
        tup, value = brute_force_lex_first(M, 5, masks)
        assert tup is not None
        tables = _search_tables(M.table, arr, False)[0]
        got = _search_chain_chunk(tables, 5, np.arange(len(masks)))
        assert got == tup
        # generators verified on a mask list keep only the listed ranks, so
        # they need not be automorphisms of M; here the hit's X1 is a row
        rows = _orbit_least(len(masks), [pi for _, pi in _automorphisms(M.table, arr)[0]])
        assert len(rows) < len(masks) and tup[0] in rows
        got_orbits = _search_chain_chunk(tables, 5, rows)
        assert got_orbits == tup

    def test_n4_chunk_matches_brute_force(self, vamos):
        # the first 25 flats and the closures of their unions: 37 flats
        masks = closure_hull(vamos, vamos.enumerate("flats")[:25])
        arr = np.array(masks, dtype=np.int64)
        tup, _ = brute_force_lex_first(vamos, 4, masks)
        got = n4_chunk(vamos.table, arr, False)[0]
        assert got == tup

    def test_rank_queries_count_table_reads(self, fano):
        # F7 has 16 flats (empty, 7 points, 7 lines, E) on m = 7 elements.
        # Every search reads r(X) for each flat (16) and r(X u Y) for each
        # ordered pair of flats (256).  With pruning each closure reads
        # r(X) and r(X + e) for e = 0..6 (8 * 16 = 128) and each meet of
        # closures one entry (256); F7 is modular, so no pair is left.
        assert K.membership(fano, 4).rank_queries == 16 + 256 + 128 + 256
        # Without pruning the 256 pairs have 86 distinct unions: empty, 7
        # points, 7 lines, E, 21 point pairs, 28 line + off-line point and
        # 21 unions of two lines; their closures take 8 reads each.  Those
        # closures are flats, whose ranks against every flat are already in
        # the pair ranks, so no other row is read.  At n = 5 the chain form
        # reads the same tables, and the automorphism search reads r(X) for
        # each flat (16).  Only membership reads the table, so the counts
        # hold at any width.
        for width in (1, 2):
            off = K.membership(fano, 4, K.SearchConfig(symmetry_pruning=False,
                                                       parallel_width=width))
            assert off.rank_queries == 16 + 256 + 8 * 86
            n5 = K.membership(fano, 5, K.SearchConfig(parallel_width=width))
            assert n5.rank_queries == 16 + 256 + 8 * 86 + 16

    def test_orbit_rows_at_n5(self, fano):
        # F7 has 16 flats in 4 orbits: 4 X1 rows of 16^3 (X2, X3, X5) each
        on = K.membership(fano, 5)
        off = K.membership(fano, 5, K.SearchConfig(symmetry_pruning=False))
        assert on.in_class and off.in_class
        assert (on.x1_rows, on.tuples_examined) == (4, 4 * 16 ** 3)
        assert (off.x1_rows, off.tuples_examined) == (16, 16 ** 4)

    @pytest.mark.parametrize("maker,n", [
        (lambda: K.kinser(4), 5),
        (lambda: K.binary_spike(4), 5),
        (lambda: K.binary_spike(5), 5),
        (lambda: K.fano_pair()[0], 6),
        (lambda: K.fano_pair()[1], 6),
        (lambda: K.uniform(3, 6), 6),
    ], ids=["Kin4-5", "Z4-5", "Z5-5", "F7-6", "F7m-6", "U36-6"])
    def test_representable_in_class_past_n4(self, maker, n):
        # the abstract: representable matroids satisfy every Kinser inequality
        assert K.membership(maker(), n).in_class

    @pytest.mark.parametrize("pruning", [True, False])
    def test_vamos_n5_certificate(self, vamos, pruning):
        # X1 = cl(empty set) is row 0, so the count is i2 F^2 + i3 F + i5 + 1
        # at any width, with or without orbit rows
        flats = vamos.enumerate("flats")
        F = len(flats)
        verdicts = []
        for width in (1, 2):
            cfg = K.SearchConfig(symmetry_pruning=pruning, parallel_width=width)
            verdict = K.membership(vamos, 5, cfg)
            assert verdict.certificate.family.sets == (0, 48, 3, 192, 12)
            i1, i2, i3, _, i5 = (flats.index(x) for x in verdict.certificate.family.sets)
            assert i1 == 0
            assert verdict.tuples_examined == i2 * F ** 2 + i3 * F + i5 + 1
            verdicts.append(verdict)
        assert verdicts[1] == verdicts[0]  # rank_queries included

    def test_verdict_statistics_populated(self, fano, vamos, monkeypatch):
        # F7 is modular: the common-information rule prunes every (X3, X4)
        flats = len(fano.enumerate("flats"))
        verdict = K.membership(fano, 4)
        assert verdict.in_class
        assert (verdict.tuples_examined, verdict.pairs, verdict.space_size) == (0, 0, flats)
        assert verdict.rank_queries >= flats ** 2
        off = K.membership(fano, 4, K.SearchConfig(symmetry_pruning=False))
        assert (off.tuples_examined, off.pairs) == (flats ** 4, flats ** 2)
        # with a violator: candidates in lex order up to and including it
        flats = vamos.enumerate("flats")
        F = len(flats)
        r = vamos.rank
        P = [(k, l) for k in range(F) for l in range(k, F)
             if r(flats[k]) + r(flats[l]) != r(flats[k] | flats[l]) + r(flats[k] & flats[l])]
        i1, i2, i3, i4 = (flats.index(x) for x in K.membership(vamos, 4).certificate.family.sets)
        before = sum(F - a for a in range(i1)) + (i2 - i1)
        expected_on = before * len(P) + P.index((i3, i4)) + 1
        expected_off = (i1 * F + i2) * F * F + i3 * F + i4 + 1
        verdicts = []
        for width in (1, 2):
            on = K.membership(vamos, 4, K.SearchConfig(parallel_width=width))
            assert (on.tuples_examined, on.pairs) == (expected_on, len(P))
            off = K.membership(vamos, 4, K.SearchConfig(symmetry_pruning=False,
                                                        parallel_width=width))
            assert off.tuples_examined == expected_off
            verdicts.append((on, off))
        assert verdicts[1] == verdicts[0]  # rank_queries included
        # with orbits on, only X1 rows least in their Aut(Vamos) orbit count
        reps = orbit_minima(brute_force_automorphisms(vamos), flats)
        assert i1 in reps
        before = sum(F - a for a in reps if a < i1) + (i2 - i1)
        expected_orbits = before * len(P) + P.index((i3, i4)) + 1
        monkeypatch.setattr(engine, "ORBIT_SCAN_MIN", 0)
        verdicts = []
        for width in (1, 2):
            on = K.membership(vamos, 4, K.SearchConfig(parallel_width=width))
            assert (on.tuples_examined, on.pairs) == (expected_orbits, len(P))
            assert (on.x1_rows, on.space_size) == (len(reps), F)
            verdicts.append(on)
        assert verdicts[1] == verdicts[0]


def _relaxed(M, *Zs):
    for Z in Zs:
        M = K.relax(M, Z)
    return M


def _gate_cases():
    fano, nonfano = K.fano_pair()
    z4, z6 = K.binary_spike(4), K.binary_spike(6)
    cases = [("F7", fano), ("F7-", nonfano),
             ("F7+F7-", K.direct_sum(fano, nonfano)[0]), ("Z4", z4)]
    cases += [(f"Z4-{Z:x}", K.relax(z4, Z)) for Z in K.spike_transversals(4, "even")]
    cases += [("Vamos", K.kinser_relaxed(4)), ("Kin4", K.kinser(4)),
              ("U36", K.uniform(3, 6)),
              ("DowlingZ2", K.dowling(2, 3)),
              ("DowlingZ3", K.dowling(3, 3))]
    # Z6 relaxed at two even transversals through a1 and a2: early violators
    cases += [(f"Z6-{a:x}-{b:x}", _relaxed(z6, a, b))
              for a, b in ((0x333, 0xC0F), (0xA17, 0xC0F), (0x333, 0x91B))]
    return cases


GATE_CASES = _gate_cases()


def _aut_cases():
    fano, nonfano = K.fano_pair()
    z4 = K.binary_spike(4)
    cases = [("F7", fano), ("F7-", nonfano), ("Z4", z4), ("Vamos", K.kinser_relaxed(4)),
             ("U36", K.uniform(3, 6))]
    return cases + [(f"Z4-{Z:x}", K.relax(z4, Z)) for Z in K.spike_transversals(4, "even")]


AUT_CASES = _aut_cases()


def generated_group(m, sigmas):
    """Closure of the permutations under composition, by breadth-first search."""
    identity = tuple(range(m))
    group, frontier = {identity}, [identity]
    while frontier:
        reached = []
        for g in frontier:
            for s in sigmas:
                h = tuple(int(s[g[e]]) for e in range(m))
                if h not in group:
                    group.add(h)
                    reached.append(h)
        frontier = reached
    return group


class TestAutomorphisms:
    """Discovered generators against every permutation tried on the table."""

    @pytest.mark.parametrize("space", ["flats", "all_subsets"])
    @pytest.mark.parametrize("M", [M for _, M in AUT_CASES],
                             ids=[name for name, _ in AUT_CASES])
    def test_group_and_orbits_match_brute_force(self, M, space):
        masks = search_masks(M, space)
        gens, reads = _automorphisms(M.table, np.array(masks, dtype=np.int64))
        assert reads == len(masks)
        oracle = set(brute_force_automorphisms(M))
        for sigma, pi in gens:
            assert tuple(int(e) for e in sigma) in oracle
            assert [masks[i] for i in pi] == [permuted_mask(sigma, x) for x in masks]
        assert generated_group(M.m, [s for s, _ in gens]) == oracle
        rows = _orbit_least(len(masks), [pi for _, pi in gens])
        assert rows.tolist() == orbit_minima(oracle, masks)

    @pytest.mark.parametrize("space", ["flats", "all_subsets"])
    def test_non_automorphisms_refused(self, vamos, space):
        # every set maps into all_subsets, so there only the ranks refuse
        masks = np.array(search_masks(vamos, space), dtype=np.int64)
        oracle = set(brute_force_automorphisms(vamos))
        kept = 0
        for e, f in itertools.combinations(range(vamos.m), 2):
            sigma = np.arange(vamos.m)
            sigma[[e, f]] = sigma[[f, e]]
            pi = _mask_permutation(masks, vamos.table[masks], sigma)
            assert (pi is not None) == (tuple(sigma.tolist()) in oracle)
            kept += pi is not None
        assert 0 < kept < 28

    def test_permutation_leaving_the_masks_refused(self):
        # {0} -> {1} keeps every rank of the list ({0}, {2}) but leaves it
        masks = np.array([0b001, 0b100], dtype=np.int64)
        ranks = np.array([1, 1], dtype=np.uint8)
        assert _mask_permutation(masks, ranks, np.array([1, 0, 2])) is None
        assert _mask_permutation(masks, ranks, np.array([2, 1, 0])).tolist() == [1, 0]

    def test_direct_sum_orbits_multiply(self, fano, nonfano, fano_sum):
        counts = [len(orbit_minima(brute_force_automorphisms(M), M.enumerate("flats")))
                  for M in (fano, nonfano)]
        masks = np.array(fano_sum.enumerate("flats"), dtype=np.int64)
        gens, _ = _automorphisms(fano_sum.table, masks)
        assert len(_orbit_least(len(masks), [pi for _, pi in gens])) == counts[0] * counts[1] == 24


# the n = 5 gate: every gate case with at most 100 flats, which leaves out
# F7 (+) F7^- and the relaxed Z6
N5_GATE_CASES = [(name, M) for name, M in GATE_CASES if len(M.enumerate("flats")) <= 100]


class TestPruningGate:
    """Both pruning rules together must not move the verdict or certificate."""

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("M", [M for _, M in N5_GATE_CASES],
                             ids=[name for name, _ in N5_GATE_CASES])
    def test_n5_orbits_agree_with_pruning_off(self, M, width):
        on = K.membership(M, 5, K.SearchConfig(parallel_width=width))
        off = K.membership(M, 5, K.SearchConfig(symmetry_pruning=False,
                                                parallel_width=width))
        assert on.x1_rows < off.x1_rows == on.space_size
        assert on.in_class == off.in_class
        assert on.certificate == off.certificate
        if width > 1:  # every field, rank_queries included, as at width 1
            assert on == K.membership(M, 5)
            assert off == K.membership(M, 5, K.SearchConfig(symmetry_pruning=False))

    @pytest.mark.parametrize("M", [M for _, M in GATE_CASES],
                             ids=[name for name, _ in GATE_CASES])
    def test_flats_pruning_on_off_agree(self, M):
        on = K.membership(M, 4, K.SearchConfig(symmetry_pruning=True))
        off = K.membership(M, 4, K.SearchConfig(symmetry_pruning=False))
        assert on.in_class == off.in_class
        assert on.certificate == off.certificate

    @pytest.mark.parametrize("M", [M for _, M in GATE_CASES if M.m <= 8],
                             ids=[name for name, M in GATE_CASES if M.m <= 8])
    def test_all_subsets_pruning_on_off_agree(self, M):
        cfg = K.SearchConfig(space="all_subsets")
        on = K.membership(M, 4, cfg)
        off = K.membership(M, 4, K.SearchConfig(space="all_subsets",
                                                symmetry_pruning=False))
        assert on.in_class == off.in_class
        assert on.certificate == off.certificate
        assert on.in_class == K.membership(M, 4).in_class

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("M", [M for _, M in GATE_CASES],
                             ids=[name for name, _ in GATE_CASES])
    def test_orbits_forced_on_agree_with_pruning_off(self, M, width, monkeypatch):
        off = K.membership(M, 4, K.SearchConfig(symmetry_pruning=False))
        monkeypatch.setattr(engine, "ORBIT_SCAN_MIN", 0)
        on = K.membership(M, 4, K.SearchConfig(parallel_width=width))
        assert on.x1_rows < off.x1_rows == on.space_size
        assert on.in_class == off.in_class
        assert on.certificate == off.certificate
        if width > 1:  # every field, rank_queries included, as at width 1
            assert on == K.membership(M, 4)

    @pytest.mark.parametrize("M", [M for _, M in GATE_CASES if M.m <= 8],
                             ids=[name for name, M in GATE_CASES if M.m <= 8])
    def test_all_subsets_orbits_forced_on_agree(self, M, monkeypatch):
        off = K.membership(M, 4, K.SearchConfig(space="all_subsets",
                                                symmetry_pruning=False))
        monkeypatch.setattr(engine, "ORBIT_SCAN_MIN", 0)
        on = K.membership(M, 4, K.SearchConfig(space="all_subsets"))
        assert on.x1_rows < off.x1_rows
        assert on.in_class == off.in_class
        assert on.certificate == off.certificate


# With SCAN_BLOCK = 1 every scan block is over the limit: at n = 4 runs of
# one live pair, and batches and groups of one X1 row; at n >= 5 min-plus
# blocks of one column c and X1 tests of one row.  The pruning-off scan of
# F7 (+) F7^- (F = 288, |P| = F^2, in class) then computes and reduces its
# 288-column GP rows one pair at a time, over a minute in all, so it runs
# with pruning on only.
OVER_LIMIT_CASES = [(name, M, pruning) for name, M in GATE_CASES
                    for pruning in (True, False)
                    if pruning or name != "F7+F7-"]
N5_OVER_LIMIT_CASES = [(name, M, pruning, n) for n in (5, 6) for name, M in N5_GATE_CASES
                       for pruning in (True, False)]


class TestOverLimitPath:
    """A scan split into blocks of SCAN_BLOCK = 1 entry must give the
    verdict, certificate and counters of the default in-memory blocks."""

    @pytest.mark.parametrize("M,pruning", [(M, p) for _, M, p in OVER_LIMIT_CASES],
                             ids=[f"{name}-{'on' if p else 'off'}"
                                  for name, _, p in OVER_LIMIT_CASES])
    def test_matches_in_memory(self, M, pruning, monkeypatch):
        cfg = K.SearchConfig(symmetry_pruning=pruning)
        in_memory = K.membership(M, 4, cfg)
        monkeypatch.setattr(engine, "SCAN_BLOCK", 1)
        # equal verdicts: in_class, certificate, tuples_examined, rank_queries
        assert K.membership(M, 4, cfg) == in_memory

    @pytest.mark.parametrize("M", [M for _, M in GATE_CASES],
                             ids=[name for name, _ in GATE_CASES])
    def test_orbits_forced_on_match_in_memory(self, M, monkeypatch):
        monkeypatch.setattr(engine, "ORBIT_SCAN_MIN", 0)
        in_memory = K.membership(M, 4)
        monkeypatch.setattr(engine, "SCAN_BLOCK", 1)
        assert K.membership(M, 4) == in_memory

    # n = 6 adds X1 tests over entries of W with two-hop distances
    @pytest.mark.parametrize("M,pruning,n", [(M, p, n) for _, M, p, n in N5_OVER_LIMIT_CASES],
                             ids=[f"{name}-{'on' if p else 'off'}" + ("" if n == 5 else f"-n{n}")
                                  for name, _, p, n in N5_OVER_LIMIT_CASES])
    def test_n5_matches_in_memory(self, M, pruning, n, monkeypatch):
        cfg = K.SearchConfig(symmetry_pruning=pruning)
        in_memory = K.membership(M, n, cfg)
        monkeypatch.setattr(engine, "SCAN_BLOCK", 1)
        assert K.membership(M, n, cfg) == in_memory


@pytest.fixture
def pool_calls(monkeypatch):
    """Four CPUs and, for ProcessPoolExecutor, a pool that runs every chunk
    in this process; the list it returns gets (kernel, chunks) per map."""
    calls = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, kernel, chunks):
            chunks = list(chunks)
            assert len(chunks) <= self.max_workers
            calls.append((kernel, chunks))
            return map(kernel, chunks)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return calls


class TestWorkSplit:
    """``membership`` deals the kernel's outer index out round-robin: X1
    rows at n = 4, X2 columns at n >= 5."""

    @pytest.mark.parametrize("orbits", [False, True], ids=["all-rows", "orbit-rows"])
    def test_n4_chunks_interleave_x1_rows(self, fano_sum, pool_calls, monkeypatch, orbits):
        # with pruning X2 starts at i1, so the row weights fall with i1 and
        # the orbit-least rows bunch at low i1; equal i1 ranges would hand
        # the first of two chunks three quarters of the scan
        masks = np.array(fano_sum.enumerate("flats"), dtype=np.int64)
        F = len(masks)
        rows = np.arange(F)
        if orbits:
            rows = _orbit_least(F, [pi for _, pi in _automorphisms(fano_sum.table, masks)[0]])
        monkeypatch.setattr(engine, "ORBIT_SCAN_MIN", 0 if orbits else 1 << 62)
        verdict = K.membership(fano_sum, 4, K.SearchConfig(parallel_width=2))
        [(kernel, chunks)] = pool_calls
        assert kernel.func is _search_n4_chunk
        assert [c.tolist() for c in chunks] == [rows[0::2].tolist(), rows[1::2].tolist()]
        tuples = [n4_chunk(fano_sum.table, masks, True, x1s)[1] for x1s in chunks]
        assert verdict.in_class and sum(tuples) == verdict.tuples_examined
        assert max(tuples) < (0.55 if orbits else 0.51) * sum(tuples)
        assert verdict == K.membership(fano_sum, 4) and len(pool_calls) == 1

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("pruning", [True, False])
    @pytest.mark.parametrize("maker", [lambda: K.kinser_relaxed(4), lambda: K.fano_pair()[1]],
                             ids=["Vamos", "F7-"])
    def test_chain_chunks_deal_x2_columns(self, maker, pruning, n, pool_calls):
        M = maker()
        masks = np.array(M.enumerate("flats"), dtype=np.int64)
        F = len(masks)
        rows = np.arange(F)
        if pruning:
            rows = _orbit_least(F, [pi for _, pi in _automorphisms(M.table, masks)[0]])
        for width in (2, 3):
            cfg = K.SearchConfig(symmetry_pruning=pruning, parallel_width=width)
            verdict = K.membership(M, n, cfg)
            kernel, chunks = pool_calls[-1]
            # every chunk scans every X1 row, over its own X2 columns
            assert kernel.func is _search_chain_chunk
            assert kernel.args[1] == n and kernel.args[2].tolist() == rows.tolist()
            assert [c.tolist() for c in chunks] == [list(range(i, F, width))
                                                    for i in range(width)]
            assert verdict == K.membership(M, n, K.SearchConfig(symmetry_pruning=pruning))
        assert len(pool_calls) == 2


# every verdict field at widths 1, 2 and 3 (four CPUs, chunks in process)
WIDTH_CASES = ([(f"{name}-n4", M, 4, True) for name, M in GATE_CASES]
               + [(f"{name}-n{n}-{'on' if p else 'off'}", M, n, p) for n in (5, 6)
                  for name, M in N5_GATE_CASES for p in (True, False)])


@pytest.mark.parametrize("M,n,pruning", [c[1:] for c in WIDTH_CASES],
                         ids=[c[0] for c in WIDTH_CASES])
def test_verdict_equal_at_every_width(M, n, pruning, pool_calls):
    verdicts = [K.membership(M, n, K.SearchConfig(symmetry_pruning=pruning,
                                                  parallel_width=width))
                for width in (1, 2, 3)]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert [len(chunks) for _, chunks in pool_calls] == [2, 3]


def test_z6_in_class_without_a_stored_gp(z6):
    # Z6 is binary, so it satisfies every Kinser inequality; the scan holds
    # the GP rows of one run of live pairs at a time, never F x |P| entries
    tracemalloc.start()
    try:
        verdict = K.membership(z6, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.in_class
    assert (verdict.space_size, verdict.pairs) == (562, 51_266)
    assert peak < verdict.space_size * verdict.pairs / 4


def test_chain_chunk_holds_one_table_per_x1_row():
    # Z5's flats at n = 5: F = 173 and 9 orbit-least X1 rows.  Beyond the
    # search tables the chunk holds one F x F int8 table per X1 row, a few
    # F x F temporaries per X2 and blocks of at most SCAN_BLOCK entries
    M = K.binary_spike(5)
    masks = np.array(M.enumerate("flats"), dtype=np.int64)
    tables = _search_tables(M.table, masks, False)[0]
    rows = _orbit_least(len(masks), [pi for _, pi in _automorphisms(M.table, masks)[0]])
    tracemalloc.start()
    try:
        hit = _search_chain_chunk(tables, 5, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    F = len(masks)
    assert (F, len(rows), hit) == (173, 9, None)
    assert peak <= len(rows) * F * F + 8 * F * F + 4 * engine.SCAN_BLOCK


def test_search_tables_hold_no_f_by_f_int64_array():
    # Z7's flats: F = 1795 and 704,599 non-modular pairs.  The tables are
    # built in row blocks, so beyond the arrays they return the build never
    # holds as much as one F x F int64 array
    M = K.binary_spike(7)
    masks = np.array(M.enumerate("flats"), dtype=np.int64)
    tracemalloc.start()
    try:
        tables = _search_tables(M.table, masks, True)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    F = len(masks)
    assert (F, len(tables[1])) == (1795, 704_599)
    assert peak - sum(t.nbytes for t in tables) < F * F * 8


@pytest.mark.parametrize("name,space", [
    ("fano", "flats"), ("vamos", "flats"), ("z4", "flats"), ("dowling_z3", "flats"),
    ("fano_sum", "flats"), ("fano", "all_subsets"), ("vamos", "all_subsets"),
    ("z4", "all_subsets")])
def test_search_space_holds_closure_of_each_union(name, space, request):
    # the search tables read r(Xj u X3 u X4) as the pair rank of Xj and
    # cl(X3 u X4), so that closure must be a member of the space
    M = request.getfixturevalue(name)
    masks = _space_masks(M, K.SearchConfig(space=space))
    members = set(masks.tolist())
    unions = np.unique(masks[:, None] | masks).tolist()
    assert all(definition_closure(M, u) in members for u in unions)


def test_unpruned_search_tables_store_each_pair_once():
    # With pruning off every one of Z7's F^2 = 3.2M pairs is listed.  The
    # pair list holds one flat index i3 F + i4 per pair and J the index of
    # each pair's closure; no other returned array is F^2 int64.  The n >= 5
    # tables leave the pair list out and are otherwise the same
    M = K.binary_spike(7)
    masks = np.array(M.enumerate("flats"), dtype=np.int64)
    tables, queries = _search_tables(M.table, masks, False)
    F = len(masks)
    wide = [t for t in tables if t.size == F * F and t.itemsize == 8]
    assert F == 1795 and len(wide) <= 2
    assert np.array_equal(tables[1], np.arange(F * F))
    chain, chain_queries = _search_tables(M.table, masks, False, False)
    assert chain[1] is None and chain_queries == queries
    assert all(np.array_equal(a, b) for a, b in zip(chain, tables) if a is not None)
    assert [i for i, t in enumerate(chain) if t is not None and t.itemsize == 8] == [3]


# No matroid on at most 7 elements violates inequality 4, so Vamos and a
# relaxed Z4 (m = 8) join the small linear matroids, each with the family
# the paper proves violating, so that some lists hold a violator.
def _mask_list_matroids():
    z4 = K.binary_spike(4)
    Z = z4.parts("a1", "a2", "b3", "b4")
    vamos, relaxed = K.kinser_relaxed(4), K.relax(z4, Z)
    fano, nonfano = K.fano_pair()
    cases = [(M, ()) for M in (fano, nonfano, K.uniform(2, 5), K.uniform(3, 6),
                               K.dowling(2, 3))]
    cases.append((vamos, K.canonical_family(vamos, "kinser").sets))
    cases.append((relaxed, K.canonical_family(relaxed, "spike", Z).sets))
    return cases


MASK_LIST_MATROIDS = _mask_list_matroids()


def mask_members(M):
    """Flats, two-element sets and arbitrary subsets of M's ground set."""
    pairs = [x for x in range(1 << M.m) if bin(x).count("1") == 2]
    return st.one_of(st.sampled_from(M.enumerate("flats")), st.sampled_from(pairs),
                     st.integers(0, (1 << M.m) - 1))


def closed_list(M, masks, members, max_size):
    """``masks`` with each of ``members`` in turn appended while the list,
    with the members of its hull (``closure_hull``) that it lacks, has at
    most ``max_size`` masks; then those hull members appended in order.
    The search tables need the hull: cl(X u Y) for each pair of members."""
    for x in members:
        grown = masks + [x]
        if len(grown) + len(set(closure_hull(M, grown)) - set(grown)) <= max_size:
            masks = grown
    return masks + sorted(set(closure_hull(M, masks)) - set(masks))


@st.composite
def mask_lists(draw, max_size=12, violators=False):
    """A matroid and a list of at most ``max_size`` masks in any order,
    repeats allowed, that holds the closure of the union of each pair of
    its members: some or all of its violating family (whose hull has 10
    masks on Vamos and on the relaxed Z4), flats, two-element sets and
    arbitrary subsets, so many members are not flats.  With ``violators``,
    about half the lists are drawn on Vamos or the relaxed Z4 and hold its
    whole family."""
    forced = violators and draw(st.booleans())
    cases = [c for c in MASK_LIST_MATROIDS if c[1]] if forced else MASK_LIST_MATROIDS
    M, family = draw(st.sampled_from(cases))
    masks = list(family) if forced or draw(st.booleans()) else []
    members = draw(st.lists(mask_members(M), min_size=1, max_size=max_size))
    return M, draw(st.permutations(closed_list(M, masks, members, max_size)))


@settings(max_examples=60, deadline=None)
@given(mask_lists())
def test_n4_chunk_on_arbitrary_mask_lists(case):
    M, masks = case
    tup, _ = brute_force_lex_first(M, 4, masks)
    arr = np.array(masks, dtype=np.int64)
    assert n4_chunk(M.table, arr, False)[0] == tup


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n,size", [(5, 12), (6, 11)])
def test_chain_chunk_on_arbitrary_mask_lists(n, size, data):
    # a Vamos or relaxed Z4 list holding its whole n = 4 family holds an
    # n-violator too: the family with its last set repeated
    M, masks = data.draw(mask_lists(size, violators=True))
    F = len(masks)
    # an ascending, possibly non-contiguous set of X1 rows, as orbits give
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, F - 1), min_size=1))))
    tup, _ = brute_force_lex_first(M, n, masks, rows)
    tables = _search_tables(M.table, np.array(masks, dtype=np.int64), False)[0]
    got = _search_chain_chunk(tables, n, rows)
    assert got == tup
    # X2 columns dealt out round-robin: the least of the chunks' hits
    width = data.draw(st.integers(2, 3))
    hits = [_search_chain_chunk(tables, n, rows, np.arange(i, F, width)) for i in range(width)]
    assert min((hit for hit in hits if hit is not None), default=None) == tup
    tuples = _tuples_examined(tables, _x2_rows(F, False), rows, got)
    # (X1, X2, X3, Xn) quadruples over the scanned rows, up to and including the hit
    i1, i2, i3, i_n = (F, 0, 0, -1) if tup is None else (*tup[:3], tup[-1])
    assert tuples == int((rows < i1).sum()) * F ** 3 + i2 * F ** 2 + i3 * F + i_n + 1


def test_chain_chunk_rebuild_on_settled_distances():
    # on Vamos and the relaxed Z4, over the hull of the family (10 masks),
    # the distances of the hit's X2 settle within 3 hops, fewer than the
    # n - 4 = 4 hops left after X4 at n = 8, so every slot of the rebuild
    # reads the settled distances G[len(hops)]
    for M, family in [c for c in MASK_LIST_MATROIDS if c[1]]:
        masks = closure_hull(M, family)
        tup, _ = brute_force_lex_first(M, 8, masks)
        assert tup is not None  # the family with its last set repeated violates
        tables = _search_tables(M.table, np.array(masks, dtype=np.int64), False)[0]
        assert _search_chain_chunk(tables, 8, np.arange(len(masks))) == tup
        # the step costs L[a][c] = I(X2; Xa | Xc), written out literally
        x = np.array(masks, dtype=np.int64)
        L = conditional_information(lambda y: M.table[y].astype(np.int64),
                                    x[tup[1]], x[:, None], x[None, :])
        assert len(engine._distances(L, slice(None), 8 - 3)) < 8 - 4


@st.composite
def sorted_mask_lists(draw):
    """A small matroid (a random binary one, a uniform one or, half the
    time, one of the mask-list matroids) and a sorted list of 3 to 12
    distinct masks that holds the closure of the union of each pair of its
    members: flats, two-element sets and arbitrary subsets."""
    kind = draw(st.sampled_from(["binary", "uniform", "listed", "listed"]))
    if kind == "binary":
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 7))
        entries = draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                                max_size=rows * cols))
        M = K.from_matrix(K.MatrixGFp(2, rows, cols, tuple(entries)))
    elif kind == "uniform":
        n = draw(st.integers(2, 7))
        M = K.uniform(draw(st.integers(0, n)), n)
    else:
        M = draw(st.sampled_from([M for M, _ in MASK_LIST_MATROIDS]))
    # any 3 masks fit: with their closures and those of their unions, 10
    members = draw(st.sets(mask_members(M), min_size=3, max_size=12))
    return M, sorted(closed_list(M, [], members, 12))


def assert_search_tables_literal(M, masks, pruning, block):
    """``_search_tables`` on the sorted ``masks`` equals the literal tables.
    SCAN_BLOCK = 1 builds one row and one pair per block; "mid-list" takes
    blocks of F // 2 + 1 rows, so a list of F >= 3 masks ends in a short
    block."""
    F = len(masks)
    scan_block = {"default": engine.SCAN_BLOCK, "one": 1,
                  "mid-list": (F // 2 + 2) * F - 1}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SCAN_BLOCK", scan_block)
        (PR, P, c34, J), _ = _search_tables(M.table, np.array(masks, dtype=np.int64), pruning)
    PR_lit, pairs, c34_lit, triples, closure_at = literal_search_tables(M, masks, pruning)
    assert PR.tolist() == PR_lit
    assert [divmod(p, F) for p in P.tolist()] == pairs
    assert c34.tolist() == c34_lit
    assert J.tolist() == closure_at
    assert PR[J].tolist() == triples
    assert [a.dtype for a in (PR, P, c34, J)] == [np.int8, np.intp, np.int8, np.intp]


BLOCKS = ["default", "one", "mid-list"]


@settings(max_examples=60, deadline=None)
@given(sorted_mask_lists(), st.booleans())
@pytest.mark.parametrize("block", BLOCKS)
def test_search_tables_match_literal_definitions(block, case, pruning):
    assert_search_tables_literal(*case, pruning, block)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("M", [M for M, _ in MASK_LIST_MATROIDS],
                         ids=[M.label for M, _ in MASK_LIST_MATROIDS])
def test_search_tables_on_flats_match_literal_definitions(M, block):
    # random lists seldom hold a non-modular pair; flat lists hold many
    # (947 of the 79^2 on Vamos), in rows on both sides of every seam
    assert_search_tables_literal(M, M.enumerate("flats"), True, block)


class TestCommonInformationLemma:
    """Every violating flat 4-tuple has a non-modular (X3, X4), checked by the
    literal Ingleton formula over all flat 4-tuples, one X1 at a time."""

    @pytest.mark.parametrize("maker", [
        lambda: K.kinser_relaxed(4),
        lambda: K.relax(K.binary_spike(4), K.binary_spike(4).parts("a1", "a2", "b3", "b4")),
    ], ids=["Vamos", "Z4-relaxed"])
    def test_violators_have_non_modular_x3_x4(self, maker):
        M = maker()
        flats = np.array(M.enumerate("flats"), dtype=np.int64)

        def r(x):
            return M.table[x].astype(np.int64)

        x3, x4 = flats[:, None], flats[None, :]
        modular = r(x3) + r(x4) == r(x3 | x4) + r(x3 & x4)
        x2, x3, x4 = flats[:, None, None], flats[None, :, None], flats[None, None, :]
        violators = modular_12 = 0
        for i1, x1 in enumerate(flats):
            lhs, rhs = ingleton_sides(r, x1, x2, x3, x4)
            bad = lhs > rhs
            assert not (bad & modular[None]).any()
            violators += int(bad.sum())
            modular_12 += int((bad & modular[i1][:, None, None]).sum())
        assert violators > 0
        # the rule needs the right pair: (X1, X2) is modular on some violators
        assert modular_12 > 0


def _chain_lemma_cases():
    """(M, seed): Vamos and a relaxed Z4 with the n = 4 family the paper
    proves violating, and three random GF(2) matroids with no seed."""
    vamos = K.kinser_relaxed(4)
    z4 = K.binary_spike(4)
    relaxed = K.relax(z4, z4.parts("a1", "a2", "b3", "b4"))
    spike = tuple(z4.parts(*legs) for legs in (("a1", "a2"), ("b3", "b4"), ("b1", "b2"),
                                                ("a3", "a4")))
    rng = np.random.default_rng(5)
    return ([(vamos, tuple(vamos.part(f"V{i}") for i in range(1, 5))), (relaxed, spike)]
            + [(random_linear_matroid(rng), None) for _ in range(3)])


CHAIN_LEMMA_CASES = _chain_lemma_cases()


class TestChainCommonInformationLemma:
    """If (cl X2, cl X3) is a modular pair, no X1, X4, ..., Xn make inequality
    n fail: Z = cl X2 n cl X3 has r(Z) = I(X2;X3), and the chain form gives
    margin_n <= 0.  Checked by the literal inequality from ``tests/oracles.py``
    on random families, with closures and flats by definition."""

    DRAWS = 4000

    def test_seed_pair_is_not_modular(self, vamos):
        # the canonical Vamos family extended to n = 5 violates, so its
        # (X2, X3) = (V2, V3) cannot be a modular pair
        sets = tuple(vamos.part(f"V{i}") for i in (1, 2, 3, 4, 4))
        lhs, rhs = kinser_sides(vamos.rank, sets)
        assert lhs > rhs
        a, b = (definition_closure(vamos, x) for x in sets[1:3])
        assert vamos.rank(a) + vamos.rank(b) > vamos.rank(a | b) + vamos.rank(a & b)

    @pytest.mark.parametrize("case", range(5),
                             ids=["Vamos", "Z4-relaxed", "GF2-a", "GF2-b", "GF2-c"])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_modular_x2_x3_never_violates(self, case, n):
        M, seed = CHAIN_LEMMA_CASES[case]
        rng = np.random.default_rng(100 * case + n)
        cl = np.array([definition_closure(M, x) for x in range(1 << M.m)], dtype=np.int64)
        flats = np.array(definition_flats(M), dtype=np.int64)

        def r(x):
            return M.table[x].astype(np.int64)

        def slot(i):
            # each slot is a random flat, a random subset or, half the time
            # when there is a seed, the seed's set (its last set from X4 on)
            x = np.where(rng.integers(2, size=self.DRAWS) == 0,
                         flats[rng.integers(len(flats), size=self.DRAWS)],
                         rng.integers(1 << M.m, size=self.DRAWS))
            if seed is None:
                return x
            return np.where(rng.integers(2, size=self.DRAWS) == 0, seed[min(i, 4) - 1], x)

        sets = [slot(i) for i in range(1, n + 1)]
        lhs, rhs = kinser_sides(r, sets)
        a, b = cl[sets[1]], cl[sets[2]]
        modular = r(a) + r(b) == r(a | b) + r(a & b)
        assert modular.sum() > self.DRAWS // 4
        assert not (lhs > rhs)[modular].any()
        if seed is not None:
            # the draws reach violators, all with a non-modular (X2, X3)
            assert (lhs > rhs).any()


# Families on F7^- (in class), Vamos and a relaxed Z4 (both out of class),
# half the time near the family the paper proves violating.
def _identity_matroids():
    z4 = K.binary_spike(4)
    Z = z4.parts("a1", "a2", "b3", "b4")
    vamos, relaxed = K.kinser_relaxed(4), K.relax(z4, Z)
    return [(K.fano_pair()[1], None), (vamos, K.canonical_family(vamos, "kinser").sets),
            (relaxed, K.canonical_family(relaxed, "spike", Z).sets)]


IDENTITY_MATROIDS = _identity_matroids()


@st.composite
def ingleton_families(draw):
    M, violating = draw(st.sampled_from(IDENTITY_MATROIDS))
    member = st.one_of(st.sampled_from(M.enumerate("flats")), st.integers(0, (1 << M.m) - 1))
    sets = list(draw(st.tuples(member, member, member, member)))
    if violating is not None and draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=4, max_size=4))
        sets = [v if k else x for v, x, k in zip(violating, sets, keep)]
    return M, tuple(sets)


@settings(max_examples=300, deadline=None)
@given(ingleton_families())
def test_margin_is_d1_minus_two_informations(case):
    """margin = d1 - I(X1;X2) - I(X3;X4|X2) with d1 = I(X3;X4) - I(X3;X4|X1),
    everything from the literal formulas, and both subtracted terms >= 0."""
    M, (x1, x2, x3, x4) = case
    r = M.rank
    lhs, rhs = ingleton_value(M, x1, x2, x3, x4)
    d1 = conditional_information(r, x3, x4) - conditional_information(r, x3, x4, x1)
    i12, i34_2 = conditional_information(r, x1, x2), conditional_information(r, x3, x4, x2)
    assert lhs - rhs == d1 - i12 - i34_2
    assert i12 >= 0 and i34_2 >= 0


# Arbitrary masks of two matroids outside K_4 (Vamos, Kin(5)^-) and two
# representable ones (F7^-, Z5)
CHAIN_MATROIDS = [K.kinser_relaxed(4), K.fano_pair()[1], K.kinser_relaxed(5),
                  K.binary_spike(5)]


@st.composite
def chain_families(draw):
    M = draw(st.sampled_from(CHAIN_MATROIDS))
    n = draw(st.integers(4, 8))
    return M, draw(st.lists(st.integers(0, (1 << M.m) - 1), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(chain_families())
def test_margin_is_the_chain_form(case):
    """margin_n = I(X2;X3) - I(X1;X2) - I(X3;Xn|X1)
    - sum_{i=4..n} I(X2;X_{i-1}|X_i), from the literal formulas."""
    M, sets = case
    r, n, X = M.rank, len(sets), [None] + sets
    lhs, rhs = kinser_value(M, sets)
    chain = sum(conditional_information(r, X[2], X[i - 1], X[i]) for i in range(4, n + 1))
    assert lhs - rhs == (conditional_information(r, X[2], X[3])
                         - conditional_information(r, X[1], X[2])
                         - conditional_information(r, X[3], X[n], X[1]) - chain)


class TestLivePairs:
    """The n = 4 scan keeps, per X1 row, the pairs with d1 > 0 only."""

    @staticmethod
    def table_rank(M):
        return lambda x: M.table[x].astype(np.int64)

    def lex_first_by_rows(self, M, flats):
        """Lex-first violator by the literal formula, one X1 row at a time."""
        r = self.table_rank(M)
        x2, x3, x4 = flats[:, None, None], flats[None, :, None], flats[None, None, :]
        for i1, x1 in enumerate(flats):
            lhs, rhs = ingleton_sides(r, x1, x2, x3, x4)
            bad = np.argwhere(lhs > rhs)
            if len(bad):
                return (i1, *(int(i) for i in bad[0]))
        return None

    def test_d1_matches_literal_information(self, vamos):
        masks = np.array(vamos.enumerate("flats"), dtype=np.int64)
        tables = _search_tables(vamos.table, masks, True)[0]
        d1 = _n4_d1(tables, np.arange(len(masks)))
        r = self.table_rank(vamos)
        i3, i4 = np.divmod(tables[1], len(masks))
        x1, x3, x4 = masks[:, None], masks[i3][None], masks[i4][None]
        expected = conditional_information(r, x3, x4) - conditional_information(r, x3, x4, x1)
        assert np.array_equal(d1, expected)
        assert 0 < (d1 > 0).sum() < d1.size

    def test_certificate_pair_has_d1_one(self, vamos):
        # Vamos's lex-first violator has margin 1 with I(X1;X2) = 0 and
        # I(X3;X4|X2) = 0, so its pair is live with d1 = 1 exactly: a live
        # test of d1 > 1 would lose it
        flats = np.array(vamos.enumerate("flats"), dtype=np.int64)
        tup = self.lex_first_by_rows(vamos, flats)
        cert = K.membership(vamos, 4).certificate
        assert cert.family.sets == tuple(int(flats[i]) for i in tup)
        x1, x2, x3, x4 = cert.family.sets
        r = vamos.rank
        assert cert.lhs - cert.rhs == 1
        assert conditional_information(r, x3, x4) - conditional_information(r, x3, x4, x1) == 1
        for width in (1, 2):
            cfg = K.SearchConfig(parallel_width=width)
            assert K.membership(vamos, 4, cfg).certificate == cert
            cfg = K.SearchConfig(symmetry_pruning=False, parallel_width=width)
            assert K.membership(vamos, 4, cfg).certificate == cert

    @pytest.mark.parametrize("pruning", [True, False])
    def test_empty_closure_row_has_no_live_pair(self, vamos, pruning):
        # X1 = cl(empty set) gives d1 = 0 on every pair; the scan skips that
        # row, counts its tuples, and still finds the hit in a later row
        masks = np.array(vamos.enumerate("flats"), dtype=np.int64)
        F = len(masks)
        assert masks[0] == vamos.closure(0)
        i1, i2, i3, i4 = tup = self.lex_first_by_rows(vamos, masks)
        tables = _search_tables(vamos.table, masks, pruning)[0]
        rows = np.array([0, i1])
        d1 = _n4_d1(tables, rows)
        assert not (d1[0] > 0).any()
        P = [divmod(p, F) for p in tables[1].tolist()]
        assert d1[1][P.index((i3, i4))] == 1
        got = _search_n4_chunk(tables, rows, pruning)
        assert got == tup
        tuples = _tuples_examined(tables, _x2_rows(F, pruning), rows, got)
        # row 0 counts all F rows of X2, with pruning or without
        before = i2 - i1 if pruning else i2
        assert tuples == (F + before) * len(P) + P.index((i3, i4)) + 1


class TestClassProperties:
    def test_hierarchy_extension_of_found_family(self, vamos):
        cert = K.membership(vamos, 4).certificate
        extended = K.extend_family(cert.family)
        value = K.evaluate(vamos, extended)
        assert value.margin == cert.lhs - cert.rhs

    @pytest.mark.parametrize("maker", [
        lambda: K.fano_pair()[0],
        lambda: K.binary_spike(4),
        lambda: K.uniform(3, 6),
    ])
    def test_minor_closure_at_n4(self, maker):
        M = maker()
        assert K.membership(M, 4).in_class
        for e in range(M.m):
            assert K.membership(K.delete(M, e)[0], 4).in_class
            assert K.membership(K.contract(M, e)[0], 4).in_class

    def test_direct_sum_closure_at_n4(self, fano):
        a, _, _ = K.direct_sum(K.uniform(2, 4), K.uniform(1, 2))
        b, _, _ = K.direct_sum(fano, K.uniform(1, 1))
        for M in (a, b):
            assert K.membership(M, 4).in_class

    def test_duality_verdict_equality_n4(self, vamos, z4, fano):
        cases = [vamos, z4, fano]
        cases += [K.relax(z4, Z) for Z in K.spike_transversals(4, "even")]
        for M in cases:
            primal = K.membership(M, 4).in_class
            dual_side = K.membership(K.dual(M), 4).in_class
            assert primal == dual_side, M.label
