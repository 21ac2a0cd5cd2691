"""Catalog constructions against the paper's structural facts and
independent oracles (matchings grown member by member, GF(p) elimination, bias rank)."""

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import kinser as K
from kinser import catalog
from kinser.catalog import PRIME_TEST_LIMIT, _is_prime
from kinser.core import popcount_array

from oracles import bias_rank_oracle, brute_matching_rank, gf_column_rank

FANO_COLS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


class TestUniform:
    def test_examples(self):
        assert K.uniform(2, 4).rank(0b0111) == 2
        assert K.uniform(0, 3).rank_total == 0
        assert K.uniform(3, 3).rank(0b111) == 3

    def test_bad_params(self):
        with pytest.raises(K.MatroidError):
            K.uniform(4, 3)


class TestFromMatrix:
    def test_fano_pair_ranks(self, fano, nonfano):
        assert fano.rank_total == 3 and nonfano.rank_total == 3

    def test_identity_is_free(self):
        mat = K.MatrixGFp(2, 3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 1))
        assert K.from_matrix(mat).table_equal(K.uniform(3, 3))

    def test_nonprime_rejected(self):
        with pytest.raises(K.MatroidError):
            K.MatrixGFp(4, 1, 1, (1,))

    def test_primality_matches_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
        assert [p for p in range(-3, 20000) if _is_prime(p)] == \
            [p for p in range(-3, 20000) if trial(p)]

    @pytest.mark.parametrize("p, prime", [
        (2047, False),                       # strong pseudoprime to base 2
        (3825123056546413051, False),        # ... to bases 2..23
        (318665857834031151167461, False),   # ... to bases 2..37
        ((2 ** 31 - 1) ** 2, False),
        (2 ** 61 - 1, True),
        (2 ** 31 - 1, True),
    ])
    def test_primality_of_large_moduli(self, p, prime):
        assert _is_prime(p) is prime

    def test_modulus_beyond_exact_range_refused(self):
        with pytest.raises(K.MatroidError, match="too large"):
            _is_prime(PRIME_TEST_LIMIT)

    @pytest.mark.parametrize("rows, cols", [(-1, -1), (-1, 0), (0, -1), (-2, 3)])
    def test_negative_size_refused(self, rows, cols):
        # (-1) x (-1) holds one entry by the product alone
        with pytest.raises(K.MatroidError, match="negative"):
            K.MatrixGFp(2, rows, cols, (1,) * max(rows * cols, 0))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 2 ** 31 - 1, 2 ** 61 - 1])
    def test_random_matrices_match_elimination_oracle(self, p, monkeypatch):
        # every mask, by the default passes and by blocks of 2^b masks for
        # small budgets (b = 0 at a budget of 1); some columns are zero and
        # some are multiples of earlier ones; the i-th matrix has i rows
        rnd = random.Random(p)
        for rows, m in enumerate((1, 3, 6, 9, 11, 12) if p < 2 ** 31 else (1, 5, 8, 10)):
            cols = [[rnd.randrange(p) for _ in range(rows)] for _ in range(m)]
            for j in range(m):
                kind = rnd.randrange(4)
                if kind == 0:
                    cols[j] = [0] * rows
                elif kind == 1 and j:
                    c, k = rnd.randrange(1, p), rnd.randrange(j)
                    cols[j] = [c * v % p for v in cols[k]]
            mat = K.MatrixGFp(p, rows, m, tuple(cols[j][i] for i in range(rows) for j in range(m)))
            expected = [gf_column_rank(p, [cols[j] for j in K.elements_of(x)])
                        for x in range(1 << m)]
            for budget in (catalog.STATE_ENTRIES, 64, 1):
                monkeypatch.setattr(catalog, "STATE_ENTRIES", budget)
                assert K.from_matrix(mat).table.tolist() == expected, (m, rows, budget)

    def test_memory_is_table_and_state_budget(self):
        # 8 x 20 over GF(2): int8 residues, so the budget's entries are
        # bytes; the popcounts cached by the Matroid constructor are built
        # before the trace starts
        rnd = random.Random(20)
        mat = K.MatrixGFp(2, 8, 20, tuple(rnd.randrange(2) for _ in range(160)))
        popcount_array(20)
        tracemalloc.start()
        try:
            K.from_matrix(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20 + catalog.STATE_ENTRIES + 2 ** 17

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_subset_matches_elimination_oracle(self, p, fano, nonfano):
        M = fano if p == 2 else nonfano
        for x in range(1 << 7):
            cols = [FANO_COLS[i] for i in K.elements_of(x)]
            assert M.rank(x) == gf_column_rank(p, cols)

    def test_pairwise_submodularity_exhaustive(self, fano, nonfano):
        for M in (fano, nonfano):
            t = M.table.astype(int)
            idx = np.arange(1 << 7)
            for x in range(1 << 7):
                assert (t[x | idx] + t[x & idx] <= t[x] + t[idx]).all()


class TestFanoPair:
    def test_fano_has_seven_three_point_lines(self, fano):
        chs = fano.enumerate("circuit_hyperplanes")
        assert len(chs) == 7
        # oracle: exhaustive classify scan
        scan = [x for x in range(1 << 7) if fano.classify(x).circuit_hyperplane]
        assert chs == scan

    def test_nonfano_loses_one_line(self, nonfano):
        lines = [x for x in range(1 << 7)
                 if nonfano.size(x) == 3 and nonfano.rank(x) == 2]
        assert len(lines) == 6


class TestTransversal:
    def test_overlapping_pair_family(self):
        S = K.SetSystem(3, (0b011, 0b110))
        M = K.transversal(S)
        assert M.rank(0b111) == 2

    def test_negative_ground_size_refused(self):
        with pytest.raises(K.MatroidError, match="negative"):
            K.SetSystem(-1, ())

    def test_disjoint_singletons(self):
        M = K.transversal(K.SetSystem(2, (0b01, 0b10)))
        assert M.table_equal(K.uniform(2, 2))

    def test_empty_family_all_loops(self):
        M = K.transversal(K.SetSystem(3, ()))
        assert M.rank_total == 0

    def test_matches_matching_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(0, 21))
            fam = tuple(int(rng.integers(0, 1 << m)) for _ in range(k))
            M = K.transversal(K.SetSystem(m, fam))
            oracle = [brute_matching_rank(x, fam) for x in range(1 << m)]
            assert M.table.tolist() == oracle, fam

    def test_family_beyond_narrow_counts(self):
        # 293 members, so counts of members inside a set exceed 255, while
        # elements 2..5 lie in three members only and Hall's condition binds
        fam = (0b000001,) * 250 + (0b000011,) * 40 + (0b001100, 0b001000, 0b110000)
        M = K.transversal(K.SetSystem(6, fam))
        assert M.table.tolist() == [brute_matching_rank(x, fam) for x in range(64)]
        assert (M.rank(0b111100), M.rank_total) == (3, 5)

    @pytest.mark.parametrize("m, copies", [(5, 114), (5, 115), (6, 150), (4, 300)])
    def test_family_past_int8_matches_oracle(self, m, copies):
        # k + m = 127 still fits int8; from 128 on the signed vectors widen.
        # Element 0 lies in every copy, 1..3 share two members, so Hall binds
        fam = (0b1,) * copies + (0b0111, 0b1110) + ((0b11 << (m - 2)),) * (m > 4)
        M = K.transversal(K.SetSystem(m, fam))
        assert M.table.tolist() == [brute_matching_rank(x, fam) for x in range(1 << m)]
        assert M.rank_total == 3 + (m > 4)

    def test_large_family_on_large_ground(self):
        rng = np.random.default_rng(20)
        m = 20
        fam = tuple(int(rng.integers(0, 1 << m)) & int(rng.integers(0, 1 << m))
                    for _ in range(14))
        M = K.transversal(K.SetSystem(m, fam))
        assert K.validate_rank_table(M.m, M.table)
        for _ in range(300):
            x = 0
            for e in rng.choice(m, size=int(rng.integers(0, 9)), replace=False):
                x |= 1 << int(e)
            assert M.rank(x) == brute_matching_rank(x, fam), hex(x)

    def test_families_of_runs_match_oracle(self):
        # members are unions of runs of consecutive elements, so elements
        # share members; k = 0, the empty member, repeats and E all occur
        rng = np.random.default_rng(27)
        for trial in range(150):
            m = int(rng.integers(1, 11))
            cuts = [e for e in range(1, m) if rng.random() < 0.4]
            runs = [((1 << b) - 1) ^ ((1 << a) - 1) for a, b in zip([0] + cuts, cuts + [m])]
            pool = [sum(r for r in runs if rng.random() < 0.5) for _ in range(3)]
            pool += [0, (1 << m) - 1]
            k = trial % 7
            fam = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=k))
            M = K.transversal(K.SetSystem(m, fam))
            oracle = [brute_matching_rank(x, fam) for x in range(1 << m)]
            assert M.table.tolist() == oracle, (m, fam)

    def test_one_signature_in_two_runs(self):
        # elements 0-1 and 4-5 lie in the same members, 2-3 between them do not
        fam = (0b110011, 0b110011, 0b001100, 0b111111)
        M = K.transversal(K.SetSystem(6, fam))
        assert M.table.tolist() == [brute_matching_rank(x, fam) for x in range(64)]
        assert (M.rank(0b110011), M.rank_total) == (3, 4)

    def test_long_runs_past_int8_match_oracle(self):
        # k + m = 132 > 127: the signed vectors widen, and runs of 3 and 4
        # elements lie in 121 and 5 members
        fam = (0b0000111,) * 120 + (0b1111000,) * 4 + (0b1111111,)
        M = K.transversal(K.SetSystem(7, fam))
        assert M.table.tolist() == [brute_matching_rank(x, fam) for x in range(128)]
        assert M.rank_total == 7

    def test_full_transversal_gives_full_rank(self):
        fam = (0b0011, 0b0110, 0b1100)
        M = K.transversal(K.SetSystem(4, fam))
        assert M.rank_total == len(fam)

    def test_monotone_in_family(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = 5
            fam = [int(rng.integers(1, 32)) for _ in range(3)]
            small = K.transversal(K.SetSystem(m, tuple(fam)))
            grown = K.transversal(K.SetSystem(m, tuple(fam + [int(rng.integers(1, 32))])))
            assert (grown.table >= small.table).all()


def kinser_presentation(r: int) -> tuple[int, tuple[int, ...]]:
    """Ground size and presented family of the Kin(r) base, from the paper:
    parts V1, V2, ..., Vr of r-2, 2, r-2, ..., r-2 elements in order; one
    member per part Vi other than V2, all of E - V2 but Vi and the part
    before it in the cycle V1, V3, ..., Vr; then E and V2."""
    sizes = [r - 2, 2] + [r - 2] * (r - 2)
    ends = list(itertools.accumulate(sizes))
    part = {i + 1: (1 << b) - (1 << (b - n)) for i, (n, b) in enumerate(zip(sizes, ends))}
    m = ends[-1]
    E = (1 << m) - 1
    cycle = [1] + list(range(3, r + 1))
    fam = [E & ~part[2] & ~part[i] & ~part[cycle[c - 1]] for c, i in enumerate(cycle)]
    return m, tuple(fam) + (E, part[2])


class TestKinserFamily:
    def test_kin4_base_matches_matching_oracle(self):
        m, fam = kinser_presentation(4)
        M = K.kinser_base(4)
        assert M.table.tolist() == [brute_matching_rank(x, fam) for x in range(1 << m)]

    @pytest.mark.parametrize("r", [5, 6])
    def test_base_matches_matching_oracle_on_sampled_masks(self, r):
        m, fam = kinser_presentation(r)
        M = K.kinser_base(r)
        rng = np.random.default_rng(r)
        # random masks of up to 12 elements, and unions of two parts, where
        # Hall's condition binds
        masks = [K.mask_of(rng.choice(m, size=int(rng.integers(0, 13)), replace=False).tolist())
                 for _ in range(300)]
        masks += [M.parts(*names) for names in itertools.combinations(M.layout, 2)]
        for x in masks:
            assert M.rank(x) == brute_matching_rank(x, fam), hex(x)

    def test_kin6_base_peak_is_the_table_and_the_last_take(self):
        # The parts of Kin(6) are its runs, so its count tensor has
        # 5*3*5*5*5*5 entries.  The last take widens the 5 count digits of V6
        # under all 2^18 masks of V1..V5 (5 2^18 bytes) to the 2^22-byte
        # table, and both are alive while it runs; every earlier take holds
        # less, and 64 KiB covers the tensors, the index vectors and the
        # Python objects.  The popcounts of the 2^22 masks, cached per m,
        # are built before the trace starts.
        popcount_array(22)
        tracemalloc.start()
        try:
            K.kinser_base(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 22 + 5 * 2 ** 18 + 2 ** 16

    def test_base_sizes(self):
        m4 = K.kinser_base(4)
        assert (m4.m, m4.rank_total) == (8, 5)
        assert K.kinser_base(5).m == 14
        assert K.kinser_base(6).m == 22

    def test_series_pair(self):
        # f is a coloop of M_5 \ e: deleting both e and f drops the rank
        M = K.kinser_base(4)
        no_e, idx = K.delete(M, K.elements_of(M.part("e"))[0])
        f_new = idx[K.elements_of(M.part("f"))[0]]
        assert no_e.classify(1 << f_new).coloop

    def test_kinser_rank_and_parts(self, kin4, kin5):
        assert kin5.rank(kin5.full_mask) == 5
        assert kin4.rank(kin4.part("V3")) == 2

    @pytest.mark.parametrize("r", [4, 5])
    def test_part_pairs_with_v2_are_circuit_hyperplanes(self, r, kin4, kin5):
        M = {4: kin4, 5: kin5}[r]
        for i in [1] + list(range(3, r + 1)):
            assert M.classify(M.parts("V2", f"V{i}")).circuit_hyperplane, i

    def test_relaxed_rank_jump(self, vamos, kin4):
        H = kin4.parts("V1", "V2")
        assert vamos.rank(H) == 4
        diff = np.nonzero(vamos.table != kin4.table)[0]
        assert diff.tolist() == [H]

    def test_kin5_relaxation_touches_one_set(self, kin5, kin5_relaxed):
        diff = np.nonzero(kin5.table != kin5_relaxed.table)[0]
        assert diff.tolist() == [kin5.parts("V1", "V2")]

    def test_double_relaxation(self, kin5):
        M = K.kinser_relaxed(5, also_relax=3)
        assert M.rank(M.parts("V2", "V3")) == 5
        assert M.rank(M.parts("V1", "V2")) == 5

    @pytest.mark.parametrize("r, also", [(6, 9), (6, 2), (4, 5), (5, -1)])
    def test_also_relax_refused_before_building(self, r, also):
        with mock.patch.object(catalog, "kinser", side_effect=AssertionError("built")):
            with pytest.raises(K.MatroidError) as exc:
                K.kinser_relaxed(r, also)
        assert str(exc.value) == f"also_relax must be in [3, {r}], got {also}"

    @pytest.mark.parametrize("build", [K.kinser, lambda r: K.kinser_relaxed(r, 3)],
                             ids=["kinser", "kinser_relaxed"])
    def test_oversized_rank_refused_before_building(self, build):
        # r = 1000 gives r^2 - 3r + 4 = 997,004 elements; no part mask is built
        tracemalloc.start()
        try:
            with pytest.raises(K.SizeCapError) as exc:
                build(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "kinser ground size r^2-3r+4 = 997004 exceeds cap 24"
        assert peak < 1 << 20

    @pytest.mark.parametrize("r", [4, 5])
    def test_relaxed_structure_facts(self, r, vamos, kin5_relaxed):
        M = {4: vamos, 5: kin5_relaxed}[r]
        parts = [f"V{i}" for i in range(1, r + 1)]
        # V1 u V3 and consecutive V_i u V_{i+1} (i >= 4) are hyperplanes
        assert M.classify(M.parts("V1", "V3")).hyperplane
        for i in range(4, r):
            assert M.classify(M.parts(f"V{i}", f"V{i + 1}")).hyperplane
        # inconsecutive pairs among V3..Vr span
        for i in range(3, r + 1):
            for k in range(i + 2, r + 1):
                assert M.classify(M.parts(f"V{i}", f"V{k}")).spanning
        # every part independent; any three parts span
        for name in parts:
            assert M.classify(M.part(name)).independent
        for a, b, c in itertools.combinations(parts, 3):
            assert M.classify(M.parts(a, b, c)).spanning


class TestBinarySpike:
    def test_shape(self, z4):
        assert (z4.m, z4.rank_total) == (8, 4)

    @pytest.mark.parametrize("r", [4, 5, 6])
    def test_even_transversal_count(self, r):
        assert len(K.spike_transversals(r, "even")) == 1 << (r - 1)

    def test_transversal_circuit_hyperplanes(self, z4, z6):
        for M, r in ((z4, 4), (z6, 6)):
            count = sum(1 for z in K.spike_transversals(r, "even")
                        if M.classify(z).circuit_hyperplane)
            assert count == 1 << (r - 1)

    def test_two_leg_circuit(self, z4):
        legs = z4.parts("a1", "b1", "a2", "b2")
        assert z4.classify(legs).circuit

    def test_odd_transversals_are_bases(self, z4):
        for z in K.spike_transversals(4, "odd"):
            assert z4.classify(z).basis

    def test_bad_rank_rejected(self):
        with pytest.raises(K.MatroidError):
            K.binary_spike(3)


class TestDowling:
    def test_z2_shape(self, dowling_z2):
        assert (dowling_z2.m, dowling_z2.rank_total) == (9, 3)

    def test_z3_shape(self, dowling_z3):
        assert (dowling_z3.m, dowling_z3.rank_total) == (15, 3)

    def test_trivial_group_is_graphic_triangle(self):
        M = K.dowling(1, 3)
        assert (M.m, M.rank_total) == (3, 2)
        assert M.classify(0b111).circuit

    @pytest.mark.parametrize("order, n", [
        pytest.param(2, 3, id="2"), pytest.param(3, 3, id="3"),
        # more vertices than three rounds of label propagation reach
        pytest.param(1, 5, id="1-5"), pytest.param(2, 4, id="2-4"),
    ])
    def test_matches_bias_rank_oracle(self, order, n, dowling_z2, dowling_z3):
        M = {(2, 3): dowling_z2, (3, 3): dowling_z3}.get((order, n))
        if M is None:
            M = K.dowling(order, n)
        edges = [None] * M.m
        for name, mask in M.layout.items():
            kind, *ends = name.split("_")
            if kind == "loop":
                v, label = map(int, ends)
                edges[mask.bit_length() - 1] = (v, v, label, True)
            else:
                u, v, label = map(int, ends)
                edges[mask.bit_length() - 1] = (u, v, label, False)
        for x in range(1 << M.m):
            assert M.rank(x) == bias_rank_oracle(edges, order, x)

    def test_loops_are_dependent_in_pairs_via_path(self, dowling_z2):
        M = dowling_z2
        loop0 = M.part("loop_0_1")
        loop1 = M.part("loop_1_1")
        connecting = M.part("edge_0_1_0")
        assert M.classify(loop0).independent
        assert M.classify(loop0 | loop1 | connecting).circuit

    def test_two_loops_same_vertex_dependent(self, dowling_z3):
        M = dowling_z3
        pair = M.parts("loop_0_1", "loop_0_2")
        assert M.rank(pair) == 1 and M.classify(pair).circuit

    def test_layout_names_follow_element_order(self, dowling_z2):
        # pairs u < v in lex order with labels 0..g-1, then loops 1..g-1 per vertex
        assert list(dowling_z2.layout.items()) == [
            ("edge_0_1_0", 1 << 0), ("edge_0_1_1", 1 << 1), ("edge_0_2_0", 1 << 2),
            ("edge_0_2_1", 1 << 3), ("edge_1_2_0", 1 << 4), ("edge_1_2_1", 1 << 5),
            ("loop_0_1", 1 << 6), ("loop_1_1", 1 << 7), ("loop_2_1", 1 << 8)]
        assert dowling_z2.label == "Dowling(2,3)"

    def test_size_cap(self):
        with pytest.raises(K.SizeCapError, match="group order 3"):
            K.dowling(3, 4)

    @pytest.mark.parametrize("order, n", [(0, 3), (-1, 2), (2, 0), (1, 1)])
    def test_empty_or_degenerate_refused(self, order, n):
        with pytest.raises(K.MatroidError):
            K.dowling(order, n)
