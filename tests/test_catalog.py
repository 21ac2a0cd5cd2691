"""Catalog constructions against the paper's structural facts and
independent oracles (matchings grown member by member, GF(p) elimination, bias rank)."""

import itertools

import numpy as np
import pytest

import kinser as K
from kinser.catalog import PRIME_TEST_LIMIT, _is_prime

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


class TestKinserFamily:
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
