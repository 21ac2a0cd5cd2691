"""Core rank-table machinery: queries, derived predicates, axiom scans."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinser as K
from kinser.cli import main
from kinser.core import (count_reduce, halves, popcount_array, validate_circuit_axioms,
                         validate_rank_table)

from oracles import (definition_closure, definition_flats, definition_is_circuit,
                     gf2_span_closure, literal_independence_violation,
                     literal_rank_violation)


class TestRank:
    def test_uniform_triple(self, u24):
        assert u24.rank(0b0111) == 2

    def test_fano_full_rank(self, fano):
        assert fano.rank(fano.full_mask) == 3

    def test_empty_set(self, fano, u24, z4):
        for M in (fano, u24, z4):
            assert M.rank(0) == 0

    def test_bounds(self, fano):
        for x in range(1 << 7):
            assert 0 <= fano.rank(x) <= min(fano.size(x), 3)

    def test_invalid_mask_rejected(self, u24):
        with pytest.raises(K.InvalidSubsetError):
            u24.rank(1 << 4)
        with pytest.raises(K.InvalidSubsetError):
            u24.closure(1 << 10)


class TestClosure:
    def test_fano_two_points_span_a_line(self, fano):
        # GF(2) span of columns 0 and 1 picks up column 3
        assert fano.closure(0b11) == 0b1011
        for x in range(1 << 7):
            assert fano.closure(x) == gf2_span_closure(x)

    def test_flat_is_fixed_point(self, z4):
        for f in z4.enumerate("flats"):
            assert z4.closure(f) == f

    def test_spanning_closes_to_ground(self, fano, u24):
        for M in (fano, u24):
            for x in range(1 << M.m):
                if M.rank(x) == M.rank_total:
                    assert M.closure(x) == M.full_mask

    def test_matches_definition_on_every_mask(self, fano, vamos, u24, dowling_z2):
        for M in (fano, vamos, u24, dowling_z2):
            assert [M.closure(x) for x in range(1 << M.m)] == [
                definition_closure(M, x) for x in range(1 << M.m)]

    def test_rank_preserved_and_idempotent(self, fano, u24, z4):
        for M in (fano, u24, z4):
            for x in range(1 << M.m):
                c = M.closure(x)
                assert M.rank(c) == M.rank(x)
                assert M.closure(c) == c


class TestClassify:
    def test_kinser_part_pair_is_circuit_hyperplane(self, kin4):
        assert kin4.classify(kin4.parts("V2", "V3")).circuit_hyperplane

    def test_uniform_triple_circuit_not_hyperplane(self, u24):
        cls = u24.classify(0b0111)
        assert cls.circuit and not cls.hyperplane

    def test_spike_tip_set_is_circuit_hyperplane(self, z4):
        assert z4.classify(z4.part("A")).circuit_hyperplane

    @pytest.mark.parametrize("maker", [
        lambda: K.uniform(2, 4),
        lambda: K.fano_pair()[0],
        lambda: K.kinser_relaxed(4),
        lambda: K.binary_spike(4),
        lambda: K.dowling(2, 3),
    ])
    def test_matches_definitions_from_scratch(self, maker):
        M = maker()
        assert M.m <= 10
        for x in range(1 << M.m):
            cls = M.classify(x)
            n, rx = M.size(x), M.rank(x)
            assert cls.independent == (rx == n)
            assert cls.spanning == (rx == M.rank_total)
            assert cls.basis == (cls.independent and cls.spanning)
            assert cls.flat == (definition_closure(M, x) == x)
            assert cls.hyperplane == (cls.flat and rx == M.rank_total - 1)
            assert cls.circuit == definition_is_circuit(M, x)
            assert cls.circuit_hyperplane == (cls.circuit and cls.hyperplane)


class TestEnumerate:
    def test_fano_flats(self, fano):
        flats = fano.enumerate("flats")
        assert len(flats) == 16
        assert flats == definition_flats(fano)

    def test_flats_equal_closure_fixed_points(self, u24, vamos, dowling_z2):
        for M in (u24, vamos, dowling_z2):
            assert M.enumerate("flats") == definition_flats(M)

    def test_single_element_flats(self):
        M = K.uniform(1, 1)
        assert M.enumerate("flats") == [0, 1]

    def test_spike_circuit_hyperplanes(self, z4):
        # All 8 even transversals are circuit-hyperplanes; so are the six
        # two-leg sets (their rank r-2+1 = 3 equals r-1 exactly when r=4),
        # for 14 in total.
        chs = z4.enumerate("circuit_hyperplanes")
        assert len(chs) == 14
        transversal_chs = [z for z in K.spike_transversals(4, "even")
                           if z4.classify(z).circuit_hyperplane]
        assert len(transversal_chs) == 8
        assert set(transversal_chs) <= set(chs)

    def test_enumeration_sorted_and_unique(self, fano, z4):
        for M in (fano, z4):
            for kind in ("flats", "circuits", "bases", "hyperplanes"):
                out = M.enumerate(kind)
                assert out == sorted(set(out))

    def test_bases_are_max_rank_independents(self, u24):
        assert len(u24.enumerate("bases")) == 6  # C(4,2)

    def test_one_element_ground(self):
        # the halves of a 2-entry vector are 1x1 views, and the passes write through
        loop, coloop = K.Matroid(1, [0, 0]), K.Matroid(1, [0, 1])
        assert loop.enumerate("flats") == definition_flats(loop) == [1]
        assert coloop.enumerate("flats") == definition_flats(coloop) == [0, 1]
        assert loop.enumerate("circuits") == [1] and coloop.enumerate("circuits") == []
        assert K.matroid_from_circuits(1, 0, [1]).table_equal(loop)
        assert K.parse_matroid("matroid v1\nelements 1\nrank 0\ncircuits\n0\n").table_equal(loop)


class TestHalves:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_halves_match_literal_mask_lists(self, m):
        vec = np.arange(1 << m)
        flat = np.empty(1 << (m - 1), dtype=vec.dtype)
        for e in range(m):
            lo, hi = halves(vec, e)
            # below e = 4 the views come transposed: C order then runs
            # along the long axis, across the rows of 2^e masks
            rows, run = 1 << (m - 1 - e), 1 << e
            assert lo.shape == hi.shape == ((run, rows) if e < 4 else (rows, run))
            # the parts=1 view of a vector over the masks without e writes
            # through to it in mask order
            (out,) = halves(flat, e, parts=1)
            for half, bit in ((lo, 0), (hi, 1)):
                np.copyto(out, half)
                assert flat.tolist() == [x for x in range(1 << m) if x >> e & 1 == bit]

    @pytest.mark.parametrize("m", [1, 2, 5, 6])
    def test_writes_reach_the_vector(self, m):
        for e in range(m):
            vec = np.arange(1 << m)
            lo, hi = halves(vec, e)
            np.add(lo, 1000, out=lo, order="C")
            np.negative(hi, out=hi, order="C")
            assert vec.tolist() == [-x if x >> e & 1 else x + 1000 for x in range(1 << m)]


    @pytest.mark.parametrize("radices", [(3,), (2, 5), (5, 3, 2), (17, 2), (2,) * 5 + (3,)])
    def test_count_reduce_is_the_literal_fold_over_sub_counts(self, radices):
        # place value 1 first; strides 17 and 32 reach the untransposed views
        rng = np.random.default_rng(len(radices))
        vec = rng.integers(-50, 50, size=int(np.prod(radices)))
        counts = [c[::-1] for c in itertools.product(*(range(n) for n in reversed(radices)))]
        literal = [min(int(vec[i]) for i, t in enumerate(counts)
                       if all(a <= b for a, b in zip(t, c))) for c in counts]
        assert count_reduce(vec, radices, np.minimum).tolist() == literal


class TestValidateAxioms:
    def test_uniform_rank_ok(self, u24):
        assert validate_rank_table(u24.m, u24.table).ok

    def test_r1_violation_detected(self):
        table = K.uniform(2, 4).table.copy()
        table[0b1] = 2
        res = validate_rank_table(4, table)
        assert not res.ok and res.axiom == "R1"

    def test_r2_violation_detected(self):
        table = K.uniform(2, 4).table.copy()
        table[0b0111] = 1  # drops below the rank of its subset {0,1}
        res = validate_rank_table(4, table)
        assert not res.ok and res.axiom == "R2"

    def test_r3_violation_detected(self):
        # 1 parallel to 0 and 2 parallel to 0, yet {1,2} independent:
        # submodularity fails on ({0,1}, {0,2})
        table = K.uniform(2, 4).table.copy()
        table[0b011] = 1
        table[0b101] = 1
        res = validate_rank_table(4, table)
        assert not res.ok and res.axiom == "R3"

    def test_c3_violation_witness(self):
        # U(2,4) without the circuit {1,2,3}: eliminating 0 from {0,1,2} and
        # {0,1,3} leaves {1,2,3}, which holds no listed circuit
        res = validate_circuit_axioms(4, [0b0111, 0b1011, 0b1101])
        assert (res.ok, res.axiom, res.witness) == (False, "C3", (0b0111, 0b1011, 0))

    def test_i3_violation_witness(self):
        # independent sets: the subsets of {0,1} and {2}; {2} cannot be
        # augmented from {0,1}, while I1 and I2 hold; the rank table of this
        # system is refused, since I1-I3 hold exactly when R1-R3 do
        indep = [0b000, 0b001, 0b010, 0b011, 0b100]
        table = np.array([max(bin(i & x).count("1") for i in indep)
                          for x in range(1 << 3)], dtype=np.uint8)
        assert literal_independence_violation(3, table) == ("I3", (0b100, 0b011))
        assert not validate_rank_table(3, table).ok

    def test_spike_circuits_pass_c1_c3(self, z4):
        nonspanning = [c for c in z4.enumerate("circuits") if z4.rank(c) < 4]
        assert validate_circuit_axioms(8, nonspanning).ok

    def test_nested_circuits_fail_c2(self):
        res = validate_circuit_axioms(3, [0b001, 0b011])
        assert not res.ok and res.axiom == "C2"

    @pytest.mark.parametrize("circuits", [
        [0b0110, 0b0011, 0b0111, 0b0001],
        [0b1100, 0b0011, 0b1010, 0b0101, 0b1000],
        [0b0011, 0b0101, 0b1110, 0b0111],
    ])
    def test_both_circuit_checks_report_the_first_nested_pair(self, circuits):
        # the literal first pair in list order, c listed before d
        c, d = next((c, d) for i, c in enumerate(circuits) for d in circuits[i + 1:]
                    if c & d in (c, d))
        res = validate_circuit_axioms(4, circuits)
        assert (res.axiom, res.witness, res.message) == (
            "C2", (c, d), f"circuits {c:#x} and {d:#x} are nested")
        with pytest.raises(K.NotAMatroidError) as err:
            K.matroid_from_circuits(4, 3, circuits)
        assert (err.value.axiom, err.value.witness, str(err.value)) == (
            "C2", (c, d), f"circuit list is not an antichain: {c:#x} vs {d:#x}")

    def test_broken_kin6_table_refused(self, kin6_relaxed, tmp_path, capsys):
        table = broken_kin6_table(kin6_relaxed)
        with pytest.raises(K.NotAMatroidError) as err:
            K.Matroid(22, table)
        assert err.value.axiom == "R3"
        text = K.write_matroid(K.Matroid(22, table, label="broken", validate=False))
        with pytest.raises(K.FormatError, match="R3"):
            K.parse_matroid(text)
        path = tmp_path / "broken.mtr"
        path.write_text(text)
        assert main(["enumerate", "--kind", "flats", "-i", str(path)]) == 2
        assert "violates R3" in capsys.readouterr().err
        # relaxing a circuit-hyperplane of a non-matroid leaves the R3 violation
        broken = K.Matroid(22, table, validate=False)
        H = kin6_relaxed.parts("V2", "V3")
        assert broken.classify(H).circuit_hyperplane
        with pytest.raises(K.NotAMatroidError):
            K.relax(broken, H)


def broken_kin6_table(kin6: K.Matroid) -> np.ndarray:
    """Kin(6)^- with r(Y) lowered by one for an independent 3-set Y.

    For e in Y and f with Y + f independent, submodularity
    r(Y) + r(Y - e + f) >= r(Y + f) + r(Y - e) becomes 2 + 3 >= 4 + 2, so
    only R3 fails, at a handful of the 2^20 * 231 local instances that a
    sampled check draws from.
    """
    Y = kin6.parts("V1", "V3", "V4") & 0b10001000001  # elements 0, 6, 10
    f = 14                                            # first element of V5
    assert kin6.rank(Y) == 3 and kin6.rank(Y | 1 << f) == 4
    table = kin6.table.copy()
    table[Y] -= 1
    return table


class TestConstructorInput:
    @pytest.mark.parametrize("value", [257, -255])
    def test_out_of_range_entry_refused(self, value):
        table = K.uniform(2, 4).table.astype(np.int16)
        table[0b0011] = value  # stored as 1 by a bare uint8 cast
        with pytest.raises(K.MatroidError, match=f"rank value {value} outside"):
            K.Matroid(4, table, validate=False)

    def test_float_table_refused(self):
        table = K.uniform(2, 4).table.astype(np.float64)
        table[0b0011] = 2.7  # stored as 2 by a bare uint8 cast
        with pytest.raises(K.MatroidError, match="integer dtype"):
            K.Matroid(4, table, validate=False)

    def test_integer_input_accepted(self, u24):
        for table in (u24.table.astype(np.int64), u24.table.tolist()):
            assert K.Matroid(4, table).table_equal(u24)

    @pytest.mark.parametrize("part", [1 << 30, 1 << 4, -1])
    def test_layout_part_outside_ground_refused(self, u24, part):
        with pytest.raises(K.InvalidSubsetError):
            K.Matroid(4, u24.table, layout={"A": part})
        assert K.Matroid(4, u24.table, layout={"A": 0b1111}).part("A") == 0b1111


class TestFromCircuits:
    def test_all_triples_give_u24(self, u24):
        M = K.matroid_from_circuits(4, 2, [0b0111, 0b1011, 0b1101, 0b1110])
        assert M.table_equal(u24)

    def test_spike_shape(self, z4):
        assert (z4.m, z4.rank_total) == (8, 4)

    def test_antichain_violation_rejected(self):
        with pytest.raises(K.NotAMatroidError):
            K.matroid_from_circuits(3, 2, [0b001, 0b011])

    def test_oversized_circuit_rejected(self):
        with pytest.raises(K.NotAMatroidError):
            K.matroid_from_circuits(5, 2, [0b1111])

    @pytest.mark.parametrize("m, r, circuits", [
        (2, 0, [0]),              # alone it would give U(0, 2)
        (3, 1, [0b011, 0, 0b100]),  # with others it would be a C2 nesting
    ])
    def test_empty_circuit_rejected(self, m, r, circuits):
        with pytest.raises(K.NotAMatroidError) as err:
            K.matroid_from_circuits(m, r, circuits)
        assert str(err.value) == "empty set listed as a circuit"
        assert (err.value.axiom, err.value.witness) == ("C1", (0,))
        assert validate_circuit_axioms(m, circuits).witness == (0,)

    def test_wrong_rank_rejected(self):
        # every pair dependent forces rank 1, not 2
        with pytest.raises(K.NotAMatroidError):
            K.matroid_from_circuits(3, 2, [0b011, 0b101, 0b110])

    def test_elimination_failure_rejected_with_witness(self):
        # eliminating 0 from {0,1,2} and {0,1,3} leaves the independent
        # {1,2,3}; the table this list gives breaks submodularity
        circuits = [0b0111, 0b1011]
        indep = [x for x in range(16)
                 if bin(x).count("1") <= 3 and all(x & c != c for c in circuits)]
        table = [max(bin(i).count("1") for i in indep if i & ~x == 0) for x in range(16)]
        axiom, witness = literal_rank_violation(4, table)
        with pytest.raises(K.NotAMatroidError) as err:
            K.matroid_from_circuits(4, 3, circuits)
        assert axiom == "R3" and (err.value.axiom, err.value.witness) == (axiom, witness)

    @pytest.mark.parametrize("r", [4, 6])
    def test_nonspanning_circuits_round_trip(self, r):
        M = K.binary_spike(r)
        expected = sorted(K.spike_transversals(r, "even")
                          + [(1 << i) | (1 << (r + i)) | (1 << k) | (1 << (r + k))
                             for i in range(r) for k in range(i + 1, r)])
        got = [c for c in M.enumerate("circuits") if M.rank(c) < M.rank_total]
        assert got == expected


class TestCatalogAxiomSweep:
    def test_rank_and_closure_axioms_hold(self, fano, nonfano, u24, kin4, vamos,
                                           z4, dowling_z2, dowling_z3, fano_sum):
        for M in (fano, nonfano, u24, kin4, vamos, z4, dowling_z2, dowling_z3,
                  fano_sum, K.uniform(0, 3), K.uniform(3, 3), K.uniform(3, 6)):
            # the closure axioms follow from R1-R3; the circuit axioms are
            # checked on the enumerated circuits, as a second cryptomorphism
            assert validate_rank_table(M.m, M.table).ok, M.label
            assert validate_circuit_axioms(M.m, M.enumerate("circuits")).ok, M.label

    def test_closure_rank_invariants_m14(self, fano_sum):
        # exhaustive closure idempotence / rank preservation at m = 14
        M = fano_sum
        for x in range(0, 1 << M.m, 7):  # stride keeps this under a second
            c = M.closure(x)
            assert M.rank(c) == M.rank(x) and M.closure(c) == c
        for x in range(1 << 10):
            c = M.closure(x)
            assert M.rank(c) == M.rank(x) and M.closure(c) == c


@st.composite
def gf2_matrices(draw):
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 7))
    entries = draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                            max_size=rows * cols))
    return K.MatrixGFp(2, rows, cols, tuple(entries))


@settings(max_examples=40, deadline=None)
@given(gf2_matrices())
def test_linear_matroids_satisfy_axioms(mat):
    M = K.from_matrix(mat)
    assert validate_rank_table(M.m, M.table).ok
    assert M.enumerate("flats") == definition_flats(M)


@settings(max_examples=25, deadline=None)
@given(gf2_matrices())
def test_from_circuits_reconstructs_linear_matroid(mat):
    M = K.from_matrix(mat)
    nonspanning = [c for c in M.enumerate("circuits") if M.rank(c) < M.rank_total]
    rebuilt = K.matroid_from_circuits(M.m, M.rank_total, nonspanning)
    assert rebuilt.table_equal(M)


@settings(max_examples=60, deadline=None)
@given(gf2_matrices(), st.lists(st.tuples(st.integers(0, 127), st.integers(-1, 1)),
                                max_size=3))
def test_rank_validation_matches_literal_loops(mat, edits):
    M = K.from_matrix(mat)
    table = M.table.astype(np.int16)
    for x, step in edits:
        x %= 1 << M.m
        table[x] = min(max(table[x] + step, 0), M.m)
    res = validate_rank_table(M.m, table.astype(np.uint8))
    expected = literal_rank_violation(M.m, table)
    assert (None if res.ok else (res.axiom, res.witness)) == expected


@st.composite
def perturbed_word_tables(draw):
    """A GF(2) or GF(3) matroid on 8..10 elements with up to three ranks
    moved by up to 2, so inc_e >= 2 occurs and R3 can first fail at f >= 7,
    whose partner bits lie in another 64-bit word of the packed planes.

    A move may be clamped to keep r(X) <= |X| and monotonicity at X, so
    that only R3 can fail there; edits at masks with no bit below 7 make
    the first R3 failure more often one between words (at f >= 7).
    """
    p = draw(st.sampled_from([2, 3]))
    rows, m = draw(st.integers(2, 4)), draw(st.integers(8, 10))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * m,
                            max_size=rows * m))
    M = K.from_matrix(K.MatrixGFp(p, rows, m, tuple(entries)))
    masks = st.one_of(st.integers(0, (1 << m) - 1),
                      st.integers(0, (1 << (m - 7)) - 1).map(lambda h: h << 7))
    table = M.table.astype(np.int16)
    for x in draw(st.lists(masks, min_size=1, max_size=3)):
        lo, hi = 0, m
        if draw(st.integers(0, 3)):
            lo = max((table[x ^ 1 << e] for e in range(m) if x >> e & 1), default=0)
            hi = min([bin(x).count("1")] + [table[x | 1 << e] for e in range(m)
                                            if not x >> e & 1])
        table[x] = min(max(table[x] + draw(st.integers(-2, 2)), lo), hi)
    return m, table


@settings(max_examples=60, deadline=None)
@given(perturbed_word_tables())
def test_rank_validation_matches_literal_loops_across_words(case):
    m, table = case
    res = validate_rank_table(m, table.astype(np.uint8))
    expected = literal_rank_violation(m, table)
    assert (None if res.ok else (res.axiom, res.witness)) == expected


@pytest.mark.parametrize("k, m, x, value, witness", [
    (3, 10, 0b1010000000, 1, (0b1000000001, 0b1010000000)),  # f = 7, next word
    (2, 10, 0b1000000000, 0, (0b0000000001, 0b1000000000)),  # f = 9, 4 words up
    (3, 8, 0b10000000, 0, (0b00000001, 0b10000000)),         # f = 7, m = 8
])
def test_r3_between_words_with_double_increment(k, m, x, value, witness):
    # lowering r(x) leaves R1 and R2 intact, makes r(x + 0) - r(x) = 2 and
    # first breaks R3 at (e, f) = (0, lowest element of x)
    table = K.uniform(k, m).table.copy()
    table[x] = value
    assert int(table[x | 1]) - int(table[x]) == 2
    res = validate_rank_table(m, table)
    assert literal_rank_violation(m, table) == ("R3", witness)
    assert (res.ok, res.axiom, res.witness) == (False, "R3", witness)


def test_r3_first_found_on_the_lower_plane_between_words():
    # inc_0({9}) = 2 adds a second bit plane at e = 0, but the first R3
    # failure, at (e, f) = (0, 7), is an increase from 0 to 1
    table = K.uniform(8, 10).table.copy()
    table[0b0001111111] = 6
    table[0b1000000000] = 0
    witness = (0b0001111111, 0b0011111110)
    assert literal_rank_violation(10, table) == ("R3", witness)
    res = validate_rank_table(10, table)
    assert (res.ok, res.axiom, res.witness) == (False, "R3", witness)


@pytest.mark.parametrize("m", [3, 4, 8, 10])
def test_r3_below_a_double_increment_at_the_last_element(m):
    # U(m-1, m-1) (+) a coloop with r(E - {m-1}) lowered by one: R1 and R2
    # hold, inc_{m-1}(E - {m-1}) = 2 is the only double increment, and R3
    # first fails at (e, f) = (0, m - 1), on the bit plane of element 0
    M, _, _ = K.direct_sum(K.uniform(m - 1, m - 1), K.uniform(1, 1))
    top = M.full_mask
    table = M.table.copy()
    table[top ^ 1 << (m - 1)] -= 1
    rises = [int(np.diff(table.astype(np.int16).reshape(-1, 2, 1 << e), axis=1).max())
             for e in range(m)]
    assert rises == [1] * (m - 1) + [2]
    witness = (top ^ 1 << (m - 1), top ^ 1)
    assert literal_rank_violation(m, table) == ("R3", witness)
    res = validate_rank_table(m, table)
    assert (res.ok, res.axiom, res.witness) == (False, "R3", witness)


def test_jumps_of_five_match_literal_loops():
    # r = 0 below size 5 and r = |X| from size 5 up: R1 and R2 hold, and
    # inc_0 reaches 5, so element 0 carries five bit planes
    pc = popcount_array(10)
    table = np.where(pc >= 5, pc, 0).astype(np.uint8)
    res = validate_rank_table(10, table)
    expected = literal_rank_violation(10, table)
    assert expected is not None and expected[0] == "R3"
    assert (res.axiom, res.witness) == expected


def test_r2_at_the_last_element_outranks_r3_at_the_first():
    m = 10
    table = K.uniform(3, m).table.copy()
    table[0b1010000000] = 1  # first fails R3 at (e, f) = (0, 7)
    res = validate_rank_table(m, table)
    assert (res.axiom, res.witness) == literal_rank_violation(m, table)
    assert res.axiom == "R3" and res.witness[0] & 1
    top = (1 << m) - 1
    table[top ^ 1 << (m - 1)] = 4  # r(E - e) > r(E) = 3 fails R2 at e = m - 1 only
    res = validate_rank_table(m, table)
    assert literal_rank_violation(m, table) == ("R2", (top ^ 1 << (m - 1), top))
    assert (res.ok, res.axiom, res.witness) == (False, "R2", (top ^ 1 << (m - 1), top))


def test_validation_memory_is_planes_buffer_and_inc():
    # the plane array, the pass 2 buffer (each at most m 2^(m-4) bytes)
    # and the inc vector of 2^(m-1) bytes
    M = K.uniform(10, 20)
    m = M.m
    tracemalloc.start()
    try:
        assert validate_rank_table(m, M.table).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * 2 ** (m - 4) + 2 ** (m - 1)


@pytest.mark.parametrize("m", [14, 16, 18])
def test_validation_memory_in_one_block_adds_iterator_buffers(m):
    # one block holds all m rows, so the plane array and the pass 2 buffer
    # take m 2^(m-4) bytes each and inc 2^(m-1); the buffered ufunc calls of
    # pass 2 add up to three buffers of min(bufsize, m 2^(m-8)) 8-byte words
    M = K.uniform(m // 2, m)
    tracemalloc.start()
    try:
        assert validate_rank_table(m, M.table).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = 3 * 8 * min(np.getbufsize(), m * 2 ** (m - 8))
    assert peak < 2 * m * 2 ** (m - 4) + 2 ** (m - 1) + buffers


@st.composite
def independence_tables(draw):
    """Rank tables of down-closed families (maximum independent subset
    size), with one membership sometimes flipped so I2 can fail too."""
    m = draw(st.integers(1, 6))
    gens = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4))
    indep = [x for x in range(1 << m) if any(x & ~g == 0 for g in gens)]
    flip = draw(st.one_of(st.none(), st.integers(0, (1 << m) - 1)))
    if flip is not None:
        indep = sorted(set(indep) ^ {flip})
    table = [max((bin(i).count("1") for i in indep if i & ~x == 0), default=0)
             if x not in indep else bin(x).count("1") for x in range(1 << m)]
    return m, np.array(table, dtype=np.uint8)


@settings(max_examples=80, deadline=None)
@given(independence_tables())
def test_independence_validation_matches_literal_loops(case):
    # I1-I3 hold on the independent sets of a table exactly when R1-R3 hold
    m, table = case
    assert validate_rank_table(m, table).ok == (literal_independence_violation(m, table) is None)
