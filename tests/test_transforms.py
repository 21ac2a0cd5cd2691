"""Deletion, contraction, minors, duality, sums, relaxation, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinser as K
from kinser.core import validate_rank_table

from oracles import literal_minor


# catalog matroids with m <= 10, built on demand
SMALL_CATALOG = [
    lambda: K.fano_pair()[0], lambda: K.fano_pair()[1], lambda: K.kinser(4),
    lambda: K.kinser_relaxed(4), lambda: K.binary_spike(4), lambda: K.uniform(3, 6),
    lambda: K.dowling(2, 3), lambda: K.direct_sum(K.uniform(1, 2), K.fano_pair()[0])[0],
    lambda: K.uniform(1, 1), lambda: K.uniform(0, 2),
]


class TestDelete:
    def test_uniform(self, u24):
        out, idx = K.delete(u24, 0)
        assert out.table_equal(K.uniform(2, 3))
        assert idx == {1: 0, 2: 1, 3: 2}

    def test_fano_has_no_coloops(self, fano):
        for e in range(7):
            out, _ = K.delete(fano, e)
            assert out.rank_total == 3

    def test_relaxation_survives_deletion_outside_h(self, kin4, vamos):
        # for e outside the relaxed set, deleting commutes with relaxing
        H = kin4.parts("V1", "V2")
        for e in K.elements_of(kin4.full_mask & ~H):
            left, idx = K.delete(vamos, e)
            base, _ = K.delete(kin4, e)
            h_new = sum(1 << idx[i] for i in K.elements_of(H))
            assert left.table_equal(K.relax(base, h_new))

    def test_out_of_range(self, u24):
        with pytest.raises(K.MatroidError):
            K.delete(u24, 4)


class TestContract:
    def test_uniform(self, u24):
        out, _ = K.contract(u24, 0)
        assert out.table_equal(K.uniform(1, 3))

    def test_loop_contract_equals_delete(self):
        M, _, _ = K.direct_sum(K.uniform(0, 1), K.uniform(1, 1))
        by_contract, _ = K.contract(M, 0)
        by_delete, _ = K.delete(M, 0)
        assert by_contract.table_equal(by_delete)

    def test_relaxation_inside_h(self, kin4, vamos):
        # f in H: deletion agrees outright; contraction relaxes H - f
        H = kin4.parts("V1", "V2")
        for f in K.elements_of(H):
            d_relaxed, _ = K.delete(vamos, f)
            d_base, _ = K.delete(kin4, f)
            assert d_relaxed.table_equal(d_base)
            c_relaxed, idx = K.contract(vamos, f)
            c_base, _ = K.contract(kin4, f)
            h_new = sum(1 << idx[i] for i in K.elements_of(H ^ (1 << f)))
            assert c_relaxed.table_equal(K.relax(c_base, h_new))


class TestMinor:
    def test_identity(self, fano):
        out, idx = K.minor(fano, 0, 0)
        assert out.table_equal(fano) and idx == {i: i for i in range(7)}

    def test_uniform_chain(self):
        out, _ = K.minor(K.uniform(3, 5), 0b00001, 0b00010)
        assert out.table_equal(K.uniform(2, 3))

    def test_order_independence_on_fano(self, fano):
        del_then_con = K.contract(K.delete(fano, 0)[0], 0)[0]  # element 1 shifts to 0
        con_then_del = K.delete(K.contract(fano, 1)[0], 0)[0]
        assert del_then_con.table_equal(con_then_del)
        both, _ = K.minor(fano, 0b01, 0b10)
        assert both.table_equal(del_then_con)

    def test_overlap_rejected(self, fano):
        with pytest.raises(K.MatroidError):
            K.minor(fano, 0b11, 0b10)

    def test_no_removal_returns_the_matroid_itself(self, vamos):
        assert K.minor(vamos, 0, 0)[0] is vamos

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SMALL_CATALOG), st.data())
    def test_matches_literal_minor_and_chained_steps(self, make, data):
        M = make()
        picks = data.draw(st.lists(st.sampled_from("dck"), min_size=M.m, max_size=M.m))
        D = sum(1 << e for e, p in enumerate(picks) if p == "d")
        C = sum(1 << e for e, p in enumerate(picks) if p == "c")
        if D | C == M.full_mask:
            return
        out, idx = K.minor(M, D, C)
        kept = [e for e in range(M.m) if not (D | C) >> e & 1]
        assert out.m == len(kept)
        assert out.table.tolist() == literal_minor(M, D, C)
        assert idx == {e: i for i, e in enumerate(kept)}
        layout = {name: sum(1 << i for i, e in enumerate(kept) if x >> e & 1)
                  for name, x in (M.layout or {}).items() if not x & (D | C)}
        assert out.layout == (layout or None)
        # the same minor by single steps, contractions first, each ascending
        chained, where = M, {e: e for e in range(M.m)}
        for op, mask in ((K.contract, C), (K.delete, D)):
            for e in K.elements_of(mask):
                chained, step = op(chained, where[e])
                where = {old: step[new] for old, new in where.items() if new in step}
        assert chained.label == out.label
        assert chained.table_equal(out) and where == idx

    @pytest.mark.parametrize("make", SMALL_CATALOG)
    def test_single_steps_are_one_element_minors(self, make):
        M = make()
        if M.m < 2:
            return
        for e in range(M.m):
            for op, D, C in ((K.delete, 1 << e, 0), (K.contract, 0, 1 << e)):
                (a, ia), (b, ib) = op(M, e), K.minor(M, D, C)
                assert (a.label, a.layout, ia) == (b.label, b.layout, ib)
                assert a.table_equal(b)

    def test_refusal_messages(self, fano):
        single = K.uniform(1, 1)
        cases = [
            (lambda: K.delete(fano, 7), "element 7 out of range for ground size 7"),
            (lambda: K.contract(fano, -1), "element -1 out of range for ground size 7"),
            (lambda: K.delete(single, 0), "cannot delete from a single-element ground set"),
            (lambda: K.contract(single, 0), "cannot contract from a single-element ground set"),
            (lambda: K.minor(fano, 0b11, 0b10), "deletion and contraction masks overlap"),
            (lambda: K.minor(fano, 0b1111, 0b1110000), "minor would empty the ground set"),
            (lambda: K.minor(fano, 1 << 7, 0), "mask 0x80 has bits outside ground size 7"),
        ]
        for call, message in cases:
            with pytest.raises(K.MatroidError) as exc:
                call()
            assert str(exc.value) == message


class TestDual:
    def test_uniform_self_dual(self, u24):
        assert K.dual(u24).table_equal(u24)

    def test_fano_dual_rank(self, fano):
        assert K.dual(fano).rank_total == 4

    def test_involution_on_catalog(self, fano, nonfano, u24, kin4, kin5, vamos,
                                   z4, z6, dowling_z2, dowling_z3, fano_sum):
        for M in (fano, nonfano, u24, kin4, kin5, vamos, z4, z6,
                  dowling_z2, dowling_z3, fano_sum, K.uniform(3, 6)):
            assert M.m <= 16
            assert K.dual(K.dual(M)).table_equal(M), M.label

    def test_dual_rank_formula_spot(self, z4):
        d = K.dual(z4)
        for x in (0, 0b1111, 0b10101010, z4.full_mask):
            assert d.rank(x) == z4.size(x) + z4.rank(z4.full_mask ^ x) - 4


class TestDirectSum:
    def test_fano_pair_sum(self, fano_sum):
        assert (fano_sum.m, fano_sum.rank_total) == (14, 6)

    def test_adding_a_loop(self, fano):
        out, _, _ = K.direct_sum(fano, K.uniform(0, 1))
        assert out.rank_total == 3
        assert out.classify(1 << 7).loop
        assert np.array_equal(out.table[:1 << 7], fano.table)

    def test_rank_additivity_from_scratch(self):
        # oracle: evaluate min(|X ∩ Ei|, ki) parts independently
        rng = np.random.default_rng(5)
        M, m1, m2 = None, 3, 4
        a, b = K.uniform(2, m1), K.uniform(3, m2)
        M, _, _ = K.direct_sum(a, b)
        for x in rng.integers(0, 1 << (m1 + m2), size=200):
            x = int(x)
            low, high = x & ((1 << m1) - 1), x >> m1
            expect = min(bin(low).count("1"), 2) + min(bin(high).count("1"), 3)
            assert M.rank(x) == expect

    def test_layouts_of_both_sides_are_named_and_shifted(self, kin4, z4):
        out, _, _ = K.direct_sum(kin4, z4)
        assert out.layout == {**{f"L.{k}": v for k, v in kin4.layout.items()},
                              **{f"R.{k}": v << kin4.m for k, v in z4.layout.items()}}
        assert out.parts("L.V1", "R.a1") == kin4.part("V1") | z4.part("a1") << kin4.m

    def test_rank_at_full_mask(self, fano, u24):
        out, _, _ = K.direct_sum(fano, u24)
        assert out.rank_total == fano.rank_total + u24.rank_total


class TestRelaxTighten:
    def test_kinser_relaxation_is_vamos(self, kin4, vamos):
        H = kin4.parts("V1", "V2")
        assert K.relax(kin4, H).table_equal(vamos)

    def test_relax_requires_circuit_hyperplane(self, u24):
        with pytest.raises(K.MatroidError):
            K.relax(u24, 0b0011)  # a basis, not dependent

    def test_relax_then_tighten_round_trip(self, kin4, z4):
        H = kin4.parts("V1", "V2")
        assert K.tighten(K.relax(kin4, H), H).table_equal(kin4)
        A = z4.part("A")
        assert K.tighten(K.relax(z4, A), A).table_equal(z4)

    @pytest.mark.parametrize("maker", [lambda: K.binary_spike(4), lambda: K.binary_spike(5),
                                       lambda: K.kinser(4), lambda: K.kinser(5)],
                             ids=["Z4", "Z5", "Kin4", "Kin5"])
    def test_every_relaxation_passes_the_axiom_scan(self, maker):
        # relaxing a circuit-hyperplane of a matroid gives a matroid
        # (Oxley, Section 1.5), checked here by the exhaustive R1-R3 scan
        M = maker()
        hs = M.enumerate("circuit_hyperplanes")
        assert hs
        for H in hs:
            assert validate_rank_table(M.m, K.relax(M, H).table).ok, (M.label, H)

    def test_tighten_vamos_gives_kinser(self, kin4, vamos):
        assert K.tighten(vamos, vamos.parts("V1", "V2")).table_equal(kin4)

    def test_tighten_basis_of_uniform_succeeds(self, u24):
        # {0,1} tightens to a parallel pair: the decremented table passes the
        # axiom scan (its relaxation is U(2,4) again), so this is tightenable
        t = K.tighten(u24, 0b0011)
        assert t.rank(0b0011) == 1
        assert K.relax(t, 0b0011).table_equal(u24)

    def test_tighten_not_tightenable(self, u24):
        # a second tightening breaks submodularity: not-tightenable error
        once = K.tighten(u24, 0b0011)
        with pytest.raises(K.NotAMatroidError) as err:
            K.tighten(once, 0b0101)
        assert err.value.axiom == "R3"

    def test_tighten_requires_basis(self, u24):
        with pytest.raises(K.MatroidError):
            K.tighten(u24, 0b0111)

    def test_relax_dual_commutation(self, kin4, z4):
        # dual(relax(M, H)) == relax(dual(M), E - H)
        cases = [(kin4, [kin4.parts("V1", "V2")]),
                 (z4, z4.enumerate("circuit_hyperplanes"))]
        for M, hs in cases:
            for H in hs:
                left = K.dual(K.relax(M, H))
                right = K.relax(K.dual(M), M.full_mask ^ H)
                assert left.table_equal(right), (M.label, H)


class TestTruncate:
    def test_uniform(self):
        assert K.truncate(K.uniform(3, 4)).table_equal(K.uniform(2, 4))

    def test_base_truncates_to_kinser(self, kin4):
        assert K.truncate(K.kinser_base(4)).table_equal(kin4)

    def test_nonspanning_ranks_preserved(self, fano):
        t = K.truncate(fano)
        for x in range(1 << 7):
            if fano.rank(x) < 3:
                assert t.rank(x) == fano.rank(x)

    def test_rank_zero_rejected(self):
        with pytest.raises(K.MatroidError):
            K.truncate(K.uniform(0, 2))
