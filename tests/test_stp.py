"""Matrix algebra: Kronecker, semi-tensor product, logic matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stp_oracle import (
    POWER_REDUCE,
    STRUCTURAL_MATRICES,
    SWAP22,
    _array_to_row,
    _row_to_array,
    append_dummy,
    apply_bool,
    bool_vec,
    column,
    dense,
    from_dense,
    identity,
    kronecker,
    reduce_adjacent,
    stp,
    swap_adjacent,
)

from stpsweep import BinOp, LogicMatrix, Not, Var, canonical_form
from stpsweep.bexpr import _BINARY_OPS


class TestKronecker:
    def test_identity_times_identity(self):
        assert np.array_equal(kronecker(identity(2), identity(2)), identity(4))

    def test_true_vector_with_identity(self):
        # Expanded by hand from the definition.
        expected = np.array([[1, 0], [0, 1], [0, 0], [0, 0]])
        assert np.array_equal(kronecker(bool_vec(True), identity(2)), expected)

    def test_unit_factor(self):
        m_not = STRUCTURAL_MATRICES["not"]
        assert np.array_equal(kronecker(m_not, np.array([[1]])), m_not)

    def test_block_structure(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, size=(2, 3))
        b = rng.integers(0, 3, size=(3, 2))
        k = kronecker(a, b)
        assert k.shape == (6, 6)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(k[3 * i:3 * i + 3, 2 * j:2 * j + 2], a[i, j] * b)


class TestStp:
    def test_or_after_not_is_implication(self):
        result = stp(STRUCTURAL_MATRICES["or"], STRUCTURAL_MATRICES["not"])
        assert np.array_equal(result, np.array([[1, 0, 1, 1], [0, 1, 0, 0]]))

    def test_liar_matrix_first_fold(self):
        m = LogicMatrix.from_truth_row("00000100")
        result = stp(dense(m), bool_vec(False))
        assert np.array_equal(result, np.array([[0, 1, 0, 0], [1, 0, 1, 1]]))

    def test_identity_on_bool_vec(self):
        for value in (True, False):
            assert np.array_equal(stp(identity(2), bool_vec(value)), bool_vec(value))

    def test_matching_dims_is_plain_product(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 5, size=(3, 4))
        b = rng.integers(0, 5, size=(4, 2))
        assert np.array_equal(stp(a, b), a @ b)

    @given(st.integers(0, 2 ** 12 - 1), st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_swap_row_vector(self, seed, rows, cols, data):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=(rows, cols))
        t = data.draw(st.integers(1, 4))
        z = rng.integers(0, 2, size=(1, t))
        left = stp(a, z)
        right = stp(z, kronecker(identity(t), a))
        assert np.array_equal(left, right)

    @given(st.integers(0, 2 ** 12 - 1), st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_swap_column_vector(self, seed, rows, cols, data):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=(rows, cols))
        t = data.draw(st.integers(1, 4))
        z = rng.integers(0, 2, size=(t, 1))
        left = stp(z, a)
        right = stp(kronecker(identity(t), a), z)
        assert np.array_equal(left, right)


class TestStructuralMatrices:
    @pytest.mark.parametrize(
        "op,row",
        [
            ("not", "01"),
            ("and", "1000"),
            ("or", "1110"),
            ("xor", "0110"),
            ("implies", "1011"),
            ("iff", "1001"),
        ],
    )
    def test_named_rows(self, op, row):
        # The oracle's matrix has this row, and the package's operator
        # computes it: a binary one applies its row of ``_BINARY_OPS``,
        # and ``Not`` complements its operand.
        m = from_dense(STRUCTURAL_MATRICES[op])
        assert m.truth_row() == row
        if op == "not":
            assert canonical_form(Not(Var(1)), 1) == m
        else:
            assert LogicMatrix(2, _BINARY_OPS[op]) == m
            assert canonical_form(BinOp(op, Var(1), Var(2)), 2) == m

    def test_not_dense(self):
        for value in (True, False):
            assert np.array_equal(stp(STRUCTURAL_MATRICES["not"], bool_vec(value)),
                                  bool_vec(not value))

    def test_raw_truth_row(self):
        # NAND's row string is the dense product of NOT and AND.
        m = LogicMatrix.from_truth_row("0111")
        assert m.arity == 2
        assert np.array_equal(dense(m), stp(STRUCTURAL_MATRICES["not"], STRUCTURAL_MATRICES["and"]))

    def test_unknown_operator(self):
        assert set(_BINARY_OPS) == set(STRUCTURAL_MATRICES) - {"not"}
        with pytest.raises(ValueError):
            BinOp("nand3x", Var(1), Var(2))


class TestLogicMatrix:
    def test_round_trip_strings(self):
        for s in ("01", "0111", "1110", "11110001", "10"):
            assert LogicMatrix.from_truth_row(s).truth_row() == s

    def test_dense_round_trip(self):
        m = LogicMatrix.from_truth_row("0111")
        assert from_dense(dense(m)) == m

    def test_from_dense_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            from_dense(np.array([[1, 1], [1, 0]]))

    def test_column_order(self):
        nand = LogicMatrix.from_truth_row("0111")
        assert column(nand, 0) is False  # inputs 11
        assert column(nand, 3) is True  # inputs 00
        assert nand.value(0b11) is False
        assert nand.value(0b00) is True

    def test_apply_bool_matches_dense_stp(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            arity = rng.integers(1, 6)
            row = int(rng.integers(0, 1 << min(62, 1 << int(arity))))
            m = LogicMatrix(int(arity), row)
            for value in (True, False):
                expected = stp(dense(m), bool_vec(value))
                assert np.array_equal(dense(apply_bool(m, value)), expected)

    def test_apply_bool_not(self):
        m_not = from_dense(STRUCTURAL_MATRICES["not"])
        assert apply_bool(m_not, True).as_bool() is False
        assert apply_bool(m_not, False).as_bool() is True

    def test_apply_bool_selects_half(self):
        m = LogicMatrix.from_truth_row("11110001")
        assert apply_bool(m, True).truth_row() == "1111"
        assert apply_bool(m, False).truth_row() == "0001"

    def test_apply_bool_arity_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_bool(LogicMatrix(0, 1), True)

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            LogicMatrix(25, 0)

    def test_complement(self):
        assert LogicMatrix.from_truth_row("0111").complement().truth_row() == "1000"


class TestSlotPrimitives:
    """The compact slot operations equal their dense matrix products."""

    @given(st.integers(2, 4), st.integers(0, 2 ** 16 - 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_swap_slots_is_swap_product(self, arity, row_seed, data):
        row = row_seed & ((1 << (1 << arity)) - 1)
        i = data.draw(st.integers(0, arity - 2))
        m = LogicMatrix(arity, row)
        perm = kronecker(
            kronecker(identity(1 << i), SWAP22), identity(1 << (arity - i - 2))
        )
        expected = stp(dense(m), perm)
        assert np.array_equal(dense(swap_adjacent(m, i)), expected)

    @given(st.integers(2, 4), st.integers(0, 2 ** 16 - 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_reduce_slots_is_power_reduce_product(self, arity, row_seed, data):
        row = row_seed & ((1 << (1 << arity)) - 1)
        i = data.draw(st.integers(0, arity - 2))
        m = LogicMatrix(arity, row)
        red = kronecker(
            kronecker(identity(1 << i), POWER_REDUCE), identity(1 << (arity - i - 2))
        )
        expected = stp(dense(m), red)
        assert np.array_equal(dense(reduce_adjacent(m, i)), expected)

    @given(st.integers(1, 4), st.integers(0, 2 ** 16 - 1))
    @settings(max_examples=60, deadline=None)
    def test_append_dummy_is_ones_kron(self, arity, row_seed):
        row = row_seed & ((1 << (1 << arity)) - 1)
        m = LogicMatrix(arity, row)
        expected = kronecker(dense(m), np.ones((1, 2), dtype=np.int64))
        assert np.array_equal(dense(append_dummy(m)), expected)

    def test_row_array_round_trip(self):
        for arity in range(0, 6):
            for _ in range(10):
                row = np.random.default_rng(arity).integers(0, 1 << min(62, 1 << arity))
                arr = _row_to_array(int(row), arity)
                assert _array_to_row(arr) == int(row)

    def test_power_reduce_realizes_squaring(self):
        # x stp x = POWER_REDUCE @ x for both Boolean values.
        for value in (True, False):
            v = bool_vec(value)
            assert np.array_equal(stp(v, v), POWER_REDUCE @ v)

    def test_swap22_exchanges_factors(self):
        for a in (True, False):
            for b in (True, False):
                lhs = stp(SWAP22, stp(bool_vec(a), bool_vec(b)))
                rhs = stp(bool_vec(b), bool_vec(a))
                assert np.array_equal(lhs, rhs)
