"""Expression parsing, evaluation, and canonical forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpsweep import MAX_ARITY, LogicMatrix, Var, canonical_form, eval_expr, parse_expr
from stp_oracle import (
    _array_to_row,
    _canonical_chain_dense,
    _merge_duplicates,
    _row_to_array,
    apply_bool,
    canonical_form_enum,
)

from stpsweep.bexpr import BinOp, ExprSyntaxError, Lut, Not, scan_names


def random_expr(rng: random.Random, n_vars: int, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.randint(1, n_vars))
    roll = rng.random()
    if roll < 0.2:
        return Not(random_expr(rng, n_vars, depth - 1))
    if roll < 0.9:
        op = rng.choice(["and", "or", "xor", "implies", "iff"])
        return BinOp(op, random_expr(rng, n_vars, depth - 1), random_expr(rng, n_vars, depth - 1))
    k = rng.randint(1, 3)
    children = tuple(random_expr(rng, n_vars, depth - 1) for _ in range(k))
    return Lut(rng.getrandbits(1 << k), children)


class TestParser:
    def test_precedence(self):
        expr, names = parse_expr("a|b&c")
        assert names == ["a", "b", "c"]
        assert isinstance(expr, BinOp) and expr.op == "or"
        assert isinstance(expr.right, BinOp) and expr.right.op == "and"

    def test_implies_right_assoc(self):
        expr, _ = parse_expr("a->b->c")
        assert expr.op == "implies"
        assert isinstance(expr.right, BinOp) and expr.right.op == "implies"

    def test_parentheses_and_not(self):
        expr, _ = parse_expr("~(a|b)")
        assert isinstance(expr, Not)

    def test_x_style_names(self):
        expr, names = parse_expr("x1 & x10 | x2")
        assert names == ["x1", "x10", "x2"]

    def test_scan_names(self):
        assert scan_names("(a->b)<->~c") == {"a", "b", "c"}

    @pytest.mark.parametrize("bad", ["a &", "(a|b", "a b", "", "a $ b", "->a"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)

    def test_shared_variable_space(self):
        var_index = {"a": 1, "b": 2}
        ea, _ = parse_expr("a", var_index)
        eb, _ = parse_expr("b", var_index)
        assert ea == Var(1) and eb == Var(2)


class TestEval:
    def test_operators(self):
        cases = {
            "a&b": [0, 0, 0, 1],
            "a|b": [0, 1, 1, 1],
            "a^b": [0, 1, 1, 0],
            "a->b": [1, 1, 0, 1],
            "a<->b": [1, 0, 0, 1],
        }
        for text, rows in cases.items():
            expr, _ = parse_expr(text)
            for v in range(4):
                bits = [bool(v >> 1 & 1), bool(v & 1)]
                assert eval_expr(expr, bits) == bool(rows[v]), text

    def test_lut_child_order(self):
        # First child is the most significant truth-row input.
        lut = Lut(0b10000000, (Var(1), Var(2), Var(3)))
        assert eval_expr(lut, [True, True, True]) is True
        assert eval_expr(lut, [True, True, False]) is False

    def test_deep_nesting(self):
        # Deeper than the interpreter's recursion limit.
        assert eval_expr(parse_expr("~" * 3000 + "a")[0], [True]) is True
        assert eval_expr(parse_expr("~" * 3001 + "a")[0], [True]) is False
        chain = parse_expr("(" * 3000 + "a" + "&b)" * 3000)[0]
        assert eval_expr(chain, [True, True]) is True
        assert eval_expr(chain, [True, False]) is False


class TestCanonicalForm:
    def test_projection(self):
        assert canonical_form(Var(1), 1).truth_row() == "10"

    def test_liar_expression(self):
        expr, _ = parse_expr("(a<->~b)&(b<->~c)&(c<->(~a&~b))")
        m = canonical_form(expr, 3)
        assert m.truth_row() == "00000100"
        folded = apply_bool(apply_bool(apply_bool(m, False), True), False)
        assert folded.as_bool() is True

    def test_strategies_agree_small_corpus(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(1, 5)
            expr = random_expr(rng, n, rng.randint(1, 4))
            assert canonical_form(expr, n) == canonical_form_enum(expr, n)

    def test_enum_matches_truth_table(self):
        rng = random.Random(7)
        for _ in range(40):
            expr = random_expr(rng, 4, 3)
            m = canonical_form(expr, 4)
            for v in range(16):
                bits = [bool(v >> (3 - j) & 1) for j in range(4)]
                assert m.value(v) == eval_expr(expr, bits)

    def test_dense_chain_witness(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 3)
            expr = random_expr(rng, n, 2)
            assert _canonical_chain_dense(expr, n) == canonical_form(expr, n)

    def test_wide_lut_matches_oracles(self):
        # Ten or more operands take eval_tt_words' gather path.
        rng = random.Random(31)
        for k in (10, 12):
            n = rng.randint(3, 6)
            leaves = tuple(Var(rng.randint(1, n)) for _ in range(k))
            leaves = tuple(Not(v) if rng.random() < 0.5 else v for v in leaves)
            expr = Lut(rng.getrandbits(1 << k), leaves)
            assert canonical_form(expr, n) == canonical_form_enum(expr, n)
            if k == 10:
                assert canonical_form(expr, n) == _canonical_chain_dense(expr, n)
            nested = Lut(rng.getrandbits(1 << k), tuple(random_expr(rng, n, 2) for _ in range(k)))
            assert canonical_form(nested, n) == canonical_form_enum(nested, n)

    def test_identities(self):
        pairs = [
            ("a->b", "~a|b"),
            ("~(a&b)", "~a|~b"),
            ("~(a|b)", "~a&~b"),
            ("a^b", "(a|b)&~(a&b)"),
        ]
        for lhs, rhs in pairs:
            names = sorted(scan_names(lhs) | scan_names(rhs))
            idx = {n: i + 1 for i, n in enumerate(names)}
            ea, _ = parse_expr(lhs, idx)
            eb, _ = parse_expr(rhs, idx)
            assert canonical_form(ea, len(names)) == canonical_form(eb, len(names))

    def test_missing_variable_becomes_dummy(self):
        expr, _ = parse_expr("a")
        m = canonical_form(expr, 2)
        assert m.truth_row() == "1100"

    def test_variable_out_of_range(self):
        # Var(0) and Var(n + 1), also under 3,000 negations or beside a
        # valid variable, and a variable count outside [0, MAX_ARITY].
        for n in range(4):
            deep = Var(n + 1)
            for _ in range(3000):
                deep = Not(deep)
            for expr in (Var(0), Var(n + 1), deep, BinOp("and", Var(1), Var(0))):
                with pytest.raises(ValueError, match="variable index outside"):
                    canonical_form(expr, n)
        for n in (-1, MAX_ARITY + 1):
            with pytest.raises(ValueError, match="variable count"):
                canonical_form(Var(1), n)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_strategies_agree_property(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        expr = random_expr(rng, n, rng.randint(1, 3))
        assert canonical_form(expr, n) == canonical_form_enum(expr, n)


class TestMergeDuplicates:
    def test_sorts_and_fuses(self):
        # Row over word [2, 1, 2]: f(x2, x1, x2') = x2 & x1 & x2'.
        arr = _row_to_array(0b10000000, 3)
        merged, word = _merge_duplicates(arr, [2, 1, 2])
        assert word == [1, 2]
        assert _array_to_row(merged) == 0b1000  # x1 & x2

    def test_already_sorted(self):
        arr = _row_to_array(0b0110, 2)
        merged, word = _merge_duplicates(arr, [1, 2])
        assert word == [1, 2]
        assert _array_to_row(merged) == 0b0110
