"""Dense semi-tensor product algebra: the reference the tests compare against.

The package stores a logic matrix as its top row and evaluates it with
:func:`stpsweep.simulate.eval_tt_words`.  This module keeps the textbook
form of the same algebra, with dense numpy matrices: the STP itself,
the Kronecker product, the structural matrices of the logical
operators, the swap and power-reducing matrices, the row operations
each of them realizes on a :class:`~stpsweep.LogicMatrix`, and two
independent canonicalizations of an expression (enumeration and a
dense factor chain).  The tests check the package against it; none of
these matrices is read from the package.
"""

from __future__ import annotations

import math

import numpy as np

from stpsweep.bexpr import BinOp, BoolExpr, Not, Var, eval_expr
from stpsweep.stp import MAX_ARITY, LogicMatrix

#: Structural matrix of each logical operator, as the STP literature
#: writes them (M_n, M_c, M_d, M_p, M_i, M_e): column 0 is the
#: all-inputs-true assignment, and True is the column (1, 0)^T.
STRUCTURAL_MATRICES = {
    "not": np.array([[0, 1], [1, 0]]),
    "and": np.array([[1, 0, 0, 0], [0, 1, 1, 1]]),
    "or": np.array([[1, 1, 1, 0], [0, 0, 0, 1]]),
    "xor": np.array([[0, 1, 1, 0], [1, 0, 0, 1]]),
    "implies": np.array([[1, 0, 1, 1], [0, 1, 0, 0]]),
    "iff": np.array([[1, 0, 0, 1], [0, 1, 1, 0]]),
}

#: 4x4 matrix exchanging two adjacent Boolean factors: W @ (x stp y) = y stp x.
SWAP22 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

#: 4x2 power-reducing matrix: x stp x = POWER_REDUCE @ x for Boolean x.
POWER_REDUCE = np.array([[1, 0], [0, 0], [0, 0], [0, 1]])


def bool_vec(value: bool) -> np.ndarray:
    """Column-vector realization of a Boolean value."""
    return np.array([[1], [0]]) if value else np.array([[0], [1]])


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two dense integer matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kronecker expects 2-D matrices")
    return np.kron(a, b)


def stp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Semi-tensor product of two dense integer matrices.

    Total for any dimensions; equals the ordinary matrix product when
    ``a.shape[1] == b.shape[0]``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("stp expects 2-D matrices")
    n = a.shape[1]
    p = b.shape[0]
    t = math.lcm(n, p)
    left = a if t == n else np.kron(a, identity(t // n))
    right = b if t == p else np.kron(b, identity(t // p))
    return left @ right


# ---------------------------------------------------------------------------
# Slot operations on a truth row unpacked to a 0/1 array.


def _row_to_array(row: int, arity: int) -> np.ndarray:
    """Truth-row integer -> uint8 array indexed by input assignment."""
    size = 1 << arity
    nbytes = (size + 7) >> 3
    buf = np.frombuffer(row.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little")[:size]


def _array_to_row(arr: np.ndarray) -> int:
    """Inverse of :func:`_row_to_array`."""
    packed = np.packbits(arr.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _swap_slots(arr: np.ndarray, arity: int, i: int) -> np.ndarray:
    """Exchange input slots ``i`` and ``i + 1`` (slot 0 = most significant).

    Realizes the right product with ``I_{2**i} kron SWAP22 kron I_rest``.
    """
    rest = 1 << (arity - i - 2)
    view = arr.reshape(1 << i, 2, 2, rest)
    return np.ascontiguousarray(view.swapaxes(1, 2)).reshape(-1)


def _reduce_slots(arr: np.ndarray, arity: int, i: int) -> np.ndarray:
    """Merge equal adjacent input slots ``i`` and ``i + 1`` into one.

    Realizes the right product with ``I_{2**i} kron POWER_REDUCE kron
    I_rest``; the result has arity reduced by one.
    """
    rest = 1 << (arity - i - 2)
    view = arr.reshape(1 << i, 2, 2, rest)
    out = np.empty((1 << i, 2, rest), dtype=arr.dtype)
    out[:, 0, :] = view[:, 0, 0, :]
    out[:, 1, :] = view[:, 1, 1, :]
    return out.reshape(-1)


def _append_dummy(arr: np.ndarray) -> np.ndarray:
    """Append one ignored input slot at the least-significant position.

    Realizes the Kronecker product of the row with the 1x2 all-ones
    matrix (each column duplicated).
    """
    return np.repeat(arr, 2)


# ---------------------------------------------------------------------------
# Dense views and STP operations on a LogicMatrix.


def dense(m: LogicMatrix) -> np.ndarray:
    """The full 2 x 2**arity matrix, leftmost column = all-true assignment."""
    top = _row_to_array(m.row, m.arity)[::-1].astype(np.int64)
    return np.vstack([top, 1 - top])


def from_dense(d: np.ndarray) -> LogicMatrix:
    """Inverse of :func:`dense`; rejects matrices that are not logic matrices."""
    d = np.asarray(d)
    if d.ndim != 2 or d.shape[0] != 2:
        raise ValueError("logic matrix must be 2 x 2**k")
    size = d.shape[1]
    arity = size.bit_length() - 1
    if 1 << arity != size:
        raise ValueError("column count must be a power of two")
    if not np.array_equal(d[0] + d[1], np.ones(size, dtype=d.dtype)):
        raise ValueError("columns are not Boolean vectors")
    assert set(np.unique(d)) <= {0, 1}
    # Column p corresponds to assignment size - 1 - p.
    return LogicMatrix(arity, _array_to_row(d[0][::-1]))


def column(m: LogicMatrix, p: int) -> bool:
    """Top entry of column ``p`` (0 = leftmost = all-true assignment)."""
    size = 1 << m.arity
    if not 0 <= p < size:
        raise IndexError(p)
    return bool((m.row >> (size - 1 - p)) & 1)


def apply_bool(m: LogicMatrix, value: bool) -> LogicMatrix:
    """STP-multiply by a Boolean vector, consuming the first input.

    True selects the left half of the columns, False the right half;
    equals ``stp(dense(m), bool_vec(value))`` densely.
    """
    if m.arity == 0:
        raise ValueError("cannot apply a Boolean to an arity-0 matrix")
    half = 1 << (m.arity - 1)
    row = m.row >> half if value else m.row & ((1 << half) - 1)
    return LogicMatrix(m.arity - 1, row)


def swap_adjacent(m: LogicMatrix, i: int) -> LogicMatrix:
    """Exchange input positions ``i`` and ``i + 1`` (0 = first input)."""
    if not 0 <= i < m.arity - 1:
        raise IndexError(i)
    arr = _swap_slots(_row_to_array(m.row, m.arity), m.arity, i)
    return LogicMatrix(m.arity, _array_to_row(arr))


def reduce_adjacent(m: LogicMatrix, i: int) -> LogicMatrix:
    """Merge equal adjacent input positions ``i`` and ``i + 1``."""
    if not 0 <= i < m.arity - 1:
        raise IndexError(i)
    arr = _reduce_slots(_row_to_array(m.row, m.arity), m.arity, i)
    return LogicMatrix(m.arity - 1, _array_to_row(arr))


def append_dummy(m: LogicMatrix) -> LogicMatrix:
    """Add one ignored trailing input."""
    if m.arity >= MAX_ARITY:
        raise ValueError("arity cap exceeded")
    arr = _append_dummy(_row_to_array(m.row, m.arity))
    return LogicMatrix(m.arity + 1, _array_to_row(arr))


# ---------------------------------------------------------------------------
# Reference canonical forms of an expression.


def canonical_form_enum(expr: BoolExpr, n: int) -> LogicMatrix:
    """Canonical logic matrix by evaluating ``expr`` under all 2**n assignments."""
    row = 0
    for v in range(1 << n):
        bits = [(v >> (n - 1 - j)) & 1 for j in range(n)]
        if eval_expr(expr, bits):
            row |= 1 << v
    return LogicMatrix(n, row)


def _merge_duplicates(arr: np.ndarray, word: list[int]) -> tuple[np.ndarray, list[int]]:
    """Sort the variable word and fuse repeated variables.

    Applies adjacent swaps until sorted, then adjacent power reductions;
    both primitives mirror SWAP22 / POWER_REDUCE products on the row.
    """
    m = len(word)
    word = list(word)
    # Insertion sort with explicit adjacent transpositions.
    for i in range(1, m):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            arr = _swap_slots(arr, m, j - 1)
            word[j - 1], word[j] = word[j], word[j - 1]
            j -= 1
    i = 0
    while i < len(word) - 1:
        if word[i] == word[i + 1]:
            arr = _reduce_slots(arr, len(word), i)
            del word[i + 1]
        else:
            i += 1
    return arr, word


def _flatten_factors(expr: BoolExpr) -> list:
    """Prefix factor sequence: matrices and variables, operator first."""
    if isinstance(expr, Var):
        return [expr.index]
    if isinstance(expr, Not):
        return [STRUCTURAL_MATRICES["not"]] + _flatten_factors(expr.child)
    if isinstance(expr, BinOp):
        out = [STRUCTURAL_MATRICES[expr.op]]
        children = (expr.left, expr.right)
    else:
        out = [dense(LogicMatrix(len(expr.children), expr.row))]
        children = expr.children
    for c in children:
        out.extend(_flatten_factors(c))
    return out


def _canonical_chain_dense(expr: BoolExpr, n: int) -> LogicMatrix:
    """Textbook dense canonicalization, used as an algebraic witness.

    Pushes every matrix factor left through the variables (a column
    vector x and a matrix A satisfy ``x stp A = (I_2 kron A) stp x``),
    then normalizes the variable word one dense SWAP22 / POWER_REDUCE
    product at a time.  Exponential in the number of variable
    occurrences; only suitable for small expressions.
    """
    factors = _flatten_factors(expr)
    acc = identity(2)
    word: list[int] = []
    for f in factors:
        if isinstance(f, int):
            word.append(f)
        else:
            lifted = kronecker(identity(1 << len(word)), f)
            acc = stp(acc, lifted)
            assert set(np.unique(acc)) <= {0, 1}
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                perm = kronecker(
                    kronecker(identity(1 << i), SWAP22),
                    identity(1 << (len(word) - i - 2)),
                )
                acc = stp(acc, perm)
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
                break
            if word[i] == word[i + 1]:
                red = kronecker(
                    kronecker(identity(1 << i), POWER_REDUCE),
                    identity(1 << (len(word) - i - 2)),
                )
                acc = stp(acc, red)
                del word[i + 1]
                changed = True
                break
    for k in range(1, n + 1):
        if k in word:
            continue
        acc = kronecker(acc, np.ones((1, 2), dtype=np.int64))
        word.append(k)
        j = len(word) - 1
        while j > 0 and word[j - 1] > word[j]:
            perm = kronecker(
                kronecker(identity(1 << (j - 1)), SWAP22),
                identity(1 << (len(word) - j - 1)),
            )
            acc = stp(acc, perm)
            word[j - 1], word[j] = word[j], word[j - 1]
            j -= 1
    return from_dense(acc)
