"""Logic matrices: the semi-tensor product (STP) view of a Boolean function.

The semi-tensor product generalizes the ordinary matrix product to
arbitrary dimensions: ``A (m x n) stp B (p x q)`` is computed as
``(A kron I_{t/n}) @ (B kron I_{t/p})`` with ``t = lcm(n, p)``.  The
package never forms those dense products: a logic matrix is stored as
its top row, and :func:`stpsweep.simulate.eval_tt_words` applies one to
packed input rows by reading it in column blocks.  The dense algebra
lives in ``tests/stp_oracle.py``, as the reference the tests compare
against.

Boolean values are realized as column vectors, True = (1, 0)^T and
False = (0, 1)^T.  A *logic matrix* is a 2 x 2**k matrix whose columns
are all Boolean vectors; it encodes a k-input Boolean function.

Column-order convention (important!): column 0, the *leftmost* column,
corresponds to the all-inputs-true assignment, and the truth row is read
with decreasing input values from left to right.  The 2-input NAND is
therefore the row string "0111" (inputs 11 -> 0, 10 -> 1, 01 -> 1,
00 -> 1).  Most EDA tools order truth tables the opposite way; every
row string in this package uses the convention above.

Internally a :class:`LogicMatrix` stores the top row as a single integer
whose bit ``v`` holds the output under the input assignment with unsigned
value ``v`` (first input = most significant bit).  Rendering that integer
MSB-first reproduces the row string exactly.
"""

from __future__ import annotations

#: Largest supported logic-matrix arity (a 2**24-bit truth row).
MAX_ARITY = 24


class LogicMatrix:
    """A 2 x 2**arity matrix whose columns are Boolean vectors.

    Only the top row is stored; the bottom row is its complement.  See
    the module docstring for the column-order convention.
    """

    __slots__ = ("arity", "row")

    def __init__(self, arity: int, row: int):
        if not 0 <= arity <= MAX_ARITY:
            raise ValueError(f"arity {arity} outside [0, {MAX_ARITY}]")
        if not 0 <= row < (1 << (1 << arity)):
            raise ValueError("truth row does not fit the stated arity")
        self.arity = arity
        self.row = row

    @classmethod
    def from_truth_row(cls, text: str) -> "LogicMatrix":
        """Build from a 0/1 row string, leftmost bit = all-true column."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a 0/1 truth row: {text!r}")
        size = len(text)
        arity = size.bit_length() - 1
        if 1 << arity != size:
            raise ValueError(f"truth row length {size} is not a power of two")
        return cls(arity, int(text, 2))

    def truth_row(self) -> str:
        """Row string, leftmost bit = all-inputs-true column."""
        return format(self.row, f"0{1 << self.arity}b")

    def value(self, assignment: int) -> bool:
        """Output bit under the input assignment with unsigned value ``assignment``."""
        if not 0 <= assignment < (1 << self.arity):
            raise IndexError(assignment)
        return bool((self.row >> assignment) & 1)

    def as_bool(self) -> bool:
        """Read an arity-0 matrix (a plain Boolean vector) as a bool."""
        if self.arity != 0:
            raise ValueError("matrix still has unapplied inputs")
        return bool(self.row & 1)

    def complement(self) -> "LogicMatrix":
        return LogicMatrix(self.arity, self.row ^ ((1 << (1 << self.arity)) - 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogicMatrix):
            return NotImplemented
        return self.arity == other.arity and self.row == other.row

    def __hash__(self) -> int:
        return hash((self.arity, self.row))

    def __str__(self) -> str:
        return self.truth_row()

    def __repr__(self) -> str:
        if self.arity <= 6:
            return f"LogicMatrix({self.arity}, '{self.truth_row()}')"
        return f"LogicMatrix(arity={self.arity})"

