"""Commutative semirings and dense matrices over them.

The two instances are BOOL and NAT.  Automata and diagram evaluation work
on sparse rows and tensors over a semiring and return a ``Mat`` built once
at the end; the dense kernels here are for the matrices themselves.  No
operation here ever subtracts, so the code is valid over any commutative
semiring.
"""

from __future__ import annotations

import operator

from .errors import Record, ShapeError


class Semiring(Record):
    """A commutative semiring (add, mul, 0, 1) on plain Python ints."""

    _fields = ("name", "zero", "one", "add", "mul")

    def __init__(self, name, zero, one, add, mul):
        self.__dict__.update(name=name, zero=zero, one=one, add=add, mul=mul)

    def __repr__(self):
        return f"Semiring({self.name})"


#: The Boolean semiring {0, 1 | 1 + 1 = 1}: add is OR, mul is AND.
BOOL = Semiring("bool", 0, 1, operator.or_, operator.and_)

#: The natural numbers under ordinary + and *; used for path counting.
NAT = Semiring("nat", 0, 1, operator.add, operator.mul)


class Mat(Record):
    """Dense matrix over a semiring, entries stored row-major.

    Values are immutable after construction and safe to share across
    threads.
    """

    _fields = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Semiring, rows: int, cols: int, entries: tuple):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative dimensions {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.__dict__.update(ring=ring, rows=rows, cols=cols, entries=entries)

    @classmethod
    def from_rows(cls, ring, rows_data) -> Mat:
        rows_data = [tuple(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        if any(len(r) != ncols for r in rows_data):
            raise ShapeError("ragged rows")
        return cls(ring, nrows, ncols, tuple(v for r in rows_data for v in r))

    def row(self, i) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def __add__(self, other: Mat) -> Mat:
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        add = self.ring.add
        ent = tuple(add(a, b) for a, b in zip(self.entries, other.entries))
        return Mat(self.ring, self.rows, self.cols, ent)

    def __matmul__(self, other: Mat) -> Mat:
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        c = other.cols
        ring = self.ring
        zero, add, mul = ring.zero, ring.add, ring.mul
        out = []
        for i in range(self.rows):
            acc = [zero] * c
            for t, x in enumerate(self.row(i)):
                if x != zero:
                    acc = [add(s, mul(x, y)) for s, y in zip(acc, other.row(t))]
            out.extend(acc)
        return Mat(ring, self.rows, c, tuple(out))

    def transpose(self) -> Mat:
        ent = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return Mat(self.ring, self.cols, self.rows, ent)

    @property
    def T(self) -> Mat:
        return self.transpose()

    def trace(self):
        if self.rows != self.cols:
            raise ShapeError(f"trace of non-square {self.rows}x{self.cols}")
        acc = self.ring.zero
        for i in range(self.rows):
            acc = self.ring.add(acc, self.entries[i * self.cols + i])
        return acc

    def _check_ring(self, other: Mat):
        if self.ring is not other.ring:
            raise ShapeError(f"semiring mismatch: {self.ring} vs {other.ring}")

    def __repr__(self):
        return f"Mat({self.ring.name}, {self.rows}x{self.cols}, {self.to_rows()})"


def identity(ring: Semiring, n: int) -> Mat:
    ent = tuple(
        ring.one if i == j else ring.zero for i in range(n) for j in range(n)
    )
    return Mat(ring, n, n, ent)


def zeros(ring: Semiring, rows: int, cols: int) -> Mat:
    return Mat(ring, rows, cols, (ring.zero,) * (rows * cols))


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, indices row-major on (left, right) factor pairs."""
    a._check_ring(b)
    ring = a.ring
    mul, zero, one = ring.mul, ring.zero, ring.one
    out = []
    for i1 in range(a.rows):
        arow = a.row(i1)
        for i2 in range(b.rows):
            brow = b.row(i2)
            for x in arow:
                if x == zero:
                    out.extend((zero,) * b.cols)
                elif x == one:
                    out.extend(brow)
                else:
                    out.extend(mul(x, y) for y in brow)
    return Mat(ring, a.rows * b.rows, a.cols * b.cols, tuple(out))
