"""Exact dense linear algebra over QQ and prime fields.

Scalars are `fractions.Fraction` over QQ and canonical residues (ints in
[0, p)) over F_p.  Storage is dense (a list of rows), but the hot loops of
`Matrix.__matmul__` and `rref` skip zeros: each row is reduced once to its
nonzero (column, value) pairs and only those are multiplied.  Pivoting is
deterministic (first nonzero entry in column order) so every basis produced
downstream is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals, or F_p for a prime p."""

    kind: str  # "Q" or "Fp"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rationals take no modulus")
        elif self.kind == "Fp":
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise ValueError(f"modulus must be prime, got {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def zero(self):
        return 0 if self.kind == "Fp" else Fraction(0)

    @property
    def one(self):
        return 1 if self.kind == "Fp" else Fraction(1)

    def of(self, x):
        """Coerce an int / Fraction / 'a/b' string to a canonical scalar."""
        if self.kind == "Fp":
            if isinstance(x, str):
                x = Fraction(x)
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError(f"denominator divisible by {self.p}")
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        if self.kind == "Fp":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __str__(self):
        return "QQ" if self.kind == "Q" else f"GF({self.p})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


QQ = FieldSpec("Q")


def GF(p: int) -> FieldSpec:
    return FieldSpec("Fp", p)


class Matrix:
    """Dense matrix with exact entries, immutable by convention after build.

    `data` holds every entry, zeros included; products and elimination
    iterate only over the nonzero ones.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if entries is None:
            z = field.zero
            self.data = [[z] * cols for _ in range(rows)]
        else:
            data = [[field.of(x) for x in row] for row in entries]
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("entry grid does not match the declared shape")
            self.data = data

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        m = Matrix(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @staticmethod
    def zero(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols)

    @staticmethod
    def from_rows(field: FieldSpec, rows: Iterable[Iterable]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def column(field: FieldSpec, vec: Iterable) -> "Matrix":
        vec = list(vec)
        return Matrix(field, len(vec), 1, [[x] for x in vec])

    @staticmethod
    def from_columns(field: FieldSpec, rows: int, vecs: Iterable) -> "Matrix":
        """The rows x len(vecs) matrix whose columns are the given canonical
        vectors (entries are taken as they are, not coerced)."""
        vecs = list(vecs)
        data = [list(r) for r in zip(*vecs)] if vecs else [[] for _ in range(rows)]
        if len(data) != rows:
            raise ValueError("column length does not match the row count")
        return Matrix._of_rows(field, rows, len(vecs), data)

    @staticmethod
    def _of_rows(field: FieldSpec, rows: int, cols: int, data: list) -> "Matrix":
        """Wrap ready rows of canonical entries, without copying or coercing."""
        m = Matrix.__new__(Matrix)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    def copy(self) -> "Matrix":
        return Matrix._of_rows(self.field, self.rows, self.cols,
                               [row[:] for row in self.data])

    def flatten(self) -> list:
        """The entries in row-major order."""
        return [x for row in self.data for x in row]

    def put(self, r0: int, c0: int, block: "Matrix") -> "Matrix":
        """Copy block into self with its top-left entry at (r0, c0); returns
        self, so a block matrix is built as `Matrix(...).put(...)`."""
        for row, brow in zip(self.data[r0: r0 + block.rows], block.data):
            row[c0: c0 + block.cols] = brow
        return self

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "Matrix":
        """The rows x cols submatrix whose top-left entry is (r0, c0)."""
        return Matrix._of_rows(self.field, rows, cols, [
            row[c0: c0 + cols] for row in self.data[r0: r0 + rows]])

    # -- basic algebra ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __add__(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix._of_rows(f, self.rows, self.cols, [
            [f.add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ])

    def __sub__(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix._of_rows(f, self.rows, self.cols, [
            [f.sub(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ])

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.of(c)
        return Matrix._of_rows(f, self.rows, self.cols,
                               [[f.mul(c, a) for a in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        out = Matrix(f, self.rows, other.cols)
        # each row of B as its nonzero (j, b) pairs; out[i] += a * B[k] per nonzero a
        bnz = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.data]
        p = f.p if f.kind == "Fp" else None
        for arow, orow in zip(self.data, out.data):
            hit = False
            for a, brow in zip(arow, bnz):
                if brow and a:
                    hit = True
                    for j, b in brow:
                        orow[j] += a * b
            if hit and p is not None:
                orow[:] = [x % p for x in orow]
        return out

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self) -> "Matrix":
        return Matrix._of_rows(self.field, self.cols, self.rows,
                               [[self.data[i][j] for i in range(self.rows)]
                                for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def col(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._of_rows(self.field, self.rows, self.cols + other.cols,
                               [ra + rb for ra, rb in zip(self.data, other.data)])

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


def offsets(sizes: Iterable[int]) -> list[int]:
    """Where each block starts when blocks of the given sizes are laid end to
    end; one entry more than there are sizes, the last being the total."""
    out = [0]
    for n in sizes:
        out.append(out[-1] + n)
    return out


def hstack_all(field: FieldSpec, mats: list[Matrix], rows: int) -> Matrix:
    offs = offsets(m.cols for m in mats)
    out = Matrix(field, rows, offs[-1])
    for m, j0 in zip(mats, offs):
        out.put(0, j0, m)
    return out


def vstack_all(field: FieldSpec, mats: list[Matrix], cols: int) -> Matrix:
    return Matrix._of_rows(field, sum(m.rows for m in mats), cols,
                           [row[:] for m in mats for row in m.data])


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form; returns (R, pivot columns, rank)."""
    f = m.field
    p = f.p if f.kind == "Fp" else None
    r = m.copy()
    data = r.data
    pivots: list[int] = []
    prow = 0
    for col in range(r.cols):
        sel = None
        for i in range(prow, r.rows):
            if data[i][col]:
                sel = i
                break
        if sel is None:
            continue
        if sel != prow:
            data[sel], data[prow] = data[prow], data[sel]
        lead = data[prow][col]
        if lead != 1:
            inv = f.inv(lead)
            data[prow] = [f.mul(inv, x) if x else x for x in data[prow]]
        pivot_row = data[prow]
        targets = [row for row in data if row[col] and row is not pivot_row]
        if targets:
            # the pivot row is zero left of col; eliminate with its nonzero pairs
            pnz = [(j, v) for j, v in enumerate(pivot_row[col:], col) if v]
            for row_i in targets:
                c = row_i[col]
                if p is None:
                    for j, v in pnz:
                        row_i[j] -= c * v
                else:
                    for j, v in pnz:
                        row_i[j] = (row_i[j] - c * v) % p
        pivots.append(col)
        prow += 1
        if prow == r.rows:
            break
    return r, pivots, len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the right null space {x : m @ x = 0}."""
    f = m.field
    r, pivots, rk = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    out = Matrix(f, m.cols, len(free))
    for k, fc in enumerate(free):
        out.data[fc][k] = f.one
        for prow, pc in enumerate(pivots):
            v = r.data[prow][fc]
            if v:
                out.data[pc][k] = f.neg(v)
    return out


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Some x with a @ x = b, or None when inconsistent.

    Deterministic: free variables are set to zero.  b may have several
    columns; solved jointly.
    """
    if b.rows != a.rows:
        raise ValueError("rhs row count mismatch")
    f = a.field
    aug = a.hstack(b)
    r, pivots, rk = rref(aug)
    for pc in pivots:
        if pc >= a.cols:
            return None  # pivot in the rhs block: inconsistent
    x = Matrix(f, a.cols, b.cols)
    for prow, pc in enumerate(pivots):
        for j in range(b.cols):
            x.data[pc][j] = r.data[prow][a.cols + j]
    return x


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, (a.rows*b.rows) x (a.cols*b.cols)."""
    if a.field != b.field:
        raise ValueError("Kronecker product needs a common field")
    f = a.field
    out = Matrix(f, a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.data[i][j]
            if not aij:
                continue
            for k in range(b.rows):
                brow = b.data[k]
                orow = out.data[i * b.rows + k]
                for l in range(b.cols):
                    if brow[l]:
                        orow[j * b.cols + l] = f.mul(aij, brow[l])
    return out


def column_space_basis(m: Matrix) -> Matrix:
    """Matrix whose columns are the pivot columns of m (a column-space basis)."""
    _, pivots, _ = rref(m)
    out = Matrix(m.field, m.rows, len(pivots))
    for k, pc in enumerate(pivots):
        for i in range(m.rows):
            out.data[i][k] = m.data[i][pc]
    return out


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        return None
    x = solve(m, Matrix.identity(m.field, m.rows))
    if x is None:
        return None
    if (m @ x) != Matrix.identity(m.field, m.rows):
        return None
    return x
