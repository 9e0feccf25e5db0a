"""Exact sparse linear algebra over QQ and prime fields.

Scalars are canonical.  Over QQ a value is an `int` when it is integral and a
`fractions.Fraction` with denominator != 1 otherwise; over F_p it is a
residue, an int in [0, p).  `FieldSpec` returns canonical values and every
operation here stores them, so each value has one form, and QQ arithmetic on
integer structure constants, with pivots of +-1, stays in Python ints.  A
`Matrix` stores only its nonzero entries, one {column: value} dict per row,
so products, elimination and every other operation loop over stored entries
only.  Pivoting is deterministic (first nonzero entry in column order) so
every basis produced downstream is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


def _q(x):
    """The canonical form of a rational: an int when it is integral."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals, or F_p for a prime p."""

    kind: str  # "Q" or "Fp"
    p: Optional[int] = None
    zero = 0  # class constants, not fields: canonical in both kinds
    one = 1

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rationals take no modulus")
        elif self.kind == "Fp":
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise ValueError(f"modulus must be prime, got {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

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
        return x if type(x) is int else _q(Fraction(x))

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else _q(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else _q(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else _q(a * b)

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        if self.kind == "Fp":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return a if a == 1 or a == -1 else _q(1 / Fraction(a))

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
    """Sparse matrix with exact entries, immutable by convention after build.

    `nz[i]` maps each column j with a nonzero entry in row i to that entry.
    No zero is ever stored and every entry is a canonical scalar (see the
    module docstring: integral rationals are ints, F_p entries are reduced),
    so equal matrices have equal `nz`.  `data` is a dense copy for reading;
    write with `set` or `put`.
    """

    __slots__ = ("field", "rows", "cols", "nz")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.nz = [{} for _ in range(rows)]
        else:
            entries = [list(row) for row in entries]
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match the declared shape")
            of = field.of
            self.nz = [{j: y for j, y in enumerate(map(of, row)) if y}
                       for row in entries]

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        one = field.one
        return Matrix._of_nz(field, n, n, [{i: one} for i in range(n)])

    @staticmethod
    def zero(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols)

    @staticmethod
    def column(field: FieldSpec, vec: Iterable) -> "Matrix":
        vec = list(vec)
        return Matrix(field, len(vec), 1, [[x] for x in vec])

    @staticmethod
    def from_columns(field: FieldSpec, rows: int, vecs: Iterable) -> "Matrix":
        """The rows x len(vecs) matrix whose columns are the given sparse
        vectors {row: nonzero canonical value} (taken as they are, not
        coerced)."""
        vecs = list(vecs)
        nz = [{} for _ in range(rows)]
        for k, vec in enumerate(vecs):
            for i, x in vec.items():
                if not 0 <= i < rows:
                    raise ValueError("column entry outside the row count")
                nz[i][k] = x
        return Matrix._of_nz(field, rows, len(vecs), nz)

    @staticmethod
    def _of_rows(field: FieldSpec, rows: int, cols: int, data: list) -> "Matrix":
        """The matrix of ready dense rows of canonical entries (not coerced)."""
        return Matrix._of_nz(field, rows, cols, [
            {j: x for j, x in enumerate(row) if x} for row in data])

    @staticmethod
    def _of_nz(field: FieldSpec, rows: int, cols: int, nz: list) -> "Matrix":
        """Wrap ready row dicts of nonzero canonical entries, without copying."""
        m = Matrix.__new__(Matrix)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.nz = nz
        return m

    @property
    def data(self) -> list:
        """A dense copy of the entries, zeros included, as a list of rows;
        writing to it does not change the matrix."""
        z, cols = self.field.zero, self.cols
        out = []
        for d in self.nz:
            row = [z] * cols
            for j, x in d.items():
                row[j] = x
            out.append(row)
        return out

    def get(self, i: int, j: int):
        return self.nz[i].get(j, self.field.zero)

    def set(self, i: int, j: int, x) -> None:
        """Set entry (i, j) to x, coerced to a canonical scalar."""
        x = self.field.of(x)
        if x:
            self.nz[i][j] = x
        else:
            self.nz[i].pop(j, None)

    def flatten(self) -> dict:
        """The nonzero entries in row-major order, as the sparse vector
        {i * cols + j: entry (i, j)}."""
        cols = self.cols
        return {i * cols + j: x for i, d in enumerate(self.nz)
                for j, x in d.items()}

    def put(self, r0: int, c0: int, block: "Matrix") -> "Matrix":
        """Copy block into self with its top-left entry at (r0, c0); returns
        self, so a block matrix is built as `Matrix(...).put(...)`."""
        c1 = c0 + block.cols
        for d, bd in zip(self.nz[r0: r0 + block.rows], block.nz):
            for j in [j for j in d if c0 <= j < c1]:
                del d[j]
            d.update({c0 + j: x for j, x in bd.items()} if c0 else bd)
        return self

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "Matrix":
        """The rows x cols submatrix whose top-left entry is (r0, c0)."""
        c1 = c0 + cols
        return Matrix._of_nz(self.field, rows, cols, [
            {j - c0: x for j, x in d.items() if c0 <= j < c1}
            for d in self.nz[r0: r0 + rows]])

    # -- basic algebra ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nz == other.nz
        )

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(d.items()) for d in self.nz)))

    def _plus(self, other: "Matrix", c) -> "Matrix":
        """self + c * other, for a nonzero scalar c."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        p = self.field.p
        out = []
        for da, db in zip(self.nz, other.nz):
            d = da.copy()
            for j, y in db.items():
                x = d.get(j, 0) + c * y
                x = x % p if p is not None else _q(x)
                if x:
                    d[j] = x
                else:
                    del d[j]
            out.append(d)
        return Matrix._of_nz(self.field, self.rows, self.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.one)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.neg(self.field.one))

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.of(c)
        if not c:
            return Matrix(f, self.rows, self.cols)
        p = f.p
        if p is None:
            nz = [{j: _q(c * x) for j, x in d.items()} for d in self.nz]
        else:
            nz = [{j: c * x % p for j, x in d.items()} for d in self.nz]
        return Matrix._of_nz(f, self.rows, self.cols, nz)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        p = self.field.p
        bnz = other.nz
        out = []
        for arow in self.nz:
            if len(arow) == 1:
                # one term: a product of nonzeros, so nothing cancels
                (k, a), = arow.items()
                brow = bnz[k]
                if a == 1:
                    out.append(brow.copy())
                elif p is None:
                    out.append({j: _q(a * b) for j, b in brow.items()})
                else:
                    out.append({j: a * b % p for j, b in brow.items()})
                continue
            acc = {}
            for k, a in arow.items():
                for j, b in bnz[k].items():
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            if not acc:
                out.append(acc)
            elif p is None:
                out.append({j: _q(x) for j, x in acc.items() if x})
            else:
                out.append({j: r for j, x in acc.items() if (r := x % p)})
        return Matrix._of_nz(self.field, self.rows, other.cols, out)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, d in enumerate(self.nz):
            for j, x in d.items():
                out[j][i] = x
        return Matrix._of_nz(self.field, self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self.nz)

    def col(self, j: int) -> list:
        z = self.field.zero
        return [d.get(j, z) for d in self.nz]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return hstack_all(self.field, [self, other], self.rows)

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
    out = [{} for _ in range(rows)]
    for m, j0 in zip(mats, offs):
        for d, md in zip(out, m.nz):
            if md:
                d.update({j0 + j: x for j, x in md.items()} if j0 else md)
    return Matrix._of_nz(field, rows, offs[-1], out)


def vstack_all(field: FieldSpec, mats: list[Matrix], cols: int) -> Matrix:
    return Matrix._of_nz(field, sum(m.rows for m in mats), cols,
                         [d.copy() for m in mats for d in m.nz])


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form; returns (R, pivot columns, rank)."""
    f = m.field
    p = f.p
    data = [d.copy() for d in m.nz]
    nrows = m.rows
    pivots: list[int] = []
    prow = 0
    # elimination only writes to columns some row already holds
    for col in sorted(set().union(*data)):
        sel = None
        for i in range(prow, nrows):
            if col in data[i]:
                sel = i
                break
        if sel is None:
            continue
        if sel != prow:
            data[sel], data[prow] = data[prow], data[sel]
        pivot_row = data[prow]
        lead = pivot_row[col]
        if lead != 1:
            inv = f.inv(lead)
            if p is None:
                pivot_row = {j: _q(inv * x) for j, x in pivot_row.items()}
            else:
                pivot_row = {j: inv * x % p for j, x in pivot_row.items()}
            data[prow] = pivot_row
        # the pivot row is zero left of col; clear col in every other row
        # with the pivot row's entries right of it
        rest = [(j, v) for j, v in pivot_row.items() if j != col]
        for row_i in data:
            if row_i is pivot_row:
                continue
            c = row_i.pop(col, None)
            if c is None:
                continue
            for j, v in rest:
                x = row_i.get(j, 0) - c * v
                x = x % p if p is not None else _q(x)
                if x:
                    row_i[j] = x
                else:
                    del row_i[j]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return Matrix._of_nz(f, m.rows, m.cols, data), pivots, len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the right null space {x : m @ x = 0}."""
    f = m.field
    r, pivots, rk = rref(m)
    pivot_set = set(pivots)
    free = {fc: k for k, fc in enumerate(j for j in range(m.cols)
                                         if j not in pivot_set)}
    out = [{} for _ in range(m.cols)]
    for fc, k in free.items():
        out[fc][k] = f.one
    for row, pc in zip(r.nz, pivots):
        # a reduced pivot row holds its pivot 1 and entries in free columns
        out[pc] = {free[j]: f.neg(v) for j, v in row.items() if j != pc}
    return Matrix._of_nz(f, m.cols, len(free), out)


def kernel_coords(basis: Matrix) -> Matrix:
    """C with C @ basis = I for a `kernel_basis` result, with no solve.

    The row of the basis at the k-th free column is the unit vector e_k, and
    it is the last row with an entry in column k: a pivot row holds entries
    only in free columns right of its pivot.  C picks those rows."""
    last = {}
    for r, row in enumerate(basis.nz):
        for k in row:
            last[k] = r
    one = basis.field.one
    return Matrix._of_nz(basis.field, basis.cols, basis.rows,
                         [{last[k]: one} for k in range(basis.cols)])


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Some x with a @ x = b, or None when inconsistent.

    Deterministic: free variables are set to zero.  b may have several
    columns; solved jointly.
    """
    if b.rows != a.rows:
        raise ValueError("rhs row count mismatch")
    n = a.cols
    r, pivots, rk = rref(a.hstack(b))
    if pivots and pivots[-1] >= n:
        return None  # pivot in the rhs block: inconsistent
    x = [{} for _ in range(n)]
    for row, pc in zip(r.nz, pivots):
        x[pc] = {j - n: v for j, v in row.items() if j >= n}
    return Matrix._of_nz(a.field, n, b.cols, x)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, (a.rows*b.rows) x (a.cols*b.cols)."""
    if a.field != b.field:
        raise ValueError("Kronecker product needs a common field")
    f = a.field
    out = []
    for arow in a.nz:
        for brow in b.nz:
            out.append({j * b.cols + l: f.mul(x, y)
                        for j, x in arow.items() for l, y in brow.items()})
    return Matrix._of_nz(f, a.rows * b.rows, a.cols * b.cols, out)


def column_space_basis(m: Matrix) -> Matrix:
    """Matrix whose columns are the pivot columns of m (a column-space basis)."""
    _, pivots, _ = rref(m)
    at = {pc: k for k, pc in enumerate(pivots)}
    return Matrix._of_nz(m.field, m.rows, len(pivots), [
        {at[j]: x for j, x in d.items() if j in at} for d in m.nz])


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
