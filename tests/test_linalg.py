import random
from fractions import Fraction

from fdhom.linalg import (
    GF,
    QQ,
    Matrix,
    invert,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
)


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    r, pivots, rk = rref(m)
    assert r == m
    assert pivots == [0, 1, 2]
    assert rk == 3


def test_rref_zero():
    m = Matrix.zero(QQ, 2, 5)
    r, pivots, rk = rref(m)
    assert r == m
    assert rk == 0


def test_rref_rank_one():
    m = Matrix(QQ, 2, 2, [[1, 2], [2, 4]])
    r, pivots, rk = rref(m)
    assert rk == 1
    assert pivots == [0]
    assert r.data[0] == [1, 2]
    assert r.data[1] == [0, 0]


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(QQ, rows, cols, [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        r1, _, _ = rref(m)
        r2, _, _ = rref(r1)
        assert r1 == r2


def test_kernel_identity_empty():
    k = kernel_basis(Matrix.identity(QQ, 4))
    assert k.cols == 0


def test_kernel_zero_full():
    k = kernel_basis(Matrix.zero(QQ, 2, 3))
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_gf5():
    m = Matrix(GF(5), 1, 2, [[1, 1]])
    k = kernel_basis(m)
    assert k.cols == 1
    assert (m @ k).is_zero()


def test_rank_nullity_random():
    rng = random.Random(3)
    for _ in range(30):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        fld = QQ if rng.random() < 0.5 else GF(7)
        m = Matrix(fld, rows, cols, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        k = kernel_basis(m)
        assert rank(m) + k.cols == cols
        if k.cols:
            assert (m @ k).is_zero()


def test_solve_identity():
    b = Matrix(QQ, 3, 1, [[5], [-2], [7]])
    x = solve(Matrix.identity(QQ, 3), b)
    assert x == b


def test_solve_inconsistent():
    a = Matrix.zero(QQ, 2, 2)
    b = Matrix(QQ, 2, 1, [[1], [0]])
    assert solve(a, b) is None


def test_solve_free_variables_zero():
    a = Matrix(QQ, 2, 2, [[1, 2], [2, 4]])
    b = Matrix(QQ, 2, 1, [[1], [2]])
    x = solve(a, b)
    assert x.data == [[1], [0]]
    assert a @ x == b


def test_solve_exact_random():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = Matrix(QQ, rows, cols, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        xt = Matrix(QQ, cols, 1, [[rng.randint(-3, 3)] for _ in range(cols)])
        b = a @ xt
        x = solve(a, b)
        assert x is not None
        assert a @ x == b


def test_kron_identities():
    assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)
    z = kron(Matrix.zero(QQ, 2, 2), Matrix(QQ, 2, 2, [[1, 2], [3, 4]]))
    assert z.is_zero()
    assert kron(Matrix(QQ, 1, 1, [[2]]), Matrix(QQ, 1, 1, [[3]])).data == [[6]]


def test_kron_mixed_product():
    rng = random.Random(5)
    for _ in range(10):
        a = Matrix(QQ, 2, 3, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)])
        c = Matrix(QQ, 3, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)])
        b = Matrix(QQ, 2, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        d = Matrix(QQ, 2, 3, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)])
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_invert():
    m = Matrix(QQ, 2, 2, [[1, 1], [0, 1]])
    mi = invert(m)
    assert m @ mi == Matrix.identity(QQ, 2)
    assert invert(Matrix(QQ, 2, 2, [[1, 2], [2, 4]])) is None


# -- oracle checks of the zero-skipping loops ---------------------------------

ORACLE_FIELDS = (QQ, GF(2), GF(32003))
DENSITIES = (0.0, 0.1, 0.5, 1.0)


def _random_entry(rng, fld):
    if fld.kind == "Fp":
        return rng.randrange(1, fld.p)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))


def _random_matrix(rng, fld, rows, cols, density):
    return Matrix(fld, rows, cols, [
        [_random_entry(rng, fld) if rng.random() < density else 0
         for _ in range(cols)] for _ in range(rows)])


def _with_zero_lines(rng, m):
    """Copy of m with one random row and one random column set to zero."""
    out = m.copy()
    if out.rows:
        out.data[rng.randrange(out.rows)] = [out.field.zero] * out.cols
    if out.cols:
        j = rng.randrange(out.cols)
        for row in out.data:
            row[j] = out.field.zero
    return out


def _oracle_matrices(seed):
    """Seeded (rng, field, matrix) draws over all densities, shapes from 0x0 up."""
    rng = random.Random(seed)
    for fld in ORACLE_FIELDS:
        for density in DENSITIES:
            for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (5, 3), (3, 6)]:
                m = _random_matrix(rng, fld, rows, cols, density)
                yield rng, fld, m
                yield rng, fld, _with_zero_lines(rng, m)


def _assert_canonical(m):
    for row in m.data:
        for x in row:
            if m.field.kind == "Fp":
                assert type(x) is int and 0 <= x < m.field.p
            else:
                assert type(x) is Fraction


def _reference_matmul(a, b):
    fld = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc += a.data[i][k] * b.data[k][j]
            row.append(acc % fld.p if fld.kind == "Fp" else Fraction(acc))
        out.append(row)
    return out


def test_matmul_matches_triple_loop():
    for rng, fld, a in _oracle_matrices(101):
        for inner_density in DENSITIES:
            cols = rng.randint(0, 5)
            b = _with_zero_lines(rng, _random_matrix(rng, fld, a.cols, cols, inner_density))
            prod = a @ b
            assert prod.shape == (a.rows, cols)
            assert prod.data == _reference_matmul(a, b)
            _assert_canonical(prod)


def test_rref_kernel_solve_identities():
    for rng, fld, m in _oracle_matrices(202):
        r, pivots, rk = rref(m)
        _assert_canonical(r)
        assert rref(r)[0] == r
        for row, pc in enumerate(pivots):
            assert r.data[row][pc] == fld.one
            assert all(not r.data[i][pc] for i in range(m.rows) if i != row)
        k = kernel_basis(m)
        _assert_canonical(k)
        assert k.shape == (m.cols, m.cols - rk)
        assert rank(k) == k.cols
        assert (m @ k).is_zero()
        x_true = _random_matrix(rng, fld, m.cols, 2, 0.5)
        b = m @ x_true
        x = solve(m, b)
        assert x is not None
        _assert_canonical(x)
        assert m @ x == b
