import random
from fractions import Fraction

from fdhom.linalg import (
    GF,
    QQ,
    Matrix,
    column_space_basis,
    hstack_all,
    invert,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    vstack_all,
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
    data = m.data
    if m.rows:
        data[rng.randrange(m.rows)] = [0] * m.cols
    if m.cols:
        j = rng.randrange(m.cols)
        for row in data:
            row[j] = 0
    out = Matrix(m.field, m.rows, m.cols, data)
    if out.rows and out.cols:
        assert any(not any(row) for row in out.data)
        assert any(not any(out.col(j)) for j in range(out.cols))
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


def _is_canonical_rational(x):
    """An int, or a Fraction that is not an integer."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _assert_canonical(m):
    """Dense entries are canonical scalars; stored entries are nonzero, in
    range and canonical too."""
    for row in m.data:
        for x in row:
            if m.field.kind == "Fp":
                assert type(x) is int and 0 <= x < m.field.p
            else:
                assert _is_canonical_rational(x)
    assert len(m.nz) == m.rows
    for d in m.nz:
        for j, x in d.items():
            assert 0 <= j < m.cols
            assert x, "a zero is stored"
            if m.field.kind == "Fp":
                assert type(x) is int and 0 < x < m.field.p
            else:
                assert _is_canonical_rational(x)


def _reference_matmul(a, b):
    fld = a.field
    ad, bd = a.data, b.data
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc += ad[i][k] * bd[k][j]
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


# -- dense references for every sparse operation --------------------------------


def _reference_rref(fld, rows, ncols):
    """Dense Gauss-Jordan elimination, pivoting on the first nonzero entry in
    column order: (R as dense rows, pivot columns)."""
    data = [row[:] for row in rows]
    pivots, prow = [], 0
    for col in range(ncols):
        sel = next((i for i in range(prow, len(data)) if data[i][col]), None)
        if sel is None:
            continue
        data[sel], data[prow] = data[prow], data[sel]
        inv = fld.inv(data[prow][col])
        data[prow] = [fld.mul(inv, x) for x in data[prow]]
        for i, row in enumerate(data):
            if i != prow and row[col]:
                c = row[col]
                data[i] = [fld.sub(x, fld.mul(c, y)) for x, y in zip(row, data[prow])]
        pivots.append(col)
        prow += 1
    return data, pivots


def _columns_to_rows(fld, nrows, cols):
    return [[col[i] for col in cols] for i in range(nrows)] if cols else \
        [[] for _ in range(nrows)]


def _check(m, ref_rows):
    """m agrees with the dense reference, stores no zero and equals (and
    hashes equal to) the matrix built from the reference."""
    assert m.data == ref_rows
    _assert_canonical(m)
    again = Matrix(m.field, m.rows, m.cols, ref_rows)
    assert m == again and hash(m) == hash(again)


def _scalars(rng, fld):
    """Scalars to scale by, the ones that give zero included."""
    out = [0, 1, -1, _random_entry(rng, fld)]
    return out + [fld.p, 2 * fld.p] if fld.kind == "Fp" else out


def test_entrywise_ops_match_dense_reference():
    for rng, fld, a in _oracle_matrices(303):
        b = _random_matrix(rng, fld, a.rows, a.cols, 0.5)
        ad, bd = a.data, b.data
        _check(a + b, [[fld.add(x, y) for x, y in zip(r, s)] for r, s in zip(ad, bd)])
        _check(a - b, [[fld.sub(x, y) for x, y in zip(r, s)] for r, s in zip(ad, bd)])
        zero = [[fld.zero] * a.cols for _ in range(a.rows)]
        _check(a - a, zero)
        _check(a + a.scale(-1), zero)
        _check((a + b) - b, ad)
        for c in _scalars(rng, fld):
            _check(a.scale(c), [[fld.mul(fld.of(c), x) for x in r] for r in ad])


def test_matmul_cancellation_stores_no_zero():
    for fld in ORACLE_FIELDS:
        m1 = fld.neg(fld.one)
        a = Matrix(fld, 2, 2, [[1, 1], [1, 0]])
        b = Matrix(fld, 2, 2, [[1, 1], [m1, 0]])
        prod = a @ b
        _check(prod, _reference_matmul(a, b))
        assert not prod.nz[0].get(0)  # 1*1 + 1*(-1) cancels
    f5 = GF(5)
    prod = Matrix(f5, 1, 2, [[2, 3]]) @ Matrix(f5, 2, 1, [[1], [1]])
    assert prod.is_zero() and prod.nz == [{}]  # 2 + 3 = 0 mod 5


def test_structural_ops_match_dense_reference():
    for rng, fld, a in _oracle_matrices(404):
        ad = a.data
        _check(a.transpose(), [[ad[i][j] for i in range(a.rows)] for j in range(a.cols)])
        assert a.flatten() == {i * a.cols + j: x for i, row in enumerate(ad)
                               for j, x in enumerate(row) if x}
        cols = [{i: row[j] for i, row in enumerate(ad) if row[j]}
                for j in range(a.cols)]
        _check(Matrix.from_columns(fld, a.rows, cols), ad)
        for j in range(a.cols):
            assert a.col(j) == [row[j] for row in ad]
        for i in range(a.rows):
            for j in range(a.cols):
                assert a.get(i, j) == ad[i][j]
        r0, c0 = rng.randint(0, a.rows), rng.randint(0, a.cols)
        nr, nc = rng.randint(0, a.rows - r0), rng.randint(0, a.cols - c0)
        blk = a.block(r0, c0, nr, nc)
        _check(blk, [row[c0: c0 + nc] for row in ad[r0: r0 + nr]])
        # put overwrites: nonzeros under a zero block are cleared
        big = _random_matrix(rng, fld, a.rows + 2, a.cols + 3, 1.0)
        want = big.data
        for i, row in enumerate(ad):
            want[1 + i][2: 2 + a.cols] = row
        _check(big.put(1, 2, a), want)
        b = _random_matrix(rng, fld, a.rows, rng.randint(0, 4), 0.5)
        _check(a.hstack(b), [r + s for r, s in zip(ad, b.data)])
        _check(hstack_all(fld, [a, b, a], a.rows),
               [r + s + r for r, s in zip(ad, b.data)])
        c = _random_matrix(rng, fld, rng.randint(0, 4), a.cols, 0.5)
        _check(vstack_all(fld, [a, c], a.cols), ad + c.data)
        d = _with_zero_lines(rng, _random_matrix(rng, fld, 2, 3, 0.5))
        dd = d.data
        _check(kron(a, d), [[fld.mul(ad[i][j], dd[k][l])
                             for j in range(a.cols) for l in range(d.cols)]
                            for i in range(a.rows) for k in range(d.rows)])


def test_elimination_matches_dense_reference():
    for rng, fld, m in _oracle_matrices(505):
        md = m.data
        ref, ref_pivots = _reference_rref(fld, md, m.cols)
        r, pivots, rk = rref(m)
        _check(r, ref)
        assert pivots == ref_pivots and rk == len(ref_pivots) == rank(m)
        free = [j for j in range(m.cols) if j not in ref_pivots]
        kcols = []
        for fc in free:
            vec = [fld.zero] * m.cols
            vec[fc] = fld.one
            for prow, pc in enumerate(ref_pivots):
                vec[pc] = fld.neg(ref[prow][fc])
            kcols.append(vec)
        _check(kernel_basis(m), _columns_to_rows(fld, m.cols, kcols))
        _check(column_space_basis(m), [[row[pc] for pc in ref_pivots] for row in md])
        for density in (0.5, 1.0):
            b = _random_matrix(rng, fld, m.rows, 2, density)
            aug, aug_pivots = _reference_rref(fld, [r + s for r, s in zip(md, b.data)],
                                              m.cols + 2)
            x = solve(m, b)
            if any(pc >= m.cols for pc in aug_pivots):
                assert x is None
                continue
            want = [[fld.zero] * 2 for _ in range(m.cols)]
            for prow, pc in enumerate(aug_pivots):
                want[pc] = aug[prow][m.cols:]
            _check(x, want)


def test_equal_matrices_hash_equal_whatever_the_insertion_order():
    for rng, fld, m in _oracle_matrices(606):
        reordered = Matrix._of_nz(fld, m.rows, m.cols,
                                  [dict(reversed(list(d.items()))) for d in m.nz])
        assert reordered == m and hash(reordered) == hash(m)
        assert m.transpose().transpose() == m
        assert hash(m.transpose().transpose()) == hash(m)
        if m.rows and m.cols:
            other = Matrix(fld, m.rows, m.cols, m.data)
            other.set(0, 0, fld.one if not m.get(0, 0) else fld.zero)
            assert other != m


def test_set_stores_canonical_nonzeros_and_data_is_a_copy():
    for fld in ORACLE_FIELDS:
        m = Matrix(fld, 2, 2)
        m.set(0, 1, 3)
        assert m.get(0, 1) == fld.of(3)
        m.set(0, 1, 0)
        assert m.nz == [{}, {}] and m.is_zero()
        if fld.kind == "Fp":
            m.set(1, 0, fld.p)  # 0 mod p
            assert m.nz == [{}, {}]
            m.set(1, 0, fld.p + 1)
            assert m.nz[1] == {0: 1}
        m = Matrix.identity(fld, 2)
        dense = m.data
        dense[0][0] = fld.zero
        assert m == Matrix.identity(fld, 2) and m.data != dense


# -- canonical rationals: ints when integral ---------------------------------


def test_integral_rationals_are_stored_as_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    for x in (Fraction(4, 2), "6/3", 2, Fraction(-3)):
        assert type(QQ.of(x)) is int
    assert QQ.of(Fraction(4, 2)) == 2 and QQ.of("1/2") == Fraction(1, 2)
    m = Matrix(QQ, 1, 3, [[Fraction(4, 2), Fraction(1, 2), "-6/3"]])
    assert m.nz == [{0: 2, 1: Fraction(1, 2), 2: -2}]
    assert [type(x) for x in m.nz[0].values()] == [int, Fraction, int]
    m.set(0, 1, Fraction(8, 4))
    assert type(m.get(0, 1)) is int
    _assert_canonical(m)
    # field operations whose result is integral, from non-integral inputs
    half = Fraction(1, 2)
    for got, want in [(QQ.add(half, half), 1), (QQ.sub(Fraction(3, 2), half), 1),
                      (QQ.mul(half, 2), 1), (QQ.inv(half), 2),
                      (QQ.div(3, Fraction(3, 2)), 2), (QQ.inv(-1), -1)]:
        assert got == want and type(got) is int
    assert QQ.inv(-3) == Fraction(-1, 3) and QQ.inv(2) == half


def test_int_and_fraction_built_matrices_are_equal_and_hash_equal():
    rows = [[2, 0, -3], [0, 1, 5]]
    ints = Matrix(QQ, 2, 3, rows)
    fracs = Matrix(QQ, 2, 3, [[Fraction(x) for x in row] for row in rows])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert ints.nz == fracs.nz
    for m in (ints, fracs):
        _assert_canonical(m)


def test_integral_results_of_fractions_are_ints():
    half = Matrix(QQ, 1, 1, [[Fraction(1, 2)]])
    two = Matrix(QQ, 1, 1, [[2]])
    both = Matrix(QQ, 1, 2, [[Fraction(1, 2), Fraction(3, 2)]])
    for got, want in [(half @ two, 1), (two @ half, 1), (half + half, 1),
                      (half.scale(2), 1),
                      (Matrix(QQ, 1, 1, [[Fraction(3, 2)]]) - half, 1),
                      (both @ Matrix(QQ, 2, 1, [[1], [1]]), 2),
                      (kron(half, two), 1)]:
        assert got.nz == [{0: want}] and type(got.get(0, 0)) is int
        _assert_canonical(got)


def test_non_unit_pivots_give_canonical_results():
    half = Fraction(1, 2)
    # pivots 2, 1/2 and -3; clearing column 0 leaves 3/2 - 1/2 = 1 in row 1
    a = Matrix(QQ, 3, 3, [[2, 1, 1], [1, 1, Fraction(3, 2)], [0, 0, -3]])
    r, pivots, rk = rref(a)
    assert (rk, pivots) == (3, [0, 1, 2]) and r == Matrix.identity(QQ, 3)
    _assert_canonical(r)
    inv = invert(a)
    assert a @ inv == Matrix.identity(QQ, 3) == inv @ a
    _assert_canonical(inv)
    b = Matrix(QQ, 3, 2, [[1, half], [0, 2], [-3, Fraction(-1, 3)]])
    x = solve(a, b)
    assert a @ x == b
    _assert_canonical(x)
    # a known inverse: diag(2, 1/2, -3)^-1 = diag(1/2, 2, -1/3), 2 an int
    d = Matrix(QQ, 3, 3, [[2, 0, 0], [0, half, 0], [0, 0, -3]])
    want = Matrix(QQ, 3, 3, [[half, 0, 0], [0, 2, 0], [0, 0, Fraction(-1, 3)]])
    assert invert(d) == want and invert(d).nz == want.nz
    assert type(invert(d).get(1, 1)) is int
    _assert_canonical(invert(d))
    # a singular matrix with the same pivots: its kernel is canonical too
    s = Matrix(QQ, 2, 3, [[2, 4, 1], [half, 1, -3]])
    r, pivots, rk = rref(s)
    assert rk == 2 and pivots == [0, 2]
    assert r.nz == [{0: 1, 1: 2}, {2: 1}]
    _assert_canonical(r)
    k = kernel_basis(s)
    assert k.cols == 1 and (s @ k).is_zero() and k.nz == [{0: -2}, {0: 1}, {}]
    _assert_canonical(k)
    assert column_space_basis(s) == Matrix(QQ, 2, 2, [[2, 1], [half, -3]])
