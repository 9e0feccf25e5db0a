"""Sparse elements and structure constants, against dense oracles.

An algebra element is a dict {basis index: nonzero coefficient}, and the
table stores `mult[s][t]`, the element b_s b_t, only when it is nonzero.
The full dense table of each algebra is built in this file from the sparse
one (`dense_table`), and every computation checked here (products, right
multiplication, actions, summand elements, endomorphism blocks, projective
modules, idempotent quotients, Cartan matrices, primitive idempotents,
`_verify`, `_coord_summands_from_elements` and the J^2 of
`homogeneous_generators`) is repeated on dense coefficient lists by code in
this file, on the path algebras the suite builds, their opposites and the
Auslander algebras of `test_radical`, over QQ and GF(3).  The elements tried
include one whose only nonzero coefficient sits at index 0, which a
truthiness test written `any(x)` on a dict would take for zero.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

import fdhom.algebra
from fdhom.algebra import (
    FDAlgebra,
    PathExpr,
    Quiver,
    _linear_combination,
    build_path_algebra,
    opposite,
    primitive_idempotents,
    quotient_by_idempotent_ideal,
)
from fdhom.cli import load_algebra
from fdhom.endalg import end_algebra
from fdhom.errors import Inconclusive
from fdhom.linalg import GF, QQ, Matrix, column_space_basis
from fdhom.modules import (
    _coord_summands_from_elements,
    _left_inverse,
    _nontrivial_idempotent_endo,
    _random_coeffs,
    _summand_element,
    cartan_matrix,
    direct_sum,
    hom_basis,
    projective_module,
    regular_module,
)
from fdhom.subcats import knit_indecomposables
from test_algebra import _rebased
from test_cover_span import gaussian_rationals
from test_radical import AUSLANDER_BASES, PATH_ALGEBRAS, auslander_algebra

FIELDS = (QQ, GF(3))


def dense(a, x):
    """The element x as its list of a.dim coefficients."""
    return [x.get(r, a.field.zero) for r in range(a.dim)]


def sparse(v):
    return {r: c for r, c in enumerate(v) if c}


def dense_table(a):
    """Entry [s][t]: b_s b_t as a full list of coefficients, zeros included."""
    return [[dense(a, a.mult[s].get(t, {})) for t in range(a.dim)]
            for s in range(a.dim)]


def dense_multiply(a, table, x, y):
    """x * y for dense x and y, as the sum of x_s y_t b_s b_t over the full
    rows of the dense table."""
    f = a.field
    out = [f.zero] * a.dim
    ys = [(t, yt) for t, yt in enumerate(y) if yt]
    for s, xs in enumerate(x):
        if xs:
            for t, yt in ys:
                c = f.mul(xs, yt)
                out = [f.add(u, f.mul(c, v)) for u, v in zip(out, table[s][t])]
    return out


def dense_basis(a):
    f = a.field
    return [[f.one if r == k else f.zero for r in range(a.dim)] for k in range(a.dim)]


def dense_columns(f, rows, cols):
    """The matrix whose columns are the given dense lists."""
    return Matrix(f, rows, len(cols), [[c[i] for c in cols] for i in range(rows)])


class DenseSpan:
    """Row echelon form of dense vectors, each row scaled to 1 at its first
    nonzero entry; the reference for the coordinates modulo a span."""

    def __init__(self, f, n, vecs):
        self.f, self.n, self.rows = f, n, []
        for v in vecs:
            self.add(v)

    def reduce(self, v):
        f = self.f
        w = list(v)
        for row in self.rows:
            c = w[self.pivot(row)]
            if c:
                w = [f.sub(x, f.mul(c, y)) for x, y in zip(w, row)]
        return w

    def add(self, v):
        w = self.reduce(v)
        if any(w):
            inv = self.f.inv(w[self.pivot(w)])
            self.rows.append([self.f.mul(inv, x) for x in w])
            self.rows.sort(key=self.pivot)

    @staticmethod
    def pivot(v):
        return next(k for k, x in enumerate(v) if x)

    def free(self):
        pivots = {self.pivot(r) for r in self.rows}
        return [k for k in range(self.n) if k not in pivots]

    def quotient_coords(self, v):
        w = self.reduce(v)
        return [w[k] for k in self.free()]


def reversed_basis(a):
    """The same algebra given only by structure constants, with its basis in
    reverse order: b_0 of a path algebra is then a longest path, in the
    radical, and no longer the idempotent e_0."""
    n = a.dim

    def rev(x):
        return {n - 1 - r: c for r, c in x.items()}

    mult = [{n - 1 - t: rev(x) for t, x in a.mult[n - 1 - s].items()}
            for s in range(n)]
    return FDAlgebra(a.field, a.basis_labels[::-1], mult, rev(a.unit),
                     [rev(e) for e in a.idempotents], origin="structure-constants")


def suite_algebras(field):
    """(name, algebra) for every path algebra of the suite, its opposite and
    the Auslander algebras of kA_3, kA_4 and preprojective A_2; and some of
    them in a random basis, where the structure constants are not all 0 or 1
    and the idempotents are not basis vectors, or in the reverse order."""
    for name in sorted(PATH_ALGEBRAS):
        a = PATH_ALGEBRAS[name](field)
        yield name, a
        yield name + "^op", a.op
    for name in AUSLANDER_BASES:
        yield "Gamma " + name, auslander_algebra(name, field)
    for name in ("kA3", "preprojective-A2"):
        yield name + " rebased", _rebased(PATH_ALGEBRAS[name](field), seed=1)[0]
    yield "Gamma kA3 rebased", _rebased(auslander_algebra("kA3", field), seed=1)[0]
    for name in ("kA3", "preprojective-A2"):
        yield name + " reversed", reversed_basis(PATH_ALGEBRAS[name](field))


def sample_elements(a, rng, count=4):
    """Dense elements: the basis, the unit, the idempotents, a multiple of
    b_0 alone and a few random combinations."""
    f = a.field
    out = dense_basis(a) + [dense(a, a.unit)] + [dense(a, e) for e in a.idempotents]
    out.append([f.of(2)] + [f.zero] * (a.dim - 1))
    out += [[f.of(rng.choice([0, 0, 1, -1, 2])) for _ in range(a.dim)]
            for _ in range(count)]
    return out


def dense_projective_action(a, table, i):
    """The action matrices of A e_i as coords @ (L_b @ basis), all from the
    dense table: column k of L_b is b_b b_k, and the columns of basis span
    the products b_k e_i."""
    f, e = a.field, dense(a, a.idempotents[i])
    basis = column_space_basis(dense_columns(
        f, a.dim, [dense_multiply(a, table, b, e) for b in dense_basis(a)]))
    coords = _left_inverse(basis)
    return [coords @ (dense_columns(f, a.dim, row) @ basis) for row in table]


def assert_canonical(f, n, x):
    """x is a sparse vector of length n: a dict of int keys in range(n) and
    nonzero canonical values (reduced ints over F_p; over QQ ints when
    integral and Fractions with denominator != 1 otherwise)."""
    assert type(x) is dict
    for r, c in x.items():
        assert type(r) is int and 0 <= r < n
        assert c, "a zero is stored"
        if f.kind == "Fp":
            assert type(c) is int and 0 < c < f.p
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_canonical_algebra(a):
    """Every table entry, the unit, the idempotents, the generators and the
    radical basis are canonical elements; the table stores no zero product."""
    assert type(a.mult) is list and len(a.mult) == a.dim
    for row in a.mult:
        assert type(row) is dict
        for t, x in row.items():
            assert type(t) is int and 0 <= t < a.dim
            assert x, "a zero product is stored"
            assert_canonical(a.field, a.dim, x)
    for x in [a.unit, *a.idempotents, *a.generator_vectors(), *a.radical_basis()]:
        assert_canonical(a.field, a.dim, x)


def test_verify_rejects_a_corruption_missed_by_a_sample_of_triples():
    # one structure constant of Gamma of kA_4 (dim 35) changed: b_8 b_32
    # gains b_1.  The unit and idempotent laws still hold, and associativity
    # fails on 9 of the 42,875 triples, none of them in a sample of 2000
    # random triples (seed 0): only an exhaustive check finds it
    g = auslander_algebra("kA4", QQ)
    n = g.dim
    assert n == 35
    mult = dense_table(g)
    mult[8][32][1] += 1

    def combine(terms):
        return [sum(c * v[t] for c, v in terms) for t in range(n)]

    def assoc(i, j, k):
        left = combine([(c, mult[r][k]) for r, c in enumerate(mult[i][j]) if c])
        right = combine([(c, mult[i][s]) for s, c in enumerate(mult[j][k]) if c])
        return left == right

    rng = random.Random(0)
    sample = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
              for _ in range(2000)]
    assert all(assoc(*t) for t in sample)
    assert not assoc(8, 32, 4)
    table = [{t: sparse(v) for t, v in enumerate(row) if any(v)} for row in mult]
    with pytest.raises(ValueError, match=r"associativity fails on \(0,8,32\)"):
        FDAlgebra(QQ, g.basis_labels, table, g.unit, g.idempotents,
                  origin="structure-constants")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_projective_actions_match_dense_products(field):
    for name, a in suite_algebras(field):
        table = dense_table(a)
        for i in range(len(a.idempotents)):
            got = projective_module(a, i).action
            want = dense_projective_action(a, table, i)
            assert got == want, (name, i)
            assert [[type(x) for row in m.data for x in row] for m in got] \
                == [[type(x) for row in m.data for x in row] for m in want]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coord_summands_match_dense_multiply(field):
    for name, a in suite_algebras(field):
        table = dense_table(a)
        basis = dense_basis(a)
        idems = [dense(a, e) for e in a.idempotents]
        elements = basis + [dense(a, a.unit)] + [dense_multiply(a, table, b, e)
                                                 for b in basis for e in idems]
        for b in elements:
            hits = [v for v, e in enumerate(idems)
                    if dense_multiply(a, table, b, e) == b]
            want = hits if len(hits) == 1 else None
            assert _coord_summands_from_elements(a, [sparse(b)]) == want, name
        want = [_coord_summands_from_elements(a, [sparse(b)]) for b in basis]
        want = None if None in want else [v for v, in want]
        assert _coord_summands_from_elements(a, list(map(sparse, basis))) == want, name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_homogeneous_generators_match_a_dense_radical_square(field):
    for name, a in suite_algebras(field):
        table = dense_table(a)
        rad = [dense(a, x) for x in a.radical_basis()]
        idems = [dense(a, e) for e in a.idempotents]
        pieces = []
        for g in rad:
            for w, ew in enumerate(idems):
                for v, ev in enumerate(idems):
                    piece = dense_multiply(a, table, dense_multiply(a, table, ew, g), ev)
                    if any(piece):
                        pieces.append((v, w, piece))
        red = DenseSpan(field, a.dim, [dense_multiply(a, table, x, y)
                                       for x in rad for y in rad])
        want = []
        for v, w, g in pieces:
            if any(red.reduce(g)):
                red.add(g)
                want.append((v, w, sparse(g)))
        assert a.homogeneous_generators() == want, name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_products_and_right_multiplication_match_the_dense_table(field):
    rng = random.Random(5)
    for name, a in suite_algebras(field):
        table = dense_table(a)
        elements = sample_elements(a, rng)
        for x in elements:
            for y in rng.sample(elements, min(4, len(elements))):
                assert a.multiply(sparse(x), sparse(y)) \
                    == sparse(dense_multiply(a, table, x, y)), name
            # column k of the right multiplication by x is b_k x
            assert a.right_mult(sparse(x)) == dense_columns(
                field, a.dim, [dense_multiply(a, table, b, x)
                               for b in dense_basis(a)]), name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_actions_and_summand_elements_match_dense_sums(field):
    rng = random.Random(6)
    for name, a in suite_algebras(field):
        nv = len(a.idempotents)
        p, _, _ = direct_sum([projective_module(a, v % nv) for v in range(nv + 1)])
        for m in (regular_module(a), p):
            for x in sample_elements(a, rng):
                want = Matrix(field, m.dim, m.dim)
                for i, c in enumerate(x):
                    if c:
                        want = want + m.action[i].scale(c)
                assert m.act_vec(sparse(x)) == want, name
        # a vector of p whose summand c holds the element sum vec_j b_j
        vecs = [[field.of(2)] + [field.zero] * (p.dim - 1)]
        vecs += [[field.of(rng.choice([0, 1, -1, 2])) for _ in range(p.dim)]
                 for _ in range(3)]
        for vec in vecs:
            for c in range(len(p.proj_summands)):
                want = [field.zero] * a.dim
                for x, s, b in zip(vec, p.coord_summand, p.basis_elements):
                    if s == c:
                        want = [field.add(u, field.mul(x, v))
                                for u, v in zip(want, dense(a, b))]
                assert _summand_element(p, vec, c) == sparse(want), name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_element_blocks_match_dense_sums(field):
    rng = random.Random(7)
    for name in ("kA3", "preprojective-A2"):
        inds, complete = knit_indecomposables(PATH_ALGEBRAS[name](field))
        assert complete
        data = end_algebra(inds)
        g = data.algebra
        for x in sample_elements(g, rng):
            for i in range(len(inds)):
                for j in range(len(inds)):
                    want = Matrix(field, inds[j].dim, inds[i].dim)
                    for k, c in enumerate(x):
                        ti, tj, idx = data.basis_tags[k]
                        if c and (ti, tj) == (i, j):
                            want = want + data.hom[(i, j)][idx].matrix.scale(c)
                    assert data.element_block(sparse(x), i, j) == want, name


def dense_quotient(a, table, span):
    """A / span for a dense ideal basis: the dense table, unit, idempotents
    and projection of the quotient, in the coordinates modulo the span."""
    red = DenseSpan(a.field, a.dim, span)
    free = red.free()
    basis = dense_basis(a)
    q_table = [[red.quotient_coords(table[s][t]) for t in free] for s in free]
    idems = [x for e in a.idempotents
             if any(x := red.quotient_coords(dense(a, e)))]
    proj = dense_columns(a.field, len(free), [red.quotient_coords(b) for b in basis])
    return q_table, red.quotient_coords(dense(a, a.unit)), idems, proj


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_quotients_and_cartan_matrices_match_dense_spans(field):
    for name, a in suite_algebras(field):
        table = dense_table(a)
        basis = dense_basis(a)
        idems = [dense(a, e) for e in a.idempotents]
        for e_indices in ([0], [0, len(idems) - 1]):
            span = [dense_multiply(a, table, x, bj) for v in e_indices for bi in basis
                    if any(x := dense_multiply(a, table, bi, idems[v])) for bj in basis]
            q, pm = quotient_by_idempotent_ideal(a, e_indices)
            q_table, unit, q_idems, proj = dense_quotient(a, table, span)
            assert (dense_table(q), dense(q, q.unit), pm) == (q_table, unit, proj), name
            assert [dense(q, e) for e in q.idempotents] == q_idems, name
        want = [[len(DenseSpan(field, a.dim, [
            dense_multiply(a, table, ej, dense_multiply(a, table, b, ei))
            for b in basis]).rows) for ej in idems] for ei in idems]
        assert cartan_matrix(a) == want, name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_primitive_idempotents_of_a_non_path_algebra_match_dense_checks(field):
    cases = [("k^3", PATH_ALGEBRAS["k^3"](field)),
             ("kA3", PATH_ALGEBRAS["kA3"](field)),
             ("Gamma kA3", auslander_algebra("kA3", field))]
    for name, a in cases:
        for seed in (0, 1):
            b = _rebased(a, seed=seed)[0] if a.origin == "path-algebra" else a
            table = dense_table(b)
            idems = primitive_idempotents(b, seed=seed)
            assert len(idems) == len(a.idempotents), name
            d = [dense(b, e) for e in idems]
            total = [field.zero] * b.dim
            for i, e in enumerate(d):
                assert dense_multiply(b, table, e, e) == e, name
                for j, e2 in enumerate(d):
                    if i != j:
                        assert not any(dense_multiply(b, table, e, e2)), name
                total = [field.add(u, v) for u, v in zip(total, e)]
            assert total == dense(b, b.unit), name
            # in the order of the dense string sort
            assert d == sorted(d, key=lambda v: [str(x) for x in v]), name


def same_up_to_one_permutation(c, d):
    """d[i][j] == c[s(i)][s(j)] for one permutation s of the rows and
    columns at once."""
    n = len(c)
    return len(d) == n and any(
        all(d[i][j] == c[s[i]][s[j]] for i in range(n) for j in range(n))
        for s in itertools.permutations(range(n)))


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=str)
def test_primitive_idempotents_rebuild_the_cartan_matrix(field):
    # oracle: the algebra rebuilt with the found idempotents as its family
    # has the Cartan matrix of the stored family, up to relabelling vertices
    cases = [("kA3", _rebased(PATH_ALGEBRAS["kA3"](field), seed=1)[0]),
             ("D4", _rebased(PATH_ALGEBRAS["D4"](field), seed=2)[0]),
             ("Gamma kA3", auslander_algebra("kA3", field))]
    for name, a in cases:
        assert a.origin != "path-algebra", name
        idems = primitive_idempotents(a, seed=0)
        b = FDAlgebra(field, a.basis_labels, a.mult, a.unit, idems,
                      origin="structure-constants")
        assert same_up_to_one_permutation(cartan_matrix(a), cartan_matrix(b)), name


def test_primitive_idempotents_of_the_gaussian_rationals_are_inconclusive():
    # QQ(i) is a division algebra of dim 2: no element has a split minimal
    # polynomial, and it is not local with residue field QQ
    with pytest.raises(Inconclusive):
        primitive_idempotents(gaussian_rationals())


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_stored_element_is_canonical(field, tmp_path):
    for name, a in suite_algebras(field):
        for alg in (a, a.op):
            assert_canonical_algebra(alg)
        if a.dim and a.idempotents:
            assert_canonical_algebra(quotient_by_idempotent_ideal(a, [0])[0])
    # k[x]/(x^2) with zeros, and with its coefficients 1 written as 4 and
    # -2 over GF(3) and as 2/2 and 6/6 over QQ
    one, other = (4, -2) if field.kind == "Fp" else ("2/2", "6/6")
    doc = {
        "version": 1,
        "field": {"kind": "Q"} if field.kind == "Q" else {"kind": "Fp", "p": field.p},
        "basis": ["1", "x"],
        "mult": [[[one, 0], [0, 1]], [[0, other], [0, 0]]],
        "unit": [one, 0],
        "idempotents": [[one, 0]],
    }
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(doc))
    loaded = load_algebra(str(path))
    assert_canonical_algebra(loaded)
    assert 1 not in loaded.mult[1]  # x * x = 0 is not stored


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3)), ids=str)
def test_random_coefficients_are_canonical_with_one_draw_each(field):
    # the draws of iso and of the idempotent search, reduced: over F_2 a
    # draw of 2 or 4 is zero and must not reach _linear_combination
    rng, ref = random.Random(1), random.Random(1)
    got = _random_coeffs(field, rng, 60, 4)
    draws = [field.of(ref.randint(-4, 4)) for _ in range(60)]
    assert got == {i: c for i, c in enumerate(draws) if c}
    assert rng.getstate() == ref.getstate()
    assert_canonical(field, 60, got)
    one = Matrix(field, 1, 1, [[1]])
    total = sum(int(c) if field.kind == "Fp" else c for c in got.values())
    assert _linear_combination(field, 1, 1, got, lambda i: one) \
        == Matrix(field, 1, 1, [[total]])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_opposite_shares_the_radical(field):
    for name, a in suite_algebras(field):
        # computed afresh on a new opposite, the radical has the same basis
        assert opposite(a).radical_basis() == a.radical_basis(), name
        # so a.op takes a's certified radical and does not certify it again
        assert a.op.radical_basis() is a.radical_basis(), name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_opposite_asked_first_lends_its_radical(field):
    a = PATH_ALGEBRAS["preprojective-A2"](field)
    rad = a.op.radical_basis()
    assert a.radical_basis() is rad
    assert rad == opposite(a).radical_basis()


def test_local_end_is_recognised_before_random_splitting(monkeypatch):
    # k<x, y>/(x, y)^2 over QQ: End(P) is local, so once the basis maps give
    # no idempotent the search stops without trying random combinations
    q = Quiver.make(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [PathExpr.make([(1, [u, v])]) for u in "xy" for v in "xy"]
    p = projective_module(build_path_algebra(q, rels, field=QQ), 0)
    calls = []
    crt = fdhom.algebra._crt_idempotent

    def counted(*args):
        calls.append(args)
        return crt(*args)

    monkeypatch.setattr(fdhom.algebra, "_crt_idempotent", counted)
    assert _nontrivial_idempotent_endo(p, seed=0) is None
    assert len(calls) <= len(hom_basis(p, p))
