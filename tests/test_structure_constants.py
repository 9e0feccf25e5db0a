"""Computations on the nonzero structure constants, against dense oracles.

`FDAlgebra._verify`, `projective_module`, `_coord_summands_from_elements`
and the J^2 of `homogeneous_generators` work on `FDAlgebra.mult_nonzeros`.
Each is checked here against the dense computation on the full table
`mult`, kept below, on the path algebras the suite builds, their opposites
and the Auslander algebras of `test_radical`, over QQ and GF(3).
"""

import random

import pytest

import fdhom.modules
from fdhom.algebra import (
    FDAlgebra,
    PathExpr,
    Quiver,
    _SpanReducer,
    build_path_algebra,
    opposite,
)
from fdhom.linalg import GF, QQ, column_space_basis
from fdhom.modules import (
    _coord_summands_from_elements,
    _left_inverse,
    _nontrivial_idempotent_endo,
    hom_basis,
    projective_module,
)
from test_algebra import _rebased
from test_radical import AUSLANDER_BASES, PATH_ALGEBRAS, auslander_algebra

FIELDS = (QQ, GF(3))


def dense_multiply(a, x, y):
    """x * y as the sum of x_s y_t b_s b_t, each b_s b_t a full row of the
    table `mult`."""
    f = a.field
    out = a.zero_vec()
    for s, xs in enumerate(x):
        for t, yt in enumerate(y):
            if xs and yt:
                c = f.mul(xs, yt)
                out = [f.add(u, f.mul(c, v)) for u, v in zip(out, a.mult[s][t])]
    return out


def suite_algebras(field):
    """(name, algebra) for every path algebra of the suite, its opposite and
    the Auslander algebras of kA_3, kA_4 and preprojective A_2; and some of
    them in a random basis, where the structure constants are not all 0 or 1
    and the idempotents are not basis vectors."""
    for name in sorted(PATH_ALGEBRAS):
        a = PATH_ALGEBRAS[name](field)
        yield name, a
        yield name + "^op", a.op
    for name in AUSLANDER_BASES:
        yield "Gamma " + name, auslander_algebra(name, field)
    for name in ("kA3", "preprojective-A2"):
        yield name + " rebased", _rebased(PATH_ALGEBRAS[name](field), seed=1)[0]
    yield "Gamma kA3 rebased", _rebased(auslander_algebra("kA3", field), seed=1)[0]


def dense_projective_action(a, i):
    """The action matrices of A e_i as coords @ (L_b @ basis)."""
    basis = column_space_basis(a.right_mult(a.idempotents[i]))
    coords = _left_inverse(basis)
    return [coords @ (a.left_mult_basis(b) @ basis) for b in range(a.dim)]


def test_verify_rejects_a_corruption_missed_by_a_sample_of_triples():
    # one structure constant of Gamma of kA_4 (dim 35) changed: b_8 b_32
    # gains b_1.  The unit and idempotent laws still hold, and associativity
    # fails on 9 of the 42,875 triples, none of them in a sample of 2000
    # random triples (seed 0): only an exhaustive check finds it
    g = auslander_algebra("kA4", QQ)
    n = g.dim
    assert n == 35
    mult = [[list(v) for v in row] for row in g.mult]
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
    with pytest.raises(ValueError, match=r"associativity fails on \(0,8,32\)"):
        FDAlgebra(QQ, g.basis_labels, mult, g.unit, g.idempotents,
                  origin="structure-constants")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_projective_actions_match_dense_products(field):
    for name, a in suite_algebras(field):
        for i in range(len(a.idempotents)):
            got = projective_module(a, i).action
            want = dense_projective_action(a, i)
            assert got == want, (name, i)
            assert [[type(x) for row in m.data for x in row] for m in got] \
                == [[type(x) for row in m.data for x in row] for m in want]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coord_summands_match_dense_multiply(field):
    for name, a in suite_algebras(field):
        basis = [a.basis_vec(k) for k in range(a.dim)]
        elements = basis + [a.unit] + [dense_multiply(a, b, e) for b in basis
                                       for e in a.idempotents]
        for b in elements:
            hits = [v for v, e in enumerate(a.idempotents)
                    if dense_multiply(a, b, e) == b]
            want = hits if len(hits) == 1 else None
            assert _coord_summands_from_elements(a, [b]) == want, name
        want = [_coord_summands_from_elements(a, [b]) for b in basis]
        want = None if None in want else [v for v, in want]
        assert _coord_summands_from_elements(a, basis) == want, name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_homogeneous_generators_match_a_dense_radical_square(field):
    for name, a in suite_algebras(field):
        rad = a.radical_basis()
        pieces = []
        for g in rad:
            for w, ew in enumerate(a.idempotents):
                for v, ev in enumerate(a.idempotents):
                    piece = dense_multiply(a, dense_multiply(a, ew, g), ev)
                    if any(piece):
                        pieces.append((v, w, piece))
        red = _SpanReducer(field, [dense_multiply(a, x, y)
                                   for x in rad for y in rad], a.dim)
        want = [(v, w, g) for v, w, g in pieces if red.add(g)]
        assert a.homogeneous_generators() == want, name


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
    crt = fdhom.modules._crt_idempotent

    def counted(*args):
        calls.append(args)
        return crt(*args)

    monkeypatch.setattr(fdhom.modules, "_crt_idempotent", counted)
    assert _nontrivial_idempotent_endo(p, seed=0, budget=64) is None
    assert len(calls) <= len(hom_basis(p, p))
