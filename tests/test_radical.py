"""The certified radical over every field, against independent oracles.

The package proposes a radical from the idempotents and certifies it (see
`fdhom.algebra._idempotent_radical`).  Here it is checked against Dickson's
trace-form radical, computed independently below and valid over QQ and for
p > dim, and over F_2 and F_3 it carries the Auslander algebras and an exact
`iso` for the brute-force oracles.
"""

import pytest

import fdhom.modules as modules
from fdhom.algebra import (
    FDAlgebra,
    PathExpr,
    Quiver,
    _idempotent_radical,
    build_path_algebra,
)
from fdhom.endalg import end_algebra
from fdhom.homology import domdim, gldim
from fdhom.linalg import GF, QQ, Matrix, kernel_basis, rank
from fdhom.modules import (
    _rad_end_basis,
    hom_basis,
    injective_module,
    iso,
    projective_module,
)
from fdhom.presets import (
    loop_algebra,
    path_algebra_a_n,
    preprojective_a_n,
    semisimple_k_n,
)
from fdhom.subcats import brute_indecomposables, knit_indecomposables
from test_instances import d4_subspace_algebra

ORACLE_FIELDS = (QQ, GF(32003))
SMALL_FIELDS = (GF(2), GF(3))

# every path algebra the suite builds, as a function of the field
PATH_ALGEBRAS = {
    "kA2": lambda f: path_algebra_a_n(2, f),
    "kA3": lambda f: path_algebra_a_n(3, f),
    "kA4": lambda f: path_algebra_a_n(4, f),
    "preprojective-A2": lambda f: preprojective_a_n(2, f),
    "preprojective-A3": lambda f: preprojective_a_n(3, f),
    "k[x]/(x^2)": lambda f: loop_algebra(2, f),
    "k[x]/(x^3)": lambda f: loop_algebra(3, f),
    "k": lambda f: semisimple_k_n(1, f),
    "k^2": lambda f: semisimple_k_n(2, f),
    "k^3": lambda f: semisimple_k_n(3, f),
    "D4": d4_subspace_algebra,
}

# the Auslander algebras End(⊕ indecomposables) of acceptance criterion 1
AUSLANDER_BASES = ("kA3", "kA4", "preprojective-A2")


def trace_form_radical(f, mats):
    """Dickson's radical of the algebra spanned by the square matrices mats
    (a faithful representation): coefficient vectors c with
    tr((sum_a c_a m_a) m_b) = 0 for every b, valid over QQ and for p > size."""
    n = len(mats)
    gram = Matrix(f, n, n)
    for i in range(n):
        for j in range(n):
            prod = mats[i] @ mats[j]
            acc = f.zero
            for d in range(prod.rows):
                acc = f.add(acc, prod.get(d, d))
            gram.set(i, j, acc)
    ker = kernel_basis(gram)
    return [ker.col(k) for k in range(ker.cols)]


def dense(f, n, x):
    """The sparse vector x as its list of n coefficients."""
    return [x.get(r, f.zero) for r in range(n)]


def same_span(f, xs, ys, width):
    if len(xs) != len(ys):
        return False
    if not xs:
        return True
    return rank(Matrix(f, 2 * len(xs), width, xs + ys)) == len(xs)


def regular_representation(a):
    return [a.left_mult_basis(i) for i in range(a.dim)]


def check_against_oracle(a):
    f = a.field
    assert f.kind == "Q" or f.p > a.dim
    assert same_span(f, [dense(f, a.dim, x) for x in a.radical_basis()],
                     trace_form_radical(f, regular_representation(a)), a.dim)


def auslander_algebra(name, f):
    inds, complete = knit_indecomposables(PATH_ALGEBRAS[name](f))
    assert complete
    return end_algebra(inds).algebra


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(PATH_ALGEBRAS))
def test_path_algebra_radical_matches_trace_form(name, field):
    a = PATH_ALGEBRAS[name](field)
    check_against_oracle(a)
    check_against_oracle(a.op)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("name", ["kA3", "preprojective-A2", "k^3"])
def test_coarse_idempotent_falls_back_to_the_trace_form(name, field):
    # given with the single idempotent 1 these algebras are not local: the
    # proposed radical fails its certificate and the trace form decides
    a = PATH_ALGEBRAS[name](field)
    b = FDAlgebra(field, a.basis_labels, a.mult, a.unit, [a.unit],
                  origin="structure-constants")
    assert _idempotent_radical(b) is None
    check_against_oracle(b)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("name", AUSLANDER_BASES)
def test_auslander_algebra_radical_matches_trace_form(name, field):
    gamma = auslander_algebra(name, field)
    check_against_oracle(gamma)
    assert gamma.dim - len(gamma.radical_basis()) == len(gamma.idempotents)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("name", ["kA3", "preprojective-A2", "D4"])
def test_end_radical_matches_trace_form(name, field):
    inds, complete = knit_indecomposables(PATH_ALGEBRAS[name](field))
    assert complete
    for x in inds:
        endos = hom_basis(x, x)
        mats = [h.matrix for h in endos]
        oracle = [(Matrix.from_columns(field, x.dim * x.dim,
                                       [m.flatten() for m in mats])
                   @ Matrix.column(field, v)).col(0)
                  for v in trace_form_radical(field, mats)]
        rad = [dense(field, x.dim * x.dim, m.flatten()) for m in _rad_end_basis(endos)]
        assert same_span(field, rad, oracle, x.dim * x.dim)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
@pytest.mark.parametrize("name", AUSLANDER_BASES)
def test_auslander_algebra_over_small_fields(name, field):
    # acceptance criterion 1 over F_2 and F_3: gl.dim = dom.dim = 2
    gamma = auslander_algebra(name, field)
    assert gldim(gamma, 8) == 2
    assert domdim(gamma, 8) == 2


@pytest.mark.parametrize("field", (QQ,) + SMALL_FIELDS, ids=str)
@pytest.mark.parametrize("name", ["kA3", "preprojective-A2"])
def test_iso_decides_every_pair_of_indecomposables(name, field):
    # no Inconclusive: iso raises it rather than answer
    inds, complete = knit_indecomposables(PATH_ALGEBRAS[name](field))
    assert complete
    for i, x in enumerate(inds):
        for j, y in enumerate(inds):
            assert (iso(x, y) is not None) == (i == j)


@pytest.mark.parametrize("name, cap", [("kA3", 3), ("preprojective-A2", 4)])
def test_knitting_count_matches_brute_force_over_f2(name, cap):
    a = PATH_ALGEBRAS[name](GF(2))
    inds, complete = knit_indecomposables(a)
    assert complete
    assert len(inds) == len(brute_indecomposables(a, cap))


@pytest.mark.parametrize("field", (QQ,) + SMALL_FIELDS, ids=str)
def test_iso_is_exact_on_a_local_end_without_an_invertible_basis_map(field, monkeypatch):
    # k<x, y>/(x, y)^2: the projective P and the injective I both have dim 3
    # and homs both ways (three of them P -> I), but P has a simple top and I
    # does not; End(P) is local, so no combination of homs is tried
    def no_combinations(*args):
        raise AssertionError("a combination of homs was tried")

    monkeypatch.setattr(modules, "_random_coeffs", no_combinations)
    monkeypatch.setattr(modules, "_fp_combinations", no_combinations)
    q = Quiver.make(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [PathExpr.make([(1, [u, v])]) for u in "xy" for v in "xy"]
    a = build_path_algebra(q, rels, field=field)
    p, i = projective_module(a, 0), injective_module(a, 0)
    assert p.dim == i.dim == 3 and len(hom_basis(p, i)) == 3
    assert hom_basis(i, p)
    assert iso(p, i) is None
    assert iso(p, p) is not None
