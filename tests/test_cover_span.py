"""Projective covers from the span JM, and module radicals from the arrows.

`projective_cover` chooses its generators modulo the subspace JM of M,
`radical_of_module` and `socle` use the actions of the arrows, and
`strip_projectives` reads the top dimensions off JM.  The routes they
replaced are kept below as oracles: the cover built on the top module
M/rad M, and the radical and socle from the action of every radical basis
vector.  Both are checked on the knitted indecomposables of kA_3,
preprojective A_2 (over QQ and GF(3)) and D_4, on their duals over the
opposite algebra, and on seeded random cokernels of maps between
projectives.
"""

import random

import pytest

from conftest import random_module
from fdhom.algebra import FDAlgebra, _SpanReducer
from fdhom.errors import CertificateFailed
from fdhom.linalg import (
    GF,
    QQ,
    Matrix,
    column_space_basis,
    hstack_all,
    kernel_basis,
    rank,
    solve,
    vstack_all,
)
from fdhom.modules import (
    ModuleMap,
    _top_dims,
    direct_sum,
    dual,
    projective_cover,
    projective_module,
    quotient_module,
    radical_of_module,
    regular_module,
    socle,
    zero_map,
    zero_module,
)
from fdhom.presets import path_algebra_a_n, preprojective_a_n
from fdhom.subcats import knit_indecomposables
from test_instances import d4_subspace_algebra

ALGEBRAS = {
    "kA3": lambda: path_algebra_a_n(3, QQ),
    "preprojective-A2": lambda: preprojective_a_n(2, QQ),
    "preprojective-A2 GF(3)": lambda: preprojective_a_n(2, GF(3)),
    "D4": d4_subspace_algebra,
}


def radical_actions(m):
    """The action of every radical basis vector of the algebra on m."""
    return [m.act_vec(r) for r in m.algebra.radical_basis()]


def old_top(m):
    """(M / rad M, projection), rad M from every radical basis vector."""
    rad = column_space_basis(hstack_all(m.algebra.field, radical_actions(m), m.dim))
    return quotient_module(m, rad)


def old_projective_cover(m):
    """The cover built on the top module: generators are chosen greedily
    by their images in M/rad M, each closing the covered span under every
    basis element of the algebra."""
    a = m.algebra
    f = a.field
    if m.dim == 0:
        z = zero_module(a)
        return z, zero_map(z, m)
    t, pi = old_top(m)
    chosen = []
    covered = _SpanReducer(f, [], t.dim)
    for v, e in enumerate(a.idempotents):
        comp = column_space_basis(m.act_vec(e))
        for k in range(comp.cols):
            w = comp.col(k)
            tw = pi.matrix @ Matrix.column(f, w)
            if not covered.reduce(tw.transpose().nz[0]):
                continue
            chosen.append((v, w))
            for b in range(a.dim):
                covered.add((t.action[b] @ tw).transpose().nz[0])
            if covered.dim() == t.dim:
                break
        if covered.dim() == t.dim:
            break
    if covered.dim() != t.dim:
        raise CertificateFailed("top not covered: missing generators")
    parts = [projective_module(a, v) for v, _ in chosen]
    p, _, _ = direct_sum(parts) if parts else (zero_module(a), [], [])
    cols = []
    for (v, w), part in zip(chosen, parts):
        wm = Matrix.column(f, w)
        for j in range(part.dim):
            cols.append((m.act_vec(part.basis_elements[j]) @ wm).transpose().nz[0])
    mat = Matrix.from_columns(f, m.dim, cols)
    if rank(mat) != m.dim:
        raise CertificateFailed("cover map is not surjective")
    kb = kernel_basis(mat)
    if kb.cols:
        radp = column_space_basis(hstack_all(f, radical_actions(p), p.dim))
        for k in range(kb.cols):
            if solve(radp, Matrix.column(f, kb.col(k))) is None:
                raise CertificateFailed("cover kernel escapes the radical")
    return p, ModuleMap(p, m, mat, check=False)


def corpus(name):
    """The knitted indecomposables of the algebra, their duals over the
    opposite algebra, and seeded random cokernels over both."""
    a = ALGEBRAS[name]()
    inds, complete = knit_indecomposables(a)
    assert complete
    rng = random.Random(10)
    randoms = [random_module(b, rng) for b in (a, a.op) for _ in range(6)]
    return inds + [dual(m) for m in inds] + randoms


def types(mat):
    return [type(x) for row in mat.data for x in row]


def same_span(f, x, y):
    return x.cols == y.cols == rank(hstack_all(f, [x, y], x.rows))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_cover_matches_the_cover_on_the_top(name):
    for m in corpus(name):
        p, epi = projective_cover(m)
        p_old, epi_old = old_projective_cover(m)
        assert [v for v, _ in p.proj_summands] == [v for v, _ in p_old.proj_summands]
        assert p.action == p_old.action
        assert epi.matrix == epi_old.matrix
        assert types(epi.matrix) == types(epi_old.matrix)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_radical_socle_and_top_dims_match_the_radical_basis(name):
    for m in corpus(name):
        f = m.algebra.field
        _, incl = radical_of_module(m)
        want = column_space_basis(hstack_all(f, radical_actions(m), m.dim))
        assert same_span(f, incl.matrix, want)
        _, soc = socle(m)
        assert soc.matrix == kernel_basis(vstack_all(f, radical_actions(m), m.dim))
        assert _top_dims(m) == list(old_top(m)[0].vertex_dims())


def gaussian_rationals():
    """QQ(i) by structure constants: basis 1, i; the one idempotent 1; J = 0
    and no homogeneous generators, as A/J is not k^r."""
    one = QQ.one
    mult = [{0: {0: one}, 1: {1: one}}, {0: {1: one}, 1: {0: -one}}]
    return FDAlgebra(QQ, ["1", "i"], mult, {0: one}, [{0: one}],
                     origin="structure-constants")


def test_cover_closes_each_generator_under_the_algebra_when_not_basic():
    a = gaussian_rationals()
    assert a.radical_basis() == []
    assert a.homogeneous_generators() is None
    reg = regular_module(a)
    p, epi = projective_cover(reg)
    assert p.dim == 2 and epi.is_iso()
    two, _, _ = direct_sum([reg, reg])
    p, epi = projective_cover(two)
    assert p.dim == 4 and epi.is_iso()
    assert radical_of_module(two)[0].dim == 0
    assert socle(two)[0].dim == 4
    assert _top_dims(two) == [4]


def test_cover_refuses_a_map_that_is_not_onto(monkeypatch):
    # the kernel basis certifies surjectivity by rank-nullity: a map from P
    # onto M has a kernel of dim P - dim M
    import fdhom.modules

    rng = random.Random(4)
    mods = [random_module(a(), rng) for a in ALGEBRAS.values()]
    monkeypatch.setattr(fdhom.modules, "_from_generators",
                        lambda p, y, images: [zero_map(p, y)])
    for m in mods:
        with pytest.raises(CertificateFailed, match="not surjective"):
            projective_cover(m)
