"""The two shared helpers of the module layer, against independent routes.

`modules._map_span` is the span of flattened map matrices; its rank is
checked against `linalg.rank` of the stacked matrices, and the splitting test
built on it (`subcats._splits`) against an explicit `solve` for a retraction
or a section.  `modules._approximation_chain` iterates minimal
add-approximations; its refusals are checked on approximations that are
provably not onto or not into their module.  `homology.star_module` is the sum
of the opposite projectives, and `homology.star_map` is read off the
generators' images; both are checked entry by entry against the routes they
replaced, which solve in the hom bases of Hom(P, A), and so is `transpose`.
"""

import random

import pytest

import fdhom.homology
from fdhom.endalg import end_algebra
from fdhom.errors import CertificateFailed, PreconditionFailed
from fdhom.homology import ext_dim, star_map, star_module, transpose
from fdhom.linalg import GF, QQ, Matrix, rank, solve
from fdhom.modules import (
    Module,
    ModuleMap,
    _approximation_chain,
    _map_span,
    cokernel,
    direct_sum,
    hom_basis,
    hom_coords,
    identity_map,
    min_proj_resolution,
    projective_module,
    regular_module,
    simple_module,
    zero_map,
    zero_module,
)
from fdhom.presets import path_algebra_a_n, preprojective_a_n
from fdhom.subcats import _splits, almost_split_sequence, knit_indecomposables
from test_instances import d4_subspace_algebra


def _random_matrix(f, rows, cols, rng):
    return Matrix(f, rows, cols, [[rng.choice([0, 0, 1, -1, 2]) for _ in range(cols)]
                                  for _ in range(rows)])


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_map_span_dim_is_the_rank_of_the_stacked_matrices(field):
    rng = random.Random(11)
    for count in range(7):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        mats = [_random_matrix(field, rows, cols, rng) for _ in range(count)]
        # a repeated matrix and a sum keep the rank
        if mats:
            mats += [mats[0], mats[0] + mats[-1]]
        stacked = Matrix.from_columns(field, rows * cols, [m.flatten() for m in mats])
        span = _map_span(field, rows, cols, mats)
        assert span.dim() == rank(stacked)
        for m in mats:
            assert span.contains(m.flatten())
    empty = _map_span(field, 2, 3, [])
    assert empty.dim() == 0 == rank(Matrix.from_columns(field, 6, []))
    assert empty.contains({})
    assert not empty.contains({0: field.one})


def _splits_by_solve(fmap, mono):
    """The route `_splits` replaced: solve for a retraction (mono) or a
    section against the flattened composites with Hom(B, A)."""
    a, b = fmap.source, fmap.target
    f = a.algebra.field
    d = a.dim if mono else b.dim
    homs = hom_basis(b, a)
    if not homs:
        return d == 0
    cols = Matrix.from_columns(f, d * d, [
        (h.matrix @ fmap.matrix if mono else fmap.matrix @ h.matrix).flatten()
        for h in homs])
    return solve(cols, Matrix.from_columns(f, d * d, [Matrix.identity(f, d).flatten()])) \
        is not None


@pytest.mark.parametrize("make", [lambda: path_algebra_a_n(3), d4_subspace_algebra],
                         ids=["kA3", "D4"])
def test_splits_agrees_with_solve_on_split_and_almost_split_sequences(make):
    a = make()
    inds, complete = knit_indecomposables(a)
    assert complete
    checked = {True: [0, 0], False: [0, 0]}  # mono -> [split, not split]
    for x in inds:
        for y in inds[:3]:
            _, incls, projs = direct_sum([x, y])
            for fmap, mono in ((incls[0], True), (projs[1], False)):
                assert _splits(fmap, mono) == _splits_by_solve(fmap, mono) is True
                checked[mono][0] += 1
        try:
            seq = almost_split_sequence(x)
        except PreconditionFailed:
            continue  # x is projective
        for fmap, mono in ((seq.maps[0], True), (seq.maps[-1], False)):
            assert _splits(fmap, mono) == _splits_by_solve(fmap, mono) is False
            checked[mono][1] += 1
        # a map that is not mono (epi) is not split mono (epi) either
        assert _splits(seq.maps[-1], True) == _splits_by_solve(seq.maps[-1], True)
        assert _splits(seq.maps[0], False) == _splits_by_solve(seq.maps[0], False)
    # zero modules: 0 -> X is split mono and X -> 0 split epi, not conversely
    z, x = zero_module(a), inds[0]
    assert _splits(zero_map(z, x), True) and _splits(zero_map(x, z), False)
    assert not _splits(zero_map(z, x), False) and not _splits(zero_map(x, z), True)
    assert all(n > 0 for pair in checked.values() for n in pair)


def test_approximation_chain_refuses_a_map_not_onto_or_not_into():
    a = path_algebra_a_n(3)
    s = [simple_module(a, v) for v in range(3)]
    # Hom(S_1, S_0) = 0 = Hom(S_0, S_1): both approximations are zero maps
    assert _approximation_chain(s[0], [s[1]], 3) == ([], None)
    assert _approximation_chain(s[0], [s[1]], 3, left=True) == ([], None)
    # P_v -> S_v is onto, but Hom(P_v, rad P_v) = e_v rad P_v = 0 without loops
    v = next(v for v in range(3) if projective_module(a, v).dim > 1)
    maps, rest = _approximation_chain(s[v], [projective_module(a, v)], 3)
    assert rest is None and len(maps) == 1 and maps[0].is_surjective()


def test_approximation_chain_by_projectives_is_the_projective_resolution():
    a = preprojective_a_n(2)
    projs = [projective_module(a, v) for v in range(2)]
    for v in range(2):
        res = min_proj_resolution(simple_module(a, v), 4)
        maps, rest = _approximation_chain(simple_module(a, v), projs, 4)
        assert rest is not None
        assert [m.source.dim for m in maps] == [p.dim for p in res.modules[:len(maps)]]
        # selfinjective: the syzygies of S_v never reach zero, so the chain
        # stops at the cap with the module still to approximate
        assert rest.dim > 0 and len(maps) == 4
        s = simple_module(a, v)
        assert _approximation_chain(s, projs, 0) == ([], s)


def _star_by_solve(p):
    """The route `star_module` replaced: Hom(P, A) from its hom basis, with
    b acting by right multiplication, solved in that basis."""
    a = p.algebra
    basis = hom_basis(p, regular_module(a))
    k = len(basis)
    coords = hom_coords(basis, [a.right_mult_basis(b) @ h.matrix
                                for b in range(a.dim) for h in basis],
                        "star action escapes Hom(P, A)")
    return [coords.block(0, b * k, k, k) for b in range(a.dim)]


STAR_ALGEBRAS = {
    "kA4": lambda: path_algebra_a_n(4),
    "D4": d4_subspace_algebra,
    "preprojective-A2 GF(3)": lambda: preprojective_a_n(2, GF(3)),
    "preprojective-A3": lambda: preprojective_a_n(3),
}


@pytest.mark.parametrize("name", STAR_ALGEBRAS)
def test_star_module_is_the_sum_of_opposite_projectives(name):
    a = STAR_ALGEBRAS[name]()
    terms = [regular_module(a)]
    for v in range(len(a.idempotents)):
        terms += min_proj_resolution(simple_module(a, v), 3).modules
    for p in terms:
        s = star_module(p)
        opp, _, _ = direct_sum([projective_module(a.op, v)
                                for v, _ in p.proj_summands])
        assert s.algebra is a.op
        assert s.dim == opp.dim == len(hom_basis(p, regular_module(a)))
        assert s.action == opp.action == _star_by_solve(p)
    # the starred differentials are module maps between the star modules
    for v in range(len(a.idempotents)):
        for d in min_proj_resolution(simple_module(a, v), 2).maps:
            star_map(d)._verify()


def test_star_module_needs_known_projective_summands():
    a = path_algebra_a_n(2)
    p = projective_module(a, 0)
    bare = Module(a, p.dim, p.action, check=False)
    with pytest.raises(ValueError):
        star_module(bare)
    assert star_module(zero_module(a)).dim == 0


def _star_map_by_solve(d):
    """The route `star_map` replaced: the composites d;h for h in the hom
    basis of Hom(P_0, A), solved in the hom basis of Hom(P_1, A)."""
    reg = regular_module(d.source.algebra)
    return hom_coords(hom_basis(d.source, reg),
                      [h.matrix @ d.matrix for h in hom_basis(d.target, reg)],
                      "starred differential escapes Hom(P, A)")


def _auslander_algebra_of_ka3():
    """Γ(kA_3), given by structure constants: it has no path presentation."""
    inds, _ = knit_indecomposables(path_algebra_a_n(3))
    return end_algebra(inds).algebra


TRANSPOSE_ALGEBRAS = {
    "kA3": lambda: path_algebra_a_n(3),
    "preprojective-A2": lambda: preprojective_a_n(2),
    "preprojective-A2 GF(3)": lambda: preprojective_a_n(2, GF(3)),
    "D4": d4_subspace_algebra,
    "Gamma(kA3)": _auslander_algebra_of_ka3,
}


def _entries(mat):
    return [(x, type(x)) for row in mat.data for x in row]


@pytest.mark.parametrize("name", TRANSPOSE_ALGEBRAS)
def test_star_map_and_transpose_agree_with_the_solved_route(name):
    a = TRANSPOSE_ALGEBRAS[name]()
    inds, complete = knit_indecomposables(a)
    assert complete
    transposes = 0
    for m in inds:
        for k, d in enumerate(min_proj_resolution(m, 3).maps):
            star, solved = star_map(d), _star_map_by_solve(d)
            assert _entries(star.matrix) == _entries(solved)
            if k == 0:  # Tr m = coker(P_0^* -> P_1^*)
                solved = ModuleMap(star.source, star.target, solved, check=False)
                assert transpose(m).action == cokernel(solved)[0].action
                transposes += 1
    assert transposes
    # identity maps send each generator e_v to itself; in a path algebra
    # e_0 is the basis vector b_0, an element with only index 0
    for v in range(len(a.idempotents)):
        d = identity_map(projective_module(a, v))
        assert _entries(star_map(d).matrix) == _entries(_star_map_by_solve(d))


def test_star_map_certificate_catches_inconsistent_bookkeeping(monkeypatch):
    # with the basis elements of the star modules out of step with their
    # actions the generators' images give no module map: an internal fault
    a = preprojective_a_n(2)
    d = min_proj_resolution(simple_module(a, 0), 1).maps[0]
    star_map(d)

    def scrambled(p):
        s = star_module(p)
        return Module(s.algebra, s.dim, s.action, check=False,
                      proj_summands=s.proj_summands, coord_summand=s.coord_summand,
                      basis_elements=s.basis_elements[::-1])

    monkeypatch.setattr(fdhom.homology, "star_module", scrambled)
    with pytest.raises(CertificateFailed):
        star_map(d)


@pytest.mark.parametrize("name", TRANSPOSE_ALGEBRAS)
def test_starred_resolution_is_a_complex_computing_ext_into_the_algebra(name):
    # independent of the bookkeeping that star_map reads: Hom(P_•, A) is a
    # complex, and its cohomology in degree i >= 1 is Ext^i(M, A), which
    # ext_dim computes from hom bases
    a = TRANSPOSE_ALGEBRAS[name]()
    reg = regular_module(a)
    inds, complete = knit_indecomposables(a)
    assert complete
    checked = nonzero = 0
    for m in inds:
        res = min_proj_resolution(m, 4)
        stars = [star_map(d) for d in res.maps]
        for first, second in zip(stars, stars[1:]):
            assert first.then(second).is_zero()
        ranks = [s.rank() for s in stars] + [0]
        for i in range(1, min(res.length, 3) + 1):
            h = star_module(res.modules[i]).dim - ranks[i] - ranks[i - 1]
            assert h == ext_dim(m, reg, i)
            checked += 1
            nonzero += h > 0
    # preprojective A_2 is selfinjective: there Ext^{>0}(M, A) = 0
    assert checked and (nonzero > 0) == (not name.startswith("preprojective"))
