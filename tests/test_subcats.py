import itertools

import pytest

from fdhom.algebra import _SpanReducer
from fdhom.endalg import end_algebra
from fdhom.errors import PreconditionFailed
from fdhom.homology import domdim, ext_dim, gldim, tau_n
from fdhom.linalg import GF
from fdhom.modules import (
    dual,
    injective_module,
    iso,
    projective_module,
    regular_module,
    resolution_dim,
    simple_module,
    strip_projectives,
)
from fdhom.presets import (
    loop_algebra,
    path_algebra_a_n,
    preprojective_a_n,
    semisimple_k_n,
)
from fdhom.results import AtLeastCap
from fdhom.subcats import (
    almost_split_sequence,
    ar_quiver,
    brute_indecomposables,
    connecting_tilting,
    hom_sequences_exact,
    is_cotilting,
    knit_indecomposables,
    maximal_ortho_enumerative,
    maximal_ortho_homological,
    member_of,
    n_almost_split,
    ortho_check,
    tilting_check,
    verify_almost_split,
    in_perp_t,
)
from test_cover_span import gaussian_rationals
from test_instances import d4_subspace_algebra


def preproj_parts(a):
    inds, complete = knit_indecomposables(a)
    assert complete
    p = [m for m in inds if m.dim == 2]
    s1 = next(m for m in inds if m.vertex_dims() == (1, 0))
    s2 = next(m for m in inds if m.vertex_dims() == (0, 1))
    return inds, p, s1, s2


def test_ortho_check_projectives():
    a = preprojective_a_n(2)
    gens = [projective_module(a, 0), projective_module(a, 1)]
    for l in range(4):
        ok, wit = ortho_check(gens, l)
        assert ok and wit is None


def test_ortho_check_witness():
    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    ok, wit = ortho_check(inds, 1)
    assert not ok
    assert wit[2] == 1


def test_ortho_check_subcat():
    a = preprojective_a_n(2)
    _, p, s1, _ = preproj_parts(a)
    ok, _ = ortho_check(p + [s1], 1)
    assert ok


def test_cotilting_dual_regular():
    for a in [path_algebra_a_n(2), preprojective_a_n(2), loop_algebra(2)]:
        t = dual(regular_module(a.op))
        assert is_cotilting(t, 0, 8).valid


def test_cotilting_regular_at_gldim():
    a = path_algebra_a_n(2)
    t = regular_module(a)
    assert is_cotilting(t, 1, 8).valid


def test_cotilting_rejects_partial():
    # the simple injective alone is not 1-cotilting over kA2
    a = path_algebra_a_n(2)
    s1 = simple_module(a, 0)  # = I_1
    cert = is_cotilting(s1, 1, 8)
    assert not cert.valid
    assert not cert.coresolution_ok


def test_in_perp_t():
    a = path_algebra_a_n(2)
    t = projective_module(a, 1)  # P2, id = 1
    s1 = simple_module(a, 0)
    assert not in_perp_t(s1, t, 1)  # Ext^1(S1, P2) = 1
    assert in_perp_t(regular_module(a), t, 1)


def test_maximal_enumerative_preprojective():
    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    ok, _ = maximal_ortho_enumerative(p + [s1], 2, inds)
    assert ok
    ok2, wit = maximal_ortho_enumerative(p, 2, inds)
    assert not ok2
    assert wit[0] == "orthogonal non-member"


def test_maximal_unique_zero_orthogonal():
    # n = 1: the unique maximal 0-orthogonal subcategory is everything
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    ok, _ = maximal_ortho_enumerative(inds, 1, inds)
    assert ok
    ok2, _ = maximal_ortho_enumerative(inds[:2], 1, inds)
    assert not ok2


def test_maximal_homological_agreement_all_subsets():
    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    t = regular_module(a)  # = DΛ up to iso (selfinjective)
    for r in range(len(inds) + 1):
        for sub in itertools.combinations(range(len(inds)), r):
            gens = [inds[i] for i in sub]
            if gens:
                env, _ = maximal_ortho_enumerative(gens, 2, inds)
                hv = maximal_ortho_homological(a, gens, t, 0, 2, 8)
                assert env == hv.verdict, f"disagree on {sub}"


def test_maximal_homological_rejects_regular_ka2():
    a = path_algebra_a_n(2)
    gens = [projective_module(a, 0), projective_module(a, 1)]
    t = dual(regular_module(a.op))
    hv = maximal_ortho_homological(a, gens, t, 0, 1, 8)
    assert hv.verdict is False  # Λ itself has dominant dimension 1


def test_almost_split_ka2():
    a = path_algebra_a_n(2)
    s1 = simple_module(a, 0)
    seq = almost_split_sequence(s1)
    assert [t.dim for t in seq.terms] == [1, 2, 1]
    assert iso(seq.terms[0], projective_module(a, 1)) is not None
    assert all(seq.radical_flags)
    inds, _ = knit_indecomposables(a)
    verify_almost_split(seq, inds)


def test_almost_split_loop():
    a = loop_algebra(2)
    s = simple_module(a, 0)
    seq = almost_split_sequence(s)
    assert [t.dim for t in seq.terms] == [1, 2, 1]
    assert iso(seq.terms[1], regular_module(a)) is not None
    verify_almost_split(seq, knit_indecomposables(a)[0])


def test_almost_split_preprojective():
    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    seq = almost_split_sequence(s1)
    assert iso(seq.terms[0], s2) is not None
    assert seq.terms[1].dim == 2
    verify_almost_split(seq, inds)


def test_almost_split_rejects_projective():
    a = preprojective_a_n(2)
    with pytest.raises(PreconditionFailed):
        almost_split_sequence(projective_module(a, 0))


def test_n_almost_split_preprojective():
    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    gens = p + [s1]
    seq = n_almost_split(gens, 2, 2)
    assert [t.dim for t in seq.terms] == [1, 2, 2, 1]
    assert iso(seq.terms[0], tau_n(s1, 2)) is not None
    assert all(seq.radical_flags)
    assert hom_sequences_exact(seq, gens)
    # middle terms are projective with total dimension 4
    assert seq.terms[1].dim + seq.terms[2].dim == 4


def test_hom_sequences_exact_builds_each_hom_basis_once(monkeypatch):
    # one basis per (W, term) in each direction; the W isomorphic to an end
    # term X adds three more per direction (Hom(W, X) and Hom(X, W) inside
    # iso, then End(W) for the radical of Hom(W, X))
    import fdhom.modules
    import fdhom.subcats

    a = path_algebra_a_n(4)
    inds, complete = knit_indecomposables(a)
    assert complete and len(inds) == 10
    seqs = [almost_split_sequence(z) for z in inds
            if not strip_projectives(z)[1]]
    assert len(seqs) == 6
    calls = []
    counted = fdhom.modules.hom_basis

    def counting(x, y):
        calls.append((x, y))
        return counted(x, y)

    monkeypatch.setattr(fdhom.modules, "hom_basis", counting)
    monkeypatch.setattr(fdhom.subcats, "hom_basis", counting)
    assert all(hom_sequences_exact(seq, inds) for seq in seqs)
    assert len(calls) == sum(2 * (len(seq.terms) * len(inds) + 3) for seq in seqs)


def test_n_almost_split_reproduces_classical():
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    # order: X = the non-projective indecomposable
    xi = next(i for i, m in enumerate(inds)
              if m.dim == 1 and m.vertex_dims() == (1, 0))
    seq1 = n_almost_split(inds, xi, 1)
    seq2 = almost_split_sequence(inds[xi])
    assert [t.dim for t in seq1.terms] == [t.dim for t in seq2.terms]
    for t1, t2 in zip(seq1.terms, seq2.terms):
        assert iso(t1, t2) is not None


def test_n_almost_split_guards_projective_vertex():
    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    gens = p + [s1]
    with pytest.raises(PreconditionFailed):
        n_almost_split(gens, 0, 2)


def test_knit_counts():
    assert len(knit_indecomposables(path_algebra_a_n(2))[0]) == 3
    assert len(knit_indecomposables(path_algebra_a_n(3))[0]) == 6
    assert len(knit_indecomposables(preprojective_a_n(2))[0]) == 4
    assert len(knit_indecomposables(loop_algebra(2))[0]) == 2


def test_brute_counts_f2():
    assert len(brute_indecomposables(path_algebra_a_n(2, field=GF(2)), 3)) == 3
    assert len(brute_indecomposables(path_algebra_a_n(3, field=GF(2)), 3)) == 6
    assert len(brute_indecomposables(preprojective_a_n(2, field=GF(2)), 4)) == 4


def test_brute_semisimple():
    assert len(brute_indecomposables(semisimple_k_n(2, field=GF(2)), 2)) == 2


def test_knit_incomplete_flag():
    a = path_algebra_a_n(3)
    mods, complete = knit_indecomposables(a, cap_count=2)
    assert not complete


def test_enumerative_rejects_capped_list():
    from fdhom.errors import IncompleteEnumeration

    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    with pytest.raises(IncompleteEnumeration):
        maximal_ortho_enumerative(inds, 1, inds, complete=False)


def test_brute_cap_guard():
    from fdhom.errors import CapExceeded

    a = preprojective_a_n(2, field=GF(3))
    with pytest.raises(CapExceeded):
        brute_indecomposables(a, 8)


def test_brute_rejects_big_field():
    a = preprojective_a_n(2, field=GF(7))
    with pytest.raises(PreconditionFailed):
        brute_indecomposables(a, 3)


def test_cotilting_rejects_self_extensions():
    a = preprojective_a_n(2)
    s1 = simple_module(a, 0)
    s2 = simple_module(a, 1)
    from fdhom.modules import direct_sum

    t, _, _ = direct_sum([s1, s2])
    cert = is_cotilting(t, 1, 6)
    assert not cert.valid
    assert not cert.id_bound  # simples have unbounded injective dimension here


def test_resdim_over_maximal_orthogonal():
    # resdim_C(mod Λ) <= n-1 for a maximal (n-1)-orthogonal C
    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    gens = p + [s1]
    for x in inds:
        r = resolution_dim(gens, x, 4)
        assert not isinstance(r, AtLeastCap) and r <= 1


def test_ar_quiver_ka2():
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    q = ar_quiver(inds, 1)
    total_arrows = sum(sum(r) for r in q.arrow_mult)
    assert total_arrows == 2  # P2 -> P1 -> I1
    assert len(q.dotted) == 1
    i1 = next(i for i, m in enumerate(inds)
              if m.dim == 1 and m.vertex_dims() == (1, 0))
    p2 = next(i for i, m in enumerate(inds)
              if m.dim == 1 and m.vertex_dims() == (0, 1))
    assert q.dotted[i1] == p2


def test_ar_quiver_matches_sequence_multiplicities():
    # sink-map multiplicities from the almost split sequence agree with the
    # radical-quotient arrow counts
    from fdhom.modules import decompose

    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    q = ar_quiver(inds, 1)
    si = inds.index(s1)
    seq = almost_split_sequence(s1)
    mids = decompose(seq.terms[1])
    for rep, mult in mids.summands:
        j = member_of(inds, rep)
        assert q.arrow_mult[j][si] == mult


def test_ar_quiver_ka3_mesh():
    a = path_algebra_a_n(3)
    inds, _ = knit_indecomposables(a)
    q = ar_quiver(inds, 1)
    assert sum(sum(r) for r in q.arrow_mult) == 6
    assert all(x <= 1 for r in q.arrow_mult for x in r)
    # tau sends [1] -> [2] -> [3] and [12] -> [23] (interval shift)
    pos = {m.vertex_dims(): i for i, m in enumerate(inds)}
    assert q.dotted == {
        pos[(1, 0, 0)]: pos[(0, 1, 0)],
        pos[(0, 1, 0)]: pos[(0, 0, 1)],
        pos[(1, 1, 0)]: pos[(0, 1, 1)],
    }
    # arrows follow the mesh: every non-projective mesh contributes its
    # middle, and radicals of projectives carry the boundary arrows
    expected = {
        (pos[(1, 1, 0)], pos[(1, 0, 0)]),
        (pos[(1, 1, 1)], pos[(1, 1, 0)]),
        (pos[(0, 1, 0)], pos[(1, 1, 0)]),
        (pos[(0, 1, 1)], pos[(0, 1, 0)]),
        (pos[(0, 1, 1)], pos[(1, 1, 1)]),
        (pos[(0, 0, 1)], pos[(0, 1, 1)]),
    }
    got = {(i, j) for i, r in enumerate(q.arrow_mult)
           for j, x in enumerate(r) if x}
    assert got == expected


def test_ar_quiver_semisimple():
    a = semisimple_k_n(1)
    inds, _ = knit_indecomposables(a)
    q = ar_quiver(inds, 1)
    assert q.arrow_mult == [[0]]
    assert q.dotted == {}


def _sandwich_arrow_mult(gamma):
    """The arrow multiplicities dim e_i J e_j - dim e_i J^2 e_j, with J^2
    spanned by the products of radical basis elements: an oracle for
    `ar_quiver` that does not go through `homogeneous_generators`."""
    rad = gamma.radical_basis()
    rad2 = [w for u in rad for v in rad if (w := gamma.multiply(u, v))]

    def sandwich_dim(ei, vecs, ej):
        return _SpanReducer(gamma.field, [
            gamma.multiply(gamma.multiply(ei, u), ej) for u in vecs],
            gamma.dim).dim()

    idems = gamma.idempotents
    return [[sandwich_dim(ei, rad, ej) - sandwich_dim(ei, rad2, ej)
             for ej in idems] for ei in idems]


@pytest.mark.parametrize("make, arrows", [
    (lambda: path_algebra_a_n(4), 12),
    (d4_subspace_algebra, 15),
    (lambda: preprojective_a_n(2), 4),
    (lambda: preprojective_a_n(3), 18),
])
def test_ar_quiver_arrows_match_the_sandwich_route(make, arrows):
    inds, complete = knit_indecomposables(make())
    assert complete
    data = end_algebra(inds, check_indec=False)
    q = ar_quiver(inds, 1, data=data)
    assert q.arrow_mult == _sandwich_arrow_mult(data.algebra)
    assert sum(map(sum, q.arrow_mult)) == arrows


def test_ar_quiver_needs_arrows_in_the_endomorphism_algebra():
    # End of QQ(i) over itself is QQ(i): its top is not a product of copies
    # of QQ, so it has no homogeneous generators to count
    with pytest.raises(PreconditionFailed, match="no arrows"):
        ar_quiver([regular_module(gaussian_rationals())], 1)


def test_connecting_tilting_and_check():
    a = preprojective_a_n(2)
    inds, p, s1, s2 = preproj_parts(a)
    c1 = p + [s1]
    c2 = p + [s2]
    data1, u = connecting_tilting(c1, c2)
    assert u.dim == sum(len(__import__("fdhom.modules", fromlist=["hom_basis"])
                            .hom_basis(x, y)) for x in c1 for y in c2)
    assert tilting_check(data1.algebra, u, 1, 8)


def test_tilting_check_regular():
    a = path_algebra_a_n(2)
    assert tilting_check(a, regular_module(a), 0, 8)


def test_tilting_check_rejects_simple():
    a = path_algebra_a_n(2)
    data, u = connecting_tilting(
        [projective_module(a, 0), projective_module(a, 1)],
        [simple_module(a, 0)])
    # U = Hom(Λ, S1) = S1 over Γ ≅ Λ: pd 1 > 0
    assert not tilting_check(data.algebra, u, 0, 8)
