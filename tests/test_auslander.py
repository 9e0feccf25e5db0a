import pytest

from fdhom.auslander import (
    algebra_tables_match,
    alpha,
    alpha_inv,
    check_auslander_algebra,
    check_extension_pair,
    check_superprojective,
    condition_4_7_1,
    ext_top_module,
    o_bound,
    repdim_search,
    roundtrip_equivalence,
    verify_triple,
)
from fdhom.endalg import end_algebra
from fdhom.errors import PreconditionFailed
from fdhom.homology import domdim, gldim, injective_dim, pd
from fdhom.modules import (
    dual,
    injective_module,
    iso,
    projective_module,
    regular_module,
    simple_module,
)
from fdhom.presets import (
    loop_algebra,
    path_algebra_a_n,
    preprojective_a_n,
    semisimple_k_n,
)
from fdhom.results import AtLeastCap
from fdhom.subcats import knit_indecomposables


def classical_triple(a):
    inds, complete = knit_indecomposables(a)
    assert complete
    dla = dual(regular_module(a.op))
    return verify_triple(a, inds, dla, 0, 1, cap=8, ind_b=inds), inds


def test_trivial_triple_valid():
    a = path_algebra_a_n(2)
    gens = [projective_module(a, 0), projective_module(a, 1)]
    reg = regular_module(a)
    for n in (1, 2):
        tri = verify_triple(a, gens, reg, 1, n, cap=8)
        assert tri.valid, tri.reason


def test_classical_triples_valid():
    for a in [path_algebra_a_n(2), path_algebra_a_n(3), loop_algebra(2)]:
        tri, _ = classical_triple(a)
        assert tri.valid, tri.reason


def test_preprojective_triple_valid():
    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    p = [m for m in inds if m.dim == 2]
    s1 = next(m for m in inds if m.vertex_dims() == (1, 0))
    tri = verify_triple(a, p + [s1], regular_module(a), 0, 2, cap=8,
                        ind_b=inds)
    assert tri.valid, tri.reason


def test_refuted_triple():
    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    p = [m for m in inds if m.dim == 2]
    tri = verify_triple(a, p, regular_module(a), 0, 2, cap=8, ind_b=inds)
    assert not tri.valid


def test_alpha_and_certificates_ka2():
    a = path_algebra_a_n(2)
    tri, inds = classical_triple(a)
    pres = alpha(tri)
    g = pres.data.algebra
    assert g.dim == 5
    assert check_extension_pair(g, sorted(set(pres.f)), sorted(set(pres.e)),
                                0, 8)
    ok, _ = check_superprojective(g, sorted(set(pres.e)), 1, 8)
    assert ok


def test_alpha_trivial_triple_unwinds():
    a = path_algebra_a_n(2)
    gens = [projective_module(a, 0), projective_module(a, 1)]
    tri = verify_triple(a, gens, regular_module(a), 1, 1, cap=8)
    pres = alpha(tri)
    # Γ = End(Λ) ≅ Λ; P = Hom(Λ, Λ) ≅ Λ; I = DΛ
    assert pres.data.algebra.dim == a.dim
    assert pres.p_mod.dim == a.dim
    assert pres.i_mod.dim == a.dim


def test_roundtrip_ka2():
    a = path_algebra_a_n(2)
    tri, _ = classical_triple(a)
    pres = alpha(tri)
    lam_data, m_mod, t_mod = alpha_inv(pres.data.algebra, pres.p_mod,
                                       pres.i_mod, 0, 1, cap=8)
    assert lam_data.algebra.dim == a.dim
    assert roundtrip_equivalence(tri, pres, lam_data, m_mod, t_mod)
    assert algebra_tables_match(pres, lam_data)


def test_roundtrip_loop():
    a = loop_algebra(2)
    tri, _ = classical_triple(a)
    pres = alpha(tri)
    lam_data, m_mod, t_mod = alpha_inv(pres.data.algebra, pres.p_mod,
                                       pres.i_mod, 0, 1, cap=8)
    # Λ regenerated with dim 2 and a single idempotent; M has 2 summands
    assert lam_data.algebra.dim == 2
    assert len(lam_data.algebra.idempotents) == 1
    from fdhom.modules import decompose

    assert len(decompose(m_mod).summands) == 2
    assert roundtrip_equivalence(tri, pres, lam_data, m_mod, t_mod)
    assert algebra_tables_match(pres, lam_data)


def test_roundtrip_preprojective_n2():
    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    p = [m for m in inds if m.dim == 2]
    s1 = next(m for m in inds if m.vertex_dims() == (1, 0))
    tri = verify_triple(a, p + [s1], regular_module(a), 0, 2, cap=8,
                        ind_b=inds)
    pres = alpha(tri)
    assert check_extension_pair(pres.data.algebra, sorted(set(pres.f)),
                                sorted(set(pres.e)), 0, 8)
    ok, _ = check_superprojective(pres.data.algebra, sorted(set(pres.e)), 2, 8)
    assert ok
    lam_data, m_mod, t_mod = alpha_inv(pres.data.algebra, pres.p_mod,
                                       pres.i_mod, 0, 2, cap=8)
    assert roundtrip_equivalence(tri, pres, lam_data, m_mod, t_mod)
    assert algebra_tables_match(pres, lam_data)


def test_extension_pair_selfinjective():
    a = preprojective_a_n(2)
    idx = list(range(len(a.idempotents)))
    assert check_extension_pair(a, idx, idx, 0, 8)


def test_extension_pair_rejects():
    a = path_algebra_a_n(2)
    # P = P2 (non-injective), I = I1: id P2 = 1 > 0
    assert not check_extension_pair(a, [1], [0], 0, 8)


def test_superprojective_cases():
    a3 = path_algebra_a_n(3)
    inds, _ = knit_indecomposables(a3)
    data = end_algebra(inds)
    g = data.algebra
    # dom.dim >= 2 makes the leading injectives a witness at n = 1
    e = [i for i, m in enumerate(inds)
         if iso(m, projective_module(a3, 0)) is not None
         or iso(m, projective_module(a3, 1)) is not None
         or iso(m, projective_module(a3, 2)) is not None]
    ok, _ = check_superprojective(g, e, 1, 8)
    assert ok


def test_superprojective_failure():
    a = path_algebra_a_n(2)
    # e = the projective-injective vertex over kA2: Γ = Λ, n = 1 fails
    # (the remaining simple has grade <= 1)
    ok, _ = check_superprojective(a, [0], 1, 8)
    assert not ok


def test_check_auslander_algebra():
    a3 = path_algebra_a_n(3)
    inds, _ = knit_indecomposables(a3)
    g = end_algebra(inds).algebra
    assert check_auslander_algebra(g, 0, 1, 8)
    assert not check_auslander_algebra(path_algebra_a_n(2), 0, 1, 8)
    assert check_auslander_algebra(semisimple_k_n(2), 0, 1, 8)


def test_471_auslander_algebras():
    for a in [path_algebra_a_n(2), loop_algebra(2)]:
        inds, _ = knit_indecomposables(a)
        g = end_algebra(inds).algebra
        lhs, rhs = condition_4_7_1(g, 1, 8)
        assert lhs and rhs


def test_471_negative_instance():
    # End of a non-generator over kA3 with gl.dim 2 and dom.dim 1
    a3 = path_algebra_a_n(3)
    inds, _ = knit_indecomposables(a3)
    by_dims = {m.vertex_dims(): m for m in inds}
    gens = [by_dims[(1, 1, 1)], by_dims[(1, 0, 0)], by_dims[(0, 1, 1)],
            by_dims[(1, 1, 0)]]
    g = end_algebra(gens).algebra
    assert gldim(g, 8) == 2
    assert domdim(g, 8) == 1
    lhs, rhs = condition_4_7_1(g, 1, 8)
    assert lhs is False and rhs is False


def test_471_guards_gldim():
    with pytest.raises(PreconditionFailed):
        condition_4_7_1(path_algebra_a_n(2), 1, 8)


def test_repdim_needs_complete_list():
    from fdhom.errors import IncompleteEnumeration

    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    with pytest.raises(IncompleteEnumeration):
        repdim_search(a, 1, inds, complete=False)


def test_repdim_needs_projectives_present():
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    missing = [m for m in inds if m.dim == 1]
    with pytest.raises(PreconditionFailed):
        repdim_search(a, 1, missing)


def test_alpha_inv_rejects_non_projective_p():
    a = preprojective_a_n(2)
    s1 = simple_module(a, 0)
    with pytest.raises(PreconditionFailed):
        alpha_inv(a, s1, regular_module(a), 0, 2, cap=8)


def test_repdim_semisimple():
    a = semisimple_k_n(2)
    inds, _ = knit_indecomposables(a)
    rep = repdim_search(a, 1, inds, cap=8)
    assert rep.value == 0


def test_repdim_ka2():
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    rep = repdim_search(a, 1, inds, cap=8)
    assert rep.value == 2
    assert len(rep.witness) == 3


def test_repdim_preprojective():
    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    rep = repdim_search(a, 1, inds, cap=8)
    assert rep.value == 2
    assert len(rep.witness) == 4
    assert len(rep.capped) == 1  # End(Λ) alone: infinite global dimension


def test_obound_semisimple():
    a = semisimple_k_n(3)
    inds, _ = knit_indecomposables(a)
    assert o_bound(inds).value == 3


def test_obound_preprojective():
    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    rep = o_bound(inds)
    assert rep.value == 3


def test_obound_ka2():
    # brute force over all 8 subsets is the oracle: Ext^1(I1, P2) = 1 keeps
    # the simple injective and the simple projective apart, so the maximum
    # 1-orthogonal family has two members
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    import itertools

    from fdhom.homology import ext_dim

    best = 0
    for r in range(4):
        for sub in itertools.combinations(inds, r):
            if all(ext_dim(x, y, 1) == 0 for x in sub for y in sub):
                best = max(best, len(sub))
    assert o_bound(inds).value == best == 2


def test_431_invariants_on_triples():
    # gl.dim Γ = max(n+1, id T) for non-trivial triples; two-sided (m+1,n+1)
    from fdhom.homology import two_sided_mn

    cases = []
    for a in [path_algebra_a_n(2), loop_algebra(2)]:
        tri, inds = classical_triple(a)
        cases.append((tri, 1))
    for tri, n in cases:
        pres = alpha(tri)
        g = pres.data.algebra
        assert two_sided_mn(g, tri.m + 1, tri.n + 1, 8)
        idt = injective_dim(tri.t, 8)
        expect = max(tri.n + 1, idt if not isinstance(idt, AtLeastCap) else 0)
        assert gldim(g, 8) == expect
        # 2.6.1: gl.dim ≤ max(n+1, m)
        assert gldim(g, 8) <= max(tri.n + 1, tri.m) + (
            0 if tri.m <= tri.n else 0)


def test_512_orthogonality_iff_two_sided_condition():
    # for generator-cogenerators M with T = DΛ (so m = 0):
    # M ⊥_{n-1} M  <=>  End(M) satisfies the two-sided (1, n+1)-condition
    import itertools

    from fdhom.homology import ext_dim, two_sided_mn
    from fdhom.subcats import ortho_check

    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    forced = [i for i, m in enumerate(inds) if m.dim == 2]  # Λ = DΛ summands
    optional = [i for i in range(len(inds)) if i not in forced]
    n = 2
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            subset = sorted(forced + list(extra))
            gens = [inds[i] for i in subset]
            lhs, _ = ortho_check(gens, n - 1)
            g = end_algebra(gens, check_indec=False).algebra
            rhs = two_sided_mn(g, 1, n + 1, 8)
            assert lhs == rhs, subset
    # over kA3 with n = 1 both sides hold for every generator-cogenerator
    a3 = path_algebra_a_n(3)
    inds3, _ = knit_indecomposables(a3)
    forced3 = set()
    for v in range(3):
        for mod in (projective_module(a3, v), injective_module(a3, v)):
            forced3.add(next(i for i, m in enumerate(inds3)
                             if iso(m, mod) is not None))
    optional3 = [i for i in range(len(inds3)) if i not in forced3]
    for r in range(len(optional3) + 1):
        for extra in itertools.combinations(optional3, r):
            gens = [inds3[i] for i in sorted(forced3 | set(extra))]
            g = end_algebra(gens, check_indec=False).algebra
            assert two_sided_mn(g, 1, 2, 8)


def test_424_simples_of_quotient_have_pd_grade_n_plus_1():
    from fdhom.algebra import quotient_by_idempotent_ideal
    from fdhom.auslander import _inflate
    from fdhom.homology import grade

    a = path_algebra_a_n(2)
    tri, inds = classical_triple(a)
    pres = alpha(tri)
    g = pres.data.algebra
    quot, pm = quotient_by_idempotent_ideal(g, sorted(set(pres.e)))
    assert quot.dim > 0
    for v in range(len(quot.idempotents)):
        s = simple_module(quot, v)
        infl = _inflate(g, pm, s)
        assert pd(infl, 8) == tri.n + 1
        assert grade(infl, 8) == tri.n + 1


def test_ext_duality_on_quotient_simples():
    # applying Ext^{n+1}(-, Γ) twice returns the simple (up to iso)
    from fdhom.algebra import quotient_by_idempotent_ideal
    from fdhom.auslander import _inflate

    a = path_algebra_a_n(2)
    tri, inds = classical_triple(a)
    pres = alpha(tri)
    g = pres.data.algebra
    quot, pm = quotient_by_idempotent_ideal(g, sorted(set(pres.e)))
    for v in range(len(quot.idempotents)):
        s = simple_module(quot, v)
        infl = _inflate(g, pm, s)
        once = ext_top_module(infl, tri.n + 1)
        twice = ext_top_module(once, tri.n + 1)
        assert iso(twice, infl) is not None
