from fdhom.endalg import (
    end_algebra,
    module_over_end,
    module_over_end_map,
    module_over_end_op,
)
from fdhom.homology import ext_dim, star_module
from fdhom.modules import (
    cartan_matrix,
    hom_basis,
    hom_coords,
    hom_dim,
    identity_map,
    injective_module,
    iso,
    projective_module,
    regular_module,
    simple_module,
    zero_module,
)
from fdhom.auslander import ext_top_module
from fdhom.linalg import Matrix
from fdhom.presets import loop_algebra, path_algebra_a_n, preprojective_a_n
from fdhom.subcats import knit_indecomposables


def test_end_of_projectives_is_basic_algebra():
    a = path_algebra_a_n(2)
    data = end_algebra([projective_module(a, 0), projective_module(a, 1)])
    g = data.algebra
    assert g.dim == a.dim
    assert cartan_matrix(g) == cartan_matrix(a)


def test_end_of_indecs_ka2():
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    data = end_algebra(inds)
    # dim = sum of pairwise hom dimensions
    expect = sum(hom_dim(x, y) for x in inds for y in inds)
    assert data.algebra.dim == expect


def test_auslander_algebra_of_loop_dim_5():
    a = loop_algebra(2)
    inds, _ = knit_indecomposables(a)
    data = end_algebra(inds)
    assert data.algebra.dim == 5


def test_module_over_end_projectives():
    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    data = end_algebra(inds)
    for j, g in enumerate(data.gens):
        pj = module_over_end(data, g)
        assert iso(pj, projective_module(data.algebra, j)) is not None


def test_module_over_end_zero():
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    data = end_algebra(inds)
    assert module_over_end(data, zero_module(a)).dim == 0


def test_module_over_end_dims():
    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    data = end_algebra(inds)
    s2 = simple_module(a, 1)
    m = module_over_end(data, s2)
    assert m.dim == sum(hom_dim(g, s2) for g in data.gens)


def test_module_over_end_map_functorial():
    a = path_algebra_a_n(2)
    inds, _ = knit_indecomposables(a)
    data = end_algebra(inds)
    p1 = projective_module(a, 0)
    s1 = simple_module(a, 0)
    for h in hom_basis(p1, s1):
        fh = module_over_end_map(data, h)
        assert fh.source.dim == module_over_end(data, p1).dim
        assert fh.target.dim == module_over_end(data, s1).dim


def test_cotilting_transport_preserves_ext():
    # Hom(-, T) for T = DΛ: dim Ext^i(X, Y) = dim Ext^i(GY, GX) over End(T)^op
    a = path_algebra_a_n(3)
    t_parts = [injective_module(a, v) for v in range(3)]
    data = end_algebra(t_parts)
    mods = [simple_module(a, v) for v in range(3)]
    for x in mods:
        for y in mods:
            gx = module_over_end_op(data, x)
            gy = module_over_end_op(data, y)
            for i in range(3):
                assert ext_dim(x, y, i) == ext_dim(gy, gx, i)


def test_module_over_end_op_of_generator_is_opposite_projective():
    # Hom(M_j, ⊕M_i) is the right ideal e_j End, the projective at j over End^op
    for a in (preprojective_a_n(2), path_algebra_a_n(3)):
        inds, _ = knit_indecomposables(a)
        data = end_algebra(inds)
        for j, g in enumerate(data.gens):
            pj = module_over_end_op(data, g)
            assert iso(pj, projective_module(data.algebra.op, j)) is not None


def test_star_of_projective_is_opposite_projective():
    # Hom(A e_i, A) ≅ e_i A, the projective at i over A^op
    for a in (preprojective_a_n(2), path_algebra_a_n(3), loop_algebra(2)):
        for i in range(len(a.idempotents)):
            sm = star_module(projective_module(a, i))
            assert sm.action == projective_module(a.op, i).action


def test_module_over_end_map_respects_identities_and_composites():
    a = path_algebra_a_n(3)
    inds, _ = knit_indecomposables(a)
    data = end_algebra(inds)
    mods = inds + [regular_module(a)]
    for x in mods:
        fid = module_over_end_map(data, identity_map(x))
        assert fid.matrix == Matrix.identity(a.field, fid.source.dim)
    homs = {(x, y): [(h, module_over_end_map(data, h).matrix)
                     for h in hom_basis(mods[x], mods[y])]
            for x in range(len(inds)) for y in range(len(inds))}
    composed = 0
    for (x, y), fs in homs.items():
        for z in range(len(inds)):
            for f, ff in fs:
                for g, fg in homs[(y, z)]:
                    fgf = module_over_end_map(data, f.then(g)).matrix
                    composed += not fgf.is_zero()
                    assert fgf == fg @ ff
    assert composed > 10


def test_ext_top_module_dimension_is_top_ext():
    # the Auslander algebras of the acceptance suite have gl.dim 2 = n + 1
    for a in (path_algebra_a_n(2), path_algebra_a_n(3), loop_algebra(2)):
        inds, _ = knit_indecomposables(a)
        gamma = end_algebra(inds).algebra
        reg = regular_module(gamma)
        tops = 0
        for v in range(len(gamma.idempotents)):
            s = simple_module(gamma, v)
            top = ext_top_module(s, 2)
            assert top.algebra is gamma.op
            assert top.dim == ext_dim(s, reg, 2)
            tops += top.dim
        assert tops > 0


def _table_from_a_scan_of_all_pairs(data):
    """The multiplication table of End(⊕ gens) with the composable pairs
    for each (i, l) found by scanning all pairs of basis tags: the pairs
    (k1, k2) with k1 out of M_i and k2 from the target of k1 into M_l, k1
    and then k2 ascending."""
    gens, hom, tags = data.gens, data.hom, data.basis_tags
    maps = [hom[(i, j)][idx].matrix for i, j, idx in tags]
    start = {}
    for k, (i, j, _) in enumerate(tags):
        start.setdefault((i, j), k)
    mult = [{} for _ in tags]
    for i in range(len(gens)):
        for l in range(len(gens)):
            pairs = [(k1, k2) for k1, (i1, j1, _) in enumerate(tags) if i1 == i
                     for k2, (i2, l2, _) in enumerate(tags) if (i2, l2) == (j1, l)]
            if not pairs:
                continue
            coords = hom_coords(hom[(i, l)], [maps[k2] @ maps[k1] for k1, k2 in pairs])
            for (k1, k2), col in zip(pairs, coords.transpose().nz):
                if col:
                    mult[k1][k2] = {start[(i, l)] + idx: x
                                    for idx, x in sorted(col.items())}
    return mult


def test_end_algebra_table_matches_a_scan_of_all_pairs_of_tags():
    # the same products in the same order, so the table is identical down to
    # the insertion order of its dicts
    for a in (path_algebra_a_n(3), preprojective_a_n(2), loop_algebra(3)):
        inds, _ = knit_indecomposables(a)
        data = end_algebra(inds, check_indec=False)
        want = _table_from_a_scan_of_all_pairs(data)
        got = data.algebra.mult
        assert got == want
        assert [[(t, list(x.items())) for t, x in row.items()] for row in got] \
            == [[(t, list(x.items())) for t, x in row.items()] for row in want]
