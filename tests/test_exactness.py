"""One exactness certificate, `modules._certify_exact`, checked once per Ω link.

`omega` certifies its link 0 -> Ω m -> P -> m -> 0 when it builds it, and
`Resolution` is spliced from those links with no check of its own; the
almost split and n-almost split sequences go through the same certificate.
The mutation tests break one map and expect CertificateFailed where the
rank counts alone would pass the broken sequence.
"""

import pytest

import fdhom.linalg as linalg
import fdhom.modules as modules
import fdhom.subcats as subcats
from fdhom.errors import CertificateFailed
from fdhom.homology import injective_coresolution_terms, pd
from fdhom.linalg import Matrix, kernel_coords
from fdhom.modules import (
    ModuleMap,
    _certify_exact,
    _invariant_submodule,
    min_proj_resolution,
    omega,
    projective_cover,
    simple_module,
)
from fdhom.presets import path_algebra_a_n, preprojective_a_n
from fdhom.subcats import almost_split_sequence, knit_indecomposables, n_almost_split


def _link(m):
    """The maps Ω m -> P -> m of m's Ω link."""
    return [omega(m)[1], projective_cover(m)[1]]


def _with_matrix(fmap, mat):
    return ModuleMap(fmap.source, fmap.target, mat, check=False)


def test_the_certificate_accepts_a_short_exact_link():
    a = path_algebra_a_n(3)
    for v in range(3):
        _certify_exact(_link(simple_module(a, v)), "link")


def test_the_certificate_refuses_each_failed_clause():
    a = path_algebra_a_n(3)
    incl, q = _link(simple_module(a, 0))  # 0 -> P_2 -> P_1 -> S_1 -> 0
    f = a.field
    zero_q = _with_matrix(q, Matrix(f, q.target.dim, q.source.dim))
    zero_incl = _with_matrix(incl, Matrix(f, incl.target.dim, incl.source.dim))
    for maps in ([incl, zero_q],          # not onto, and not exact at P
                 [zero_incl, q],          # not injective
                 [incl],                  # P_2 -> P_1 is not onto
                 [q]):                    # P_1 -> S_1 is not injective
        with pytest.raises(CertificateFailed, match="broken"):
            _certify_exact(maps, "broken")


def _scrambled(fmap, breaks):
    """fmap with its matrix times an elementary matrix I + E_ij, on the
    source side or on the target side, the first for which breaks(matrix)
    holds: the rank stays, and with it every rank count."""
    f = fmap.source.algebra.field
    for n, right in ((fmap.source.dim, True), (fmap.target.dim, False)):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                s = Matrix.identity(f, n)
                s.set(i, j, f.one)
                mat = fmap.matrix @ s if right else s @ fmap.matrix
                if breaks(mat):
                    return _with_matrix(fmap, mat)
    raise ValueError("no elementary matrix breaks the sequence")


def test_a_kernel_missing_a_column_is_refused_by_the_coresolution(monkeypatch):
    # built on such kernels, without the link certificate, the coresolution
    # of kA4 comes out with wrong terms and no error
    assert [t.dim for t in injective_coresolution_terms(path_algebra_a_n(4), 4)] \
        == [16, 6, 0, 0]
    real = modules.kernel

    def dropping(fmap):
        kb = fmap.kernel_basis()
        if kb.cols == 0:
            return real(fmap)
        kb = kb.block(0, 0, kb.rows, kb.cols - 1)
        return _invariant_submodule(fmap.source, kb, kernel_coords(kb))

    monkeypatch.setattr(modules, "kernel", dropping)
    with pytest.raises(CertificateFailed, match="Ω link"):
        injective_coresolution_terms(path_algebra_a_n(4), 4)


def test_an_almost_split_sequence_with_a_nonzero_composite_is_refused(monkeypatch):
    # kA2: 0 -> P_2 -> P_1 -> S_1 -> 0; the scrambled E -> Z keeps rank 1,
    # so the rank counts pass, but it does not vanish on P_2
    z = simple_module(path_algebra_a_n(2), 0)
    seen = []
    pushout, induced = subcats._pushout, subcats._induced_out

    def recording_pushout(f1, f2):
        out = pushout(f1, f2)
        seen.append(out[1][0])  # tau Z -> E
        return out

    def scrambled_out(mid, out_data, q):
        good = induced(mid, out_data, q)
        bad = _scrambled(good, lambda mat: not (mat @ seen[0].matrix).is_zero())
        assert bad.rank() == good.rank() == z.dim
        return bad

    monkeypatch.setattr(subcats, "_pushout", recording_pushout)
    monkeypatch.setattr(subcats, "_induced_out", scrambled_out)
    with pytest.raises(CertificateFailed, match="pushout sequence"):
        almost_split_sequence(z)


def test_an_n_almost_split_sequence_with_a_nonzero_composite_is_refused(monkeypatch):
    # preprojective A2, n = 2: Y -> C_1 -> C_0 -> X, every map of rank 1.
    # The maps are transported from P_1 -> P_0, P_2 -> P_1, P_3 -> P_2 of
    # the resolution, in that order, so the last one made is Y -> C_1; it
    # is scrambled to keep its rank but not vanish under C_1 -> C_0
    a = preprojective_a_n(2)
    inds, complete = knit_indecomposables(a)
    assert complete
    gens = [m for m in inds if m.dim == 2] + \
        [next(m for m in inds if m.vertex_dims() == (1, 0))]
    assert [t.dim for t in n_almost_split(gens, 2, 2).terms] == [1, 2, 2, 1]
    transport = subcats._transport_map
    made = []

    def scrambling(*args):
        mp = transport(*args)
        if len(made) == 2:
            bad = _scrambled(mp, lambda mat: not (made[1].matrix @ mat).is_zero())
            assert bad.rank() == mp.rank()
            mp = bad
        made.append(mp)
        return mp

    monkeypatch.setattr(subcats, "_transport_map", scrambling)
    with pytest.raises(CertificateFailed, match="transported sequence"):
        n_almost_split(gens, 2, 2)
    assert len(made) == 3


@pytest.mark.parametrize("make, v", [(lambda: preprojective_a_n(3), 1),
                                     (lambda: path_algebra_a_n(4), 0)])
def test_a_repeated_resolution_runs_no_elimination(make, v, monkeypatch):
    # the Ω links are certified when they are built; a resolution spliced
    # from kept links eliminates nothing, however often it is asked for
    m = simple_module(make(), v)
    first = min_proj_resolution(m, 4)
    first_pd = pd(m, 4)
    calls = []
    rref = linalg.rref

    def counted(mat):
        calls.append(mat)
        return rref(mat)

    monkeypatch.setattr(linalg, "rref", counted)
    again = min_proj_resolution(m, 4)
    assert pd(m, 4) == first_pd
    assert calls == []
    assert again.modules == first.modules
    assert again.truncated_at == first.truncated_at


def test_each_link_is_certified_once(monkeypatch):
    certified = []
    certify = modules._certify_exact

    def counted(maps, what):
        certified.append(maps[-1].target)
        return certify(maps, what)

    monkeypatch.setattr(modules, "_certify_exact", counted)
    x = simple_module(preprojective_a_n(3), 0)
    for cap in (1, 4, 2, 4):
        min_proj_resolution(x, cap)
        pd(x, cap)
    assert len(certified) == len({id(m) for m in certified}) == 5
