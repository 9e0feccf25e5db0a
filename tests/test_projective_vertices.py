"""`modules.projective_vertices` against the routes it replaced.

A module is projective exactly when its minimal projective cover has its
dimension, and the cover's summands then name its vertices.  The oracles
are the two older tests: splitting off projective summands until nothing is
left (`strip_projectives`), and an isomorphism scan over the indecomposable
projectives.  ν⁻ on add(DΓ) is checked against the route through the star
module of the decomposed D I.  The projectives and injectives that
`repdim_search` must keep are checked against the `member_of` scans it used
before.
"""

import random

import pytest

import fdhom.auslander
from fdhom.auslander import (
    _projective_injective_indices,
    alpha,
    repdim_search,
    verify_triple,
)
from fdhom.errors import PreconditionFailed
from fdhom.homology import star_module
from fdhom.linalg import GF
from fdhom.modules import (
    decompose,
    direct_sum,
    dual,
    injective_module,
    iso,
    projective_injective_vertices,
    projective_module,
    projective_vertices,
    projective_vertices_among,
    regular_module,
    strip_projectives,
    zero_module,
)
from fdhom.presets import loop_algebra, path_algebra_a_n, preprojective_a_n
from fdhom.results import AtLeastCap
from fdhom.subcats import (
    knit_indecomposables,
    maximal_ortho_homological,
    member_of,
)
from test_instances import d4_subspace_algebra
from test_span_chain import TRANSPOSE_ALGEBRAS


def _stripped_away(m):
    """The strip oracle: m is projective when nothing is left of it."""
    return strip_projectives(m)[0].dim == 0


def _projective_vertex_by_scan(a, m):
    """The iso-scan oracle: the vertex of the indecomposable projective
    isomorphic to m, or None."""
    for v in range(len(a.idempotents)):
        p = projective_module(a, v)
        if p.dim == m.dim and iso(p, m) is not None:
            return v
    return None


@pytest.mark.parametrize("name", TRANSPOSE_ALGEBRAS)
def test_projective_vertices_agree_with_stripping_and_the_iso_scan(name):
    a = TRANSPOSE_ALGEBRAS[name]()
    inds, complete = knit_indecomposables(a)
    assert complete
    seen = {True: 0, False: 0}
    for x in inds:
        for m in (x, dual(x)):
            alg = m.algebra
            verts = projective_vertices(m)
            projective = _stripped_away(m)
            assert (verts is not None) == projective
            scanned = _projective_vertex_by_scan(alg, m)
            assert verts == (None if scanned is None else [scanned])
            seen[projective] += 1
            # with a projective added, the sum is projective exactly when m is
            for v in range(len(alg.idempotents)):
                s, _, _ = direct_sum([m, projective_module(alg, v)])
                sverts = projective_vertices(s)
                assert (sverts is not None) == projective == _stripped_away(s)
                if projective:
                    assert sorted(sverts) == sorted(verts + [v]) \
                        == sorted(strip_projectives(s)[1])
    assert seen[True] and seen[False]


def test_projective_vertices_of_sums_and_the_zero_module():
    a = preprojective_a_n(2)
    reg = regular_module(a)
    assert projective_vertices(reg) == [0, 1]
    s, _, _ = direct_sum([projective_module(a, 1)] * 2 + [projective_module(a, 0)])
    assert projective_vertices(s) == [0, 1, 1]
    assert projective_vertices(zero_module(a)) == []


ALGEBRAS = {
    "kA3": lambda: path_algebra_a_n(3),
    "kA4": lambda: path_algebra_a_n(4),
    "preprojective-A2 GF(3)": lambda: preprojective_a_n(2, GF(3)),
    "preprojective-A3": lambda: preprojective_a_n(3),
    "D4": d4_subspace_algebra,
    "loop": lambda: loop_algebra(2),
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_projective_injective_vertices_agree_with_stripping(name):
    a = ALGEBRAS[name]()
    for alg in (a, a.op):
        expected = {v for v in range(len(alg.idempotents))
                    if _stripped_away(injective_module(alg, v))}
        assert projective_injective_vertices(alg) == expected


def _nu_inverse_by_star_module(gamma, i_mod):
    """The route α⁻¹ used before: decompose D I, find each leaf's vertex by
    the iso scan over Γ^op, and take the star module of the sum."""
    parts = []
    for leaf in decompose(dual(i_mod)).leaves:
        v = _projective_vertex_by_scan(gamma.op, leaf)
        assert v is not None
        parts.append(projective_module(gamma.op, v))
    return star_module(direct_sum(parts)[0])


def _classical_triple(a):
    inds, complete = knit_indecomposables(a)
    assert complete
    return verify_triple(a, inds, dual(regular_module(a.op)), 0, 1, cap=8,
                         ind_b=inds)


def _preprojective_triple():
    a = preprojective_a_n(2)
    inds, _ = knit_indecomposables(a)
    gens = [m for m in inds if m.dim == 2]
    gens.append(next(m for m in inds if m.vertex_dims() == (1, 0)))
    return verify_triple(a, gens, regular_module(a), 0, 2, cap=8, ind_b=inds)


ROUNDTRIPS = {
    "kA2": lambda: _classical_triple(path_algebra_a_n(2)),
    "kA3": lambda: _classical_triple(path_algebra_a_n(3)),
    "loop": lambda: _classical_triple(loop_algebra(2)),
    "preprojective-A2": _preprojective_triple,
}


@pytest.mark.parametrize("name", ROUNDTRIPS)
def test_nu_inverse_is_the_sum_of_projectives_at_the_vertices_of_d_i(name):
    tri = ROUNDTRIPS[name]()
    assert tri.valid, tri.reason
    pres = alpha(tri)
    gamma = pres.data.algebra
    old = _nu_inverse_by_star_module(gamma, pres.i_mod)
    verts = projective_vertices(dual(pres.i_mod))
    new, _, _ = direct_sum([projective_module(gamma, v) for v in verts])
    assert iso(old, new) is not None
    # α⁻¹ takes one projective per distinct vertex: the summands of Q
    distinct = [projective_module(gamma, v) for v in sorted(set(verts))]
    reps = [r for r, _ in decompose(old).summands]
    assert len(reps) == len(distinct)
    assert all(any(iso(r, p) is not None for p in distinct) for r in reps)
    # the projective generators that α finds are those the strip oracle finds
    assert pres.e == [i for i, g in enumerate(tri.gens)
                      if _stripped_away(g)]


def _projective_vertices_by_scan(lam, gens):
    """The member_of oracle: the v with P_v isomorphic to some generator."""
    return {v for v in range(len(lam.idempotents))
            if member_of(gens, projective_module(lam, v)) is not None}


@pytest.mark.parametrize("name", ROUNDTRIPS)
def test_projective_vertices_among_agrees_with_the_member_of_scan(name):
    tri = ROUNDTRIPS[name]()
    lam, gens = tri.lam, tri.gens
    everything = direct_sum(gens)[0]
    assert projective_vertices_among(gens) == \
        _projective_vertices_by_scan(lam, gens) == \
        set(range(len(lam.idempotents)))
    assert projective_vertices_among([everything]) == \
        _projective_vertices_by_scan(lam, [everything])
    for i in range(len(gens)):
        rest = gens[:i] + gens[i + 1:]
        present = projective_vertices_among(rest)
        assert present == _projective_vertices_by_scan(lam, rest)
        missing = sorted(set(range(len(lam.idempotents))) - present)
        if not missing:
            continue
        # both checks name the first missing projective, as the scan did
        sub = verify_triple(lam, rest, tri.t, tri.m, tri.n, cap=8)
        assert (sub.valid, sub.reason) == \
            (False, f"projective {missing[0]} not in add M")
        hv = maximal_ortho_homological(lam, rest, tri.t, tri.m, tri.n, 8)
        assert (hv.verdict, hv.reason) == \
            (False, f"projective {missing[0]} missing")


def _forced_by_scan(a, mods):
    """The member_of oracle for repdim_search: the first index of P_v and of
    I_v in mods, for every vertex v, or None when one is missing."""
    found = [member_of(mods, m) for v in range(len(a.idempotents))
             for m in (projective_module(a, v), injective_module(a, v))]
    return None if None in found else set(found)


@pytest.mark.parametrize("name", TRANSPOSE_ALGEBRAS)
def test_repdim_indices_agree_with_the_member_of_scan(name):
    a = TRANSPOSE_ALGEBRAS[name]()
    inds, complete = knit_indecomposables(a)
    assert complete
    shuffled = inds[:]
    random.Random(4).shuffle(shuffled)
    # repeated modules: the first index of each is kept, as the scan kept it
    for mods in (inds, inds[::-1], shuffled, inds + inds, shuffled + inds):
        want = _forced_by_scan(a, mods)
        assert want is not None
        assert _projective_injective_indices(a, mods) == want
    for v in range(len(a.idempotents)):
        for gone in (projective_module(a, v), injective_module(a, v)):
            rest = [m for m in inds if iso(m, gone) is None]
            assert _forced_by_scan(a, rest) is None
            with pytest.raises(PreconditionFailed):
                _projective_injective_indices(a, rest)


def test_repdim_search_makes_no_iso_scan(monkeypatch):
    # kA_4 with n = 1: the search used to find its projectives and
    # injectives by 8 member_of scans
    a = path_algebra_a_n(4)
    inds, complete = knit_indecomposables(a)
    assert complete

    def refuse(*args):
        raise AssertionError("member_of called")

    monkeypatch.setattr(fdhom.auslander, "member_of", refuse)
    rep = repdim_search(a, 1, inds, cap=8)
    assert not isinstance(rep.value, AtLeastCap)
    assert set(rep.witness) >= _forced_by_scan(a, inds)
