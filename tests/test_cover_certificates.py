"""Certificates that a minimal cover keeps, and the kernels built on them.

Minimality of a cover, kernel inside JP, is certified by the kernel basis
vanishing under the top projections of the summands P_v, whatever JM and the
greedy choice were; the kernel basis that certifies surjectivity is kept on
the epi, and `omega` spans it with coordinates read off its free columns,
with no solve.  A simple module S_v keeps the projection from P_v as
its cover.  The oracles are the routes these replaced: a kernel whose
coordinates come from the left inverse (`_left_inverse`), and the greedy
cover of a simple module.
"""

import random

import pytest

import fdhom.modules as modules
from conftest import random_module
from fdhom.algebra import _SpanReducer
from fdhom.errors import CertificateFailed
from fdhom.linalg import GF, QQ, Matrix, kernel_basis, kernel_coords
from fdhom.modules import (
    ModuleMap,
    _left_inverse,
    _minimal_cover,
    _radical_span,
    hom_basis,
    identity_map,
    iso,
    kernel,
    omega,
    projective_cover,
    projective_module,
    radical_of_module,
    simple_module,
    top,
    zero_map,
)
from fdhom.presets import path_algebra_a_n, preprojective_a_n
from test_instances import d4_subspace_algebra

BASIC = {
    "kA3": lambda: path_algebra_a_n(3),
    "preprojective-A2 GF(3)": lambda: preprojective_a_n(2, GF(3)),
    "D4": d4_subspace_algebra,
}


def _random_modules(seed):
    rng = random.Random(seed)
    return [random_module(make(), rng) for make in BASIC.values()
            for _ in range(6)]


def test_cover_refuses_a_redundant_generator(monkeypatch):
    # a greedy choice that keeps one generator inside JM + the span of the
    # others still maps onto M, but its kernel leaves JP, and the top
    # projections of the summands see it
    mods = _random_modules(7)
    lied = []

    class KeepsOneRedundant(_SpanReducer):
        def contains(self, v):
            inside = super().contains(v)
            if inside and self not in lied:
                lied.append(self)
                return False
            return inside

    monkeypatch.setattr(modules, "_SpanReducer", KeepsOneRedundant)
    refused = 0
    for m in mods:
        before = len(lied)
        try:
            projective_cover(m)
        except CertificateFailed as e:
            assert "escapes the radical" in str(e)
            assert len(lied) > before
            refused += 1
        else:
            assert len(lied) == before
    assert refused >= len(mods) // 2


def test_cover_refuses_a_radical_that_misses_a_vector(monkeypatch):
    # with one vector of JM left out, the greedy keeps dim top M + 1
    # generators; the map is still onto (Nakayama), but top P -> top M is
    # not injective, so the kernel leaves JP.  The certificate reads only
    # the radicals of the P_v, so a wrong JM cannot fool it.
    mods = [m for m in _random_modules(13) if _radical_span(m).cols]
    assert len(mods) >= 10
    real = modules._radical_span
    for m in mods:
        def short(x, m=m):
            jx = real(x)
            return jx.block(0, 0, x.dim, jx.cols - 1) if x is m else jx

        monkeypatch.setattr(modules, "_radical_span", short)
        with pytest.raises(CertificateFailed, match="escapes the radical"):
            _minimal_cover(m)
        monkeypatch.setattr(modules, "_radical_span", real)


def _maps(a, rng):
    """Random maps between random modules, with zero and full kernels."""
    xs = [random_module(a, rng) for _ in range(5)]
    out = []
    for x, y in zip(xs, xs[1:] + xs[:1]):
        f = a.field
        mat = Matrix(f, y.dim, x.dim)
        for h in hom_basis(x, y):
            mat = mat + h.matrix.scale(f.of(rng.choice([0, 1, -1, 2])))
        out += [ModuleMap(x, y, mat, check=False), zero_map(x, y),
                identity_map(x)]
    return out


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_kernel_coordinates_need_no_solve(field):
    rng = random.Random(11)
    for a in (path_algebra_a_n(3, field), preprojective_a_n(2, field)):
        kinds = set()
        for fmap in _maps(a, rng):
            sub, incl = kernel(fmap)
            kb = kernel_basis(fmap.matrix)
            assert incl.matrix == kb
            assert kernel_coords(kb) @ kb == Matrix.identity(field, kb.cols)
            old, old_incl = modules.submodule(
                fmap.source, kb, known_invariant=True)
            assert old_incl.matrix == kb
            assert list(sub.action) == list(old.action)
            if kb.cols:
                assert list(sub.action) == [_left_inverse(kb) @ x @ kb
                                            for x in fmap.source.action]
            kinds.add(0 if kb.cols == 0 else
                      2 if kb.cols == fmap.source.dim else 1)
        assert kinds == {0, 1, 2}


@pytest.mark.parametrize("make", [lambda: path_algebra_a_n(4),
                                  d4_subspace_algebra,
                                  lambda: preprojective_a_n(3)],
                         ids=["kA4", "D4", "preprojective_A3"])
def test_a_simple_comes_with_its_cover(make):
    a = make()
    for v in range(len(a.idempotents)):
        s = simple_module(a, v)
        pv = projective_module(a, v)
        p, proj = projective_cover(s)
        assert p is pv and proj.source is pv and proj.target is s
        assert proj.matrix == top(pv)[1].matrix
        # the greedy cover of the same module agrees
        p_old, epi_old = _minimal_cover(s)
        assert [w for w, _ in p_old.proj_summands] == [v]
        assert epi_old.matrix == proj.matrix
        om, incl = omega(s)
        assert incl.target is pv
        assert iso(om, radical_of_module(pv)[0]) is not None
