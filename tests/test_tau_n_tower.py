"""τ_n and τ_n⁻ on the type-A tower of higher Auslander algebras.

A_s^{(1)} = kA_s, and A_s^{(n+1)} is the endomorphism algebra of the
n-cluster tilting module ⊕_{i≥0} τ_n^{-i} A of A = A_s^{(n)} (Iyama,
"Cluster tilting for higher Auslander algebras", arXiv:0809.4897).  That
module has C(s+n, n+1) indecomposable summands, and on them τ_n and τ_n⁻
are mutually inverse bijections between the non-projective and the
non-injective summands.
"""

from math import comb

import pytest

from fdhom.endalg import end_algebra
from fdhom.homology import tau_n, tau_n_inv
from fdhom.modules import (
    decompose,
    dual,
    iso,
    projective_module,
    projective_vertices,
)
from fdhom.presets import path_algebra_a_n


def _orbit(a, n):
    """The indecomposable summands of ⊕_{i≥0} τ_n^{-i} A, up to iso."""
    found = []
    todo = [projective_module(a, v) for v in range(len(a.idempotents))]
    while todo:
        x = todo.pop(0)
        if x.dim == 0 or any(iso(x, y) is not None for y in found):
            continue
        found.append(x)
        todo += [r for r, _ in decompose(tau_n_inv(x, n)).summands]
    return found


@pytest.mark.parametrize("s", [2, 3])
def test_tau_n_orbits_and_inverse_translates_on_the_tower(s):
    a = path_algebra_a_n(s)
    for n in (1, 2, 3):
        summands = _orbit(a, n)
        assert len(summands) == comb(s + n, n + 1)
        for x in summands:
            if projective_vertices(x) is None:
                assert iso(tau_n_inv(tau_n(x, n), n), x) is not None
            if projective_vertices(dual(x)) is None:
                assert iso(tau_n(tau_n_inv(x, n), n), x) is not None
        a = end_algebra(summands).algebra
