"""Syzygies, cosyzygies and the n-AR translates walk one chain of Ω links.

`modules.omega(m)` is the kernel of m's minimal projective cover, kept on m.
`syzygy` walks k links and splits off projective summands once, at the end;
`cosyzygy` is D syzygy D; `tau_n` is tau Ω^{n-1} with nothing split off, and
`tau_n_inv` is D tau_n D.  The oracles below are the routes these replaced:
a syzygy that splits off projective summands at every step, and a cosyzygy
built from injective envelopes and their cokernels, splitting off injective
summands at every step.
"""

import pytest

from fdhom.homology import tau, tau_inv, tau_n, tau_n_inv
from fdhom.modules import (
    cokernel,
    cosyzygy,
    dual,
    injective_envelope,
    iso,
    kernel,
    projective_cover,
    strip_projectives,
    syzygy,
)
from fdhom.presets import path_algebra_a_n, preprojective_a_n
from fdhom.subcats import knit_indecomposables
from test_instances import d4_subspace_algebra


def _stepwise_syzygy(m, k):
    cur, _ = strip_projectives(m)
    for _ in range(k):
        if cur.dim == 0:
            return cur
        _, epi = projective_cover(cur)
        ker, _ = kernel(epi)
        cur, _ = strip_projectives(ker)
    return cur


def _strip_injectives(m):
    return dual(strip_projectives(dual(m))[0])


def _envelope_cosyzygy(m, k):
    cur = _strip_injectives(m)
    for _ in range(k):
        if cur.dim == 0:
            return cur
        _, mono = injective_envelope(cur)
        cok, _ = cokernel(mono)
        cur = _strip_injectives(cok)
    return cur


def _same(x, y) -> bool:
    return x.algebra is y.algebra and iso(x, y) is not None


ALGEBRAS = {
    "kA4": lambda: path_algebra_a_n(4),
    "D4": d4_subspace_algebra,
    "preprojective_A3": lambda: preprojective_a_n(3),
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_omega_links_agree_with_the_stepwise_routes(name):
    inds, complete = knit_indecomposables(ALGEBRAS[name]())
    assert complete
    for m in inds:
        for k in (1, 2, 3):
            assert _same(syzygy(m, k), _stepwise_syzygy(m, k))
            assert _same(cosyzygy(m, k), _envelope_cosyzygy(m, k))
            assert _same(tau_n(m, k + 1), tau(_stepwise_syzygy(m, k)))
            assert _same(tau_n_inv(m, k + 1), tau_inv(_envelope_cosyzygy(m, k)))


def test_the_selfinjective_case_is_not_all_zero():
    # over kA4 and D4 (hereditary) every syzygy of an indecomposable is
    # projective, so the comparison above sees zero modules only; preprojective
    # A3 is selfinjective, and its nine non-projective indecomposables have
    # nonzero syzygies and translates
    inds, _ = knit_indecomposables(preprojective_a_n(3))
    assert len(inds) == 12
    assert sum(syzygy(m, 2).dim > 0 for m in inds) == 9
    assert sum(tau_n_inv(m, 2).dim > 0 for m in inds) == 9
