"""Algebras and modules keep derived values in one memo, `algebra.Memo`.

A second request returns the kept object, and a memo key that holds a module
matches that module only, not an equal copy of it.
"""

import pytest

import fdhom.homology as homology
import fdhom.modules as modules
from fdhom.algebra import FDAlgebra, Memo
from fdhom.homology import (
    dim_report,
    domdim_report,
    ext_dim,
    injective_coresolution_terms,
    tau_n,
)
from fdhom.modules import (
    Module,
    dual,
    min_proj_resolution,
    omega,
    projective_cover,
    projective_module,
    regular_module,
    simple_module,
    syzygy,
)
from fdhom.presets import path_algebra_a_n, preprojective_a_n
from test_instances import nakayama_a_n


def _count_uncached_ext(monkeypatch) -> list:
    calls = []
    uncached = homology._ext_dim_uncached

    def counted(x, y, i):
        calls.append((x, y, i))
        return uncached(x, y, i)

    monkeypatch.setattr(homology, "_ext_dim_uncached", counted)
    return calls


def test_ext_dim_is_computed_once_per_module_pair_and_degree(monkeypatch):
    a = path_algebra_a_n(3)
    s, p = simple_module(a, 0), projective_module(a, 1)
    calls = _count_uncached_ext(monkeypatch)
    first = ext_dim(s, p, 1)
    assert ext_dim(s, p, 1) == first
    assert len(calls) == 1
    ext_dim(s, p, 0)
    assert len(calls) == 2


def test_ext_dim_of_an_equal_but_distinct_module_is_computed_again(monkeypatch):
    a = path_algebra_a_n(3)
    s, p = simple_module(a, 0), projective_module(a, 1)
    copy = Module(a, p.dim, list(p.action), check=False)
    calls = _count_uncached_ext(monkeypatch)
    assert ext_dim(s, p, 1) == ext_dim(s, copy, 1)
    assert len(calls) == 2 and calls[0][1] is p and calls[1][1] is copy


def test_a_module_keeps_its_generator_action_vertex_blocks_and_cover():
    a = path_algebra_a_n(3)
    m = simple_module(a, 1)
    assert m.generator_action() is m.generator_action()
    assert m.vertex_blocks() is m.vertex_blocks()
    assert projective_cover(m) is projective_cover(m)


def test_a_module_keeps_its_omega_link():
    m = simple_module(preprojective_a_n(3), 0)
    om = omega(m)
    assert omega(m) is om
    # Ω m is the kernel of the kept cover, included into its projective
    assert om[1].target is projective_cover(m)[0]


def test_resolutions_syzygies_and_translates_reuse_the_omega_links(monkeypatch):
    # selfinjective, so every syzygy of a simple is nonzero
    a = preprojective_a_n(3)
    x = simple_module(a, 1)
    first = min_proj_resolution(x, 4)
    assert first.truncated_at == 4
    kernels = []
    make_kernel = modules.kernel

    def counted(fmap):
        kernels.append(fmap)
        return make_kernel(fmap)

    monkeypatch.setattr(modules, "kernel", counted)
    again = min_proj_resolution(x, 4)
    assert all(p is q for p, q in zip(again.modules, first.modules))
    min_proj_resolution(x, 2)
    ys = [simple_module(a, v) for v in range(3)] + [projective_module(a, 0)]
    for y in ys:
        for i in range(1, 4):
            ext_dim(x, y, i)
    for k in range(1, 4):
        assert syzygy(x, k).dim > 0
        assert tau_n(x, k + 1).dim > 0
    assert kernels == []


def test_the_dual_of_a_dual_is_the_module_itself():
    a = path_algebra_a_n(3)
    for m in (simple_module(a, 1), projective_module(a, 0)):
        assert dual(dual(m)) is m


def test_the_regular_module_keeps_its_dual():
    a = path_algebra_a_n(3)
    da = dual(regular_module(a))
    assert dual(regular_module(a)) is da
    assert dual(dual(regular_module(a))) is regular_module(a)
    assert dual(da) is regular_module(a)


def _count_covers_and_kernels(monkeypatch) -> list:
    built = []
    cover, kernel = modules._minimal_cover, modules.kernel

    def counted_cover(m):
        built.append(("cover", m))
        return cover(m)

    def counted_kernel(fmap):
        built.append(("kernel", fmap))
        return kernel(fmap)

    monkeypatch.setattr(modules, "_minimal_cover", counted_cover)
    monkeypatch.setattr(modules, "kernel", counted_kernel)
    return built


@pytest.mark.parametrize("make", [lambda: path_algebra_a_n(5),
                                  lambda: nakayama_a_n(6, 3)],
                         ids=["kA5", "nakayama_A6_rad3"])
def test_coresolution_terms_reuse_the_omega_links_of_the_dual(make,
                                                              monkeypatch):
    # after dim_report, each side's coresolution is kept as the Ω links of
    # D(A), so asking for its terms again, or further, builds nothing
    a = make()
    dim_report(a, 8)
    built = _count_covers_and_kernels(monkeypatch)
    domdim_report(a, 8)
    domdim_report(a.op, 8)
    for n in range(10):
        injective_coresolution_terms(a, n)
    assert built == []


def test_algebras_and_modules_share_one_memo_and_declare_no_cache_slot():
    assert issubclass(FDAlgebra, Memo) and issubclass(Module, Memo)
    assert "memo" not in vars(FDAlgebra) and "memo" not in vars(Module)
    assert all(not name.startswith("_") for name in Module.__slots__)


@pytest.mark.parametrize("make", [
    lambda: dual(regular_module(nakayama_a_n(6, 3))),
    lambda: simple_module(preprojective_a_n(3), 0),
], ids=["greedy_cover", "simple"])
def test_a_cover_and_its_omega_link_eliminate_once(make, monkeypatch):
    # the kernel basis that certifies the cover onto is kept on its epi, and
    # Ω m is the span of that basis; a simple's kept cover has not eliminated
    # yet, so its Ω link does it
    m = make()
    calls = []
    eliminate = modules.kernel_basis

    def counted(mat):
        calls.append(mat)
        return eliminate(mat)

    monkeypatch.setattr(modules, "kernel_basis", counted)
    projective_cover(m)
    om, incl = omega(m)
    assert om.dim > 0 and len(calls) == 1
    assert incl.matrix == eliminate(projective_cover(m)[1].matrix)
