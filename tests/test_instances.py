"""Cross-validation on instances outside the acceptance corpus."""

import pytest

from fdhom.algebra import PathExpr, Quiver, build_path_algebra
from fdhom.endalg import end_algebra
from fdhom.homology import domdim, gldim
from fdhom.linalg import QQ
from fdhom.presets import linear_quiver, loop_algebra
from fdhom.subcats import knit_indecomposables


def d4_subspace_algebra(field=QQ):
    q = Quiver.make(["0", "1", "2", "3"],
                    [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")])
    return build_path_algebra(q, [], field=field)


def nakayama_a_n(n, rad):
    """1 -> 2 -> ... -> n with every path of length rad zero."""
    rels = [PathExpr.make([(1, [f"a{j + 1}" for j in range(i, i + rad)])])
            for i in range(n - rad)]
    return build_path_algebra(linear_quiver(n), rels)


def test_loop_cubed_auslander_algebra():
    a = loop_algebra(3)
    inds, complete = knit_indecomposables(a)
    assert complete
    assert sorted(m.dim for m in inds) == [1, 2, 3]
    g = end_algebra(inds).algebra
    assert g.dim == 14
    assert gldim(g, 8) == 2
    assert domdim(g, 8) == 2


def test_d4_indecomposable_count():
    # the three-subspace quiver is representation finite with 12
    # indecomposables (one per positive root)
    inds, complete = knit_indecomposables(d4_subspace_algebra())
    assert complete
    assert len(inds) == 12
    assert sorted(m.dim for m in inds) == [1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 5]


@pytest.mark.slow
def test_d4_auslander_algebra():
    inds, _ = knit_indecomposables(d4_subspace_algebra())
    g = end_algebra(inds).algebra
    assert g.dim == 56
    assert gldim(g, 8) == 2
    assert domdim(g, 8) == 2
    assert domdim(g.op, 8) == 2
