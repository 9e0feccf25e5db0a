import subprocess
import sys
from pathlib import Path

import pytest

import fdhom
from fdhom.algebra import (
    FDAlgebra,
    PathExpr,
    Quiver,
    _crt_idempotent,
    build_path_algebra,
    opposite,
    primitive_idempotents,
    quotient_by_idempotent_ideal,
)
from fdhom.errors import BadRelation, NotAdmissible
from fdhom.linalg import GF, QQ, Matrix, rank
from fdhom.modules import cartan_matrix
from fdhom.presets import (
    loop_algebra,
    path_algebra_a_n,
    preprojective_a_n,
    semisimple_k_n,
)


def test_a2_path_algebra_basis():
    a = path_algebra_a_n(2)
    assert a.dim == 3
    assert sorted(a.basis_labels) == ["a1", "e(1)", "e(2)"]


def test_loop_algebra_dim():
    a = loop_algebra(2)
    assert a.dim == 2
    x = a.basis_vec(a.basis_labels.index("x"))
    assert a.multiply(x, x) == {}  # x*x = 0


def test_preprojective_a2_dim():
    a = preprojective_a_n(2)
    assert a.dim == 4
    assert sorted(a.basis_labels) == ["a1", "b1", "e(1)", "e(2)"]


def test_preprojective_a3_dim():
    a = preprojective_a_n(3)
    assert a.dim == 10


def test_cyclic_quiver_not_admissible():
    q = Quiver.make(["1"], [("x", "1", "1")])
    with pytest.raises(NotAdmissible):
        build_path_algebra(q, [], length_cap=8)


def test_bad_relation_short_term():
    q = Quiver.make(["1", "2"], [("a", "1", "2")])
    with pytest.raises(BadRelation):
        build_path_algebra(q, [PathExpr.make([(1, ["a"])])])


def test_bad_relation_mixed_endpoints():
    q = Quiver.make(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(BadRelation):
        build_path_algebra(q, [PathExpr.make([(1, ["a", "b"]), (1, ["b", "a"])])])


def test_radical_a2():
    a = path_algebra_a_n(2)
    rad = a.radical_basis()
    assert len(rad) == 1
    i = a.basis_labels.index("a1")
    assert list(rad[0]) == [i]


def test_radical_semisimple():
    a = semisimple_k_n(2)
    assert a.radical_basis() == []


def test_radical_loop():
    a = loop_algebra(2)
    rad = a.radical_basis()
    assert len(rad) == 1


def test_radical_nilpotent():
    a = preprojective_a_n(2)
    rad = a.radical_basis()
    # span of the radical is nilpotent: fourth power is zero here
    cur = rad
    for _ in range(a.dim):
        cur = [a.multiply(x, y) for x in cur for y in rad]
        cur = [v for v in cur if v]
    assert cur == []


def test_opposite_commutative_identical():
    a = loop_algebra(2)
    b = opposite(a)
    assert b.mult == a.mult


def test_opposite_involution():
    a = preprojective_a_n(2)
    b = opposite(opposite(a))
    assert b.mult == a.mult
    assert b.unit == a.unit
    assert b.idempotents == a.idempotents


def test_opposite_a2():
    a = path_algebra_a_n(2)
    b = opposite(a)
    assert b.dim == 3
    # in A^op the arrow now runs 2 -> 1
    ia = a.basis_labels.index("a1")
    i1 = 0  # e(1) idempotent index
    e1 = b.idempotents[0]
    e2 = b.idempotents[1]
    # e_1 *op a = a  <=>  a * e_1 = a in A ... arrow ends at vertex 1 in A^op
    av = b.basis_vec(ia)
    assert b.multiply(e1, av) == av
    assert b.multiply(av, e2) == av


def test_primitive_idempotents_path_origin():
    a = path_algebra_a_n(2)
    assert primitive_idempotents(a) == a.idempotents


def test_primitive_idempotents_local():
    a = loop_algebra(2)
    # rebuild without path origin to exercise the search path
    b = opposite(a)
    b.origin = "endomorphism"
    idems = primitive_idempotents(b, seed=1)
    assert len(idems) == 1
    assert idems[0] == b.unit


def test_primitive_idempotents_k2():
    a = semisimple_k_n(2)
    b = opposite(a)
    b.origin = "endomorphism"
    idems = primitive_idempotents(b, seed=1)
    assert len(idems) == 2
    f = a.field
    s = {r: v for r in range(b.dim)
         if (v := f.add(idems[0].get(r, f.zero), idems[1].get(r, f.zero)))}
    assert s == b.unit


@pytest.mark.parametrize("n, field, seed", [(4, QQ, 1), (3, GF(5), 0)])
def test_primitive_idempotents_of_bare_structure_constants(n, field, seed):
    # k^n without a path presentation goes through the CRT splitting search;
    # its primitive idempotents are unique: the vertex idempotents
    a = semisimple_k_n(n, field)
    b = FDAlgebra(field, a.basis_labels, a.mult, a.unit, a.idempotents,
                  origin="structure-constants")
    idems = primitive_idempotents(b, seed=seed)
    assert sorted(sorted(e.items()) for e in idems) \
        == sorted(sorted(e.items()) for e in a.idempotents)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_crt_idempotent_on_a_matrix(field):
    # minimal polynomial (t-1)(t-2): two coprime factors
    h = Matrix(field, 3, 3, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    one = Matrix.identity(field, 3)
    assert ((h - one) @ (h - one.scale(2))).is_zero()
    e = _crt_idempotent(one, h)
    assert e @ e == e
    assert not e.is_zero() and e != one
    assert e @ h == h @ e


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_crt_idempotent_on_an_algebra_element(field):
    # x = e(1) + 2 e(2) + a1 in kA2, as its left multiplication matrix L(x)
    a = path_algebra_a_n(2, field)
    zero = field.zero
    x = {a.basis_labels.index(label): field.of(c)
         for label, c in (("e(1)", 1), ("e(2)", 2), ("a1", 1))}
    # minimal polynomial (t-1)(t-2): (x - 1)(x - 2) = 0 with x not a scalar
    shifted = [{r: v for r in range(a.dim)
                if (v := field.sub(x.get(r, zero),
                                   field.mul(field.of(c), a.unit.get(r, zero))))}
               for c in (1, 2)]
    assert a.multiply(*shifted) == {}
    assert all(shifted)

    def left(y):
        return Matrix.from_columns(field, a.dim, [a.multiply(y, a.basis_vec(j))
                                                  for j in range(a.dim)])

    e = _crt_idempotent(left(a.unit), left(x))
    # L is faithful: e = L(e)·1 is an idempotent of A commuting with x
    ev = (e @ Matrix.from_columns(field, a.dim, [a.unit])).transpose().nz[0]
    assert e == left(ev)
    assert a.multiply(ev, ev) == ev
    assert ev and ev != a.unit
    assert a.multiply(ev, x) == a.multiply(x, ev)


def test_op_needs_only_the_package_root():
    # the opposite is a property of FDAlgebra itself, linked both ways, in an
    # interpreter that imported nothing but fdhom
    code = (
        "import sys, fdhom\n"
        "q = fdhom.Quiver.make(['1', '2'], [('a', '1', '2')])\n"
        "a = fdhom.build_path_algebra(q, [])\n"
        "assert a.op is a.op and a.op.op is a and a.op is not a\n"
        "assert 'fdhom.modules' not in sys.modules\n"
    )
    src = str(Path(fdhom.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_quotient_kills_vertex():
    a = path_algebra_a_n(2)
    q, _ = quotient_by_idempotent_ideal(a, [1])  # kill e(2): arrow dies too
    assert q.dim == 1
    q2, _ = quotient_by_idempotent_ideal(a, [0, 1])
    assert q2.dim == 0


def test_quotient_preprojective():
    a = preprojective_a_n(2)
    q, _ = quotient_by_idempotent_ideal(a, [0])
    assert q.dim == 1
    assert len(q.idempotents) == 1


def test_cartan_semisimple():
    assert cartan_matrix(semisimple_k_n(2)) == [[1, 0], [0, 1]]


def test_cartan_a2():
    assert cartan_matrix(path_algebra_a_n(2)) == [[1, 1], [0, 1]]


def test_cartan_preprojective_a2():
    assert cartan_matrix(preprojective_a_n(2)) == [[1, 1], [1, 1]]


def test_cartan_opposite_transpose():
    for a in [path_algebra_a_n(3), preprojective_a_n(2)]:
        c = cartan_matrix(a)
        cop = cartan_matrix(opposite(a))
        n = len(c)
        assert all(c[i][j] == cop[j][i] for i in range(n) for j in range(n))


def test_dim_sum_of_sandwiches():
    for a in [path_algebra_a_n(3), preprojective_a_n(2), loop_algebra(3)]:
        c = cartan_matrix(a)
        assert a.dim == sum(sum(row) for row in c)


def test_small_prime_path_algebra_allowed():
    # quiver presentations keep an arrow-ideal radical over any prime field
    a = preprojective_a_n(2, field=GF(2))
    assert a.dim == 4
    assert len(a.radical_basis()) == 2


def test_small_prime_raw_algebra_radical():
    # the same algebra given only by structure constants: its radical is
    # certified from the idempotents, over F_2 too
    a = preprojective_a_n(2, field=GF(2))
    b = FDAlgebra(a.field, a.basis_labels, a.mult, a.unit, a.idempotents,
                  origin="endomorphism")
    rad = b.radical_basis()
    assert len(rad) == 2
    arrows = [a.basis_vec(a.basis_labels.index(x)) for x in ("a1", "b1")]
    assert rank(Matrix.from_columns(a.field, a.dim, rad + arrows)) == 2


def test_build_over_gf7():
    a = preprojective_a_n(2, field=GF(7))
    assert a.dim == 4
    assert len(a.radical_basis()) == 2


def _rebased(a, seed):
    """The same algebra given only by structure constants, in a random basis.

    New basis vector i is column i of a unitriangular P; a coordinate vector
    v in the old basis becomes P^{-1} v.  No quiver or path data is kept, so
    the radical comes from the trace form.
    """
    import random

    from fdhom.algebra import FDAlgebra
    from fdhom.linalg import Matrix, invert

    f, n = a.field, a.dim
    rng = random.Random(seed)
    p = Matrix(f, n, n, [[1 if i == j else rng.choice([0, 0, 1, -1]) if i < j else 0
                          for j in range(n)] for i in range(n)])
    p_inv = invert(p)

    def to_new(v):
        return (p_inv @ Matrix.from_columns(f, n, [v])).transpose().nz[0]

    cols = p.transpose().nz
    mult = [{j: x for j in range(n) if (x := to_new(a.multiply(cols[i], cols[j])))}
            for i in range(n)]
    b = FDAlgebra(f, [f"v{i}" for i in range(n)], mult, to_new(a.unit),
                  [to_new(e) for e in a.idempotents], origin="structure-constants")
    return b, to_new


@pytest.mark.parametrize("make, field", [
    (lambda f: path_algebra_a_n(4, field=f), QQ),
    (lambda f: preprojective_a_n(3, field=f), QQ),
    (lambda f: path_algebra_a_n(3, field=f), GF(11)),
])
def test_trace_form_radical_matches_arrow_ideal(make, field):
    from fdhom.linalg import Matrix, rank

    a = make(field)
    b, to_new = _rebased(a, seed=a.dim)
    assert b.path_data is None
    arrow_ideal = [to_new(v) for v in a.radical_basis()]
    rad = b.radical_basis()
    assert len(rad) == len(arrow_ideal)
    stacked = Matrix.from_columns(field, b.dim, rad + arrow_ideal)
    assert rank(stacked) == len(rad)
