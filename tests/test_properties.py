"""Seeded random property suites over the corpus algebras.

Each suite draws fresh random modules (cokernels of random maps between
projective sums) and asserts an exact identity; together they exercise well
over two hundred modules with zero tolerance.
"""

import random

from conftest import cartan_from_structure_constants, random_module

from fdhom.endalg import end_algebra, module_over_end_op
from fdhom.homology import (
    costable_hom_dim,
    ext_dim,
    ext_dim_via_injectives,
    stable_hom_dim,
    tau,
    tau_inv,
)
from fdhom.linalg import GF, Matrix, rank, solve
from fdhom.modules import (
    cartan_matrix,
    decompose,
    dual,
    hom_basis,
    hom_dim,
    injective_envelope,
    injective_module,
    iso,
    left_approximation,
    projective_module,
    regular_module,
)
from fdhom.presets import (
    loop_algebra,
    path_algebra_a_n,
    preprojective_a_n,
    semisimple_k_n,
)

CORPUS = [
    ("kA2", path_algebra_a_n(2)),
    ("kA3", path_algebra_a_n(3)),
    ("preprojective-A2", preprojective_a_n(2)),
    ("k[x]/(x^2)", loop_algebra(2)),
    ("k-x-k", semisimple_k_n(2)),
]


def _draw(algebras, seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        name, a = algebras[rng.randrange(len(algebras))]
        out.append((name, random_module(a, rng)))
    return out


def test_ext_balance_random():
    draws = _draw(CORPUS, seed=101, count=40)
    checked = 0
    rng = random.Random(202)
    by_alg = {}
    for name, m in draws:
        by_alg.setdefault(name, []).append(m)
    for name, mods in by_alg.items():
        for _ in range(min(len(mods) * 2, 20)):
            x = mods[rng.randrange(len(mods))]
            y = mods[rng.randrange(len(mods))]
            i = rng.randint(0, 2)
            assert ext_dim(x, y, i) == ext_dim_via_injectives(x, y, i)
            checked += 1
    assert checked >= 40


def test_hereditary_euler_form_random():
    # over a relation-free path algebra:
    # dim Hom - dim Ext^1 = sum x_i y_i - sum over arrows x_src y_tgt
    hered = [("kA2", path_algebra_a_n(2)), ("kA3", path_algebra_a_n(3))]
    rng = random.Random(7)
    for _ in range(40):
        name, a = hered[rng.randrange(2)]
        x = random_module(a, rng)
        y = random_module(a, rng)
        xv = x.vertex_dims()
        yv = y.vertex_dims()
        vidx = {v: i for i, v in enumerate(a.quiver.vertices)}
        euler = sum(xi * yi for xi, yi in zip(xv, yv))
        for _, s, t in a.quiver.arrows:
            euler -= xv[vidx[s]] * yv[vidx[t]]
        assert hom_dim(x, y) - ext_dim(x, y, 1) == euler


def test_classical_ar_duality_random():
    targets = [("preprojective-A2", preprojective_a_n(2)),
               ("kA3", path_algebra_a_n(3))]
    rng = random.Random(13)
    for _ in range(30):
        name, a = targets[rng.randrange(2)]
        x = random_module(a, rng)
        y = random_module(a, rng)
        e = ext_dim(x, y, 1)
        assert costable_hom_dim(y, tau(x)) == e
        assert stable_hom_dim(tau_inv(y), x) == e


def test_decompose_reassemble_random():
    rng = random.Random(23)
    from fdhom.linalg import Matrix

    for _ in range(40):
        name, a = CORPUS[rng.randrange(len(CORPUS))]
        m = random_module(a, rng)
        if m.dim == 0:
            continue
        dec = decompose(m, seed=rng.randrange(1000))
        s, to_m, from_m = dec.reassembled()
        assert to_m.then(from_m).matrix == Matrix.identity(a.field, s.dim)
        assert from_m.then(to_m).matrix == Matrix.identity(a.field, m.dim)
        assert sum(x.dim for x in dec.leaves) == m.dim


def test_cartan_yoneda_random():
    rng = random.Random(31)
    for _ in range(40):
        name, a = CORPUS[rng.randrange(len(CORPUS))]
        m = random_module(a, rng)
        for v in range(len(a.idempotents)):
            p = projective_module(a, v)
            assert hom_dim(p, m) == rank(m.act_vec(a.idempotents[v]))
    for name, a in CORPUS:
        c = cartan_from_structure_constants(a)
        assert cartan_matrix(a) == c, name
        for i in range(len(a.idempotents)):
            for j in range(len(a.idempotents)):
                assert hom_dim(projective_module(a, j),
                               projective_module(a, i)) == c[i][j]


def test_cotilting_transport_random():
    # T = DΛ is 0-cotilting with ^⊥T everything: transport preserves Ext dims
    targets = [path_algebra_a_n(2), path_algebra_a_n(3), preprojective_a_n(2)]
    rng = random.Random(41)
    for a in targets:
        t_parts = []
        seen = []
        for v in range(len(a.idempotents)):
            i_v = injective_module(a, v)
            if not any(iso(i_v, s) is not None for s in seen):
                seen.append(i_v)
                t_parts.append(i_v)
        data = end_algebra(t_parts, check_indec=False)
        for _ in range(7):
            x = random_module(a, rng)
            y = random_module(a, rng)
            gx = module_over_end_op(data, x)
            gy = module_over_end_op(data, y)
            for i in range(3):
                assert ext_dim(x, y, i) == ext_dim(gy, gx, i)


def test_duality_is_exact_contravariant_random():
    rng = random.Random(53)
    for _ in range(30):
        name, a = CORPUS[rng.randrange(len(CORPUS))]
        x = random_module(a, rng)
        y = random_module(a, rng)
        assert hom_dim(x, y) == hom_dim(dual(y), dual(x))
        assert ext_dim(x, y, 1) == ext_dim(dual(y), dual(x), 1)


def test_left_approximation_by_injectives_is_the_envelope():
    # the minimal left add(DA)-approximation must be the injective envelope,
    # and every map into an indecomposable injective must factor through it
    algebras = [path_algebra_a_n(3), preprojective_a_n(2), loop_algebra(3),
                path_algebra_a_n(3, GF(5))]
    rng = random.Random(303)
    checked = 0
    for a in algebras:
        f = a.field
        gens = [injective_module(a, v) for v in range(len(a.idempotents))]
        for _ in range(6):
            x = random_module(a, rng)
            fmap, kept = left_approximation(x, gens)
            env, _ = injective_envelope(x)
            assert fmap.source is x
            assert fmap.target.dim == env.dim
            assert sorted(fmap.target.inj_summands) == sorted(env.inj_summands)
            assert fmap.target.inj_summands == kept
            for g in gens:
                through = Matrix.from_columns(f, g.dim * x.dim, [
                    (u.matrix @ fmap.matrix).flatten()
                    for u in hom_basis(fmap.target, g)])
                for h in hom_basis(x, g):
                    rhs = Matrix.from_columns(f, g.dim * x.dim,
                                              [h.matrix.flatten()])
                    assert solve(through, rhs) is not None
                    checked += 1
    assert checked >= 40
