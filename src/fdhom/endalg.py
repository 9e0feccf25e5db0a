"""Endomorphism algebras of module collections, as first-class FDAlgebras.

For generators M_1..M_r, the algebra has basis the union of hom bases
Hom(M_i, M_j); the product of f: M_i -> M_j and g: M_j -> M_l is "f then g",
which makes End(A) of the regular module isomorphic to A itself.  The
evaluation functor sends X to ⊕_i Hom(M_i, X), a left module over the
endomorphism algebra by precomposition, and sends M_j to the j-th projective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from fdhom.algebra import FDAlgebra
from fdhom.errors import PreconditionFailed
from fdhom.linalg import Matrix, solve
from fdhom.modules import (
    Module,
    ModuleMap,
    decompose,
    hom_basis,
    iso,
    zero_module,
)


@dataclass
class EndData:
    """An endomorphism algebra together with its functor bookkeeping."""

    algebra: FDAlgebra
    gens: list[Module]
    hom: dict  # (i, j) -> list[ModuleMap]
    basis_tags: list[tuple[int, int, int]]  # algebra basis k -> (i, j, index)

    def basis_map(self, k: int) -> ModuleMap:
        i, j, idx = self.basis_tags[k]
        return self.hom[(i, j)][idx]

    def element_block(self, coeffs, i: int, j: int) -> Matrix:
        """The M_i -> M_j component of an algebra element, as a Λ-map matrix."""
        f = self.algebra.field
        base = self.gens[i].dim
        out = Matrix(f, self.gens[j].dim, self.gens[i].dim)
        for k, c in enumerate(coeffs):
            if not c:
                continue
            ti, tj, idx = self.basis_tags[k]
            if (ti, tj) != (i, j):
                continue
            out = out + self.hom[(i, j)][idx].matrix.scale(c)
        return out


def end_algebra(gens: Sequence[Module], check_indec: bool = True,
                seed: int = 0) -> EndData:
    """End(⊕ gens) with one idempotent per generator.

    Generators must be pairwise non-isomorphic indecomposables (checked
    unless check_indec=False for internal callers that already certified).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    a = gens[0].algebra
    f = a.field
    if check_indec:
        for g in gens:
            dec = decompose(g, seed=seed)
            if len(dec.leaves) != 1:
                raise PreconditionFailed("generator is decomposable")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if iso(gens[i], gens[j]) is not None:
                    raise PreconditionFailed("generators are isomorphic")
    hom = {}
    for i in range(len(gens)):
        for j in range(len(gens)):
            hom[(i, j)] = hom_basis(gens[i], gens[j])
    tags: list[tuple[int, int, int]] = []
    for i in range(len(gens)):
        for j in range(len(gens)):
            for idx in range(len(hom[(i, j)])):
                tags.append((i, j, idx))
    dim = len(tags)
    # per-pair solver: express a map M_i -> M_j in the chosen hom basis
    solvers = {}
    for (i, j), maps in hom.items():
        if not maps:
            continue
        solvers[(i, j)] = Matrix.from_columns(
            f, gens[j].dim * gens[i].dim, [h.matrix.flatten() for h in maps])

    def express(i: int, j: int, mat: Matrix):
        if (i, j) not in solvers:
            if not mat.is_zero():
                raise AssertionError("composite escapes the hom space")
            return []
        sol = solve(solvers[(i, j)], Matrix.column(f, mat.flatten()))
        if sol is None:
            raise AssertionError("composite escapes the hom space")
        return sol.col(0)

    mult = [[None] * dim for _ in range(dim)]
    zero = [f.zero] * dim
    pos_of = {}
    cursor = 0
    for i in range(len(gens)):
        for j in range(len(gens)):
            for idx in range(len(hom[(i, j)])):
                pos_of[(i, j, idx)] = cursor
                cursor += 1
    for k1, (i1, j1, idx1) in enumerate(tags):
        h1 = hom[(i1, j1)][idx1]
        for k2, (i2, j2, idx2) in enumerate(tags):
            if j1 != i2:
                mult[k1][k2] = list(zero)
                continue
            h2 = hom[(i2, j2)][idx2]
            comp = h2.matrix @ h1.matrix  # h1 then h2 : M_i1 -> M_j2
            coeffs = express(i1, j2, comp)
            vec = list(zero)
            for idx, c in enumerate(coeffs):
                if c:
                    vec[pos_of[(i1, j2, idx)]] = c
            mult[k1][k2] = vec
    idems = []
    unit = list(zero)
    for i in range(len(gens)):
        ident = express(i, i, Matrix.identity(f, gens[i].dim))
        vec = list(zero)
        for idx, c in enumerate(ident):
            if c:
                vec[pos_of[(i, i, idx)]] = c
        idems.append(vec)
        unit = [f.add(u, v) for u, v in zip(unit, vec)]
    labels = [f"[{i}->{j}#{idx}]" for (i, j, idx) in tags]
    alg = FDAlgebra(f, labels, mult, unit, idems, origin="endomorphism")
    return EndData(alg, gens, hom, tags)


def module_over_end(data: EndData, x: Module) -> Module:
    """⊕_i Hom(M_i, x) as a left module over End(⊕ M_i) (precomposition)."""
    a = data.algebra
    f = a.field
    blocks = [hom_basis(g, x) for g in data.gens]
    offs = []
    tot = 0
    for b in blocks:
        offs.append(tot)
        tot += len(b)
    if tot == 0:
        return zero_module(a)
    # solver per block
    solvers = []
    for gi, b in enumerate(blocks):
        if not b:
            solvers.append(None)
            continue
        solvers.append(Matrix.from_columns(
            f, x.dim * data.gens[gi].dim, [h.matrix.flatten() for h in b]))
    action = []
    for k in range(a.dim):
        i, j, idx = data.basis_tags[k]
        gmap = data.hom[(i, j)][idx]
        mat = Matrix(f, tot, tot)
        # sends the Hom(M_j, x) block into the Hom(M_i, x) block: w -> g;w
        for wpos, w in enumerate(blocks[j]):
            comp = w.matrix @ gmap.matrix
            if solvers[i] is None:
                if not comp.is_zero():
                    raise AssertionError("hom block inconsistency")
                continue
            sol = solve(solvers[i], Matrix.column(f, comp.flatten()))
            for r in range(len(blocks[i])):
                mat.data[offs[i] + r][offs[j] + wpos] = sol.data[r][0]
        action.append(mat)
    return Module(a, tot, action, check=False)


def module_over_end_map(data: EndData, fmap: ModuleMap) -> ModuleMap:
    """Functoriality: a map X -> Y of base modules induces
    ⊕Hom(M_i, X) -> ⊕Hom(M_i, Y) by postcomposition."""
    f = data.algebra.field
    src = module_over_end(data, fmap.source)
    tgt = module_over_end(data, fmap.target)
    blocks_x = [hom_basis(g, fmap.source) for g in data.gens]
    blocks_y = [hom_basis(g, fmap.target) for g in data.gens]
    offs_x, offs_y = [], []
    tx = ty = 0
    for bx, by in zip(blocks_x, blocks_y):
        offs_x.append(tx)
        offs_y.append(ty)
        tx += len(bx)
        ty += len(by)
    mat = Matrix(f, tgt.dim, src.dim)
    for i, bx in enumerate(blocks_x):
        by = blocks_y[i]
        if not bx or not by:
            for wpos, w in enumerate(bx):
                if not (fmap.matrix @ w.matrix).is_zero():
                    raise AssertionError("hom block inconsistency")
            continue
        cols = Matrix.from_columns(f, fmap.target.dim * data.gens[i].dim,
                                   [h.matrix.flatten() for h in by])
        for wpos, w in enumerate(bx):
            comp = fmap.matrix @ w.matrix  # w then fmap
            sol = solve(cols, Matrix.column(f, comp.flatten()))
            for r in range(len(by)):
                mat.data[offs_y[i] + r][offs_x[i] + wpos] = sol.data[r][0]
    return ModuleMap(src, tgt, mat, check=False)


def module_over_end_op(data: EndData, x: Module) -> Module:
    """⊕_i Hom(x, M_i) as a left module over End(⊕ M_i)^op (postcomposition).

    This is the cotilting transport functor Hom(-, T) when the generators
    are the indecomposable summands of T.
    """
    aop = data.algebra.op
    f = aop.field
    blocks = [hom_basis(x, g) for g in data.gens]
    offs = []
    tot = 0
    for b in blocks:
        offs.append(tot)
        tot += len(b)
    if tot == 0:
        return zero_module(aop)
    solvers = []
    for gi, b in enumerate(blocks):
        if not b:
            solvers.append(None)
            continue
        solvers.append(Matrix.from_columns(
            f, data.gens[gi].dim * x.dim, [h.matrix.flatten() for h in b]))
    action = []
    for k in range(aop.dim):
        i, j, idx = data.basis_tags[k]
        gmap = data.hom[(i, j)][idx]
        mat = Matrix(f, tot, tot)
        # over the opposite algebra, g: M_i -> M_j sends the Hom(x, M_i)
        # block into the Hom(x, M_j) block: w -> w;g
        for wpos, w in enumerate(blocks[i]):
            comp = gmap.matrix @ w.matrix
            if solvers[j] is None:
                if not comp.is_zero():
                    raise AssertionError("hom block inconsistency")
                continue
            sol = solve(solvers[j], Matrix.column(f, comp.flatten()))
            for r in range(len(blocks[j])):
                mat.data[offs[j] + r][offs[i] + wpos] = sol.data[r][0]
        action.append(mat)
    return Module(aop, tot, action, check=False)
