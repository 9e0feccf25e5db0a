"""Endomorphism algebras of module collections, as first-class FDAlgebras.

For generators M_1..M_r, the algebra has basis the union of hom bases
Hom(M_i, M_j); the product of f: M_i -> M_j and g: M_j -> M_l is "f then g",
which makes End(A) of the regular module isomorphic to A itself.  The
evaluation functor sends X to ⊕_i Hom(M_i, X), a left module over the
endomorphism algebra by precomposition, and sends M_j to the j-th projective;
its dual Hom(X, -) gives modules over the opposite algebra.  Both are built
by one builder, `_hom_module`, and every coordinate in a hom basis (the
multiplication table included) comes from `modules.hom_coords`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from fdhom.algebra import FDAlgebra, _combine, _linear_combination
from fdhom.errors import PreconditionFailed
from fdhom.linalg import Matrix, offsets
from fdhom.modules import (
    Module,
    ModuleMap,
    decompose,
    hom_basis,
    hom_coords,
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

    def element_block(self, coeffs: dict, i: int, j: int) -> Matrix:
        """The M_i -> M_j component of an algebra element, as a Λ-map matrix."""
        tags, maps = self.basis_tags, self.hom[(i, j)]
        return _linear_combination(
            self.algebra.field, self.gens[j].dim, self.gens[i].dim,
            {k: c for k, c in coeffs.items() if tags[k][:2] == (i, j)},
            lambda k: maps[tags[k][2]].matrix)


def end_algebra(gens: Sequence[Module], check_indec: bool = True,
                seed: int = 0) -> EndData:
    """End(⊕ gens) with one idempotent per generator.

    Generators must be pairwise non-isomorphic indecomposables (checked
    unless check_indec=False for internal callers that already certified).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    f = gens[0].algebra.field
    if check_indec:
        for g in gens:
            dec = decompose(g, seed=seed)
            if len(dec.leaves) != 1:
                raise PreconditionFailed("generator is decomposable")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if iso(gens[i], gens[j]) is not None:
                    raise PreconditionFailed("generators are isomorphic")
    r = range(len(gens))
    hom = {(i, j): hom_basis(gens[i], gens[j]) for i in r for j in r}
    tags = [(i, j, idx) for i in r for j in r for idx in range(len(hom[(i, j)]))]
    dim = len(tags)
    maps = [hom[(i, j)][idx].matrix for i, j, idx in tags]
    # (i, j) -> the algebra indices of the basis maps M_i -> M_j, ascending
    at = {key: [] for key in hom}
    for k, (i, j, _) in enumerate(tags):
        at[(i, j)].append(k)
    mult: list[dict] = [{} for _ in range(dim)]
    idems = []
    for i in r:
        for l in r:
            # every composite M_i -> M_j -> M_l ("h1 then h2"), and for i == l
            # the identity, expressed in the basis of Hom(M_i, M_l) at once
            pairs = [(k1, k2) for j in r for k1 in at[(i, j)] for k2 in at[(j, l)]]
            mats = [maps[k2] @ maps[k1] for k1, k2 in pairs]
            if i == l:
                mats.append(Matrix.identity(f, gens[i].dim))
            if not mats:
                continue
            coords = hom_coords(hom[(i, l)], mats,
                                "composite escapes the hom space")
            # row idx of coords: the coefficients of basis map idx of
            # Hom(M_i, M_l), which is algebra basis element at[(i, l)][idx]
            vecs = [{} for _ in mats]
            for k, row in zip(at[(i, l)], coords.nz):
                for c, x in row.items():
                    vecs[c][k] = x
            for (k1, k2), vec in zip(pairs, vecs):
                if vec:
                    mult[k1][k2] = vec
            if i == l:
                idems.append(vecs[-1])
    unit = _combine(f, ((f.one, e) for e in idems))
    labels = [f"[{i}->{j}#{idx}]" for (i, j, idx) in tags]
    alg = FDAlgebra(f, labels, mult, unit, idems, origin="endomorphism")
    return EndData(alg, gens, hom, tags)


def _hom_module(data: EndData, alg: FDAlgebra, blocks: list, pre: bool) -> Module:
    """⊕ blocks as a left module over alg, the shared builder of the two
    evaluation functors.  A basis map g: M_i -> M_j acts by precomposition,
    Hom(M_j, x) -> Hom(M_i, x), w -> g;w (pre), or by postcomposition,
    Hom(x, M_i) -> Hom(x, M_j), w -> w;g; each image is written in the hom
    basis of its target block."""
    offs = offsets(len(b) for b in blocks)
    tot = offs[-1]
    if tot == 0:
        return zero_module(alg)
    action = []
    for i, j, idx in data.basis_tags:
        g = data.hom[(i, j)][idx].matrix
        src, dst = (j, i) if pre else (i, j)
        mat = Matrix(alg.field, tot, tot)
        if blocks[src]:
            comps = [w.matrix @ g if pre else g @ w.matrix for w in blocks[src]]
            mat.put(offs[dst], offs[src], hom_coords(
                blocks[dst], comps, "hom block inconsistency"))
        action.append(mat)
    return Module(alg, tot, action, check=False)


def _evaluation(data: EndData, x: Module):
    """(blocks, module): the hom bases Hom(M_i, x) and ⊕_i Hom(M_i, x) built
    from them as a left module over End(⊕ M_i) (precomposition)."""
    blocks = [hom_basis(g, x) for g in data.gens]
    return blocks, _hom_module(data, data.algebra, blocks, pre=True)


def module_over_end(data: EndData, x: Module) -> Module:
    """⊕_i Hom(M_i, x) as a left module over End(⊕ M_i) (precomposition)."""
    return _evaluation(data, x)[1]


def module_over_end_op(data: EndData, x: Module) -> Module:
    """⊕_i Hom(x, M_i) as a left module over End(⊕ M_i)^op (postcomposition).

    This is the cotilting transport functor Hom(-, T) when the generators
    are the indecomposable summands of T.
    """
    return _hom_module(data, data.algebra.op,
                       [hom_basis(x, g) for g in data.gens], pre=False)


def module_over_end_map(data: EndData, fmap: ModuleMap) -> ModuleMap:
    """Functoriality: a map X -> Y of base modules induces
    ⊕Hom(M_i, X) -> ⊕Hom(M_i, Y) by postcomposition."""
    return _induced_map(fmap, _evaluation(data, fmap.source),
                        _evaluation(data, fmap.target))


def _induced_map(fmap: ModuleMap, ev_x, ev_y) -> ModuleMap:
    """module_over_end_map on the evaluations ev_x, ev_y of fmap's source and
    target, as returned by `_evaluation`."""
    (blocks_x, src), (blocks_y, tgt) = ev_x, ev_y
    offs_x = offsets(len(b) for b in blocks_x)
    offs_y = offsets(len(b) for b in blocks_y)
    mat = Matrix(src.algebra.field, tgt.dim, src.dim)
    for i, (bx, by) in enumerate(zip(blocks_x, blocks_y)):
        if bx:  # w then fmap
            mat.put(offs_y[i], offs_x[i], hom_coords(
                by, [fmap.matrix @ w.matrix for w in bx],
                "hom block inconsistency"))
    return ModuleMap(src, tgt, mat, check=False)
