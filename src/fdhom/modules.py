"""Left modules over an FDAlgebra: maps, covers, resolutions, decomposition.

A module has one action matrix per algebra basis element (column-vector
convention: matrices act on the left of column vectors).  Constructions that
are correct by construction (kernels, quotients, duals, sums) skip
re-verification and build each action matrix from the parent's matrix the
first time it is read (`_Actions`): most callers read only the generators'
actions, or those of a cover's basis elements.  Anything built from raw data,
and a submodule whose span is not known to be invariant, is checked at once
against the structure constants.

Hom spaces are solved blockwise in vertex-adapted coordinates: once the
idempotent conditions are absorbed structurally, only the (few) homogeneous
radical generators contribute equations.

The injective side is the dual D of the projective side over the opposite
algebra `FDAlgebra.op`: injective modules and envelopes, and left
approximations (D of a right approximation of D x).  A module is projective
exactly when its minimal projective cover has its dimension, and
`projective_vertices` reads the vertices of its summands off that cover;
`projective_vertices(dual(m))` is the injectivity test.  What is kept per
algebra (the regular module, the projectives P_i, the sum of projectives of
each vertex tuple, `projective_sum`, the injectives I_i, the
projective-injective vertices) lives in the algebra's memo, and what is kept
per module (generator action, vertex blocks, minimal cover, the Ω link to its
kernel, the module a dual was built from, Ext values) in the module's own
memo, dropped with it; both are an `algebra.Memo`.  The regular module, each
P_v and each kept sum of projectives also keep their duals, so covers with
the same top share one P, and the envelopes dual to them one injective.  A
simple module S_v keeps the projection from P_v as its cover, and a map its
kernel basis, so a cover and its Ω link eliminate once.  Resolutions, `syzygy`,
`cosyzygy` (D syzygy D) and the coresolution of A (the sum of those of the
A e_v, read off the Ω chains of the injectives D(A e_v) over A^op, in
`homology`) walk the Ω links, so each kernel is built once, and each link is
certified exact once, by `_certify_exact`: the one exactness certificate,
which the almost split sequences use too.

Private helpers carry the algorithms that the other layers share:
`_map_span` is the span of flattened map matrices (the rank of a Hom complex,
stable homs, lifting and splitting tests), and `_approximation_chain` iterates
minimal add-approximations (cotilting, tilting, extension-pair and
superprojectivity certificates).  A map out of a known sum of projectives
⊕_c A e_{v_c} is fixed by where the generators go, and `_from_generators` is
the one place that builds it (hom bases out of projectives, projective covers,
starred differentials); `_summand_element` reads the algebra element that a
vector has in one summand (starred differentials, maps transported from the
projectives of an endomorphism algebra).  `decompose` splits End(x) with
`algebra._split_idempotent`, the one idempotent splitter, which
`primitive_idempotents` also uses on the corners of an algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from fdhom.algebra import (
    FDAlgebra,
    Memo,
    _RANDOM_TRIALS,
    _SpanReducer,
    _combine,
    _fp_combinations,
    _linear_combination,
    _memoized,
    _random_coeffs,
    _split_idempotent,
)
from fdhom.errors import CertificateFailed, FieldTooSmall, Inconclusive
from fdhom.linalg import (
    Matrix,
    column_space_basis,
    hstack_all,
    invert,
    kernel_basis,
    kernel_coords,
    kron,
    offsets,
    rank,
    solve,
    vstack_all,
)
from fdhom.results import AtLeastCap


class _Actions:
    """The action matrices of a module built from another one: entry b is
    `build(b)`, built the first time it is read and then kept.  It supports
    indexing, len, iteration and ==, as the list it stands for does; `build`
    holds only what the entries need (the parent's actions, a basis and its
    coordinates), not whole modules."""

    __slots__ = ("_mats", "_build")

    def __init__(self, n: int, build):
        self._mats = [None] * n
        self._build = build

    def __len__(self):
        return len(self._mats)

    def __getitem__(self, b: int) -> Matrix:
        m = self._mats[b]
        if m is None:
            m = self._mats[b] = self._build(b)
        return m

    def __iter__(self):
        return map(self.__getitem__, range(len(self._mats)))

    def __eq__(self, other):
        if not isinstance(other, (list, _Actions)):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))


class Module(Memo):
    """A left module: `action[b]` is the matrix of basis element b of the
    algebra, a list, or for derived modules an `_Actions` that builds each
    matrix on first read.  check=True verifies the action against the
    structure constants at construction.  Modules compare and hash by
    identity, so a module can be part of a memo key."""

    __slots__ = ("algebra", "dim", "action", "proj_summands", "inj_summands",
                 "coord_summand", "basis_elements")

    def __init__(self, algebra: FDAlgebra, dim: int, action: Sequence[Matrix],
                 check: bool = True, proj_summands=None, inj_summands=None,
                 coord_summand=None, basis_elements=None):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        # bookkeeping for known sums of projectives: proj_summands is a list
        # of (vertex, generator column vector); coord_summand says which
        # summand each coordinate belongs to; basis_elements gives each
        # coordinate as an algebra element
        self.proj_summands = proj_summands
        self.inj_summands = inj_summands
        self.coord_summand = coord_summand
        self.basis_elements = basis_elements
        super().__init__()
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        if check:
            self._verify()

    def _verify(self):
        a = self.algebra
        if self.act_vec(a.unit) != Matrix.identity(a.field, self.dim):
            raise ValueError("unit does not act as the identity")
        basis = [a.basis_vec(i) for i in range(a.dim)]
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                if self.action[i] @ self.action[j] != self.act_vec(a.multiply(bi, bj)):
                    raise ValueError(f"action violates structure constants ({i},{j})")

    def act_vec(self, coeffs: dict) -> Matrix:
        """The action of the algebra element coeffs."""
        return _linear_combination(self.algebra.field, self.dim, self.dim,
                                   coeffs, self.action.__getitem__)

    @_memoized
    def generator_action(self) -> list[Matrix]:
        return [self.act_vec(g) for g in self.algebra.generator_vectors()]

    @_memoized
    def vertex_blocks(self):
        """(B, B^-1, ranges): columns of B concatenate bases of the
        e_v-components; ranges[v] = (start, stop) inside B's columns."""
        f = self.algebra.field
        parts = [column_space_basis(self.act_vec(e))
                 for e in self.algebra.idempotents]
        offs = offsets(b.cols for b in parts)
        ranges = list(zip(offs, offs[1:]))
        if offs[-1] != self.dim:
            raise ValueError("idempotent components do not exhaust the module")
        b = hstack_all(f, parts, self.dim)
        binv = invert(b) if self.dim else Matrix(f, 0, 0)
        if self.dim and binv is None:
            raise ValueError("vertex components are not independent")
        return b, binv, ranges

    def vertex_dims(self) -> tuple[int, ...]:
        _, _, ranges = self.vertex_blocks()
        return tuple(b - a for a, b in ranges)

    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self):
        return f"Module(dim={self.dim}, over dim-{self.algebra.dim} {self.algebra.origin})"


class ModuleMap(Memo):
    """A module map, as its matrix; it keeps its kernel basis in its memo."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Module, target: Module, matrix: Matrix,
                 check: bool = True):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("matrix shape does not match source/target")
        self.source = source
        self.target = target
        self.matrix = matrix
        super().__init__()
        if check:
            self._verify()

    def _verify(self):
        for sg, tg in zip(self.source.generator_action(),
                          self.target.generator_action()):
            if self.matrix @ sg != tg @ self.matrix:
                raise ValueError("map does not intertwine the action")

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other."""
        return ModuleMap(self.source, other.target,
                         other.matrix @ self.matrix, check=False)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    @_memoized
    def kernel_basis(self) -> Matrix:
        """`linalg.kernel_basis` of the matrix, eliminated once per map: a
        minimal cover certifies its surjectivity with it, and its Ω link is
        the kernel it spans."""
        return kernel_basis(self.matrix)

    def rank(self) -> int:
        return rank(self.matrix)

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and invert(self.matrix) is not None

    def __repr__(self):
        return f"ModuleMap({self.source.dim}->{self.target.dim})"


# -- basic constructions -------------------------------------------------------


def zero_module(a: FDAlgebra) -> Module:
    return Module(a, 0, [Matrix(a.field, 0, 0) for _ in range(a.dim)],
                  check=False, proj_summands=[], coord_summand=[],
                  basis_elements=[], inj_summands=[])


def zero_map(x: Module, y: Module) -> ModuleMap:
    return ModuleMap(x, y, Matrix(x.algebra.field, y.dim, x.dim), check=False)


def identity_map(x: Module) -> ModuleMap:
    return ModuleMap(x, x, Matrix.identity(x.algebra.field, x.dim), check=False)


def _coord_summands_from_elements(a: FDAlgebra, elements) -> Optional[list[int]]:
    """Unique vertex v with b*e_v = b, per element; None if not homogeneous."""
    out = []
    for b in elements:
        hits = [v for v, e in enumerate(a.idempotents) if a.multiply(b, e) == b]
        if len(hits) != 1:
            return None
        out.append(hits[0])
    return out


def regular_module(a: FDAlgebra) -> Module:
    """A as a left module over itself; coordinates are the algebra basis
    (built once per algebra); it keeps its dual, so D(A) is one object too."""

    def build():
        action = [a.left_mult_basis(i) for i in range(a.dim)]
        elements = [a.basis_vec(i) for i in range(a.dim)]
        verts = _coord_summands_from_elements(a, elements)
        proj_summands = None
        coord_summand = None
        if verts is not None:
            # the generator of A e_v is e_v, as a vector of A
            proj_summands = [(v, Matrix.from_columns(a.field, a.dim, [e]).col(0))
                             for v, e in enumerate(a.idempotents)]
            coord_summand = verts
        reg = Module(a, a.dim, action, check=False,
                     proj_summands=proj_summands,
                     coord_summand=coord_summand,
                     basis_elements=elements)
        reg.memo("dual", lambda: dual(reg))
        return reg

    return a.memo("regular_module", build)


def _left_inverse(basis: Matrix) -> Matrix:
    """C with C @ basis = I for a full-column-rank basis matrix."""
    f = basis.field
    ct = solve(basis.transpose(), Matrix.identity(f, basis.cols))
    if ct is None:
        raise ValueError("basis columns are dependent")
    return ct.transpose()


def projective_module(a: FDAlgebra, i: int) -> Module:
    """P_i = A e_i with the left action (built once per algebra); it keeps
    its dual, which is the injective of A^op at i."""

    def build():
        f, e = a.field, a.idempotents[i]
        basis = column_space_basis(a.right_mult(e))
        dim = basis.cols
        coords = _left_inverse(basis)
        elements = basis.transpose().nz
        # column k of the action of b: the coordinates of b * elements[k],
        # which is column b of the right multiplication by elements[k]
        products = [(coords @ a.right_mult(u)).transpose().nz for u in elements]
        rows = [[{} for _ in range(dim)] for _ in range(a.dim)]
        for k, cols in enumerate(products):
            for nz, col in zip(rows, cols):
                for row, x in col.items():
                    nz[row][k] = x
        action = [Matrix._of_nz(f, dim, dim, nz) for nz in rows]
        gen = (coords @ Matrix.from_columns(f, a.dim, [e])).col(0)
        p = Module(a, dim, action, check=False,
                   proj_summands=[(i, gen)],
                   coord_summand=[0] * dim,
                   basis_elements=elements)
        p.memo("dual", lambda: dual(p))
        return p

    return a.memo(("projective_module", i), build)


def projective_sum(a: FDAlgebra, verts: tuple[int, ...]) -> Module:
    """⊕ P_v over the vertex tuple verts, in its order: one object per
    algebra and tuple, kept in the algebra's memo.  One vertex gives P_v
    itself and none the zero module.  Like P_v, it keeps its dual, the sum
    of the injectives of A^op at the same vertices: covers with the same
    top share one P, and the envelopes and coresolution terms dual to them
    one injective."""

    def build():
        if len(verts) == 1:
            return projective_module(a, verts[0])
        if verts:
            s = direct_sum([projective_module(a, v) for v in verts])[0]
        else:
            s = zero_module(a)
        s.memo("dual", lambda: dual(s))
        return s

    return a.memo(("projective_sum", verts), build)


def simple_module(a: FDAlgebra, i: int) -> Module:
    """S_i: the top of the projective at vertex i.  It keeps the projection
    P_i -> S_i as its minimal cover: the kernel is J P_i by construction."""
    p = projective_module(a, i)
    t, proj = top(p)
    t.memo("cover", lambda: (p, proj))
    return t


def injective_module(a: FDAlgebra, i: int) -> Module:
    """I_i = D(e_i A): dual of the opposite-side projective at i (built
    once per algebra)."""
    return a.memo(("injective_module", i),
                  lambda: dual(projective_module(a.op, i)))


def cartan_matrix(a: FDAlgebra) -> list[list[int]]:
    """Entry (i,j) = dim e_j A e_i: the multiplicity of the simple S_j in the
    projective P_i (for a path algebra, the number of paths i -> j).  Row i
    is the dimension vector of P_i."""
    return [list(projective_module(a, i).vertex_dims())
            for i in range(len(a.idempotents))]


def dual(m: Module) -> Module:
    """Vector-space dual over the opposite algebra (transposed action).

    The result keeps m in its memo, so the dual of a dual is m itself,
    bookkeeping included; a known sum of projectives dualizes to the sum of
    the injectives at the same vertices.  Only the dual links back, m does
    not keep d, except the modules kept per algebra that are sums of
    projectives: the regular module, each P_v and each `projective_sum`."""
    source = m._memo.get("dual")
    if source is not None:
        return source
    acts = m.action
    d = Module(m.algebra.op, m.dim,
               _Actions(len(acts), lambda b: acts[b].transpose()), check=False,
               inj_summands=None if m.proj_summands is None
               else [v for v, _ in m.proj_summands])
    d.memo("dual", lambda: m)
    return d


def direct_sum(mods: Sequence[Module]):
    """(sum, inclusions, projections)."""
    if not mods:
        raise ValueError("empty direct sum: use zero_module")
    a = mods[0].algebra
    f = a.field
    offs = offsets(m.dim for m in mods)
    total = offs[-1]
    acts = [m.action for m in mods]

    def block_diagonal(b):
        return Matrix._of_nz(f, total, total, [
            {off + j: x for j, x in d.items()} if off else d.copy()
            for act, off in zip(acts, offs) for d in act[b].nz])

    ps = coord = be = inj = None
    if all(m.proj_summands is not None and m.coord_summand is not None
           for m in mods):
        ps, coord = [], []
        for m, off in zip(mods, offs):
            coord.extend(len(ps) + c for c in m.coord_summand)
            ps.extend((v, [f.zero] * off + g + [f.zero] * (total - off - m.dim))
                      for v, g in m.proj_summands)
    if all(m.basis_elements is not None for m in mods):
        be = [v for m in mods for v in m.basis_elements]
    if all(m.inj_summands is not None for m in mods):
        inj = [v for m in mods for v in m.inj_summands]
    s = Module(a, total, _Actions(a.dim, block_diagonal), check=False,
               proj_summands=ps, coord_summand=coord, basis_elements=be,
               inj_summands=inj)
    one = f.one
    incls = [ModuleMap(m, s, Matrix._of_nz(f, total, m.dim, [
                 {r - off: one} if off <= r < off + m.dim else {}
                 for r in range(total)]), check=False)
             for m, off in zip(mods, offs)]
    projs = [ModuleMap(s, m, Matrix._of_nz(f, m.dim, total, [
                 {off + j: one} for j in range(m.dim)]), check=False)
             for m, off in zip(mods, offs)]
    return s, incls, projs


def submodule(x: Module, basis: Matrix, known_invariant: bool = False):
    """(sub, inclusion) for an action-invariant column span.

    The span is checked here, building every action matrix, unless the
    caller knows it is invariant by construction (kernels of module maps,
    radicals, socles); then each matrix is built on first read."""
    a = x.algebra
    coords = _left_inverse(basis) if basis.cols else Matrix(a.field, 0, x.dim)
    if known_invariant:
        return _invariant_submodule(x, basis, coords)
    action = []
    for b in range(a.dim):
        img = x.action[b] @ basis
        act = coords @ img
        if basis @ act != img:
            raise ValueError("span is not action-invariant")
        action.append(act)
    sub = Module(a, basis.cols, action, check=False)
    return sub, ModuleMap(sub, x, basis, check=False)


def _invariant_submodule(x: Module, basis: Matrix, coords: Matrix):
    """(sub, inclusion) for a span known to be invariant, given coordinates
    with coords @ basis = I; each action matrix is built on first read."""
    acts = x.action
    sub = Module(x.algebra, basis.cols,
                 _Actions(x.algebra.dim, lambda b: coords @ (acts[b] @ basis)),
                 check=False)
    return sub, ModuleMap(sub, x, basis, check=False)


def quotient_module(x: Module, sub_basis: Matrix):
    """(quotient, projection) by an action-invariant column span."""
    a = x.algebra
    f = a.field
    red = _SpanReducer(f, sub_basis.transpose().nz, x.dim)
    free = red.free()
    dim = len(free)
    proj = Matrix.from_columns(f, dim, [red.quotient_coords({j: f.one})
                                        for j in range(x.dim)])
    sect = Matrix(f, x.dim, dim)
    for i, c in enumerate(free):
        sect.set(c, i, f.one)
    acts = x.action
    q = Module(a, dim, _Actions(a.dim, lambda b: proj @ acts[b] @ sect),
               check=False)
    return q, ModuleMap(x, q, proj, check=False)


def kernel(fmap: ModuleMap):
    """(ker, inclusion) on the map's kept kernel basis, whose rows at the
    free columns are unit vectors: they give the coordinates, with no solve."""
    kb = fmap.kernel_basis()
    return _invariant_submodule(fmap.source, kb, kernel_coords(kb))


def cokernel(fmap: ModuleMap):
    return quotient_module(fmap.target, column_space_basis(fmap.matrix))


# -- hom spaces ----------------------------------------------------------------


def hom_basis(x: Module, y: Module) -> list[ModuleMap]:
    """Basis of the space of module maps x -> y."""
    if x.algebra is not y.algebra:
        raise ValueError("hom between modules over different algebras")
    if x.dim == 0 or y.dim == 0:
        return []
    if (x.proj_summands is not None and x.coord_summand is not None
            and x.basis_elements is not None):
        return _hom_from_projective(x, y)
    homs = x.algebra.homogeneous_generators()
    if homs is None:
        return _hom_generic(x, y)
    return _hom_blockwise(x, y, homs)


def _hom_from_projective(p: Module, y: Module) -> list[ModuleMap]:
    """Hom(⊕_c A e_{v_c}, Y) ≅ ⊕_c e_{v_c} Y: one map per basis vector of each
    e_{v_c} Y, sending the generator of summand c there and the others to 0."""
    f = p.algebra.field
    tops = [column_space_basis(y.act_vec(p.algebra.idempotents[v]))
            for v, _ in p.proj_summands]
    offs = offsets(t.cols for t in tops)
    return _from_generators(p, y, [Matrix(f, y.dim, offs[-1]).put(0, off, t)
                                   for off, t in zip(offs, tops)])


def _from_generators(p: Module, y: Module, images: Sequence[Matrix]) -> list[ModuleMap]:
    """The maps p -> y out of a known sum of projectives ⊕_c A e_{v_c}, one
    per column k of the images: the generator of summand c goes to column k
    of images[c] (an element of e_{v_c} Y), so coordinate j, the element b_j
    of summand c, goes to b_j times it."""
    f = p.algebra.field
    cols = [(y.act_vec(b) @ images[c]).transpose().nz
            for b, c in zip(p.basis_elements, p.coord_summand)]
    return [ModuleMap(p, y, Matrix.from_columns(f, y.dim, [m[k] for m in cols]),
                      check=False)
            for k in range(images[0].cols)]


def _summand_element(p: Module, vec, c: int) -> dict:
    """The algebra element Σ vec_j b_j over the coordinates j of summand c of
    a known sum of projectives p (vec is a vector of p)."""
    return _combine(p.algebra.field, [
        (x, b) for x, s, b in zip(vec, p.coord_summand, p.basis_elements)
        if s == c])


def _hom_blockwise(x: Module, y: Module, homs) -> list[ModuleMap]:
    """Solve the intertwining equations in vertex-adapted coordinates."""
    f = x.algebra.field
    bx, bxi, rx = x.vertex_blocks()
    by, byi, ry = y.vertex_blocks()
    nv = len(rx)
    xd = [b - a for a, b in rx]
    yd = [b - a for a, b in ry]
    # unknown: block F_v of shape yd[v] x xd[v]; offsets into the flat vector
    off = offsets(xd[v] * yd[v] for v in range(nv))
    tot = off[-1]
    if tot == 0:
        return []
    rows: list[dict] = []
    # the arrows' actions, after the idempotents' in the generator action
    for (v, w, _), gxa, gya in zip(homs, x.generator_action()[nv:],
                                   y.generator_action()[nv:]):
        if xd[v] == 0 and yd[v] == 0:
            continue
        gx = (bxi @ gxa @ bx)
        gy = (byi @ gya @ by)
        # block (w,v) of each: gx_wv: xd[v] -> xd[w]; condition:
        # F_w gx_wv = gy_wv F_v  (yd[w] x xd[v] equations)
        gx_cols = gx.block(rx[w][0], rx[v][0], xd[w], xd[v]).transpose().nz
        gy_rows = gy.block(ry[w][0], ry[v][0], yd[w], yd[v]).nz
        for i in range(yd[w]):
            for j in range(xd[v]):
                # (F_w gx_wv)[i][j] = sum_k F_w[i][k] gx_wv[k][j]
                row = {off[w] + i * xd[w] + k: c for k, c in gx_cols[j].items()}
                # (gy_wv F_v)[i][j] = sum_k gy_wv[i][k] F_v[k][j]
                for k, c in gy_rows[i].items():
                    idx = off[v] + k * xd[v] + j
                    row[idx] = f.sub(row.get(idx, f.zero), c)
                row = {idx: c for idx, c in row.items() if c}
                if row:
                    rows.append(row)
    if rows:
        ker = kernel_basis(Matrix._of_nz(f, len(rows), tot, rows))
    else:
        ker = Matrix.identity(f, tot)
    out = []
    for kcol in range(ker.cols):
        col = ker.col(kcol)
        # the block-diagonal map in adapted coords: row ry[v][0] + i holds
        # row i of F_v, at columns from rx[v][0]
        adapted = []
        for v in range(nv):
            for i in range(yd[v]):
                start = off[v] + i * xd[v]
                adapted.append({rx[v][0] + j: c for j, c in
                                enumerate(col[start: start + xd[v]]) if c})
        adapted = Matrix._of_nz(f, sum(yd), sum(xd), adapted)
        fb = by @ adapted @ bxi
        out.append(ModuleMap(x, y, fb, check=False))
    return out


def _hom_generic(x: Module, y: Module) -> list[ModuleMap]:
    """Fallback: joint kernel over the full generating set via Kronecker."""
    f = x.algebra.field
    dx, dy = x.dim, y.dim
    idx = Matrix.identity(f, dx)
    idy = Matrix.identity(f, dy)
    cur: Optional[Matrix] = None
    for sg, tg in zip(x.generator_action(), y.generator_action()):
        cond = kron(sg.transpose(), idy) - kron(idx, tg)
        if cur is None:
            cur = kernel_basis(cond)
        else:
            cur = cur @ kernel_basis(cond @ cur)
        if cur.cols == 0:
            return []
    out = []
    for k in range(cur.cols):
        col = cur.col(k)
        m = Matrix._of_rows(f, dy, dx, [col[i::dy] for i in range(dy)])
        out.append(ModuleMap(x, y, m, check=False))
    return out


def hom_dim(x: Module, y: Module) -> int:
    return len(hom_basis(x, y))


def _map_span(field, rows: int, cols: int, mats: Sequence[Matrix]) -> _SpanReducer:
    """The span of rows x cols map matrices, flattened: its dim() is their
    rank and contains() tests membership."""
    return _SpanReducer(field, [m.flatten() for m in mats], rows * cols)


def hom_coords(basis: Sequence[ModuleMap], mats: Sequence[Matrix],
               what: Optional[str] = None) -> Optional[Matrix]:
    """Coordinates of the matrices in the span of the basis maps, one column
    per matrix, from one solve over all of them stacked together (unique
    when the basis is independent; free coordinates are zero otherwise).

    None when some matrix lies outside the span; a certified caller passes
    `what`, and then that raises CertificateFailed instead.  Either the basis
    or the list of matrices must be nonempty.
    """
    ref = basis[0].matrix if basis else mats[0]
    f, n = ref.field, ref.rows * ref.cols
    sol = solve(Matrix.from_columns(f, n, [h.matrix.flatten() for h in basis]),
                Matrix.from_columns(f, n, [m.flatten() for m in mats]))
    if sol is None and what is not None:
        raise CertificateFailed(what)
    return sol


# -- radical, top, socle -------------------------------------------------------


def _radical_actions(m: Module) -> list[Matrix]:
    """Actions on M of generators of J as an ideal: the arrows
    (`homogeneous_generators`), or the radical basis when there are none.
    The arrows span J modulo J^2 and J is nilpotent, so J is spanned by
    words in them: JM = sum_g g M and soc M = the common kernel.  The
    arrows' actions are the cached tail of `Module.generator_action`."""
    a = m.algebra
    if a.homogeneous_generators() is None:
        return [m.act_vec(g) for g in a.radical_basis()]
    return m.generator_action()[len(a.idempotents):]


def _radical_span(m: Module) -> Matrix:
    """Column basis of JM."""
    return column_space_basis(hstack_all(m.algebra.field, _radical_actions(m), m.dim))


def radical_of_module(m: Module):
    """(rad M, inclusion): JM, the span of the arrows' actions."""
    return submodule(m, _radical_span(m), known_invariant=True)


def top(m: Module):
    """(M / rad M, projection)."""
    return quotient_module(m, _radical_span(m))


def socle(m: Module):
    """(soc M, inclusion): the common kernel of the arrows' actions."""
    kb = kernel_basis(vstack_all(m.algebra.field, _radical_actions(m), m.dim))
    return _invariant_submodule(m, kb, kernel_coords(kb))


# -- covers, envelopes, resolutions ---------------------------------------------


def projective_cover(m: Module):
    """(P, epi): minimal projective cover, built once per module and kept
    on it.

    Generators w in e_v M are chosen greedily: w is kept when it lies
    outside JM plus the spans A w' of the w' kept before.  Over a basic
    algebra A = span(e_i) + J, so A w' + JM = k w' + JM and only w' joins
    the span; otherwise w' is closed under every basis element.  The choice
    depends only on the subspace JM.  With one generator at v, P is the
    algebra's own P_v, and shares its memo.

    The epi is certified onto by the rank of its kept kernel basis, which
    `omega` then spans.  Minimality, kernel inside JP = ⊕ J P_v, is
    certified by each block of that basis vanishing under the projection
    P_v -> top P_v, which the algebra's P_v keeps: a check of the radicals
    of the P_v, independent of JM and of the greedy choice."""
    return m.memo("cover", lambda: _minimal_cover(m))


def _minimal_cover(m: Module):
    a = m.algebra
    f = a.field
    if m.dim == 0:
        z = zero_module(a)
        return z, zero_map(z, m)
    jm = _radical_span(m)
    covered = _SpanReducer(f, jm.transpose().nz, m.dim)
    basic = a.homogeneous_generators() is not None
    chosen: list[tuple[int, Matrix]] = []  # (vertex, generator column in M)
    for v, e in enumerate(a.idempotents):
        for w in column_space_basis(m.act_vec(e)).transpose().nz:
            if covered.contains(w):
                continue
            wm = Matrix.from_columns(f, m.dim, [w])
            chosen.append((v, wm))
            if basic:
                covered.add(w)
            else:
                for x in m.action:
                    covered.add((x @ wm).transpose().nz[0])
            if covered.dim() == m.dim:
                break
        if covered.dim() == m.dim:
            break
    if covered.dim() != m.dim:
        raise CertificateFailed("top not covered: missing generators")
    summands = [projective_module(a, v) for v, _ in chosen]
    p = projective_sum(a, tuple(v for v, _ in chosen))
    epi = _from_generators(p, m, [wm for _, wm in chosen])[0]
    kb = epi.kernel_basis()
    if p.dim - kb.cols != m.dim:  # rank-nullity: the rank is dim M
        raise CertificateFailed("cover map is not surjective")
    off = 0
    for s in summands if kb.cols else ():  # minimality: kernel inside JP
        if not (_top_projection(s) @ kb.block(off, 0, s.dim, kb.cols)).is_zero():
            raise CertificateFailed("cover kernel escapes the radical")
        off += s.dim
    return p, epi


def _top_projection(p: Module) -> Matrix:
    """The matrix of P -> top P, kept on P; its kernel is JP."""
    return p.memo("top_projection", lambda: top(p)[1].matrix)


def injective_envelope(m: Module):
    """(I, mono): dual of the projective cover of the dual."""
    a = m.algebra
    if m.dim == 0:
        z = zero_module(a)
        return z, zero_map(m, z)
    pd_, q = projective_cover(dual(m))
    env = dual(pd_)
    mono = ModuleMap(m, env, q.matrix.transpose(), check=False)
    return env, mono


def _exact_from_left(dims, ranks) -> bool:
    """Is 0 -> V_0 -> V_1 -> ... -> V_last exact at every term but the last,
    with dims[k] = dim V_k and ranks[k] the rank of the map out of V_k?"""
    prev = 0
    for d, r in zip(dims, ranks):
        if r != d - prev:
            return False
        prev = r
    return True


def _certify_exact(maps: Sequence[ModuleMap], what: str) -> None:
    """Certify 0 -> M_0 -> M_1 -> ... -> M_k -> 0 exact for composable maps
    f_i: M_i -> M_{i+1}, or raise CertificateFailed(what).

    Consecutive composites vanish, so image f_i lies in ker f_{i+1}; with
    rank f_i + rank f_{i+1} = dim M_{i+1} the two have one dimension, the
    first map is injective and the last onto.  The ranks come from a fresh
    elimination of each map, not from the one that built a kernel."""
    ranks = [f.rank() for f in maps]
    if not (all(f.then(g).is_zero() for f, g in zip(maps, maps[1:]))
            and _exact_from_left([f.source.dim for f in maps], ranks)
            and ranks[-1] == maps[-1].target.dim):
        raise CertificateFailed(what)


def omega(m: Module):
    """(Ω m, inclusion): the kernel of m's minimal projective cover, kept
    on m next to the cover, with its link 0 -> Ω m -> P -> m -> 0 certified
    exact once.  Resolutions, `syzygy`, `cosyzygy` and τ_n walk these links;
    Ω(P ⊕ N) ≅ Ω N for projective P."""

    def build():
        q = projective_cover(m)[1]
        link = kernel(q)
        _certify_exact([link[1], q], "Ω link is not exact")
        return link

    return m.memo("omega", build)


@dataclass
class Resolution:
    """A minimal projective resolution ... -> P_1 -> P_0 of a module:
    `modules` are P_0..P_L and maps[i]: P_{i+1} -> P_i.

    It is spliced from the Ω links of `omega`, each certified short exact
    there, and checks nothing itself.  With Ω^0 the module, link i is
    0 -> Ω^{i+1} -> P_i -> Ω^i -> 0, with q_i: P_i -> Ω^i onto and
    incl_i: Ω^{i+1} -> P_i into.
    - The differential d_i: P_i -> P_{i-1} is q_i then incl_{i-1}, so
      image d_i = Ω^i, as q_i is onto; the kernel of d_{i-1} is that of
      q_{i-1}, as incl_{i-2} is into, and that is Ω^i.  So the resolution
      is exact at every P_{i-1}, and q_0 is onto the module.
    - It terminates exactly when the last Ω is 0: the kernel of the last
      differential is that Ω.  Otherwise truncated_at is the cap."""

    modules: list
    maps: list
    truncated_at: Optional[int]

    @property
    def length(self) -> int:
        return len(self.modules) - 1


def min_proj_resolution(m: Module, cap: int) -> Resolution:
    """Iterated minimal covers along the Ω links; terms P_0..P_L with
    L <= cap."""
    modules = [projective_cover(m)[0]]
    maps = []
    cur, incl = omega(m)
    for _ in range(cap):
        if cur.dim == 0:
            break
        p, q = projective_cover(cur)
        maps.append(q.then(incl))
        modules.append(p)
        cur, incl = omega(cur)
    return Resolution(modules, maps, cap if cur.dim else None)


# -- projectivity, stripping projective summands -------------------------------


def projective_vertices(m: Module) -> Optional[list[int]]:
    """The vertices of m's minimal projective cover when m is projective,
    else None.  The cover is onto, so it is an isomorphism exactly when it
    has m's dimension; then m ≅ ⊕ P_v over the returned vertices (the zero
    module gives [])."""
    p, _ = projective_cover(m)
    return [v for v, _ in p.proj_summands] if p.dim == m.dim else None


def projective_vertices_among(mods: Sequence[Module]) -> set:
    """The vertices v with some module in mods isomorphic to P_v: those whose
    minimal cover is the one projective P_v."""
    return {vs[0] for vs in map(projective_vertices, mods)
            if vs is not None and len(vs) == 1}


def projective_injective_vertices(a: FDAlgebra) -> set:
    """Vertices whose indecomposable injective is projective (cached)."""
    return a.memo("projective_injective_vertices", lambda: {
        v for v in range(len(a.idempotents))
        if projective_vertices(injective_module(a, v)) is not None})


def _top_dims(m: Module) -> list[int]:
    """dim e_v(M/JM) = dim e_v M - rank(e_v JM), for each vertex v."""
    jm = _radical_span(m)
    return [rank(x) - rank(x @ jm) for x in map(m.act_vec, m.algebra.idempotents)]


def strip_projectives(m: Module):
    """(core, removed): split off projective direct summands.

    removed is a list of vertex indices, one per split-off indecomposable
    projective.  The core has no projective summands.
    """
    a = m.algebra
    removed: list[int] = []
    cur = m
    changed = True
    while changed and cur.dim:
        changed = False
        # a projective summand at v forces a simple S_v inside the top
        top_dims = _top_dims(cur)
        for v in range(len(a.idempotents)):
            if top_dims[v] == 0:
                continue
            p = projective_module(a, v)
            if p.dim > cur.dim:
                continue
            into = hom_basis(p, cur)
            if not into:
                continue
            back = hom_basis(cur, p)
            if not back:
                continue
            found = None
            for fm in into:
                for gm in back:
                    comp = gm.matrix @ fm.matrix  # f then g, as endo of P
                    inv = invert(comp)
                    if inv is not None:
                        found = (fm, gm, inv)
                        break
                if found:
                    break
            if not found:
                continue
            fm, gm, inv = found
            eps = fm.matrix @ inv @ gm.matrix  # idempotent endo with image ≅ P_v
            ker = kernel_basis(eps)
            sub, _ = submodule(cur, ker)
            removed.append(v)
            cur = sub
            changed = True
            break
    return cur, removed


# -- syzygies -------------------------------------------------------------------


def syzygy(m: Module, k: int = 1) -> Module:
    """Ω^k m along the Ω links, projective summands split off once at the
    end (stable-category representative)."""
    for _ in range(k):
        m, _ = omega(m)
    return strip_projectives(m)[0]


def cosyzygy(m: Module, k: int = 1) -> Module:
    """Ω^{-k} m = D Ω^k D m, injective summands split off."""
    return dual(syzygy(dual(m), k))


# -- isomorphism and decomposition ----------------------------------------------


def iso(x: Module, y: Module, seed: int = 0):
    """An invertible intertwiner x -> y, or None when provably none exists.

    Exact when End(x) is certified local: id_x = phi^-1 phi for an
    isomorphism phi is a sum of composites g_b f_a of basis maps, one of them
    a unit, so f_a is a split mono between modules of equal dimension, found
    by the loop over the basis maps.  For a non-local x, raises Inconclusive
    when none of `_RANDOM_TRIALS` random combinations is invertible.
    """
    if x.algebra is not y.algebra:
        raise ValueError("iso across algebras")
    if x.dim != y.dim:
        return None
    if x.dim == 0:
        return zero_map(x, y)
    if x.vertex_dims() != y.vertex_dims():
        return None
    homs = hom_basis(x, y)
    if not homs or not hom_basis(y, x):
        return None
    for h in homs:
        if invert(h.matrix) is not None:
            return h
    if len(homs) == 1 or _end_is_local(hom_basis(x, x)):
        return None  # scalar multiples of one map, or End(x) local
    f = x.algebra.field
    rng = random.Random(seed)
    mats = [h.matrix for h in homs]
    if f.kind == "Fp" and f.p ** len(homs) <= 4096:
        for m in _fp_combinations(f, mats):
            if invert(m) is not None:
                return ModuleMap(x, y, m, check=False)
        return None
    for _ in range(_RANDOM_TRIALS):
        m = _linear_combination(f, y.dim, x.dim, _random_coeffs(f, rng, len(mats), 4),
                                mats.__getitem__)
        if invert(m) is not None:
            return ModuleMap(x, y, m, check=False)
    raise Inconclusive(
        f"no invertible combination found in {_RANDOM_TRIALS} random trials")


class Decomposition:
    """Indecomposable decomposition with an explicit iso pair."""

    def __init__(self, module, leaves, incls, projs, summands):
        self.module = module
        self.leaves = leaves          # list of Module
        self.incls = incls            # leaf -> module
        self.projs = projs            # module -> leaf
        self.summands = summands      # list of (representative, multiplicity)

    def reassembled(self):
        """(S, to_module, from_module) with both composites identities."""
        s = direct_sum(self.leaves)[0] if self.leaves else \
            zero_module(self.module.algebra)
        f, n = self.module.algebra.field, self.module.dim
        to_m = hstack_all(f, [inc.matrix for inc in self.incls], n)
        from_m = vstack_all(f, [prj.matrix for prj in self.projs], n)
        return s, ModuleMap(s, self.module, to_m, check=False), \
            ModuleMap(self.module, s, from_m, check=False)


def decompose(m: Module, seed: int = 0) -> Decomposition:
    """Split into indecomposables by idempotent endomorphisms."""
    a = m.algebra
    f = a.field
    if m.dim == 0:
        return Decomposition(m, [], [], [], [])
    leaves: list[tuple[Module, Matrix, Matrix]] = []
    work = [(m, Matrix.identity(f, m.dim), Matrix.identity(f, m.dim))]
    while work:
        x, inc, prj = work.pop()
        eps = _nontrivial_idempotent_endo(x, seed)
        if eps is None:
            leaves.append((x, inc, prj))
            continue
        for part in (eps, Matrix.identity(f, x.dim) - eps):
            basis = column_space_basis(part)
            sub, si = submodule(x, basis)
            sp = solve(basis, part)  # x -> sub: coordinates of part(x)
            work.append((sub, inc @ si.matrix, sp @ prj))
    mods = [l[0] for l in leaves]
    incls = [ModuleMap(l[0], m, l[1], check=False) for l in leaves]
    projs = [ModuleMap(m, l[0], l[2], check=False) for l in leaves]
    # sanity: each (incl, proj) pair splits, and the sum is the identity
    total = Matrix(f, m.dim, m.dim)
    for l, i_, p_ in zip(mods, incls, projs):
        if p_.matrix @ i_.matrix != Matrix.identity(f, l.dim):
            raise CertificateFailed("split pair does not retract")
        total = total + i_.matrix @ p_.matrix
    if total != Matrix.identity(f, m.dim):
        raise CertificateFailed("split idempotents do not sum to the identity")
    reps: list[tuple[Module, int]] = []
    for x in mods:
        for k, (r, mult) in enumerate(reps):
            if iso(x, r) is not None:
                reps[k] = (r, mult + 1)
                break
        else:
            reps.append((x, 1))
    return Decomposition(m, mods, incls, projs, reps)


def _nontrivial_idempotent_endo(x: Module, seed: int):
    """An idempotent endomorphism that is neither 0 nor the identity, or None
    when the module is certified indecomposable."""
    endos = hom_basis(x, x)
    if len(endos) == 1:
        return None  # End = k: certainly indecomposable
    return _split_idempotent([h.matrix for h in endos],
                             Matrix.identity(x.algebra.field, x.dim),
                             lambda: _end_is_local(endos), seed)


def _rad_end_basis(endos: Sequence[ModuleMap]) -> list[Matrix]:
    """Basis of rad End(x), as matrices, from endos = hom_basis(x, x), x != 0:
    `FDAlgebra.radical_basis` of End(x) in that basis, with idempotent id_x."""
    f, n, dim = endos[0].matrix.field, len(endos), endos[0].source.dim
    mats = [h.matrix for h in endos]
    coords = hom_coords(endos, [u @ v for u in mats for v in mats]
                        + [Matrix.identity(f, dim)], "composite escapes End(x)")
    cols = coords.transpose().nz
    end = FDAlgebra(f, [f"h{k}" for k in range(n)],
                    [{l: x for l, x in enumerate(cols[k * n:(k + 1) * n]) if x}
                     for k in range(n)], cols[-1],
                    [cols[-1]], origin="endomorphism", check=False)
    return [_linear_combination(f, dim, dim, v, mats.__getitem__)
            for v in end.radical_basis()]


def _end_is_local(endos: Sequence[ModuleMap]) -> bool:
    """Is End(x) local with residue field k?  Such an End(x) certifies its
    radical from id_x, so FieldTooSmall means that it is not."""
    try:
        return len(endos) - len(_rad_end_basis(endos)) == 1
    except FieldTooSmall:
        return False


# -- approximations --------------------------------------------------------------


def right_approximation(gens: Sequence[Module], x: Module):
    """Minimal right add(⊕gens)-approximation f: M' -> x.

    Every map from add(⊕gens) to x factors through f (certified).  Returns
    (f, summand indices) where the indices say which generator each retained
    copy came from; f is the zero map from the zero module when Hom = 0.
    """
    a = x.algebra
    f = a.field
    copies: list[tuple[int, ModuleMap]] = []
    for gi, g in enumerate(gens):
        for h in hom_basis(g, x):
            copies.append((gi, h))
    pair_homs = {}
    for i, gi_ in enumerate(gens):
        for j, gj in enumerate(gens):
            pair_homs[(i, j)] = hom_basis(gi_, gj)

    def through(gi, kept):
        """Span of the maps gens[gi] -> x that factor through kept copies."""
        return _map_span(f, x.dim, gens[gi].dim,
                         [copies[q][1].matrix @ u.matrix
                          for q in kept for u in pair_homs[(gi, copies[q][0])]])

    # greedy removal: drop a copy when its map factors through the others
    keep = list(range(len(copies)))
    changed = True
    while changed:
        changed = False
        for pos in list(keep):
            gi, h = copies[pos]
            others = [q for q in keep if q != pos]
            if through(gi, others).contains(h.matrix.flatten()):
                keep = others
                changed = True
                break
    if not keep:
        z = zero_module(a)
        return zero_map(z, x), []
    msum, _, _ = direct_sum([gens[copies[q][0]] for q in keep])
    mat = hstack_all(f, [copies[q][1].matrix for q in keep], x.dim)
    # certificate: every basis map gen -> x factors through the result
    for gi, g in enumerate(gens):
        red = through(gi, keep)
        for h in hom_basis(g, x):
            if not red.contains(h.matrix.flatten()):
                raise CertificateFailed("approximation certificate failed")
    return ModuleMap(msum, x, mat, check=False), [copies[q][0] for q in keep]


def left_approximation(x: Module, gens: Sequence[Module]):
    """Minimal left add(⊕gens)-approximation f: x -> M''.

    The dual D of the minimal right add(⊕ D gens)-approximation of D x over
    the opposite algebra (certified there); the target is the direct sum of
    the retained gens, so their summand bookkeeping survives.
    """
    g, kept = right_approximation([dual(m) for m in gens], dual(x))
    if not kept:
        return zero_map(x, zero_module(x.algebra)), []
    msum, _, _ = direct_sum([gens[i] for i in kept])
    return ModuleMap(x, msum, g.matrix.transpose(), check=False), kept


def _approximation_chain(x: Module, gens: Sequence[Module], steps: int,
                         left: bool = False):
    """(maps, rest): at most `steps` minimal add(⊕gens)-approximations,
    right ones through kernels (... -> M_1 -> M_0 -> x) or left ones
    through cokernels (x -> M^0 -> M^1 -> ...), stopping at zero.

    rest is the module left after the last map, zero when the chain ended,
    or None when a right approximation was not onto its module or a left
    one not into it; maps then stops before that approximation."""
    maps = []
    cur = x
    for _ in range(steps):
        if cur.dim == 0:
            break
        if left:
            fmap, _ = left_approximation(cur, gens)
            if not fmap.is_injective():
                return maps, None
            cur, _ = cokernel(fmap)
        else:
            fmap, _ = right_approximation(gens, cur)
            if not fmap.is_surjective():
                return maps, None
            cur, _ = kernel(fmap)
        maps.append(fmap)
    return maps, cur


def resolution_dim(c_list: Sequence[Module], x: Module, cap: int):
    """Length of the iterated minimal right-approximation resolution of x.

    Hom(C, -)-exactness holds step by step because approximations are onto
    the hom spaces (certified inside right_approximation); the resolution
    can stop after stage n exactly when Hom(C, ker f_n) = 0.  Returns the
    length, or the AtLeastCap sentinel when the cap is hit.
    """
    cur = x
    for n in range(cap + 1):
        fmap, _ = right_approximation(c_list, cur)
        ker, _ = kernel(fmap)
        if all(hom_dim(c, ker) == 0 for c in c_list):
            return n
        cur = ker
    return AtLeastCap(cap)
