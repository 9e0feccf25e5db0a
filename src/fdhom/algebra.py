"""Finite-dimensional algebras: path-algebra quotients, radicals, idempotents.

Conventions, fixed once and inherited by every other module:

* A path is written as its arrow list in traversal order: ``[a, b]`` walks
  ``a`` first, then ``b`` (so its source is ``a``'s source).
* The algebra product ``x * y`` is "apply ``y``, then ``x``": for paths,
  ``x * y`` concatenates the walk of ``y`` followed by the walk of ``x``.
  Hence ``A e_i`` consists of paths out of vertex ``i`` and is the
  projective left module at ``i``, and ``e_j A e_i`` is spanned by the
  paths from ``i`` to ``j``.
* Modules are left modules throughout.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from fdhom.errors import (BadRelation, FieldTooSmall, Inconclusive,
                          NotAdmissible)
from fdhom.linalg import FieldSpec, Matrix, kernel_basis, solve

Vec = list  # coefficient vector over the algebra basis


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(self.vertices)
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise ValueError(f"arrow {name} has undeclared endpoint")

    @staticmethod
    def make(vertices: Sequence[str], arrows: Sequence[tuple[str, str, str]]) -> "Quiver":
        return Quiver(tuple(vertices), tuple(tuple(a) for a in arrows))

    def arrow_index(self, name: str) -> int:
        for i, (n, _, _) in enumerate(self.arrows):
            if n == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class PathExpr:
    """Linear combination of parallel paths, each an arrow-name sequence."""

    terms: tuple[tuple[object, tuple[str, ...]], ...]  # (coefficient, arrow names)

    @staticmethod
    def make(terms) -> "PathExpr":
        return PathExpr(tuple((c, tuple(p)) for c, p in terms))


class _Path:
    __slots__ = ("source", "target", "arrows")

    def __init__(self, source: int, target: int, arrows: tuple[int, ...]):
        self.source = source
        self.target = target
        self.arrows = arrows

    def key(self):
        return (len(self.arrows), self.arrows, self.source)

    def __repr__(self):
        return f"_Path({self.source}->{self.target}:{self.arrows})"


def _memoized(method):
    """Keep a no-argument FDAlgebra method's value in the algebra's memo,
    under the method's name."""

    @functools.wraps(method)
    def wrapper(self):
        return self.memo(method.__name__, lambda: method(self))

    return wrapper


class FDAlgebra:
    """A finite-dimensional algebra given by exact structure constants.

    Everything derived from the structure constants and kept for reuse (the
    opposite algebra, multiplication matrices, the radical, projective
    modules, ...) lives in one per-algebra memo, written only through `memo`.
    """

    def __init__(
        self,
        field: FieldSpec,
        basis_labels: list[str],
        mult: list[list[Vec]],
        unit: Vec,
        idempotents: list[Vec],
        origin: str,
        quiver: Optional[Quiver] = None,
        relations: Optional[list[PathExpr]] = None,
        path_data: Optional[dict] = None,
        check: bool = True,
    ):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.mult = mult
        self.unit = [field.of(x) for x in unit]
        self.idempotents = [[field.of(x) for x in e] for e in idempotents]
        self.origin = origin
        self.quiver = quiver
        self.relations = relations
        self.path_data = path_data  # path-algebra bookkeeping (basis walks etc.)
        self._memo: dict = {}
        if check:
            self._verify()

    def memo(self, key, build):
        """The value kept under key, computed by build() on first use."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    @property
    @_memoized
    def op(self) -> "FDAlgebra":
        """The opposite algebra, built once; its own op is this algebra."""
        b = opposite(self)
        b.memo("op", lambda: self)
        return b

    # -- multiplication --------------------------------------------------------

    def left_mult_basis(self, i: int) -> Matrix:
        """Matrix of m -> b_i * m on coefficient vectors."""
        return self.memo(("left_mult_basis", i), lambda: self._product_matrix(
            self.mult_nonzeros()[i]))

    def right_mult_basis(self, j: int) -> Matrix:
        """Matrix of m -> m * b_j on coefficient vectors."""
        return self.memo(("right_mult_basis", j), lambda: self._product_matrix(
            [row[j] for row in self.mult_nonzeros()]))

    def _product_matrix(self, products) -> Matrix:
        """The matrix whose column k is the product whose nonzero (r, c)
        pairs `products[k]` lists."""
        nz = [{} for _ in range(self.dim)]
        for k, pairs in enumerate(products):
            for r, c in pairs:
                nz[r][k] = c
        return Matrix._of_nz(self.field, self.dim, self.dim, nz)

    def right_mult(self, x: Vec) -> Matrix:
        """Matrix of m -> m * x on coefficient vectors."""
        return _linear_combination(self.field, self.dim, self.dim, x,
                                   self.right_mult_basis)

    def multiply(self, x: Vec, y: Vec) -> Vec:
        out = self.zero_vec()
        for k, c in _sparse_product(self.field, self.mult_nonzeros(),
                                    _sparse(x), _sparse(y)).items():
            out[k] = c
        return out

    def zero_vec(self) -> Vec:
        return [self.field.zero] * self.dim

    def basis_vec(self, i: int) -> Vec:
        return _unit_vec(self.field, self.dim, i)

    # -- structure -------------------------------------------------------------

    def _verify(self):
        """Unit laws, the idempotent family and associativity on every triple
        of basis elements, all from the nonzero structure constants."""
        f, n = self.field, self.dim
        if n == 0:
            return
        nz = self.mult_nonzeros()
        unit = _sparse(self.unit)
        for j in range(n):
            bj = {j: f.one}
            if _sparse_product(f, nz, unit, bj) != bj:
                raise ValueError(f"unit fails on the left of b_{j}")
            if _sparse_product(f, nz, bj, unit) != bj:
                raise ValueError(f"unit fails on the right of b_{j}")
        bad = _first_nonassociative_triple(f, nz)
        if bad is not None:
            raise ValueError(f"associativity fails on ({bad[0]},{bad[1]},{bad[2]})")
        idems = [_sparse(e) for e in self.idempotents]
        for a, e in enumerate(idems):
            if _sparse_product(f, nz, e, e) != e:
                raise ValueError(f"idempotent {a} is not idempotent")
            for b, e2 in enumerate(idems):
                if a != b and _sparse_product(f, nz, e, e2):
                    raise ValueError(f"idempotents {a},{b} not orthogonal")
        tot = [f.zero] * n
        for e in self.idempotents:
            tot = [f.add(u, v) for u, v in zip(tot, e)]
        if tot != self.unit:
            raise ValueError("idempotents do not sum to the unit")

    @_memoized
    def radical_basis(self) -> list[Vec]:
        """Basis of the Jacobson radical, certified over every field.

        The radical proposed from the stored idempotents, `_idempotent_radical`,
        is kept when its certificate holds.  Otherwise (say k^n given with the
        single idempotent 1) it is the kernel of the trace form tr(L_x L_y),
        which Dickson's criterion makes valid over QQ and for p > dim; over a
        smaller prime field FieldTooSmall is raised.

        A and its opposite `op` have the same radical, and both routes above
        give it the same basis on the two; whichever of the two algebras is
        asked second takes the other's.
        """
        twin = self._memo.get("op")
        if twin is not None and "radical_basis" in twin._memo:
            return twin.radical_basis()
        rad = _idempotent_radical(self)
        if rad is not None:
            return rad
        f, n = self.field, self.dim
        if f.kind == "Fp" and f.p <= n:
            raise FieldTooSmall(
                f"the radical could not be certified over {f} (dim {n})")
        # tr(L_i L_j) = tr(L_{b_i b_j}), and tr(L_r) sums mult[r][s][s]
        tr_l = [f.of(sum(mk[s][s] for s in range(n))) for mk in self.mult]
        ker = kernel_basis(Matrix._of_rows(f, n, n, [
            [f.of(sum(c * tr_l[r] for r, c in v)) for v in row]
            for row in self.mult_nonzeros()]))
        return [ker.col(k) for k in range(ker.cols)]

    @_memoized
    def mult_nonzeros(self) -> list[list[list[tuple[int, object]]]]:
        """Entry [s][t] lists (r, c), c the nonzero b_r-coefficient of b_s b_t."""
        return [[[(r, c) for r, c in enumerate(vec) if c] for vec in row]
                for row in self.mult]

    @_memoized
    def homogeneous_generators(self) -> Optional[list[tuple[int, int, Vec]]]:
        """Radical generators sandwiched between idempotents.

        Returns [(v, w, g)] with g = e_w * g * e_v such that the idempotents
        together with these generate the algebra, or None when A/J is not
        split with one-dimensional blocks (then the idempotents do not span
        A/J and no such homogeneous set exists).
        """
        f, n = self.field, self.dim
        rad = self.radical_basis()
        if n - len(rad) != len(self.idempotents):
            return None
        pieces: list[tuple[int, int, Vec]] = []
        for g in rad:
            for w, ew in enumerate(self.idempotents):
                wg = self.multiply(ew, g)
                if not any(wg):
                    continue
                for v, ev in enumerate(self.idempotents):
                    piece = self.multiply(wg, ev)
                    if any(piece):
                        pieces.append((v, w, piece))
        nz, srad = self.mult_nonzeros(), [_sparse(x) for x in rad]
        sq = [_sparse_product(f, nz, x, y) for x in srad for y in srad]
        red = _SpanReducer(f, [[xy.get(r, f.zero) for r in range(n)]
                               for xy in sq if xy], n)
        chosen: list[tuple[int, int, Vec]] = []
        for v, w, g in pieces:
            if red.add(g):
                chosen.append((v, w, g))
        return chosen

    @_memoized
    def generator_vectors(self) -> list[Vec]:
        """Small algebra generating set: idempotents plus a lift of J/J^2.

        Falls back to the full basis when the semisimple quotient is not
        split basic (then idempotents alone do not see all of A/J).
        """
        hom = self.homogeneous_generators()
        if hom is None:
            return [self.basis_vec(i) for i in range(self.dim)]
        return list(self.idempotents) + [g for _, _, g in hom]

    def is_semisimple(self) -> bool:
        return not self.radical_basis()

    def __repr__(self):
        return f"FDAlgebra(dim={self.dim}, origin={self.origin}, field={self.field})"


def _linear_combination(f: FieldSpec, rows: int, cols: int, coeffs,
                        mat_of) -> Matrix:
    """sum_i coeffs[i] * mat_of(i) for rows x cols matrices, skipping zeros;
    mat_of is called only at nonzero coefficients.  A single coefficient 1
    (a basis vector, such as a vertex or an arrow of a path algebra) gives
    its matrix itself, not a copy: matrices are not changed after build."""
    nonzero = [(i, c) for i, c in enumerate(coeffs) if c]
    if len(nonzero) == 1 and nonzero[0][1] == f.one:
        return mat_of(nonzero[0][0])
    zero = f.zero
    out = [{} for _ in range(rows)]
    for i, c in nonzero:
        for row, mrow in zip(out, mat_of(i).nz):
            for s, v in mrow.items():
                x = f.add(row.get(s, zero), f.mul(c, v))
                if x:
                    row[s] = x
                else:
                    del row[s]
    return Matrix._of_nz(f, rows, cols, out)


class _SpanReducer:
    """Row-echelon store of vectors; reduces newcomers modulo the span."""

    def __init__(self, field: FieldSpec, vecs: list[Vec], n: int):
        self.field = field
        self.n = n
        self.rows: list[Vec] = []
        self.pivot_of_row: list[int] = []
        for v in vecs:
            self.add(v)

    def add(self, v: Vec) -> bool:
        """Reduce and insert; returns True if the span grew."""
        w = self.reduce(v)
        f = self.field
        for c, x in enumerate(w):
            if x:
                inv = f.inv(x)
                w = [f.mul(inv, y) for y in w]
                self.rows.append(w)
                self.pivot_of_row.append(c)
                order = sorted(range(len(self.rows)), key=lambda r: self.pivot_of_row[r])
                self.rows = [self.rows[r] for r in order]
                self.pivot_of_row = [self.pivot_of_row[r] for r in order]
                return True
        return False

    def reduce(self, v: Vec) -> Vec:
        f = self.field
        w = list(v)
        for row, p in zip(self.rows, self.pivot_of_row):
            if w[p]:
                c = w[p]
                for j in range(p, self.n):
                    if row[j]:
                        w[j] = f.sub(w[j], f.mul(c, row[j]))
        return w

    def contains(self, v: Vec) -> bool:
        return not any(self.reduce(v))

    def dim(self) -> int:
        return len(self.rows)

    def free(self) -> list[int]:
        """The non-pivot positions, in order: coordinates modulo the span."""
        pivots = set(self.pivot_of_row)
        return [k for k in range(self.n) if k not in pivots]

    def quotient_coords(self, v: Vec) -> Vec:
        """Coordinates of v modulo the span, at the positions of `free`
        (after `reduce`, every pivot position is zero)."""
        w = self.reduce(v)
        return [w[k] for k in self.free()]


def _idempotent_radical(a: FDAlgebra) -> Optional[list[Vec]]:
    """The radical proposed from the idempotents e_1..e_r, or None when its
    certificate fails.

    Where each corner e_i A e_i is local with residue field k, lambda_i(b) is
    the c with e_i b e_i - c e_i nilpotent, and the candidate J is the kernel
    of pi = (lambda_1, ..., lambda_r): A -> k^r, the span of every e_j A e_i
    with i != j plus ker lambda_i on each corner.  With P_i: b -> e_i b e_i,
    lambda_i(b) = tr(L_b P_i) / tr(P_i) when p does not divide the corner's
    dimension tr(P_i); otherwise each c in F_p is tried.  Certificate: pi is
    onto and multiplicative, so J is an ideal with dim A - dim J = r and
    A/J = k^r semisimple (rad A lies in J), and J^L = 0 for some L (J lies in
    rad A).  This holds over every field.
    """
    f, n, zero = a.field, a.dim, a.field.zero
    nz = a.mult_nonzeros()
    rows = []
    for e in map(_sparse, a.idempotents):
        corner = [_sparse_product(f, nz, _sparse_product(f, nz, e, {m: f.one}), e)
                  for m in range(n)]  # P_i b_m
        entries = [(m, l, v) for m, pm in enumerate(corner) for l, v in pm.items()]
        d = f.of(sum(v for m, l, v in entries if l == m))
        if d:  # tr(L_b P_i) sums the b_m-coefficients of b P_i b_m
            rows.append([f.div(f.of(sum(v * a.mult[b][l][m] for m, l, v in entries)), d)
                         for b in range(n)])
        else:
            rows.append([_residue(f, nz, e, pm) for pm in corner])
            if None in rows[-1]:
                return None
    ker = kernel_basis(Matrix._of_rows(f, len(rows), n, rows))
    if ker.cols != n - len(rows):
        return None
    cols = [[(i, row[m]) for i, row in enumerate(rows) if row[m]] for m in range(n)]
    for k in range(n):
        for l in range(n):
            got = {}
            for m, c in nz[k][l]:
                for i, v in cols[m]:
                    got[i] = f.add(got.get(i, zero), f.mul(c, v))
            want = {i: f.mul(v, rows[i][l]) for i, v in cols[k] if rows[i][l]}
            if {i: v for i, v in got.items() if v} != want:
                return None
    rad = [ker.col(k) for k in range(ker.cols)]
    gens = power = [_sparse(v) for v in rad]
    while power:  # J^(k+1) = J^k J, strictly smaller while nonzero
        red = _SpanReducer(f, [], n)
        for xy in (_sparse_product(f, nz, x, y) for x in power for y in gens):
            if xy:
                red.add([xy.get(r, zero) for r in range(n)])
        if red.dim() >= len(power):
            return None
        power = [_sparse(v) for v in red.rows]
    return rad


def _first_nonassociative_triple(f: FieldSpec, nz) -> Optional[tuple[int, int, int]]:
    """The least (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), or None, from
    the structure constants nz of `FDAlgebra.mult_nonzeros`.

    For each middle index j, (b_i b_j) b_k is summed over the pairs with
    b_i b_j != 0 and b_i (b_j b_k) over those with b_j b_k != 0; a triple
    that neither reaches is zero on both sides.
    """
    n = len(nz)
    right_of = [[(k, v) for k, v in enumerate(row) if v] for row in nz]
    left_of = [[(i, nz[i][s]) for i in range(n) if nz[i][s]] for s in range(n)]
    p = f.p if f.kind == "Fp" else None
    bad = []
    for j in range(n):
        assoc: dict = {}  # (i, k) -> (b_i b_j) b_k - b_i (b_j b_k)
        for i in range(n):
            for r, c in nz[i][j]:
                for k, vec in right_of[r]:
                    acc = assoc.setdefault((i, k), {})
                    for t, d in vec:
                        acc[t] = acc.get(t, 0) + c * d
        for k in range(n):
            for s, c in nz[j][k]:
                for i, vec in left_of[s]:
                    acc = assoc.setdefault((i, k), {})
                    for t, d in vec:
                        acc[t] = acc.get(t, 0) - c * d
        bad += [(i, j, k) for (i, k), acc in assoc.items()
                if any(x % p if p else x for x in acc.values())]
    return min(bad, default=None)


def _sparse(v: Vec) -> dict:
    return {r: c for r, c in enumerate(v) if c}


def _sparse_product(f: FieldSpec, nz, x: dict, y: dict) -> dict:
    """x * y for vectors given as {index: nonzero coefficient}, likewise,
    from the structure constants nz of `FDAlgebra.mult_nonzeros`."""
    out: dict = {}
    for s, c in x.items():
        for t, d in y.items():
            for r, v in nz[s][t]:
                out[r] = f.add(out.get(r, 0), f.mul(f.mul(c, d), v))
    return {r: c for r, c in out.items() if c}


def _residue(f: FieldSpec, nz, e: dict, x: dict):
    """The c in F_p with x - c e nilpotent, or None when there is none
    (sparse vectors as in `_sparse_product`).  A nilpotent y has y^dim = 0,
    so y is squared until the exponent passes dim."""
    for c in range(f.p) if x else [f.zero]:
        y = {r: v for r in x.keys() | e.keys()
             if (v := f.sub(x.get(r, 0), f.mul(c, e.get(r, 0))))}
        for _ in range(len(nz).bit_length()):
            y = _sparse_product(f, nz, y, y)
        if not y:
            return c
    return None


# -- path algebra construction ----------------------------------------------


def build_path_algebra(
    q: Quiver,
    rels: Sequence[PathExpr],
    length_cap: int = 30,
    field: FieldSpec = None,
) -> FDAlgebra:
    """Quotient of the path algebra of ``q`` by the ideal generated by ``rels``.

    Path layers are closed under multiplication by arrows and the length is
    grown until a full layer lies in the ideal span; if that never happens
    below ``length_cap`` the ideal is not visibly admissible and
    NotAdmissible is raised.
    """
    from fdhom.linalg import QQ

    field = field or QQ
    nv = len(q.vertices)
    vidx = {v: i for i, v in enumerate(q.vertices)}
    arrows = [(name, vidx[s], vidx[t]) for name, s, t in q.arrows]
    aidx = {name: i for i, (name, _, _) in enumerate(arrows)}

    # validate relations
    parsed = []  # (source, target, [(coeff, arrow index tuple)])
    for r in rels:
        if not r.terms:
            continue
        st = None
        terms = []
        for coeff, names in r.terms:
            if len(names) < 2:
                raise BadRelation(f"term {names} has length < 2")
            try:
                idxs = tuple(aidx[nm] for nm in names)
            except KeyError as e:
                raise BadRelation(f"unknown arrow {e}") from None
            src = arrows[idxs[0]][1]
            cur = arrows[idxs[0]][2]
            for k in idxs[1:]:
                if arrows[k][1] != cur:
                    raise BadRelation(f"path {names} is not composable")
                cur = arrows[k][2]
            if st is None:
                st = (src, cur)
            elif st != (src, cur):
                raise BadRelation("relation mixes sources/targets")
            c = field.of(coeff)
            if c:
                terms.append((c, idxs))
        if terms:
            parsed.append((st[0], st[1], terms))

    # enumerate paths layer by layer
    paths: list[_Path] = [_Path(i, i, ()) for i in range(nv)]
    layers: list[list[int]] = [list(range(nv))]  # indices into `paths` per length
    path_index: dict[tuple[int, tuple[int, ...]], int] = {
        (p.source, p.arrows): i for i, p in enumerate(paths)
    }

    def grow_layer() -> list[int]:
        new: list[int] = []
        for pi in layers[-1]:
            p = paths[pi]
            for ai, (_, s, t) in enumerate(arrows):
                if s == p.target:
                    np_ = _Path(p.source, t, p.arrows + (ai,))
                    paths.append(np_)
                    idx = len(paths) - 1
                    path_index[(np_.source, np_.arrows)] = idx
                    new.append(idx)
        layers.append(new)
        return new

    rel_minlen = [min(len(p) for _, p in terms) for _, _, terms in parsed]

    # span_{<=N} of the ideal inside the <=N path space, grown with N
    def ideal_elements_upto(n: int) -> list[dict[int, object]]:
        """All u*r*w (as {path index: coeff}, terms of length > n dropped)."""
        out = []
        for (rs, rt, terms), ml in zip(parsed, rel_minlen):
            for ui in range(len(paths)):
                u = paths[ui]
                if u.target != rs or len(u.arrows) + ml > n:
                    continue
                for wi in range(len(paths)):
                    w = paths[wi]
                    if w.source != rt:
                        continue
                    if len(u.arrows) + ml + len(w.arrows) > n:
                        continue
                    elt: dict[int, object] = {}
                    for c, parrows in terms:
                        full = u.arrows + parrows + w.arrows
                        if len(full) > n:
                            continue  # lies in J^{N}: separately in the ideal
                        key = (u.source, full)
                        pi = path_index[key]
                        elt[pi] = field.add(elt.get(pi, field.zero), c)
                    if elt:
                        out.append(elt)
        return out

    found_n = None
    for n in range(2, length_cap + 1):
        while len(layers) <= n:
            grow_layer()
        if not layers[n]:
            found_n = n
            break
        npaths = len(paths)
        span = _SpanReducer(field, [], npaths)
        for elt in ideal_elements_upto(n):
            v = [field.zero] * npaths
            for pi, c in elt.items():
                v[pi] = c
            span.add(v)
        if all(span.contains(_unit_vec(field, npaths, pi)) for pi in layers[n]):
            found_n = n
            break
    if found_n is None:
        raise NotAdmissible(
            f"paths of every length up to {length_cap} survive the ideal"
        )

    # basis: paths of length < found_n, independent modulo the ideal span
    short = [i for ln in range(found_n) for i in layers[ln] if ln < len(layers)]
    # order: by (length, enumeration order) — already the enumeration order
    pos_of = {pi: k for k, pi in enumerate(short)}
    nshort = len(short)
    span = _SpanReducer(field, [], nshort)
    for elt in ideal_elements_upto(found_n - 1):
        v = [field.zero] * nshort
        for pi, c in elt.items():
            v[pos_of[pi]] = c
        span.add(v)
    basis_paths = [short[k] for k in span.free()]
    dim = len(basis_paths)

    def label(p: _Path) -> str:
        if not p.arrows:
            return f"e({q.vertices[p.source]})"
        return "*".join(arrows[ai][0] for ai in p.arrows)

    labels = [label(paths[pi]) for pi in basis_paths]
    # multiplication: product(x, y) = walk(y) followed by walk(x)
    mult: list[list[Vec]] = [[None] * dim for _ in range(dim)]
    for i, pi in enumerate(basis_paths):
        p = paths[pi]
        for j, pj in enumerate(basis_paths):
            r = paths[pj]
            if r.target != p.source or len(r.arrows) + len(p.arrows) >= found_n:
                mult[i][j] = [field.zero] * dim
                continue
            pi2 = path_index[(r.source, r.arrows + p.arrows)]
            mult[i][j] = span.quotient_coords(_unit_vec(field, nshort, pos_of[pi2]))

    unit = [field.zero] * dim
    idempotents = []
    for v in range(nv):
        pi = path_index[(v, ())]
        vec = span.quotient_coords(_unit_vec(field, nshort, pos_of[pi]))
        idempotents.append(vec)
        unit = [field.add(a, b) for a, b in zip(unit, vec)]

    sources = [paths[pi].source for pi in basis_paths]
    walks = [paths[pi].arrows for pi in basis_paths]
    return FDAlgebra(
        field,
        labels,
        mult,
        unit,
        idempotents,
        origin="path-algebra",
        quiver=q,
        relations=list(rels),
        path_data={"sources": sources, "arrows": walks},
    )


def _unit_vec(field: FieldSpec, n: int, i: int) -> Vec:
    v = [field.zero] * n
    v[i] = field.one
    return v


# -- derived algebras ---------------------------------------------------------


def opposite(a: FDAlgebra) -> FDAlgebra:
    """Same space, transposed multiplication, same idempotents."""
    mult = [[a.mult[j][i] for j in range(a.dim)] for i in range(a.dim)]
    return FDAlgebra(
        a.field,
        a.basis_labels,
        mult,
        a.unit,
        a.idempotents,
        origin="opposite",
        quiver=a.quiver,
        path_data=a.path_data,
        check=False,
    )


def quotient_by_idempotent_ideal(a: FDAlgebra, e_indices: Sequence[int]):
    """The quotient A / AeA for e the sum of the chosen stored idempotents.

    Returns (quotient algebra, projection Matrix dim_Q x dim_A).  The zero
    algebra (dim 0) is a legal result.
    """
    f = a.field
    cols: list[Vec] = []
    for ei in e_indices:
        e = a.idempotents[ei]
        for i in range(a.dim):
            xi = a.multiply(a.basis_vec(i), e)
            if not any(xi):
                continue
            for j in range(a.dim):
                v = a.multiply(xi, a.basis_vec(j))
                if any(v):
                    cols.append(v)
    return _quotient_algebra(a, cols, origin="quotient")


def _quotient_algebra(a: FDAlgebra, ideal_vecs: list[Vec], origin: str):
    f = a.field
    red = _SpanReducer(f, ideal_vecs, a.dim)
    free = red.free()
    dim = len(free)
    proj = red.quotient_coords

    def sect(c: int) -> Vec:
        return a.basis_vec(free[c])

    mult = [
        [proj(a.multiply(sect(i), sect(j))) for j in range(dim)] for i in range(dim)
    ]
    unit = proj(a.unit)
    idems = []
    for e in a.idempotents:
        pe = proj(e)
        if any(pe):
            idems.append(pe)
    labels = [a.basis_labels[k] for k in free]
    quot = FDAlgebra(
        f,
        labels,
        mult,
        unit,
        idems,
        origin=origin,
        check=dim > 0,
    )
    pm = Matrix.from_columns(f, dim, [proj(a.basis_vec(j)) for j in range(a.dim)])
    return quot, pm


def cartan_matrix(a: FDAlgebra) -> list[list[int]]:
    """Entry (i,j) = dim e_j A e_i: the multiplicity of the simple S_j in the
    projective P_i (for a path algebra, the number of paths i -> j)."""
    f = a.field
    r = len(a.idempotents)
    out = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            vecs = []
            for k in range(a.dim):
                v = a.multiply(
                    a.idempotents[j], a.multiply(a.basis_vec(k), a.idempotents[i])
                )
                if any(v):
                    vecs.append(v)
            out[i][j] = _SpanReducer(f, vecs, a.dim).dim()
    return out


# -- primitive idempotents ----------------------------------------------------


def semisimple_quotient(a: FDAlgebra):
    """(A/J, projection matrix); FieldTooSmall as in `FDAlgebra.radical_basis`."""
    rad = a.radical_basis()
    return _quotient_algebra(a, rad, origin="semisimple-quotient")


def primitive_idempotents(a: FDAlgebra, seed: int = 0, budget: int = 64) -> list[Vec]:
    """Complete list of primitive orthogonal idempotents summing to 1.

    Path-algebra origin returns the stored vertex idempotents.  Otherwise
    idempotents of A/J are found by CRT splitting of minimal polynomials of
    seeded-random elements and lifted along the radical filtration.
    """
    if a.origin == "path-algebra":
        return [list(e) for e in a.idempotents]
    if a.dim == 0:
        return []
    f = a.field
    ss, pm = semisimple_quotient(a)
    rng = random.Random(seed)
    blocks = _split_semisimple_unit(ss, rng, budget)
    # lift each block idempotent from A/J to A, keeping orthogonality
    sect = _section_for(a, pm)
    lifted: list[Vec] = []
    done = a.zero_vec()
    for k, eb in enumerate(blocks):
        if k == len(blocks) - 1:
            cand = [f.sub(u, v) for u, v in zip(a.unit, done)]
        else:
            raw = sect(eb)
            c = [f.sub(u, v) for u, v in zip(a.unit, done)]
            cand = a.multiply(a.multiply(c, raw), c)
            cand = _newton_idempotent(a, cand)
        if a.multiply(cand, cand) != cand:
            raise Inconclusive("idempotent lift failed to converge")
        lifted.append(cand)
        done = [f.add(u, v) for u, v in zip(done, cand)]
    if done != a.unit:
        raise Inconclusive("lifted idempotents do not sum to the unit")
    return lifted


def _section_for(a: FDAlgebra, pm: Matrix):
    """Right inverse of the quotient projection, as a map on coeff vectors."""

    def sect(v: Vec) -> Vec:
        sol = solve(pm, Matrix.column(a.field, v))
        return sol.col(0)

    return sect


def _newton_idempotent(a: FDAlgebra, e: Vec, max_iter: int = 64) -> Vec:
    f = a.field
    for _ in range(max_iter):
        e2 = a.multiply(e, e)
        if e2 == e:
            return e
        e3 = a.multiply(e2, e)
        e = [f.sub(f.mul(f.of(3), x2), f.mul(f.of(2), x3)) for x2, x3 in zip(e2, e3)]
    return e


def _split_semisimple_unit(ss: FDAlgebra, rng: random.Random, budget: int) -> list[Vec]:
    """Primitive orthogonal idempotent decomposition of 1 in a semisimple
    algebra, by repeated CRT splitting; Inconclusive when the budget runs out
    on a block that is not certifiably a division algebra."""
    work = [ss.unit]
    out: list[Vec] = []
    while work:
        e = work.pop()
        split = _try_split(ss, e, rng, budget)
        if split is None:
            out.append(e)
        else:
            work.extend(split)
    out.sort(key=lambda v: [str(x) for x in v])
    return out


def _corner_dim(ss: FDAlgebra, e: Vec) -> int:
    vecs = [ss.multiply(ss.multiply(e, ss.basis_vec(i)), e) for i in range(ss.dim)]
    return _SpanReducer(ss.field, vecs, ss.dim).dim()


def _try_split(ss: FDAlgebra, e: Vec, rng: random.Random, budget: int):
    """Split the idempotent e into two orthogonal pieces, or None if the
    corner eAe resists (certified division when its dim is 1)."""
    f = ss.field
    if _corner_dim(ss, e) == 1:
        return None
    corner = [
        ss.multiply(ss.multiply(e, ss.basis_vec(i)), e) for i in range(ss.dim)
    ]
    corner = [v for v in corner if any(v)]
    for trial in range(budget):
        x = ss.zero_vec()
        for v in corner:
            c = f.of(rng.randint(-3, 3))
            if c:
                x = [f.add(u, f.mul(c, w)) for u, w in zip(x, v)]
        e1 = _crt_idempotent(f, e, x, ss.multiply)
        if e1 is None:
            continue
        e2 = [f.sub(u, v) for u, v in zip(e, e1)]
        if any(e1) and any(e2):
            return [e1, e2]
    raise Inconclusive("block resisted idempotent splitting within budget")


def _crt_idempotent(f: FieldSpec, one: Vec, x: Vec, mul) -> Optional[Vec]:
    """An idempotent polynomial in x, split off by the minimal polynomial.

    Elements are coefficient vectors multiplied by `mul`, with unit `one`;
    the powers of x are one, mul(one, x), mul(mul(one, x), x), ...  When
    sympy's factor_list gives at least two factors, the result is the CRT
    element that is 1 modulo the first factor power and 0 modulo the rest,
    evaluated at x.  None when the minimal polynomial has degree <= 1 or a
    single irreducible factor, or when the value fails the idempotency check.
    """
    import warnings

    import sympy

    powers = [one]
    red = _SpanReducer(f, [one], len(one))
    cur = one
    while True:
        cur = mul(cur, x)
        if red.contains(cur):
            break
        powers.append(cur)
        red.add(cur)
    sol = solve(Matrix.from_columns(f, len(one), powers), Matrix.column(f, cur))
    coeffs = [f.neg(c) for c in sol.col(0)] + [f.one]  # monic
    if len(coeffs) <= 2:
        return None
    t = sympy.Symbol("t")
    if f.kind == "Q":
        poly = sympy.Poly(sum(sympy.Rational(c) * t**i
                              for i, c in enumerate(coeffs)), t)
    else:
        poly = sympy.Poly(sum(int(c) * t**i for i, c in enumerate(coeffs)),
                          t, modulus=f.p)
    with warnings.catch_warnings():
        # sympy's factor ordering compares modular integers internally
        warnings.simplefilter("ignore")
        facs = sympy.factor_list(poly)[1]
    if len(facs) < 2:
        return None
    m1 = facs[0][0] ** facs[0][1]
    rest = poly.quo(m1)
    # Bezout: u*m1 + v*rest = 1; then (v*rest)(x) is the wanted idempotent
    _, v, g = m1.gcdex(rest)
    if not g.is_one:
        return None  # factors not coprime in this domain: give up on x
    acc = [f.zero] * len(one)
    power = one
    for c in reversed((v * rest).rem(poly).all_coeffs()):
        cval = f.of(sympy.Rational(c)) if f.kind == "Q" else f.of(int(c))
        if cval:
            acc = [f.add(a, f.mul(cval, w)) for a, w in zip(acc, power)]
        power = mul(power, x)
    if mul(acc, acc) != acc:
        return None
    return acc
