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
* An algebra element is a dict {basis index: nonzero coefficient} (`Vec`).
  Like a `Matrix` row it stores no zero, and F_p coefficients are stored
  reduced, so equal elements are equal dicts.  The structure constants are
  stored the same way, ``mult[s] = {t: b_s b_t}`` with only the nonzero
  products, and no module but this one reads the table: the others
  multiply with `FDAlgebra.multiply`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from fdhom.errors import (BadRelation, FieldTooSmall, Inconclusive,
                          NotAdmissible)
from fdhom.linalg import QQ, FieldSpec, Matrix, kernel_basis, solve

Vec = dict  # an algebra element: {basis index: nonzero coefficient}

# random elements a randomized search tries before it raises Inconclusive
_RANDOM_TRIALS = 64


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


class Memo:
    """Values derived from an object and kept on it for reuse, written only
    through `memo`; algebras and modules are both kept this way."""

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict = {}

    def memo(self, key, build):
        """The value kept under key, computed by build() on first use."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]


def _memoized(method):
    """Keep a no-argument method's value in its object's memo, under the
    method's name."""

    @functools.wraps(method)
    def wrapper(self):
        return self.memo(method.__name__, lambda: method(self))

    return wrapper


class FDAlgebra(Memo):
    """A finite-dimensional algebra given by exact structure constants.

    `mult[s][t]` is the element b_s b_t, stored only when it is nonzero;
    `unit` and each of `idempotents` are elements.  Everything derived from
    the structure constants and kept for reuse (the opposite algebra,
    multiplication matrices, the radical, projective modules, ...) lives in
    the algebra's `Memo`.
    """

    def __init__(
        self,
        field: FieldSpec,
        basis_labels: list[str],
        mult: list[dict[int, Vec]],
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
        self.unit = unit
        self.idempotents = list(idempotents)
        self.origin = origin
        self.quiver = quiver
        self.relations = relations
        self.path_data = path_data  # path-algebra bookkeeping (basis walks etc.)
        super().__init__()
        if check:
            self._verify()

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
            self.mult[i].items()))

    def right_mult_basis(self, j: int) -> Matrix:
        """Matrix of m -> m * b_j on coefficient vectors."""
        return self.memo(("right_mult_basis", j), lambda: self._product_matrix(
            (k, row[j]) for k, row in enumerate(self.mult) if j in row))

    def _product_matrix(self, products) -> Matrix:
        """The matrix whose column k is the element x, for each pair (k, x)
        of products, and whose other columns are zero."""
        nz = [{} for _ in range(self.dim)]
        for k, x in products:
            for r, c in x.items():
                nz[r][k] = c
        return Matrix._of_nz(self.field, self.dim, self.dim, nz)

    def right_mult(self, x: Vec) -> Matrix:
        """Matrix of m -> m * x on coefficient vectors."""
        return _linear_combination(self.field, self.dim, self.dim, x,
                                   self.right_mult_basis)

    def multiply(self, x: Vec, y: Vec) -> Vec:
        return _sparse_product(self.field, self.mult, x, y)

    def basis_vec(self, i: int) -> Vec:
        return {i: self.field.one}

    # -- structure -------------------------------------------------------------

    def _verify(self):
        """Unit laws, the idempotent family and associativity on every triple
        of basis elements, all from the nonzero structure constants."""
        f, n = self.field, self.dim
        if n == 0:
            return
        for j in range(n):
            bj = {j: f.one}
            if self.multiply(self.unit, bj) != bj:
                raise ValueError(f"unit fails on the left of b_{j}")
            if self.multiply(bj, self.unit) != bj:
                raise ValueError(f"unit fails on the right of b_{j}")
        bad = _first_nonassociative_triple(f, self.mult)
        if bad is not None:
            raise ValueError(f"associativity fails on ({bad[0]},{bad[1]},{bad[2]})")
        for a, e in enumerate(self.idempotents):
            if self.multiply(e, e) != e:
                raise ValueError(f"idempotent {a} is not idempotent")
            for b, e2 in enumerate(self.idempotents):
                if a != b and self.multiply(e, e2):
                    raise ValueError(f"idempotents {a},{b} not orthogonal")
        if _combine(f, ((f.one, e) for e in self.idempotents)) != self.unit:
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
        # tr(L_i L_j) = tr(L_{b_i b_j}), and tr(L_r) sums the b_s-coefficients
        # of the products b_r b_s
        tr_l = [f.of(sum(x.get(s, 0) for s, x in row.items())) for row in self.mult]
        ker = kernel_basis(Matrix._of_nz(f, n, n, [
            {t: y for t, x in row.items()
             if (y := f.of(sum(c * tr_l[r] for r, c in x.items())))}
            for row in self.mult]))
        return ker.transpose().nz

    @_memoized
    def homogeneous_generators(self) -> Optional[list[tuple[int, int, Vec]]]:
        """Radical generators sandwiched between idempotents.

        Returns [(v, w, g)] with g = e_w * g * e_v such that the idempotents
        together with these generate the algebra, or None when A/J is not
        split with one-dimensional blocks (then the idempotents do not span
        A/J and no such homogeneous set exists).
        """
        rad = self.radical_basis()
        if self.dim - len(rad) != len(self.idempotents):
            return None
        pieces: list[tuple[int, int, Vec]] = []
        for g in rad:
            for w, ew in enumerate(self.idempotents):
                wg = self.multiply(ew, g)
                if not wg:
                    continue
                for v, ev in enumerate(self.idempotents):
                    piece = self.multiply(wg, ev)
                    if piece:
                        pieces.append((v, w, piece))
        red = _SpanReducer(self.field, [self.multiply(x, y) for x in rad
                                        for y in rad], self.dim)
        return [(v, w, g) for v, w, g in pieces if red.add(g)]

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

    def __repr__(self):
        return f"FDAlgebra(dim={self.dim}, origin={self.origin}, field={self.field})"


def _linear_combination(f: FieldSpec, rows: int, cols: int, coeffs: dict,
                        mat_of) -> Matrix:
    """sum_i c * mat_of(i) over the pairs (i, c) of coeffs, nonzero canonical
    coefficients as in an element, for rows x cols matrices.  A single
    coefficient 1 (a basis vector, such as a vertex or an arrow of a path
    algebra) gives its matrix itself, not a copy: matrices are not changed
    after build."""
    if len(coeffs) == 1:
        (i, c), = coeffs.items()
        if c == f.one:
            return mat_of(i)
    zero = f.zero
    out = [{} for _ in range(rows)]
    for i, c in coeffs.items():
        for row, mrow in zip(out, mat_of(i).nz):
            for s, v in mrow.items():
                x = f.add(row.get(s, zero), f.mul(c, v))
                if x:
                    row[s] = x
                else:
                    del row[s]
    return Matrix._of_nz(f, rows, cols, out)


def _combine(f: FieldSpec, terms) -> Vec:
    """The element sum c * x over the pairs (c, x) of terms (a coefficient c
    may be zero)."""
    out: Vec = {}
    for c, x in terms:
        for r, v in x.items():
            y = f.add(out.get(r, f.zero), f.mul(c, v))
            if y:
                out[r] = y
            else:
                out.pop(r, None)
    return out


class _SpanReducer:
    """Row-echelon store of sparse vectors {index: nonzero value}, each row
    scaled to 1 at its pivot, its least index; reduces newcomers modulo the
    span."""

    def __init__(self, field: FieldSpec, vecs, n: int):
        self.field = field
        self.n = n
        self.rows: list[dict] = []
        self.pivot_of_row: list[int] = []  # ascending
        for v in vecs:
            self.add(v)

    def add(self, v: dict) -> bool:
        """Reduce and insert; returns True if the span grew."""
        w = self.reduce(v)
        if not w:
            return False
        f = self.field
        p = min(w)
        inv = f.inv(w[p])
        k = bisect.bisect(self.pivot_of_row, p)
        self.rows.insert(k, {j: f.mul(inv, y) for j, y in w.items()})
        self.pivot_of_row.insert(k, p)
        return True

    def reduce(self, v: dict) -> dict:
        f = self.field
        w = dict(v)
        if not w:  # products offered to a span are often zero
            return w
        for row, p in zip(self.rows, self.pivot_of_row):
            c = w.get(p)
            if c is not None:
                for j, y in row.items():
                    x = f.sub(w.get(j, 0), f.mul(c, y))
                    if x:
                        w[j] = x
                    else:
                        del w[j]
        return w

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def dim(self) -> int:
        return len(self.rows)

    def free(self) -> list[int]:
        """The non-pivot positions, in order: coordinates modulo the span."""
        pivots = set(self.pivot_of_row)
        return [k for k in range(self.n) if k not in pivots]

    def quotient_coords(self, v: dict) -> dict:
        """Coordinates of v modulo the span, {position in `free`: value}
        (after `reduce`, no pivot position is left)."""
        at = {k: i for i, k in enumerate(self.free())}
        return {at[k]: x for k, x in self.reduce(v).items()}


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
    f, n = a.field, a.dim
    rows = []  # lambda_i as {b: lambda_i(b_b)}
    for e in a.idempotents:
        corner = [a.multiply(a.multiply(e, {m: f.one}), e)
                  for m in range(n)]  # P_i b_m
        entries = [(m, l, v) for m, pm in enumerate(corner) for l, v in pm.items()]
        d = f.of(sum(v for m, l, v in entries if l == m))
        if d:  # tr(L_b P_i) sums the b_m-coefficients of b P_i b_m
            acc: dict = {}
            for m, l, v in entries:  # row m of R_l holds those of b b_l
                for b, x in a.right_mult_basis(l).nz[m].items():
                    acc[b] = acc.get(b, 0) + v * x
            rows.append({b: y for b, t in acc.items() if (y := f.div(f.of(t), d))})
        else:
            res = [_residue(a, e, pm) for pm in corner]
            if None in res:
                return None
            rows.append({b: c for b, c in enumerate(res) if c})
    pi = Matrix._of_nz(f, len(rows), n, rows)
    ker = kernel_basis(pi)
    if ker.cols != n - len(rows):
        return None
    cols = pi.transpose().nz  # cols[m][i] = lambda_i(b_m)
    for k in range(n):
        for l in range(n):
            got = _combine(f, ((c, cols[m]) for m, c in a.mult[k].get(l, {}).items()))
            want = {i: f.mul(v, rows[i][l]) for i, v in cols[k].items() if l in rows[i]}
            if got != want:
                return None
    rad = ker.transpose().nz
    power = rad
    while power:  # J^(k+1) = J^k J, strictly smaller while nonzero
        red = _SpanReducer(f, [a.multiply(x, y) for x in power for y in rad], n)
        if red.dim() >= len(power):
            return None
        power = red.rows
    return rad


def _first_nonassociative_triple(f: FieldSpec, mult) -> Optional[tuple[int, int, int]]:
    """The least (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), or None, from
    the structure constants mult of `FDAlgebra`.

    For each middle index j, (b_i b_j) b_k is summed over the pairs with
    b_i b_j != 0 and b_i (b_j b_k) over those with b_j b_k != 0; a triple
    that neither reaches is zero on both sides.
    """
    n = len(mult)
    left_of = [[] for _ in range(n)]  # left_of[s]: the pairs (i, b_i b_s)
    for i, row in enumerate(mult):
        for s, x in row.items():
            left_of[s].append((i, x))
    p = f.p if f.kind == "Fp" else None
    bad = []
    for j in range(n):
        assoc: dict = {}  # (i, k) -> (b_i b_j) b_k - b_i (b_j b_k)
        for i, x in left_of[j]:
            for r, c in x.items():
                for k, vec in mult[r].items():
                    acc = assoc.setdefault((i, k), {})
                    for t, d in vec.items():
                        acc[t] = acc.get(t, 0) + c * d
        for k, x in mult[j].items():
            for s, c in x.items():
                for i, vec in left_of[s]:
                    acc = assoc.setdefault((i, k), {})
                    for t, d in vec.items():
                        acc[t] = acc.get(t, 0) - c * d
        bad += [(i, j, k) for (i, k), acc in assoc.items()
                if any(x % p if p else x for x in acc.values())]
    return min(bad, default=None)


def _sparse_product(f: FieldSpec, mult, x: Vec, y: Vec) -> Vec:
    """x * y from the structure constants mult of `FDAlgebra`."""
    out: dict = {}
    for s, c in x.items():
        row = mult[s]
        for t, d in y.items():
            prod = row.get(t)
            if prod is not None:
                cd = f.mul(c, d)
                for r, v in prod.items():
                    out[r] = f.add(out.get(r, 0), f.mul(cd, v))
    return {r: c for r, c in out.items() if c}


def _residue(a: FDAlgebra, e: Vec, x: Vec):
    """The c in F_p with x - c e nilpotent, or None when there is none.  A
    nilpotent y has y^dim = 0, so y is squared until the exponent passes
    dim."""
    f = a.field
    for c in range(f.p) if x else [f.zero]:
        y = _combine(f, [(f.one, x), (f.neg(c), e)])
        for _ in range(a.dim.bit_length()):
            y = a.multiply(y, y)
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
        """All u*r*w (as {path index: coeff}, terms of length > n dropped;
        some may be zero)."""
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
                    # longer terms lie in J^{N}: separately in the ideal
                    out.append(_combine(field, [
                        (c, {path_index[(u.source, u.arrows + parrows + w.arrows)]:
                             field.one})
                        for c, parrows in terms
                        if len(u.arrows) + len(parrows) + len(w.arrows) <= n]))
        return out

    found_n = None
    for n in range(2, length_cap + 1):
        while len(layers) <= n:
            grow_layer()
        if not layers[n]:
            found_n = n
            break
        span = _SpanReducer(field, ideal_elements_upto(n), len(paths))
        if all(span.contains({pi: field.one}) for pi in layers[n]):
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
    span = _SpanReducer(field, [{pos_of[pi]: c for pi, c in elt.items()}
                                for elt in ideal_elements_upto(found_n - 1)],
                        len(short))
    basis_paths = [short[k] for k in span.free()]
    dim = len(basis_paths)

    def label(p: _Path) -> str:
        if not p.arrows:
            return f"e({q.vertices[p.source]})"
        return "*".join(arrows[ai][0] for ai in p.arrows)

    labels = [label(paths[pi]) for pi in basis_paths]
    def element(p_source: int, p_arrows: tuple) -> Vec:
        """The path, read modulo the ideal in the basis."""
        return span.quotient_coords({pos_of[path_index[(p_source, p_arrows)]]:
                                     field.one})

    # multiplication: product(x, y) = walk(y) followed by walk(x)
    mult: list[dict[int, Vec]] = [{} for _ in range(dim)]
    for i, pi in enumerate(basis_paths):
        p = paths[pi]
        for j, pj in enumerate(basis_paths):
            r = paths[pj]
            if r.target == p.source and len(r.arrows) + len(p.arrows) < found_n:
                prod = element(r.source, r.arrows + p.arrows)
                if prod:
                    mult[i][j] = prod
    idempotents = [element(v, ()) for v in range(nv)]
    unit = _combine(field, ((field.one, e) for e in idempotents))

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


# -- derived algebras ---------------------------------------------------------


def opposite(a: FDAlgebra) -> FDAlgebra:
    """Same space, transposed multiplication, same idempotents."""
    mult: list[dict[int, Vec]] = [{} for _ in range(a.dim)]
    for s, row in enumerate(a.mult):
        for t, x in row.items():
            mult[t][s] = x
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
    span: list[Vec] = []
    for ei in e_indices:
        for i in range(a.dim):
            xi = a.multiply(a.basis_vec(i), a.idempotents[ei])
            if xi:
                span += [a.multiply(xi, a.basis_vec(j)) for j in range(a.dim)]
    return _quotient_algebra(a, span, origin="quotient")


def _quotient_algebra(a: FDAlgebra, ideal_vecs: list[Vec], origin: str):
    f = a.field
    red = _SpanReducer(f, ideal_vecs, a.dim)
    free = red.free()
    dim = len(free)
    proj = red.quotient_coords
    mult: list[dict[int, Vec]] = [{} for _ in range(dim)]
    for i, s in enumerate(free):
        for j, t in enumerate(free):
            x = proj(a.mult[s].get(t, {}))
            if x:
                mult[i][j] = x
    idems = [x for x in map(proj, a.idempotents) if x]
    labels = [a.basis_labels[k] for k in free]
    quot = FDAlgebra(f, labels, mult, proj(a.unit), idems, origin=origin,
                     check=dim > 0)
    pm = Matrix.from_columns(f, dim, [proj(a.basis_vec(j)) for j in range(a.dim)])
    return quot, pm


# -- idempotents ----------------------------------------------------------------


def primitive_idempotents(a: FDAlgebra, seed: int = 0) -> list[Vec]:
    """Complete list of primitive orthogonal idempotents summing to 1.

    Path-algebra origin returns the stored vertex idempotents.  Otherwise the
    unit is split by `_split_idempotent` in the corners eAe, written as left
    multiplication matrices: a split L(e1) of L(e) gives the orthogonal
    idempotents e1 = L(e1)·1 and e - e1.  An e is primitive when
    dim eAe - dim eJe = 1 (FieldTooSmall as in `FDAlgebra.radical_basis`).
    The pieces are sorted by the strings of their coefficients, zeros
    included.
    """
    if a.origin == "path-algebra":
        return [dict(e) for e in a.idempotents]
    f, n = a.field, a.dim

    def corner(e: Vec, xs) -> list[Vec]:
        """A basis of e·span(xs)·e, picked from the products e x e."""
        red = _SpanReducer(f, (), n)
        return [y for x in xs if red.add(y := a.multiply(a.multiply(e, x), e))]

    unit = Matrix.from_columns(f, n, [a.unit])
    work = [a.unit] if n else []
    out: list[Vec] = []
    while work:
        e = work.pop()
        basis = corner(e, map(a.basis_vec, range(n)))
        split = _split_idempotent(
            [_linear_combination(f, n, n, x, a.left_mult_basis) for x in basis],
            _linear_combination(f, n, n, e, a.left_mult_basis),
            lambda: len(basis) - len(corner(e, a.radical_basis())) == 1, seed)
        if split is None:
            out.append(e)
        else:
            e1 = (split @ unit).transpose().nz[0]
            work += [e1, _combine(f, [(f.one, e), (f.neg(f.one), e1)])]
    out.sort(key=lambda v: [str(v.get(i, f.zero)) for i in range(n)])
    return out


def _split_idempotent(cands: list[Matrix], one: Matrix, local, seed: int):
    """An idempotent in the algebra of square matrices spanned by cands, with
    unit `one`, that is neither 0 nor `one`; None when there is none.

    Over a small F_p every combination is tried.  Otherwise each candidate is
    tried first, then `local()` (is the algebra local with residue field k?)
    is asked once, then seeded random combinations; a candidate gives itself
    when it is idempotent, else `_crt_idempotent`.  Inconclusive when
    `_RANDOM_TRIALS` trials split nothing off an algebra not shown local.
    """
    f, n = one.field, one.rows
    if f.kind == "Fp" and f.p ** len(cands) <= 4096:
        for m in _fp_combinations(f, cands):
            if m.is_zero() or m == one:
                continue
            if m @ m == m:
                return m
        return None  # exhaustive: no nontrivial idempotent exists
    rng = random.Random(seed)
    for trial in range(_RANDOM_TRIALS):
        if trial < len(cands):
            h = cands[trial]
        else:
            if trial == len(cands) and local():
                return None  # a local algebra has no idempotent but 0 and 1
            h = _linear_combination(f, n, n, _random_coeffs(f, rng, len(cands), 3),
                                    cands.__getitem__)
        eps = h if h @ h == h else _crt_idempotent(one, h)
        if eps is not None and not eps.is_zero() and eps != one:
            return eps
    if _RANDOM_TRIALS <= len(cands) and local():
        return None
    raise Inconclusive(
        f"no idempotent split off in {_RANDOM_TRIALS} trials")


def _fp_combinations(f, mats: list[Matrix]):
    """Every combination of mats over F_p, coefficient tuples in
    itertools.product order."""
    rows, cols = mats[0].shape
    for coeffs in itertools.product(range(f.p), repeat=len(mats)):
        yield _linear_combination(f, rows, cols,
                                  {i: c for i, c in enumerate(coeffs) if c},
                                  mats.__getitem__)


def _random_coeffs(f, rng: random.Random, n: int, bound: int) -> dict:
    """Coefficients for n matrices drawn from [-bound, bound], one draw each,
    as the nonzero pairs {i: c} that `_linear_combination` takes."""
    return {i: c for i in range(n) if (c := f.of(rng.randint(-bound, bound)))}


def _crt_idempotent(one: Matrix, x: Matrix) -> Optional[Matrix]:
    """An idempotent polynomial in the square matrix x, split off by its
    minimal polynomial.

    `one` is the unit of an algebra of matrices that holds x, and the powers
    of x are one, one @ x, one @ x @ x, ...  When sympy's factor_list gives at
    least two factors, the result is the CRT element that is 1 modulo the
    first factor power and 0 modulo the rest, evaluated at x.  None when the
    minimal polynomial has degree <= 1 or a single irreducible factor, or
    when the value fails the idempotency check.
    """
    import warnings

    import sympy

    f, rows, cols = one.field, one.rows, one.cols
    powers = [one]
    flat = [one.flatten()]
    red = _SpanReducer(f, flat, rows * cols)
    cur = one
    while True:
        cur = cur @ x
        v = cur.flatten()
        if not red.add(v):
            break
        powers.append(cur)
        flat.append(v)
    sol = solve(Matrix.from_columns(f, rows * cols, flat),
                Matrix.from_columns(f, rows * cols, [v]))
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
    rem = reversed((v * rest).rem(poly).all_coeffs())  # constant term first
    terms = {i: y for i, c in enumerate(rem)
             if (y := f.of(sympy.Rational(c) if f.kind == "Q" else int(c)))}
    acc = _linear_combination(f, rows, cols, terms, powers.__getitem__)
    if acc @ acc != acc:
        return None
    return acc
