"""Ext groups, homological dimensions, transpose and AR translates.

Every quantity is exact.  Sup-type invariants (pd, id, gl.dim, dom.dim,
grade) return AtLeastCap when the computation is cut off; a fixed-degree
Ext dimension is always computed exactly by resolving far enough.
Flat dimension equals projective dimension throughout (finite-dimensional
modules over finite-dimensional algebras), so pd is used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from fdhom.algebra import FDAlgebra
from fdhom.errors import CertificateFailed, ResolutionTruncated
from fdhom.linalg import Matrix
from fdhom.modules import (
    Module,
    ModuleMap,
    _from_generators,
    _map_span,
    _summand_element,
    cokernel,
    direct_sum,
    dual,
    hom_basis,
    hom_dim,
    injective_envelope,
    injective_module,
    left_approximation,
    min_proj_resolution,
    omega,
    projective_cover,
    projective_injective_vertices,
    projective_module,
    regular_module,
    simple_module,
    zero_module,
)
from fdhom.results import AtLeastCap


def _hom_complex_rank(homs, d: ModuleMap, y: Module) -> int:
    """Rank of Hom(d, Y) on span(homs) ⊆ Hom(d.target, Y): the span of the
    composites d;h."""
    return _map_span(y.algebra.field, y.dim, d.source.dim,
                     [h.matrix @ d.matrix for h in homs]).dim()


def ext_dim(x: Module, y: Module, i: int) -> int:
    """dim Ext^i(x, y), computed from a minimal projective resolution of x.

    Exact for every finite i: the resolution is extended to degree i+1.
    The value is kept in x's memo under y itself (modules are immutable and
    hash by identity).
    """
    if i < 0:
        raise ValueError("negative Ext degree")
    return x.memo(("ext", y, i), lambda: _ext_dim_uncached(x, y, i))


def _ext_dim_uncached(x: Module, y: Module, i: int) -> int:
    if i == 0:
        return hom_dim(x, y)
    if x.dim == 0 or y.dim == 0:
        return 0
    res = min_proj_resolution(x, i + 1)
    if res.length < i:
        return 0
    homs_i = hom_basis(res.modules[i], y)
    if not homs_i:
        return 0
    r_in = _hom_complex_rank(hom_basis(res.modules[i - 1], y), res.maps[i - 1], y)
    r_out = _hom_complex_rank(homs_i, res.maps[i], y) if res.length > i else 0
    return len(homs_i) - r_in - r_out


def ext_dim_via_injectives(x: Module, y: Module, i: int) -> int:
    """The same dimension through the dual route (coresolution of y)."""
    return ext_dim(dual(y), dual(x), i)


@dataclass
class ExtTable:
    x: Module
    y: Module
    dims: list[int]
    cap: int
    truncated: bool


def ext_table(x: Module, y: Module, cap: int) -> ExtTable:
    res = min_proj_resolution(x, cap + 1)
    dims = [ext_dim(x, y, i) for i in range(cap + 1)]
    return ExtTable(x, y, dims, cap, truncated=res.truncated_at is not None)


def pd(m: Module, cap: int):
    """Projective dimension, or AtLeastCap when the resolution is cut off.

    Known injective sums reduce to cached per-vertex values."""
    if m.dim == 0:
        return 0
    if m.inj_summands is not None and m.inj_summands:
        vals = [_pd_injective_at(m.algebra, v, cap) for v in set(m.inj_summands)]
        if any(isinstance(v, AtLeastCap) for v in vals):
            return AtLeastCap(cap)
        return max(vals)
    res = min_proj_resolution(m, cap)
    if res.truncated_at is not None:
        return AtLeastCap(cap)
    return res.length


def _pd_injective_at(a: FDAlgebra, v: int, cap: int):
    def build():
        res = min_proj_resolution(injective_module(a, v), cap)
        return AtLeastCap(cap) if res.truncated_at is not None else res.length

    return a.memo(("injective_pd", v, cap), build)


def injective_dim(m: Module, cap: int):
    """Injective dimension = pd of the dual over the opposite algebra."""
    return pd(dual(m), cap)


def gldim(a: FDAlgebra, cap: int):
    """Global dimension: max of pd over the simple modules."""
    best = 0
    for v in range(len(a.idempotents)):
        p = pd(simple_module(a, v), cap)
        if isinstance(p, AtLeastCap):
            return p
        best = max(best, p)
    return best


def injective_coresolution_terms(a: FDAlgebra, n_terms: int) -> list[Module]:
    """First terms I_0, ..., I_{n_terms-1} of the minimal injective
    coresolution of the regular module (zero modules once it stops).

    I_k is the injective envelope of the cosyzygy D Ω^k D(A), read off the
    Ω links of D(A) over A^op (`modules.omega`).  D(A) is kept on the
    regular module, so each cover and kernel of the chain is built once per
    algebra, however often or however far the terms are asked for."""
    terms, cur = [], dual(regular_module(a))
    for k in range(n_terms):
        if k:
            cur, _ = omega(cur)
        if cur.dim == 0:  # no Ω link past the first zero module
            break
        terms.append(injective_envelope(dual(cur))[0])
    return terms + [zero_module(a)] * (n_terms - len(terms))


def _ends_after(a: FDAlgebra, terms: Sequence[Module]) -> bool:
    """Whether the coresolution of A stops after `terms`, its first terms:
    the cosyzygy after them has dimension dim I_{n-1} - dim I_{n-2} + ...
    ± dim A, by exactness, so its next term needs no cover."""
    rest = a.dim
    for term in terms:
        rest = term.dim - rest
    return rest == 0


def domdim_report(a: FDAlgebra, cap: int):
    """(value, determinate): dominant dimension as the number of leading
    projective terms of the minimal injective coresolution of the regular
    module.  AtLeastCap with determinate=True means the coresolution ended
    all-projective (certified infinite); determinate=False means truncated."""
    pinj = projective_injective_vertices(a)
    for k in range(cap):
        term = injective_coresolution_terms(a, k + 1)[k]
        if term.dim == 0:
            return AtLeastCap(cap), True  # ended all-projective
        if not all(v in pinj for v in term.inj_summands):
            return k, True
    return AtLeastCap(cap), _ends_after(a, injective_coresolution_terms(a, cap))


def domdim(a: FDAlgebra, cap: int):
    """Dominant dimension; AtLeastCap covers both the certified-infinite and
    the truncated case (see domdim_report to distinguish)."""
    return domdim_report(a, cap)[0]


def _check_mn(m: int, n: int, cap: int) -> None:
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if cap < m:
        raise ResolutionTruncated("cap below the pd threshold m")


def mn_condition(terms: Sequence[Module], m: int, n: int) -> bool:
    """pd I_i < m for the first n of the coresolution terms `terms` (from
    `injective_coresolution_terms`, at least n of them).

    pd < m is decided by a resolution of length m - 1, so no cap is needed;
    `two_sided_mn` and `dim_report` check theirs before asking."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if len(terms) < n:
        raise ValueError("fewer coresolution terms than n")
    return not any(isinstance(pd(term, m - 1), AtLeastCap)
                   for term in terms[:n])


def two_sided_mn(a: FDAlgebra, m: int, n: int, cap: int) -> bool:
    _check_mn(m, n, cap)
    return (mn_condition(injective_coresolution_terms(a, n), m, n)
            and mn_condition(injective_coresolution_terms(a.op, n), m, n))


def n_gorenstein(terms: Sequence[Module], n: int) -> bool:
    """pd I_i <= i for i < n along the coresolution terms `terms` (from
    `injective_coresolution_terms`, at least n of them).

    pd <= i is decided by a resolution of length i, so no cap is needed."""
    if len(terms) < n:
        raise ValueError("fewer coresolution terms than n")
    return not any(isinstance(pd(term, i), AtLeastCap)
                   for i, term in enumerate(terms[:n]))


def grade(m: Module, cap: int):
    """min { i : Ext^i(m, A) != 0 }, AtLeastCap when none found below cap."""
    if m.dim == 0:
        return AtLeastCap(cap)
    reg = regular_module(m.algebra)
    for i in range(cap + 1):
        if ext_dim(m, reg, i):
            return i
    return AtLeastCap(cap)


# -- transpose and AR translates -------------------------------------------------


def star_module(p: Module) -> Module:
    """Hom(P, A) as a left module over the opposite algebra.

    P must be a known sum of projectives ⊕_c A e_{v_c} (`proj_summands`).
    Then Hom(P, A) = ⊕_c e_{v_c} A, the sum of the projectives of A^op at the
    same vertices: a map h corresponds to the images h(e_{v_c}) of the
    generators, and b acts on h by post-composition with right
    multiplication by b, as b acts on e_{v_c} A over A^op.
    """
    if p.proj_summands is None:
        raise ValueError("star_module needs a known sum of projectives")
    a = p.algebra
    if not p.proj_summands:
        return zero_module(a.op)
    return direct_sum([projective_module(a.op, v) for v, _ in p.proj_summands])[0]


def star_map(d: ModuleMap) -> ModuleMap:
    """Hom(d, A): Hom(P_0, A) -> Hom(P_1, A), h -> d;h, for a map d: P_1 -> P_0
    of known sums of projectives, between the star modules over A^op.

    d sends the generator of summand c' of P_1 to elements x_{cc'} of
    e_{v'} A e_{v_c} in the summands c of P_0, so Hom(d, A) sends the
    generator e_{v_c} of summand c of P_0^* to x_{cc'} in each summand c' of
    P_1^*, where its coordinates are those of x_{cc'} acting on that summand's
    generator e_{v'} over A^op.  No hom basis and no solve: the map is
    certified by checking that it intertwines the generators' actions."""
    p0, p1 = d.target, d.source
    s0, s1 = star_module(p0), star_module(p1)
    f = p0.algebra.field
    gens1 = [Matrix.column(f, g) for _, g in s1.proj_summands]
    imgs = [(d.matrix @ Matrix.column(f, g)).col(0) for _, g in p1.proj_summands]
    images = []
    for c in range(len(p0.proj_summands)):
        col = Matrix(f, s1.dim, 1)
        for img, gen in zip(imgs, gens1):
            x = _summand_element(p0, img, c)
            if x:
                col = col + s1.act_vec(x) @ gen
        images.append(col)
    star = _from_generators(s0, s1, images)[0]
    try:
        star._verify()
    except ValueError:
        raise CertificateFailed("starred differential escapes Hom(P, A)")
    return star


def transpose(m: Module) -> Module:
    """Tr m = coker(P_0^* -> P_1^*) over the opposite algebra."""
    if m.dim == 0:
        return zero_module(m.algebra.op)
    res = min_proj_resolution(m, 1)
    if res.length == 0:
        return zero_module(m.algebra.op)
    tr, _ = cokernel(star_map(res.maps[0]))
    return tr


def tau(m: Module) -> Module:
    """AR translate D Tr.  Tr of a minimal presentation sends projective
    summands to 0, so tau(P ⊕ N) ≅ tau N."""
    return dual(transpose(m))


def tau_inv(m: Module) -> Module:
    """Inverse translate Tr D; tau_inv(I ⊕ N) ≅ tau_inv N for injective I."""
    return transpose(dual(m))


def tau_n(m: Module, n: int) -> Module:
    """The n-AR translate tau_n = tau Ω^{n-1}, along m's Ω links
    (`modules.omega`).  No projective summand is split off: tau(P ⊕ N) ≅
    tau N, so tau_n(m, n) ≅ tau syzygy(m, n - 1)."""
    if n < 1:
        raise ValueError("n >= 1")
    for _ in range(n - 1):
        m, _ = omega(m)
    return tau(m)


def tau_n_inv(m: Module, n: int) -> Module:
    """The inverse n-AR translate tau_n^- = tau^- Ω^{-(n-1)} = D tau_n D,
    along the Ω links of D m."""
    return dual(tau_n(dual(m), n))


# -- stable and costable hom dimensions -------------------------------------------


def stable_hom_dim(x: Module, y: Module) -> int:
    """dim Hom(x,y) minus maps factoring through a projective (equivalently
    through the projective cover of y)."""
    homs = hom_basis(x, y)
    if not homs:
        return 0
    p, q = projective_cover(y)
    return len(homs) - _map_span(x.algebra.field, y.dim, x.dim, [
        q.matrix @ u.matrix for u in hom_basis(x, p)]).dim()


def costable_hom_dim(x: Module, y: Module,
                     inj_class: Optional[Sequence[Module]] = None) -> int:
    """dim Hom(x,y) minus maps factoring through the injective class.

    The class defaults to add(DA) (ordinary injectives); pass the
    indecomposable summands of a cotilting module T to work in add(T).
    """
    homs = hom_basis(x, y)
    if not homs:
        return 0
    if inj_class is None:
        env, mono = injective_envelope(x)
    else:
        mono, _ = left_approximation(x, list(inj_class))
        env = mono.target
    return len(homs) - _map_span(x.algebra.field, y.dim, x.dim, [
        v.matrix @ mono.matrix for v in hom_basis(env, y)]).dim()


@dataclass
class DimReport:
    algebra: FDAlgebra
    gldim: object
    domdim: object
    domdim_op: object
    mn_table: dict
    gorenstein_profile: object
    indeterminate: bool  # some verdict was genuinely cut off at the cap


def dim_report(a: FDAlgebra, cap: int, mn_bound: int = 4) -> DimReport:
    """Collect the headline invariants for reports and the CLI.

    The (m, n) table reads A's coresolution terms up to mn_bound, and those
    of A^op as far as the pairs that hold on A's side reach (the other pairs
    fail on A and never read A^op).  The Gorenstein profile asks for n terms
    at degree n, and dom.dim for one more term at a time, so no term is
    built past where the per-pair route stops; every request walks the same
    kept Ω links of D(A).  The regular module and the injectives are one
    object per algebra, so the projective-injective vertices reuse the
    covers that the pd of each injective built."""
    indet = False
    table = dict.fromkeys((m, n) for m in range(1, mn_bound + 1)
                          for n in range(1, mn_bound + 1))  # None: cap < m
    terms = injective_coresolution_terms(a, mn_bound) \
        if min(cap, mn_bound) >= 1 else None
    for m, n in table:
        if cap < m:
            indet = True
        else:
            table[(m, n)] = mn_condition(terms, m, n)
    reach = max((n for (_, n), ok in table.items() if ok), default=0)
    terms_op = injective_coresolution_terms(a.op, reach) if reach else []
    for (m, n), ok in table.items():
        if ok:
            table[(m, n)] = mn_condition(terms_op, m, n)
    profile: object = 0
    for n in range(1, cap + 1):
        if not n_gorenstein(injective_coresolution_terms(a, n), n):
            profile = n - 1
            break
    else:
        profile = AtLeastCap(cap)
        # certified only when the coresolution stops: id A <= cap
        if not _ends_after(a, injective_coresolution_terms(a, cap + 1)):
            indet = True
    gd = gldim(a, cap)
    if isinstance(gd, AtLeastCap):
        indet = True
    dd, dd_det = domdim_report(a, cap)
    ddo, ddo_det = domdim_report(a.op, cap)
    if not dd_det or not ddo_det:
        indet = True
    return DimReport(a, gd, dd, ddo, table, profile, indet)
