"""Higher Auslander correspondence machinery: triples, the bijection between
triples and presented endomorphism algebras, extension-pair and
superprojective certificates, and the two exhaustive searches
(representation dimension, orthogonal-subcategory bound).

Equivalence of triples is certified through the explicit evaluation
functors, never by a general algebra-isomorphism search.

α⁻¹ rebuilds Λ as End(Q) for Q = ν⁻I.  On add(DΓ) the inverse Nakayama
functor sends the injective D(e_vΓ) to the projective Γe_v at the same
vertex, so Q is read off the bookkeeping: `projective_vertices` gives the
vertices of D I from its minimal projective cover over Γ^op, and Q is the
sum of the projectives Γe_v at those vertices.  The same test certifies that
P is projective and finds the projective generators in α.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from fdhom.algebra import FDAlgebra, _combine, quotient_by_idempotent_ideal
from fdhom.endalg import (
    EndData,
    _evaluation,
    _induced_map,
    end_algebra,
    module_over_end,
)
from fdhom.errors import (CertificateFailed, IncompleteEnumeration,
                          PreconditionFailed)
from fdhom.homology import (
    ext_dim,
    gldim,
    grade,
    injective_dim,
    pd,
    star_map,
    two_sided_mn,
)
from fdhom.linalg import Matrix, invert, offsets
from fdhom.modules import (
    Module,
    _approximation_chain,
    _nontrivial_idempotent_endo,
    cokernel,
    decompose,
    direct_sum,
    dual,
    hom_coords,
    injective_module,
    iso,
    min_proj_resolution,
    projective_module,
    projective_sum,
    projective_vertices,
    projective_vertices_among,
    regular_module,
    simple_module,
    zero_module,
)
from fdhom.results import AtLeastCap
from fdhom.subcats import (
    CotiltingCert,
    is_cotilting,
    maximal_ortho_enumerative,
    maximal_ortho_homological,
    member_of,
    ortho_check,
)


@dataclass
class AuslanderTriple:
    lam: FDAlgebra
    gens: list[Module]
    t: Module
    m: int
    n: int
    quasi: bool
    cotilting: CotiltingCert
    maximality: object
    valid: bool
    reason: str = ""


def verify_triple(lam: FDAlgebra, gens: Sequence[Module], t: Module,
                  m: int, n: int, quasi: bool = False, cap: int = 16,
                  ind_b: Optional[Sequence[Module]] = None,
                  seed: int = 0) -> AuslanderTriple:
    """Certify (Λ, M, T): T is m-cotilting and add(M) is a maximal
    (n-1)-orthogonal subcategory of ^⊥T (or merely (n-1)-orthogonal
    containing Λ and T for the quasi variant)."""
    gens = list(gens)
    cert = is_cotilting(t, m, cap, seed=seed)
    if not cert.valid:
        return AuslanderTriple(lam, gens, t, m, n, quasi, cert, None, False,
                               "cotilting certificate failed")
    ok, wit = ortho_check(gens, n - 1)
    if not ok:
        return AuslanderTriple(lam, gens, t, m, n, quasi, cert, None, False,
                               f"generators not (n-1)-orthogonal: {wit}")
    present = projective_vertices_among(gens)
    for v in range(len(lam.idempotents)):
        if v not in present:
            return AuslanderTriple(lam, gens, t, m, n, quasi, cert, None,
                                   False, f"projective {v} not in add M")
    for s, _ in decompose(t, seed=seed).summands:
        if member_of(gens, s) is None:
            return AuslanderTriple(lam, gens, t, m, n, quasi, cert, None,
                                   False, "cotilting summand not in add M")
    for g in gens:
        if not all(ext_dim(g, t, i) == 0 for i in range(1, m + 1)):
            return AuslanderTriple(lam, gens, t, m, n, quasi, cert, None,
                                   False, "a generator leaves ^⊥T")
    if quasi:
        return AuslanderTriple(lam, gens, t, m, n, quasi, cert, "quasi", True)
    if ind_b is not None:
        perp = [z for z in ind_b
                if all(ext_dim(z, t, i) == 0 for i in range(1, m + 1))]
        verdict, wit = maximal_ortho_enumerative(gens, n, perp)
        if not verdict:
            return AuslanderTriple(lam, gens, t, m, n, quasi, cert,
                                   ("enumerative", wit), False,
                                   "not maximal (witness found)")
        return AuslanderTriple(lam, gens, t, m, n, quasi, cert,
                               ("enumerative", None), True)
    hv = maximal_ortho_homological(lam, gens, t, m, n, cap, seed=seed)
    valid = bool(hv.verdict)
    return AuslanderTriple(lam, gens, t, m, n, quasi, cert,
                           ("homological", hv), valid,
                           "" if valid else hv.reason)


@dataclass
class GammaPresentation:
    data: EndData
    e: list[int]   # generator indices whose modules are projective over Λ
    f: list[int]   # generator indices whose modules lie in add T
    p_mod: Module  # Hom(M, T) over the endomorphism algebra
    i_mod: Module  # D(M) over the endomorphism algebra


def alpha(triple: AuslanderTriple, seed: int = 0) -> GammaPresentation:
    """(Λ, M, T) -> (End(M), Hom(M, T), D M) with idempotent bookkeeping."""
    lam = triple.lam
    gens = triple.gens
    data = end_algebra(gens, check_indec=False)
    p_mod = module_over_end(data, triple.t)
    i_mod = dual(_right_module_over_end(data))
    e = [i for i, g in enumerate(gens) if projective_vertices(g) is not None]
    t_summands = [s for s, _ in decompose(triple.t, seed=seed).summands]
    f_idx = [i for i, g in enumerate(gens)
             if any(iso(g, s) is not None for s in t_summands)]
    return GammaPresentation(data, e, f_idx, p_mod, i_mod)


def _right_module_over_end(data: EndData) -> Module:
    """⊕ M_i as a right module over End(⊕M_i), i.e. a left module over the
    opposite algebra: a basis map g: M_i -> M_j sends block i to block j."""
    aop = data.algebra.op
    offs = offsets(g.dim for g in data.gens)
    tot = offs[-1]
    action = [Matrix(aop.field, tot, tot).put(offs[j], offs[i],
                                              data.hom[(i, j)][idx].matrix)
              for i, j, idx in data.basis_tags]
    return Module(aop, tot, action, check=False)


def alpha_inv(gamma: FDAlgebra, p_mod: Module, i_mod: Module, m: int, n: int,
              cap: int = 16, seed: int = 0):
    """(Γ, P, I) -> (End(Q), Hom(Q, Γ), Hom(Q, P)) for Q = ν⁻I.

    Preconditions (extension pair, superprojective) are certified first;
    returns (triple data, Λ-EndData) with the triple re-verified as quasi."""
    f_idx = projective_vertices(p_mod)
    if f_idx is None:
        raise PreconditionFailed("P is not a projective Γ-module")
    e_idx = projective_vertices(dual(i_mod))
    if e_idx is None:
        raise PreconditionFailed("D I is not projective over Γ^op")
    e_idems = sorted(set(e_idx))
    if not check_extension_pair(gamma, sorted(set(f_idx)), e_idems, m, cap):
        raise PreconditionFailed("(P, I) is not an m-extension pair")
    sp, _ = check_superprojective(gamma, e_idems, n, cap)
    if not sp:
        raise PreconditionFailed("Q is not n-superprojective")
    # ν⁻ D(e_vΓ) = Γe_v: one projective per distinct vertex of D I
    lam_data = end_algebra([projective_module(gamma, v) for v in e_idems],
                           check_indec=False)
    m_mod = module_over_end(lam_data, regular_module(gamma))
    t_mod = module_over_end(lam_data, p_mod)
    return lam_data, m_mod, t_mod


# -- extension pairs and superprojectivity ---------------------------------------


def check_extension_pair(gamma: FDAlgebra, f_idems: Sequence[int],
                         e_idems: Sequence[int], m: int, cap: int) -> bool:
    """(P, I) = (Γf, D(eΓ)): both id-bounds <= m, an exact add(I)-coresolution
    of P and an exact add(P)-resolution of I, each of length <= m."""
    p_parts = [projective_module(gamma, v) for v in f_idems]
    i_parts = [injective_module(gamma, v) for v in e_idems]
    p_sum = projective_sum(gamma, tuple(f_idems))
    idp = injective_dim(p_sum, max(cap, m + 1))
    if isinstance(idp, AtLeastCap) or idp > m:
        return False
    # id of D I = eΓ as a right module
    ei_sum = projective_sum(gamma.op, tuple(e_idems))
    idv = injective_dim(ei_sum, max(cap, m + 1))
    if isinstance(idv, AtLeastCap) or idv > m:
        return False
    # 0 -> P -> I_0 -> ... -> I_m -> 0 by minimal left add(I)-approximations,
    # and ... -> P_1 -> P_0 -> I -> 0 by minimal right add(P)-approximations
    _, rest = _approximation_chain(p_sum, i_parts, m + 1, left=True)
    if rest is None or rest.dim:
        return False
    _, rest = _approximation_chain(dual(ei_sum), p_parts, m + 1)
    return rest is not None and rest.dim == 0


def check_superprojective(gamma: FDAlgebra, e_idems: Sequence[int], n: int,
                          cap: int):
    """Q = Γe is n-superprojective: (1) grade >= n+1 on mod Γ/ΓeΓ (checked on
    its simples) and (2) an exact sequence 0 -> Γ -> I_0 -> ... -> I_n with
    terms in add D(eΓ).  Returns (verdict, details); (1) <=> (2) is asserted."""
    quot, pm = quotient_by_idempotent_ideal(gamma, list(e_idems))
    cond1 = True
    details = {}
    if quot.dim:
        for v in range(len(quot.idempotents)):
            s = simple_module(quot, v)
            infl = _inflate(gamma, pm, s)
            g = grade(infl, max(cap, n + 2))
            ok = (not isinstance(g, AtLeastCap) and g >= n + 1) or \
                (isinstance(g, AtLeastCap) and g.cap >= n + 1)
            details[v] = g
            if not ok:
                cond1 = False
    i_parts = [injective_module(gamma, v) for v in e_idems]
    _, rest = _approximation_chain(regular_module(gamma), i_parts, n + 1, left=True)
    cond2 = rest is not None
    if cond1 != cond2:
        raise CertificateFailed(
            f"superprojectivity self-test failed: grade={cond1}, chain={cond2}")
    return cond1 and cond2, details


def _inflate(gamma: FDAlgebra, pm: Matrix, s: Module) -> Module:
    """Pull a module over Γ/ΓeΓ back to Γ through the projection."""
    action = [s.act_vec(col) for col in pm.transpose().nz]
    return Module(gamma, s.dim, action, check=False)


# -- homological characterizations -------------------------------------------------


def check_auslander_algebra(gamma: FDAlgebra, m: int, n: int, cap: int) -> bool:
    """m <= n case: the two-sided (m+1, n+1)-condition plus gl.dim <= n+1."""
    if m > n:
        raise PreconditionFailed("criterion stated for m <= n")
    if cap <= n + 1:
        raise ValueError("cap must exceed n+1")
    if not two_sided_mn(gamma, m + 1, n + 1, cap):
        return False
    g = gldim(gamma, cap)
    return (not isinstance(g, AtLeastCap)) and g <= n + 1


def ext_top_module(s: Module, n_plus_1: int) -> Module:
    """Ext^{n+1}(S, Γ) as a module over the opposite algebra (top degree:
    the cokernel of the last starred differential)."""
    res = min_proj_resolution(s, n_plus_1)
    if res.truncated_at is not None or res.length != n_plus_1:
        # Ext above pd vanishes; below top degree not supported here
        return zero_module(s.algebra.op)
    out, _ = cokernel(star_map(res.maps[-1]))
    return out


def _is_simple_module(x: Module) -> bool:
    """Nonzero, killed by the radical, with no nontrivial idempotent endo."""
    if x.dim == 0:
        return False
    a = x.algebra
    rad = a.radical_basis()
    for r in rad:
        if not x.act_vec(r).is_zero():
            return False
    return _nontrivial_idempotent_endo(x, 0) is None


def condition_4_7_1(gamma: FDAlgebra, n: int, cap: int):
    """Two equivalent readings for gl.dim = n+1 algebras: the two-sided
    (n+1, n+1)-condition, versus Ext-symmetry of top-pd simple modules.

    Returns (lhs, rhs) evaluated independently."""
    g = gldim(gamma, cap)
    if isinstance(g, AtLeastCap) or g != n + 1:
        raise PreconditionFailed(f"needs gl.dim = {n + 1}, got {g}")
    lhs = two_sided_mn(gamma, n + 1, n + 1, cap)
    rhs = True
    for alg in (gamma, gamma.op):
        reg = regular_module(alg)
        for v in range(len(alg.idempotents)):
            s = simple_module(alg, v)
            p = pd(s, cap)
            if isinstance(p, AtLeastCap) or p != n + 1:
                continue
            for i in range(n + 1):
                if ext_dim(s, reg, i):
                    rhs = False
            top = ext_top_module(s, n + 1)
            if not _is_simple_module(top):
                rhs = False
    return lhs, rhs


# -- searches -----------------------------------------------------------------------


@dataclass
class SearchReport:
    value: object
    witness: Optional[list[int]]
    examined: int
    capped: list


def _projective_injective_indices(lam: FDAlgebra, mods: Sequence[Module]) -> set:
    """The index in mods of the first P_v and of the first I_v, for every
    vertex v: the first module whose minimal cover is P_v alone, and the
    first whose dual's cover is the projective P_v of the opposite algebra
    (I_v = D(P_v of A^op), with the same vertex numbering).
    PreconditionFailed when one of them is missing."""
    found = set()
    for side in (mods, [dual(m) for m in mods]):
        first: dict = {}
        for idx, mod in enumerate(side):
            verts = projective_vertices(mod)
            if verts is not None and len(verts) == 1:
                first.setdefault(verts[0], idx)
        if len(first) != len(lam.idempotents):
            raise PreconditionFailed("a projective/injective is missing")
        found.update(first.values())
    return found


def repdim_search(lam: FDAlgebra, n: int, ind_list: Sequence[Module],
                  cap: int = 16, complete: bool = True) -> SearchReport:
    """min gl.dim End(⊕S) over subsets S of the indecomposables containing
    all projectives and injectives with ⊕S (n-1)-orthogonal; exhaustive."""
    if not complete:
        raise IncompleteEnumeration("representation dimension needs a full list")
    forced = _projective_injective_indices(lam, ind_list)
    optional = [i for i in range(len(ind_list)) if i not in forced]
    # pairwise orthogonality table up to degree n-1
    ok_pair = {}
    for i in range(len(ind_list)):
        for j in range(len(ind_list)):
            ok_pair[(i, j)] = all(
                ext_dim(ind_list[i], ind_list[j], d) == 0
                for d in range(1, n))
    best = None
    witness = None
    examined = 0
    capped = []
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            subset = sorted(forced | set(extra))
            if not all(ok_pair[(i, j)] for i in subset for j in subset):
                continue
            examined += 1
            data = end_algebra([ind_list[i] for i in subset],
                               check_indec=False)
            g = gldim(data.algebra, cap)
            if isinstance(g, AtLeastCap):
                capped.append((subset, g))
                continue
            if best is None or g < best:
                best, witness = g, subset
    return SearchReport(best if best is not None else AtLeastCap(cap),
                        witness, examined, capped)


def o_bound(ind_b: Sequence[Module]) -> SearchReport:
    """Largest 1-orthogonal subcategory: a maximum clique in the Ext^1
    vanishing graph (exact branch and bound)."""
    verts = [i for i, x in enumerate(ind_b) if ext_dim(x, x, 1) == 0]
    adj = {}
    for a_, b_ in itertools.combinations(verts, 2):
        ok = (ext_dim(ind_b[a_], ind_b[b_], 1) == 0
              and ext_dim(ind_b[b_], ind_b[a_], 1) == 0)
        adj[(a_, b_)] = adj[(b_, a_)] = ok
    order = sorted(verts,
                   key=lambda v: -sum(1 for u in verts if u != v and adj[(v, u)]))
    best: list[int] = []
    examined = 0

    def bnb(cands: list[int], cur: list[int]):
        nonlocal best, examined
        examined += 1
        if len(cur) + len(cands) <= len(best):
            return
        if not cands:
            if len(cur) > len(best):
                best = list(cur)
            return
        for k, v in enumerate(cands):
            if len(cur) + len(cands) - k <= len(best):
                return
            rest = [u for u in cands[k + 1:] if adj[(v, u)]]
            cur.append(v)
            bnb(rest, cur)
            cur.pop()

    bnb(order, [])
    return SearchReport(len(best), sorted(best), examined, [])


# -- explicit roundtrip equivalence -------------------------------------------------


def roundtrip_equivalence(triple: AuslanderTriple, pres: GammaPresentation,
                          lam_data: EndData, m_mod: Module, t_mod: Module) -> bool:
    """Certify that the reconstructed triple is equivalent to the original,
    through the composite evaluation functor F(X) = Hom_Γ(Q, Hom_Λ(M, X)).

    Checks: F(Λ) is the reconstructed regular module, F(⊕M_i) matches the
    reconstructed M, and F(T) matches the reconstructed T."""
    data = pres.data

    def func(x: Module) -> Module:
        return module_over_end(lam_data, module_over_end(data, x))

    lam_reg = regular_module(triple.lam)
    f_lam = func(lam_reg)
    if iso(f_lam, regular_module(lam_data.algebra)) is None:
        return False
    msum, _, _ = direct_sum(triple.gens)
    if iso(func(msum), m_mod) is None:
        return False
    if iso(func(triple.t), t_mod) is None:
        return False
    return True


def algebra_tables_match(pres: GammaPresentation, lam_data: EndData) -> bool:
    """Certify End over the reconstructed side reproduces the original
    endomorphism algebra tables through the stored base change: the functor
    H = Hom_Γ(Q, -) applied to the generators' images induces a linear
    bijection Γ -> End(⊕ H-images) that respects multiplication."""
    data = pres.data
    gamma = data.algebra
    f = gamma.field
    # each evaluation module is built once and shared by the induced maps
    ev = [_evaluation(data, g) for g in data.gens]
    ev_lam = [_evaluation(lam_data, m) for _, m in ev]
    images = [m for _, m in ev_lam]
    data2 = end_algebra(images, check_indec=False)
    gamma2 = data2.algebra
    if gamma2.dim != gamma.dim:
        return False
    # basis map: each basis hom of Γ maps to a hom between the images
    start = {}  # (i, j) -> the index in Γ2 of the first basis map M_i -> M_j
    for k, (i, j, _) in enumerate(data2.basis_tags):
        start.setdefault((i, j), k)
    cols = []
    for i, j, idx in data.basis_tags:
        hh = _induced_map(_induced_map(data.hom[(i, j)][idx], ev[i], ev[j]),
                          ev_lam[i], ev_lam[j])
        c = hom_coords(data2.hom[(i, j)], [hh.matrix])
        if c is None:
            return False
        cols.append({start[(i, j)] + t: x for t, x in c.transpose().nz[0].items()})
    phi = Matrix.from_columns(f, gamma2.dim, cols)
    if invert(phi) is None:
        return False
    # multiplicativity on all basis pairs, those with product zero included;
    # cols[k] is column k of phi
    basis = [gamma.basis_vec(k) for k in range(gamma.dim)]
    for k1, b1 in enumerate(basis):
        for k2, b2 in enumerate(basis):
            lhs = _combine(f, [(c, cols[k]) for k, c in gamma.multiply(b1, b2).items()])
            if lhs != gamma2.multiply(cols[k1], cols[k2]):
                return False
    return True

