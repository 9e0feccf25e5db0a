"""Orthogonal subcategories, cotilting certificates, almost-split sequences,
indecomposable enumeration, AR-quiver data and tilting connections.

A subcategory is handed around as a list of pairwise non-isomorphic
indecomposable modules (its add-closure is implicit).  Maximality is only
asserted against a complete enumeration or through the endomorphism-algebra
criterion; capped enumerations yield explicit indeterminate verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from fdhom.algebra import FDAlgebra, _linear_combination
from fdhom.endalg import EndData, end_algebra, module_over_end
from fdhom.errors import (
    CapExceeded,
    CertificateFailed,
    IncompleteEnumeration,
    NoSocleElement,
    PreconditionFailed,
)
from fdhom.homology import (
    ext_dim,
    gldim,
    injective_dim,
    pd,
    tau_n,
    transpose,
    two_sided_mn,
)
from fdhom.linalg import Matrix, invert, kernel_basis, offsets, solve, vstack_all
from fdhom.modules import (
    Module,
    ModuleMap,
    _approximation_chain,
    _certify_exact,
    _exact_from_left,
    _map_span,
    _nontrivial_idempotent_endo,
    _rad_end_basis,
    _summand_element,
    cokernel,
    decompose,
    direct_sum,
    dual,
    hom_basis,
    hom_coords,
    injective_module,
    iso,
    min_proj_resolution,
    omega,
    projective_cover,
    projective_module,
    projective_vertices,
    projective_vertices_among,
    quotient_module,
    radical_of_module,
    regular_module,
    simple_module,
    socle,
)
from fdhom.results import AtLeastCap, QuiverGraph


# -- orthogonality -----------------------------------------------------------


def ortho_check(gens: Sequence[Module], l: int):
    """C ⊥_l C: Ext^i(X, Y) = 0 for all generators and 0 < i <= l.

    Returns (True, None) or (False, (x_index, y_index, degree))."""
    for i in range(1, l + 1):
        for xi, x in enumerate(gens):
            for yi, y in enumerate(gens):
                if ext_dim(x, y, i):
                    return False, (xi, yi, i)
    return True, None


def in_perp_t(x: Module, t: Module, m_bound: int) -> bool:
    """X ∈ ^⊥T, using the certified id-bound: Ext^i(X,T)=0 for 0 < i <= m."""
    return all(ext_dim(x, t, i) == 0 for i in range(1, m_bound + 1))


@dataclass
class CotiltingCert:
    t: Module
    m: int
    self_ortho: bool
    id_bound: bool
    coresolution_ok: bool
    chain: list  # the add(T)-coresolution maps of DΛ, when it exists

    @property
    def valid(self) -> bool:
        return self.self_ortho and self.id_bound and self.coresolution_ok


def is_cotilting(t: Module, m: int, cap: int, seed: int = 0) -> CotiltingCert:
    """Certificate that t is an m-cotilting module.

    (i) Ext^{>0}(T,T) = 0 (degrees up to m suffice once id T <= m);
    (ii) id T <= m; (iii) an exact add(T)-coresolution of DΛ of length <= m
    built from iterated minimal right add(T)-approximations.
    """
    a = t.algebra
    idt = injective_dim(t, max(cap, m + 1))
    id_ok = (not isinstance(idt, AtLeastCap)) and idt <= m
    self_ok = all(ext_dim(t, t, i) == 0 for i in range(1, m + 1)) if id_ok \
        else all(ext_dim(t, t, i) == 0 for i in range(1, cap + 1))
    summands = [x for x, _ in decompose(t, seed=seed).summands]
    chain, rest = _approximation_chain(dual(regular_module(a.op)), summands, m + 1)
    ok = rest is not None and rest.dim == 0
    return CotiltingCert(t, m, self_ok, id_ok, ok, chain)


# -- maximality --------------------------------------------------------------


def member_of(gens: Sequence[Module], x: Module) -> Optional[int]:
    for i, g in enumerate(gens):
        if iso(g, x) is not None:
            return i
    return None


def maximal_ortho_enumerative(gens: Sequence[Module], n: int,
                              ind_b: Sequence[Module], complete: bool = True):
    """C = C^{⊥_{n-1}} ∩ B = ^{⊥_{n-1}}C ∩ B against a full list of
    indecomposables of B.  Returns (verdict, witness)."""
    if not complete:
        raise IncompleteEnumeration("indecomposable list is capped")
    ok, wit = ortho_check(gens, n - 1)
    if not ok:
        return False, ("not orthogonal", wit)
    for z in ind_b:
        both = all(ext_dim(g, z, i) == 0 and ext_dim(z, g, i) == 0
                   for g in gens for i in range(1, n))
        if both and member_of(gens, z) is None:
            return False, ("orthogonal non-member", z)
    return True, None


@dataclass
class HomologicalVerdict:
    verdict: Optional[bool]
    mode: str  # "iff" (m <= n) or "necessary-only" (m > n)
    reason: str
    gamma: Optional[EndData] = None


def maximal_ortho_homological(lam: FDAlgebra, gens: Sequence[Module],
                              t: Module, m: int, n: int, cap: int,
                              seed: int = 0) -> HomologicalVerdict:
    """Endomorphism-algebra criterion for maximality of an (n-1)-orthogonal
    subcategory of ^⊥T: Γ = End(⊕gens) satisfies the two-sided
    (m+1, n+1)-condition and gl.dim Γ <= n+1.

    The premises Λ ⊕ T ∈ add C and C ⊥_{n-1} C are part of the verdict
    (False when violated), so the contract of agreeing with the enumerative
    check is meaningful on arbitrary candidate subcategories.
    """
    if cap <= n + 1:
        raise ValueError("cap must exceed n+1 for a conclusive gl.dim test")
    ok, wit = ortho_check(gens, n - 1)
    if not ok:
        return HomologicalVerdict(False, "iff" if m <= n else "necessary-only",
                                  f"not (n-1)-orthogonal: {wit}")
    present = projective_vertices_among(gens)
    for v in range(len(lam.idempotents)):
        if v not in present:
            return HomologicalVerdict(False, "iff" if m <= n else "necessary-only",
                                      f"projective {v} missing")
    for s, _ in decompose(t, seed=seed).summands:
        if member_of(gens, s) is None:
            return HomologicalVerdict(False, "iff" if m <= n else "necessary-only",
                                      "cotilting summand missing")
    data = end_algebra(gens, check_indec=False)
    gamma = data.algebra
    mn_ok = two_sided_mn(gamma, m + 1, n + 1, cap)
    gd = gldim(gamma, cap)
    gd_ok = (not isinstance(gd, AtLeastCap)) and gd <= n + 1
    verdict = mn_ok and gd_ok
    mode = "iff" if m <= n else "necessary-only"
    return HomologicalVerdict(verdict, mode,
                              f"two_sided_mn={mn_ok}, gldim={gd}", data)


# -- almost split sequences ---------------------------------------------------


@dataclass
class AlmostSplitSeq:
    n: int
    terms: list[Module]       # [Y, C_{n-1}, ..., C_0, X]
    maps: list[ModuleMap]     # composable left to right
    radical_flags: list[bool]


def almost_split_sequence(z: Module) -> AlmostSplitSeq:
    """The sequence 0 -> tau Z -> E -> Z -> 0 for indecomposable
    non-projective Z, as a pushout of the cover sequence along a stable
    socle element of Hom(Ω Z, tau Z)."""
    a = z.algebra
    f = a.field
    if projective_vertices(z) is not None:
        raise PreconditionFailed("Z must be non-projective")
    tz = dual(transpose(z))
    p, q = projective_cover(z)
    om, om_incl = omega(z)
    homs = hom_basis(om, tz)
    if not homs:
        raise NoSocleElement("Hom(syzygy, translate) vanished")
    # Ext^1(Z, tau Z) = Hom(ΩZ, tau Z) modulo maps extending along ΩZ ↪ P(Z)
    proj_sub = [u.matrix @ om_incl.matrix for u in hom_basis(p, tz)]
    proj_red = _map_span(f, tz.dim, om.dim, proj_sub)
    # conditions: h ∘ Ω(phi) and psi ∘ h factor through projectives for all
    # radical endomorphisms phi of Z, psi of tau Z
    omega_phis = []
    for phi in _rad_end_basis(hom_basis(z, z)):
        # lift phi through the cover, then restrict to the kernel
        lift = _lift_through(q, phi)
        om_phi = solve(om_incl.matrix, lift @ om_incl.matrix)
        omega_phis.append(om_phi)
    psis = _rad_end_basis(hom_basis(tz, tz))
    # express the two families of linear conditions in terms of the quotient
    # by proj_red: one block of condition rows per phi and per psi, row r
    # holding quotient coordinate r of each h's composite
    to_quot = proj_red.quotient_coords
    nfree = len(proj_red.free())
    composites = ([[h.matrix @ g for h in homs] for g in omega_phis]
                  + [[g @ h.matrix for h in homs] for g in psis])
    conds = [Matrix.from_columns(f, nfree, [to_quot(m.flatten()) for m in mats])
             for mats in composites]
    sol = kernel_basis(vstack_all(f, conds, len(homs)))
    h_elt = None
    hom_mats = [h.matrix for h in homs]
    for cand in sol.transpose().nz:
        m = _linear_combination(f, tz.dim, om.dim, cand, hom_mats.__getitem__)
        if to_quot(m.flatten()):
            h_elt = m
            break
    if h_elt is None:
        raise NoSocleElement("all annihilated classes factor through projectives")
    # pushout of 0 -> om -> p -> z -> 0 along h: om -> tz
    mid, maps_in, maps_out = _pushout(om_incl, ModuleMap(om, tz, h_elt, check=False))
    incl_tz, from_p = maps_in
    # E -> Z: q on the P component, 0 on tz
    e_to_z = _induced_out(mid, maps_out, q)
    epi_splits = _splits(e_to_z, False)
    seq = AlmostSplitSeq(
        1,
        [tz, mid, z],
        [incl_tz, e_to_z],
        [not _splits(incl_tz, True), not epi_splits],
    )
    _certify_exact(seq.maps, "pushout sequence is not exact")
    if epi_splits:
        raise CertificateFailed("almost split sequence splits")
    return seq


def _lift_through(q: ModuleMap, phi: Matrix) -> Matrix:
    """Some module endo of the cover with q ∘ lift = phi ∘ q."""
    p = q.source
    endos = hom_basis(p, p)
    sol = hom_coords([e.then(q) for e in endos], [phi @ q.matrix],
                     "projective lifting failed")
    return _linear_combination(p.algebra.field, p.dim, p.dim, sol.transpose().nz[0],
                               [e.matrix for e in endos].__getitem__)


def _pushout(f1: ModuleMap, f2: ModuleMap):
    """Pushout of f1: A -> B, f2: A -> C: returns (P, (C->P, B->P), proj data).

    P = (B ⊕ C)/⟨(f1 a, -f2 a)⟩."""
    a = f1.source
    b, c = f1.target, f2.target
    alg = a.algebra
    f = alg.field
    bc, incls, _ = direct_sum([b, c])
    graph = vstack_all(f, [f1.matrix, f2.matrix.scale(-1)], a.dim)
    po, proj = cokernel(ModuleMap(a, bc, graph, check=False))
    c_to_po = incls[1].then(proj)
    b_to_po = incls[0].then(proj)
    return po, (c_to_po, b_to_po), (proj, incls)


def _induced_out(mid: Module, out_data, q: ModuleMap) -> ModuleMap:
    """The map E -> Z induced by (q, 0) on B ⊕ C through the pushout."""
    proj, incls = out_data
    f = mid.algebra.field
    z = q.target
    big = Matrix(f, z.dim, incls[0].target.dim).put(0, 0, q.matrix)
    # solve E -> Z from (B⊕C) -> Z through the projection (it kills the graph)
    sol = solve(proj.matrix.transpose(), big.transpose())
    if sol is None:
        raise CertificateFailed("induced map does not descend to the pushout")
    return ModuleMap(mid, z, sol.transpose(), check=False)


def _splits(fmap: ModuleMap, mono: bool) -> bool:
    """Does f: A -> B split: a retraction r with f;r = id_A (mono), or a
    section s with s;f = id_B (not mono)?  The identity must lie in the span
    of the composites with Hom(B, A); an empty span holds only id_0."""
    a, b = fmap.source, fmap.target
    f = a.algebra.field
    d = a.dim if mono else b.dim
    comps = [h.matrix @ fmap.matrix if mono else fmap.matrix @ h.matrix
             for h in hom_basis(b, a)]
    return _map_span(f, d, d, comps).contains(Matrix.identity(f, d).flatten())


def verify_almost_split(seq: AlmostSplitSeq, test_objects: Sequence[Module]):
    """Lifting property: every non-retraction W -> X factors through the
    right-hand map, and dually on the left."""
    g = seq.maps[-1]
    x = seq.terms[-1]
    y = seq.terms[0]
    fmap = seq.maps[0]
    f = x.algebra.field
    for w in test_objects:
        homs = hom_basis(w, x)
        red = _map_span(f, x.dim, w.dim, [g.matrix @ u.matrix
                                          for u in hom_basis(w, g.source)])
        for h in homs:
            if _is_retraction(h):
                continue
            if not red.contains(h.matrix.flatten()):
                raise CertificateFailed("lifting property fails on the right")
        homs2 = hom_basis(y, w)
        red2 = _map_span(f, w.dim, y.dim, [u.matrix @ fmap.matrix
                                           for u in hom_basis(fmap.target, w)])
        for h in homs2:
            if _is_section(h):
                continue
            if not red2.contains(h.matrix.flatten()):
                raise CertificateFailed("extension property fails on the left")


def _is_retraction(h: ModuleMap) -> bool:
    """Split epi onto its target."""
    return h.is_surjective() and _splits(h, False)


def _is_section(h: ModuleMap) -> bool:
    return h.is_injective() and _splits(h, True)


# -- n-almost split sequences --------------------------------------------------


def n_almost_split(gens: Sequence[Module], x_index: int, n: int,
                   data: Optional[EndData] = None) -> AlmostSplitSeq:
    """The (n+2)-term sequence ending at X = gens[x_index], transported from
    the minimal projective resolution of the simple module of End(⊕gens) at
    the vertex of X.  The simple must have projective dimension exactly n+1."""
    x = gens[x_index]
    if projective_vertices(x) is not None:
        raise PreconditionFailed("X must be a non-projective generator")
    if data is None:
        data = end_algebra(gens, check_indec=False)
    gamma = data.algebra
    s = simple_module(gamma, x_index)
    res = min_proj_resolution(s, n + 2)
    if res.truncated_at is not None or res.length != n + 1:
        raise CertificateFailed(
            f"simple at X has pd {res.length if res.truncated_at is None else '>cap'}"
            f", expected {n + 1}")
    terms: list[Module] = []
    summand_lists: list[list[int]] = []
    for q in res.modules:
        verts = [v for v, _ in q.proj_summands]
        summand_lists.append(verts)
        parts = [data.gens[v] for v in verts]
        m, _, _ = direct_sum(parts)
        terms.append(m)
    maps = []
    for k, d in enumerate(res.maps):
        maps.append(_transport_map(data, res.modules[k + 1], res.modules[k],
                                   summand_lists[k + 1], summand_lists[k],
                                   terms[k + 1], terms[k], d))
    # orient the sequence: [Y = T(Q_{n+1}), ..., T(Q_1), X = T(Q_0)]
    terms_seq = list(reversed(terms))
    maps_seq = list(reversed(maps))
    rev_summands = list(reversed(summand_lists))
    rad_flags = [
        _map_in_radical(mp, rev_summands[k], rev_summands[k + 1], data)
        for k, mp in enumerate(maps_seq)
    ]
    _certify_exact(maps_seq, "transported sequence is not exact")
    return AlmostSplitSeq(n, terms_seq, maps_seq, rad_flags)


def _transport_map(data: EndData, q_src, q_tgt, src_verts, tgt_verts,
                   m_src: Module, m_tgt: Module, d: ModuleMap) -> ModuleMap:
    """Turn a map of End-projectives into the corresponding map of modules."""
    f = data.algebra.field
    # generator images: d(gen of copy c) decomposed per target copy as an
    # element of the endomorphism algebra, then into a Λ-map block
    src_offs = offsets(data.gens[v].dim for v in src_verts)
    tgt_offs = offsets(data.gens[v].dim for v in tgt_verts)
    big = Matrix(f, m_tgt.dim, m_src.dim)
    for c, (v, gen) in enumerate(q_src.proj_summands):
        img = (d.matrix @ Matrix.column(f, gen)).col(0)
        for c2, v2 in enumerate(tgt_verts):
            elt = _summand_element(q_tgt, img, c2)
            if elt:
                big.put(tgt_offs[c2], src_offs[c], data.element_block(elt, v, v2))
    return ModuleMap(m_src, m_tgt, big, check=True)


def _map_in_radical(mp: ModuleMap, src_verts, tgt_verts, data: EndData) -> bool:
    """All blocks between isomorphic indecomposable summands non-invertible."""
    src_offs = offsets(data.gens[v].dim for v in src_verts)
    tgt_offs = offsets(data.gens[v].dim for v in tgt_verts)
    for c, v in enumerate(src_verts):
        for c2, v2 in enumerate(tgt_verts):
            d = data.gens[v].dim
            if d != data.gens[v2].dim or iso(data.gens[v], data.gens[v2]) is None:
                continue
            if invert(mp.matrix.block(tgt_offs[c2], src_offs[c], d, d)) is not None:
                return False
    return True


def hom_sequences_exact(seq: AlmostSplitSeq, gens: Sequence[Module]) -> bool:
    """Both induced Hom sequences of the sequence are exact on the listed
    generators: 0 -> (W,Y) -> (W,C_*) -> J(W,X) -> 0 and dually."""
    f = seq.terms[0].algebra.field
    y, x = seq.terms[0], seq.terms[-1]
    for w in gens:
        homs = [hom_basis(w, t) for t in seq.terms]
        ranks = [_map_span(f, mp.target.dim, w.dim, [
            mp.matrix @ u.matrix for u in hs]).dim()
            for mp, hs in zip(seq.maps, homs)]
        if not (_exact_from_left(map(len, homs), ranks)
                and ranks[-1] == _radical_hom_dim(w, x, len(homs[-1]))):
            return False
    for w in gens:
        homs = [hom_basis(t, w) for t in reversed(seq.terms)]
        ranks = [_map_span(f, w.dim, mp.source.dim, [
            u.matrix @ mp.matrix for u in hs]).dim()
            for mp, hs in zip(reversed(seq.maps), homs)]
        if not (_exact_from_left(map(len, homs), ranks)
                and ranks[-1] == _radical_hom_dim(y, w, len(homs[-1]))):
            return False
    return True


def _radical_hom_dim(w: Module, x: Module, d: int) -> int:
    """dim J(W, X) for indecomposables with d = dim Hom(W, X): all of Hom
    unless W ≅ X, where the radical of the (local) endomorphism ring is what
    remains."""
    if w.dim == x.dim and iso(w, x) is not None:
        endos = hom_basis(w, w)
        return d - (len(endos) - len(_rad_end_basis(endos)))
    return d


# -- enumeration ---------------------------------------------------------------


def knit_indecomposables(a: FDAlgebra, cap_count: int = 64,
                         cap_dim: int = 200, seed: int = 0):
    """Closure of {projectives, injectives} under tau, tau^- and middle
    terms of almost split sequences.  Returns (modules, complete)."""
    found: list[Module] = []

    def register(m: Module) -> bool:
        if m.dim == 0 or m.dim > cap_dim:
            return False
        for g in found:
            if iso(g, m) is not None:
                return False
        found.append(m)
        return True

    queue: list[Module] = []
    seeds: list[Module] = []
    for v in range(len(a.idempotents)):
        p = projective_module(a, v)
        i = injective_module(a, v)
        seeds.extend([p, i])
        # classical knitting starts: radicals of projectives and socle
        # quotients of injectives carry the arrows at the boundary vertices
        radp, _ = radical_of_module(p)
        if radp.dim:
            for s, _ in decompose(radp, seed=seed).summands:
                seeds.append(s)
        soc_i, soc_incl = socle(i)
        if soc_i.dim < i.dim:
            quot, _ = quotient_module(i, soc_incl.matrix)
            for s, _ in decompose(quot, seed=seed).summands:
                seeds.append(s)
    for m in seeds:
        if register(m):
            queue.append(m)
    while queue:
        if len(found) > cap_count:
            return found, False
        m = queue.pop(0)
        if projective_vertices(m) is None:
            seq = almost_split_sequence(m)
            dec = decompose(seq.terms[1], seed=seed)
            # tau m first: the registration order is the listing order
            for s in [seq.terms[0]] + [s for s, _ in dec.summands]:
                if register(s):
                    queue.append(s)
        if projective_vertices(dual(m)) is None:
            ti = transpose(dual(m))  # tau^- m
            if register(ti):
                queue.append(ti)
    return found, True


def brute_indecomposables(a: FDAlgebra, dimvec_cap: int, seed: int = 0):
    """Exhaustive enumeration of indecomposables of total dimension up to the
    cap, for path-algebra quotients over a tiny prime field."""
    if a.origin != "path-algebra" or a.quiver is None:
        raise PreconditionFailed("brute enumeration needs a quiver presentation")
    if a.field.kind != "Fp" or a.field.p > 3:
        raise PreconditionFailed("brute enumeration wants F_2 or F_3")
    p = a.field.p
    nv = len(a.quiver.vertices)
    vidx = {lbl: i for i, lbl in enumerate(a.quiver.vertices)}
    arrow_ends = [(vidx[s], vidx[t]) for _, s, t in a.quiver.arrows]
    most_entries = max((sum(dims[t] * dims[s] for s, t in arrow_ends)
                        for dims in _dim_vectors(nv, dimvec_cap)), default=0)
    if p ** most_entries > 200000:
        raise CapExceeded("matrix enumeration too large at this cap")
    out: list[Module] = []
    for dims in _dim_vectors(nv, dimvec_cap):
        shapes = [(dims[t], dims[s]) for (s, t) in arrow_ends]
        total_entries = sum(r * c for r, c in shapes)
        for flat in itertools.product(range(p), repeat=total_entries):
            mats = []
            pos = 0
            for r, c in shapes:
                m = Matrix(a.field, r, c,
                           [list(flat[pos + i * c: pos + (i + 1) * c])
                            for i in range(r)])
                mats.append(m)
                pos += r * c
            if not _satisfies_relations(a, dims, mats, arrow_ends):
                continue
            mod = _module_from_rep(a, dims, mats, arrow_ends)
            if any(iso(mod, g) is not None for g in out if g.dim == mod.dim):
                continue
            if mod.dim > 1 and _nontrivial_idempotent_endo(mod, seed) is not None:
                continue
            out.append(mod)
    return out


def _dim_vectors(nv: int, cap: int):
    rng = range(cap + 1)
    for dims in itertools.product(rng, repeat=nv):
        s = sum(dims)
        if 0 < s <= cap:
            yield dims


def _path_matrix(a: FDAlgebra, dims, mats, arrow_ends, arrows_seq, src: int):
    """Matrix of the path acting from its source block to its target block."""
    f = a.field
    cur = Matrix.identity(f, dims[src])
    v = src
    for ai in arrows_seq:
        cur = mats[ai] @ cur
        v = arrow_ends[ai][1]
    return cur, v


def _satisfies_relations(a: FDAlgebra, dims, mats, arrow_ends) -> bool:
    f = a.field
    for rel in a.relations or []:
        acc = None
        for coeff, names in rel.terms:
            idxs = [a.quiver.arrow_index(nm) for nm in names]
            m, _ = _path_matrix(a, dims, mats, arrow_ends, idxs,
                                arrow_ends[idxs[0]][0])
            m = m.scale(f.of(coeff))
            acc = m if acc is None else acc + m
        if acc is not None and not acc.is_zero():
            return False
    return True


def _module_from_rep(a: FDAlgebra, dims, mats, arrow_ends) -> Module:
    offs = offsets(dims)
    total = offs[-1]
    action = []
    for src, arrows_seq in zip(a.path_data["sources"], a.path_data["arrows"]):
        m, tgt = _path_matrix(a, dims, mats, arrow_ends, arrows_seq, src)
        action.append(Matrix(a.field, total, total).put(offs[tgt], offs[src], m))
    return Module(a, total, action, check=False)


# -- AR quiver -----------------------------------------------------------------


def ar_quiver(gens: Sequence[Module], n: int,
              data: Optional[EndData] = None,
              labels: Optional[list[str]] = None) -> QuiverGraph:
    """Arrow multiplicities d_XY = dim J/J^2 (X, Y) inside Γ = End(⊕gens),
    plus dotted tau_n arrows on non-projective vertices.

    Maps X_i -> X_j live in e_i Γ e_j, and `homogeneous_generators` lifts a
    basis of each e_w (J/J^2) e_v, one piece (v, w, g) per basis vector, so
    d_ij counts the pieces with w = i and v = j."""
    if data is None:
        data = end_algebra(gens, check_indec=False)
    gamma = data.algebra
    arrows = gamma.homogeneous_generators()
    if arrows is None:
        raise PreconditionFailed("End(⊕gens) has no arrows: its top is not "
                                 "a product of copies of the field")
    r = len(gamma.idempotents)
    mult = [[0] * r for _ in range(r)]
    for v, w, _ in arrows:
        mult[w][v] += 1
    dotted = {}
    for i, g in enumerate(gens):
        if projective_vertices(g) is not None:
            continue
        t = tau_n(g, n)
        j = member_of(gens, t)
        if j is not None:
            dotted[i] = j
    if labels is None:
        labels = [f"X{i}" for i in range(len(gens))]
    return QuiverGraph(labels, mult, dotted)


# -- connecting tilting modules --------------------------------------------------


def connecting_tilting(m1: Sequence[Module], m2: Sequence[Module]):
    """U = Hom(⊕M1, ⊕M2) as a module over End(⊕M1); returns (data1, U)."""
    data1 = end_algebra(m1, check_indec=False)
    parts = [module_over_end(data1, x) for x in m2]
    u, _, _ = direct_sum(parts)
    return data1, u


def tilting_check(gamma: FDAlgebra, u: Module, t: int, cap: int,
                  seed: int = 0) -> bool:
    """pd U <= t, Ext^{>0}(U,U) = 0, and an exact coresolution
    0 -> Γ -> U^0 -> ... -> U^t -> 0 by minimal left add(U)-approximations."""
    p = pd(u, cap)
    if isinstance(p, AtLeastCap) or p > t:
        return False
    if any(ext_dim(u, u, i) for i in range(1, max(t, 1) + 1)):
        return False
    summands = [x for x, _ in decompose(u, seed=seed).summands]
    _, rest = _approximation_chain(regular_module(gamma), summands, t + 1, left=True)
    return rest is not None and rest.dim == 0
