import random

import pytest

from fdhom.algebra import PathExpr, Quiver, build_path_algebra
from fdhom.errors import ResolutionTruncated
from fdhom.homology import (
    costable_hom_dim,
    dim_report,
    domdim,
    domdim_report,
    ext_dim,
    ext_dim_via_injectives,
    gldim,
    grade,
    injective_coresolution_terms,
    injective_dim,
    mn_condition,
    n_gorenstein,
    pd,
    stable_hom_dim,
    tau,
    tau_inv,
    tau_n,
    transpose,
    two_sided_mn,
)
from fdhom.linalg import GF
from fdhom.modules import (
    cokernel,
    direct_sum,
    dual,
    hom_dim,
    injective_envelope,
    injective_module,
    iso,
    min_proj_resolution,
    omega,
    projective_module,
    regular_module,
    simple_module,
    syzygy,
    zero_module,
)
from fdhom.presets import (
    loop_algebra,
    path_algebra_a_n,
    preprojective_a_n,
    semisimple_k_n,
)
from fdhom.results import AtLeastCap
from fdhom.subcats import knit_indecomposables
from test_instances import d4_subspace_algebra, nakayama_a_n


def test_ext1_s1_s2_a2():
    a = path_algebra_a_n(2)
    s1, s2 = simple_module(a, 0), simple_module(a, 1)
    assert ext_dim(s1, s2, 1) == 1
    assert ext_dim(s2, s1, 1) == 0


def test_ext_semisimple_vanishes():
    a = semisimple_k_n(2)
    s1, s2 = simple_module(a, 0), simple_module(a, 1)
    for i in range(1, 4):
        assert ext_dim(s1, s1, i) == 0
        assert ext_dim(s1, s2, i) == 0


def test_ext1_preprojective():
    a = preprojective_a_n(2)
    s1, s2 = simple_module(a, 0), simple_module(a, 1)
    assert ext_dim(s1, s2, 1) == 1
    assert ext_dim(s1, s1, 1) == 0
    assert ext_dim(s2, s1, 1) == 1
    assert ext_dim(s2, s2, 1) == 0


def test_ext_balance():
    a = preprojective_a_n(2)
    mods = [simple_module(a, 0), simple_module(a, 1),
            projective_module(a, 0), regular_module(a)]
    for x in mods:
        for y in mods:
            for i in range(3):
                assert ext_dim(x, y, i) == ext_dim_via_injectives(x, y, i)


def test_ext_table():
    from fdhom.homology import ext_table

    a = path_algebra_a_n(2)
    s1, s2 = simple_module(a, 0), simple_module(a, 1)
    t = ext_table(s1, s2, 4)
    assert t.dims == [0, 1, 0, 0, 0]
    assert not t.truncated
    b = loop_algebra(2)
    s = simple_module(b, 0)
    t2 = ext_table(s, s, 3)
    assert t2.dims == [1, 1, 1, 1]
    assert t2.truncated


def test_pd_values():
    a = path_algebra_a_n(2)
    assert pd(projective_module(a, 0), 5) == 0
    assert pd(simple_module(a, 0), 5) == 1
    b = loop_algebra(2)
    assert pd(simple_module(b, 0), 5) == AtLeastCap(5)


def test_id_values():
    a = path_algebra_a_n(2)
    assert injective_dim(injective_module(a, 0), 5) == 0
    # S2 = P2 is the sink simple: its injective dim is 1
    assert injective_dim(simple_module(a, 1), 5) == 1


def test_gldim():
    assert gldim(semisimple_k_n(3), 5) == 0
    assert gldim(path_algebra_a_n(2), 5) == 1
    assert gldim(path_algebra_a_n(3), 5) == 1
    assert gldim(loop_algebra(2), 5) == AtLeastCap(5)
    assert gldim(preprojective_a_n(2), 6) == AtLeastCap(6)


def test_gldim_symmetry():
    for a in [path_algebra_a_n(3), semisimple_k_n(2)]:
        assert gldim(a, 8) == gldim(a.op, 8)


def test_domdim():
    assert domdim(path_algebra_a_n(2), 6) == 1
    assert domdim(preprojective_a_n(2), 6) == AtLeastCap(6)
    assert domdim(loop_algebra(2), 6) == AtLeastCap(6)


def test_mn_condition_definitional_identity():
    # (1,n) holds iff domdim >= n
    for a in [path_algebra_a_n(2), path_algebra_a_n(3)]:
        dd = domdim(a, 8)
        for n in range(1, 5):
            want = (dd.cap >= n) if isinstance(dd, AtLeastCap) else (dd >= n)
            assert mn_condition(injective_coresolution_terms(a, n), 1, n) == want


def test_mn_a2_fails_12():
    a = path_algebra_a_n(2)
    assert not mn_condition(injective_coresolution_terms(a, 2), 1, 2)


def test_gorenstein():
    a = preprojective_a_n(2)
    for n in range(1, 5):
        assert n_gorenstein(injective_coresolution_terms(a, n), n)
    b = path_algebra_a_n(2)
    assert n_gorenstein(injective_coresolution_terms(b, 1), 1)
    assert n_gorenstein(injective_coresolution_terms(b, 2), 2)


def test_gorenstein_follows_domdim():
    for a in [path_algebra_a_n(2), preprojective_a_n(2), semisimple_k_n(2)]:
        dd = domdim(a, 6)
        bound = dd.cap if isinstance(dd, AtLeastCap) else dd
        for n in range(1, min(bound, 4) + 1):
            assert n_gorenstein(injective_coresolution_terms(a, n), n)


def test_grade():
    a = path_algebra_a_n(2)
    assert grade(projective_module(a, 0), 6) == 0
    assert grade(simple_module(a, 0), 6) == 1  # the non-projective simple
    assert grade(simple_module(a, 1), 6) == 0  # S2 = P2 projective


def test_transpose_projective_zero():
    a = preprojective_a_n(2)
    assert transpose(projective_module(a, 0)).dim == 0


def test_transpose_s1_a2():
    a = path_algebra_a_n(2)
    tr = transpose(simple_module(a, 0))
    assert tr.dim == 1
    assert tr.algebra is a.op


def test_transpose_double_stable_identity():
    a = preprojective_a_n(2)
    for v in range(2):
        s = simple_module(a, v)
        tt = transpose(transpose(s))
        assert iso(tt, s) is not None


def test_tau_projective_zero():
    a = preprojective_a_n(2)
    assert tau(projective_module(a, 0)).dim == 0
    assert tau_inv(injective_module(a, 0)).dim == 0


def test_tau_a2():
    a = path_algebra_a_n(2)
    # unique non-projective indecomposable is S1 = I1; unique non-injective is P2
    s1 = simple_module(a, 0)
    t = tau(s1)
    assert iso(t, projective_module(a, 1)) is not None
    back = tau_inv(t)
    assert iso(back, s1) is not None


def test_tau_preprojective_swaps():
    a = preprojective_a_n(2)
    s1, s2 = simple_module(a, 0), simple_module(a, 1)
    assert iso(tau(s1), s2) is not None
    assert iso(tau(s2), s1) is not None
    assert iso(tau_inv(s1), s2) is not None


@pytest.mark.parametrize("name", ["kA3", "D4"])
def test_tau_ignores_projective_and_injective_summands(name):
    # Tr of a minimal presentation sends projective summands to 0, so
    # tau(P_v + N) = tau N, and dually tau^-(I_v + N) = tau^- N, over every
    # knitted indecomposable N
    a = path_algebra_a_n(3) if name == "kA3" else d4_subspace_algebra()
    inds, complete = knit_indecomposables(a)
    assert complete
    for v in range(len(a.idempotents)):
        p, i = projective_module(a, v), injective_module(a, v)
        for n in inds:
            assert iso(tau(direct_sum([p, n])[0]), tau(n)) is not None
            assert iso(tau_inv(direct_sum([i, n])[0]), tau_inv(n)) is not None


def test_tau_n():
    a = preprojective_a_n(2)
    s1 = simple_module(a, 0)
    assert iso(tau_n(s1, 1), tau(s1)) is not None
    assert iso(tau_n(s1, 2), s1) is not None  # Ω S1 = S2, τ S2 = S1
    assert tau_n(projective_module(a, 0), 2).dim == 0


def test_stable_hom():
    a = preprojective_a_n(2)
    s1 = simple_module(a, 0)
    p1 = projective_module(a, 0)
    assert stable_hom_dim(p1, s1) == 0  # identity factors through the cover
    assert stable_hom_dim(s1, s1) == 1


def test_stable_hom_computes_ext():
    a = preprojective_a_n(2)
    mods = [simple_module(a, 0), simple_module(a, 1), regular_module(a)]
    for x in mods:
        for y in mods:
            assert ext_dim(x, y, 1) == stable_hom_dim(syzygy(x, 1), y)


def test_classical_ar_duality():
    # dim Ext^1(X,Y) = costable(Y, tau X) = stable(tau^- Y, X)
    for a in [preprojective_a_n(2), path_algebra_a_n(3)]:
        indec = [simple_module(a, v) for v in range(len(a.idempotents))]
        indec += [projective_module(a, v) for v in range(len(a.idempotents))]
        for x in indec:
            for y in indec:
                e = ext_dim(x, y, 1)
                assert costable_hom_dim(y, tau(x)) == e
                assert stable_hom_dim(tau_inv(y), x) == e


def test_costable_custom_class():
    a = preprojective_a_n(2)
    s1 = simple_module(a, 0)
    t_class = [projective_module(a, 0), projective_module(a, 1)]
    # injectives = projectives here, so both routes agree
    assert costable_hom_dim(s1, s1, t_class) == costable_hom_dim(s1, s1)


# -- dim_report against the per-pair route ------------------------------------------


DIM_REPORT_ALGEBRAS = {
    "kA2": lambda: path_algebra_a_n(2),
    "kA3": lambda: path_algebra_a_n(3),
    "kA4": lambda: path_algebra_a_n(4),
    "kA5": lambda: path_algebra_a_n(5),
    "nakayama_A5_rad2": lambda: nakayama_a_n(5, 2),
    "nakayama_A6_rad3": lambda: nakayama_a_n(6, 3),
    "preprojective_A2": lambda: preprojective_a_n(2),
    "preprojective_A2_GF3": lambda: preprojective_a_n(2, field=GF(3)),
    "preprojective_A3": lambda: preprojective_a_n(3),
    "k[x]/x^2": lambda: loop_algebra(2),
    "k^2": lambda: semisimple_k_n(2),
}


def _dim_report_by_pairs(a, cap, mn_bound=4):
    """The per-pair route: `two_sided_mn` for every (m, n), a Gorenstein
    loop that asks for the coresolution afresh for every degree, and the
    Gorenstein certificate from the projective resolution of D(A), spliced
    from Ω links that `omega` certifies exact."""
    indet = False
    table = {}
    for m in range(1, mn_bound + 1):
        for n in range(1, mn_bound + 1):
            try:
                table[(m, n)] = two_sided_mn(a, m, n, cap)
            except ResolutionTruncated:
                table[(m, n)] = None
                indet = True
    for n in range(1, cap + 1):
        if not n_gorenstein(injective_coresolution_terms(a, n), n):
            profile = n - 1
            break
    else:
        profile = AtLeastCap(cap)
        if min_proj_resolution(dual(regular_module(a)), cap).truncated_at \
                is not None:
            indet = True
    if isinstance(gldim(a, cap), AtLeastCap):
        indet = True
    # both sides, as dim_report reports both values
    if not all([domdim_report(a, cap)[1], domdim_report(a.op, cap)[1]]):
        indet = True
    return table, profile, indet


def _recording_builds(monkeypatch):
    """Record every minimal cover and every kernel built: the module each
    cover is of, and the target of each map whose kernel is taken."""
    import fdhom.modules

    covered, kernels = [], []
    cover, kernel = fdhom.modules._minimal_cover, fdhom.modules.kernel

    def recording_cover(m):
        covered.append(m)
        return cover(m)

    def recording_kernel(fmap):
        kernels.append(fmap.target)
        return kernel(fmap)

    monkeypatch.setattr(fdhom.modules, "_minimal_cover", recording_cover)
    monkeypatch.setattr(fdhom.modules, "kernel", recording_kernel)
    return covered, kernels


def _chain_builds(side, covered, kernels):
    """(covers, kernels) built on the Ω chains of the injectives D(A e_v) =
    injective_module(side.op, v) over side^op: the coresolution of side's
    regular module is read off those chains and nothing else."""
    chain = []
    for v in range(len(side.idempotents)):
        m = injective_module(side.op, v)
        while True:
            chain.append(m)
            if m not in kernels:  # no Ω link kept past m
                break
            m = omega(m)[0]
    return (sum(c in chain for c in covered), sum(k in chain for k in kernels))


def _builds_per_side(route, make, monkeypatch):
    """route(a) on a fresh algebra from make(), and the covers and kernels
    it built on each side's Ω chains of the D(A e_v): {is_opposite:
    (covers, kernels)}."""
    covered, kernels = _recording_builds(monkeypatch)
    a = make()
    got = route(a)
    return got, {side is a.op: _chain_builds(side, covered, kernels)
                 for side in (a, a.op)}


def _check_against_the_per_pair_route(make, cap, mn_bound, monkeypatch):
    """dim_report, on an algebra from make(), gives the per-pair verdicts
    and builds no more covers and no more kernels on either side's Ω chains
    of the D(A e_v)."""
    want, per_pair = _builds_per_side(
        lambda a: _dim_report_by_pairs(a, cap, mn_bound), make, monkeypatch)
    rep, builds = _builds_per_side(lambda a: dim_report(a, cap, mn_bound),
                                   make, monkeypatch)
    assert (rep.mn_table, rep.gorenstein_profile, rep.indeterminate) == want
    assert list(rep.mn_table) == list(want[0])
    assert all(x <= y for side in (False, True)
               for x, y in zip(builds[side], per_pair[side]))
    return rep


@pytest.mark.parametrize("cap", [1, 2, 3, 8])
@pytest.mark.parametrize("name", DIM_REPORT_ALGEBRAS)
def test_dim_report_agrees_with_the_per_pair_route(name, cap, monkeypatch):
    _check_against_the_per_pair_route(DIM_REPORT_ALGEBRAS[name], cap, 4,
                                      monkeypatch)


def test_dim_report_builds_each_side_once(monkeypatch):
    # kA_5 is hereditary, and one of its five projectives is injective: on
    # either side, the chain of each D(A e_v) is D(A e_v) ⊇ Ω D(A e_v) ⊇ 0,
    # and Ω D(A e_v) = 0 for the one D(A e_v) that is projective over A^op.
    # So each side builds 5 + 4 covers and 5 + 4 kernels on its chains,
    # however often the (m, n) table, the Gorenstein degrees up to 8 and
    # domdim_report ask for its terms
    rep, builds = _builds_per_side(lambda a: dim_report(a, 8),
                                   lambda: path_algebra_a_n(5), monkeypatch)
    assert rep.gorenstein_profile == AtLeastCap(8)
    assert builds == {False: (9, 9), True: (9, 9)}


def _coresolution_by_cokernels(a, n_terms):
    """The reference: I_0 is the injective envelope of A, and I_{k+1} that
    of the cokernel of the envelope before it (zero modules once a cokernel
    is zero)."""
    terms, cur = [], regular_module(a)
    while len(terms) < n_terms:
        if cur.dim == 0:
            terms.append(zero_module(a))
            continue
        env, mono = injective_envelope(cur)
        terms.append(env)
        cur, _ = cokernel(mono)
    return terms


def _same_terms(got, want):
    return len(got) == len(want) and all(
        (t.dim, t.inj_summands, list(t.action))
        == (u.dim, u.inj_summands, list(u.action))
        for t, u in zip(got, want))


@pytest.mark.parametrize("name", DIM_REPORT_ALGEBRAS)
def test_coresolution_terms_match_the_envelope_cokernel_loop(name):
    make = DIM_REPORT_ALGEBRAS[name]
    for opposite in (False, True):
        a, ref = make(), make()
        side, ref_side = (a.op, ref.op) if opposite else (a, ref)
        want = _coresolution_by_cokernels(ref_side, 8)
        for n in range(9):
            got = injective_coresolution_terms(side, n)
            assert all(t.algebra is side for t in got)
            assert _same_terms(got, want[:n])


def _nonzero_chain_levels(side, n):
    """For k < n, the nonzero Ω^k D(A e_v) over side^op, in vertex order,
    along the Ω links kept on the injectives injective_module(side.op, v)."""
    levels = []
    chain = [injective_module(side.op, v) for v in range(len(side.idempotents))]
    for k in range(n):
        if k:
            chain = [omega(m)[0] for m in chain]
        chain = [m for m in chain if m.dim]
        levels.append(chain)
    return levels


@pytest.mark.parametrize("name", DIM_REPORT_ALGEBRAS)
def test_extending_a_coresolution_matches_building_it_afresh(name,
                                                             monkeypatch):
    # asking for one more term at a time, as domdim_report does, builds
    # only the covers and kernels behind each new nonzero term
    make = DIM_REPORT_ALGEBRAS[name]
    covered, kernels = _recording_builds(monkeypatch)
    for opposite in (False, True):
        a = make()
        side = a.op if opposite else a
        for n in range(9):
            covered.clear()
            kernels.clear()
            got = injective_coresolution_terms(side, n)
            if n:
                # term n - 1 needs the cover of each nonzero Ω^{n-1} D(A e_v),
                # and, when n > 1, the Ω link of each nonzero Ω^{n-2} D(A e_v)
                levels = _nonzero_chain_levels(side, n)
                assert covered == levels[n - 1]
                assert kernels == (levels[n - 2] if n > 1 else [])
                assert (got[-1].dim > 0) == bool(levels[n - 1])
            fresh = make()
            assert _same_terms(got, injective_coresolution_terms(
                fresh.op if opposite else fresh, n))


def test_dim_report_reads_the_opposite_side_where_a_holds(monkeypatch):
    # every algebra above is isomorphic to its opposite, so equal tables do
    # not show that A^op is consulted: record which side each check reads
    import fdhom.homology

    a = path_algebra_a_n(5)
    checked = []
    counted = fdhom.homology.mn_condition

    def recording(terms, m, n):
        ok = counted(terms, m, n)
        checked.append((terms[0].algebra is a.op, (m, n), ok))
        return ok

    monkeypatch.setattr(fdhom.homology, "mn_condition", recording)
    rep = dim_report(a, 3)
    held = {p for is_op, p, ok in checked if not is_op and ok}
    assert {p for is_op, p, _ in checked if is_op} == held
    assert {p for p, v in rep.mn_table.items() if v} == held
    assert {p for p, v in rep.mn_table.items() if v is None} == \
        {(4, n) for n in range(1, 5)}


def _square_zero_two_loops():
    """k<x, y>/(x, y)^2: local, wild, of infinite global and injective
    dimension; the syzygies of its simple double in size."""
    q = Quiver.make(["1"], [("x", "1", "1"), ("y", "1", "1")])
    return build_path_algebra(q, [
        PathExpr.make([(1, p)])
        for p in (["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"])])


@pytest.mark.parametrize("mn_bound", [1, 2, 4])
def test_dim_report_builds_no_term_past_the_per_pair_route(mn_bound,
                                                           monkeypatch):
    # k<x, y>/(x, y)^2 is not Gorenstein: its cosyzygies double in size,
    # and its profile fails at degree 1, so terms past mn_bound would be
    # built for nothing
    rep = _check_against_the_per_pair_route(_square_zero_two_loops, 3,
                                            mn_bound, monkeypatch)
    assert (rep.gorenstein_profile, rep.indeterminate) == (0, True)


def _below(p, bound) -> bool:
    return not isinstance(p, AtLeastCap) and p < bound


def _term_verdicts(a, cap, by_pd, mn_bound=4):
    """The (m, n) table and the Gorenstein degrees on a's coresolution terms:
    from `mn_condition` and `n_gorenstein`, or, when by_pd, from the route
    they replaced, the pd of each term resolved up to cap."""
    terms = injective_coresolution_terms(a, max(cap, mn_bound))
    if by_pd:
        pds = [pd(t, cap) for t in terms]
        mn = {(m, n): all(_below(p, m) for p in pds[:n])
              for m in range(1, min(cap, mn_bound) + 1)
              for n in range(1, mn_bound + 1)}
        gor = [all(_below(p, i + 1) for i, p in enumerate(pds[:n]))
               for n in range(1, cap + 1)]
    else:
        mn = {(m, n): mn_condition(terms, m, n)
              for m in range(1, min(cap, mn_bound) + 1)
              for n in range(1, mn_bound + 1)}
        gor = [n_gorenstein(terms, n) for n in range(1, cap + 1)]
    return mn, gor


@pytest.mark.parametrize("cap", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(DIM_REPORT_ALGEBRAS) + ["two_loops"])
def test_pd_below_a_bound_walks_no_further_than_it_needs(name, cap,
                                                         monkeypatch):
    # pd < m needs Ω^m = 0 only, not a resolution up to the cap: the same
    # verdicts as the pd route, from no more covers
    make = DIM_REPORT_ALGEBRAS.get(name, _square_zero_two_loops)
    covered, _ = _recording_builds(monkeypatch)
    got = {}
    for by_pd in (False, True):
        a = make()
        injective_coresolution_terms(a, max(cap, 4))
        covered.clear()
        got[by_pd] = _term_verdicts(a, cap, by_pd), len(covered)
    assert got[False][0] == got[True][0]
    assert got[False][1] <= got[True][1]
    if name == "two_loops" and cap > 1:
        assert got[False][1] < got[True][1]
