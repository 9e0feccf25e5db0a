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
    direct_sum,
    dual,
    hom_dim,
    injective_module,
    iso,
    min_inj_coresolution,
    projective_module,
    regular_module,
    simple_module,
    syzygy,
)
from fdhom.presets import (
    linear_quiver,
    loop_algebra,
    path_algebra_a_n,
    preprojective_a_n,
    semisimple_k_n,
)
from fdhom.results import AtLeastCap
from fdhom.subcats import knit_indecomposables
from test_instances import d4_subspace_algebra


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
            assert mn_condition(injective_coresolution_terms(a, n), 1, n, 8) == want


def test_mn_a2_fails_12():
    a = path_algebra_a_n(2)
    assert not mn_condition(injective_coresolution_terms(a, 2), 1, 2, 8)


def test_gorenstein():
    a = preprojective_a_n(2)
    for n in range(1, 5):
        assert n_gorenstein(injective_coresolution_terms(a, n), n, 8)
    b = path_algebra_a_n(2)
    assert n_gorenstein(injective_coresolution_terms(b, 1), 1, 8)
    assert n_gorenstein(injective_coresolution_terms(b, 2), 2, 8)


def test_gorenstein_follows_domdim():
    for a in [path_algebra_a_n(2), preprojective_a_n(2), semisimple_k_n(2)]:
        dd = domdim(a, 6)
        bound = dd.cap if isinstance(dd, AtLeastCap) else dd
        for n in range(1, min(bound, 4) + 1):
            assert n_gorenstein(injective_coresolution_terms(a, n), n, 6)


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


def _nakayama_a_n(n, rad):
    """1 -> 2 -> ... -> n with every path of length rad zero."""
    rels = [PathExpr.make([(1, [f"a{j + 1}" for j in range(i, i + rad)])])
            for i in range(n - rad)]
    return build_path_algebra(linear_quiver(n), rels)


DIM_REPORT_ALGEBRAS = {
    "kA2": lambda: path_algebra_a_n(2),
    "kA3": lambda: path_algebra_a_n(3),
    "kA4": lambda: path_algebra_a_n(4),
    "kA5": lambda: path_algebra_a_n(5),
    "nakayama_A5_rad2": lambda: _nakayama_a_n(5, 2),
    "nakayama_A6_rad3": lambda: _nakayama_a_n(6, 3),
    "preprojective_A2": lambda: preprojective_a_n(2),
    "preprojective_A2_GF3": lambda: preprojective_a_n(2, field=GF(3)),
    "preprojective_A3": lambda: preprojective_a_n(3),
    "k[x]/x^2": lambda: loop_algebra(2),
    "k^2": lambda: semisimple_k_n(2),
}


def _dim_report_by_pairs(a, cap, mn_bound=4):
    """The per-pair route: `two_sided_mn` for every (m, n), and a Gorenstein
    loop that builds the coresolution afresh for every degree."""
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
        if not n_gorenstein(injective_coresolution_terms(a, n), n, cap):
            profile = n - 1
            break
    else:
        profile = AtLeastCap(cap)
        if min_inj_coresolution(regular_module(a), cap).truncated_at is not None:
            indet = True
    if isinstance(gldim(a, cap), AtLeastCap):
        indet = True
    if not domdim_report(a, cap)[1] or not domdim_report(a.op, cap)[1]:
        indet = True
    return table, profile, indet


def _counting_envelopes(monkeypatch):
    import fdhom.homology
    import fdhom.modules

    calls = []
    counted = fdhom.modules.injective_envelope

    def counting(m):
        calls.append(m)
        return counted(m)

    monkeypatch.setattr(fdhom.modules, "injective_envelope", counting)
    monkeypatch.setattr(fdhom.homology, "injective_envelope", counting)
    return calls


def _recording_reach(monkeypatch, a):
    """How far each side's coresolution is built: {is_opposite: max terms}."""
    import fdhom.homology

    reach = {False: 0, True: 0}
    counted = fdhom.homology.injective_coresolution_terms

    def recording(alg, n_terms, prefix=None):
        side = alg is a.op
        reach[side] = max(reach[side], n_terms)
        return counted(alg, n_terms, prefix)

    monkeypatch.setattr(fdhom.homology, "injective_coresolution_terms",
                        recording)
    # the per-pair route's Gorenstein loop calls the name imported here
    monkeypatch.setitem(globals(), "injective_coresolution_terms", recording)
    return reach


def _check_against_the_per_pair_route(a, cap, mn_bound, monkeypatch):
    """dim_report gives the per-pair verdicts, builds each side's
    coresolution exactly as far, and makes no more envelopes."""
    calls = _counting_envelopes(monkeypatch)
    reach = _recording_reach(monkeypatch, a)
    want = _dim_report_by_pairs(a, cap, mn_bound)
    per_pair, per_pair_reach = len(calls), dict(reach)
    calls.clear()
    reach.update({False: 0, True: 0})
    rep = dim_report(a, cap, mn_bound)
    assert (rep.mn_table, rep.gorenstein_profile, rep.indeterminate) == want
    assert list(rep.mn_table) == list(want[0])
    assert reach == per_pair_reach
    assert len(calls) <= per_pair
    return rep


@pytest.mark.parametrize("cap", [1, 2, 3, 8])
@pytest.mark.parametrize("name", DIM_REPORT_ALGEBRAS)
def test_dim_report_agrees_with_the_per_pair_route(name, cap, monkeypatch):
    a = DIM_REPORT_ALGEBRAS[name]()
    _check_against_the_per_pair_route(a, cap, 4, monkeypatch)


def test_dim_report_builds_each_side_once(monkeypatch):
    # kA_5 is hereditary: the coresolution of either side has two nonzero
    # terms, so each build makes two envelopes.  One build per side for the
    # (m, n) table; the Gorenstein degrees 5..8 past mn_bound = 4 extend A's
    # terms from a zero cosyzygy, which makes none; and one per side in
    # domdim_report: 2 + 2 + 0 + 2 + 2.  The per-pair route makes 69.
    calls = _counting_envelopes(monkeypatch)
    rep = dim_report(path_algebra_a_n(5), 8)
    assert rep.gorenstein_profile == AtLeastCap(8)
    assert len(calls) <= 8


def _same_terms(got, want):
    return len(got) == len(want) and all(
        (t.algebra, t.dim, t.inj_summands, list(t.action))
        == (u.algebra, u.dim, u.inj_summands, list(u.action))
        for t, u in zip(got, want))


@pytest.mark.parametrize("name", DIM_REPORT_ALGEBRAS)
def test_extending_a_coresolution_matches_building_it_afresh(name,
                                                             monkeypatch):
    a = DIM_REPORT_ALGEBRAS[name]()
    calls = _counting_envelopes(monkeypatch)
    for side in (a, a.op):
        fresh = [injective_coresolution_terms(side, n) for n in range(9)]
        for k in range(9):
            for n in range(k, 9):
                calls.clear()
                got = injective_coresolution_terms(side, n, fresh[k])
                assert _same_terms(got, fresh[n])
                assert all(t is u for t, u in zip(got, fresh[k]))
                # one envelope per new nonzero term, none for the kept ones
                assert len(calls) == sum(t.dim > 0 for t in fresh[n][k:])
        # one term at a time, as dim_report's Gorenstein loop extends them
        chain = fresh[0]
        for n in range(1, 9):
            chain = injective_coresolution_terms(side, n, chain)
            assert _same_terms(chain, fresh[n])


def test_a_coresolution_extends_only_its_own_shorter_prefix():
    a = path_algebra_a_n(3)
    terms = injective_coresolution_terms(a, 2)
    with pytest.raises(ValueError):
        injective_coresolution_terms(a.op, 3, terms)
    with pytest.raises(ValueError):
        injective_coresolution_terms(a, 1, terms)


def test_dim_report_reads_the_opposite_side_where_a_holds(monkeypatch):
    # every algebra above is isomorphic to its opposite, so equal tables do
    # not show that A^op is consulted: record which side each check reads
    import fdhom.homology

    a = path_algebra_a_n(5)
    checked = []
    counted = fdhom.homology.mn_condition

    def recording(terms, m, n, cap):
        ok = counted(terms, m, n, cap)
        checked.append((terms[0].algebra is a.op, (m, n), ok))
        return ok

    monkeypatch.setattr(fdhom.homology, "mn_condition", recording)
    rep = dim_report(a, 3)
    held = {p for is_op, p, ok in checked if not is_op and ok}
    assert {p for is_op, p, _ in checked if is_op} == held
    assert {p for p, v in rep.mn_table.items() if v} == held
    assert {p for p, v in rep.mn_table.items() if v is None} == \
        {(4, n) for n in range(1, 5)}


@pytest.mark.parametrize("mn_bound", [1, 2, 4])
def test_dim_report_builds_no_term_past_the_per_pair_route(mn_bound,
                                                           monkeypatch):
    # k<x, y>/(x, y)^2 is not Gorenstein: its cosyzygies double in size,
    # and its profile fails at degree 1, so terms past mn_bound would be
    # built for nothing
    q = Quiver.make(["1"], [("x", "1", "1"), ("y", "1", "1")])
    a = build_path_algebra(q, [PathExpr.make([(1, p)]) for p in
                               (["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"])])
    rep = _check_against_the_per_pair_route(a, 3, mn_bound, monkeypatch)
    assert (rep.gorenstein_profile, rep.indeterminate) == (0, True)
