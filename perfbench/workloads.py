"""The benchmark's workloads: seeded inputs, jobs and their expected verdicts.

`WORKLOADS[name](seed, workdir)` generates a workload's input descriptions
(and, for the CLI workload, writes them as JSON files into `workdir`) and
returns a `Workload`.
Each timed pass calls every job once. A job builds its algebras and modules
from the descriptions, so no pass reuses an object, or any cache attached to
one, from an earlier pass.

A job returns its verdict as plain JSON data. The runner compares it with the
job's golden, recorded at the commit that introduced the benchmark; a job
also raises `Mismatch` when one of its own oracles disagrees.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from fdhom.algebra import PathExpr, Quiver, build_path_algebra
from fdhom.auslander import (algebra_tables_match, alpha, alpha_inv,
                             check_extension_pair, check_superprojective,
                             roundtrip_equivalence, verify_triple)
from fdhom.cli import main as cli_main
from fdhom.endalg import end_algebra
from fdhom.homology import domdim, ext_dim, ext_dim_via_injectives, gldim
from fdhom.linalg import GF, QQ, Matrix
from fdhom.modules import (ModuleMap, cokernel, direct_sum, dual, hom_basis,
                           projective_module, regular_module)
from fdhom.subcats import (knit_indecomposables, maximal_ortho_enumerative,
                           maximal_ortho_homological)

GOLDENS = Path(__file__).resolve().parent / "goldens"
CAP = 8
FP = 32003
FP_QUERIES = 600
FP_COEFFS = 64


class Mismatch(Exception):
    """A job's result disagrees with its golden or its oracle."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Job:
    name: str
    # run(latencies) -> verdict; query workloads append one latency (s) per query
    run: Callable[[list], object]
    golden: Optional[object] = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # per-query latencies come from the jobs; otherwise a query is a whole pass
    has_queries: bool
    inputs: object  # the generated descriptions, hashed for the determinism record
    # per-layer metrics that must read nonzero in a traced run of this workload
    busy: tuple[str, ...]
    # called at the start of each pass, inside its timer
    begin_pass: Callable[[], None] = lambda: None


# -- algebra descriptions (the CLI's JSON schema) -------------------------------


def _field_doc(p: Optional[int]) -> dict:
    return {"kind": "Q"} if p is None else {"kind": "Fp", "p": p}


def linear_doc(n: int, rad: Optional[int] = None, p: Optional[int] = None) -> dict:
    """1 -> 2 -> ... -> n; with `rad`, every path of that length is zero."""
    arrows = [[f"a{i}", str(i), str(i + 1)] for i in range(1, n)]
    rels = []
    if rad is not None:
        rels = [[[1, [f"a{j}" for j in range(i, i + rad)]]]
                for i in range(1, n - rad + 1)]
    return {"version": 1, "field": _field_doc(p),
            "quiver": {"vertices": [str(i) for i in range(1, n + 1)],
                       "arrows": arrows},
            "relations": rels}


def preprojective_doc(n: int, p: Optional[int] = None) -> dict:
    arrows = []
    for i in range(1, n):
        arrows += [[f"a{i}", str(i), str(i + 1)], [f"b{i}", str(i + 1), str(i)]]
    rels = [[[1, ["a1", "b1"]]]]
    rels += [[[1, [f"a{i + 1}", f"b{i + 1}"]], [-1, [f"b{i}", f"a{i}"]]]
             for i in range(1, n - 1)]
    rels.append([[1, [f"b{n - 1}", f"a{n - 1}"]]])
    return {"version": 1, "field": _field_doc(p),
            "quiver": {"vertices": [str(i) for i in range(1, n + 1)],
                       "arrows": arrows},
            "relations": rels}


def loop_doc(nilpotency: int, p: Optional[int] = None) -> dict:
    return {"version": 1, "field": _field_doc(p),
            "quiver": {"vertices": ["1"], "arrows": [["x", "1", "1"]]},
            "relations": [[[1, ["x"] * nilpotency]]]}


def d4_doc() -> dict:
    """The three-subspace quiver: three arrows into one sink."""
    return {"version": 1, "field": _field_doc(None),
            "quiver": {"vertices": ["0", "1", "2", "3"],
                       "arrows": [["a", "1", "0"], ["b", "2", "0"],
                                  ["c", "3", "0"]]},
            "relations": []}


def build_algebra(doc: dict):
    fld = doc["field"]
    field = QQ if fld["kind"] == "Q" else GF(fld["p"])
    q = Quiver.make(doc["quiver"]["vertices"],
                    [tuple(a) for a in doc["quiver"]["arrows"]])
    rels = [PathExpr.make([(Fraction(c), names) for c, names in rel])
            for rel in doc["relations"]]
    return build_path_algebra(q, rels, field=field)


# -- auslander_gamma -------------------------------------------------------------


def _gamma_job(name: str, doc: dict, with_domdim: bool, seed: int,
               golden: dict) -> Job:
    def run(_latencies):
        a = build_algebra(doc)
        inds, complete = knit_indecomposables(a, seed=seed)
        g = end_algebra(inds, seed=seed).algebra
        verdict = {"complete": complete, "indecomposables": len(inds),
                   "dim": g.dim, "gldim": gldim(g, CAP)}
        if with_domdim:
            verdict["domdim"] = domdim(g, CAP)
            verdict["domdim_op"] = domdim(g.op, CAP)
        return verdict
    return Job(name, run, golden)


def _roundtrip_job(seed: int) -> Job:
    doc = linear_doc(3)

    def run(_latencies):
        a = build_algebra(doc)
        inds, _ = knit_indecomposables(a, seed=seed)
        tri = verify_triple(a, inds, dual(regular_module(a.op)), 0, 1,
                            cap=CAP, ind_b=inds, seed=seed)
        _check(tri.valid, f"triple not certified: {tri.reason}")
        pres = alpha(tri, seed=seed)
        g = pres.data.algebra
        e, f = sorted(set(pres.e)), sorted(set(pres.f))
        ext_pair = check_extension_pair(g, f, e, tri.m, CAP)
        superproj, _ = check_superprojective(g, e, tri.n, CAP)
        lam_data, m_mod, t_mod = alpha_inv(g, pres.p_mod, pres.i_mod,
                                           tri.m, tri.n, cap=CAP, seed=seed)
        return {"gamma_dim": g.dim, "lambda_dim": lam_data.algebra.dim,
                "extension_pair": ext_pair, "superprojective": superproj,
                "roundtrip": roundtrip_equivalence(tri, pres, lam_data,
                                                   m_mod, t_mod),
                "tables_match": algebra_tables_match(pres, lam_data)}
    return Job("kA3_roundtrip", run, {
        "gamma_dim": 15, "lambda_dim": 6, "extension_pair": True,
        "superprojective": True, "roundtrip": True, "tables_match": True})


def auslander_gamma(seed: int, workdir: Path) -> Workload:
    a4, d4 = linear_doc(4), d4_doc()
    jobs = [
        _gamma_job("kA4_gamma", a4, True, seed, {
            "complete": True, "indecomposables": 10, "dim": 35, "gldim": 2,
            "domdim": 2, "domdim_op": 2}),
        _gamma_job("D4_gamma", d4, False, seed, {
            "complete": True, "indecomposables": 12, "dim": 56, "gldim": 2}),
        _roundtrip_job(seed),
    ]
    busy = ("linalg.matmul.calls", "linalg.self_s",
            "modules.radical_of_module.calls", "modules.submodule.calls",
            "modules.Module.built", "endalg.end_algebra.calls",
            "auslander.verify_triple.calls", "auslander.alpha.calls",
            "auslander.alpha_inv.calls",
            "auslander.check_extension_pair.calls",
            "auslander.check_superprojective.calls")
    return Workload("auslander_gamma", jobs, False, [a4, d4], busy)


# -- invariants_report -----------------------------------------------------------


INVARIANT_INPUTS = {
    "kA5": linear_doc(5),
    "nakayama_A6_rad3": linear_doc(6, rad=3),
    "nakayama_A5_rad2": linear_doc(5, rad=2),
    "preprojective_A3": preprojective_doc(3),
}


def _cli_job(name: str, path: Path, seed: int) -> Job:
    golden = json.loads((GOLDENS / f"invariants_{name}.json").read_text())
    golden["report"]["seed"] = seed
    argv = ["invariants", str(path), "--cap", str(CAP), "--seed", str(seed)]

    def run(_latencies):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        report = json.loads(out.getvalue())
        report.pop("timing_ms")
        return {"exit": code, "report": report}
    return Job(name, run, golden)


def invariants_report(seed: int, workdir: Path) -> Workload:
    jobs = []
    for name, doc in INVARIANT_INPUTS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        jobs.append(_cli_job(name, path, seed))
    busy = ("linalg.matmul.calls", "cli.main.calls", "cli.load_algebra.calls",
            "cli.emit_report.calls", "homology.injective_coresolution_terms.calls",
            "homology.mn_condition.calls", "modules.injective_envelope.calls",
            "modules.injective_envelope.repeat_frac",
            "modules.min_proj_resolution.calls")
    return Workload("invariants_report", jobs, False,
                    list(INVARIANT_INPUTS.values()), busy)


# -- orthogonal_search -----------------------------------------------------------


def _preprojective_a2_job(seed: int) -> Job:
    doc = preprojective_doc(2)

    def run(_latencies):
        a = build_algebra(doc)
        inds, complete = knit_indecomposables(a, seed=seed)
        t = regular_module(a)  # selfinjective: DA is A
        maximal, agree = 0, True
        for r in range(1, len(inds) + 1):
            for sub in itertools.combinations(inds, r):
                env, _ = maximal_ortho_enumerative(list(sub), 2, inds)
                hv = maximal_ortho_homological(a, list(sub), t, 0, 2, CAP,
                                               seed=seed)
                agree = agree and env == hv.verdict and hv.mode == "iff"
                maximal += bool(env)
        return {"complete": complete, "indecomposables": len(inds),
                "verdicts_agree": agree, "maximal": maximal}
    return Job("ppA2_all_subsets", run, {
        "complete": True, "indecomposables": 4, "verdicts_agree": True,
        "maximal": 2})


def _maximal_rigid_sets(ext1: dict, count: int) -> list[tuple[int, ...]]:
    """Maximal sets of Ext^1-free, pairwise Ext^1-orthogonal indices."""
    verts = [i for i in range(count) if ext1[(i, i)] == 0]
    out = []
    for r in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            if any(ext1[(i, j)] or ext1[(j, i)]
                   for i in sub for j in sub if i < j):
                continue
            if not any(z not in sub and all(ext1[(i, z)] == 0 and
                                            ext1[(z, i)] == 0 for i in sub)
                       for z in verts):
                out.append(sub)
    return out


def _preprojective_a3_job(seed: int) -> Job:
    doc = preprojective_doc(3)
    ext_golden = json.loads((GOLDENS / "ppA3_ext1.json").read_text())

    def run(latencies):
        a = build_algebra(doc)
        inds, complete = knit_indecomposables(a, cap_count=40, seed=seed)
        ext1 = {}
        for i, x in enumerate(inds):
            for j, y in enumerate(inds):
                t0 = time.perf_counter()
                ext1[(i, j)] = ext_dim(x, y, 1)
                latencies.append(time.perf_counter() - t0)
        # order-free record of the table: (dimvec x, dimvec y, dim Ext^1)
        table = sorted([list(inds[i].vertex_dims()), list(inds[j].vertex_dims()), e]
                       for (i, j), e in ext1.items())
        _check(table == ext_golden, "Ext^1 table differs from the golden")
        subcats = _maximal_rigid_sets(ext1, len(inds))
        certified = all(maximal_ortho_enumerative([inds[i] for i in s], 2,
                                                  inds)[0] for s in subcats)
        return {"complete": complete, "indecomposables": len(inds),
                "maximal": len(subcats),
                "sizes": sorted({len(s) for s in subcats}),
                "certified": certified}
    return Job("ppA3_search", run, {
        "complete": True, "indecomposables": 12, "maximal": 14, "sizes": [6],
        "certified": True})


def orthogonal_search(seed: int, workdir: Path) -> Workload:
    busy = ("subcats.knit_indecomposables.calls",
            "subcats.maximal_ortho_enumerative.calls",
            "subcats.maximal_ortho_homological.calls", "modules.iso.calls",
            "linalg.matmul.calls", "linalg.rref.calls")
    return Workload("orthogonal_search",
                    [_preprojective_a2_job(seed), _preprojective_a3_job(seed)],
                    True, [preprojective_doc(2), preprojective_doc(3)], busy)


# -- fp_ext_queries --------------------------------------------------------------


def _module_doc(rng: random.Random, vertices: int) -> dict:
    """Cokernel of a random map P_src -> P_tgt between sums of projectives."""
    return {"tgt": [rng.randrange(vertices) for _ in range(rng.randint(1, 3))],
            "src": [rng.randrange(vertices) for _ in range(rng.randint(0, 2))],
            "coeffs": [rng.choice([0, 0, 0, 0, 1, 1, -1, 2])
                       for _ in range(FP_COEFFS)]}


def build_module(a, doc: dict):
    f = a.field
    tgt, _, _ = direct_sum([projective_module(a, v) for v in doc["tgt"]])
    if not doc["src"]:
        return tgt
    src, _, _ = direct_sum([projective_module(a, v) for v in doc["src"]])
    homs = hom_basis(src, tgt)
    if len(homs) > len(doc["coeffs"]):
        raise ValueError("module description has too few coefficients")
    m = Matrix(f, tgt.dim, src.dim)
    for h, c in zip(homs, doc["coeffs"]):
        if c:
            m = m + h.matrix.scale(f.of(c))
    cok, _ = cokernel(ModuleMap(src, tgt, m, check=False))
    return cok


def _ext_query_job(index: int, query: dict, algebra: Callable) -> Job:
    def run(latencies):
        a = algebra(query["algebra"])
        x, y = build_module(a, query["x"]), build_module(a, query["y"])
        t0 = time.perf_counter()
        dims = [ext_dim(x, y, i) for i in range(4)]
        latencies.append(time.perf_counter() - t0)
        d = query["oracle_degree"]
        _check(ext_dim_via_injectives(x, y, d) == dims[d],
               f"Ext^{d} disagrees with the injective route")
        return dims
    return Job(f"q{index:03d}", run)


def fp_ext_queries(seed: int, workdir: Path) -> Workload:
    docs = {"preprojective_A3": preprojective_doc(3, p=FP),
            "kA4": linear_doc(4, p=FP),
            "k[x]/(x^3)": loop_doc(3, p=FP)}
    names = sorted(docs)
    rng = random.Random(seed)
    queries = []
    for i in range(FP_QUERIES):
        alg = names[i % len(names)]  # equal shares keep the query mix steady
        nv = len(docs[alg]["quiver"]["vertices"])
        queries.append({"algebra": alg, "x": _module_doc(rng, nv),
                        "y": _module_doc(rng, nv),
                        "oracle_degree": rng.randrange(4)})
    built = {}  # emptied at the start of each pass

    def algebra(name):
        if name not in built:
            built[name] = build_algebra(docs[name])
        return built[name]

    jobs = [_ext_query_job(i, q, algebra) for i, q in enumerate(queries)]
    busy = ("homology.ext_dim.calls", "modules.min_proj_resolution.calls",
            "modules.min_proj_resolution.repeat_frac", "modules.hom_basis.calls",
            "linalg.matmul.calls")
    return Workload("fp_ext_queries", jobs, True,
                    {"algebras": docs, "queries": queries}, busy, built.clear)


WORKLOADS = {
    "auslander_gamma": auslander_gamma,
    "invariants_report": invariants_report,
    "orthogonal_search": orthogonal_search,
    "fp_ext_queries": fp_ext_queries,
}
