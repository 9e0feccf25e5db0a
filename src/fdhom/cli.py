"""Command line interface: file formats, reports, DOT emission.

JSON in, JSON report out.  Exit codes: 0 all verdicts pass, 1 a checked
property is refuted, 2 input error, 3 indeterminate at a cap, 4 an internal
certificate failed (a fault of the program, never of the input or of the
property checked).  Every command is deterministic given (inputs, seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from fdhom.algebra import FDAlgebra, PathExpr, Quiver, build_path_algebra
from fdhom.errors import CertificateFailed, FdhomError
from fdhom.linalg import GF, QQ
from fdhom.results import AtLeastCap, QuiverGraph

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_CERTIFICATE = 4


class InputError(Exception):
    pass


def load_algebra(path: str) -> FDAlgebra:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: {e}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: the document must be a JSON object")
    if doc.get("version") != 1:
        raise InputError(f"{path}: unsupported version {doc.get('version')}")
    try:
        fld = doc.get("field", {"kind": "Q"})
        if not isinstance(fld, dict):
            raise InputError(f"{path}: the field must be a JSON object")
        if fld.get("kind") == "Q":
            field = QQ
        elif fld.get("kind") == "Fp":
            field = GF(int(fld["p"]))
        else:
            raise InputError(f"{path}: unknown field kind {fld.get('kind')}")
        if "quiver" in doc:
            qd = doc["quiver"]
            q = Quiver.make(qd["vertices"], [tuple(a) for a in qd["arrows"]])
            rels = [PathExpr.make([(Fraction(c), names) for c, names in rel])
                    for rel in doc.get("relations", [])]
            return build_path_algebra(q, rels, doc.get("length_cap", 30),
                                      field=field)
        if "mult" in doc:
            labels = doc["basis"]
            dim = len(labels)

            def element(vec, what):
                """The dense coefficient list vec as an algebra element."""
                if not isinstance(vec, list) or len(vec) != dim:
                    raise InputError(f"{path}: {what} must have {dim} coefficients")
                return {r: x for r, c in enumerate(vec)
                        if (x := field.of(Fraction(c)))}

            rows = doc["mult"]
            if not isinstance(rows, list) or len(rows) != dim or any(
                    not isinstance(row, list) or len(row) != dim for row in rows):
                raise InputError(f"{path}: mult must be {dim} x {dim} products")
            mult = [{t: x for t, vec in enumerate(row)
                     if (x := element(vec, f"mult[{s}][{t}]"))}
                    for s, row in enumerate(rows)]
            unit = element(doc["unit"], "unit")
            idems = [element(e, f"idempotent {k}")
                     for k, e in enumerate(doc["idempotents"])]
            return FDAlgebra(field, labels, mult, unit, idems,
                             origin="structure-constants")
        raise InputError(f"{path}: needs a quiver or raw structure constants")
    except CertificateFailed:
        raise
    except (KeyError, TypeError, ValueError, FdhomError) as e:
        # TypeError: a value of the wrong JSON type, e.g. "p": null
        raise InputError(f"{path}: {e}")


def load_module(path: str, algebra: FDAlgebra):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: {e}")
    try:
        return _module_from_doc(doc, algebra, path)
    except (KeyError, TypeError, ValueError) as e:
        # a missing key, a value of the wrong JSON type, ragged matrix rows
        raise InputError(f"{path}: {e}")


def _module_from_doc(doc, algebra, path):
    from fdhom.modules import (Module, direct_sum, dual, injective_module,
                               projective_module, regular_module,
                               simple_module)
    from fdhom.linalg import Matrix

    if not isinstance(doc, dict):
        raise InputError(f"{path}: a module description must be a JSON object")
    build = doc.get("build")
    if build in ("projective", "simple", "injective"):
        if algebra.quiver is None:
            raise InputError(f"{path}: building at a vertex needs a quiver "
                             "presentation of the algebra")
        v = doc.get("vertex")
        if v not in algebra.quiver.vertices:
            raise InputError(f"{path}: unknown vertex {v}")
        idx = list(algebra.quiver.vertices).index(v)
        fn = {"projective": projective_module, "simple": simple_module,
              "injective": injective_module}[build]
        return fn(algebra, idx)
    if build == "regular":
        return regular_module(algebra)
    if build == "dual_regular":
        return dual(regular_module(algebra.op))
    if build == "sum":
        parts = [_module_from_doc(p, algebra, path) for p in doc["parts"]]
        s, _, _ = direct_sum(parts)
        return s
    if build == "action":
        mats = doc["matrices"]
        dims = None
        action = []
        for lbl in algebra.basis_labels:
            if lbl not in mats:
                raise InputError(f"{path}: missing action for basis {lbl}")
            rows = mats[lbl]
            action.append(Matrix(algebra.field, len(rows),
                                 len(rows[0]) if rows else 0, rows))
            dims = len(rows)
        return Module(algebra, dims or 0, action, check=True)
    raise InputError(f"{path}: unknown module build {build}")


def load_character_table(path: str):
    from fdhom.mckay import CharacterTable, ConjClass, CyclotomicNumber

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: {e}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: the document must be a JSON object")
    if doc.get("version") != 1:
        raise InputError(f"{path}: unsupported version")

    def entry(x):
        if isinstance(x, dict):
            return CyclotomicNumber(int(x.get("conductor", conductor)),
                                    [Fraction(c) for c in x["coeffs"]])
        return CyclotomicNumber.rational(Fraction(x))

    try:
        conductor = int(doc.get("conductor", 1))
        classes = [ConjClass(c["label"], int(c["size"]),
                             {int(k): int(v)
                              for k, v in c.get("power_maps", {}).items()})
                   for c in doc["classes"]]
        rows = [[entry(x) for x in row] for row in doc["irreducibles"]]
        labels = doc.get("labels") or [f"chi{i}" for i in range(len(rows))]
        table = CharacterTable(int(doc["order"]), classes, rows, labels)
        chi_v = [entry(x) for x in doc["chi_v"]] if "chi_v" in doc else None
        chi_s = [entry(x) for x in doc["chi_s"]] if "chi_s" in doc else None
        return table, chi_v, chi_s
    except CertificateFailed:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, FdhomError) as e:
        # a value of the wrong JSON type, e.g. "order": null, "power_maps": []
        raise InputError(f"{path}: {e}")


def _jsonable(x):
    if isinstance(x, AtLeastCap):
        return {"at_least": x.cap}
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def emit_report(report: dict, args) -> None:
    doc = _jsonable(report)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _dot(q: QuiverGraph) -> str:
    labels = q.labels
    lines = ["digraph ar {"]
    for lbl in labels:
        lines.append(f'  "{lbl}";')
    for i, row in enumerate(q.arrow_mult):
        for j, k in enumerate(row):
            for _ in range(k):
                lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    for i, j in sorted(q.dotted.items()):
        lines.append(f'  "{labels[i]}" -> "{labels[j]}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write_out(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


# the least value of each integer option; anything below is an input error
_OPTION_MINIMA = {"cap": 0, "n": 1, "mn_bound": 1, "m": 0}


def _check_option_ranges(args) -> None:
    for name, low in _OPTION_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} must be at least {low}, got {value}")


# -- commands -------------------------------------------------------------------


def cmd_invariants(args) -> int:
    from fdhom.homology import dim_report
    from fdhom.modules import cartan_matrix

    a = load_algebra(args.algebra)
    rep = dim_report(a, args.cap, mn_bound=args.mn_bound)
    verdicts = {
        "dim": a.dim,
        "cartan": cartan_matrix(a),
        "gldim": rep.gldim,
        "domdim": rep.domdim,
        "domdim_op": rep.domdim_op,
        "mn_table": {f"{m},{n}": v for (m, n), v in sorted(rep.mn_table.items())},
        "gorenstein_profile": rep.gorenstein_profile,
    }
    report = _base_report("invariants", args, verdicts)
    emit_report(report, args)
    return EXIT_INDETERMINATE if rep.indeterminate else EXIT_OK


def _knit_or_capped(a: FDAlgebra, command: str, args):
    """The knitted indecomposables of a, or None once a capped enumeration
    is reported (the command then exits 3)."""
    from fdhom.subcats import knit_indecomposables

    inds, complete = knit_indecomposables(a)
    if complete:
        return inds
    emit_report(_base_report(command, args, {"error": "enumeration capped"}), args)
    return None


def _base_report(command, args, verdicts, witnesses=None):
    return {
        "version": 1,
        "command": command,
        "seed": getattr(args, "seed", 0),
        "caps": {"cap": getattr(args, "cap", None)},
        "verdicts": verdicts,
        "witnesses": witnesses or {},
        "timing_ms": int((time.monotonic() - args._t0) * 1000),
    }


def cmd_indecs(args) -> int:
    from fdhom.subcats import brute_indecomposables, knit_indecomposables

    a = load_algebra(args.algebra)
    if args.method == "knit":
        mods, complete = knit_indecomposables(a, cap_count=args.cap)
    else:
        mods = brute_indecomposables(a, args.cap, seed=args.seed)
        complete = True
    listing = sorted([{"dim": m.dim, "vertex_dims": list(m.vertex_dims())}
                      for m in mods], key=lambda d: (d["dim"], d["vertex_dims"]))
    verdicts = {"count": len(mods), "complete": complete, "modules": listing}
    emit_report(_base_report("indecs", args, verdicts), args)
    return EXIT_OK if complete else EXIT_INDETERMINATE


def cmd_orthogonal(args) -> int:
    from fdhom.modules import dual, regular_module
    from fdhom.subcats import (maximal_ortho_enumerative,
                               maximal_ortho_homological)
    import itertools

    a = load_algebra(args.algebra)
    t = load_module(args.cotilting, a) if args.cotilting else \
        dual(regular_module(a.op))
    m_bound = args.m
    inds = _knit_or_capped(a, "orthogonal", args)
    if inds is None:
        return EXIT_INDETERMINATE
    from fdhom.homology import ext_dim

    perp = [z for z in inds
            if all(ext_dim(z, t, i) == 0 for i in range(1, m_bound + 1))]
    if args.mode == "enumerate":
        maximal = []
        for r in range(len(perp) + 1):
            for sub in itertools.combinations(range(len(perp)), r):
                gens = [perp[i] for i in sub]
                if not gens:
                    continue
                ok, _ = maximal_ortho_enumerative(gens, args.n, perp)
                if ok:
                    maximal.append(sorted(sub))
        verdicts = {
            "indecomposables": len(perp),
            "maximal_subcategories": maximal,
            "sizes": sorted(len(s) for s in maximal),
        }
        emit_report(_base_report("orthogonal", args, verdicts), args)
        return EXIT_OK
    gens = [load_module(p, a) for p in args.members]
    ok, wit = maximal_ortho_enumerative(gens, args.n, perp)
    hv = maximal_ortho_homological(a, gens, t, m_bound, args.n, args.cap,
                                   seed=args.seed)
    verdicts = {"enumerative": ok, "homological": hv.verdict,
                "homological_mode": hv.mode}
    witnesses = {}
    if wit is not None:
        reason, detail = wit
        witnesses["refutation"] = reason
        if hasattr(detail, "vertex_dims"):
            witnesses["module"] = {"dim": detail.dim,
                                   "vertex_dims": list(detail.vertex_dims())}
    emit_report(_base_report("orthogonal", args, verdicts, witnesses), args)
    if ok != hv.verdict and hv.mode == "iff":
        return EXIT_REFUTED
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_auslander(args) -> int:
    from fdhom.auslander import (algebra_tables_match, alpha, alpha_inv,
                                 roundtrip_equivalence, verify_triple)
    from fdhom.modules import dual, regular_module

    a = load_algebra(args.algebra)
    if args.action == "verify":
        inds = _knit_or_capped(a, "auslander", args)
        if inds is None:
            return EXIT_INDETERMINATE
        if args.modules:
            gens = [load_module(p, a) for p in args.modules]
        else:
            gens = inds
        t = load_module(args.cotilting, a) if args.cotilting else \
            dual(regular_module(a.op))
        tri = verify_triple(a, gens, t, args.m, args.n, cap=args.cap,
                            ind_b=inds, seed=args.seed)
        verdicts = {"triple_valid": tri.valid, "reason": tri.reason}
        if tri.valid and args.roundtrip:
            pres = alpha(tri, seed=args.seed)
            lam_data, m_mod, t_mod = alpha_inv(
                pres.data.algebra, pres.p_mod, pres.i_mod, args.m, args.n,
                cap=args.cap, seed=args.seed)
            verdicts["gamma_dim"] = pres.data.algebra.dim
            verdicts["lambda_dim"] = lam_data.algebra.dim
            verdicts["roundtrip_equivalent"] = roundtrip_equivalence(
                tri, pres, lam_data, m_mod, t_mod)
            verdicts["tables_match"] = algebra_tables_match(pres, lam_data)
        emit_report(_base_report("auslander", args, verdicts), args)
        if not tri.valid:
            return EXIT_REFUTED
        if args.roundtrip and not (verdicts.get("roundtrip_equivalent")
                                   and verdicts.get("tables_match")):
            return EXIT_REFUTED
        return EXIT_OK
    # reconstruct: treat the loaded algebra as Γ with P = Γf, I = D(eΓ) from
    # the first terms of the injective coresolution (the m <= n normal form)
    from fdhom.homology import injective_coresolution_terms
    from fdhom.modules import direct_sum, decompose

    terms = injective_coresolution_terms(a, args.n + 1)
    nonzero = [t_ for t_ in terms if t_.dim]
    i_mod, _, _ = direct_sum(nonzero)
    # P: the projective terms among add-I summands correspond to Γf: take the
    # projective-injectives plus what the opposite side prescribes
    terms_op = injective_coresolution_terms(a.op, args.n + 1)
    nz_op = [t_ for t_ in terms_op if t_.dim]
    j_mod, _, _ = direct_sum(nz_op)
    p_mod = dual(j_mod)
    lam_data, m_mod, t_mod = alpha_inv(a, p_mod, i_mod, args.m, args.n,
                                       cap=args.cap, seed=args.seed)
    verdicts = {
        "lambda_dim": lam_data.algebra.dim,
        "lambda_idempotents": len(lam_data.algebra.idempotents),
        "m_dim": m_mod.dim,
        "t_dim": t_mod.dim,
        "m_summands": len(decompose(m_mod, seed=args.seed).leaves),
    }
    emit_report(_base_report("auslander", args, verdicts), args)
    return EXIT_OK


def cmd_repdim(args) -> int:
    from fdhom.auslander import repdim_search

    a = load_algebra(args.algebra)
    inds = _knit_or_capped(a, "repdim", args)
    if inds is None:
        return EXIT_INDETERMINATE
    rep = repdim_search(a, args.n, inds, cap=args.cap)
    verdicts = {"repdim": rep.value, "witness": rep.witness,
                "examined": rep.examined,
                "capped_candidates": len(rep.capped)}
    emit_report(_base_report("repdim", args, verdicts), args)
    return EXIT_INDETERMINATE if isinstance(rep.value, AtLeastCap) else EXIT_OK


def cmd_obound(args) -> int:
    from fdhom.auslander import o_bound

    a = load_algebra(args.algebra)
    inds = _knit_or_capped(a, "obound", args)
    if inds is None:
        return EXIT_INDETERMINATE
    rep = o_bound(inds)
    verdicts = {"o_bound": rep.value, "witness": rep.witness}
    emit_report(_base_report("obound", args, verdicts), args)
    return EXIT_OK


def cmd_mckay(args) -> int:
    from fdhom.mckay import mckay_quiver

    table, chi_v, chi_s = load_character_table(args.table)
    if chi_v is None:
        raise InputError("character table file must carry chi_v")
    q = mckay_quiver(table, chi_v, args.d, chi_s=chi_s)
    verdicts = {"labels": q.labels, "arrow_mult": q.arrow_mult,
                "dotted": {q.labels[i]: q.labels[j]
                           for i, j in sorted(q.dotted.items())}}
    emit_report(_base_report("mckay", args, verdicts), args)
    _write_out(_dot(q), args)
    return EXIT_OK


def cmd_arquiver(args) -> int:
    from fdhom.subcats import ar_quiver

    a = load_algebra(args.algebra)
    inds = _knit_or_capped(a, "arquiver", args)
    if inds is None:
        return EXIT_INDETERMINATE
    q = ar_quiver(inds, args.n,
                  labels=[f"X{i}(dim{m.dim})" for i, m in enumerate(inds)])
    verdicts = {"vertices": len(inds), "arrow_mult": q.arrow_mult,
                "dotted": {q.labels[i]: q.labels[j]
                           for i, j in sorted(q.dotted.items())}}
    emit_report(_base_report("arquiver", args, verdicts), args)
    _write_out(_dot(q), args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It saves time only when
    `main` runs more than once in one process (tests, in-process benchmarks);
    a one-shot `fdhom` command builds it once either way.  Parsing leaves it
    as it was, and each subcommand's function is bound when it is built, so
    a `cmd_*` replaced afterwards is not called."""
    p = argparse.ArgumentParser(
        prog="fdhom",
        description="exact homological invariants of finite-dimensional algebras")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--report", help="write the JSON report to this path")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_parser(name):
        return sub.add_parser(name, parents=[common])

    sp = add_parser("invariants")
    sp.add_argument("algebra")
    sp.add_argument("--cap", type=int, default=16)
    sp.add_argument("--mn-bound", type=int, default=4, dest="mn_bound")
    sp.set_defaults(fn=cmd_invariants)

    sp = add_parser("indecs")
    sp.add_argument("algebra")
    sp.add_argument("--method", choices=["knit", "brute"], default="knit")
    sp.add_argument("--cap", type=int, default=64)
    sp.set_defaults(fn=cmd_indecs)

    sp = add_parser("orthogonal")
    sp.add_argument("algebra")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--cotilting")
    sp.add_argument("--mode", choices=["enumerate", "verify"],
                    default="enumerate")
    sp.add_argument("--members", nargs="*", default=[])
    sp.add_argument("--cap", type=int, default=16)
    sp.set_defaults(fn=cmd_orthogonal)

    sp = add_parser("auslander")
    sp.add_argument("action", choices=["verify", "reconstruct"])
    sp.add_argument("algebra")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--modules", nargs="*", default=[])
    sp.add_argument("--cotilting")
    sp.add_argument("--roundtrip", action="store_true")
    sp.add_argument("--cap", type=int, default=16)
    sp.set_defaults(fn=cmd_auslander)

    sp = add_parser("repdim")
    sp.add_argument("algebra")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--cap", type=int, default=16)
    sp.set_defaults(fn=cmd_repdim)

    sp = add_parser("obound")
    sp.add_argument("algebra")
    sp.set_defaults(fn=cmd_obound)

    sp = add_parser("mckay")
    sp.add_argument("table")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_mckay)

    sp = add_parser("arquiver")
    sp.add_argument("algebra")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_arquiver)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.monotonic()
    try:
        _check_option_ranges(args)
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except CertificateFailed as e:
        print(f"internal certificate failed: {e}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except FdhomError as e:
        print(f"indeterminate: {e}", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
