import json

import pytest

from fdhom.cli import build_parser, main

KA2 = {
    "version": 1,
    "field": {"kind": "Q"},
    "quiver": {"vertices": ["1", "2"], "arrows": [["a1", "1", "2"]]},
    "relations": [],
}

PREPROJ_A2 = {
    "version": 1,
    "field": {"kind": "Q"},
    "quiver": {"vertices": ["1", "2"],
               "arrows": [["a1", "1", "2"], ["b1", "2", "1"]]},
    "relations": [[[1, ["a1", "b1"]]], [[1, ["b1", "a1"]]]],
}

SEMISIMPLE = {
    "version": 1,
    "field": {"kind": "Q"},
    "quiver": {"vertices": ["1", "2"], "arrows": []},
    "relations": [],
}

# k[x]/(x^2) given directly by its multiplication table
DUAL_NUMBERS = {
    "version": 1,
    "field": {"kind": "Q"},
    "basis": ["1", "x"],
    "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "unit": [1, 0],
    "idempotents": [[1, 0]],
}

C2_TABLE = {
    "version": 1,
    "order": 2,
    "classes": [{"label": "1", "size": 1, "power_maps": {"2": 0}},
                {"label": "-1", "size": 1, "power_maps": {"2": 0}}],
    "irreducibles": [[1, 1], [1, -1]],
    "labels": ["triv", "sgn"],
    "chi_v": [2, -2],
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    # the report is the leading JSON object; DOT output may follow
    dec = json.JSONDecoder()
    doc, _ = dec.raw_decode(out)
    return code, doc, out


def test_invariants_ka2(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    code, doc, _ = run(capsys, ["invariants", path, "--cap", "8"])
    assert code == 0
    assert doc["verdicts"]["gldim"] == 1
    assert doc["verdicts"]["domdim"] == 1
    assert doc["verdicts"]["dim"] == 3
    assert doc["verdicts"]["cartan"] == [[1, 1], [0, 1]]
    assert doc["verdicts"]["mn_table"]["1,2"] is False


def test_the_parser_is_built_once_and_each_parse_starts_fresh(tmp_path,
                                                              capsys):
    # one parser per process: a later call sees none of an earlier call's
    # options, and the defaults are the same objects, never written to
    assert build_parser() is build_parser()
    path = write(tmp_path, "ka2.json", KA2)
    _, first, _ = run(capsys, ["invariants", path, "--cap", "3",
                               "--mn-bound", "2"])
    _, again, _ = run(capsys, ["invariants", path])
    assert first["caps"] == {"cap": 3} and len(first["verdicts"]["mn_table"]) == 4
    assert again["caps"] == {"cap": 16} and len(again["verdicts"]["mn_table"]) == 16
    args = build_parser().parse_args(["orthogonal", path, "--n", "1"])
    assert args.members == [] and args.fn.__name__ == "cmd_orthogonal"


def test_invariants_semisimple(tmp_path, capsys):
    path = write(tmp_path, "ss.json", SEMISIMPLE)
    code, doc, _ = run(capsys, ["invariants", path, "--cap", "6"])
    assert doc["verdicts"]["gldim"] == 0
    # the coresolution terminates all-projective: infinite but determinate
    assert doc["verdicts"]["domdim"] == {"at_least": 6}
    assert code == 0


def test_invariants_preprojective_indeterminate(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    code, doc, _ = run(capsys, ["invariants", path, "--cap", "6"])
    assert code == 3
    assert doc["verdicts"]["domdim"] == {"at_least": 6}
    assert doc["verdicts"]["gldim"] == {"at_least": 6}


def test_invariants_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["invariants", str(p)]) == 2


@pytest.mark.parametrize("field", [{"kind": "Fp", "p": 4}, {"kind": "Fp"}])
def test_invariants_bad_field_is_input_error(tmp_path, capsys, field):
    # a composite or missing modulus is bad input (2), never "refuted" (1)
    path = write(tmp_path, "badfield.json", dict(KA2, field=field))
    assert main(["invariants", path]) == 2


@pytest.mark.parametrize("doc", [
    [1, 2],                                  # not an object
    dict(KA2, field="Q"),                    # field is a string
    dict(KA2, field={"kind": "Fp", "p": None}),
    dict(KA2, relations=5),                  # relations not a list
])
def test_invariants_malformed_shape_is_input_error(tmp_path, capsys, doc):
    # documents of the wrong shape are bad input (2), never "refuted" (1)
    path = write(tmp_path, "shape.json", doc)
    assert main(["invariants", path]) == 2


def test_invariants_certificate_failure_exits_4(tmp_path, capsys, monkeypatch):
    # a failed internal certificate is a fault of the program (4): never
    # "refuted" (1), bad input (2) or indeterminate (3)
    import fdhom.modules

    monkeypatch.setattr(fdhom.modules, "rank", lambda m: -1)
    path = write(tmp_path, "ka2.json", KA2)
    assert main(["invariants", path, "--cap", "8"]) == 4
    assert "internal certificate failed" in capsys.readouterr().err


def test_certificate_failure_while_loading_exits_4(tmp_path, capsys, monkeypatch):
    # load_algebra turns library errors into input errors, but not this one
    import fdhom.cli
    from fdhom.errors import CertificateFailed

    def fail(*args, **kwargs):
        raise CertificateFailed("trace radical disagrees with the arrow ideal")

    monkeypatch.setattr(fdhom.cli, "build_path_algebra", fail)
    path = write(tmp_path, "ka2.json", KA2)
    assert main(["invariants", path]) == 4


def test_vertex_module_over_structure_constants_is_input_error(tmp_path, capsys):
    # a structure-constant algebra has no quiver, hence no vertex names
    alg = write(tmp_path, "dualnum.json", DUAL_NUMBERS)
    mod = write(tmp_path, "p.json", {"build": "projective", "vertex": "1"})
    assert main(["orthogonal", alg, "--n", "2", "--cotilting", mod]) == 2


def test_raw_structure_constants(tmp_path, capsys):
    path = write(tmp_path, "dualnum.json", DUAL_NUMBERS)
    code, out_doc, _ = run(capsys, ["invariants", path, "--cap", "6"])
    assert out_doc["verdicts"]["dim"] == 2
    assert out_doc["verdicts"]["gldim"] == {"at_least": 6}
    assert code == 3  # periodic resolutions: genuinely cut off at the cap


def test_raw_structure_constants_over_f2(tmp_path, capsys):
    # the radical is certified from the idempotent over F_2 as well: the
    # report is the one over QQ
    doc = dict(DUAL_NUMBERS, field={"kind": "Fp", "p": 2})
    path = write(tmp_path, "dualnum_f2.json", doc)
    code, out_doc, _ = run(capsys, ["invariants", path, "--cap", "6"])
    assert out_doc["verdicts"]["dim"] == 2
    assert out_doc["verdicts"]["gldim"] == {"at_least": 6}
    assert code == 3


def test_uncertified_radical_is_indeterminate(tmp_path, capsys):
    # k x k over F_2 given with the single idempotent 1: its corner is not
    # local, and the trace form needs p > dim, so FieldTooSmall is raised;
    # the input is valid, so that is indeterminate (3), not an input error (2)
    doc = {
        "version": 1,
        "field": {"kind": "Fp", "p": 2},
        "basis": ["e1", "e2"],
        "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        "unit": [1, 1],
        "idempotents": [[1, 1]],
    }
    path = write(tmp_path, "kxk_f2.json", doc)
    assert main(["invariants", path, "--cap", "6"]) == 3
    assert "could not be certified" in capsys.readouterr().err


def test_raw_structure_constants_invalid(tmp_path, capsys):
    doc = {
        "version": 1,
        "field": {"kind": "Q"},
        "basis": ["1", "x"],
        "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        "unit": [1, 0],
        "idempotents": [[1, 0], [0, 1]],  # x is not idempotent: rejected
    }
    path = write(tmp_path, "bad_alg.json", doc)
    assert main(["invariants", str(path)]) == 2


@pytest.mark.parametrize("doc", [
    # a product vector shorter than the basis
    dict(DUAL_NUMBERS, mult=[[[1, 0], [0, 1]], [[0, 1], [0]]]),
    # a ragged mult row
    dict(DUAL_NUMBERS, mult=[[[1, 0], [0, 1]], [[0, 1]]]),
    # a unit and an idempotent shorter than the basis
    dict(DUAL_NUMBERS, unit=[1], idempotents=[[1]]),
    # a product vector longer than the basis
    dict(DUAL_NUMBERS, mult=[[[1, 0], [0, 1]], [[0, 1], [0, 0, 1]]]),
], ids=["short product", "ragged row", "short unit", "long product"])
def test_malformed_structure_constants_are_input_errors(tmp_path, capsys, doc):
    # mult must be dim x dim x dim and the unit and each idempotent of length
    # dim; anything else is bad input (2), not a traceback (1) or a verdict
    path = write(tmp_path, "malformed.json", doc)
    assert main(["invariants", path, "--cap", "6"]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_indecs_knit_and_brute(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    code, doc, _ = run(capsys, ["indecs", path, "--method", "knit"])
    assert code == 0
    assert doc["verdicts"]["count"] == 3
    f2 = dict(KA2, field={"kind": "Fp", "p": 2})
    path2 = write(tmp_path, "ka2f2.json", f2)
    code, doc, _ = run(capsys, ["indecs", path2, "--method", "brute",
                                "--cap", "3"])
    assert code == 0
    assert doc["verdicts"]["count"] == 3


def test_orthogonal_enumerate(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    code, doc, _ = run(capsys, ["orthogonal", path, "--n", "2"])
    assert code == 0
    subs = doc["verdicts"]["maximal_subcategories"]
    assert len(subs) == 2
    assert doc["verdicts"]["sizes"] == [3, 3]


def test_orthogonal_enumerate_ka2_unique(tmp_path, capsys):
    # n = 1: the unique maximal 0-orthogonal subcategory is all of mod Λ
    path = write(tmp_path, "ka2.json", KA2)
    code, doc, _ = run(capsys, ["orthogonal", path, "--n", "1"])
    assert code == 0
    subs = doc["verdicts"]["maximal_subcategories"]
    assert len(subs) == 1
    assert len(subs[0]) == 3


def test_orthogonal_verify_refutation(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    p1 = write(tmp_path, "p1.json", {"version": 1, "build": "projective",
                                     "vertex": "1"})
    p2 = write(tmp_path, "p2.json", {"version": 1, "build": "projective",
                                     "vertex": "2"})
    code, doc, _ = run(capsys, ["orthogonal", path, "--n", "2", "--mode",
                                "verify", "--members", p1, p2])
    assert code == 1
    assert doc["verdicts"]["enumerative"] is False
    assert doc["verdicts"]["homological"] is False
    assert "module" in doc["witnesses"]


def test_orthogonal_verify_pass(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    members = [
        write(tmp_path, "p1.json",
              {"version": 1, "build": "projective", "vertex": "1"}),
        write(tmp_path, "p2.json",
              {"version": 1, "build": "projective", "vertex": "2"}),
        write(tmp_path, "s1.json",
              {"version": 1, "build": "simple", "vertex": "1"}),
    ]
    code, doc, _ = run(capsys, ["orthogonal", path, "--n", "2", "--mode",
                                "verify", "--members", *members])
    assert code == 0
    assert doc["verdicts"]["enumerative"] is True
    assert doc["verdicts"]["homological"] is True


def test_auslander_verify_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    code, doc, _ = run(capsys, ["auslander", "verify", path, "--m", "0",
                                "--n", "1", "--roundtrip", "--cap", "8"])
    assert code == 0
    assert doc["verdicts"]["triple_valid"] is True
    assert doc["verdicts"]["roundtrip_equivalent"] is True
    assert doc["verdicts"]["tables_match"] is True
    assert doc["verdicts"]["gamma_dim"] == 5
    assert doc["verdicts"]["lambda_dim"] == 3


def test_auslander_reconstruct_loop(tmp_path, capsys):
    # the Auslander algebra of k[x]/(x^2), presented by its quiver
    auslander_loop = {
        "version": 1,
        "field": {"kind": "Q"},
        "quiver": {"vertices": ["u", "v"],
                   "arrows": [["a", "u", "v"], ["b", "v", "u"]]},
        "relations": [[[1, ["b", "a"]]]],
    }
    path = write(tmp_path, "ausloop.json", auslander_loop)
    code, doc, _ = run(capsys, ["auslander", "reconstruct", path, "--m", "0",
                                "--n", "1", "--cap", "8"])
    assert code == 0
    assert doc["verdicts"]["lambda_dim"] == 2
    assert doc["verdicts"]["lambda_idempotents"] == 1
    assert doc["verdicts"]["m_summands"] == 2


def test_orthogonal_verify_with_cotilting_file(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    t_file = write(tmp_path, "t.json", {"version": 1, "build": "dual_regular"})
    members = [
        write(tmp_path, "p1.json",
              {"version": 1, "build": "projective", "vertex": "1"}),
        write(tmp_path, "p2.json",
              {"version": 1, "build": "projective", "vertex": "2"}),
        write(tmp_path, "s2.json",
              {"version": 1, "build": "simple", "vertex": "2"}),
    ]
    code, doc, _ = run(capsys, ["orthogonal", path, "--n", "2",
                                "--cotilting", t_file, "--mode", "verify",
                                "--members", *members])
    assert code == 0
    assert doc["verdicts"]["enumerative"] is True


def test_module_file_with_explicit_action(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    # S1 over kA2 by explicit 1x1 action matrices, basis order e(1), e(2), a1
    mod = {"version": 1, "build": "action",
           "matrices": {"e(1)": [[1]], "e(2)": [[0]], "a1": [[0]]}}
    m_file = write(tmp_path, "s1_explicit.json", mod)
    members = [
        m_file,
        write(tmp_path, "p1.json",
              {"version": 1, "build": "projective", "vertex": "1"}),
        write(tmp_path, "p2.json",
              {"version": 1, "build": "projective", "vertex": "2"}),
    ]
    code, doc, _ = run(capsys, ["orthogonal", path, "--n", "1", "--mode",
                                "verify", "--members", *members])
    assert code == 0
    assert doc["verdicts"]["enumerative"] is True


def test_module_file_bad_action_rejected(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    mod = {"version": 1, "build": "action",
           "matrices": {"e(1)": [[1]], "e(2)": [[1]], "a1": [[0]]}}
    m_file = write(tmp_path, "bad.json", mod)
    code = main(["orthogonal", path, "--n", "1", "--mode", "verify",
                 "--members", m_file])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("table", [
    [C2_TABLE],                              # not an object
    dict(C2_TABLE, order=None),              # order of the wrong JSON type
    dict(C2_TABLE, classes=[{"label": "1", "size": 1, "power_maps": []}]),
])
def test_mckay_malformed_table_is_input_error(tmp_path, capsys, table):
    path = write(tmp_path, "table.json", table)
    assert main(["mckay", path, "--d", "2"]) == 2


def test_sum_module_without_parts_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    m_file = write(tmp_path, "sum.json", {"version": 1, "build": "sum"})
    assert main(["orthogonal", path, "--n", "1", "--mode", "verify",
                 "--members", m_file]) == 2
    assert main(["orthogonal", path, "--n", "1", "--cotilting", m_file]) == 2


def test_module_file_with_ragged_action_rows_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    mod = {"version": 1, "build": "action",
           "matrices": {"e(1)": [[1, 0], [0]], "e(2)": [[0, 0], [0, 1]],
                        "a1": [[0, 0], [1, 0]]}}
    m_file = write(tmp_path, "ragged.json", mod)
    assert main(["orthogonal", path, "--n", "1", "--mode", "verify",
                 "--members", m_file]) == 2


def test_mckay_with_supplied_determinant(tmp_path, capsys):
    table = dict(C2_TABLE)
    table["classes"] = [{"label": "1", "size": 1},
                        {"label": "-1", "size": 1}]  # no power maps
    table["chi_s"] = [1, 1]
    path = write(tmp_path, "c2s.json", table)
    code, doc, _ = run(capsys, ["mckay", path, "--d", "2"])
    assert code == 0
    assert doc["verdicts"]["arrow_mult"] == [[0, 2], [2, 0]]


def test_repdim(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    code, doc, _ = run(capsys, ["repdim", path, "--n", "1", "--cap", "8"])
    assert code == 0
    assert doc["verdicts"]["repdim"] == 2
    assert len(doc["verdicts"]["witness"]) == 4


def test_obound(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    code, doc, _ = run(capsys, ["obound", path])
    assert code == 0
    assert doc["verdicts"]["o_bound"] == 3


def test_mckay_dot(tmp_path, capsys):
    path = write(tmp_path, "c2.json", C2_TABLE)
    code, doc, out = run(capsys, ["mckay", path, "--d", "2"])
    assert code == 0
    assert doc["verdicts"]["arrow_mult"] == [[0, 2], [2, 0]]
    dot = out[out.index("digraph"):]
    assert dot.count('"triv" -> "sgn";') == 2
    assert dot.count('"sgn" -> "triv";') == 2
    assert dot.count("style=dashed") == 2


def test_arquiver_dot(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    out_path = tmp_path / "q.dot"
    code, doc, _ = run(capsys, ["arquiver", path, "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    # solid arrows equal the in-memory count; one dashed tau arrow
    solid = sum(sum(r) for r in doc["verdicts"]["arrow_mult"])
    assert text.count("->") - text.count("dashed") == solid == 2
    assert text.count("dashed") == 1


def test_report_determinism(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    _, doc1, _ = run(capsys, ["obound", path])
    _, doc2, _ = run(capsys, ["obound", path])
    doc1.pop("timing_ms")
    doc2.pop("timing_ms")
    assert doc1 == doc2


def test_report_file(tmp_path, capsys):
    path = write(tmp_path, "ka2.json", KA2)
    rep = tmp_path / "report.json"
    code = main(["invariants", path, "--cap", "8", "--report", str(rep)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["verdicts"]["gldim"] == 1


def test_seed_flag_threads_through(tmp_path, capsys):
    path = write(tmp_path, "pp.json", PREPROJ_A2)
    code, doc, _ = run(capsys, ["repdim", path, "--n", "1", "--seed", "5"])
    assert code == 0
    assert doc["seed"] == 5
    assert doc["verdicts"]["repdim"] == 2


@pytest.mark.parametrize("argv", [
    ["orthogonal", "--n", "1"],
    ["auslander", "verify", "--m", "0", "--n", "1"],
    ["repdim"],
    ["obound"],
    ["arquiver"],
], ids=lambda argv: argv[0])
def test_capped_knitting_reports_and_exits_3(tmp_path, capsys, monkeypatch, argv):
    import fdhom.subcats

    path = write(tmp_path, "ka2.json", KA2)
    knit = fdhom.subcats.knit_indecomposables
    monkeypatch.setattr(fdhom.subcats, "knit_indecomposables",
                        lambda a, **kw: (knit(a, **kw)[0], False))
    # the algebra path follows the subcommand (and the action of auslander)
    pos = 2 if argv[0] == "auslander" else 1
    code, doc, out = run(capsys, argv[:pos] + [path] + argv[pos:])
    assert code == 3
    assert doc["command"] == argv[0]
    assert doc["verdicts"] == {"error": "enumeration capped"}
    assert "digraph" not in out


@pytest.mark.parametrize("argv", [
    ["invariants", "--cap", "-1"],
    ["invariants", "--mn-bound", "0"],
    ["invariants", "--mn-bound", "-2"],
    ["arquiver", "--n", "0"],
    ["auslander", "reconstruct", "--m", "0", "--n", "-1"],
    ["auslander", "verify", "--n", "1", "--m", "-1"],
    ["repdim", "--cap", "-3"],
    ["indecs", "--cap", "-1"],
    ["orthogonal", "--n", "0"],
    ["orthogonal", "--n", "1", "--m", "-1"],
], ids=" ".join)
def test_integer_option_out_of_range_is_input_error(tmp_path, capsys, argv):
    # checked before any work: no report, exit 2, and the last flag given
    # (the one out of range) is named
    path = write(tmp_path, "ka2.json", KA2)
    pos = 2 if argv[0] == "auslander" else 1
    assert main(argv[:pos] + [path] + argv[pos:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{argv[-2]} must be at least" in err


@pytest.mark.parametrize("argv, code", [
    (["invariants", "--cap", "0"], 3),
    (["invariants", "--mn-bound", "1"], 0),
    (["indecs", "--cap", "0"], 3),
    (["orthogonal", "--n", "1", "--m", "0", "--cap", "0"], 0),
], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_integer_options_at_their_least_values_still_run(tmp_path, capsys,
                                                         argv, code):
    path = write(tmp_path, "ka2.json", KA2)
    got, doc, _ = run(capsys, argv[:1] + [path] + argv[1:])
    assert got == code
    assert doc["command"] == argv[0]
