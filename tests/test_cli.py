import json
from pathlib import Path

import pytest

from phl.cli import main
from phl.theories import MON_SRC, POS_SRC, PREORDER_SRC

CHAIN2 = """\
model chain2 of pos
carrier *: a b;
rel leq: (a,a) (a,b) (b,b);
"""

CYCLE = """\
model cyc of pos
carrier *: a b;
rel leq: (a,a) (a,b) (b,a) (b,b);
"""

COLLAPSE_HOM = """\
hom collapse : chain2 -> chain2
map *: a->b b->b;
"""

QUIV_SRC = """\
theory quiv
sorts: e v
fun s : e -> v;
fun t : e -> v;
axiom st_total [f:e] true |- def(s(f)) /\\ def(t(f));
"""

MORPH_SRC = """\
morphism emb : quiv -> quiv
sort e => e;
sort v => v;
fun s => [f:e] s(f);
fun t => [f:e] t(f);
"""

EDGE = """\
model edge of quiv
carrier e: f0;
carrier v: v0 v1;
fun s: (f0) -> v0;
fun t: (f0) -> v1;
"""

SKETCH_SRC = """\
sketch prodsk
objects: s1 s2 v;
arrow iv : v -> v;  arrow i1 : s1 -> s1;  arrow i2 : s2 -> s2;
arrow p0 : v -> s1;
arrow p1 : v -> s2;
identity v = iv; identity s1 = i1; identity s2 = i2;
compose i1 i1 = i1; compose i2 i2 = i2; compose iv iv = iv;
product-cone v [p0 p1];
"""


@pytest.fixture
def files(tmp_path):
    (tmp_path / "pos.phl").write_text(POS_SRC)
    (tmp_path / "mon.phl").write_text(MON_SRC)
    (tmp_path / "preord.phl").write_text(PREORDER_SRC)
    (tmp_path / "chain2.model").write_text(CHAIN2)
    (tmp_path / "cyc.model").write_text(CYCLE)
    (tmp_path / "collapse.hom").write_text(COLLAPSE_HOM)
    (tmp_path / "quiv.phl").write_text(QUIV_SRC)
    (tmp_path / "emb.phlm").write_text(MORPH_SRC)
    (tmp_path / "prodsk.sk").write_text(SKETCH_SRC)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_model_ok(self, files, capsys):
        code, out, _ = run(capsys, "check", files / "pos.phl",
                           files / "chain2.model")
        assert code == 0
        assert "satisfies" in out

    def test_violation_exit_1(self, files, capsys):
        code, out, _ = run(capsys, "check", files / "pos.phl",
                           files / "cyc.model")
        assert code == 1
        assert "antisym" in out

    def test_missing_file_exit_12(self, files, capsys):
        code, _, err = run(capsys, "check", files / "pos.phl",
                           files / "nope.model")
        assert code == 12

    def test_parse_error_exit_11(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.phl"
        bad.write_text("theory broken\nsorts *;")
        code, _, err = run(capsys, "check", bad, files / "chain2.model")
        assert code == 11

    def test_carrier_given_twice_exit_11(self, files, capsys):
        (files / "dup.model").write_text(CHAIN2 + "carrier *: c;\n")
        code, out, err = run(capsys, "check", files / "pos.phl",
                             files / "dup.model")
        assert (code, out) == (11, "")
        assert "carrier * given twice" in err


class TestProve:
    def test_axiom_proved(self, files, capsys):
        code, out, _ = run(capsys, "prove", files / "pos.phl",
                           "[x:*] true |- leq(x,x)")
        assert code == 0
        assert "Proved" in out

    def test_refuted_with_countermodel(self, files, capsys):
        code, out, _ = run(capsys, "prove", files / "mon.phl",
                           "[x:*] true |- mul(x,x) = x", "-k", "2")
        assert code == 1
        assert "witness" in out and "carrier" in out

    def test_unknown_exit_2(self, files, capsys):
        code, out, _ = run(capsys, "prove", files / "mon.phl",
                           "[x:*, y:*] true |- mul(x,y) = mul(y,x)",
                           "-k", "1", "-d", "1")
        assert code == 2

    def test_usage_error_exit_10(self, files, capsys):
        code, _, err = run(capsys, "prove", files / "pos.phl")
        assert code == 10

    def test_trace_length(self, capsys):
        # one trace event per merge or fact saturation adds
        data = Path(__file__).resolve().parent.parent / "data"
        code, out, _ = run(capsys, "prove", data / "pos.phl",
                           "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)",
                           "--json")
        assert code == 0
        assert json.loads(out)["trace_length"] == 6

    def test_depth_env_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("PHL_BUDGET_DEPTH", "2")
        code, out, _ = run(capsys, "prove", files / "pos.phl",
                           "[x:*] true |- leq(x,x)", "--json")
        assert code == 0
        assert json.loads(out)["depth"] == 2

    def test_bad_depth_env_exit_10(self, files, capsys, monkeypatch):
        monkeypatch.setenv("PHL_BUDGET_DEPTH", "two")
        code, out, err = run(capsys, "prove", files / "pos.phl",
                             "[x:*] true |- leq(x,x)")
        assert (code, out) == (10, "")
        assert err == "usage error: bad PHL_BUDGET_DEPTH 'two'\n"

    def test_elaborate_prints_tree(self, files, capsys):
        code, out, _ = run(capsys, "prove", files / "pos.phl",
                           "[x:*] true |- leq(x,x)", "--elaborate")
        assert code == 0
        assert "[rule Axiom {\"name\": \"refl\"}]" in out
        code, out, _ = run(capsys, "prove", files / "pos.phl",
                           "[x:*] true |- leq(x,x)", "--elaborate", "--json")
        assert "[rule Axiom" in json.loads(out)["derivation"]

    def test_elaborate_without_tree(self, files, capsys):
        # two unit instances: proved by saturation, out of elaborate's reach
        seq = "[x:*] true |- mul(mul(e,x),e) = x"
        code, out, _ = run(capsys, "prove", files / "mon.phl", seq,
                           "--elaborate")
        assert code == 0
        assert out.splitlines()[1] == ("no explicit tree found; "
                                       "saturation trace stands")
        code, out, _ = run(capsys, "prove", files / "mon.phl", seq,
                           "--elaborate", "--json")
        assert json.loads(out)["derivation"] is None


class TestFree:
    def test_presentation_output(self, files, capsys):
        code, out, _ = run(capsys, "free", files / "pos.phl",
                           "[x:*, y:*] leq(x,y)", "-d", "2")
        assert code == 0
        assert "Saturated" in out and "rel leq" in out


class TestFactor:
    def test_triple_printed(self, files, capsys):
        code, out, _ = run(capsys, "factor", files / "pos.phl",
                           files / "collapse.hom")
        assert code == 0
        assert "dense part" in out and "closed mono part" in out

    def test_map_for_unknown_sort_exit_11(self, files, capsys):
        (files / "extra.hom").write_text(COLLAPSE_HOM + "map bogus: a->zz;\n")
        code, out, err = run(capsys, "factor", files / "pos.phl",
                             files / "extra.hom")
        assert code == 11
        assert out == ""
        assert "map for unknown sort 'bogus'" in err

    def test_element_mapped_twice_exit_11(self, files, capsys):
        (files / "twice.hom").write_text(COLLAPSE_HOM + "map *: a->a;\n")
        code, out, err = run(capsys, "factor", files / "pos.phl",
                             files / "twice.hom")
        assert (code, out) == (11, "")
        assert "map *: element 'a' mapped twice" in err

    def test_sibling_models_from_commented_compact_header(self, files, capsys):
        (files / "compact.hom").write_text(
            "# the collapse, header written without spaces\n"
            + COLLAPSE_HOM.replace("collapse : chain2 -> chain2",
                                   "collapse: chain2->chain2"))
        code, out, err = run(capsys, "factor", files / "pos.phl",
                             files / "compact.hom", "--json")
        assert code == 0, err
        _, want, _ = run(capsys, "factor", files / "pos.phl",
                         files / "collapse.hom", "--json")
        assert out == want


    def test_each_hom_checked_once(self, files, capsys, monkeypatch):
        from phl import morphology, semantics
        calls, check = [], semantics.check_hom

        def counted(h):
            calls.append(h.name)
            return check(h)

        monkeypatch.setattr(morphology, "check_hom", counted)
        monkeypatch.setattr(semantics, "check_hom", counted)
        code, _, _ = run(capsys, "factor", files / "pos.phl",
                         files / "collapse.hom")
        assert code == 0
        assert sorted(calls) == ["collapse", "collapse_dense", "incl"]

    def test_non_hom_rejected(self, files, capsys):
        (files / "flip.hom").write_text(
            COLLAPSE_HOM.replace("collapse", "flip").replace("a->b b->b",
                                                             "a->b b->a"))
        code, out, err = run(capsys, "factor", files / "pos.phl",
                             files / "flip.hom")
        assert (code, out) == (11, "")
        assert err == "error: 'flip' is not a homomorphism\n"

    def test_repeated_model_name_exit_11(self, files, capsys):
        code, out, err = run(capsys, "factor", files / "pos.phl",
                             files / "collapse.hom",
                             "--model", files / "chain2.model",
                             "--model", files / "chain2.model")
        assert (code, out) == (11, "")
        assert err == "error: duplicate model name 'chain2'\n"

    def test_sibling_model_colliding_with_model_flag(self, files, capsys):
        # the sibling chain2.model declares the model that --model loaded
        # as c2, so the two cannot both be c2
        other = files / "other"
        other.mkdir()
        (other / "c2.model").write_text(CHAIN2.replace("chain2", "c2"))
        (files / "chain2.model").write_text(CHAIN2.replace("chain2", "c2"))
        (files / "to_c2.hom").write_text("hom h : chain2 -> c2\n"
                                         "map *: a->a b->b;\n")
        code, out, err = run(capsys, "factor", files / "pos.phl",
                             files / "to_c2.hom",
                             "--model", other / "c2.model")
        assert (code, out) == (11, "")
        assert err == "error: duplicate model name 'c2'\n"


class TestTranslate:
    def test_check_obligations(self, files, capsys):
        code, out, _ = run(capsys, "translate", "--check",
                           files / "emb.phlm")
        assert code == 0
        assert "accepted" in out

    def test_sequent_translation(self, files, capsys):
        code, out, _ = run(capsys, "translate", files / "emb.phlm",
                           "[f:e] true |- def(s(f))")
        assert code == 0
        assert "def(s(f))" in out

    def test_sibling_theories_from_commented_compact_header(self, files, capsys):
        (files / "compact.phlm").write_text(
            "# the identity on quivers\n"
            + MORPH_SRC.replace("emb : quiv -> quiv", "emb: quiv->quiv"))
        code, out, err = run(capsys, "translate", files / "compact.phlm",
                             "[f:e] true |- def(s(f))")
        assert code == 0, err
        assert "def(s(f))" in out

    def test_model_translation(self, files, capsys):
        (files / "edge.model").write_text(EDGE)
        code, out, _ = run(capsys, "translate", files / "emb.phlm",
                           files / "edge.model", "--json")
        assert code == 0
        assert json.loads(out)["model"] == EDGE.replace("model edge",
                                                        "model U_edge")

    def test_missing_input_exit_10(self, files, capsys):
        code, out, err = run(capsys, "translate", files / "emb.phlm")
        assert (code, out) == (10, "")
        assert err == ("usage error: translate needs INPUT "
                       "(a model file or an inline sequent)\n")

    def test_check_refuted_exit_1(self, files, capsys):
        (files / "loops.phl").write_text(
            QUIV_SRC.replace("theory quiv", "theory loops")
            + "axiom loop [f:e] true |- s(f) = t(f);\n")
        (files / "unloop.phlm").write_text(
            MORPH_SRC.replace("emb : quiv", "unloop : loops"))
        code, out, _ = run(capsys, "translate", "--check",
                           files / "unloop.phlm")
        assert code == 1
        assert out == "st_total: Proved\nloop: Refuted\nnot accepted\n"

    def test_check_unknown_exit_2(self, files, capsys):
        (files / "cmon.phl").write_text(
            "theory cmon\nsorts: *\nfun e : -> *;\nfun mul : * * -> *;\n"
            "axiom comm [x:*, y:*] true |- mul(x,y) = mul(y,x);\n")
        (files / "forget.phlm").write_text(
            "morphism forget : cmon -> mon\nsort * => *;\nfun e => [] e;\n"
            "fun mul => [x:*, y:*] mul(x,y);\n")
        code, out, _ = run(capsys, "translate", "--check",
                           files / "forget.phlm", "-d", "1", "--json")
        assert code == 2
        assert json.loads(out)["obligations"] == {"comm": "Unknown"}

    def test_check_with_countermodel_bound_exit_1(self, files, capsys):
        (files / "cmon.phl").write_text(
            "theory cmon\nsorts: *\nfun e : -> *;\nfun mul : * * -> *;\n"
            "axiom comm [x:*, y:*] true |- mul(x,y) = mul(y,x);\n")
        (files / "forget.phlm").write_text(
            "morphism forget : cmon -> mon\nsort * => *;\nfun e => [] e;\n"
            "fun mul => [x:*, y:*] mul(x,y);\n")
        code, out, _ = run(capsys, "translate", "--check",
                           files / "forget.phlm", "-k", "3")
        assert code == 1
        assert out == "comm: Refuted\nnot accepted\n"

    def test_repeated_theory_name_exit_11(self, files, capsys):
        code, out, err = run(capsys, "translate", files / "emb.phlm",
                             "[f:e] true |- def(s(f))",
                             "--theory", files / "quiv.phl",
                             "--theory", files / "quiv.phl")
        assert (code, out) == (11, "")
        assert err == "error: duplicate theory name 'quiv'\n"

    def test_sibling_theory_colliding_with_theory_flag(self, files, capsys):
        other = files / "other"
        other.mkdir()
        (other / "q.phl").write_text(QUIV_SRC)
        (files / "to_q.phlm").write_text(
            MORPH_SRC.replace("emb : quiv -> quiv", "emb : q -> quiv"))
        (files / "q.phl").write_text(QUIV_SRC)
        code, out, err = run(capsys, "translate", files / "to_q.phlm",
                             "[f:e] true |- def(s(f))",
                             "--theory", other / "q.phl")
        assert (code, out) == (11, "")
        assert err == "error: duplicate theory name 'quiv'\n"

    @pytest.mark.parametrize("line, message", [
        ("sort v => v;", "sort v given twice"),
        ("fun t => [f:e] s(f);", "fun t given twice"),
    ])
    def test_line_given_twice_exit_11(self, files, capsys, line, message):
        (files / "dup.phlm").write_text(MORPH_SRC + line + "\n")
        code, out, err = run(capsys, "translate", files / "dup.phlm",
                             "[f:e] true |- def(s(f))")
        assert (code, out) == (11, "")
        assert message in err

    def test_unmapped_sort_exit_11(self, files, capsys):
        (files / "gap.phlm").write_text(MORPH_SRC.replace("sort v => v;\n", ""))
        code, out, err = run(capsys, "translate", files / "gap.phlm",
                             "[f:e] true |- def(s(f))")
        assert (code, out) == (11, "")
        assert err == "error: bad theory morphism 'emb': unmapped sort 'v'\n"

    def test_unknown_source_symbols_exit_11(self, files, capsys):
        (files / "extra.phlm").write_text(
            MORPH_SRC + "sort w => v;\nfun u => [f:e] s(f);\n"
            "rel r => [x:v] x = x;\n")
        code, out, err = run(capsys, "translate", files / "extra.phlm",
                             "[f:e] true |- def(s(f))")
        assert (code, out) == (11, "")
        assert err == ("error: bad theory morphism 'emb': sort map for "
                       "unknown sort 'w'; assignment for unknown function "
                       "'u'; assignment for unknown relation 'r'\n")


class TestSketch:
    def test_theory_emitted(self, files, capsys):
        code, out, _ = run(capsys, "sketch2pht", files / "prodsk.sk")
        assert code == 0
        assert "fun tup0 : s1 s2 -> v;" in out
        assert "axiom prod0_beta" in out

    def test_sketch_missing_an_identity(self, capsys, tmp_path):
        path = tmp_path / "gap.sk"
        path.write_text("sketch gap\nobjects: a b;\narrow ia : a -> a;\n"
                        "identity a = ia;\ncompose ia ia = ia;\n")
        code, out, err = run(capsys, "sketch2pht", path)
        assert code == 11
        assert out == ""
        assert "missing identity for 'b'" in err

    def test_sketch_missing_a_composite(self, capsys, tmp_path):
        path = tmp_path / "gap.sk"
        path.write_text("sketch gap\nobjects: a b c;\n"
                        "arrow ia : a -> a;\narrow ib : b -> b;\n"
                        "arrow ic : c -> c;\narrow f : a -> b;\n"
                        "arrow g : b -> c;\nidentity a = ia;\n"
                        "identity b = ib;\nidentity c = ic;\n")
        code, out, err = run(capsys, "sketch2pht", path)
        assert code == 11
        assert out == ""
        assert "bad sketch 'gap': missing composite (g,f)" in err

    def test_sketch_repeated_object(self, capsys, tmp_path):
        path = tmp_path / "dup.sk"
        path.write_text("sketch dup\nobjects: a a;\narrow ia : a -> a;\n"
                        "identity a = ia;\ncompose ia ia = ia;\n")
        code, out, err = run(capsys, "sketch2pht", path)
        assert code == 11
        assert out == ""
        assert "bad sketch 'dup': duplicate object 'a'" in err

    @pytest.mark.parametrize("line, message", [
        ("compose ia ia = ia;", "compose ia ia given twice"),
        ("identity a = ia;", "identity a given twice"),
    ])
    def test_sketch_line_given_twice(self, capsys, tmp_path, line, message):
        path = tmp_path / "dup.sk"
        path.write_text("sketch dup\nobjects: a;\narrow ia : a -> a;\n"
                        "identity a = ia;\ncompose ia ia = ia;\n" + line + "\n")
        code, out, err = run(capsys, "sketch2pht", path)
        assert (code, out) == (11, "")
        assert message in err


class TestBirkhoff:
    def test_poset_experiment(self, files, capsys, tmp_path):
        from phl.semantics import enumerate_models, print_model
        from phl.theories import preorder_theory
        pool = tmp_path / "pool"
        pool.mkdir()
        for i, m in enumerate(enumerate_models(preorder_theory(), 2)):
            (pool / f"{m.name}.model").write_text(print_model(m, "preord"))
        judg = tmp_path / "antisym.phl"
        judg.write_text(
            "theory judgments\nsorts: *\nrel leq : * *;\n"
            "axiom antisym [x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y;\n")
        code, out, _ = run(capsys, "birkhoff", files / "preord.phl",
                           "--pool", pool, "--judgments", judg, "-d", "2")
        assert code == 0
        assert "PASS" in out

    def test_class_filter_agrees(self, files, capsys, tmp_path):
        from phl.semantics import enumerate_models, print_model
        from phl.theories import preorder_theory
        pool = tmp_path / "pool"
        pool.mkdir()
        for m in enumerate_models(preorder_theory(), 2):
            (pool / f"{m.name}.model").write_text(print_model(m, "preord"))
        judg = tmp_path / "antisym.phl"
        judg.write_text(
            "theory judgments\nsorts: *\nrel leq : * *;\n"
            "axiom antisym [x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y;\n")
        code, out, _ = run(capsys, "birkhoff", files / "preord.phl",
                           "--pool", pool, "--judgments", judg,
                           "--class", judg, "-d", "2")
        assert code == 0
        assert "judgments define the class file: yes" in out

    def test_class_filter_mismatch(self, files, capsys, tmp_path):
        from phl.semantics import enumerate_models, print_model
        from phl.theories import preorder_theory
        pool = tmp_path / "pool"
        pool.mkdir()
        for m in enumerate_models(preorder_theory(), 2):
            (pool / f"{m.name}.model").write_text(print_model(m, "preord"))
        judg = tmp_path / "antisym.phl"
        judg.write_text(
            "theory judgments\nsorts: *\nrel leq : * *;\n"
            "axiom antisym [x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y;\n")
        other = tmp_path / "sym.phl"
        other.write_text(
            "theory other\nsorts: *\nrel leq : * *;\n"
            "axiom sym [x:*, y:*] leq(x,y) |- leq(y,x);\n")
        code, out, _ = run(capsys, "birkhoff", files / "preord.phl",
                           "--pool", pool, "--judgments", judg,
                           "--class", other, "-d", "2")
        assert code == 1
        assert "class mismatch" in out

    def test_judgment_signature_mismatch(self, files, capsys, tmp_path):
        pool = tmp_path / "pool"
        pool.mkdir()
        code, out, err = run(capsys, "birkhoff", files / "preord.phl",
                             "--pool", pool, "--judgments", files / "mon.phl")
        assert (code, out) == (11, "")
        assert err == "error: judgment file must share the theory's signature\n"

    def test_class_signature_mismatch(self, files, capsys, tmp_path):
        pool = tmp_path / "pool"
        pool.mkdir()
        code, out, err = run(capsys, "birkhoff", files / "preord.phl",
                             "--pool", pool, "--judgments", files / "pos.phl",
                             "--class", files / "mon.phl")
        assert (code, out) == (11, "")
        assert err == "error: class file must share the theory's signature\n"

    def test_pool_not_a_directory_exit_12(self, files, capsys):
        code, out, err = run(capsys, "birkhoff", files / "preord.phl",
                             "--pool", files / "chain2.model",
                             "--judgments", files / "pos.phl")
        assert (code, out) == (12, "")
        assert err == f"missing file: {files / 'chain2.model'}\n"

    def test_repeated_pool_model_name(self, files, capsys, tmp_path):
        pool = tmp_path / "pool"
        pool.mkdir()
        (pool / "a.model").write_text(CHAIN2)
        (pool / "b.model").write_text(CHAIN2)
        code, out, err = run(capsys, "birkhoff", files / "pos.phl",
                             "--pool", pool, "--judgments", files / "pos.phl")
        assert (code, out) == (11, "")
        assert err == "error: duplicate pool model name 'chain2'\n"

    def test_pool_member_not_a_model(self, files, capsys, tmp_path):
        pool = tmp_path / "pool"
        pool.mkdir()
        (pool / "a.model").write_text(CHAIN2)
        (pool / "b.model").write_text(CYCLE)
        code, out, err = run(capsys, "birkhoff", files / "pos.phl",
                             "--pool", pool, "--judgments", files / "pos.phl")
        assert (code, out) == (11, "")
        assert err == "error: pool member 'cyc' is not a model\n"

    def test_truncated_presentation_skipped(self, files, capsys, tmp_path):
        from phl.semantics import enumerate_models, print_model
        from phl.theories import mon_theory
        pool = tmp_path / "pool"
        pool.mkdir()
        for m in enumerate_models(mon_theory(), 2):
            (pool / f"{m.name}.model").write_text(print_model(m, "mon"))
        judg = tmp_path / "idem.phl"
        judg.write_text(MON_SRC.split("axiom")[0].replace("theory mon",
                                                          "theory idem")
                        + "axiom idem [x:*] true |- mul(x,x) = x;\n")
        code, out, _ = run(capsys, "birkhoff", files / "mon.phl",
                           "--pool", pool, "--judgments", judg, "-d", "1")
        assert code == 0
        assert "  skipped: idem: presentation truncated at depth 1\n" in out

    def test_failure_lines(self, files, capsys, tmp_path, monkeypatch):
        # sound closures never reach a failure, so the report is stubbed
        from phl import birkhoff
        rep = birkhoff.DefinabilityReport(
            class_size=1, fixed_point=False, closure_failures=("M1xM1",),
            pool_insufficiency=(), orthogonality_ok=False,
            orthogonality_failures=("antisym vs M0",))
        monkeypatch.setattr(birkhoff, "definability_check",
                            lambda *a, **k: rep)
        pool = tmp_path / "pool"
        pool.mkdir()
        code, out, _ = run(capsys, "birkhoff", files / "preord.phl",
                           "--pool", pool, "--judgments", files / "preord.phl")
        assert code == 1
        assert out == ("class size: 1\nhsp fixed point: NO\n"
                       "  closure failure: M1xM1\n"
                       "orthogonality matches validity: NO\n"
                       "  mismatch: antisym vs M0\nFAIL\n")


class TestFmt:
    def test_pretty_print(self, files, capsys):
        code, out, _ = run(capsys, "fmt", files / "pos.phl")
        assert code == 0
        assert out.startswith("theory pos")

    def test_not_a_theory_exit_10(self, files, capsys):
        code, out, err = run(capsys, "fmt", files / "chain2.model")
        assert (code, out) == (10, "")
        assert err == ("usage error: fmt supports theory files "
                       "(header 'theory NAME')\n")


class TestJsonDeterminism:
    def test_byte_identical_reports(self, files, capsys):
        args = ["prove", str(files / "pos.phl"),
                "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y", "--json"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)

    def test_refutation_report_stable(self, files, capsys):
        args = ["prove", str(files / "mon.phl"),
                "[x:*] true |- mul(x,x) = x", "-k", "2", "--json"]
        main(args)
        out1 = capsys.readouterr().out
        main(args)
        out2 = capsys.readouterr().out
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["verdict"] == "Refuted"


class TestUnreadableInput:
    """A path that is not a regular file exits 12 and one that is not UTF-8
    text exits 11, each with a message that names it."""

    def test_check_on_a_directory(self, files, capsys):
        code, out, err = run(capsys, "check", files / "pos.phl", files)
        assert (code, out) == (12, "")
        assert err == f"missing file: {files} is not a regular file\n"

    def test_translate_a_directory(self, files, capsys):
        code, out, err = run(capsys, "translate", files)
        assert (code, out) == (12, "")
        assert err == f"missing file: {files} is not a regular file\n"

    def test_pool_entry_that_is_a_directory(self, files, capsys, tmp_path):
        pool = tmp_path / "pool"
        (pool / "x.model").mkdir(parents=True)
        code, out, err = run(capsys, "birkhoff", files / "pos.phl",
                             "--pool", pool, "--judgments", files / "pos.phl")
        assert (code, out) == (12, "")
        assert err == f"missing file: {pool / 'x.model'} is not a regular file\n"

    def test_input_that_is_not_utf8(self, files, capsys):
        bad = files / "latin1.model"
        bad.write_bytes(CHAIN2.replace("chain2", "ch\xe4in").encode("latin-1"))
        code, out, err = run(capsys, "check", files / "pos.phl", bad)
        assert (code, out) == (11, "")
        assert err == f"error: {bad} is not UTF-8 text (byte 8)\n"
