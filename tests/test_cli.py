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


class TestFmt:
    def test_pretty_print(self, files, capsys):
        code, out, _ = run(capsys, "fmt", files / "pos.phl")
        assert code == 0
        assert out.startswith("theory pos")


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
