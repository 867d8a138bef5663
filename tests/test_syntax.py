import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.syntax import (
    App, Conj, Context, Eq, ParseError, RelApp, Sequent, SubstitutionError,
    TRUE, Var, WellFormedError, conj, defined, free_vars, infer_sort,
    parse_formula_in_context, parse_sequent, parse_theory, print_formula,
    print_sequent, print_theory, subst_formula, subst_term, substitute,
    well_formed,
)
from phl.theories import CAT_SRC, MON_SRC, POS_SRC, cat_theory, mon_theory, pos_theory

from conftest import formulas_over, terms_over


def ctx2(pos):
    return Context((("x", "*"), ("y", "*")))


class TestWellFormed:
    def test_pos_axiom_well_formed(self, pos):
        seq = parse_sequent("[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y",
                            pos.signature)
        assert well_formed(seq, pos.signature) == []

    def test_variable_in_context(self, pos):
        ctx = Context((("x", "*"),))
        assert well_formed(Var("x"), pos.signature, ctx) == []

    def test_unknown_symbol_diagnostic(self, pos):
        ctx = ctx2(pos)
        bad = RelApp("leq", (Var("x"), Var("c")))
        diags = well_formed(bad, pos.signature, ctx)
        assert len(diags) == 1
        assert "c" in diags[0].message

    def test_eq_sort_mismatch(self, cat):
        ctx = Context((("x", "ob"), ("f", "mor")))
        diags = well_formed(Eq(Var("x"), Var("f")), cat.signature, ctx)
        assert diags and "sorts" in diags[0].message

    def test_duplicate_context_vars(self, pos):
        ctx = Context((("x", "*"), ("x", "*")))
        diags = well_formed(TRUE, pos.signature, ctx)
        assert any("duplicate" in d.message for d in diags)

    def test_theory_well_formed(self, pos, mon, cat):
        for t in (pos, mon, cat):
            assert well_formed(t) == []


class TestSubstitution:
    def test_diagonal(self, pos):
        sig = pos.signature
        src = ctx2(pos)
        tgt = Context((("z", "*"),))
        out = substitute(sig, src, tgt, {"x": Var("z"), "y": Var("z")},
                         RelApp("leq", (Var("x"), Var("y"))))
        assert out == RelApp("leq", (Var("z"), Var("z")))

    def test_monoid_expansion(self, mon):
        sig = mon.signature
        src = ctx2(mon)
        tgt = Context((("y", "*"),))
        phi = Eq(App("mul", (Var("x"), Var("y"))), App("mul", (Var("y"), Var("x"))))
        out = substitute(sig, src, tgt, {"x": App("e", ()), "y": Var("y")}, phi)
        assert out == Eq(App("mul", (App("e", ()), Var("y"))),
                         App("mul", (Var("y"), App("e", ()))))

    def test_nesting(self, mon):
        sig = mon.signature
        ctx = Context((("x", "*"),))
        f_of_x = App("mul", (Var("x"), Var("x")))
        out = substitute(sig, ctx, ctx, {"x": f_of_x}, f_of_x)
        assert out == App("mul", (f_of_x, f_of_x))

    def test_missing_entry(self, pos):
        with pytest.raises(SubstitutionError):
            substitute(pos.signature, ctx2(pos), ctx2(pos), {"x": Var("x")},
                       Var("x"))

    def test_sort_mismatch(self, cat):
        src = Context((("x", "ob"),))
        tgt = Context((("f", "mor"),))
        with pytest.raises(SubstitutionError):
            substitute(cat.signature, src, tgt, {"x": Var("f")}, Var("x"))


class TestParser:
    def test_pos_source(self, pos):
        assert len(pos.signature.sorts) == 1
        assert len(pos.signature.relations) == 1
        assert len(pos.axioms) == 3

    def test_cat_roundtrip(self, cat):
        assert parse_theory(print_theory(cat)) == cat
        assert len(cat.signature.sorts) == 2
        assert len(cat.signature.functions) == 4

    def test_empty_theory(self):
        t = parse_theory("theory empty")
        assert t.signature.sorts == ()
        assert t.axioms == ()

    def test_roundtrip_all_bundled(self):
        for src in (POS_SRC, MON_SRC, CAT_SRC):
            t = parse_theory(src)
            assert parse_theory(print_theory(t)) == t

    def test_def_sugar(self, mon):
        ctx, f = parse_formula_in_context("[x:*] def(mul(x,x))", mon.signature)
        assert f == Eq(App("mul", (Var("x"), Var("x"))),
                       App("mul", (Var("x"), Var("x"))))

    def test_empty_conj_is_truth(self, pos):
        ctx, f = parse_formula_in_context("[x:*] true", pos.signature)
        assert f == TRUE
        assert conj([]) == TRUE

    def test_sortless_context_single_sorted(self, pos):
        seq = parse_sequent("[x, y] leq(x,y) |- leq(x,y)", pos.signature)
        assert seq.context == Context((("x", "*"), ("y", "*")))

    def test_parse_error_position(self, pos):
        with pytest.raises(ParseError) as e:
            parse_sequent("[x:*] leq(x |- x = x", pos.signature)
        assert e.value.line is not None

    def test_unknown_symbol_rejected(self, pos):
        with pytest.raises(ParseError):
            parse_sequent("[x:*] leq(x, c) |- true", pos.signature)

    def test_nested_parens(self, pos):
        ctx, f = parse_formula_in_context(
            "[x:*] (leq(x,x) /\\ leq(x,x)) /\\ true", pos.signature)
        assert isinstance(f, Conj)


HOM_DOCS = ["hom collapse : chain2 -> chain2\nmap *: a->b b->b;\n"]
MORPHISM_DOCS = [
    "morphism emb : quiv -> quiv\nsort e => e;\nsort v => v;\n"
    "fun s => [f:e] s(f);\nfun t => [f:e] t(f);\n",
    "morphism op : pos -> pos\nsort * => *;\nrel leq => [x:*, y:*] leq(y,x);\n",
]
SKETCH_DOCS = [
    "sketch prodsk\nobjects: s1 s2 v;\n"
    "arrow iv : v -> v;  arrow i1 : s1 -> s1;  arrow i2 : s2 -> s2;\n"
    "arrow p0 : v -> s1;\narrow p1 : v -> s2;\n"
    "identity v = iv; identity s1 = i1; identity s2 = i2;\n"
    "compose i1 i1 = i1; compose i2 i2 = i2; compose iv iv = iv;\n"
    "product-cone v [p0 p1];\n",
    "sketch pbsk\nobjects: s0 s1 t w;\n"
    "arrow iw : w -> w; arrow i0 : s0 -> s0; arrow i1 : s1 -> s1; arrow it : t -> t;\n"
    "arrow r0 : s0 -> t;\narrow r1 : s1 -> t;\narrow q0 : w -> s0;\n"
    "arrow q1 : w -> s1;\narrow m : w -> t;\n"
    "identity w = iw; identity s0 = i0; identity s1 = i1; identity t = it;\n"
    "compose i0 i0 = i0; compose i1 i1 = i1; compose it it = it; compose iw iw = iw;\n"
    "compose r0 q0 = m; compose r1 q1 = m;\n"
    "compose it r0 = r0; compose it r1 = r1; compose it m = m;\n"
    "pullback-cone w [q0 q1] over [r0 r1];\n",
]
DERIVATION_DOCS = [
    '[x:*, y:*] leq(x, y) |- def(x)  [rule Cut {}]\n'
    '  [x:*, y:*] leq(x, y) |- true  [rule IConj {"ctx": "[x:*, y:*]", '
    '"premise": "leq(x, y)"}]\n'
    '  [x:*, y:*] true |- def(x)  [rule Refl {"ctx": "[x:*, y:*]", "i": 0}]\n',
    '[x:*] true |- leq(x, x)  [rule Subst {"sub": {"x": "x"}, "target": "[x:*]"}]\n'
    '  [x:*] true |- leq(x, x)  [rule Axiom {"name": "refl"}]\n',
]


def mutated(docs):
    """Valid documents with one span replaced by arbitrary text."""
    def splice(doc, i, j, junk):
        i, j = sorted((i, j))
        return doc[:i] + junk + doc[j:]
    return st.builds(splice, st.sampled_from(docs), st.integers(0, 400),
                     st.integers(0, 400), st.text(max_size=12))


class TestParserTotality:
    """Arbitrary input must fail through PhlError subclasses only, so the
    CLI exit-code contract holds."""

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=120))
    def test_parse_theory_total(self, text):
        from phl.syntax import PhlError
        try:
            parse_theory(text)
        except PhlError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=80))
    def test_parse_sequent_total(self, pos, text):
        from phl.syntax import PhlError
        try:
            parse_sequent(text, pos.signature)
        except PhlError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=100))
    def test_parse_model_total(self, pos, text):
        from phl.semantics import parse_model
        from phl.syntax import PhlError
        try:
            parse_model(text, pos.signature)
        except PhlError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(max_size=80), mutated(HOM_DOCS)))
    def test_parse_hom_total(self, text):
        from phl.semantics import parse_hom
        from phl.syntax import PhlError
        from phl.theories import chain_poset
        try:
            parse_hom(text, {"chain2": chain_poset(2)})
        except PhlError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(max_size=80), mutated(MORPHISM_DOCS)))
    def test_parse_morphism_total(self, pos, text):
        from phl.syntax import PhlError
        from phl.theories import quiver_theory
        from phl.translation import parse_morphism
        try:
            parse_morphism(text, {"pos": pos, "quiv": quiver_theory()})
        except PhlError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(max_size=80), mutated(SKETCH_DOCS)))
    def test_parse_sketch_total(self, text):
        from phl.syntax import PhlError
        from phl.translation import parse_sketch
        try:
            parse_sketch(text)
        except PhlError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(max_size=80), mutated(DERIVATION_DOCS)))
    def test_parse_derivation_total(self, pos, text):
        from phl.kernel import parse_derivation
        from phl.syntax import PhlError
        try:
            parse_derivation(text, pos.signature)
        except PhlError:
            pass


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_random_formulas(self, mon, data):
        ctx = Context((("x", "*"), ("y", "*")))
        f = data.draw(formulas_over(mon.signature, ctx))
        text = f"[x:*, y:*] {print_formula(f)} |- true"
        seq = parse_sequent(text, mon.signature)
        assert seq.premise == f

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_substitution_composition(self, mon, data):
        sig = mon.signature
        ctx = Context((("x", "*"), ("y", "*")))
        f = data.draw(formulas_over(sig, ctx))
        s1 = {"x": data.draw(terms_over(sig, ctx)),
              "y": data.draw(terms_over(sig, ctx))}
        s2 = {"x": data.draw(terms_over(sig, ctx)),
              "y": data.draw(terms_over(sig, ctx))}
        once = subst_formula(subst_formula(f, s1), s2)
        composed = {v: subst_term(t, s2) for v, t in s1.items()}
        assert once == subst_formula(f, composed)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_substitution_preserves_wf(self, mon, data):
        sig = mon.signature
        ctx = Context((("x", "*"), ("y", "*")))
        tgt = Context((("z", "*"),))
        f = data.draw(formulas_over(sig, ctx))
        assignment = {"x": data.draw(terms_over(sig, tgt)),
                      "y": data.draw(terms_over(sig, tgt))}
        out = substitute(sig, ctx, tgt, assignment, f)
        assert well_formed(out, sig, tgt) == []

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_free_vars_covered(self, pos, data):
        ctx = Context((("x", "*"), ("y", "*")))
        f = data.draw(formulas_over(pos.signature, ctx))
        assert free_vars(f) <= {"x", "y"}
