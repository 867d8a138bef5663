import itertools

import pytest

from phl.freemodel import representing_model
from phl.semantics import (
    enumerate_homs, enumerate_models, enumerate_structures, interp_formula,
    is_model, make_structure, size_profiles,
)
from phl.syntax import (
    App, Conj, Context, Eq, NamedAxiom, RelApp, Sequent, TRUE, Var, conj, defined,
    parse_formula_in_context, parse_sequent, parse_theory, subst_formula,
)
from phl.theories import (
    cat_theory, mon_theory, pos_theory, quiver_theory, rsrel_theory,
    set_theory, zmod_monoid,
)
from phl.translation import (
    FuncAssignment, RelAssignment, RelMorphism, RelOperator, TranslationError,
    U_rho, U_rho_hom, F_rho, check_theory_morphism, enumerate_sketch_models,
    identity_morphism, inclusion_morphism, is_algebra, make_relative_theory,
    make_sketch, make_theory_morphism, morphism_equivalent, parse_morphism,
    parse_sketch, pht_of, print_morphism, rel_morphism_obligations,
    sketch_to_pht, translate, translate_sequent, SketchArrow, ProductCone,
    PullbackCone,
)


def quiv_to_cat():
    return make_theory_morphism(
        "qc", quiver_theory(), cat_theory(),
        {"e": "mor", "v": "ob"},
        {"s": FuncAssignment(("f",), App("d", (Var("f"),))),
         "t": FuncAssignment(("f",), App("c", (Var("f"),)))},
        {})


def walking_arrow_category():
    csig = cat_theory().signature
    return make_structure(
        "walking", csig,
        {"ob": ("p", "q"), "mor": ("ip", "iq", "f")},
        {"id": {("p",): "ip", ("q",): "iq"},
         "d": {("ip",): "p", ("iq",): "q", ("f",): "p"},
         "c": {("ip",): "p", ("iq",): "q", ("f",): "q"},
         "comp": {("ip", "ip"): "ip", ("iq", "iq"): "iq",
                  ("f", "ip"): "f", ("iq", "f"): "f"}})


def semilattice_rt():
    sets = set_theory()
    x, y, z = Var("x"), Var("y"), Var("z")
    j = lambda a, b: App("join", (a, b))
    ops = [RelOperator("join", Context((("x", "*"), ("y", "*"))), TRUE, "*")]
    E = [NamedAxiom("idem", Sequent(Context((("x", "*"),)), TRUE, Eq(j(x, x), x))),
         NamedAxiom("comm", Sequent(Context((("x", "*"), ("y", "*"))), TRUE,
                                    Eq(j(x, y), j(y, x)))),
         NamedAxiom("assoc", Sequent(Context((("x", "*"), ("y", "*"), ("z", "*"))),
                                     TRUE, Eq(j(j(x, y), z), j(x, j(y, z)))))]
    return make_relative_theory(sets, ops, E)


class TestTranslate:
    def test_identity_is_identity(self, pos):
        rho = identity_morphism(pos)
        seq = parse_sequent("[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y",
                            pos.signature)
        assert translate(rho, seq) == seq

    def test_quiver_symbols(self):
        rho = quiv_to_cat()
        quiv = quiver_theory()
        seq = parse_sequent("[f:e] true |- def(s(f))", quiv.signature)
        out = translate(rho, seq)
        assert out.context == Context((("f", "mor"),))
        assert out.conclusion == defined(App("d", (Var("f"),)))

    def test_composite_term_expansion(self, mon):
        # f maps to a composite: occurrences expand by substitution
        rho = make_theory_morphism(
            "sq", mon_theory(), mon_theory(), {"*": "*"},
            {"e": FuncAssignment((), App("e", ())),
             "mul": FuncAssignment(("a", "b"),
                                   App("mul", (Var("b"), Var("a"))))},
            {})
        ctx, phi = parse_formula_in_context("[x:*, y:*] mul(x,y) = x",
                                            mon.signature)
        out = translate(rho, phi)
        assert out == Eq(App("mul", (Var("y"), Var("x"))), Var("x"))

    def test_dropped_argument_gets_definedness(self, mon):
        # mul |-> first projection loses y; the translation must keep y's
        # definedness so that validity transfers exactly
        rho = make_theory_morphism(
            "proj", mon_theory(), mon_theory(), {"*": "*"},
            {"e": FuncAssignment((), App("e", ())),
             "mul": FuncAssignment(("a", "b"), Var("a"))},
            {})
        ctx, phi = parse_formula_in_context("[x:*, y:*] def(mul(x,y))",
                                            mon.signature)
        out = translate(rho, phi)
        assert defined(Var("y")) in list(out.parts)

    def test_translation_commutes_with_substitution(self, mon):
        rho = quiv_to_cat()
        quiv = quiver_theory()
        ctx, phi = parse_formula_in_context("[f:e, g:e] s(f) = t(g)",
                                            quiv.signature)
        assignment = {"f": Var("g"), "g": Var("g")}
        lhs = translate(rho, subst_formula(phi, assignment))
        rhs = subst_formula(translate(rho, phi), assignment)
        assert lhs == rhs


class TestInterpretationTransfer:
    """The point of the translation: evaluating the translated formula in the
    target equals evaluating the original in the restricted structure, for
    every structure and tuple (no axioms involved)."""

    def transfer_holds(self, rho, formulas):
        from phl.syntax import Theory
        sig = rho.target.signature
        target_free = Theory("free", sig, ())
        checked = 0
        for n in (1, 2):
            sizes = {s: n for s in sig.sorts}
            for m in itertools.islice(
                    enumerate_structures(target_free, sizes), 120):
                u = U_rho(rho, m, check=False)
                for ctx, phi in formulas:
                    tctx = Context(tuple((name, rho.map_sort(s))
                                         for name, s in ctx.vars))
                    tphi = translate(rho, phi)
                    lhs = interp_formula(u, ctx, phi)
                    rhs = interp_formula(m, tctx, tphi)
                    assert lhs == rhs, (m.name, phi)
                    checked += 1
        return checked

    def test_projection_morphism_transfer(self, mon):
        from phl.translation import FuncAssignment
        rho = make_theory_morphism(
            "proj", parse_theory(
                "theory srcmon\nsorts: *\nfun e : -> *;\nfun mul : * * -> *;\n"),
            parse_theory(
                "theory tgtmon\nsorts: *\nfun e : -> *;\nfun mul : * * -> *;\n"),
            {"*": "*"},
            {"e": FuncAssignment((), App("e", ())),
             "mul": FuncAssignment(("a", "b"), Var("a"))},
            {})
        ctx1 = Context((("x", "*"),))
        ctx2 = Context((("x", "*"), ("y", "*")))
        mul = lambda a, b: App("mul", (a, b))
        formulas = [
            (ctx2, defined(mul(Var("x"), Var("y")))),
            (ctx2, Eq(mul(Var("x"), Var("y")), Var("y"))),
            (ctx1, Eq(mul(Var("x"), App("e", ())), Var("x"))),
            (ctx2, defined(mul(mul(Var("x"), Var("y")), App("e", ())))),
            (ctx1, defined(App("e", ()))),
        ]
        assert self.transfer_holds(rho, formulas) > 0

    def test_quiver_morphism_transfer(self):
        rho = quiv_to_cat()
        ctx = Context((("f", "e"), ("g", "e")))
        formulas = [
            (ctx, defined(App("s", (Var("f"),)))),
            (ctx, Eq(App("s", (Var("f"),)), App("t", (Var("g"),)))),
            (Context((("f", "e"),)), Eq(App("s", (Var("f"),)),
                                        App("t", (Var("f"),)))),
        ]
        assert self.transfer_holds(rho, formulas) > 0


class TestCheckMorphism:
    def test_identity_all_proved(self, pos):
        rep = check_theory_morphism(identity_morphism(pos), depth=2)
        assert rep.accepted

    def test_inclusion_into_extension(self, pos):
        bigger = parse_theory(
            "theory pos2\nsorts: *\nrel leq : * *;\n"
            "axiom refl [x:*] true |- leq(x,x);\n"
            "axiom antisym [x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y;\n"
            "axiom trans [x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z);\n"
            "axiom extra [x:*, y:*] leq(x,y) |- leq(x,x);\n")
        rho = inclusion_morphism(pos, bigger)
        assert check_theory_morphism(rho, depth=2).accepted

    def test_quiv_to_cat_accepted(self):
        assert check_theory_morphism(quiv_to_cat(), depth=2).accepted

    def test_violating_morphism_rejected(self):
        # send leq to equality-of-nothing: reflexivity fails to translate
        pre = parse_theory(
            "theory withbot\nsorts: *\nfun bot : -> *;\nrel leq : * *;\n"
            "axiom refl [x:*] true |- leq(x,x);\n")
        tgt = parse_theory("theory bare\nsorts: *\nfun bot : -> *;\n"
                           "rel leq : * *;\n")
        rho = make_theory_morphism(
            "bad", pre, tgt, {"*": "*"},
            {"bot": FuncAssignment((), App("bot", ()))},
            {"leq": RelAssignment(("a", "b"), defined(App("bot", ())))})
        rep = check_theory_morphism(rho, depth=2, model_size=2)
        assert not rep.accepted
        assert rep.statuses[0][1] == "Refuted"


class TestURho:
    def test_identity(self, pos, chain2):
        out = U_rho(identity_morphism(pos), chain2)
        assert out.carriers == chain2.carriers
        assert out.rels == chain2.rels

    def test_underlying_quiver_of_category(self):
        rho = quiv_to_cat()
        w = walking_arrow_category()
        assert is_model(w, cat_theory()).ok
        uq = U_rho(rho, w)
        assert len(uq.carrier("v")) == 2
        assert len(uq.carrier("e")) == 3
        assert uq.func_table("s")[("f",)] == "p"
        assert uq.func_table("t")[("f",)] == "q"

    def test_forget_operators(self):
        rt = semilattice_rt()
        theory = pht_of(rt)
        rho = inclusion_morphism(set_theory(), theory)
        alg = next(m for m in enumerate_models(theory, 2) if m.size() == 2)
        u = U_rho(rho, alg)
        assert u.carriers["*"] == alg.carriers["*"]
        assert not u.funcs.get("join")

    def test_hom_translation(self, pos, chain2):
        rho = identity_morphism(pos)
        h = enumerate_homs(chain2, chain2)[0]
        uh = U_rho_hom(rho, h)
        assert uh.maps == h.maps


class TestFRho:
    def test_identity(self, pos):
        rho = identity_morphism(pos)
        ctx, phi = parse_formula_in_context("[x:*, y:*] leq(x,y)",
                                            pos.signature)
        p = representing_model(pos, ctx, phi, 2)
        q = F_rho(rho, p, 2)
        assert q.structure.carriers == p.structure.carriers
        assert q.structure.rels == p.structure.rels

    def test_resaturation_under_larger_theory(self, pos):
        stronger = parse_theory(
            "theory sympos\nsorts: *\nrel leq : * *;\n"
            "axiom refl [x:*] true |- leq(x,x);\n"
            "axiom antisym [x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y;\n"
            "axiom trans [x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z);\n"
            "axiom sym [x:*, y:*] leq(x,y) |- leq(y,x);\n")
        rho = inclusion_morphism(pos, stronger)
        ctx, phi = parse_formula_in_context("[x:*, y:*] leq(x,y)",
                                            pos.signature)
        p = representing_model(pos, ctx, phi, 2)
        q = F_rho(rho, p, 2)
        assert p.element_count() == 2
        assert q.element_count() == 1  # symmetry plus antisymmetry collapse

    def test_adjunction_counts(self):
        # |Hom(F P, M')| = |Hom(P, U M')| for the semilattice inclusion
        rt = semilattice_rt()
        theory = pht_of(rt)
        rho = inclusion_morphism(set_theory(), theory)
        ctx, phi = parse_formula_in_context("[x:*, y:*] true",
                                            set_theory().signature)
        p = representing_model(set_theory(), ctx, phi, 2)
        fp = F_rho(rho, p, 3)
        assert fp.status.saturated
        for m in enumerate_models(theory, 3):
            left = len(enumerate_homs(fp.structure, m))
            right = len(enumerate_homs(p.structure, U_rho(rho, m)))
            assert left == right


class TestRelativeTheories:
    def test_pht_of_trivial(self, pos):
        rt = make_relative_theory(pos, [], [])
        assert pht_of(rt).axioms == pos.axioms
        assert pht_of(rt).signature == pos.signature

    def test_judgment_premise_may_not_use_operators(self):
        x, y = Var("x"), Var("y")
        ops = [RelOperator("join", Context((("x", "*"), ("y", "*"))), TRUE, "*")]
        nested = Eq(App("mul", (App("join", (x, y)), x)), x)
        bad = NamedAxiom("absorb", Sequent(Context((("x", "*"), ("y", "*"))),
                                           Conj((Eq(x, x), nested)), Eq(x, y)))
        with pytest.raises(TranslationError,
                           match=r"judgment 'absorb' premise uses operators \['join'\]"):
            make_relative_theory(mon_theory(), ops, [bad])

    def test_semilattice_algebras(self):
        rt = semilattice_rt()
        theory = pht_of(rt)
        names = [a.name for a in theory.axioms]
        assert "join_dom_sub" in names and "join_dom_sup" in names
        two = make_structure(
            "two", theory.signature, {"*": ("a", "b")},
            {"join": {("a", "a"): "a", ("a", "b"): "b",
                      ("b", "a"): "b", ("b", "b"): "b"}})
        assert is_algebra(two, rt).ok

    def test_partial_domain_violation(self):
        rt = semilattice_rt()
        theory = pht_of(rt)
        # join missing one entry: arity bisequent fails
        broken = make_structure(
            "broken", theory.signature, {"*": ("a", "b")},
            {"join": {("a", "a"): "a", ("b", "b"): "b", ("a", "b"): "b"}})
        rep = is_algebra(broken, rt)
        assert not rep.ok
        assert any(name == "join_dom_sup" for name, _ in rep.violations)

    def test_category_as_quiver_relative_theory(self):
        quiv = quiver_theory()
        f, g = Var("f"), Var("g")
        x = Var("x")
        cmp_ = lambda a, b: App("cmp", (a, b))
        ops = [
            RelOperator("cmp", Context((("g", "e"), ("f", "e"))),
                        Eq(App("s", (g,)), App("t", (f,))), "e"),
            RelOperator("idm", Context((("x", "v"),)), TRUE, "e"),
        ]
        E = [
            NamedAxiom("id_ends", Sequent(
                Context((("x", "v"),)), TRUE,
                conj([Eq(App("s", (App("idm", (x,)),)), x),
                      Eq(App("t", (App("idm", (x,)),)), x)]))),
            NamedAxiom("cmp_ends", Sequent(
                Context((("g", "e"), ("f", "e"))),
                Eq(App("s", (g,)), App("t", (f,))),
                conj([Eq(App("s", (cmp_(g, f),)), App("s", (f,))),
                      Eq(App("t", (cmp_(g, f),)), App("t", (g,)))]))),
            NamedAxiom("unit", Sequent(
                Context((("f", "e"),)), TRUE,
                conj([Eq(cmp_(f, App("idm", (App("s", (f,)),))), f),
                      Eq(cmp_(App("idm", (App("t", (f,)),)), f), f)]))),
            NamedAxiom("assoc", Sequent(
                Context((("h", "e"), ("g", "e"), ("f", "e"))),
                conj([Eq(App("s", (Var("h"),)), App("t", (g,))),
                      Eq(App("s", (g,)), App("t", (f,)))]),
                Eq(cmp_(cmp_(Var("h"), g), f), cmp_(Var("h"), cmp_(g, f))))),
        ]
        rt = make_relative_theory(quiv, ops, E)
        theory = pht_of(rt)
        w = walking_arrow_category()
        translated = make_structure(
            "w2", theory.signature,
            {"v": w.carriers["ob"], "e": w.carriers["mor"]},
            {"s": w.funcs["d"], "t": w.funcs["c"],
             "cmp": w.funcs["comp"], "idm": w.funcs["id"]})
        assert is_model(translated, theory).ok

    def test_partial_boolean_algebra(self):
        rsrel = rsrel_theory()
        x, y = Var("x"), Var("y")
        com = lambda a, b: RelApp("com", (a, b))
        ops = [
            RelOperator("zero", Context(), TRUE, "*"),
            RelOperator("one", Context(), TRUE, "*"),
            RelOperator("neg", Context((("x", "*"),)), TRUE, "*"),
            RelOperator("vee", Context((("x", "*"), ("y", "*"))),
                        com(x, y), "*"),
            RelOperator("wedge", Context((("x", "*"), ("y", "*"))),
                        com(x, y), "*"),
        ]
        E = [
            NamedAxiom("com_zero", Sequent(Context((("x", "*"),)), TRUE,
                                           conj([com(x, App("zero", ())),
                                                 com(x, App("one", ()))]))),
            NamedAxiom("compl", Sequent(
                Context((("x", "*"),)), TRUE,
                conj([Eq(App("vee", (x, App("neg", (x,)))), App("one", ())),
                      Eq(App("wedge", (x, App("neg", (x,)))),
                         App("zero", ()))]))),
            NamedAxiom("com_neg", Sequent(
                Context((("x", "*"), ("y", "*"))), com(x, y),
                com(x, App("neg", (y,))))),
        ]
        rt = make_relative_theory(rsrel, ops, E)
        theory = pht_of(rt)
        # two-element boolean algebra with full commeasurability
        b2 = make_structure(
            "b2", theory.signature, {"*": ("o", "i")},
            {"zero": {(): "o"}, "one": {(): "i"},
             "neg": {("o",): "i", ("i",): "o"},
             "vee": {("o", "o"): "o", ("o", "i"): "i",
                     ("i", "o"): "i", ("i", "i"): "i"},
             "wedge": {("o", "o"): "o", ("o", "i"): "o",
                       ("i", "o"): "o", ("i", "i"): "i"}},
            {"com": {("o", "o"), ("o", "i"), ("i", "o"), ("i", "i")}})
        assert is_model(b2, theory).ok

    def test_judgment_premise_must_be_base(self):
        sets = set_theory()
        ops = [RelOperator("c", Context(), TRUE, "*")]
        bad = [NamedAxiom("bad", Sequent(Context((("x", "*"),)),
                                         Eq(App("c", ()), Var("x")), TRUE))]
        with pytest.raises(TranslationError, match="premise"):
            make_relative_theory(sets, ops, bad)


class TestRelMorphismEquivalence:
    def test_syntactic_equality_equivalent(self):
        rt = semilattice_rt()
        rho = RelMorphism("r", rt, rt,
                          {"join": App("join", (Var("x"), Var("y")))})
        rep = morphism_equivalent(rho, rho, depth=2)
        assert rep.equivalent

    def test_commuted_join_equivalent(self):
        rt = semilattice_rt()
        rho = RelMorphism("r", rt, rt,
                          {"join": App("join", (Var("x"), Var("y")))})
        sigma = RelMorphism("s", rt, rt,
                            {"join": App("join", (Var("y"), Var("x")))})
        rep = morphism_equivalent(rho, sigma, depth=2)
        assert rep.equivalent

    def test_projection_not_equivalent(self):
        rt = semilattice_rt()
        rho = RelMorphism("r", rt, rt,
                          {"join": App("join", (Var("x"), Var("y")))})
        sigma = RelMorphism("s", rt, rt, {"join": Var("x")})
        rep = morphism_equivalent(rho, sigma, depth=2)
        assert not rep.equivalent

    def test_obligations(self):
        rt = semilattice_rt()
        rho = RelMorphism("r", rt, rt,
                          {"join": App("join", (Var("x"), Var("y")))})
        assert rel_morphism_obligations(rho, depth=2).accepted


def product_sketch():
    return parse_sketch("""
sketch prodsk
objects: s1 s2 v;
arrow iv : v -> v;  arrow i1 : s1 -> s1;  arrow i2 : s2 -> s2;
arrow p0 : v -> s1;
arrow p1 : v -> s2;
identity v = iv; identity s1 = i1; identity s2 = i2;
compose i1 i1 = i1; compose i2 i2 = i2; compose iv iv = iv;
product-cone v [p0 p1];
""")


def pullback_sketch():
    return parse_sketch("""
sketch pbsk
objects: s0 s1 t w;
arrow iw : w -> w; arrow i0 : s0 -> s0; arrow i1 : s1 -> s1; arrow it : t -> t;
arrow r0 : s0 -> t;
arrow r1 : s1 -> t;
arrow q0 : w -> s0;
arrow q1 : w -> s1;
arrow m : w -> t;
identity w = iw; identity s0 = i0; identity s1 = i1; identity t = it;
compose i0 i0 = i0; compose i1 i1 = i1; compose it it = it; compose iw iw = iw;
compose r0 q0 = m; compose r1 q1 = m;
compose it r0 = r0; compose it r1 = r1; compose it m = m;
pullback-cone w [q0 q1] over [r0 r1];
""")


def count_models(gen, sorts, maxn):
    out = {}
    for sizes in size_profiles(sorts, maxn):
        n = sum(1 for _ in gen(sizes))
        if n:
            out[tuple(sorted(sizes.items()))] = n
    return out


class TestSketch:
    def test_empty_sketch(self):
        sk = parse_sketch("sketch empty")
        th = sketch_to_pht(sk)
        assert th.signature.sorts == ()
        assert th.axioms == ()

    def test_product_cone_axioms(self):
        th = sketch_to_pht(product_sketch())
        assert th.signature.function("tup0") is not None
        names = [a.name for a in th.axioms]
        assert "prod0_eta" in names and "prod0_beta" in names

    def test_pullback_cone_axioms(self):
        th = sketch_to_pht(pullback_sketch())
        names = [a.name for a in th.axioms]
        assert "pb0_eta" in names and "pb0_beta" in names and "pb0_dom" in names

    def test_product_correspondence(self):
        sk = product_sketch()
        th = sketch_to_pht(sk)
        tm = count_models(lambda s: enumerate_structures(th, s),
                          th.signature.sorts, 2)
        smm = count_models(lambda s: enumerate_sketch_models(sk, s),
                           sk.objects, 2)
        assert tm == smm and tm

    def test_pullback_correspondence(self):
        sk = pullback_sketch()
        th = sketch_to_pht(sk)
        tm = count_models(lambda s: enumerate_structures(th, s),
                          th.signature.sorts, 2)
        smm = count_models(lambda s: enumerate_sketch_models(sk, s),
                           sk.objects, 2)
        assert tm == smm and tm

    def test_noncommuting_pullback_rejected(self):
        with pytest.raises(TranslationError):
            make_sketch(
                "bad", ("a", "b"),
                [SketchArrow("ia", "a", "a"), SketchArrow("ib", "b", "b"),
                 SketchArrow("f", "a", "b"), SketchArrow("g", "a", "b")],
                {("f", "ia"): "f", ("ib", "f"): "f",
                 ("g", "ia"): "g", ("ib", "g"): "g",
                 ("ia", "ia"): "ia", ("ib", "ib"): "ib"},
                {"a": "ia", "b": "ib"},
                pullback_cones=[PullbackCone("a", ("ia", "ia"), ("f", "g"))])

    def test_every_object_needs_an_identity(self):
        with pytest.raises(TranslationError, match="missing identity for 'b'"):
            make_sketch("gap", ("a", "b"), [SketchArrow("ia", "a", "a")],
                        {("ia", "ia"): "ia"}, {"a": "ia"})


class TestMorphismFormat:
    def test_roundtrip(self):
        rho = quiv_to_cat()
        text = print_morphism(rho)
        rho2 = parse_morphism(text, {"quiv": quiver_theory(),
                                     "cat": cat_theory()})
        assert rho2.sort_map == rho.sort_map
        assert rho2.func_map == rho.func_map
