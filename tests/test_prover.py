import random
import re
from collections import Counter

import pytest

from phl import prover
from phl.kernel import (
    AxiomRule, CutRule, Derivation, EConjRule, EqRule, IConjRule, IdRule,
    ReflRule, RuleError, SEqRule, SFunRule, SRelRule, SubstRule,
    alpha_normal, check_derivation, check_rule, derive_conj_permutation,
    derive_cut_lemma, derive_defined_var, derive_subst_formula_lemma,
    derive_subst_term_lemma, derive_symmetry, derive_transitivity,
    derive_weakening, elaborate, format_derivation, parse_derivation,
    rule_node, sequents_alpha_equal,
)
from phl.prover import Proved, Refuted, UnknownVerdict, prove
from phl.syntax import (
    App, Conj, Context, Eq, NamedAxiom, PhlError, RelApp, Sequent, Signature,
    TRUE, Theory, Var,
    conj, defined, parse_sequent, parse_theory, print_sequent,
)
from phl.sampling import random_sequent
from phl.semantics import formula_holds_at, interp_formula, is_model, \
    make_structure
from phl.theories import cat_theory, mon_theory, pos_theory

from conftest import prove_saturation_first
from test_acceptance import BRIDGE_SEED, SOUNDNESS_SEED, bridge_corpus, \
    golden_corpus, soundness_corpus

X, Y, Z = Var("x"), Var("y"), Var("z")


def ctx(*pairs):
    return Context(tuple(pairs))


class TestCheckRule:
    def test_id(self, pos):
        f = RelApp("leq", (X, Y))
        out = check_rule(IdRule(ctx(("x", "*"), ("y", "*")), f), [],
                         pos.signature)
        assert out == Sequent(ctx(("x", "*"), ("y", "*")), f, f)

    def test_sfun_strictness(self, mon):
        t = App("mul", (X, Y))
        out = check_rule(SFunRule(ctx(("x", "*"), ("y", "*")), "mul",
                                  (X, Y), 0), [], mon.signature)
        assert out.premise == defined(t)
        assert out.conclusion == defined(X)

    def test_srel(self, pos):
        out = check_rule(SRelRule(ctx(("x", "*"), ("y", "*")), "leq",
                                  (X, Y), 1), [], pos.signature)
        assert out.premise == RelApp("leq", (X, Y))
        assert out.conclusion == defined(Y)

    def test_seq_both_sides(self, pos):
        for side, expect in ((0, X), (1, Y)):
            out = check_rule(SEqRule(ctx(("x", "*"), ("y", "*")), X, Y, side),
                             [], pos.signature)
            assert out.conclusion == defined(expect)

    def test_refl(self, pos):
        out = check_rule(ReflRule(ctx(("x", "*"), ("y", "*")), 1), [],
                         pos.signature)
        assert out == Sequent(ctx(("x", "*"), ("y", "*")), TRUE, defined(Y))

    def test_cut_mismatch(self, pos):
        c = ctx(("x", "*"),)
        s1 = Sequent(c, TRUE, defined(X))
        s2 = Sequent(c, RelApp("leq", (X, X)), TRUE)
        with pytest.raises(RuleError, match="middle"):
            check_rule(CutRule(), [s1, s2], pos.signature)

    def test_subst_adds_definedness(self, mon):
        c = ctx(("x", "*"),)
        prem = Sequent(c, TRUE, defined(X))
        target = ctx(("y", "*"),)
        t = App("mul", (Y, Y))
        out = check_rule(SubstRule(target, (("x", t),)), [prem], mon.signature)
        assert out.premise == Conj((TRUE, defined(t)))
        assert out.conclusion == defined(t)

    def test_subst_wrong_coverage(self, mon):
        prem = Sequent(ctx(("x", "*"), ("y", "*")), TRUE, defined(X))
        with pytest.raises(RuleError, match="cover"):
            check_rule(SubstRule(ctx(("z", "*"),), (("x", Z),)), [prem],
                       mon.signature)

    def test_econj_iconj(self, pos):
        c = ctx(("x", "*"),)
        parts = (defined(X), RelApp("leq", (X, X)))
        out = check_rule(EConjRule(c, parts, 1), [], pos.signature)
        assert out.premise == Conj(parts)
        assert out.conclusion == parts[1]
        p1 = Sequent(c, TRUE, parts[0])
        p2 = Sequent(c, TRUE, parts[1])
        out2 = check_rule(IConjRule(), [p1, p2], pos.signature)
        assert out2.conclusion == Conj(parts)

    def test_iconj_nullary(self, pos):
        c = ctx(("x", "*"),)
        out = check_rule(IConjRule(c, defined(X)), [], pos.signature)
        assert out == Sequent(c, defined(X), TRUE)

    def test_eq_rule(self, pos):
        # z = y0 with (z, y0) renamed to (y1, y0) inside the ambient context
        sort = "*"
        inst = EqRule(formula=Eq(Var("z"), Var("y0")),
                      xs=ctx(("z", sort), ("y0", sort)),
                      ys=ctx(("y1", sort), ("y0", sort)),
                      context=ctx(("y0", sort), ("y1", sort), ("z", sort)))
        out = check_rule(inst, [], pos.signature)
        assert out.premise == Conj((Eq(Var("z"), Var("y0")),
                                    Eq(Var("z"), Var("y1")),
                                    Eq(Var("y0"), Var("y0"))))
        assert out.conclusion == Eq(Var("y1"), Var("y0"))

    def test_axiom_rule(self, pos):
        out = check_rule(AxiomRule("refl"), [], pos.signature, pos)
        assert out == pos.axiom("refl").sequent
        with pytest.raises(RuleError):
            check_rule(AxiomRule("nope"), [], pos.signature, pos)

    def test_deterministic(self, pos):
        inst = SRelRule(ctx(("x", "*"), ("y", "*")), "leq", (X, Y), 0)
        assert check_rule(inst, [], pos.signature) == \
            check_rule(inst, [], pos.signature)


class TestGoldenDerivations:
    """The derivation trees displayed in the equality and cut-rule proofs."""

    def test_symmetry_tree(self, pos):
        c = ctx(("a", "*"), ("b", "*"))
        d = derive_symmetry(pos.signature, c, Var("a"), Var("b"))
        assert d.sequent == Sequent(c, Eq(Var("a"), Var("b")),
                                    Eq(Var("b"), Var("a")))
        assert check_derivation(pos, d).ok

    def test_symmetry_on_compound_terms(self, mon):
        c = ctx(("a", "*"),)
        t = App("mul", (Var("a"), Var("a")))
        d = derive_symmetry(mon.signature, c, t, App("e", ()))
        assert check_derivation(mon, d).ok

    def test_transitivity_tree(self, pos):
        c = ctx(("a", "*"), ("b", "*"), ("c", "*"))
        d = derive_transitivity(pos.signature, c, Var("a"), Var("b"), Var("c"))
        assert d.sequent.conclusion == Eq(Var("a"), Var("c"))
        assert check_derivation(pos, d).ok

    def test_cut_rule_lemma(self):
        theory = parse_theory("""
theory hyp
sorts: *
rel P : *;
rel Q : *;
rel R : *;
axiom step1 [x:*] P(x) |- Q(x);
axiom final [x:*] R(x) /\\ Q(x) |- P(x);
""")
        c = ctx(("x", "*"),)
        d = derive_cut_lemma(theory, c, chi=RelApp("R", (X,)),
                             phis=(RelApp("P", (X,)),),
                             psis=(RelApp("Q", (X,)),),
                             step_axioms=("step1",), final_axiom="final")
        assert d.sequent.premise == Conj((RelApp("R", (X,)), RelApp("P", (X,))))
        assert d.sequent.conclusion == RelApp("P", (X,))
        assert check_derivation(theory, d).ok

    def test_subst_lemmas(self, mon):
        sig = mon.signature
        target = ctx(("a", "*"), ("b", "*"))
        ys = ctx(("y0", "*"),)
        phi = defined(App("mul", (Var("y0"), Var("y0"))))
        d = derive_subst_formula_lemma(sig, target, phi, ys,
                                       (Var("a"),), (Var("b"),))
        assert check_derivation(mon, d).ok
        tau = App("mul", (Var("y0"), App("e", ())))
        d2 = derive_subst_term_lemma(sig, target, tau, ys,
                                     (Var("a"),), (Var("b"),))
        assert check_derivation(mon, d2).ok

    def test_weakening(self, pos):
        small = ctx(("x", "*"),)
        big = ctx(("x", "*"), ("y", "*"))
        refl = rule_node(AxiomRule("refl"), (), pos.signature, pos)
        d = derive_weakening(pos.signature, refl, big)
        assert d.sequent == Sequent(big, TRUE, RelApp("leq", (X, X)))
        assert check_derivation(pos, d).ok

    def test_conj_permutation(self, pos):
        c = ctx(("x", "*"), ("y", "*"))
        parts = (RelApp("leq", (X, Y)), RelApp("leq", (Y, X)), defined(X))
        d = derive_conj_permutation(pos.signature, c, parts, (2, 0, 1))
        assert d.sequent.premise == Conj(parts)
        assert d.sequent.conclusion == Conj((parts[2], parts[0], parts[1]))
        assert check_derivation(pos, d).ok

    def test_single_id_node(self, pos):
        c = ctx(("x", "*"),)
        d = rule_node(IdRule(c, defined(X)), (), pos.signature)
        assert check_derivation(pos, d).ok


class TestPerturbedDerivations:
    def test_swapped_cut_children(self, pos):
        c = ctx(("a", "*"), ("b", "*"))
        d = derive_symmetry(pos.signature, c, Var("a"), Var("b"))
        bad = Derivation(d.sequent, d.rule, (d.children[1], d.children[0]))
        r = check_derivation(pos, bad)
        assert not r.ok and r.reason

    def test_wrong_rule_label(self, pos):
        c = ctx(("x", "*"),)
        good = rule_node(IdRule(c, defined(X)), (), pos.signature)
        bad = Derivation(good.sequent, ReflRule(c, 0), ())
        r = check_derivation(pos, bad)
        assert not r.ok

    def test_wrong_index(self, pos):
        c = ctx(("x", "*"), ("y", "*"))
        parts = (defined(X), defined(Y))
        good = rule_node(EConjRule(c, parts, 0), (), pos.signature)
        bad = Derivation(good.sequent, EConjRule(c, parts, 1), ())
        r = check_derivation(pos, bad)
        assert not r.ok and "produces" in r.reason

    def test_failing_node_path(self, pos):
        c = ctx(("a", "*"), ("b", "*"))
        d = derive_transitivity(pos.signature, c, Var("a"), Var("b"), Var("a"))
        deep_bad = Derivation(
            d.children[0].sequent,
            d.children[0].rule,
            d.children[0].children[:-1] + (Derivation(
                d.children[0].children[-1].sequent,
                ReflRule(c, 0), ()),))
        bad = Derivation(d.sequent, d.rule, (deep_bad, d.children[1]))
        r = check_derivation(pos, bad)
        assert not r.ok
        assert r.path is not None and len(r.path) >= 1


class TestAlphaNormalization:
    def test_renamed_sequents_equal(self, pos):
        s1 = parse_sequent("[x:*, y:*] leq(x,y) |- leq(x,y)", pos.signature)
        s2 = parse_sequent("[u:*, v:*] leq(u,v) |- leq(u,v)", pos.signature)
        assert sequents_alpha_equal(s1, s2)

    def test_different_shape_not_equal(self, pos):
        s1 = parse_sequent("[x:*, y:*] leq(x,y) |- leq(x,y)", pos.signature)
        s2 = parse_sequent("[x:*, y:*] leq(y,x) |- leq(y,x)", pos.signature)
        assert not sequents_alpha_equal(s1, s2)


class TestProve:
    def test_pos_chain_at_depth_2(self, pos):
        seq = parse_sequent(
            "[x:*, y:*, z:*, w:*] leq(x,y) /\\ leq(y,z) /\\ leq(z,w) |- leq(x,w)",
            pos.signature)
        r = prove(pos, seq, depth=2, model_size=0)
        assert isinstance(r, Proved)

    def test_identity_at_depth_0(self, pos):
        seq = parse_sequent("[x:*, y:*] leq(x,y) |- leq(x,y)", pos.signature)
        assert isinstance(prove(pos, seq, depth=0, model_size=0), Proved)

    def test_monoid_idempotence_refuted(self, mon):
        seq = parse_sequent("[x:*] true |- mul(x,x) = x", mon.signature)
        r = prove(mon, seq, depth=2, model_size=2)
        assert isinstance(r, Refuted)
        assert r.countermodel.size() == 2

    def test_refutation_by_saturated_term_model(self, pos):
        seq = parse_sequent("[x:*, y:*] leq(x,y) |- leq(y,x)", pos.signature)
        r = prove(pos, seq, depth=2, model_size=0)
        assert isinstance(r, Refuted)
        assert "term model" in r.note

    def test_unknown_when_budget_exhausted(self, mon):
        # not derivable and no small countermodel: mul(x,y) = mul(y,x)
        # fails first in a 3-element monoid, beyond the bound used here
        seq = parse_sequent("[x:*, y:*] true |- mul(x,y) = mul(y,x)",
                            mon.signature)
        r = prove(mon, seq, depth=1, model_size=1)
        assert isinstance(r, UnknownVerdict)
        assert r.reason.startswith("saturation truncated at depth 1")

    def test_saturation_certified_within_the_work_budget(self, pos):
        # two passes take 14 instances each; the second changes nothing and
        # defers nothing, which certifies the term model with no more work
        seq = parse_sequent("[x:*, y:*] true |- leq(x,y)", pos.signature)
        r = prove(pos, seq, depth=1, model_size=0, max_work=28)
        assert isinstance(r, Refuted) and r.witness == ("x", "y")
        assert r.note == "generic tuple of the saturated term model"
        r = prove(pos, seq, depth=1, model_size=0, max_work=27)
        assert r.reason.startswith(
            "work budget of 27 axiom instances exhausted")

    def test_unknown_names_the_work_budget(self, pos):
        seq = parse_sequent("[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)",
                            pos.signature)
        r = prove(pos, seq, depth=3, model_size=0, max_work=5)
        assert isinstance(r, UnknownVerdict)
        assert r.reason.startswith("work budget of 5 axiom instances exhausted")
        assert "depth" not in r.reason

    def test_budget_validation(self, pos):
        seq = parse_sequent("[x:*] true |- leq(x,x)", pos.signature)
        with pytest.raises(Exception):
            prove(pos, seq, depth=-1)
        with pytest.raises(PhlError, match="work budget"):
            prove(pos, seq, max_work=-1)

    def test_zero_work_budget_does_no_work(self, pos):
        seq = parse_sequent("[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)",
                            pos.signature)
        r = prove(pos, seq, depth=3, model_size=0, max_work=0)
        assert isinstance(r, UnknownVerdict)
        assert r.reason.startswith("work budget of 0 axiom instances exhausted")

    def test_no_work_budget_selects_the_default(self, pos, monkeypatch):
        monkeypatch.setattr(prover, "DEFAULT_WORK_BUDGET", 3)
        seq = parse_sequent("[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)",
                            pos.signature)
        r = prove(pos, seq, depth=3, model_size=0, max_work=None)
        assert r.reason.startswith("work budget of 3 axiom instances exhausted")

    def test_trace_events_name_axioms(self, pos, mon):
        cases = [(pos, "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)"),
                 (pos, "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y"),
                 (mon, "[x:*, y:*] x = y |- mul(x,y) = mul(y,x)"),
                 (mon, "[x:*] true |- mul(e,mul(x,e)) = x")]
        for theory, text in cases:
            r = prove(theory, parse_sequent(text, theory.signature), depth=3,
                      model_size=0)
            assert isinstance(r, Proved), text
            names = {ax.name for ax in theory.axioms} | {"premise"}
            assert r.trace, text
            for name, classes in r.trace:
                assert name in names, text
                assert isinstance(classes, tuple)
                assert all(isinstance(c, int) for c in classes)
            # seeding the premise comes before every saturation pass
            seeded = [name == "premise" for name, _ in r.trace]
            assert seeded == sorted(seeded, reverse=True), text

    def test_derived_rules_proved_within_depth_4(self, pos, mon):
        cases = [
            (pos, "[x:*, y:*] x = y |- y = x"),
            (pos, "[x:*, y:*, z:*] x = y /\\ y = z |- x = z"),
            (mon, "[x:*, y:*] x = y |- mul(x,y) = mul(y,x)"),
            (pos, "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- leq(y,x) /\\ leq(x,y)"),
            (mon, "[x:*] def(mul(x,x)) |- mul(x,x) = mul(x,x)"),
            (pos, "[x:*, y:*] leq(x,y) |- true"),
        ]
        for theory, text in cases:
            seq = parse_sequent(text, theory.signature)
            assert isinstance(prove(theory, seq, depth=4, model_size=0), Proved), text

    def test_countermodel_witness_in_carrier_order(self, pos):
        # the first failing tuple in carrier order, as `holds` gives it: up
        # to u9 that is name order too, but from 11 elements on u2 comes
        # before u10, which sorts first by name
        elems = tuple(f"u{i}" for i in range(11))
        m = make_structure("M", pos.signature, {"*": elems}, {},
                           {"leq": {("u10", "u0"), ("u2", "u0")}})
        seq = parse_sequent("[x:*, y:*] leq(x,y) |- leq(y,x)", pos.signature)
        r = prover._countermodel(iter([m]), seq)
        assert (r.countermodel, r.witness) == (m, ("u2", "u0"))
        assert min(interp_formula(m, seq.context, seq.premise)) == ("u10", "u0")

    def test_weakened_sequent_proved(self, pos):
        seq = parse_sequent("[x:*, y:*, z:*] leq(x,y) |- leq(x,y)",
                            pos.signature)
        assert isinstance(prove(pos, seq, depth=1, model_size=0), Proved)


def schedule_corpus():
    """(theory, sequent, depth): the sequents of acceptance criteria 1-3 at
    their depths, then 20 more random sequents each over pos, mon and cat."""
    from test_acceptance import (
        BRIDGE_SEED, SOUNDNESS_SEED, bridge_corpus, golden_corpus,
        soundness_corpus,
    )
    for theory, d in golden_corpus():
        yield theory, d.sequent, 4
    rng = random.Random(SOUNDNESS_SEED)
    for theory in (pos_theory(), mon_theory(), cat_theory()):
        for seq in soundness_corpus(theory, rng):
            yield theory, seq, 3
    rng = random.Random(BRIDGE_SEED)
    for theory in (pos_theory(), mon_theory()):
        for seq in bridge_corpus(theory, rng):
            yield theory, seq, 4
    rng = random.Random(1717)
    for theory in (pos_theory(), mon_theory(), cat_theory()):
        for _ in range(20):
            yield theory, random_sequent(rng, theory, max_vars=2, max_atoms=3,
                                         depth=2), 3


class TestSchedule:
    """prove tries a batch of small models after a slice of the budget;
    `prove_saturation_first` saturates with the whole budget first."""

    def test_same_verdicts_as_saturation_first(self):
        kinds = Counter()
        for theory, seq, depth in schedule_corpus():
            for k in (2, 3):
                # a small budget, so that many first slices run out
                want = prove_saturation_first(theory, seq, depth, k, 2_000)
                got = prove(theory, seq, depth, k, 2_000)
                case = (theory.name, k, print_sequent(seq))
                if not (isinstance(want, Refuted) and "term model" in want.note):
                    assert got == want, case
                    kinds[want.verdict] += 1
                elif got == want:
                    kinds["same term model"] += 1
                else:
                    assert got.note == "enumerated countermodel", case
                    m, tup = got.countermodel, got.witness
                    assert is_model(m, theory).ok, case
                    assert tup in interp_formula(m, seq.context, seq.premise), case
                    assert not formula_holds_at(m, seq.context, seq.conclusion,
                                                tup), case
                    kinds["term model to enumerated"] += 1
        assert all(kinds[kind] for kind in (
            "Proved", "Refuted", "Unknown", "same term model",
            "term model to enumerated")), kinds

    def test_slice_that_decides_enumerates_no_model(self, mon, built):
        # the models are built only when the first one is needed
        seq = parse_sequent("[x:*] true |- mul(x,e) = x", mon.signature)
        assert isinstance(prove(mon, seq, depth=2, model_size=4), Proved)
        assert built == []

    @pytest.mark.parametrize("theory, text, options, budgets, verdict", [
        # the slice runs out and the 10th model is a countermodel
        ("mon", "[x:*, y:*] true |- mul(x,y) = mul(y,x)", {}, [31_250],
         "Refuted"),
        # a slice that does not run out is final
        ("pos", "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)", {},
         [31_250], "Proved"),
        # no countermodel among the first models: saturate afresh
        ("pos", "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)",
         {"model_size": 1, "max_work": 5}, [0, 5], "Unknown"),
    ])
    def test_saturation_budgets(self, pos, mon, monkeypatch, theory, text,
                                options, budgets, verdict):
        theory = {"pos": pos, "mon": mon}[theory]
        seen, saturate = [], prover.saturate

        def recording(*args, **kwargs):
            seen.append(kwargs["max_work"])
            return saturate(*args, **kwargs)

        monkeypatch.setattr(prover, "saturate", recording)
        r = prove(theory, parse_sequent(text, theory.signature), **options)
        assert (seen, r.verdict) == (budgets, verdict)
        if verdict == "Refuted":
            assert r.countermodel.name == "M9"
            assert r.note == "enumerated countermodel"


class TestSoundness:
    def test_proved_implies_holds_on_small_models(self, pos):
        from phl.semantics import enumerate_models, holds
        sequents = [
            "[x:*] true |- leq(x,x)",
            "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)",
            "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y",
            "[x:*, y:*] x = y |- leq(x,y)",
        ]
        models = enumerate_models(pos, 2)
        for text in sequents:
            seq = parse_sequent(text, pos.signature)
            r = prove(pos, seq, depth=3, model_size=0)
            assert isinstance(r, Proved), text
            assert all(holds(m, seq).ok for m in models)


class TestElaborator:
    def elaborated(self, theory, text, fuel=4):
        seq = parse_sequent(text, theory.signature)
        d = elaborate(theory, seq, fuel=fuel)
        if d is None:
            return None
        assert check_derivation(theory, d).ok
        assert sequents_alpha_equal(d.sequent, seq)
        return d

    def test_identity(self, pos):
        assert self.elaborated(pos, "[x:*, y:*] leq(x,y) |- leq(x,y)")

    def test_axiom_instance(self, pos):
        assert self.elaborated(pos, "[x:*] true |- leq(x,x)")

    def test_axiom_with_unbound_variable(self, pos):
        assert self.elaborated(
            pos, "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)")

    def test_conjunct_of_axiom(self, mon):
        assert self.elaborated(mon, "[x:*] true |- mul(x, e) = x")

    def test_strictness_chain(self, pos):
        assert self.elaborated(pos, "[x:*, y:*] leq(x,y) |- def(x) /\\ def(y)")

    def test_two_step_chain_with_fuel(self, pos):
        text = "[x:*, y:*, z:*, w:*] leq(x,y) /\\ leq(y,z) /\\ leq(z,w) |- leq(x,w)"
        assert elaborate(pos, parse_sequent(text, pos.signature), fuel=4) is None
        assert self.elaborated(pos, text, fuel=6)

    def test_out_of_reach_returns_none(self, mon):
        seq = parse_sequent("[x:*, y:*] x = y |- mul(x,y) = mul(y,x)",
                            mon.signature)
        assert elaborate(mon, seq, fuel=4) is None


class TestDerivationFormat:
    def test_roundtrip(self, pos):
        c = ctx(("a", "*"), ("b", "*"))
        d = derive_symmetry(pos.signature, c, Var("a"), Var("b"))
        text = format_derivation(d)
        d2 = parse_derivation(text, pos.signature)
        assert check_derivation(pos, d2).ok
        assert sequents_alpha_equal(d2.sequent, d.sequent)
        assert format_derivation(d2) == text

    def test_axiom_node_roundtrip(self, pos):
        d = rule_node(AxiomRule("trans"), (), pos.signature, pos)
        d2 = parse_derivation(format_derivation(d), pos.signature)
        assert check_derivation(pos, d2).ok

    def test_all_leaf_rules_roundtrip(self, pos, mon):
        c = Context((("x", "*"), ("y", "*")))
        leaves = [
            (pos, rule_node(ReflRule(c, 1), (), pos.signature)),
            (pos, rule_node(SRelRule(c, "leq", (X, Y), 0), (), pos.signature)),
            (mon, rule_node(SFunRule(c, "mul", (X, Y), 1), (), mon.signature)),
            (mon, rule_node(SEqRule(c, App("mul", (X, Y)), X, 0), (),
                            mon.signature)),
            (pos, rule_node(EConjRule(c, (defined(X), defined(Y)), 1), (),
                            pos.signature)),
            (pos, rule_node(IConjRule(c, defined(X)), (), pos.signature)),
        ]
        for theory, d in leaves:
            text = format_derivation(d)
            d2 = parse_derivation(text, theory.signature)
            assert check_derivation(theory, d2).ok
            assert format_derivation(d2) == text


def pinned_derivations(pos, mon):
    """One derivation of each rule kind, with the text format_derivation gave
    before the derivation codec was driven by the rule fields."""
    ps, ms = pos.signature, mon.signature
    c = ctx(("x", "*"), ("y", "*"))
    leq = RelApp("leq", (X, Y))
    return [
        (pos, rule_node(AxiomRule("trans"), (), ps, pos),
         '[x:*, y:*, z:*] leq(x, y) /\\ leq(y, z) |- leq(x, z)'
         '  [rule Axiom {"name": "trans"}]'),
        (pos, rule_node(IdRule(c, leq), (), ps),
         '[x:*, y:*] leq(x, y) |- leq(x, y)'
         '  [rule Id {"ctx": "[x:*, y:*]", "formula": "leq(x, y)"}]'),
        (pos, derive_defined_var(ps, c, leq, 1),
         '[x:*, y:*] leq(x, y) |- def(y)  [rule Cut {}]\n'
         '  [x:*, y:*] leq(x, y) |- true'
         '  [rule IConj {"ctx": "[x:*, y:*]", "premise": "leq(x, y)"}]\n'
         '  [x:*, y:*] true |- def(y)'
         '  [rule Refl {"ctx": "[x:*, y:*]", "i": 1}]'),
        (mon, rule_node(SubstRule(c, (("x", App("mul", (X, Y))),)),
                        (rule_node(AxiomRule("unit"), (), ms, mon),), ms),
         '[x:*, y:*] true /\\ def(mul(x, y)) |- mul(mul(x, y), e) = mul(x, y)'
         ' /\\ mul(e, mul(x, y)) = mul(x, y)'
         '  [rule Subst {"sub": {"x": "mul(x, y)"}, "target": "[x:*, y:*]"}]\n'
         '  [x:*] true |- mul(x, e) = x /\\ mul(e, x) = x'
         '  [rule Axiom {"name": "unit"}]'),
        (pos, rule_node(EqRule(formula=RelApp("leq", (X, Z)),
                               xs=ctx(("x", "*")), ys=ctx(("y", "*")),
                               context=ctx(("x", "*"), ("y", "*"), ("z", "*"))),
                        (), ps),
         '[x:*, y:*, z:*] leq(x, z) /\\ x = y |- leq(y, z)'
         '  [rule Eq {"ctx": "[x:*, y:*, z:*]", "formula": "leq(x, z)",'
         ' "xs": "[x:*]", "ys": "[y:*]"}]'),
        (pos, rule_node(SRelRule(c, "leq", (X, Y), 0), (), ps),
         '[x:*, y:*] leq(x, y) |- def(x)  [rule SRel {"args": ["x", "y"],'
         ' "ctx": "[x:*, y:*]", "i": 0, "rel": "leq"}]'),
        (mon, rule_node(SEqRule(c, App("mul", (X, Y)), X, 1), (), ms),
         '[x:*, y:*] mul(x, y) = x |- def(x)  [rule SEq {"ctx": "[x:*, y:*]",'
         ' "lhs": "mul(x, y)", "rhs": "x", "side": 1}]'),
        (mon, rule_node(SFunRule(c, "mul", (X, Y), 1), (), ms),
         '[x:*, y:*] def(mul(x, y)) |- def(y)  [rule SFun {"args": ["x", "y"],'
         ' "ctx": "[x:*, y:*]", "fun": "mul", "i": 1}]'),
        (pos, rule_node(EConjRule(c, (leq, Conj((defined(X), defined(Y)))), 1),
                        (), ps),
         '[x:*, y:*] leq(x, y) /\\ (def(x) /\\ def(y)) |- def(x) /\\ def(y)'
         '  [rule EConj {"ctx": "[x:*, y:*]", "i": 1,'
         ' "parts": ["leq(x, y)", "(def(x) /\\\\ def(y))"]}]'),
        (pos, derive_conj_permutation(ps, c, (leq, defined(X)), (1, 0)),
         '[x:*, y:*] leq(x, y) /\\ def(x) |- def(x) /\\ leq(x, y)'
         '  [rule IConj {}]\n'
         '  [x:*, y:*] leq(x, y) /\\ def(x) |- def(x)  [rule EConj'
         ' {"ctx": "[x:*, y:*]", "i": 1, "parts": ["leq(x, y)", "def(x)"]}]\n'
         '  [x:*, y:*] leq(x, y) /\\ def(x) |- leq(x, y)  [rule EConj'
         ' {"ctx": "[x:*, y:*]", "i": 0, "parts": ["leq(x, y)", "def(x)"]}]'),
    ]


class TestDerivationCodec:
    def test_pinned_text_of_each_rule(self, pos, mon):
        cases = pinned_derivations(pos, mon)
        kinds = set()

        def walk(d):
            kinds.add(d.rule.rule)
            for child in d.children:
                walk(child)

        for theory, d, text in cases:
            walk(d)
            assert format_derivation(d) == text
            assert parse_derivation(text, theory.signature) == d
        assert kinds == {"Axiom", "Id", "Cut", "Subst", "Refl", "Eq", "SRel",
                         "SEq", "SFun", "EConj", "IConj"}

    @pytest.mark.parametrize("tag, message", [
        ('[rule Refl {"ctx": "[x:*]"}]', "Refl rule data lacks key 'i'"),
        ('[rule Refl {"i": 0}]', "Refl rule data lacks key 'ctx'"),
        ('[rule Refl {"ctx": "[x:*]", "i": "0"}]',
         "Refl rule data: 'i' must be an integer"),
        ('[rule Refl {"ctx": "[x:*]", "i": true}]',
         "Refl rule data: 'i' must be an integer"),
        ('[rule Refl {"ctx": ["x"], "i": 0}]',
         "Refl rule data: 'ctx' must be a string"),
        ('[rule SRel {"ctx": "[x:*]", "rel": "leq", "args": ["x", 1], "i": 0}]',
         "SRel rule data: 'args' must be a list of strings"),
        ('[rule Subst {"target": "[x:*]", "sub": ["x"]}]',
         "Subst rule data: 'sub' must be an object of strings"),
        ('[rule Axiom {"name": 3}]', "Axiom rule data: 'name' must be a string"),
        ('[rule Refl [0]]', "Refl rule data must be a JSON object"),
        ('[rule Frob {}]', "unknown rule name 'Frob'"),
        ('[rule Refl {"ctx": "[x:*]", "i": 1, "i": 0}]', "key 'i' given twice"),
    ])
    def test_malformed_rule_data(self, pos, tag, message):
        with pytest.raises(PhlError, match=re.escape(message)):
            parse_derivation("[x:*] true |- def(x)  " + tag, pos.signature)

    def test_bad_indentation(self, pos):
        refl = '[x:*] true |- def(x)  [rule Refl {"ctx": "[x:*]", "i": 0}]'
        with pytest.raises(PhlError, match="bad indentation"):
            parse_derivation("[x:*] true |- def(x)  [rule Cut {}]\n    " + refl,
                             pos.signature)
        with pytest.raises(PhlError, match="multiple roots"):
            parse_derivation(refl + "\n" + refl, pos.signature)

    @pytest.mark.parametrize("margin", ["   ", "\t", "  \t"])
    def test_indentation_other_than_two_spaces_a_level(self, pos, margin):
        refl = '[x:*] true |- def(x)  [rule Refl {"ctx": "[x:*]", "i": 0}]'
        with pytest.raises(PhlError, match="bad indentation in derivation line 2"):
            parse_derivation("[x:*] true |- def(x)  [rule Cut {}]\n" + margin + refl,
                             pos.signature)

    def test_premise_without_context(self, pos):
        with pytest.raises(PhlError, match="unknown variable"):
            parse_derivation('[x:*] def(x) |- true  [rule IConj'
                             ' {"premise": "def(x)"}]', pos.signature)

    def test_empty_conjunction_premise(self, pos):
        d = rule_node(IConjRule(Context(()), Conj(())), (), pos.signature)
        text = format_derivation(d)
        assert '"premise": "true"' in text
        parsed = parse_derivation(text, pos.signature)
        assert check_derivation(pos, parsed).ok
        assert format_derivation(parsed) == text


def round_trip_corpus(pos):
    """(theory, derivation): three with a conjunction of one part, which the
    text format writes as that part (the third nests it in an axiom built in
    code), criterion 1's golden trees, and every `elaborate(fuel=6)` result
    on the criterion 2 and 3 corpora."""
    c = ctx(("x", "*"), ("y", "*"))
    leq = RelApp("leq", (X, Y))
    nested = Theory("nested", pos.signature, (NamedAxiom(
        "ax", Sequent(c, leq, Conj((Conj((leq,)), defined(X))))),))
    cases = [
        (pos, derive_conj_permutation(pos.signature, c, (leq,), (0,))),
        (pos, rule_node(IConjRule(), (rule_node(IdRule(c, leq), (), pos.signature),),
                        pos.signature)),
        (nested, rule_node(AxiomRule("ax"), (), pos.signature, nested)),
    ] + golden_corpus()
    for seed, corpus, theories in (
            (SOUNDNESS_SEED, soundness_corpus,
             (pos_theory(), mon_theory(), cat_theory())),
            (BRIDGE_SEED, bridge_corpus, (pos_theory(), mon_theory()))):
        rng = random.Random(seed)
        for theory in theories:
            for seq in corpus(theory, rng):
                d = elaborate(theory, seq, fuel=6)
                if d is not None:
                    cases.append((theory, d))
    return cases


def test_derivations_check_again_after_a_text_round_trip(pos):
    cases = round_trip_corpus(pos)
    assert len(cases) > 100
    assert all(check_derivation(theory, d).ok for theory, d in cases)
    failed = [format_derivation(d) for theory, d in cases
              if not check_derivation(theory, parse_derivation(
                  format_derivation(d), theory.signature)).ok]
    assert failed == []
