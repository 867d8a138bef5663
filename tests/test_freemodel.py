import functools
import itertools
import random

import pytest

from phl import freemodel
from phl.freemodel import (
    FreeModelError, TermGraph, WorkBudget, assert_in_graph, free_algebra,
    repn_coequalizer, repn_morphism, representing_model, saturate,
    saturation_pass, yoneda_check,
)
from phl.sampling import random_sequent
from phl.semantics import check_hom, enumerate_homs, enumerate_models, \
    interp_formula, is_model, make_structure
from phl.syntax import (
    EQ, REL, TERM, App, Context, Eq, NamedAxiom, RelApp, Sequent, TRUE, Var,
    conj, defined, flatten, parse_formula_in_context, parse_sequent,
    parse_theory, term_depth,
)
from phl.theories import (
    cat_theory, chain_poset, mon_theory, pos_theory, preorder_theory, set_theory,
)
from phl.translation import RelOperator, make_relative_theory


def pres(theory, text, depth):
    ctx, phi = parse_formula_in_context(text, theory.signature)
    return representing_model(theory, ctx, phi, depth)


class TestRepresentingModel:
    def test_leq_presentation(self, pos):
        p = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        assert p.status.saturated and p.status.depth == 1
        assert set(p.structure.carrier("*")) == {"x", "y"}
        assert p.structure.rel_table("leq") == {("x", "x"), ("y", "y"),
                                                ("x", "y")}

    def test_empty_context_truth_is_empty_poset(self, pos):
        p = pres(pos, "[] true", 0)
        assert p.status.saturated
        assert p.element_count() == 0

    def test_free_monoid_truncated(self, mon):
        for d in (1, 2, 3):
            p = pres(mon, "[x:*] true", d)
            assert not p.status.saturated
            assert p.element_count() == 2 ** d + 1

    def test_free_monoid_against_term_enumeration_oracle(self, mon):
        # oracle: evaluate all raw terms of syntactic depth <= d as exponents
        def exponents(depth):
            if depth == 0:
                return {("x", 1)}
            smaller = exponents(depth - 1)
            out = set(smaller) | {("e", 0)}
            for (_, a) in smaller:
                for (_, b) in smaller:
                    out.add(("m", a + b))
            return out

        for d in (1, 2, 3):
            oracle = {k for _, k in exponents(d)} | {0}
            p = pres(mon, "[x:*] true", d)
            assert p.element_count() == len(oracle)

    def test_generic_tuple_satisfies_constraint(self, pos):
        p = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        assert p.entails(RelApp("leq", (Var("x"), Var("y"))))
        assert p.generic_tuple == ("x", "y")

    def test_saturated_presentation_is_model(self, pos):
        p = pres(pos, "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z)", 2)
        assert p.status.saturated
        assert is_model(p.structure, pos).ok
        # transitivity already derived inside the presentation
        assert p.structure.rel_table("leq").issuperset({("x", "z")})

    def test_membership_queries(self, mon):
        p = pres(mon, "[x:*] true", 2)
        assert p.term_class(Var("x")) == "x"
        deep = App("mul", (Var("x"), App("mul", (Var("x"), App("mul", (Var("x"), App("mul", (Var("x"), Var("x")))))))))
        assert p.term_class(deep) is None
        assert p.terms_equal(App("mul", (Var("x"), App("e", ()))), Var("x"))

    def test_equality_collapse(self, mon):
        # x*x = e forces the 2-element cyclic monoid
        p = pres(mon, "[x:*] mul(x,x) = e", 2)
        assert p.status.saturated
        assert p.element_count() == 2

    def test_negative_depth_rejected(self, pos):
        with pytest.raises(FreeModelError):
            pres(pos, "[x:*] true", -1)

    def test_negative_work_budget_rejected(self, pos):
        ctx, phi = parse_formula_in_context("[x:*] true", pos.signature)
        with pytest.raises(FreeModelError, match="work budget"):
            saturate(pos, ctx, phi, 1, max_work=-1)
        with pytest.raises(FreeModelError, match="work budget"):
            representing_model(pos, ctx, phi, 1, max_work=-1)

    def test_zero_work_budget_does_no_work(self, pos):
        ctx, phi = parse_formula_in_context("[x:*, y:*] leq(x,y)", pos.signature)
        g, saturated, exhausted, reached = saturate(pos, ctx, phi, 2, max_work=0)
        assert (saturated, exhausted, reached) == (False, True, False)
        assert g.stamp() == (2, 2, 1) and g.trace == [("premise", ())]
        p = representing_model(pos, ctx, phi, 2, max_work=0)
        assert not p.status.saturated

    def test_no_work_budget_selects_the_default(self, mon, monkeypatch):
        ctx, phi = parse_formula_in_context("[x:*] true", mon.signature)
        _, _, exhausted, _ = saturate(mon, ctx, phi, 2, max_work=None)
        assert not exhausted
        monkeypatch.setattr(freemodel, "DEFAULT_WORK_BUDGET", 100)
        _, _, exhausted, _ = saturate(mon, ctx, phi, 2, max_work=None)
        assert exhausted

    def test_saturation_idempotent(self, pos):
        p1 = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        p2 = pres(pos, "[x:*, y:*] leq(x,y)", 2)
        assert p1.structure.carriers == p2.structure.carriers
        assert p1.structure.rels == p2.structure.rels

    def test_congruence_of_tables(self, mon):
        # tables are keyed by class representatives only
        p = pres(mon, "[x:*] mul(x,x) = e", 3)
        carriers = set(p.structure.carrier("*"))
        for args, val in p.structure.func_table("mul").items():
            assert set(args) <= carriers and val in carriers


# `saturation_pass` and `TermGraph.write` as they were before the instance
# loop was tightened: one budget check, one canonical-class check and one
# `find` per child for every instance.  The tightened loop must try the same
# instances in the same order and leave the same graph, trace and budget.

def reference_write(g, atoms, vals, cap, event):
    find, table = g.find, g.table
    deferred = stopped = False
    for kind, name, args, out in atoms:
        if kind == EQ:
            a, b = vals[args[0]], vals[args[1]]
            if a is None or b is None:
                deferred = True
            elif find(a) != find(b):
                g.merge(a, b, event)
            continue
        if kind == REL:
            classes = [vals[s] for s in args]
            if None in classes:
                deferred = True
            else:
                key = (name, tuple(find(c) for c in classes))
                if key not in g.facts:
                    g.facts.add(key)
                    g.trace.append(event)
            continue
        if kind == TERM:
            stopped = False
        if stopped:
            vals[out] = None
            continue
        kids = tuple([find(vals[s]) for s in args])
        i = table.get((name, kids))
        if i is not None:
            vals[out] = find(i)
            continue
        d = 1 + max((g.class_depth[k] for k in kids), default=0)
        if cap is not None and d > cap:
            vals[out] = None
            stopped = True
        else:
            vals[out] = g._add_node(name, None, kids,
                                    g.sig.function(name).result, d)
    return deferred


def reference_spend(budget):
    budget.remaining -= 1
    if budget.remaining < 0:
        budget.exhausted = True
    return not budget.exhausted


def reference_pass(theory, g, cap, budget, skipped):
    before = g.stamp()
    deferred = False
    classes = g.classes_by_sort()
    for ax in theory.axioms:
        seq = ax.sequent
        clause = flatten(seq.context.names, seq.premise, seq.conclusion)
        pad = [None] * (len(clause.terms) - len(seq.context))
        for combo in itertools.product(*(classes[s] for _, s in seq.context.vars)):
            if not reference_spend(budget):
                return g.stamp() != before, True
            if any(g.find(c) != c for c in combo):
                skipped.append(combo)
                continue
            vals = [*combo, *pad]
            if g.read(clause.premise, vals):
                deferred |= reference_write(g, clause.conclusion, vals, cap,
                                            (ax.name, combo))
    return g.stamp() != before, deferred


def graph_state(g, budget):
    return (g.stamp(), g.table, g.facts, g.class_depth, g.trace,
            budget.remaining, budget.exhausted)


def lockstep(theory, seq, depth, max_work, skipped):
    """Run `saturate`'s pass loop, without a goal, with both passes side by
    side; return how the run ended."""
    graphs, budgets = [], []
    for _ in range(2):
        g = TermGraph(theory.signature)
        env = {name: g.add_var(name, sort) for name, sort in seq.context.vars}
        assert_in_graph(g, seq.premise, env, None, ("premise", ()))
        graphs.append(g)
        budgets.append(WorkBudget(max_work))
    cap = max([depth] + list(graphs[0].class_depth.values()))
    ref = functools.partial(reference_pass, skipped=skipped)
    passes = 0
    while True:
        flags = [f(theory, g, cap, b) for f, g, b in
                 zip((ref, saturation_pass), graphs, budgets)]
        passes += 1
        assert flags[0] == flags[1], (seq, passes)
        assert graph_state(graphs[0], budgets[0]) == \
            graph_state(graphs[1], budgets[1]), (seq, passes)
        if not flags[0][0] or budgets[0].exhausted:
            break
    if budgets[0].exhausted:
        return "exhausted"
    probes = [g.copy() for g in graphs]
    flags = [f(theory, g, cap + 1, b) for f, g, b in
             zip((ref, saturation_pass), probes, budgets)]
    assert flags[0] == flags[1], (seq, "probe")
    assert graph_state(probes[0], budgets[0]) == \
        graph_state(probes[1], budgets[1]), (seq, "probe")
    return "probe exhausted" if budgets[0].exhausted else "probed"


class TestSaturationPass:
    # mon sequents mostly spend the whole 40,000-instance budget, so fewer
    @pytest.mark.parametrize("theory_fn, count", [
        (pos_theory, 20), (preorder_theory, 20), (mon_theory, 6), (cat_theory, 20)])
    def test_agrees_with_reference(self, theory_fn, count):
        theory = theory_fn()
        rng = random.Random(5151)
        sequents = [random_sequent(rng, theory, max_vars=3, max_atoms=2, depth=2)
                    for _ in range(count)]
        endings, skipped = set(), []
        for seq in sequents:
            for depth in (2, 3):
                for max_work in (1, 7, 300, 40_000):
                    endings.add(lockstep(theory, seq, depth, max_work, skipped))
        # some budgets ran out in the pass loop, some lasted into the probe
        assert "exhausted" in endings and endings - {"exhausted"}
        if theory_fn in (mon_theory, cat_theory):
            assert skipped, "no pass skipped a class absorbed mid-pass"

    def test_skips_class_absorbed_mid_pass(self):
        # the instance at (w, k(h(w))) defers f(k(h(w))) at depth 3 and then
        # merges k(h(w)) with j(w); run at the absorbed j(w), the next
        # instance would create that term at the merged class's depth 2
        theory = parse_theory("""\
theory absorb
sorts: a b c
fun h : a -> b;
fun k : b -> c;
fun j : a -> c;
fun f : c -> c;
axiom glue [y:a, x:c] true |- def(f(x)) /\\ k(h(y)) = j(y);
""")
        ctx, phi = parse_formula_in_context("[w:a] def(k(h(w))) /\\ def(j(w))",
                                            theory.signature)
        skipped = []
        assert lockstep(theory, Sequent(ctx, phi, TRUE), 2, 100, skipped) \
            == "probed"
        assert skipped == [(0, 3)]


class TestYoneda:
    def test_leq_vs_chain2(self, pos, chain2):
        p = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        rep = yoneda_check(p, chain2)
        assert rep.interp_size == rep.hom_size == 3
        assert rep.bijective

    def test_vs_empty_poset(self, pos):
        p = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        empty = make_structure("mt", pos.signature, {"*": ()})
        rep = yoneda_check(p, empty)
        assert rep.interp_size == rep.hom_size == 0
        assert rep.bijective

    def test_pair_vs_chain2(self, pos, chain2):
        p = pres(pos, "[x:*, y:*] true", 1)
        rep = yoneda_check(p, chain2)
        assert rep.interp_size == rep.hom_size == 4
        assert rep.bijective

    def test_refuses_truncated(self, mon, z2):
        p = pres(mon, "[x:*] true", 2)
        with pytest.raises(FreeModelError):
            yoneda_check(p, z2)

    def test_representability_sweep(self, pos):
        formulas = ["[x:*] true", "[x:*, y:*] leq(x,y)",
                    "[x:*, y:*] leq(x,y) /\\ leq(y,x)",
                    "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z)"]
        models = [m for m in enumerate_models(pos, 2)]
        for text in formulas:
            p = pres(pos, text, 2)
            for m in models:
                rep = yoneda_check(p, m)
                assert rep.bijective, (text, m.name)


class TestRepnMorphism:
    def test_identity(self, pos):
        p = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        rm = repn_morphism(p, p, (Var("x"), Var("y")))
        assert check_hom(rm.hom)
        assert all(rm.hom.maps["*"][a] == a for a in p.structure.carrier("*"))

    def test_collapse_by_reflexivity(self, pos):
        src = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        tgt = pres(pos, "[z:*] true", 1)
        rm = repn_morphism(src, tgt, (Var("z"), Var("z")))
        assert set(rm.hom.maps["*"].values()) == {"z"}

    def test_failing_obligation(self, pos):
        src = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        tgt = pres(pos, "[z:*, w:*] true", 1)
        with pytest.raises(FreeModelError, match="obligation"):
            repn_morphism(src, tgt, (Var("z"), Var("w")))


class TestCoequalizer:
    def test_pair_of_identities(self, pos):
        p = pres(pos, "[x:*, y:*] leq(x,y)", 1)
        f = repn_morphism(p, p, (Var("x"), Var("y")))
        q = repn_coequalizer(f, f, 1)
        assert q.element_count() == p.element_count()

    def test_collapsing_two_points(self, pos):
        src = pres(pos, "[x:*] true", 1)
        tgt = pres(pos, "[x:*, y:*] true", 1)
        f = repn_morphism(src, tgt, (Var("x"),))
        g = repn_morphism(src, tgt, (Var("y"),))
        q = repn_coequalizer(f, g, 1)
        assert q.element_count() == 1

    def test_universal_property_vs_models(self, pos):
        src = pres(pos, "[x:*] true", 1)
        tgt = pres(pos, "[x:*, y:*] true", 1)
        f = repn_morphism(src, tgt, (Var("x"),))
        g = repn_morphism(src, tgt, (Var("y"),))
        q = repn_coequalizer(f, g, 1)
        # homs out of the coequalizer = homs out of tgt equalizing f and g
        for m in enumerate_models(pos, 2):
            hom_q = len(enumerate_homs(q.structure, m))
            equalizing = [
                h for h in enumerate_homs(tgt.structure, m)
                if all(h.maps["*"][f.hom.maps["*"][a]]
                       == h.maps["*"][g.hom.maps["*"][a]]
                       for a in src.structure.carrier("*"))]
            assert hom_q == len(equalizing)


def semilattice_theory():
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


def constant_theory():
    sets = set_theory()
    ops = [RelOperator("c", Context(), TRUE, "*")]
    return make_relative_theory(sets, ops, [])


class TestFreeAlgebra:
    def test_free_constant_on_point(self):
        rt = constant_theory()
        base = make_structure("one", set_theory().signature, {"*": ("a",)})
        fa = free_algebra(rt, base, 2)
        assert fa.presentation.status.saturated
        assert fa.presentation.element_count() == 2

    def test_free_constant_on_empty(self):
        rt = constant_theory()
        base = make_structure("zero", set_theory().signature, {"*": ()})
        fa = free_algebra(rt, base, 1)
        assert fa.presentation.status.saturated
        assert fa.presentation.element_count() == 1

    def test_free_semilattice_on_two(self):
        rt = semilattice_theory()
        base = make_structure("two", set_theory().signature, {"*": ("a", "b")})
        fa = free_algebra(rt, base, 3)
        assert fa.presentation.status.saturated
        assert fa.presentation.element_count() == 3
        assert check_hom(fa.unit)

    def test_no_operators_gives_iso(self):
        rt = make_relative_theory(set_theory(), [], [])
        base = make_structure("three", set_theory().signature,
                              {"*": ("a", "b", "c")})
        fa = free_algebra(rt, base, 2)
        assert fa.presentation.element_count() == 3
        assert check_hom(fa.unit)
        assert len(set(fa.unit.maps["*"].values())) == 3

    def test_universal_property(self):
        from phl.translation import pht_of
        rt = semilattice_theory()
        theory = pht_of(rt)
        base = make_structure("two", set_theory().signature, {"*": ("a", "b")})
        fa = free_algebra(rt, base, 3)
        for alg in enumerate_models(theory, 2):
            alg_homs = enumerate_homs(fa.presentation.structure, alg)
            base_maps = [dict(zip(("a", "b"), vals))
                         for vals in itertools.product(alg.carrier("*"),
                                                       repeat=2)]
            assert len(alg_homs) == len(base_maps)

    def test_free_on_table_constraints(self, mon):
        # generators with a table entry: the diagram forces the relation
        from phl.translation import pht_of
        rt = make_relative_theory(set_theory(), [], [])
        base = make_structure("pair", set_theory().signature,
                              {"*": ("a", "b")})
        fa = free_algebra(rt, base, 1)
        assert fa.presentation.constraint == TRUE
