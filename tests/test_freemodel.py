import copy
import itertools
import random

import pytest

from phl import freemodel
from phl.freemodel import (
    FreeModelError, TermGraph, assert_in_graph, repn_coequalizer,
    repn_morphism, representing_model, saturate, saturation_pass,
    yoneda_check,
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
from phl.translation import RelOperator, free_algebra, make_relative_theory


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

    def test_last_pass_certifies_saturation(self, pos):
        # two passes over one class take 3 instances each, and the second
        # changes nothing and defers nothing
        ctx, phi = parse_formula_in_context("[x0:*] true", pos.signature)
        for max_work, flags in ((7, (True, False)), (6, (True, False)),
                                (5, (False, True))):
            _, saturated, exhausted, _ = saturate(pos, ctx, phi, 1,
                                                  max_work=max_work)
            assert (saturated, exhausted) == flags, max_work

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


# `saturation_pass` with an interpreter of flat clauses, as it was before the
# instance loop was tightened and the clauses compiled: one budget check, one
# canonical-class check and one `find` per child for every instance.  The
# compiled pass must try the same instances in the same order and leave the
# same graph, trace and budget, and `assert_in_graph` must seed the same
# graph as `reference_write`.  `saturate`'s flags are checked against the
# probe that certified saturation before `saturate` read it from its last
# pass: the reference pass once more, with the cap raised by one, on a copy.

def reference_read(g, atoms, vals):
    table, facts = g.table, g.facts
    get = vals.__getitem__
    for kind, name, args, out in atoms:
        if kind == EQ:
            if get(args[0]) != get(args[1]):
                return False
        elif kind == REL:
            if (name, tuple(map(get, args))) not in facts:
                return False
        else:
            i = table.get((name, tuple(map(get, args))))
            if i is None:
                return False
            vals[out] = g.find(i)
    return True


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


class Budget:
    """The work budget of `reference_pass`, spent one instance at a time."""

    def __init__(self, remaining):
        self.remaining = remaining
        self.exhausted = False


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
            if reference_read(g, clause.premise, vals):
                deferred |= reference_write(g, clause.conclusion, vals, cap,
                                            (ax.name, combo))
    return g.stamp() != before, deferred


def graph_state(g):
    return (g.stamp(), g.table, g.facts, g.class_depth, g.trace)


def lockstep(theory, seq, depth, max_work, skipped):
    """Run `saturate`'s pass loop, without a goal, with both passes side by
    side, after seeding with `reference_write` and `assert_in_graph`; then
    check `saturate` against that loop's graph and against the probe.
    Return how the run ended."""
    graphs = []
    for seed in ("reference", "compiled"):
        g = TermGraph(theory.signature)
        env = {name: g.add_var(name, sort) for name, sort in seq.context.vars}
        if seed == "reference":
            clause = flatten(tuple(env), TRUE, seq.premise)
            vals = [g.find(env[n]) for n in env]
            vals += [None] * (len(clause.terms) - len(vals))
            assert not reference_write(g, clause.conclusion, vals, None,
                                       ("premise", ()))
        else:
            assert_in_graph(g, seq.premise, env)
        graphs.append(g)
    assert graph_state(graphs[0]) == graph_state(graphs[1]), (seq, "seed")
    cap = max([depth] + list(graphs[0].class_depth.values()))
    budget, left = Budget(max_work), max_work
    passes = 0
    while True:
        flags = reference_pass(theory, graphs[0], cap, budget, skipped)
        changed, deferred, left = saturation_pass(theory, graphs[1], cap, left)
        passes += 1
        assert flags == (changed, deferred), (seq, passes)
        assert max(left, -1) == budget.remaining, (seq, passes)
        assert graph_state(graphs[0]) == graph_state(graphs[1]), (seq, passes)
        if not changed or budget.exhausted:
            break
    g, saturated, exhausted, reached = saturate(
        theory, seq.context, seq.premise, depth, max_work=max_work)
    assert not reached and graph_state(g) == graph_state(graphs[0]), seq
    if budget.exhausted:
        assert (saturated, exhausted) == (False, True), seq
        return "exhausted"
    probe = copy.deepcopy(graphs[0])
    probed = reference_pass(theory, probe, cap + 1, budget, skipped)
    if budget.exhausted:
        # the probe alone ran out: the last pass still settles it
        assert (saturated, exhausted) == (not deferred, False), seq
        return "probe exhausted"
    assert (saturated, exhausted) == (probed == (False, False), False), seq
    return "probed"


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

    def test_hoisted_lookup_read_again_after_a_write(self):
        # f(x) is looked up once per x; the instance at (a, a) creates it,
        # and (a, b) must then find it rather than create it again
        theory = parse_theory("""\
theory hoist
sorts: *
fun f : * -> *;
fun g : * -> *;
axiom mk [x:*, y:*] true |- def(f(x)) /\\ def(g(y));
""")
        ctx, phi = parse_formula_in_context("[a:*, b:*] true", theory.signature)
        seq = Sequent(ctx, phi, TRUE)
        endings = {lockstep(theory, seq, depth, max_work, [])
                   for depth in (1, 2) for max_work in (3, 50, 2_000)}
        assert {"exhausted", "probed"} <= endings
        g, _, _, _ = saturate(theory, ctx, phi, 1)
        assert g.stamp() == (6, 6, 0)

    def test_hoisted_class_read_again_after_a_merge(self):
        # the instance at (a, b) writes nothing but the merge of f(a) into
        # b; at (a, c) the lookup of f(a) must give b, or the fact s(f(a))
        # is added again under f(a)'s old class
        theory = parse_theory("""\
theory remerge
sorts: *
fun f : * -> *;
rel r : * *;
rel s : *;
axiom fold [x:*, y:*] r(x, y) |- s(f(x)) /\\ f(x) = y;
""")
        ctx, phi = parse_formula_in_context(
            "[a:*, b:*, c:*] r(a, b) /\\ r(a, c) /\\ s(f(a))", theory.signature)
        seq = Sequent(ctx, phi, TRUE)
        endings = {lockstep(theory, seq, depth, max_work, [])
                   for depth in (1, 2) for max_work in (2, 3, 50)}
        assert {"exhausted", "probed"} <= endings

    def test_deferred_hoisted_term_fits_after_a_merge(self):
        # f(x) at x = h(h(a)) is too deep at (x, k(a)); that instance then
        # merges x with k(a), which lowers x's depth to 1, so the instance
        # at (x, m(a)) creates f(x) at depth 2
        theory = parse_theory("""\
theory lower
sorts: *
fun h : * -> *;
fun k : * -> *;
fun m : * -> *;
fun f : * -> *;
rel r : * *;
axiom low [x:*, y:*] r(x, y) |- def(f(x)) /\\ x = y;
""")
        ctx, phi = parse_formula_in_context(
            "[a:*] r(h(h(a)), k(a)) /\\ r(h(h(a)), m(a))", theory.signature)
        seq = Sequent(ctx, phi, TRUE)
        endings = {lockstep(theory, seq, 2, max_work, [])
                   for max_work in (5, 12, 13, 14, 2_000)}
        assert {"exhausted", "probed"} <= endings
        g = TermGraph(theory.signature)
        env = {"a": g.add_var("a", "*")}
        assert_in_graph(g, phi, env)
        assert g.class_depth[2] == 2 and g.stamp() == (5, 5, 2)
        assert saturation_pass(theory, g, 2, 100) == (True, True, 75)
        fx = App("f", (App("h", (App("h", (Var("a"),)),)),))
        assert g.class_depth[g.lookup(fx, env)] == 2

    def test_budget_runs_out_inside_a_skipped_block(self):
        # (0, 1, 0) merges 1 into 0, so the 16 instances at x = 1 are
        # skipped together; budgets 17 to 31 run out among them
        theory = parse_theory("""\
theory block
sorts: *
rel r : * *;
axiom glue [x:*, y:*, z:*] r(x, y) |- x = y;
""")
        ctx, phi = parse_formula_in_context(
            "[a:*, b:*, c:*, d:*] r(a, b) /\\ r(c, d)", theory.signature)
        seq = Sequent(ctx, phi, TRUE)
        skipped = []
        endings = {lockstep(theory, seq, 1, max_work, skipped)
                   for max_work in range(1, 90)}
        assert endings == {"exhausted", "probed", "probe exhausted"}
        assert (1, 0, 0) in skipped and (1, 3, 3) in skipped

    def test_outer_class_absorbed_mid_block(self):
        # (0, 0, 1) merges k(b) into a; (1, 0, 1) then merges b into a, so
        # the rest of x = b is skipped: (1, 0, 2) by the innermost loop,
        # (1, 1, 0) onwards by the loop over z
        theory = parse_theory("""\
theory outer
sorts: *
fun k : * -> *;
fun u : * -> *;
rel q : *;
rel t : * *;
axiom fold [x:*, z:*, y:*] q(y) |- t(x, y) /\\ x = k(y);
""")
        ctx, phi = parse_formula_in_context(
            "[a:*, b:*, c:*] q(b) /\\ q(c) /\\ def(k(b)) /\\ def(u(a))",
            theory.signature)
        seq = Sequent(ctx, phi, TRUE)
        skipped = []
        assert lockstep(theory, seq, 1, 400, skipped) == "probed"
        assert (1, 0, 2) in skipped and (1, 1, 0) in skipped
        endings = {lockstep(theory, seq, depth, max_work, [])
                   for depth in (1, 2) for max_work in (5, 12, 50, 400)}
        assert {"exhausted", "probed"} <= endings

    def test_axiom_without_variables_and_empty_pool(self):
        theory = parse_theory("""\
theory edges
sorts: * u
fun k : -> *;
fun f : * -> *;
fun j : u -> *;
axiom ground [] true |- def(f(k));
axiom none [x:*, w:u, y:*] true |- f(x) = j(w);
axiom each [x:*] true |- def(f(x));
""")
        ctx, phi = parse_formula_in_context("[a:*] true", theory.signature)
        seq = Sequent(ctx, phi, TRUE)
        endings = {lockstep(theory, seq, depth, max_work, [])
                   for depth in (1, 2, 3) for max_work in range(40)}
        assert {"exhausted", "probed", "probe exhausted"} <= endings

    def test_symbols_named_like_generated_locals(self):
        # every symbol, sort, variable and axiom is named like a local of
        # the compiled clauses; `run` reads a 0-ary term first, `key` writes
        # one first, and `event` writes relation facts after its merge
        theory = parse_theory("""\
theory capture
sorts: d cap
fun g : -> d;
fun parent : d -> d;
fun table : d d -> d;
fun i : d -> cap;
rel depth : d d;
rel name : d;
rel combo : cap;
axiom run [k0:d] def(g) |- def(parent(k0)) /\\ depth(k0, parent(k0));
axiom event [c0:d, c1:d] depth(c0, c1) /\\ name(c1) |- c0 = c1 /\\ name(c0) /\\ combo(i(c0));
axiom key [v0:d] true |- table(v0, g) = parent(v0);
""")
        ctx, phi = parse_formula_in_context(
            "[cap:d, d:d] def(g) /\\ name(d) /\\ depth(cap, d)",
            theory.signature)
        seq = Sequent(ctx, phi, TRUE)
        endings = {lockstep(theory, seq, depth, max_work, [])
                   for depth in (1, 2, 3) for max_work in (3, 40, 2_000)}
        assert {"exhausted", "probed"} <= endings
        g, _, _, _ = saturate(theory, ctx, phi, 2)
        # the merge of c0 with c1, then the fact combo(i(c0))
        assert g.trace.count(("event", (0, 1))) == 2
        env = {n: g.find(i) for n, i in g.vars.items()}
        assert g.lookup(App("parent", (Var("cap"),)), env) is not None
        assert g.lookup(App("parent", (App("parent", (App("g", ()),)),)),
                        env) is None
        # and like the locals of the loops: `count(absorbed)` and `mut` are
        # hoisted lookups, `h3(absorbed)` comes after the merge
        theory = parse_theory("""\
theory loops
sorts: seen log
fun count : seen -> seen;
fun limit : seen seen -> seen;
fun mut : -> seen;
fun h3 : seen -> log;
fun e : log -> log;
rel pools : seen;
rel hm3 : log;
axiom count [absorbed:seen, fresh:seen] pools(absorbed) |- limit(count(absorbed), fresh) = mut /\\ hm3(h3(absorbed));
axiom log [rest:log, w0:log, p0:log] hm3(rest) |- def(e(w0)) /\\ e(rest) = p0;
""")
        ctx, phi = parse_formula_in_context(
            "[seen:seen, log:seen, d:log] pools(seen) /\\ pools(log) /\\ hm3(d)",
            theory.signature)
        seq = Sequent(ctx, phi, TRUE)
        endings = {lockstep(theory, seq, depth, max_work, [])
                   for depth in (1, 2, 3) for max_work in (3, 40, 2_000)}
        assert {"exhausted", "probed"} <= endings


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
    def test_bounded_posets_over_a_chain(self):
        # the base model is a chain, not a bare set: its leq table becomes
        # constraints, and the free top sits above both elements
        from phl.translation import is_algebra
        top = NamedAxiom("top", Sequent(Context((("x", "*"),)), TRUE,
                                        RelApp("leq", (Var("x"), App("t", ())))))
        rt = make_relative_theory(
            pos_theory(), [RelOperator("t", Context(), TRUE, "*")], [top])
        fa = free_algebra(rt, chain_poset(2), 2)
        m = fa.presentation.structure
        assert fa.presentation.status.saturated
        a, b = fa.unit.maps["*"]["a"], fa.unit.maps["*"]["b"]
        t = m.func_table("t")[()]
        assert sorted(m.carrier("*")) == sorted((a, b, t))
        assert m.rel_table("leq") == {(a, a), (a, b), (a, t), (b, b), (b, t),
                                      (t, t)}
        assert check_hom(fa.unit)
        assert fa.unit.target.name == "U_repn"
        assert fa.unit.target.signature == pos_theory().signature
        assert is_algebra(m, rt).ok

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
