import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl import semantics
from phl.morphology import is_injective
from phl.semantics import (
    ChainDiagram, Homomorphism, HoldsResult, PartialStructure, SemanticsError,
    chain_colimit, check_hom, compose_homs, context_tuples, enumerate_homs,
    enumerate_models, enumerate_structures, formula_holds_at, holds,
    identity_hom, interp_formula, interp_term, is_model, iter_models,
    make_structure, parse_hom, parse_model, print_hom, print_model, product,
    size_profiles, terminal,
)
from phl.prover import Refuted, prove
from phl.sampling import random_sequent
from phl.syntax import App, Conj, Context, EQ, Eq, FuncDecl, ParseError, REL, \
    RelApp, TRUE, Truth, Var, atoms, conj, defined, flatten, parse_sequent, \
    parse_theory, print_sequent, subterms
from phl.translation import sketch_to_pht
from phl.theories import (
    MON_SRC, antichain_poset, cat_theory, chain_poset, cycle_preorder, mon_inv_theory,
    mon_theory, pos_theory, preorder_theory, zmod_monoid,
)

from conftest import (
    formulas_over, full_mask_scan, reference_holds, reference_iter_homs,
)
from test_translation import product_sketch, pullback_sketch


class TestInterpretation:
    def test_monoid_term_lookup(self, mon, z2):
        ctx = Context((("x", "*"), ("y", "*")))
        term = App("mul", (Var("x"), App("mul", (Var("y"), App("e", ())))))
        assert interp_term(z2, ctx, term, ("1", "1")) == "0"

    def test_projection(self, pos, chain2):
        ctx = Context((("x", "*"),))
        assert interp_term(chain2, ctx, Var("x"), ("a",)) == "a"

    def test_empty_table_undefined(self):
        mi = mon_inv_theory()
        m = make_structure("m2", mi.signature, {"*": ("e", "a")},
                           {"e": {(): "e"},
                            "mul": {("e", "e"): "e", ("e", "a"): "a",
                                    ("a", "e"): "a", ("a", "a"): "a"}})
        ctx = Context((("x", "*"),))
        assert interp_term(m, ctx, App("inv", (Var("x"),)), ("a",)) is None
        assert interp_formula(m, ctx, defined(App("inv", (Var("x"),)))) == set()

    def test_leq_formula(self, pos, chain2):
        ctx = Context((("x", "*"), ("y", "*")))
        f = RelApp("leq", (Var("x"), Var("y")))
        assert interp_formula(chain2, ctx, f) == {("a", "a"), ("a", "b"),
                                                  ("b", "b")}

    def test_truth_is_carrier(self, chain2):
        ctx = Context((("x", "*"),))
        assert interp_formula(chain2, ctx, TRUE) == {("a",), ("b",)}


class TestHolds:
    def antisym(self, pos):
        return parse_sequent("[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y",
                             pos.signature)

    def test_chain_antisymmetric(self, pos, chain2):
        assert holds(chain2, self.antisym(pos)).ok

    def test_cycle_fails_with_witness(self, pos):
        r = holds(cycle_preorder(), self.antisym(pos))
        assert not r.ok
        assert r.witness in {("a", "b"), ("b", "a")}

    def test_tautology(self, pos, chain2):
        seq = parse_sequent("[x:*, y:*] leq(x,y) |- leq(x,y)", pos.signature)
        assert holds(chain2, seq).ok

    def test_is_model(self, pos, chain2):
        assert is_model(chain2, pos).ok
        empty = make_structure("mt", pos.signature, {"*": ()})
        assert is_model(empty, pos).ok
        report = is_model(cycle_preorder(), pos)
        assert not report.ok
        assert report.violations[0][0] == "antisym"


class TestHoms:
    def test_identity(self, chain2):
        assert check_hom(identity_hom(chain2))

    def test_collapse_to_point(self, pos, chain2):
        pt = chain_poset(1)
        h = Homomorphism("c", chain2, pt, {"*": {"a": "a", "b": "a"}})
        assert check_hom(h)

    def test_constant_and_reversal(self, chain2):
        const_b = Homomorphism("cb", chain2, chain2, {"*": {"a": "b", "b": "b"}})
        assert check_hom(const_b)
        rev = Homomorphism("rev", chain2, chain2, {"*": {"a": "b", "b": "a"}})
        assert not check_hom(rev)

    def test_enumerate_homs_count(self, chain2):
        # monotone self-maps of the 2-chain: aa, ab, bb
        assert len(enumerate_homs(chain2, chain2)) == 3

    def test_enumerate_agrees_with_brute_force(self, chain2, chain3):
        homs = enumerate_homs(chain2, chain3)
        brute = []
        for vals in itertools.product(chain3.carrier("*"), repeat=2):
            h = Homomorphism("b", chain2, chain3,
                             {"*": dict(zip(chain2.carrier("*"), vals))})
            if check_hom(h):
                brute.append(h.maps)
        assert [h.maps for h in homs] == brute

    def test_monoid_homs_preserve_unit(self, mon, z2, z4):
        homs = enumerate_homs(z4, z2)
        assert all(h.maps["*"]["0"] == "0" for h in homs)
        assert {h.maps["*"]["1"] for h in homs} == {"0", "1"}

    def test_empty_source_keeps_its_nullary_facts(self):
        # no element is ever mapped, so the fact p must be checked up front
        sig = parse_theory("theory t\nsorts: *;\nrel p : ;\n").signature
        m = make_structure("m", sig, {}, rels={"p": {()}})
        n = make_structure("n", sig, {})
        assert list(semantics.iter_homs(m, n)) == []
        assert not check_hom(Homomorphism("h", m, n, {"*": {}}))
        assert [h.maps for h in semantics.iter_homs(n, m)] == [{"*": {}}]


def random_restrict(rng, m, n):
    """About half the elements of m limited to a random subset of their
    sort's carrier in n, empty subsets included."""
    return {s: {a: set(rng.sample(n.carrier(s), rng.randint(0, len(n.carrier(s)))))
                for a in m.carrier(s) if rng.random() < 0.5}
            for s in m.signature.sorts}


def hom_corpus(name):
    if name == "mon":
        # no monoid has an empty carrier, so the empty structure stands in
        empty = make_structure("empty", mon_theory().signature, {"*": ()})
        return list(enumerate_models(mon_theory(), 2)) + [
            zmod_monoid(2), zmod_monoid(4), empty]
    theory, size = {"pos": (pos_theory(), 3), "preord": (preorder_theory(), 3),
                    "cat": (cat_theory(), 1)}[name]
    return list(enumerate_models(theory, size))


class TestInjectiveHomSearch:
    """The injective search prunes a partial map once it repeats a value;
    filtering the full search is the oracle."""

    @pytest.mark.parametrize("name", ["pos", "preord", "mon", "cat"])
    @pytest.mark.parametrize("restricted", [False, True],
                             ids=["free", "restricted"])
    def test_same_maps_as_filtered_search(self, name, restricted):
        rng = random.Random(f"{name}-{restricted}")
        models = hom_corpus(name)
        assert any(not m.carrier(s) for m in models for s in m.signature.sorts)
        found = 0
        for m in models:
            for n in models:
                r = random_restrict(rng, m, n) if restricted else None
                got = [h.maps for h in semantics.iter_homs(m, n, r, injective=True)]
                want = [h.maps for h in semantics.iter_homs(m, n, r)
                        if is_injective(h)]
                assert got == want, (m.name, n.name, r)
                found += len(got)
        assert found


def hom_corpus_with_constructions(name):
    """hom_corpus, with products of two of its non-empty structures of at
    most two elements and some closed submodels of those products.  For cat
    the structures have up to two objects and two arrows, and the factors up
    to three elements."""
    rng = random.Random(name)
    if name == "cat":
        models, most = list(enumerate_models(cat_theory(), 2)), 3
    else:
        models, most = hom_corpus(name), 2
    sig = models[0].signature
    small = [m for m in models if 0 < m.size() <= most]
    prods = [product(sig, rng.sample(small, 2)) for _ in range(3)]
    subs = [sub for p in prods for _, sub in full_mask_scan(p) if sub.size() > 1]
    return models + prods + rng.sample(subs, min(4, len(subs)))


class TestHomSearchAgainstRescan:
    """iter_homs checks each table entry once, at the element that decides
    it; the search that rescans the whole map at every node is the oracle.
    Both must yield the same homs, named alike, in the same order."""

    @pytest.mark.parametrize("name", ["pos", "preord", "mon", "cat"])
    @pytest.mark.parametrize("injective", [False, True],
                             ids=["all", "injective"])
    @pytest.mark.parametrize("restricted", [False, True],
                             ids=["free", "restricted"])
    def test_same_homs_in_same_order(self, name, injective, restricted):
        rng = random.Random(f"{name}-{injective}-{restricted}")
        structures = hom_corpus_with_constructions(name)
        pairs = list(itertools.product(structures, repeat=2))
        found = 0
        for m, n in rng.sample(pairs, min(300, len(pairs))):
            r = random_restrict(rng, m, n) if restricted else None
            got = [(h.name, h.maps)
                   for h in semantics.iter_homs(m, n, r, injective)]
            want = [(h.name, h.maps)
                    for h in reference_iter_homs(m, n, r, injective)]
            assert got == want, (m.name, n.name, r)
            found += len(got)
        assert found


class TestProduct:
    def test_square_of_chain(self, pos, chain2):
        p = product(pos.signature, [chain2, chain2])
        assert p.size() == 4
        assert is_model(p, pos).ok
        assert len(p.rel_table("leq")) == 9

    def test_empty_product_is_terminal(self, pos, mon):
        t = terminal(pos.signature)
        assert t.size() == 1
        assert is_model(t, pos).ok
        tm = terminal(mon.signature)
        assert is_model(tm, mon).ok
        assert len(tm.func_table("mul")) == 1

    def test_product_with_empty_is_empty(self, pos, chain2):
        empty = make_structure("mt", pos.signature, {"*": ()})
        p = product(pos.signature, [chain2, empty])
        assert p.size() == 0

    def test_size_cap(self, pos, chain3):
        with pytest.raises(SemanticsError):
            product(pos.signature, [chain3] * 8, cap=100)

    def test_size_cap_admits_a_product_of_the_cap_size(self, pos, chain2):
        assert product(pos.signature, [chain2] * 2, cap=4).size() == 4
        with pytest.raises(SemanticsError, match="exceed cap 3"):
            product(pos.signature, [chain2] * 2, cap=3)


class TestChainColimit:
    def inclusion(self, small, big):
        maps = {"*": {a: a for a in small.carrier("*")}}
        return Homomorphism("i", small, big, maps)

    def test_inclusion_chain(self, pos):
        c1, c2, c3 = chain_poset(1), chain_poset(2), chain_poset(3)
        d = ChainDiagram(
            order=(("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"),
                   ("2", "3"), ("1", "3")),
            stages={"1": c1, "2": c2, "3": c3},
            arrows={("1", "2"): self.inclusion(c1, c2),
                    ("2", "3"): self.inclusion(c2, c3),
                    ("1", "3"): self.inclusion(c1, c3)})
        res = chain_colimit(pos_theory(), d)
        assert res.structure.size() == 3
        assert is_model(res.structure, pos_theory()).ok
        assert len(res.structure.rel_table("leq")) == 6
        for i in ("1", "2", "3"):
            assert check_hom(res.coprojections[i])

    def test_constant_diagram(self, pos, chain2):
        d = ChainDiagram(order=(("0", "0"),), stages={"0": chain2}, arrows={})
        res = chain_colimit(pos_theory(), d)
        assert res.structure.size() == 2
        assert len(res.structure.rel_table("leq")) == 3

    def test_monoid_two_stage(self, mon, z2, z4):
        h = Homomorphism("mod2", z4, z2,
                         {"*": {"0": "0", "1": "1", "2": "0", "3": "1"}})
        assert check_hom(h)
        d = ChainDiagram(order=(("a", "a"), ("b", "b"), ("a", "b")),
                         stages={"a": z4, "b": z2}, arrows={("a", "b"): h})
        res = chain_colimit(mon, d)
        assert res.structure.size() == 2
        assert is_model(res.structure, mon).ok

    def test_non_functorial_rejected(self, pos, chain2):
        swap = Homomorphism("s", chain2, chain2, {"*": {"a": "b", "b": "a"}})
        d = ChainDiagram(order=(("0", "0"), ("1", "1"), ("0", "1")),
                         stages={"0": chain2, "1": chain2},
                         arrows={("0", "1"): swap})
        with pytest.raises(SemanticsError):
            chain_colimit(pos_theory(), d)

    def test_missing_arrow_rejected(self, pos):
        c1, c2, c3 = chain_poset(1), chain_poset(2), chain_poset(3)
        d = ChainDiagram(
            order=(("0", "0"), ("1", "1"), ("2", "2"), ("0", "1"),
                   ("1", "2"), ("0", "2")),
            stages={"0": c1, "1": c2, "2": c3},
            arrows={("0", "1"): self.inclusion(c1, c2),
                    ("1", "2"): self.inclusion(c2, c3)})
        with pytest.raises(SemanticsError,
                           match=r"^bad diagram: missing arrow 0 -> 2$"):
            chain_colimit(pos_theory(), d)

    def test_arrow_on_unknown_stage_rejected(self, pos):
        c1, c2 = chain_poset(1), chain_poset(2)
        d = ChainDiagram(order=(("0", "0"), ("1", "1"), ("0", "1")),
                         stages={"0": c1, "1": c2},
                         arrows={("0", "1"): self.inclusion(c1, c2),
                                 ("0", "9"): self.inclusion(c1, c2)})
        with pytest.raises(SemanticsError,
                           match=r"^bad diagram: arrow 0 -> 9 has an unknown stage$"):
            chain_colimit(pos_theory(), d)

    def test_arrow_outside_the_order_rejected(self, pos):
        c1, c2 = chain_poset(1), chain_poset(2)
        d = ChainDiagram(order=(("0", "0"), ("1", "1"), ("0", "1")),
                         stages={"0": c1, "1": c2},
                         arrows={("0", "1"): self.inclusion(c1, c2),
                                 ("1", "0"): Homomorphism(
                                     "r", c2, c1, {"*": {"a": "a", "b": "a"}})})
        with pytest.raises(SemanticsError,
                           match=r"^bad diagram: arrow 1 -> 0 is outside the order$"):
            chain_colimit(pos_theory(), d)

    def test_order_not_antisymmetric_reported_once(self, pos):
        c1 = chain_poset(1)
        same = Homomorphism("i", c1, c1, {"*": {"a": "a"}})
        d = ChainDiagram(order=(("0", "0"), ("1", "1"), ("0", "1"), ("1", "0")),
                         stages={"0": c1, "1": c1},
                         arrows={("0", "1"): same, ("1", "0"): same})
        with pytest.raises(SemanticsError,
                           match=r"^bad diagram: order not antisymmetric on 0,1$"):
            chain_colimit(pos_theory(), d)

    def test_order_not_reflexive_rejected(self, pos):
        d = ChainDiagram(order=(), stages={"0": chain_poset(1)}, arrows={})
        with pytest.raises(SemanticsError,
                           match=r"^bad diagram: order not reflexive at 0;"):
            chain_colimit(pos_theory(), d)

    def test_poset_not_directed_rejected(self, pos):
        d = ChainDiagram(order=(("0", "0"), ("1", "1")),
                         stages={"0": chain_poset(1), "1": chain_poset(2)},
                         arrows={})
        with pytest.raises(SemanticsError,
                           match=r"^bad diagram: poset not directed at 0,1$"):
            chain_colimit(pos_theory(), d)

    @pytest.mark.parametrize("first, maps, problem", [
        (2, {"a": "b", "b": "a"}, "is not a homomorphism"),
        (1, {"a": "a", "b": "b"}, "has wrong endpoints"),
    ])
    def test_bad_arrow_rejected(self, pos, first, maps, problem):
        """An arrow 0 -> 1 from chain2 to chain2, between stages chain`first`
        and chain2."""
        c2 = chain_poset(2)
        d = ChainDiagram(order=(("0", "0"), ("1", "1"), ("0", "1")),
                         stages={"0": chain_poset(first), "1": c2},
                         arrows={("0", "1"): Homomorphism("h", c2, c2, {"*": maps})})
        with pytest.raises(SemanticsError,
                           match=rf"^bad diagram: arrow 0 -> 1 {problem}$"):
            chain_colimit(pos_theory(), d)

    def test_order_not_transitive_rejected(self, pos):
        # directed (3 is the top) but without the pair 0 <= 2
        c = [chain_poset(n) for n in (1, 2, 3, 4)]
        pairs = [("0", "1"), ("1", "2"), ("0", "3"), ("1", "3"), ("2", "3")]
        d = ChainDiagram(
            order=tuple((i, i) for i in "0123") + tuple(pairs),
            stages={str(n): c[n] for n in range(4)},
            arrows={(i, j): self.inclusion(c[int(i)], c[int(j)])
                    for i, j in pairs})
        with pytest.raises(SemanticsError,
                           match=r"^bad diagram: order not transitive at 0,1,2$"):
            chain_colimit(pos_theory(), d)


class TestEnumeration:
    def test_monoid_counts(self, mon):
        # labelled monoids: 1 of size 1, 4 of size 2, 33 of size 3
        assert len(list(enumerate_structures(mon, {"*": 1}))) == 1
        assert len(list(enumerate_structures(mon, {"*": 2}))) == 4
        assert len(list(enumerate_structures(mon, {"*": 3}))) == 33

    def test_poset_counts(self, pos):
        # labelled posets, OEIS A001035: 1, 3, 19, 219
        assert len(list(enumerate_structures(pos, {"*": 1}))) == 1
        assert len(list(enumerate_structures(pos, {"*": 2}))) == 3
        assert len(list(enumerate_structures(pos, {"*": 3}))) == 19
        assert len(list(enumerate_structures(pos, {"*": 4}))) == 219

    def test_preorder_counts(self):
        # labelled preorders, OEIS A000798: 1, 4, 29, 355
        pre = preorder_theory()
        assert [len(list(enumerate_structures(pre, {"*": n})))
                for n in (1, 2, 3, 4)] == [1, 4, 29, 355]

    def test_models_share_carriers_and_equal_tables(self, pos, mon):
        models = list(enumerate_structures(pos, {"*": 3}))
        assert all(m.carriers is models[0].carriers for m in models)
        assert all(m.funcs is models[0].funcs for m in models)
        models = list(enumerate_structures(mon, {"*": 3}))
        for prev, m in zip(models, models[1:]):
            for f, table in m.funcs.items():
                assert (table is prev.funcs[f]) == (table == prev.funcs[f])

    def test_all_enumerated_are_models(self, pos):
        for m in enumerate_models(pos_theory(), 3):
            assert is_model(m, pos_theory()).ok

    def test_models_cached_per_theory_value(self):
        # two separate parses give equal, distinct Theory objects; the cache
        # hands both the same tuple, with the models named in order
        a, b = parse_theory(MON_SRC), parse_theory(MON_SRC)
        assert a == b and a is not b
        models = enumerate_models(a, 2)
        assert enumerate_models(b, 2) is models
        assert [m.name for m in models] == [f"M{i}" for i in range(len(models))]
        assert len(models) == 1 + 4      # no empty monoid: the unit is a constant


def eager_models(theory, max_size) -> tuple:
    """The models as one eager pass over the size profiles names them."""
    out = [m for sizes in size_profiles(theory.signature.sorts, max_size)
           for m in enumerate_structures(theory, sizes)]
    return tuple(replace(m, name=f"M{i}") for i, m in enumerate(out))


class TestLazyModelSearch:
    def test_prove_stops_at_first_countermodel(self, mon, built):
        seq = parse_sequent("[x:*, y:*] true |- mul(x,y) = mul(y,x)", mon.signature)
        r = prove(mon, seq, model_size=4)
        assert isinstance(r, Refuted)
        assert (r.countermodel.name, r.witness) == ("M9", ("u1", "u2"))
        assert len(built) == 10
        # an equal model, built afresh, at the same place in the full list
        models = enumerate_models(mon, 4)
        assert len(built) == 10 + 662
        assert models == eager_models(mon, 4)
        assert models[9] == r.countermodel

    def test_models_follow_the_eager_order(self, pos, mon, built):
        for theory in (pos, mon):
            for k in range(4):
                want = eager_models(theory, k)
                del built[:]
                assert tuple(iter_models(theory, k)) == want
                assert enumerate_models(theory, k) == want
                assert len(built) == 2 * len(want)

    def test_enumeration_that_raises_is_not_cached(self, mon, built,
                                                   monkeypatch):
        counting = semantics.enumerate_structures

        class Interrupted(Exception):
            pass

        def interrupted(theory, sizes):
            for i, m in enumerate(counting(theory, sizes)):
                if sizes == {"*": 3} and i == 2:
                    raise Interrupted
                yield m

        monkeypatch.setattr(semantics, "enumerate_structures", interrupted)
        with pytest.raises(Interrupted):
            enumerate_models(mon, 3)
        monkeypatch.setattr(semantics, "enumerate_structures", counting)
        del built[:]
        assert enumerate_models(mon, 3) == eager_models(mon, 3)
        assert len(built) == len(eager_models(mon, 3))


class TestMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_hom_image_preserves_formulas(self, pos, data):
        ctx = Context((("x", "*"), ("y", "*")))
        f = data.draw(formulas_over(pos.signature, ctx))
        chain2 = chain_poset(2)
        chain3 = chain_poset(3)
        for h in enumerate_homs(chain2, chain3):
            for tup in interp_formula(chain2, ctx, f):
                image = tuple(h.maps["*"][a] for a in tup)
                assert formula_holds_at(chain3, ctx, f, image)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_conj_is_intersection(self, pos, data):
        ctx = Context((("x", "*"), ("y", "*")))
        f1 = data.draw(formulas_over(pos.signature, ctx))
        f2 = data.draw(formulas_over(pos.signature, ctx))
        m = chain_poset(3)
        lhs = interp_formula(m, ctx, conj([f1, f2]))
        assert lhs == interp_formula(m, ctx, f1) & interp_formula(m, ctx, f2)


class TestTextFormats:
    def test_model_roundtrip(self, pos, chain2):
        text = print_model(chain2, "pos")
        m, claimed = parse_model(text, pos.signature)
        assert claimed == "pos"
        assert m.carriers == chain2.carriers
        assert m.rels == chain2.rels

    def test_monoid_model_roundtrip(self, mon, z4):
        m, _ = parse_model(print_model(z4, "mon"), mon.signature)
        assert m.funcs == z4.funcs

    def test_hom_roundtrip(self, chain2):
        h = Homomorphism("collapse", chain2, chain2,
                         {"*": {"a": "b", "b": "b"}})
        text = print_hom(h)
        h2 = parse_hom(text, {"chain2": chain2})
        assert h2.maps == h.maps

    @pytest.mark.parametrize("maps", ["map *: a->a a->b b->b;\n",
                                      "map *: a->b b->b;\nmap *: a->a;\n"])
    def test_hom_element_mapped_twice(self, chain2, maps):
        with pytest.raises(ParseError, match=r"map \*: element 'a' mapped twice"):
            parse_hom("hom h : chain2 -> chain2\n" + maps, {"chain2": chain2})

    def test_carrier_given_twice(self, pos):
        text = "model m of pos\ncarrier *: a b;\ncarrier *: c;\n"
        with pytest.raises(ParseError, match=r"carrier \* given twice"):
            parse_model(text, pos.signature)

    def test_carrier_for_unknown_sort(self, pos):
        # reported like a table for an unknown relation, not dropped
        bad = r"^bad structure 'm': carrier for unknown sort 'bogus'$"
        with pytest.raises(SemanticsError, match=bad):
            make_structure("m", pos.signature, {"*": ("a",), "bogus": ("b",)})
        with pytest.raises(SemanticsError,
                           match="table for unknown relation 'nope'"):
            make_structure("m", pos.signature, {"*": ("a",)},
                           rels={"nope": []})
        text = "model m of pos\ncarrier *: a;\ncarrier bogus: b;\n"
        with pytest.raises(SemanticsError, match=bad):
            parse_model(text, pos.signature)

    def test_fun_entry_given_twice(self, mon):
        text = ("model m of mon\ncarrier *: a b;\nfun e: () -> a;\n"
                "fun mul: (a,a) -> a;\nfun mul: (a,a) -> b;\n")
        with pytest.raises(ParseError, match=r"fun mul: \(a,a\) given twice"):
            parse_model(text, mon.signature)


# ---------------------------------------------------------------------------
# the flat-clause evaluator against a recursive Kleene-strict reference

def ref_term(m, env, t):
    if isinstance(t, Var):
        return env[t.name]
    vals = [ref_term(m, env, a) for a in t.args]
    if None in vals:
        return None
    return m.func_table(t.func).get(tuple(vals))


def ref_holds(m, env, f) -> bool:
    if isinstance(f, Truth):
        return True
    if isinstance(f, Conj):
        return all(ref_holds(m, env, p) for p in f.parts)
    if isinstance(f, Eq):
        lv, rv = ref_term(m, env, f.lhs), ref_term(m, env, f.rhs)
        return lv is not None and lv == rv
    vals = [ref_term(m, env, a) for a in f.args]
    return None not in vals and tuple(vals) in m.rel_table(f.rel)


def _terms_of(f):
    for a in atoms(f):
        for t in ((a.lhs, a.rhs) if isinstance(a, Eq) else a.args):
            yield from subterms(t)


class TestFlatEvaluator:
    @pytest.mark.parametrize("theory_fn", [pos_theory, preorder_theory,
                                           mon_theory, cat_theory])
    def test_agrees_with_reference(self, theory_fn):
        theory = theory_fn()
        models = enumerate_models(theory, 3)
        rng = random.Random(4242)
        for _ in range(30):
            seq = random_sequent(rng, theory, max_vars=3, max_atoms=3, depth=2)
            ctx = seq.context
            terms = set(_terms_of(seq.premise)) | set(_terms_of(seq.conclusion))
            for m in models:
                witness = None
                for tup in context_tuples(m, ctx):
                    env = dict(zip(ctx.names, tup))
                    p = ref_holds(m, env, seq.premise)
                    c = ref_holds(m, env, seq.conclusion)
                    assert formula_holds_at(m, ctx, seq.premise, tup) == p
                    assert formula_holds_at(m, ctx, seq.conclusion, tup) == c
                    for t in terms:
                        assert interp_term(m, ctx, t, tup) == ref_term(m, env, t)
                    if p and not c and witness is None:
                        witness = tup
                assert holds(m, seq) == HoldsResult(witness is None, witness)

    @staticmethod
    def _brute_force(theory, sizes):
        """Every partial table on the enumerator's carriers, filtered by
        is_model."""
        sig = theory.signature
        carriers = {s: tuple(f"{'u' if s == '*' else s}{i}"
                             for i in range(sizes[s])) for s in sig.sorts}
        cells = [(f.name, args, carriers[f.result] + (None,))
                 for f in sig.functions
                 for args in itertools.product(*(carriers[s] for s in f.arg_sorts))]
        cells += [(r.name, args, (False, True)) for r in sig.relations
                  for args in itertools.product(*(carriers[s] for s in r.arg_sorts))]
        found, candidates = [], 0
        for choice in itertools.product(*(opts for _, _, opts in cells)):
            candidates += 1
            funcs = {f.name: {} for f in sig.functions}
            rels = {r.name: set() for r in sig.relations}
            for (name, args, _), v in zip(cells, choice):
                if v is True:
                    rels[name].add(args)
                elif v is not None and v is not False:
                    funcs[name][args] = v
            m = PartialStructure("M", sig, carriers, funcs,
                                 {r: frozenset(t) for r, t in rels.items()})
            if is_model(m, theory):
                found.append(print_model(m))
        return found, candidates

    @pytest.mark.parametrize("theory_fn, sizes, candidates", [
        (mon_theory, {"*": 2}, 243),
        (cat_theory, {"ob": 1, "mor": 2}, 3888),
    ])
    def test_enumeration_matches_brute_force(self, theory_fn, sizes, candidates):
        theory = theory_fn()
        want, n = self._brute_force(theory, sizes)
        assert n == candidates
        got = [print_model(replace(m, name="M"))
               for m in enumerate_structures(theory, sizes)]
        assert got and len(got) == len(set(got))
        assert sorted(got) == sorted(want)


class TestRandomSequents:
    def test_cat_draws_stay_within_depth(self):
        # at depth 0 a sort with no variable and no constant has no term;
        # picking a constructor there recursed without bound
        rng = random.Random(2)
        for theory in (pos_theory(), preorder_theory(), mon_theory()):
            for _ in range(60):
                random_sequent(rng, theory, max_vars=3, max_atoms=2, depth=2)
        for _ in range(60):
            random_sequent(rng, cat_theory(), max_vars=3, max_atoms=2, depth=2)


# ---------------------------------------------------------------------------
# the compiled readers and the propagating enumerator against the
# interpreted read loop and the enumerator they replace

UNK = semantics._UNK


def reference_read(atoms, vals, funcs, rels, holes, touched) -> bool | None:
    """The interpreted three-valued read of a conjunction of flat atoms."""
    known = True
    get = vals.__getitem__
    for kind, name, args, out in atoms:
        if kind == EQ:
            x, y = get(args[0]), get(args[1])
            if x != y and x is not UNK and y is not UNK:
                return False
            continue
        key = tuple(map(get, args))
        if kind == REL:
            if key in rels[name]:
                continue
        else:
            v = funcs[name].get(key)
            if v is not None:
                vals[out] = v
                continue
        if not holes:
            return False
        if UNK not in key:
            cell = (name, key)
            if cell not in holes:
                return False
            touched.append(cell)
            known = False
        if kind != REL:
            vals[out] = UNK
    return True if known else None


def reference_enumerate(theory, sizes):
    """The enumerator before buckets and forcing: every assignment scans the
    whole pending list for the instances that watch the cell."""
    sig = theory.signature
    carriers = {s: tuple(f"{semantics._sort_tag(s)}{i}"
                         for i in range(sizes.get(s, 0))) for s in sig.sorts}
    totalish = semantics._totalish_functions(theory)

    def func_rank(d: FuncDecl):
        if not d.arg_sorts:
            return (0, 0, d.name)
        if d.name in totalish:
            return (1, len(d.arg_sorts), d.name)
        return (2, len(d.arg_sorts), d.name)

    cells = []
    for f in sorted(sig.functions, key=func_rank):
        options = list(carriers[f.result]) + [None]
        for args in itertools.product(*(carriers[s] for s in f.arg_sorts)):
            cells.append((f.name, args, options))
    for r in sorted(sig.relations, key=lambda d: (len(d.arg_sorts), d.name)):
        for args in itertools.product(*(carriers[s] for s in r.arg_sorts)):
            cells.append((r.name, args, [None, True]))

    funcs = {f.name: {} for f in sig.functions}
    rels = {r.name: {} for r in sig.relations}
    tables = {**funcs, **rels}
    holes = {(name, args) for name, args, _ in cells}

    instances = []
    for ax in theory.axioms:
        seq = ax.sequent
        clause = flatten(seq.context.names, seq.premise, seq.conclusion)
        for tup in itertools.product(*(carriers[s] for _, s in seq.context.vars)):
            instances.append((clause.premise, clause.conclusion,
                              semantics._slots(clause, tup)))
    watch = [frozenset()] * len(instances)

    def status(k):
        premise, conclusion, vals = instances[k]
        touched = []
        p = (reference_read(premise, vals, funcs, rels, holes, touched)
             if premise else True)
        if p is False:
            return True
        c = reference_read(conclusion, vals, funcs, rels, holes, touched)
        if c is True:
            return True
        if p is True and c is False:
            return False
        watch[k] = frozenset(touched)
        return None

    def freeze(count):
        return PartialStructure(f"M{count}", sig, dict(carriers),
                                {f: dict(t) for f, t in funcs.items()},
                                {r: frozenset(t) for r, t in rels.items()})

    count = 0

    def rec(i, unknown):
        nonlocal count
        if i == len(cells):
            if all(status(k) for k in unknown):
                count += 1
                yield freeze(count)
            return
        name, args, options = cells[i]
        cell = (name, args)
        table = tables[name]
        holes.remove(cell)
        for value in options:
            if value is None:
                table.pop(args, None)
            else:
                table[args] = value
            still, trail, ok = [], [], True
            for k in unknown:
                if cell not in watch[k]:
                    still.append(k)
                    continue
                trail.append((k, watch[k]))
                st = status(k)
                if st is False:
                    ok = False
                    break
                if st is None:
                    still.append(k)
            if ok:
                yield from rec(i + 1, still)
            for k, old in trail:
                watch[k] = old
        table.pop(args, None)
        holes.add(cell)

    initial = []
    for k in range(len(instances)):
        st = status(k)
        if st is False:
            return
        if st is None:
            initial.append(k)
    yield from rec(0, initial)


def random_tables(rng, sig, carriers):
    """Random partial tables on the given carriers, each cell assigned a
    value, left undefined (false, for a relation), or left a hole."""
    funcs = {f.name: {} for f in sig.functions}
    rels = {r.name: set() for r in sig.relations}
    holes = set()
    for d in (*sig.functions, *sig.relations):
        for args in itertools.product(*(carriers[s] for s in d.arg_sorts)):
            roll = rng.random()
            if roll < 0.3:
                holes.add((d.name, args))
            elif roll < 0.5:
                continue
            elif d.name in rels:
                rels[d.name].add(args)
            elif carriers[d.result]:
                funcs[d.name][args] = rng.choice(carriers[d.result])
    return funcs, rels, holes


def assert_reads_agree(clause, tup, funcs, rels, holes):
    """The premise, then the conclusion over the same slots, as the
    enumerator reads an instance: same answers, slots and touched cells."""
    want_vals = semantics._slots(clause, tup)
    got_vals = list(want_vals)
    want_touched, got_touched = [], []
    for atoms in (clause.premise, clause.conclusion):
        want = reference_read(atoms, want_vals, funcs, rels, holes, want_touched)
        got = semantics._reader(atoms)(got_vals, funcs, rels, holes, got_touched)
        assert got is want
        assert got_vals == want_vals and got_touched == want_touched


def models_text(models):
    return [print_model(m) for m in models]


CAPTURE = """\
theory capture
sorts: vals U
fun funcs : vals vals -> vals;
fun holes : -> vals;
fun touched : vals -> vals;
fun known : vals -> U;
fun c : U U -> U;
rel rels : vals vals;
rel read : U;
rel v0 : vals;
rel t0 : U;
axiom known [vals:vals, U:vals] rels(vals, U) |- funcs(vals, U) = funcs(U, vals);
axiom c [vals:vals] true |- funcs(vals, holes) = vals /\\ def(touched(vals));
axiom touched [vals:vals] v0(vals) |- touched(touched(vals)) = vals /\\ t0(known(vals));
axiom t0 [vals:U, U:U] read(vals) /\\ c(vals, U) = U |- read(U) /\\ c(U, vals) = c(vals, U);
axiom v0 [vals:vals] true |- v0(vals) /\\ rels(vals, vals);
axiom read [U:U] t0(U) |- read(U) /\\ def(c(U, U));
"""


class TestCompiledReader:
    @pytest.mark.parametrize("theory_fn, sizes", [
        (pos_theory, {"*": 3}), (preorder_theory, {"*": 3}),
        (mon_theory, {"*": 3}), (cat_theory, {"ob": 2, "mor": 3}),
    ])
    def test_agrees_with_interpreted_read(self, theory_fn, sizes):
        theory = theory_fn()
        sig = theory.signature
        carriers = {s: tuple(f"e{i}" for i in range(sizes[s])) for s in sig.sorts}
        rng = random.Random(8080)
        for _ in range(40):
            seq = random_sequent(rng, theory, max_vars=3, max_atoms=3, depth=2)
            clause = flatten(seq.context.names, seq.premise, seq.conclusion)
            for _ in range(4):
                funcs, rels, holes = random_tables(rng, sig, carriers)
                for tup in itertools.product(*(carriers[s] for _, s in
                                               seq.context.vars)):
                    assert_reads_agree(clause, tup, funcs, rels, holes)
                    assert_reads_agree(clause, tup, funcs, rels, frozenset())

    def test_symbols_named_like_generated_locals(self):
        # every symbol and sort, and some variables, are named like a local
        # of the compiled readers
        theory = parse_theory(CAPTURE)
        sig = theory.signature
        sizes = {"vals": 2, "U": 2}
        carriers = {s: tuple(f"{s}{i}" for i in range(sizes[s])) for s in sig.sorts}
        rng = random.Random(11)
        for ax in theory.axioms:
            seq = ax.sequent
            clause = flatten(seq.context.names, seq.premise, seq.conclusion)
            for _ in range(20):
                funcs, rels, holes = random_tables(rng, sig, carriers)
                for tup in itertools.product(*(carriers[s] for _, s in
                                               seq.context.vars)):
                    assert_reads_agree(clause, tup, funcs, rels, holes)
        for profile in ({"vals": 1, "U": 2}, {"vals": 2, "U": 1}):
            models = models_text(enumerate_structures(theory, profile))
            assert models == models_text(reference_enumerate(theory, profile))
            assert len(models) == {1: 192, 2: 48}[profile["vals"]]
        # holds and interp_term on random structures, most of them not models
        ctx = Context((("vals", "vals"), ("U", "vals")))
        term = App("touched", (App("funcs", (Var("vals"), Var("U"))),))
        term_clause = flatten(ctx.names, defined(term))
        for _ in range(30):
            funcs, rels, _ = random_tables(rng, sig, carriers)
            m = make_structure("m", sig, carriers, funcs, rels)
            funcs, rels = semantics._tables(m)
            for ax in theory.axioms:
                seq = ax.sequent
                clause = flatten(seq.context.names, seq.premise, seq.conclusion)
                witness = next((tup for tup in context_tuples(m, seq.context)
                                if reference_violated(clause, tup, funcs, rels)),
                               None)
                assert holds(m, seq) == HoldsResult(witness is None, witness)
            for tup in context_tuples(m, ctx):
                vals = semantics._slots(term_clause, tup)
                ok = reference_read(term_clause.premise, vals, funcs, rels,
                                    frozenset(), None)
                want = vals[term_clause.terms.index(term)] if ok else None
                assert interp_term(m, ctx, term, tup) == want
        # and like the locals of the compiled validity check
        theory = parse_theory(LOOPS)
        sig = theory.signature
        for sizes in ({"carriers": 2, "rels": 2}, {"carriers": 2, "rels": 0}):
            carriers = {s: tuple(f"{s}{i}" for i in range(sizes[s]))
                        for s in sig.sorts}
            verdicts = set()
            for _ in range(40):
                m = make_structure("m", sig, carriers,
                                   *random_tables(rng, sig, carriers)[:2])
                for ax in theory.axioms:
                    want = reference_holds(m, ax.sequent)
                    assert holds(m, ax.sequent) == want, ax.name
                    verdicts.add((ax.name, want.ok))
            assert len(verdicts) == (6 if sizes["rels"] else 4)


LOOPS = """\
theory loops
sorts: carriers rels
fun run : carriers carriers -> carriers;
fun funcs : carriers -> rels;
fun t0 : -> carriers;
fun c0 : rels -> rels;
rel v0 : carriers rels;
rel t1 : rels;
axiom run [v1:carriers, c1:rels, carriers:carriers] v0(carriers, c1) /\\ t1(funcs(v1)) |- run(v1, carriers) = t0 /\\ t1(c0(funcs(carriers)));
axiom funcs [] def(t0) |- v0(t0, funcs(t0)) /\\ run(t0, t0) = t0;
axiom t0 [rels:rels, t2:carriers] t1(rels) /\\ v0(t2, rels) |- v0(t2, c0(rels)) /\\ def(c0(c0(rels)));
"""


class TestCompiledValidity:
    """`holds` runs one compiled loop per sequent; `reference_holds` reads
    the premise and the conclusion afresh at every context tuple."""

    @pytest.mark.parametrize("theory_fn, sizes", [
        (pos_theory, {"*": 3}), (preorder_theory, {"*": 3}),
        (mon_theory, {"*": 3}), (mon_inv_theory, {"*": 3}),
        (cat_theory, {"ob": 2, "mor": 3}),
    ])
    def test_agrees_with_reference(self, theory_fn, sizes):
        theory = theory_fn()
        sig = theory.signature
        carriers = {s: tuple(f"e{i}" for i in range(sizes[s])) for s in sig.sorts}
        rng = random.Random(1919)
        verdicts = Counter()
        for _ in range(80):
            seq = random_sequent(rng, theory, max_vars=3, max_atoms=3, depth=2)
            for _ in range(5):
                funcs, rels, _ = random_tables(rng, sig, carriers)
                m = make_structure("m", sig, carriers, funcs, rels)
                want = reference_holds(m, seq)
                assert holds(m, seq) == want, (print_sequent(seq), print_model(m))
                verdicts[want.ok] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20, verdicts

    @pytest.mark.parametrize("text, model, witness", [
        # no context variables: the one empty tuple
        ("[] true |- def(e)", "z2", None),
        ("[] true |- def(e)", "no_e", ()),
        ("[] def(e) |- mul(e, e) = e", "no_e", None),
        ("[] def(e) |- mul(e, e) = e", "one", ()),
        # the premise's mul(x,x), bound in the outer loop, defined again by
        # the conclusion in the inner one
        ("[x:*, y:*] mul(x, x) = e |- mul(mul(x, x), y) = y", "z2", None),
        ("[x:*, y:*] mul(x, x) = e |- mul(mul(x, x), y) = y", "half", ("0", "1")),
        ("[x:*, y:*] def(mul(x, x)) |- mul(y, mul(x, x)) = mul(x, x)", "half",
         ("0", "1")),
    ])
    def test_edges(self, mon, z2, text, model, witness):
        m = {"z2": z2,
             "no_e": make_structure("no_e", mon.signature, {"*": ("0",)},
                                    {"mul": {("0", "0"): "0"}}),
             "one": make_structure("one", mon.signature, {"*": ("0", "1")},
                                   {"e": {(): "1"}, "mul": {("1", "1"): "0"}}),
             "half": make_structure("half", mon.signature, {"*": ("0", "1")},
                                    {"e": {(): "0"}, "mul": {
                                        ("0", "0"): "0", ("1", "1"): "0",
                                        ("1", "0"): "1"}})}[model]
        seq = parse_sequent(text, mon.signature)
        want = HoldsResult(witness is None, witness)
        assert reference_holds(m, seq) == want
        assert holds(m, seq) == want

    def test_empty_carrier(self, cat):
        # no object: every context with an object variable has no tuple
        m = make_structure("m", cat.signature, {"ob": (), "mor": ("f", "g")},
                           {"comp": {("f", "f"): "g"}})
        for text, witness in [
                ("[x:ob, f:mor] true |- def(id(x))", None),
                ("[f:mor, x:ob] def(comp(f, f)) |- comp(f, f) = f", None),
                ("[f:mor] def(comp(f, f)) |- def(d(f))", ("f",)),
                ("[f:mor, g:mor] true |- def(comp(g, f))", ("f", "g"))]:
            seq = parse_sequent(text, cat.signature)
            want = HoldsResult(witness is None, witness)
            assert (holds(m, seq), reference_holds(m, seq)) == (want, want), text

    def test_second_call_compiles_nothing(self, pos, chain2):
        seq = parse_sequent("[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y",
                            pos.signature)
        assert holds(chain2, seq).ok and is_model(chain2, pos).ok
        before = semantics._violation.cache_info(), flatten.cache_info()
        assert holds(cycle_preorder(), seq) == HoldsResult(False, ("a", "b"))
        assert is_model(cycle_preorder(), pos).violations == (("antisym", ("a", "b")),)
        assert (semantics._violation.cache_info(), flatten.cache_info()) == before


def reference_violated(clause, tup, funcs, rels) -> bool:
    vals = semantics._slots(clause, tup)
    return bool(reference_read(clause.premise, vals, funcs, rels, frozenset(),
                               None)) and \
        not reference_read(clause.conclusion, vals, funcs, rels, frozenset(), None)


def pb_profile(s0, s1, t, w):
    return {"s0": s0, "s1": s1, "t": t, "w": w}


class TestPropagatingEnumerator:
    @pytest.mark.parametrize("theory_fn, max_size", [
        (pos_theory, 4), (preorder_theory, 3), (mon_theory, 3),
    ])
    def test_same_models_as_scanning_enumerator(self, theory_fn, max_size):
        theory = theory_fn()
        for sizes in size_profiles(theory.signature.sorts, max_size):
            assert models_text(enumerate_structures(theory, sizes)) == \
                models_text(reference_enumerate(theory, sizes))

    def test_same_models_for_categories(self):
        theory = cat_theory()
        for ob, mor in itertools.product(range(3), range(4)):
            sizes = {"ob": ob, "mor": mor}
            assert models_text(enumerate_structures(theory, sizes)) == \
                models_text(reference_enumerate(theory, sizes))

    @pytest.mark.parametrize("sketch_fn, sizes, count", [
        (product_sketch, {"s1": 1, "s2": 3, "v": 3}, 6),
        (product_sketch, {"s1": 2, "s2": 2, "v": 4}, 24),
        (pullback_sketch, pb_profile(2, 2, 2, 2), 24),
        (pullback_sketch, pb_profile(3, 2, 2, 2), 12),
    ])
    def test_same_models_for_sketch_theories(self, sketch_fn, sizes, count):
        theory = sketch_to_pht(sketch_fn())
        got = models_text(enumerate_structures(theory, sizes))
        assert len(got) == count
        assert got == models_text(reference_enumerate(theory, sizes))
