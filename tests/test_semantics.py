import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.semantics import (
    ChainDiagram, Homomorphism, HoldsResult, PartialStructure, SemanticsError,
    chain_colimit, check_hom, compose_homs, context_tuples, enumerate_homs,
    enumerate_models, enumerate_structures, formula_holds_at, holds,
    identity_hom, interp_formula, interp_term, is_model, make_structure,
    parse_hom, parse_model, print_hom, print_model, product, terminal,
)
from phl.sampling import random_sequent
from phl.syntax import App, Conj, Context, Eq, RelApp, TRUE, Truth, Var, \
    atoms, conj, defined, parse_sequent, parse_theory, subterms
from phl.theories import (
    MON_SRC, antichain_poset, cat_theory, chain_poset, cycle_preorder, mon_inv_theory,
    mon_theory, pos_theory, preorder_theory, zmod_monoid,
)

from conftest import formulas_over


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


class TestEnumeration:
    def test_monoid_counts(self, mon):
        # labelled monoids: 1 of size 1, 4 of size 2, 33 of size 3
        assert len(list(enumerate_structures(mon, {"*": 1}))) == 1
        assert len(list(enumerate_structures(mon, {"*": 2}))) == 4
        assert len(list(enumerate_structures(mon, {"*": 3}))) == 33

    def test_poset_counts(self, pos):
        # labelled posets: 1, 3, 19
        assert len(list(enumerate_structures(pos, {"*": 1}))) == 1
        assert len(list(enumerate_structures(pos, {"*": 2}))) == 3
        assert len(list(enumerate_structures(pos, {"*": 3}))) == 19

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
