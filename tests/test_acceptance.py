"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""
import itertools
import random
import time

import pytest

from phl.birkhoff import (
    ModelUniverse, close_P, close_R, close_Scl, definability_check, find_iso,
    hsp_closure,
)
from phl.freemodel import repn_morphism, representing_model, yoneda_check
from phl.morphology import diagonal_fillers, factorize, is_closed_mono, \
    is_dense, orthogonal
from phl.kernel import (
    AxiomRule, Derivation, ReflRule, check_derivation,
    derive_conj_permutation, derive_cut_lemma, derive_subst_formula_lemma,
    derive_subst_term_lemma, derive_symmetry, derive_transitivity,
    derive_weakening, rule_node,
)
from phl.prover import Proved, prove
from phl.sampling import random_formula, random_sequent
from phl.semantics import (
    ChainDiagram, Homomorphism, chain_colimit, check_hom, compose_homs,
    enumerate_homs, enumerate_models, enumerate_structures, holds,
    interp_formula, is_model, make_structure, product, size_profiles,
)
from phl.syntax import (
    App, Context, Eq, NamedAxiom, Sequent, TRUE, Var, conj, conjuncts,
    defined, parse_formula_in_context, parse_sequent, parse_theory,
)
from phl.theories import (
    cat_theory, chain_poset, mon_inv_theory, mon_theory, pos_theory,
    preorder_theory, set_theory,
)
from phl.translation import (
    RelOperator, enumerate_sketch_models, inclusion_morphism,
    make_relative_theory, parse_sketch, pht_of, sketch_to_pht, F_rho, U_rho,
)

from test_freemodel import semilattice_theory
from test_translation import product_sketch, pullback_sketch


def report(n, text):
    print(f"criterion {n} PASS: {text}")


def golden_corpus():
    """(theory, derivation) for each golden tree of criterion 1."""
    pos = pos_theory()
    mon = mon_theory()
    sig_pos, sig_mon = pos.signature, mon.signature
    c2 = Context((("a", "*"), ("b", "*")))
    c3 = Context((("a", "*"), ("b", "*"), ("c", "*")))

    golden = [
        (pos, derive_symmetry(sig_pos, c2, Var("a"), Var("b"))),
        (mon, derive_symmetry(sig_mon, Context((("a", "*"),)),
                              App("mul", (Var("a"), Var("a"))), App("e", ()))),
        (pos, derive_transitivity(sig_pos, c3, Var("a"), Var("b"), Var("c"))),
        (mon, derive_transitivity(sig_mon, Context((("a", "*"),)), Var("a"),
                                  App("mul", (Var("a"), App("e", ()))),
                                  App("e", ()))),
        (mon, derive_subst_formula_lemma(
            sig_mon, c2, defined(App("mul", (Var("y0"), Var("y0")))),
            Context((("y0", "*"),)), (Var("a"),), (Var("b"),))),
        (mon, derive_subst_term_lemma(
            sig_mon, c2, App("mul", (Var("y0"), App("e", ()))),
            Context((("y0", "*"),)), (Var("a"),), (Var("b"),))),
    ]
    hyp = parse_theory(
        "theory hyp\nsorts: *\nrel P : *;\nrel Q : *;\nrel R : *;\n"
        "axiom step1 [x:*] P(x) |- Q(x);\n"
        "axiom final [x:*] R(x) /\\ Q(x) |- P(x);\n")
    from phl.syntax import RelApp
    X = Var("x")
    golden.append((hyp, derive_cut_lemma(
        hyp, Context((("x", "*"),)), RelApp("R", (X,)),
        (RelApp("P", (X,)),), (RelApp("Q", (X,)),), ("step1",), "final")))
    golden.append((pos, derive_conj_permutation(
        sig_pos, c2, (RelApp("leq", (Var("a"), Var("b"))),
                      defined(Var("a"))), (1, 0))))
    refl = rule_node(AxiomRule("refl"), (), sig_pos, pos)
    golden.append((pos, derive_weakening(
        sig_pos, refl, Context((("x", "*"), ("y", "*"))))))
    return golden


def test_criterion_1_golden_derivations():
    """Displayed equality and cut-rule trees check; perturbations fail."""
    t0 = time.perf_counter()
    golden = golden_corpus()
    for theory, d in golden:
        assert check_derivation(theory, d).ok

    perturbed = 0
    for theory, d in golden:
        if len(d.children) >= 2:
            bad = Derivation(d.sequent, d.rule,
                             (d.children[1], d.children[0]) + d.children[2:])
            assert not check_derivation(theory, bad).ok
            perturbed += 1
        bad2 = Derivation(d.sequent,
                          ReflRule(d.sequent.context, 0) if len(d.sequent.context)
                          else d.rule, d.children)
        if len(d.sequent.context):
            assert not check_derivation(theory, bad2).ok
            perturbed += 1
    elapsed = time.perf_counter() - t0
    assert perturbed >= len(golden)
    assert elapsed < 1.0, f"golden corpus took {elapsed:.2f}s"
    report(1, f"{len(golden)} golden trees check, {perturbed} perturbations "
              f"fail, {elapsed * 1000:.0f} ms")


def soundness_corpus(theory, rng):
    """The 50 sequents criterion 2 draws over `theory`."""
    return [random_sequent(rng, theory, max_vars=3, max_atoms=2, depth=2)
            for _ in range(50)]


def bridge_corpus(theory, rng):
    """The 60 sequents criterion 3 draws over `theory`."""
    return [random_sequent(rng, theory, max_vars=2, max_atoms=2, depth=2)
            for _ in range(60)]


SOUNDNESS_SEED, BRIDGE_SEED = 20260809, 96321


def test_criterion_2_soundness_sweep():
    """Proved sequents hold in every enumerated model up to size 3."""
    t0 = time.perf_counter()
    rng = random.Random(SOUNDNESS_SEED)
    proved_count = 0
    checked = 0
    for theory in (pos_theory(), mon_theory(), cat_theory()):
        models = enumerate_models(theory, 3)
        assert models
        for seq in soundness_corpus(theory, rng):
            r = prove(theory, seq, depth=3, model_size=0, max_work=40_000)
            if isinstance(r, Proved):
                proved_count += 1
                for m in models:
                    assert holds(m, seq).ok, \
                        f"soundness violation: {theory.name} {seq} on {m.name}"
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert proved_count >= 20
    assert elapsed < 120, f"soundness sweep took {elapsed:.1f}s"
    report(2, f"{proved_count} proved sequents hold on all small models "
              f"({checked} checks, {elapsed:.1f}s)")


def test_criterion_3_completeness_bridge():
    """prove agrees with generic-tuple membership whenever the premise's
    representing model saturates at depth <= 4."""
    rng = random.Random(BRIDGE_SEED)
    agreements = 0
    for theory in (pos_theory(), mon_theory()):
        for seq in bridge_corpus(theory, rng):
            p = representing_model(theory, seq.context, seq.premise, 4,
                                   max_work=60_000)
            if not p.status.saturated:
                continue
            member = p.entails(seq.conclusion)
            r = prove(theory, seq, depth=4, model_size=0, max_work=60_000)
            assert isinstance(r, Proved) == member, (theory.name, seq)
            agreements += 1
    assert agreements >= 30
    report(3, f"{agreements} saturated sequents agree exactly")


def test_criterion_4_representability():
    """|Hom(presentation, M)| equals |interpretation| on 20+ pairs."""
    pos = pos_theory()
    mon = mon_theory()
    pairs = 0
    pos_formulas = ["[x:*] true", "[x:*, y:*] true", "[x:*, y:*] leq(x,y)",
                    "[x:*, y:*] leq(x,y) /\\ leq(y,x)",
                    "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z)"]
    pos_models = [m for m in enumerate_models(pos, 2)] + \
        [chain_poset(3), chain_poset(4)]
    for text in pos_formulas:
        ctx, phi = parse_formula_in_context(text, pos.signature)
        p = representing_model(pos, ctx, phi, 2)
        assert p.status.saturated
        for m in pos_models[:5]:
            rep = yoneda_check(p, m)
            assert rep.bijective and rep.interp_size == rep.hom_size
            pairs += 1
    from phl.theories import zmod_monoid
    mon_formulas = ["[x:*] mul(x,x) = x /\\ mul(x,x) = mul(x,x)",
                    "[x:*] mul(x,x) = e", "[] true"]
    mon_models = [m for m in enumerate_models(mon, 3)][:3] + [zmod_monoid(4)]
    for text in mon_formulas:
        ctx, phi = parse_formula_in_context(text, mon.signature)
        p = representing_model(mon, ctx, phi, 3)
        if not p.status.saturated:
            continue
        for m in mon_models:
            rep = yoneda_check(p, m)
            assert rep.bijective and rep.interp_size == rep.hom_size
            pairs += 1
    assert pairs >= 20
    report(4, f"{pairs} (formula, model) pairs biject exactly")


def sample_homs(theory, max_size, rng, want):
    models = [m for m in enumerate_models(theory, max_size) if m.size() <= 4]
    models = rng.sample(models, min(len(models), 12))
    out = []
    for m in models:
        for n in models:
            homs = enumerate_homs(m, n)
            if homs:
                out.append(rng.choice(homs))
            if len(out) >= want:
                return out
    return out


def test_criterion_5_factorization():
    """(dense, closed-mono) with exact composition on 100+ random homs, and
    unique diagonal fillers for sampled squares."""
    rng = random.Random(5150)
    total = 0
    per_theory = {}
    for theory, k in ((pos_theory(), 3), (mon_theory(), 3), (cat_theory(), 2)):
        denses, monos = [], []
        for h in sample_homs(theory, k, rng, 40):
            fr = factorize(h)
            assert compose_homs(fr.closed_mono, fr.dense).maps == h.maps
            assert is_dense(fr.dense) and is_closed_mono(fr.closed_mono)
            denses.append(fr.dense)
            monos.append(fr.closed_mono)
            total += 1
        per_theory[theory.name] = (denses, monos)
    assert total >= 100

    squares = 0
    for denses, monos in per_theory.values():
        for e in rng.sample(denses, min(5, len(denses))):
            for mno in rng.sample(monos, min(5, len(monos))):
                for u in enumerate_homs(e.source, mno.source)[:3]:
                    for v in enumerate_homs(e.target, mno.target)[:3]:
                        if compose_homs(v, e).maps != compose_homs(mno, u).maps:
                            continue
                        fillers = diagonal_fillers(e, mno, u, v)
                        assert len(fillers) == 1
                        squares += 1
    assert squares >= 10
    report(5, f"{total} factorizations exact; {squares} squares have a "
              f"unique diagonal")


def test_criterion_6_orthogonality_vs_validity():
    """Orthogonality against the presentation arrow agrees with validity
    on every model up to size 4, for sequents whose presentations saturate."""
    pre = preorder_theory()
    rng = random.Random(660)
    models = enumerate_models(pre, 4)
    agreements = 0
    sequents = [parse_sequent(
        "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y", pre.signature)]
    for _ in range(25):
        sequents.append(random_sequent(rng, pre, max_vars=2, max_atoms=2,
                                       depth=1))
    used = 0
    for seq in sequents:
        p_prem = representing_model(pre, seq.context, seq.premise, 3)
        both = conj(list(conjuncts(seq.premise)) + list(conjuncts(seq.conclusion)))
        p_both = representing_model(pre, seq.context, both, 3)
        if not (p_prem.status.saturated and p_both.status.saturated):
            continue
        e = repn_morphism(p_prem, p_both,
                          tuple(Var(n) for n in seq.context.names)).hom
        used += 1
        for m in models:
            assert holds(m, seq).ok == orthogonal(m, e), (seq, m.name)
            agreements += 1
    assert used >= 10
    report(6, f"{agreements} (model, sequent) agreements over {used} sequents")


def test_criterion_7_closure_laws():
    """Products and finite chain colimits of models are models; closure
    operators are idempotent and satisfy the containments on sampled
    universes."""
    rng = random.Random(77)
    pos = pos_theory()
    mon = mon_theory()

    for theory, k in ((pos, 3), (mon, 2)):
        models = list(enumerate_models(theory, k))
        for _ in range(12):
            pair = rng.sample(models, 2)
            p = product(theory.signature, pair, cap=100_000)
            assert is_model(p, theory).ok

    # chain colimits of models are models
    for n in (2, 3):
        stages = {str(i): chain_poset(i + 1) for i in range(n)}
        order = tuple((str(i), str(j)) for i in range(n) for j in range(n)
                      if i <= j)
        arrows = {}
        for i in range(n):
            for j in range(i + 1, n):
                src, tgt = stages[str(i)], stages[str(j)]
                arrows[(str(i), str(j))] = Homomorphism(
                    f"i{i}{j}", src, tgt,
                    {"*": {a: a for a in src.carrier("*")}})
        res = chain_colimit(pos, ChainDiagram(order, stages, arrows))
        assert is_model(res.structure, pos).ok

    pre = preorder_theory()
    pool = list(enumerate_models(pre, 2))
    universes_checked = 0
    for _ in range(10):
        sample = rng.sample(pool, rng.randint(1, 4))
        u = ModelUniverse(pre, sample, 40)

        def visible(universe):
            return frozenset(m.name for m in pool if universe.contains_iso(m))

        p1, _ = close_P(u)
        p2, _ = close_P(p1)
        assert visible(p1) == visible(p2)
        s1, _ = close_Scl(p1)
        s2, _ = close_Scl(s1)
        assert len(s1.models) == len(s2.models)
        r1, _ = close_R(s1, pool)
        r2, _ = close_R(r1, pool)
        assert len(r1.models) == len(r2.models)

        # containments within the pool: P R <= R P and the Scl analogues
        ra, _ = close_R(u, pool)
        pra, _ = close_P(ra)
        pa, _ = close_P(u)
        rpa, _ = close_R(pa, pool)
        for m in pool:
            if pra.contains_iso(m):
                assert rpa.contains_iso(m)
        sa, _ = close_Scl(u)
        psa, _ = close_P(sa)
        pb, _ = close_P(u)
        spb, _ = close_Scl(pb)
        for m in pool:
            if psa.contains_iso(m):
                assert spb.contains_iso(m)
        sra, _ = close_Scl(ra)
        rsa, _ = close_R(sa, pool)
        for m in pool:
            if sra.contains_iso(m):
                assert rsa.contains_iso(m)
        universes_checked += 1
    assert universes_checked == 10
    report(7, f"products and colimits stay models; operators idempotent with "
              f"containments on {universes_checked} universes")


def test_criterion_8_worked_definability():
    """Posets among preorders up to size 3, and groups among monoids with a
    partial inverse up to size 4."""
    t0 = time.perf_counter()
    pre = preorder_theory()
    pool = list(enumerate_models(pre, 3))
    antisym = NamedAxiom("antisym", parse_sequent(
        "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y", pre.signature))
    rep = definability_check(pre, [antisym], pool, depth=2, size_cap=30)
    assert rep.ok
    assert not rep.closure_failures and not rep.orthogonality_failures

    mi = mon_inv_theory()
    mpool = list(enumerate_models(mi, 4))
    inv_total = NamedAxiom("inv_total", parse_sequent(
        "[x:*] true |- def(inv(x))", mi.signature))
    grep = definability_check(mi, [inv_total], mpool, depth=3, size_cap=20)
    assert grep.fixed_point and not grep.closure_failures
    # groups satisfy the judgment exactly
    groups = {m.name for m in mpool if holds(m, inv_total.sequent).ok}
    for m in mpool:
        unit = m.func_table("e")[()]
        mul = m.func_table("mul")
        is_group = all(any(mul[(y, x)] == unit == mul[(x, y)]
                           for y in m.carrier("*"))
                       for x in m.carrier("*"))
        assert (m.name in groups) == is_group, m.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"definability experiments took {elapsed:.1f}s"
    report(8, f"posets fixed point (class {rep.class_size}); groups fixed "
              f"point (class {grep.class_size}); {elapsed:.1f}s")


def test_criterion_9_sketch_correspondence():
    """Theory models and sketch models agree in count per carrier profile,
    up to size 3."""
    def count(gen, sorts, maxn):
        out = {}
        for sizes in size_profiles(sorts, maxn):
            c = sum(1 for _ in gen(sizes))
            if c:
                out[tuple(sorted(sizes.items()))] = c
        return out

    for sk in (product_sketch(), pullback_sketch()):
        th = sketch_to_pht(sk)
        tm = count(lambda s: enumerate_structures(th, s),
                   th.signature.sorts, 3)
        sm = count(lambda s: enumerate_sketch_models(sk, s), sk.objects, 3)
        assert tm == sm and tm
    report(9, "product and pullback sketches biject with theory models at "
              "size <= 3")


def test_criterion_10_adjunction():
    """|Hom(F P, M')| = |Hom(P, U M')| for the semilattice inclusion."""
    rt = semilattice_theory()
    theory = pht_of(rt)
    sets = set_theory()
    rho = inclusion_morphism(sets, theory)
    checked = 0
    for formula_text in ("[x:*] true", "[x:*, y:*] true", "[x:*, y:*] x = y"):
        ctx, phi = parse_formula_in_context(formula_text, sets.signature)
        p = representing_model(sets, ctx, phi, 2)
        assert p.status.saturated
        fp = F_rho(rho, p, 3)
        assert fp.status.saturated
        for m in enumerate_models(theory, 4):
            left = len(enumerate_homs(fp.structure, m))
            right = len(enumerate_homs(p.structure, U_rho(rho, m)))
            assert left == right, (formula_text, m.name)
            checked += 1
    assert checked >= 20
    report(10, f"{checked} hom-set counts agree across the adjunction")
