"""Theory morphisms and translation functors, relative algebraic theories,
their associated partial Horn theories, and the sketch-to-theory translator.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from .birkhoff import FiniteCategory, _category_diagnostics
from .freemodel import ModelPresentation, representing_model
from .prover import prove
from .semantics import (
    Homomorphism, PartialStructure, enumerate_structures, interp_formula,
    interp_term, is_model,
)
from .syntax import (
    App, Conj, Context, Eq, Formula, FuncDecl, NamedAxiom, PhlError, RelApp,
    Sequent, Signature, Term, Theory, TokenStream, Truth, TRUE, Var, atoms,
    conj, conjuncts, defined, free_vars, infer_sort, parse_arrow_header,
    parse_context_tokens, print_context, print_formula, print_term,
    subst_formula, subst_term, subterms, well_formed, _parse_formula_tokens,
    _parse_sort_name, _parse_term_tokens,
)


class TranslationError(PhlError):
    pass


# ---------------------------------------------------------------------------
# theory morphisms

@dataclass(frozen=True)
class FuncAssignment:
    params: tuple[str, ...]     # variable names of the translated context
    term: Term


@dataclass(frozen=True)
class RelAssignment:
    params: tuple[str, ...]
    formula: Formula


@dataclass(frozen=True)
class TheoryMorphism:
    name: str
    source: Theory
    target: Theory
    sort_map: dict[str, str]
    func_map: dict[str, FuncAssignment]
    rel_map: dict[str, RelAssignment]

    def map_sort(self, s: str) -> str:
        return self.sort_map[s]


def _morphism_diagnostics(rho: TheoryMorphism) -> list[str]:
    """Problems with `rho` as a theory morphism; the sort and symbol checks
    come first so that the assignments are typed only over mapped sorts."""
    out = []
    src, tgt = rho.source.signature, rho.target.signature
    for s in src.sorts:
        if s not in rho.sort_map:
            out.append(f"unmapped sort '{s}'")
        elif rho.sort_map[s] not in tgt.sorts:
            out.append(f"sort '{s}' mapped to unknown '{rho.sort_map[s]}'")
    out += [f"sort map for unknown sort '{s}'"
            for s in rho.sort_map if s not in src.sorts]
    out += [f"assignment for unknown function '{f}'"
            for f in rho.func_map if src.function(f) is None]
    out += [f"assignment for unknown relation '{r}'"
            for r in rho.rel_map if src.relation(r) is None]
    if out:
        return out
    for f in src.functions:
        a = rho.func_map.get(f.name)
        if a is None:
            out.append(f"unmapped function '{f.name}'")
            continue
        if len(a.params) != len(f.arg_sorts):
            out.append(f"assignment for '{f.name}' has wrong parameter count")
            continue
        ctx = Context(tuple((p, rho.sort_map[s]) for p, s in zip(a.params, f.arg_sorts)))
        try:
            got = infer_sort(tgt, ctx, a.term)
        except PhlError as e:
            out.append(f"assignment for '{f.name}': {e}")
            continue
        if got != rho.sort_map[f.result]:
            out.append(f"assignment for '{f.name}' has sort {got}, "
                       f"expected {rho.sort_map[f.result]}")
    for r in src.relations:
        a = rho.rel_map.get(r.name)
        if a is None:
            out.append(f"unmapped relation '{r.name}'")
            continue
        if len(a.params) != len(r.arg_sorts):
            out.append(f"assignment for '{r.name}' has wrong parameter count")
            continue
        ctx = Context(tuple((p, rho.sort_map[s]) for p, s in zip(a.params, r.arg_sorts)))
        diags = well_formed(a.formula, tgt, ctx)
        out.extend(f"assignment for '{r.name}': {d}" for d in diags)
    return out


def make_theory_morphism(name, source, target, sort_map, func_map, rel_map) -> TheoryMorphism:
    rho = TheoryMorphism(name, source, target, dict(sort_map), dict(func_map),
                         dict(rel_map))
    diags = _morphism_diagnostics(rho)
    if diags:
        raise TranslationError(f"bad theory morphism '{name}': " + "; ".join(diags))
    return rho


def identity_morphism(theory: Theory) -> TheoryMorphism:
    sig = theory.signature
    return TheoryMorphism(
        "id", theory, theory,
        {s: s for s in sig.sorts},
        {f.name: FuncAssignment(tuple(f"x{i}" for i in range(len(f.arg_sorts))),
                                App(f.name, tuple(Var(f"x{i}")
                                                  for i in range(len(f.arg_sorts)))))
         for f in sig.functions},
        {r.name: RelAssignment(tuple(f"x{i}" for i in range(len(r.arg_sorts))),
                               RelApp(r.name, tuple(Var(f"x{i}")
                                                    for i in range(len(r.arg_sorts)))))
         for r in sig.relations})


def inclusion_morphism(source: Theory, target: Theory) -> TheoryMorphism:
    """Symbol-for-symbol inclusion into a theory with a larger signature."""
    rho = identity_morphism(source)
    return TheoryMorphism("incl", source, target, rho.sort_map, rho.func_map,
                          rho.rel_map)


# -- the rho-translation ----------------------------------------------------

def translate_context(rho: TheoryMorphism, ctx: Context) -> Context:
    return Context(tuple((n, rho.map_sort(s)) for n, s in ctx.vars))


def translate_term(rho: TheoryMorphism, t: Term) -> Term:
    if isinstance(t, Var):
        return t
    a = rho.func_map[t.func]
    assignment = {p: translate_term(rho, arg) for p, arg in zip(a.params, t.args)}
    return subst_term(a.term, assignment)


def _definedness_obligations(rho: TheoryMorphism, t: Term) -> list[Formula]:
    """Extra conjuncts making the naive translation track composite
    definedness when an assignment drops arguments."""
    if isinstance(t, Var):
        return []
    out: list[Formula] = []
    a = rho.func_map[t.func]
    for p, arg in zip(a.params, t.args):
        out.extend(_definedness_obligations(rho, arg))
        if p not in free_vars(a.term):
            out.append(defined(translate_term(rho, arg)))
    return out


def translate_formula(rho: TheoryMorphism, f: Formula) -> Formula:
    if isinstance(f, Truth):
        return f
    if isinstance(f, Conj):
        return Conj(tuple(translate_formula(rho, p) for p in f.parts))
    if isinstance(f, Eq):
        extras = _definedness_obligations(rho, f.lhs) + \
            _definedness_obligations(rho, f.rhs)
        core = Eq(translate_term(rho, f.lhs), translate_term(rho, f.rhs))
        return conj(dict.fromkeys([core] + extras))
    a = rho.rel_map[f.rel]
    extras = []
    for p, arg in zip(a.params, f.args):
        extras.extend(_definedness_obligations(rho, arg))
        if p not in free_vars(a.formula):
            extras.append(defined(translate_term(rho, arg)))
    assignment = {p: translate_term(rho, arg) for p, arg in zip(a.params, f.args)}
    core = subst_formula(a.formula, assignment)
    return conj(dict.fromkeys([*conjuncts(core), *extras]))


def translate_sequent(rho: TheoryMorphism, seq: Sequent) -> Sequent:
    return Sequent(translate_context(rho, seq.context),
                   translate_formula(rho, seq.premise),
                   translate_formula(rho, seq.conclusion))


def translate(rho: TheoryMorphism, obj):
    """Translate a formula or sequent along a theory morphism."""
    if isinstance(obj, Sequent):
        return translate_sequent(rho, obj)
    if isinstance(obj, (RelApp, Eq, Truth, Conj)):
        return translate_formula(rho, obj)
    if isinstance(obj, (Var, App)):
        return translate_term(rho, obj)
    raise TranslationError(f"cannot translate {type(obj).__name__}")


@dataclass(frozen=True)
class ObligationReport:
    statuses: tuple[tuple[str, str], ...]   # (axiom name, verdict)

    @property
    def accepted(self) -> bool:
        return all(v == "Proved" for _, v in self.statuses)


def check_theory_morphism(rho: TheoryMorphism, depth: int = 4,
                          model_size: int = 0) -> ObligationReport:
    """Prove the translation of every source axiom in the target theory."""
    statuses = []
    for ax in rho.source.axioms:
        res = prove(rho.target, translate_sequent(rho, ax.sequent),
                    depth=depth, model_size=model_size)
        statuses.append((ax.name, res.verdict))
    return ObligationReport(tuple(statuses))


# -- translation functors ---------------------------------------------------

def U_rho(rho: TheoryMorphism, m: PartialStructure,
          check: bool = True) -> PartialStructure:
    """Restrict a target model to a source model along the morphism."""
    src = rho.source.signature
    carriers = {s: m.carrier(rho.map_sort(s)) for s in src.sorts}
    funcs = {}
    for f in src.functions:
        a = rho.func_map[f.name]
        ctx = Context(tuple((p, rho.map_sort(s))
                            for p, s in zip(a.params, f.arg_sorts)))
        table = {}
        for tup in itertools.product(*(carriers[s] for s in f.arg_sorts)):
            val = interp_term(m, ctx, a.term, tup)
            if val is not None:
                table[tup] = val
        funcs[f.name] = table
    rels = {}
    for r in src.relations:
        a = rho.rel_map[r.name]
        ctx = Context(tuple((p, rho.map_sort(s))
                            for p, s in zip(a.params, r.arg_sorts)))
        rels[r.name] = frozenset(interp_formula(m, ctx, a.formula))
    out = PartialStructure(f"U_{m.name}", src, carriers, funcs, rels)
    if check:
        report = is_model(out, rho.source)
        if not report.ok:
            raise TranslationError(
                f"translated structure is not a source model: {report.violations}")
    return out


def U_rho_hom(rho: TheoryMorphism, h: Homomorphism) -> Homomorphism:
    maps = {s: dict(h.maps[rho.map_sort(s)]) for s in rho.source.signature.sorts}
    return Homomorphism(f"U_{h.name}", U_rho(rho, h.source),
                        U_rho(rho, h.target), maps)


def F_rho(rho: TheoryMorphism, p: ModelPresentation, depth: int) -> ModelPresentation:
    """Free extension of a presentation: re-present the translated constraint
    in the target theory."""
    return representing_model(rho.target, translate_context(rho, p.context),
                              translate_formula(rho, p.constraint), depth)


# ---------------------------------------------------------------------------
# relative algebraic theories

@dataclass(frozen=True)
class RelOperator:
    name: str
    arity_context: Context
    arity: Formula
    result: str


@dataclass(frozen=True)
class RelativeTheory:
    base: Theory
    operators: tuple[RelOperator, ...]
    judgments: tuple[NamedAxiom, ...]


def make_relative_theory(base: Theory, operators, judgments) -> RelativeTheory:
    rt = RelativeTheory(base, tuple(operators), tuple(judgments))
    diags = _relative_diagnostics(rt)
    if diags:
        raise TranslationError("bad relative theory: " + "; ".join(diags))
    return rt


def _relative_diagnostics(rt: RelativeTheory) -> list[str]:
    out = []
    base_sig = rt.base.signature
    ext_sig = _extended_signature(rt)
    names = {f.name for f in base_sig.functions} | {r.name for r in base_sig.relations}
    for op in rt.operators:
        if op.name in names:
            out.append(f"operator '{op.name}' clashes with a base symbol")
        names.add(op.name)
        diags = well_formed(op.arity, base_sig, op.arity_context)
        out.extend(f"arity of '{op.name}': {d}" for d in diags)
        if op.result not in base_sig.sorts:
            out.append(f"operator '{op.name}' has unknown type '{op.result}'")
    base_symbols = {f.name for f in base_sig.functions}
    for j in rt.judgments:
        diags = well_formed(j.sequent, ext_sig)
        out.extend(f"judgment '{j.name}': {d}" for d in diags)
        prem_funcs = {t.func for a in atoms(j.sequent.premise)
                      for arg in ((a.lhs, a.rhs) if isinstance(a, Eq) else a.args)
                      for t in subterms(arg) if isinstance(t, App)}
        foreign = prem_funcs - base_symbols
        if foreign:
            out.append(f"judgment '{j.name}' premise uses operators {sorted(foreign)}")
    return out


def _extended_signature(rt: RelativeTheory) -> Signature:
    base = rt.base.signature
    extra = tuple(FuncDecl(op.name,
                           tuple(s for _, s in op.arity_context.vars),
                           op.result)
                  for op in rt.operators)
    return Signature(base.sorts, base.functions + extra, base.relations)


def pht_of(rt: RelativeTheory) -> Theory:
    """The partial Horn theory whose models are the algebras: base axioms,
    both directions of each operator's definedness bisequent, and the
    judgments."""
    sig = _extended_signature(rt)
    axioms = list(rt.base.axioms)
    for op in rt.operators:
        ctx = op.arity_context
        app = App(op.name, tuple(Var(n) for n in ctx.names))
        axioms.append(NamedAxiom(f"{op.name}_dom_sub",
                                 Sequent(ctx, defined(app), op.arity)))
        axioms.append(NamedAxiom(f"{op.name}_dom_sup",
                                 Sequent(ctx, op.arity, defined(app))))
    axioms.extend(rt.judgments)
    return Theory(f"{rt.base.name}_alg", sig, tuple(axioms))


def is_algebra(m: PartialStructure, rt: RelativeTheory):
    """Model check against the associated theory (exact operator domains are
    enforced by the definedness bisequents)."""
    return is_model(m, pht_of(rt))


@dataclass(frozen=True)
class RelMorphism:
    """Morphism of relative theories over a fixed base: operators to terms."""
    name: str
    source: RelativeTheory
    target: RelativeTheory
    op_map: dict[str, Term]


def rel_morphism_obligations(rho: RelMorphism, depth: int = 4) -> ObligationReport:
    tgt_theory = pht_of(rho.target)
    statuses = []
    for op in rho.source.operators:
        t = rho.op_map[op.name]
        res = prove(tgt_theory, Sequent(op.arity_context, op.arity, defined(t)),
                    depth=depth, model_size=0)
        statuses.append((f"{op.name}_defined", res.verdict))
    for j in rho.source.judgments:
        translated = Sequent(j.sequent.context, j.sequent.premise,
                             _replace_ops(rho, j.sequent.conclusion))
        res = prove(tgt_theory, translated, depth=depth, model_size=0)
        statuses.append((j.name, res.verdict))
    return ObligationReport(tuple(statuses))


def _replace_ops_term(rho: RelMorphism, t: Term) -> Term:
    if isinstance(t, Var):
        return t
    args = tuple(_replace_ops_term(rho, a) for a in t.args)
    if t.func in rho.op_map:
        src_op = next(op for op in rho.source.operators if op.name == t.func)
        assignment = dict(zip(src_op.arity_context.names, args))
        return subst_term(rho.op_map[t.func], assignment)
    return App(t.func, args)


def _replace_ops(rho: RelMorphism, f: Formula) -> Formula:
    if isinstance(f, Truth):
        return f
    if isinstance(f, Conj):
        return Conj(tuple(_replace_ops(rho, p) for p in f.parts))
    if isinstance(f, Eq):
        return Eq(_replace_ops_term(rho, f.lhs), _replace_ops_term(rho, f.rhs))
    return RelApp(f.rel, tuple(_replace_ops_term(rho, a) for a in f.args))


@dataclass(frozen=True)
class EquivalenceReport:
    statuses: tuple[tuple[str, str], ...]

    @property
    def equivalent(self) -> bool:
        return all(v == "Proved" for _, v in self.statuses)


def morphism_equivalent(rho: RelMorphism, sigma: RelMorphism,
                        depth: int = 4) -> EquivalenceReport:
    """Two relative-theory morphisms are equivalent when the target proves
    each operator's two images equal under its arity."""
    if rho.source is not sigma.source and rho.source != sigma.source:
        raise TranslationError("morphisms have different sources")
    tgt_theory = pht_of(rho.target)
    statuses = []
    for op in rho.source.operators:
        seq = Sequent(op.arity_context, op.arity,
                      Eq(rho.op_map[op.name], sigma.op_map[op.name]))
        res = prove(tgt_theory, seq, depth=depth, model_size=0)
        statuses.append((op.name, res.verdict))
    return EquivalenceReport(tuple(statuses))


# ---------------------------------------------------------------------------
# sketches

@dataclass(frozen=True)
class SketchArrow:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class ProductCone:
    vertex: str
    legs: tuple[str, ...]


@dataclass(frozen=True)
class PullbackCone:
    vertex: str
    legs: tuple[str, str]      # q0 : vertex -> s0, q1 : vertex -> s1
    over: tuple[str, str]      # r0 : s0 -> t,  r1 : s1 -> t


@dataclass(frozen=True)
class Sketch:
    name: str
    objects: tuple[str, ...]
    arrows: tuple[SketchArrow, ...]
    compose: dict[tuple[str, str], str]    # (g, f) -> g after f
    identities: dict[str, str]             # object -> identity arrow
    product_cones: tuple[ProductCone, ...] = ()
    pullback_cones: tuple[PullbackCone, ...] = ()

    def arrow(self, name: str) -> SketchArrow | None:
        for a in self.arrows:
            if a.name == name:
                return a
        return None


def _sketch_diagnostics(sk: Sketch) -> list[str]:
    names = [a.name for a in sk.arrows]
    out = [f"duplicate arrow '{n}'" for i, n in enumerate(names) if n in names[:i]]
    out += _category_diagnostics(FiniteCategory(
        sk.objects, {a.name: (a.src, a.tgt) for a in sk.arrows},
        sk.identities, sk.compose))
    for cone in sk.product_cones:
        if cone.vertex not in sk.objects:
            out.append(f"cone vertex '{cone.vertex}' unknown")
        for leg in cone.legs:
            a = sk.arrow(leg)
            if a is None or a.src != cone.vertex:
                out.append(f"bad product leg '{leg}'")
    for cone in sk.pullback_cones:
        q0, q1 = (sk.arrow(x) for x in cone.legs)
        r0, r1 = (sk.arrow(x) for x in cone.over)
        if None in (q0, q1, r0, r1):
            out.append("pullback cone mentions unknown arrows")
            continue
        if q0.src != cone.vertex or q1.src != cone.vertex:
            out.append(f"pullback legs must start at '{cone.vertex}'")
        if r0.tgt != r1.tgt or q0.tgt != r0.src or q1.tgt != r1.src:
            out.append("ill-typed pullback cone")
        if sk.compose.get((cone.over[0], cone.legs[0])) != \
                sk.compose.get((cone.over[1], cone.legs[1])):
            out.append(f"pullback square over '{cone.vertex}' does not commute")
    return out


def make_sketch(name, objects, arrows, compose, identities,
                product_cones=(), pullback_cones=()) -> Sketch:
    arrows = tuple(arrows)
    compose = dict(compose)
    identities = dict(identities)
    # composites with identities are implied
    names = {a.name for a in arrows}
    for a in arrows:
        li, ri = identities.get(a.tgt), identities.get(a.src)
        if li in names:
            compose.setdefault((li, a.name), a.name)
        if ri in names:
            compose.setdefault((a.name, ri), a.name)
    sk = Sketch(name, tuple(objects), arrows, compose, identities,
                tuple(product_cones), tuple(pullback_cones))
    diags = _sketch_diagnostics(sk)
    if diags:
        raise TranslationError(f"bad sketch '{name}': " + "; ".join(diags))
    return sk


def sketch_to_pht(sk: Sketch) -> Theory:
    """Theory whose models are the sketch models: functor axioms for arrows
    and composition, plus tupling symbols with limit axioms for each selected
    cone.  Tupling symbols of pullback cones carry an exact-domain sequent so
    that models correspond to sketch models on the nose."""
    sorts = sk.objects
    functions = [FuncDecl(a.name, (a.src,), a.tgt) for a in sk.arrows]
    for i, cone in enumerate(sk.product_cones):
        legs = [sk.arrow(x) for x in cone.legs]
        functions.append(FuncDecl(f"tup{i}", tuple(a.tgt for a in legs),
                                  cone.vertex))
    for i, cone in enumerate(sk.pullback_cones):
        q0, q1 = (sk.arrow(x) for x in cone.legs)
        functions.append(FuncDecl(f"pb{i}", (q0.tgt, q1.tgt), cone.vertex))
    sig = Signature(sorts, tuple(functions), ())
    axioms: list[NamedAxiom] = []

    def ctx1(sort, name="x"):
        return Context(((name, sort),))

    for a in sk.arrows:
        axioms.append(NamedAxiom(
            f"total_{a.name}",
            Sequent(ctx1(a.src), TRUE, defined(App(a.name, (Var("x"),))))))
    for (g, f), h in sorted(sk.compose.items()):
        fa = sk.arrow(f)
        axioms.append(NamedAxiom(
            f"comp_{g}_{f}",
            Sequent(ctx1(fa.src), TRUE,
                    Eq(App(g, (App(f, (Var("x"),)),)), App(h, (Var("x"),))))))
    for obj, ident in sorted(sk.identities.items()):
        axioms.append(NamedAxiom(
            f"ident_{obj}",
            Sequent(ctx1(obj), TRUE, Eq(Var("x"), App(ident, (Var("x"),))))))
    for i, cone in enumerate(sk.product_cones):
        legs = [sk.arrow(x) for x in cone.legs]
        p = f"tup{i}"
        x = Var("x")
        axioms.append(NamedAxiom(
            f"prod{i}_eta",
            Sequent(ctx1(cone.vertex), TRUE,
                    Eq(App(p, tuple(App(l.name, (x,)) for l in legs)), x))))
        ctx = Context(tuple((f"x{j}", l.tgt) for j, l in enumerate(legs)))
        tup = App(p, tuple(Var(f"x{j}") for j in range(len(legs))))
        if legs:
            axioms.append(NamedAxiom(
                f"prod{i}_beta",
                Sequent(ctx, TRUE,
                        conj([Eq(App(l.name, (tup,)), Var(f"x{j}"))
                              for j, l in enumerate(legs)]))))
        else:
            # empty product: definedness of the point must be stated outright
            axioms.append(NamedAxiom(
                f"prod{i}_beta",
                Sequent(Context(), TRUE, defined(tup))))
    for i, cone in enumerate(sk.pullback_cones):
        q0n, q1n = cone.legs
        r0n, r1n = cone.over
        q0, q1 = sk.arrow(q0n), sk.arrow(q1n)
        p = f"pb{i}"
        x = Var("x")
        axioms.append(NamedAxiom(
            f"pb{i}_eta",
            Sequent(ctx1(cone.vertex), TRUE,
                    Eq(App(p, (App(q0n, (x,)), App(q1n, (x,)))), x))))
        ctx = Context((("x0", q0.tgt), ("x1", q1.tgt)))
        prem = Eq(App(r0n, (Var("x0"),)), App(r1n, (Var("x1"),)))
        tup = App(p, (Var("x0"), Var("x1")))
        axioms.append(NamedAxiom(
            f"pb{i}_beta",
            Sequent(ctx, prem, conj([Eq(App(q0n, (tup,)), Var("x0")),
                                     Eq(App(q1n, (tup,)), Var("x1"))]))))
        axioms.append(NamedAxiom(
            f"pb{i}_dom",
            Sequent(ctx, defined(tup), prem)))
    return Theory(sk.name, sig, tuple(axioms))


def enumerate_sketch_models(sk: Sketch, sizes: dict[str, int]):
    """All functors on fixed carriers sending the selected cones to limits."""
    functor_theory = sketch_to_pht(
        Sketch(sk.name, sk.objects, sk.arrows, sk.compose, sk.identities))
    for m in enumerate_structures(functor_theory, sizes):
        if _cones_are_limits(sk, m):
            yield m


def _cones_are_limits(sk: Sketch, m: PartialStructure) -> bool:
    for cone in sk.product_cones:
        legs = [sk.arrow(x) for x in cone.legs]
        vertex_elems = m.carrier(cone.vertex)
        images = {}
        for v in vertex_elems:
            images[v] = tuple(m.func_table(l.name)[(v,)] for l in legs)
        target = list(itertools.product(*(m.carrier(l.tgt) for l in legs)))
        if len(set(images.values())) != len(vertex_elems) or \
                set(images.values()) != set(target):
            return False
    for cone in sk.pullback_cones:
        q0, q1 = (sk.arrow(x) for x in cone.legs)
        r0, r1 = (sk.arrow(x) for x in cone.over)
        vertex_elems = m.carrier(cone.vertex)
        images = {}
        for v in vertex_elems:
            images[v] = (m.func_table(q0.name)[(v,)], m.func_table(q1.name)[(v,)])
        pullback = [(a, b)
                    for a in m.carrier(q0.tgt) for b in m.carrier(q1.tgt)
                    if m.func_table(r0.name)[(a,)] == m.func_table(r1.name)[(b,)]]
        if len(set(images.values())) != len(vertex_elems) or \
                set(images.values()) != set(pullback):
            return False
    return True


# ---------------------------------------------------------------------------
# text formats

def parse_morphism(text: str, theories: dict[str, Theory]) -> TheoryMorphism:
    """Parse `morphism NAME : SRC -> TGT` with sort/fun/rel assignment lines."""
    ts = TokenStream(text)
    name, src_name, tgt_name = parse_arrow_header(ts, "morphism")
    for n in (src_name, tgt_name):
        if n not in theories:
            ts.error(f"unknown theory '{n}'")
    src, tgt = theories[src_name], theories[tgt_name]
    sort_map: dict[str, str] = {}
    func_map: dict[str, FuncAssignment] = {}
    rel_map: dict[str, RelAssignment] = {}
    while not ts.at("eof"):
        if ts.at_word("sort"):
            ts.next()
            a = _parse_sort_name(ts)
            if a in sort_map:
                ts.error(f"sort {a} given twice")
            ts.expect("darrow")
            b = _parse_sort_name(ts)
            ts.expect("punct", ";")
            sort_map[a] = b
        elif ts.at_word("fun"):
            ts.next()
            fname = ts.expect("ident").text
            if fname in func_map:
                ts.error(f"fun {fname} given twice")
            ts.expect("darrow")
            ctx = parse_context_tokens(ts, tgt.signature)
            term = _parse_term_tokens(ts, tgt.signature, ctx)
            ts.expect("punct", ";")
            func_map[fname] = FuncAssignment(ctx.names, term)
        elif ts.at_word("rel"):
            ts.next()
            rname = ts.expect("ident").text
            if rname in rel_map:
                ts.error(f"rel {rname} given twice")
            ts.expect("darrow")
            ctx = parse_context_tokens(ts, tgt.signature)
            f = _parse_formula_tokens(ts, tgt.signature, ctx)
            ts.expect("punct", ";")
            rel_map[rname] = RelAssignment(ctx.names, f)
        else:
            ts.error(f"unexpected {ts.peek().text!r} in morphism body")
    return make_theory_morphism(name, src, tgt, sort_map, func_map, rel_map)


def print_morphism(rho: TheoryMorphism) -> str:
    lines = [f"morphism {rho.name} : {rho.source.name} -> {rho.target.name}"]
    for a, b in rho.sort_map.items():
        lines.append(f"sort {a} => {b};")
    src_sig = rho.source.signature
    for f in src_sig.functions:
        a = rho.func_map[f.name]
        ctx = Context(tuple((p, rho.map_sort(s))
                            for p, s in zip(a.params, f.arg_sorts)))
        lines.append(f"fun {f.name} => {print_context(ctx)} {print_term(a.term)};")
    for r in src_sig.relations:
        a = rho.rel_map[r.name]
        ctx = Context(tuple((p, rho.map_sort(s))
                            for p, s in zip(a.params, r.arg_sorts)))
        lines.append(f"rel {r.name} => {print_context(ctx)} "
                     f"{print_formula(a.formula)};")
    return "\n".join(lines) + "\n"


def parse_sketch(text: str) -> Sketch:
    """Parse the sketch format: objects, arrow, compose, identity,
    product-cone and pullback-cone lines."""
    ts = TokenStream(text)
    ts.expect_word("sketch")
    name = ts.expect("ident").text
    objects: list[str] = []
    arrows: list[SketchArrow] = []
    compose: dict[tuple[str, str], str] = {}
    identities: dict[str, str] = {}
    product_cones: list[ProductCone] = []
    pullback_cones: list[PullbackCone] = []
    while not ts.at("eof"):
        if ts.at_word("objects"):
            ts.next()
            ts.expect("punct", ":")
            while not ts.at("punct", ";"):
                objects.append(ts.expect("ident").text)
            ts.next()
        elif ts.at_word("arrow"):
            ts.next()
            aname = ts.expect("ident").text
            ts.expect("punct", ":")
            src = ts.expect("ident").text
            ts.expect("arrow")
            tgt = ts.expect("ident").text
            ts.expect("punct", ";")
            arrows.append(SketchArrow(aname, src, tgt))
        elif ts.at_word("compose"):
            ts.next()
            g = ts.expect("ident").text
            f = ts.expect("ident").text
            if (g, f) in compose:
                ts.error(f"compose {g} {f} given twice")
            ts.expect("punct", "=")
            h = ts.expect("ident").text
            ts.expect("punct", ";")
            compose[(g, f)] = h
        elif ts.at_word("identity"):
            ts.next()
            obj = ts.expect("ident").text
            if obj in identities:
                ts.error(f"identity {obj} given twice")
            ts.expect("punct", "=")
            ident = ts.expect("ident").text
            ts.expect("punct", ";")
            identities[obj] = ident
        elif ts.at("conekw"):
            kw = ts.next().text
            vertex = ts.expect("ident").text
            ts.expect("punct", "[")
            legs = []
            while not ts.at("punct", "]"):
                legs.append(ts.expect("ident").text)
            ts.next()
            if kw == "product-cone":
                ts.expect("punct", ";")
                product_cones.append(ProductCone(vertex, tuple(legs)))
            else:
                ts.expect_word("over")
                ts.expect("punct", "[")
                over = []
                while not ts.at("punct", "]"):
                    over.append(ts.expect("ident").text)
                ts.next()
                ts.expect("punct", ";")
                if len(legs) != 2 or len(over) != 2:
                    ts.error("pullback cones need two legs and two base arrows")
                pullback_cones.append(PullbackCone(vertex, (legs[0], legs[1]),
                                                   (over[0], over[1])))
        else:
            ts.error(f"unexpected {ts.peek().text!r} in sketch body")
    return make_sketch(name, objects, arrows, compose, identities,
                       product_cones, pullback_cones)
