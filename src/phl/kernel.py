"""The proof calculus: rule instances, derivations and their checker, the
derived-rule builders, best-effort elaboration of small proofs, and the
derivation text format.  It needs only the standard library and
`phl.syntax`, so that a derivation can be checked without loading any
engine.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import MISSING, dataclass, fields
from typing import get_args

from .syntax import (
    App, Conj, Context, Eq, Formula, PhlError, RelApp, Sequent, Signature, Term,
    Theory, Truth, TRUE, Var, atoms, conj, defined, free_vars, is_definedness,
    parse_context_tokens, parse_sequent, print_context, print_formula,
    print_sequent, print_term, infer_sort, subst_formula, subst_term, subterms,
    well_formed, TokenStream, _parse_formula_tokens, _parse_term_tokens,
)


class RuleError(PhlError):
    pass


# ---------------------------------------------------------------------------
# rule instances

@dataclass(frozen=True)
class AxiomRule:
    name: str
    rule = "Axiom"


@dataclass(frozen=True)
class IdRule:
    context: Context
    formula: Formula
    rule = "Id"


@dataclass(frozen=True)
class CutRule:
    rule = "Cut"


@dataclass(frozen=True)
class SubstRule:
    target: Context
    assignment: tuple[tuple[str, Term], ...]
    rule = "Subst"


@dataclass(frozen=True)
class ReflRule:
    context: Context
    index: int
    rule = "Refl"


@dataclass(frozen=True)
class EqRule:
    formula: Formula
    xs: Context
    ys: Context
    context: Context   # ambient context containing all of xs and ys
    rule = "Eq"


@dataclass(frozen=True)
class SRelRule:
    context: Context
    rel: str
    args: tuple[Term, ...]
    index: int
    rule = "SRel"


@dataclass(frozen=True)
class SEqRule:
    context: Context
    lhs: Term
    rhs: Term
    side: int          # 0 for the left operand, 1 for the right
    rule = "SEq"


@dataclass(frozen=True)
class SFunRule:
    context: Context
    func: str
    args: tuple[Term, ...]
    index: int
    rule = "SFun"


@dataclass(frozen=True)
class EConjRule:
    context: Context
    parts: tuple[Formula, ...]
    index: int
    rule = "EConj"


@dataclass(frozen=True)
class IConjRule:
    context: Context | None = None   # needed only for the nullary instance
    premise: Formula | None = None
    rule = "IConj"


RuleInstance = (AxiomRule | IdRule | CutRule | SubstRule | ReflRule | EqRule
                | SRelRule | SEqRule | SFunRule | EConjRule | IConjRule)


def _require(cond: bool, reason: str):
    if not cond:
        raise RuleError(reason)


def _wf(sig: Signature, ctx: Context, f, what: str):
    diags = well_formed(f, sig, ctx)
    _require(not diags, f"ill-formed {what}: " + "; ".join(map(str, diags)))


def check_rule(instance: RuleInstance, premises: list[Sequent],
               sig: Signature, theory: Theory | None = None) -> Sequent:
    """Conclusion the rule schema produces from the instantiation data, or a
    RuleError explaining the mismatch."""
    if isinstance(instance, AxiomRule):
        _require(len(premises) == 0, "Axiom takes no premises")
        _require(theory is not None, "Axiom rule needs the ambient theory")
        ax = theory.axiom(instance.name)
        _require(ax is not None, f"theory has no axiom '{instance.name}'")
        return ax.sequent

    if isinstance(instance, IdRule):
        _require(len(premises) == 0, "Id takes no premises")
        _wf(sig, instance.context, instance.formula, "Id formula")
        return Sequent(instance.context, instance.formula, instance.formula)

    if isinstance(instance, CutRule):
        _require(len(premises) == 2, "Cut takes two premises")
        left, right = premises
        _require(left.context == right.context, "Cut premises have different contexts")
        _require(left.conclusion == right.premise,
                 "middle formula of Cut does not match")
        return Sequent(left.context, left.premise, right.conclusion)

    if isinstance(instance, SubstRule):
        _require(len(premises) == 1, "Subst takes one premise")
        (prem,) = premises
        assignment = dict(instance.assignment)
        _require(set(assignment) == set(prem.context.names),
                 "substitution must cover exactly the premise context")
        for name, sort in prem.context.vars:
            t = assignment[name]
            _wf(sig, instance.target, t, f"replacement for {name}")
            got = infer_sort(sig, instance.target, t)
            _require(got == sort,
                     f"replacement for {name} has sort {got}, expected {sort}")
        prem_sub = subst_formula(prem.premise, assignment)
        concl_sub = subst_formula(prem.conclusion, assignment)
        defs = [defined(assignment[name]) for name in prem.context.names]
        return Sequent(instance.target, conj([prem_sub] + defs), concl_sub)

    if isinstance(instance, ReflRule):
        _require(len(premises) == 0, "Refl takes no premises")
        _require(0 <= instance.index < len(instance.context),
                 "Refl index out of range")
        name = instance.context.names[instance.index]
        return Sequent(instance.context, TRUE, defined(Var(name)))

    if isinstance(instance, EqRule):
        _require(len(premises) == 0, "Eq takes no premises")
        xs, ys, ctx = instance.xs, instance.ys, instance.context
        _require(len(xs) == len(ys), "Eq contexts differ in length")
        for (xn, xs_), (yn, ys_) in zip(xs.vars, ys.vars):
            _require(xs_ == ys_, f"Eq pairs {xn},{yn} have different sorts")
        for n, s in list(xs.vars) + list(ys.vars):
            _require(ctx.sort_of(n) == s,
                     f"ambient context must contain {n}:{s}")
        _wf(sig, ctx, instance.formula, "Eq formula")
        fv = set(free_vars(instance.formula))
        _require(fv <= set(ctx.names), "Eq formula outside ambient context")
        assignment = {n: Var(n) for n in ctx.names}
        for (xn, _), (yn, _) in zip(xs.vars, ys.vars):
            assignment[xn] = Var(yn)
        prem = conj([instance.formula]
                    + [Eq(Var(xn), Var(yn)) for (xn, _), (yn, _) in
                       zip(xs.vars, ys.vars)])
        return Sequent(ctx, prem, subst_formula(instance.formula, assignment))

    if isinstance(instance, SRelRule):
        _require(len(premises) == 0, "SRel takes no premises")
        decl = sig.relation(instance.rel)
        _require(decl is not None, f"unknown relation '{instance.rel}'")
        _require(0 <= instance.index < len(instance.args), "SRel index out of range")
        f = RelApp(instance.rel, instance.args)
        _wf(sig, instance.context, f, "SRel premise")
        return Sequent(instance.context, f, defined(instance.args[instance.index]))

    if isinstance(instance, SEqRule):
        _require(len(premises) == 0, "SEq takes no premises")
        _require(instance.side in (0, 1), "SEq side must be 0 or 1")
        f = Eq(instance.lhs, instance.rhs)
        _wf(sig, instance.context, f, "SEq premise")
        side = instance.lhs if instance.side == 0 else instance.rhs
        return Sequent(instance.context, f, defined(side))

    if isinstance(instance, SFunRule):
        _require(len(premises) == 0, "SFun takes no premises")
        decl = sig.function(instance.func)
        _require(decl is not None, f"unknown function '{instance.func}'")
        _require(0 <= instance.index < len(instance.args), "SFun index out of range")
        t = App(instance.func, instance.args)
        _wf(sig, instance.context, t, "SFun term")
        return Sequent(instance.context, defined(t),
                       defined(instance.args[instance.index]))

    if isinstance(instance, EConjRule):
        _require(len(premises) == 0, "EConj takes no premises")
        _require(0 <= instance.index < len(instance.parts),
                 "EConj index out of range")
        f = Conj(instance.parts)
        _wf(sig, instance.context, f, "EConj premise")
        return Sequent(instance.context, f, instance.parts[instance.index])

    if isinstance(instance, IConjRule):
        if not premises:
            _require(instance.context is not None and instance.premise is not None,
                     "nullary IConj needs explicit context and premise")
            return Sequent(instance.context, instance.premise, TRUE)
        ctx = premises[0].context
        phi = premises[0].premise
        for p in premises[1:]:
            _require(p.context == ctx, "IConj premises have different contexts")
            _require(p.premise == phi, "IConj premises have different left sides")
        return Sequent(ctx, phi, Conj(tuple(p.conclusion for p in premises)))

    raise RuleError(f"unknown rule instance {instance!r}")


# ---------------------------------------------------------------------------
# derivations

@dataclass(frozen=True)
class Derivation:
    sequent: Sequent
    rule: RuleInstance
    children: tuple["Derivation", ...] = ()


def alpha_normal(seq: Sequent) -> Sequent:
    """Rename context variables positionally to canonical names."""
    ren = {name: f"v{i}" for i, (name, _) in enumerate(seq.context.vars)}
    ctx = Context(tuple((ren[n], s) for n, s in seq.context.vars))
    assignment = {n: Var(r) for n, r in ren.items()}
    return Sequent(ctx, subst_formula(seq.premise, assignment),
                   subst_formula(seq.conclusion, assignment))


def sequents_alpha_equal(a: Sequent, b: Sequent) -> bool:
    return alpha_normal(a) == alpha_normal(b)


@dataclass(frozen=True)
class DerivationCheck:
    ok: bool
    path: tuple[int, ...] | None = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def _as_read(seq: Sequent) -> Sequent:
    """`seq` as `parse_derivation` reads it back: `print_formula` writes a
    one-part conjunction as its part and an empty one as `true`."""
    def read(f: Formula) -> Formula:
        return conj(read(p) for p in f.parts) if isinstance(f, Conj) else f
    return Sequent(seq.context, read(seq.premise), read(seq.conclusion))


def check_derivation(theory: Theory, d: Derivation) -> DerivationCheck:
    """Validate every node against its rule schema (axioms are leaves).

    Node sequents are compared with the schema conclusions up to renaming of
    context variables and up to the text format's reading of conjunctions
    (`_as_read`), so a derivation checks the same after a round trip.
    """
    def walk(node: Derivation, path: tuple[int, ...]) -> DerivationCheck:
        for i, ch in enumerate(node.children):
            sub = walk(ch, path + (i,))
            if not sub.ok:
                return sub
        try:
            concl = check_rule(node.rule, [c.sequent for c in node.children],
                               theory.signature, theory)
        except RuleError as e:
            return DerivationCheck(False, path, str(e))
        if not sequents_alpha_equal(_as_read(concl), _as_read(node.sequent)):
            return DerivationCheck(
                False, path,
                f"node states {print_sequent(node.sequent)} but the rule "
                f"produces {print_sequent(concl)}")
        return DerivationCheck(True)

    return walk(d, ())


# ---------------------------------------------------------------------------
# certificate elaboration

def _match_term(pattern: Term, term: Term, binding: dict[str, Term]) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding[pattern.name] == term
        binding[pattern.name] = term
        return True
    return (isinstance(term, App) and term.func == pattern.func
            and len(term.args) == len(pattern.args)
            and all(_match_term(p, t, binding)
                    for p, t in zip(pattern.args, term.args)))


def _match_formula(pattern: Formula, f: Formula, binding: dict[str, Term]) -> bool:
    if isinstance(pattern, Truth):
        return isinstance(f, Truth)
    if isinstance(pattern, Eq):
        return (isinstance(f, Eq)
                and _match_term(pattern.lhs, f.lhs, binding)
                and _match_term(pattern.rhs, f.rhs, binding))
    if isinstance(pattern, RelApp):
        return (isinstance(f, RelApp) and f.rel == pattern.rel
                and all(_match_term(p, t, binding)
                        for p, t in zip(pattern.args, f.args)))
    if isinstance(pattern, Conj):
        return (isinstance(f, Conj) and len(f.parts) == len(pattern.parts)
                and all(_match_formula(p, q, binding)
                        for p, q in zip(pattern.parts, f.parts)))
    return False


def elaborate(theory: Theory, seq: Sequent, fuel: int = 3) -> Derivation | None:
    """Best-effort reconstruction of an explicit derivation for small proofs:
    identities, conjunct projections, conjunction introductions, strictness
    facts, and single axiom instances reached by substitution.  Returns None
    when the sequent is out of reach; the saturation certificate stands."""
    sig = theory.signature
    ctx, phi, psi = seq.context, seq.premise, seq.conclusion
    if phi == psi:
        return rule_node(IdRule(ctx, phi), (), sig)
    if isinstance(psi, Truth):
        return rule_node(IConjRule(ctx, phi), (), sig)
    parts = phi.parts if isinstance(phi, Conj) else None
    if parts is not None and psi in parts:
        return rule_node(EConjRule(ctx, parts, parts.index(psi)), (), sig)
    if isinstance(psi, Conj) and fuel > 0:
        subs = [elaborate(theory, Sequent(ctx, phi, p), fuel - 1)
                for p in psi.parts]
        if all(s is not None for s in subs):
            return rule_node(IConjRule(), tuple(subs), sig)
    # strictness for definedness goals: context variables via Refl, subterms
    # of premise atoms via SEq, SFun and SRel
    if is_definedness(psi) and fuel > 0:
        target = psi.lhs
        if isinstance(target, Var) and target.name in ctx.names:
            return derive_defined_var(sig, ctx, phi,
                                      list(ctx.names).index(target.name))
        for atom in ((phi,) if parts is None else parts):
            node = _strictness_step(theory, ctx, phi, atom, target, fuel)
            if node is not None:
                return node
    # one axiom instance, reached by substitution and conjunct projection
    if fuel > 0:
        for ax in theory.axioms:
            node = _axiom_step(theory, ctx, phi, psi, ax, fuel)
            if node is not None:
                return node
    return None


def _candidate_terms(sig, ctx, phi, sort) -> list[Term]:
    seen: list[Term] = []

    def note(t):
        try:
            if infer_sort(sig, ctx, t) == sort and t not in seen:
                seen.append(t)
        except PhlError:
            pass

    for n in ctx.names:
        note(Var(n))
    for atom in atoms(phi):
        if isinstance(atom, Eq):
            for side in (atom.lhs, atom.rhs):
                for t in subterms(side):
                    note(t)
        elif isinstance(atom, RelApp):
            for arg in atom.args:
                for t in subterms(arg):
                    note(t)
    return seen[:6]


def _axiom_step(theory, ctx, phi, psi, ax, fuel):
    sig = theory.signature
    concl = ax.sequent.conclusion
    targets = [(None, concl)]
    if isinstance(concl, Conj):
        targets += list(enumerate(concl.parts))
    for j, pattern in targets:
        binding: dict[str, Term] = {}
        if not _match_formula(pattern, psi, binding):
            continue
        unbound = [n for n in ax.sequent.context.names if n not in binding]
        if len(unbound) > 2:
            continue
        spaces = [_candidate_terms(sig, ctx, phi, ax.sequent.context.sort_of(n))
                  for n in unbound]
        if not all(spaces):
            continue
        have = set(atoms(phi))

        def directness(extra):
            full = dict(binding)
            full.update(zip(unbound, extra))
            instantiated = subst_formula(ax.sequent.premise, full)
            return sum(1 for a in atoms(instantiated) if a in have)

        for extra in sorted(itertools.product(*spaces), key=directness,
                            reverse=True):
            full = dict(binding)
            full.update(zip(unbound, extra))
            assignment = tuple((n, full[n]) for n in ax.sequent.context.names)
            try:
                axnode = rule_node(AxiomRule(ax.name), (), sig, theory)
                chain = rule_node(SubstRule(ctx, assignment), (axnode,), sig)
                if j is not None:
                    substituted = chain.sequent.conclusion
                    project = rule_node(
                        EConjRule(ctx, substituted.parts, j), (), sig)
                    chain = rule_node(CutRule(), (chain, project), sig)
            except RuleError:
                continue
            if chain.sequent.conclusion != psi:
                continue
            glue = elaborate(theory, Sequent(ctx, phi, chain.sequent.premise),
                             fuel - 1)
            if glue is not None:
                return rule_node(CutRule(), (glue, chain), sig)
    return None


def _strictness_step(theory, ctx, phi, atom, target, fuel):
    sig = theory.signature
    candidates: list[RuleInstance] = []
    if isinstance(atom, Eq):
        if atom.lhs == target:
            candidates.append(SEqRule(ctx, atom.lhs, atom.rhs, 0))
        if atom.rhs == target:
            candidates.append(SEqRule(ctx, atom.lhs, atom.rhs, 1))
        for side in (atom.lhs, atom.rhs):
            if isinstance(side, App) and target in side.args:
                candidates.append(SFunRule(ctx, side.func, side.args,
                                           side.args.index(target)))
    if isinstance(atom, RelApp) and target in atom.args:
        candidates.append(SRelRule(ctx, atom.rel, atom.args,
                                   atom.args.index(target)))
    for inst in candidates:
        try:
            node = rule_node(inst, (), sig)
        except RuleError:
            continue
        glue = elaborate(theory, Sequent(ctx, phi, node.sequent.premise),
                         fuel - 1)
        if glue is not None:
            return rule_node(CutRule(), (glue, node), sig)
    return None


# ---------------------------------------------------------------------------
# derived-rule derivation builders (the golden corpus)

def rule_node(instance: RuleInstance, children: tuple[Derivation, ...],
              sig: Signature, theory: Theory | None = None) -> Derivation:
    concl = check_rule(instance, [c.sequent for c in children], sig, theory)
    return Derivation(concl, instance, children)


def derive_entails_true(sig: Signature, ctx: Context, phi: Formula) -> Derivation:
    return rule_node(IConjRule(ctx, phi), (), sig)


def derive_defined_var(sig: Signature, ctx: Context, phi: Formula,
                       index: int) -> Derivation:
    """phi |- x_i defined, via Refl and Cut through truth."""
    refl = rule_node(ReflRule(ctx, index), (), sig)
    top = derive_entails_true(sig, ctx, phi)
    return rule_node(CutRule(), (top, refl), sig)


def derive_symmetry(sig: Signature, ctx: Context, tau: Term,
                    sigma: Term) -> Derivation:
    """tau = sigma |- sigma = tau, following the displayed equality tree:
    an Eq instance specialized by Subst, glued by strictness and Cut."""
    sort = infer_sort(sig, ctx, tau)
    y0, y1, z = Var("y0"), Var("y1"), Var("z")
    inner_ctx = Context((("y0", sort), ("y1", sort), ("z", sort)))
    eq_node = rule_node(
        EqRule(formula=Eq(z, y0),
               xs=Context((("z", sort), ("y0", sort))),
               ys=Context((("y1", sort), ("y0", sort))),
               context=inner_ctx),
        (), sig)
    two_ctx = Context((("y0", sort), ("y1", sort)))
    subst_node = rule_node(
        SubstRule(target=two_ctx,
                  assignment=(("y0", y0), ("y1", y1), ("z", y0))),
        (eq_node,), sig)
    f = Eq(y0, y1)
    lemma_left = rule_node(
        IConjRule(), (
            rule_node(IConjRule(), (
                rule_node(SEqRule(two_ctx, y0, y1, 0), (), sig),
                rule_node(IdRule(two_ctx, f), (), sig),
                rule_node(SEqRule(two_ctx, y0, y1, 0), (), sig),
            ), sig),
            rule_node(SEqRule(two_ctx, y0, y1, 0), (), sig),
            rule_node(SEqRule(two_ctx, y0, y1, 1), (), sig),
            rule_node(SEqRule(two_ctx, y0, y1, 0), (), sig),
        ), sig)
    lemma = rule_node(CutRule(), (lemma_left, subst_node), sig)
    general = rule_node(
        SubstRule(target=ctx, assignment=(("y0", tau), ("y1", sigma))),
        (lemma,), sig)
    tseq = Eq(tau, sigma)
    glue = rule_node(
        IConjRule(), (
            rule_node(IdRule(ctx, tseq), (), sig),
            rule_node(SEqRule(ctx, tau, sigma, 0), (), sig),
            rule_node(SEqRule(ctx, tau, sigma, 1), (), sig),
        ), sig)
    return rule_node(CutRule(), (glue, general), sig)


def derive_transitivity(sig: Signature, ctx: Context, tau: Term, sigma: Term,
                        rho: Term) -> Derivation:
    """tau = sigma /\\ sigma = rho |- tau = rho, per the displayed tree."""
    sort = infer_sort(sig, ctx, tau)
    y0, y1, y2 = Var("y0"), Var("y1"), Var("y2")
    inner_ctx = Context((("y0", sort), ("y1", sort), ("y2", sort)))
    eq_node = rule_node(
        EqRule(formula=Eq(y0, y1),
               xs=Context((("y0", sort), ("y1", sort))),
               ys=Context((("y0", sort), ("y2", sort))),
               context=inner_ctx),
        (), sig)
    pair = Conj((Eq(y0, y1), Eq(y1, y2)))
    bridge = rule_node(
        IConjRule(), (
            rule_node(EConjRule(inner_ctx, pair.parts, 0), (), sig),
            rule_node(CutRule(), (
                rule_node(EConjRule(inner_ctx, pair.parts, 0), (), sig),
                rule_node(SEqRule(inner_ctx, y0, y1, 0), (), sig),
            ), sig),
            rule_node(EConjRule(inner_ctx, pair.parts, 1), (), sig),
        ), sig)
    lemma = rule_node(CutRule(), (bridge, eq_node), sig)
    general = rule_node(
        SubstRule(target=ctx,
                  assignment=(("y0", tau), ("y1", sigma), ("y2", rho))),
        (lemma,), sig)
    tpair = Conj((Eq(tau, sigma), Eq(sigma, rho)))
    glue = rule_node(
        IConjRule(), (
            rule_node(IdRule(ctx, tpair), (), sig),
            rule_node(CutRule(), (
                rule_node(EConjRule(ctx, tpair.parts, 0), (), sig),
                rule_node(SEqRule(ctx, tau, sigma, 0), (), sig),
            ), sig),
            rule_node(CutRule(), (
                rule_node(EConjRule(ctx, tpair.parts, 0), (), sig),
                rule_node(SEqRule(ctx, tau, sigma, 1), (), sig),
            ), sig),
            rule_node(CutRule(), (
                rule_node(EConjRule(ctx, tpair.parts, 1), (), sig),
                rule_node(SEqRule(ctx, sigma, rho, 1), (), sig),
            ), sig),
        ), sig)
    return rule_node(CutRule(), (glue, general), sig)


def derive_weakening(sig: Signature, sub: Derivation, bigger: Context) -> Derivation:
    """From phi |-_x psi conclude phi |-_y psi for y extending x, via Subst."""
    small = sub.sequent.context
    for n, s in small.vars:
        if bigger.sort_of(n) != s:
            raise RuleError(f"target context does not extend: missing {n}:{s}")
    assignment = tuple((n, Var(n)) for n in small.names)
    substituted = rule_node(SubstRule(target=bigger, assignment=assignment),
                            (sub,), sig)
    if not small.names:
        return substituted
    phi = sub.sequent.premise
    names = list(bigger.names)
    glue = rule_node(IConjRule(), tuple(
        [rule_node(IdRule(bigger, phi), (), sig)]
        + [derive_defined_var(sig, bigger, phi, names.index(n))
           for n in small.names]), sig)
    return rule_node(CutRule(), (glue, substituted), sig)


def derive_conj_permutation(sig: Signature, ctx: Context,
                            parts: tuple[Formula, ...],
                            perm: tuple[int, ...]) -> Derivation:
    """Conj(parts) |- Conj(parts permuted), one EConj per conjunct."""
    prem_nodes = tuple(
        rule_node(EConjRule(ctx, parts, perm[i]), (), sig)
        for i in range(len(perm)))
    return rule_node(IConjRule(), prem_nodes, sig)


def derive_cut_lemma(theory: Theory, ctx: Context, chi: Formula,
                     phis: tuple[Formula, ...], psis: tuple[Formula, ...],
                     step_axioms: tuple[str, ...], final_axiom: str) -> Derivation:
    """The derived cut rule, with the hypotheses as named theory axioms:
    from (phi_i |- psi_i) and chi /\\ psis |- theta, conclude
    chi /\\ phis |- theta."""
    sig = theory.signature
    prem_parts = (chi,) + phis
    prem = Conj(prem_parts)
    step_nodes = []
    for j, name in enumerate(step_axioms):
        first = rule_node(EConjRule(ctx, prem_parts, j + 1), (), sig)
        ax = rule_node(AxiomRule(name), (), sig, theory)
        step_nodes.append(rule_node(CutRule(), (first, ax), sig))
    glue = rule_node(
        IConjRule(),
        tuple([rule_node(EConjRule(ctx, prem_parts, 0), (), sig)] + step_nodes),
        sig)
    final = rule_node(AxiomRule(final_axiom), (), sig, theory)
    return rule_node(CutRule(), (glue, final), sig)


def derive_subst_formula_lemma(sig: Signature, target: Context, phi: Formula,
                               ys: Context, sigmas: tuple[Term, ...],
                               rhos: tuple[Term, ...]) -> Derivation:
    """phi(sigma/y) /\\ sigma_j = rho_j ... |- phi(rho/y), via Eq and Subst."""
    zs = Context(tuple((f"z{i}", s) for i, (_, s) in enumerate(ys.vars)))
    ambient = Context(ys.vars + zs.vars)
    eq_node = rule_node(EqRule(formula=phi, xs=ys, ys=zs, context=ambient),
                        (), sig)
    assignment = tuple([(n, t) for n, t in zip(ys.names, sigmas)]
                       + [(n, t) for n, t in zip(zs.names, rhos)])
    return rule_node(SubstRule(target=target, assignment=assignment),
                     (eq_node,), sig)


def derive_subst_term_lemma(sig: Signature, target: Context, tau: Term,
                            ys: Context, sigmas: tuple[Term, ...],
                            rhos: tuple[Term, ...]) -> Derivation:
    """tau(sigma/y) defined /\\ sigma_j = rho_j ... |- tau(sigma/y) = tau(rho/y)."""
    zs = Context(tuple((f"z{i}", s) for i, (_, s) in enumerate(ys.vars)))
    ws = Context(tuple((f"w{i}", s) for i, (_, s) in enumerate(ys.vars)))
    ambient = Context(ys.vars + zs.vars + ws.vars)
    ren_z = {n: Var(z) for n, z in zip(ys.names, zs.names)}
    phi = Eq(tau, subst_term(tau, {**{n: Var(n) for n in ambient.names}, **ren_z}))
    eq_node = rule_node(EqRule(formula=phi, xs=zs, ys=ws, context=ambient),
                        (), sig)
    assignment = tuple([(n, t) for n, t in zip(ys.names, sigmas)]
                       + [(n, t) for n, t in zip(zs.names, sigmas)]
                       + [(n, t) for n, t in zip(ws.names, rhos)])
    return rule_node(SubstRule(target=target, assignment=assignment),
                     (eq_node,), sig)


# ---------------------------------------------------------------------------
# derivation text format

def _parsed(parse, text: str, *args):
    """Run a token parser over the whole of `text`."""
    ts = TokenStream(text)
    out = parse(ts, *args)
    ts.expect("eof")
    return out


def _term(text: str, sig: Signature, ctx: Context) -> Term:
    return _parsed(_parse_term_tokens, text, sig, ctx)


def _formula(text: str, sig: Signature, ctx: Context) -> Formula:
    return _parsed(_parse_formula_tokens, text, sig, ctx)


def _same(value, *_):
    return value


# value kind -> (JSON type, writer, reader of (JSON value, signature, context));
# list and object values hold strings
_KINDS = {
    "context": (str, print_context,
                lambda v, sig, ctx: _parsed(parse_context_tokens, v, sig)),
    "formula": (str, print_formula, _formula),
    "term": (str, print_term, _term),
    "terms": (list, lambda ts: [print_term(t) for t in ts],
              lambda v, sig, ctx: tuple(_term(t, sig, ctx) for t in v)),
    "conjuncts": (list, lambda fs: [print_formula(f, nested=True) for f in fs],
                  lambda v, sig, ctx: tuple(_formula(f, sig, ctx) for f in v)),
    "substitution": (dict, lambda sub: {n: print_term(t) for n, t in sub},
                     lambda v, sig, ctx: tuple((n, _term(t, sig, ctx))
                                               for n, t in v.items())),
    "int": (int, _same, _same),
    "str": (str, _same, _same),
}

# rule-instance field -> (JSON key, value kind)
_FIELDS = {
    "context": ("ctx", "context"), "target": ("target", "context"),
    "xs": ("xs", "context"), "ys": ("ys", "context"),
    "formula": ("formula", "formula"), "premise": ("premise", "formula"),
    "lhs": ("lhs", "term"), "rhs": ("rhs", "term"), "args": ("args", "terms"),
    "parts": ("parts", "conjuncts"), "assignment": ("sub", "substitution"),
    "index": ("i", "int"), "side": ("side", "int"),
    "name": ("name", "str"), "rel": ("rel", "str"), "func": ("fun", "str"),
}

_RULES = {cls.rule: cls for cls in get_args(RuleInstance)}

_JSON_NAMES = {str: "a string", int: "an integer",
               list: "a list of strings", dict: "an object of strings"}


def format_derivation(d: Derivation, indent: int = 0) -> str:
    data = {}
    for f in fields(d.rule):
        value = getattr(d.rule, f.name)
        if value is not None:
            key, kind = _FIELDS[f.name]
            data[key] = _KINDS[kind][1](value)
    tag = f"[rule {d.rule.rule} {json.dumps(data, sort_keys=True)}]"
    line = "  " * indent + f"{print_sequent(d.sequent)}  {tag}"
    return "\n".join([line] + [format_derivation(c, indent + 1) for c in d.children])


def _instance_from_data(name: str, data: dict, sig: Signature) -> RuleInstance:
    """Read each field of the named rule from its JSON key; terms and formulas
    are parsed in the instance's context (the target context for Subst)."""
    cls = _RULES.get(name)
    if cls is None:
        raise RuleError(f"unknown rule name '{name}'")
    if type(data) is not dict:
        raise RuleError(f"{name} rule data must be a JSON object")
    present = {}
    for f in fields(cls):
        key, kind = _FIELDS[f.name]
        if key not in data:
            if f.default is MISSING:
                raise RuleError(f"{name} rule data lacks key '{key}'")
            continue
        value, json_type = data[key], _KINDS[kind][0]
        items = (value.values() if type(value) is dict else
                 value if type(value) is list else ())
        if type(value) is not json_type or any(type(v) is not str for v in items):
            raise RuleError(f"{name} rule data: '{key}' must be "
                            f"{_JSON_NAMES[json_type]}")
        present[f.name] = value
    home = present.get("target" if cls is SubstRule else "context")
    ctx = Context(()) if home is None else _parsed(parse_context_tokens, home, sig)
    return cls(**{f: _KINDS[_FIELDS[f][1]][2](value, sig, ctx)
                  for f, value in present.items()})


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of rule data; `json` alone would keep the last of two
    equal keys."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise PhlError(f"bad rule data in derivation: key '{key}' given twice")
        out[key] = value
    return out


def parse_derivation(text: str, sig: Signature) -> Derivation:
    """Parse the indented `SEQUENT  [rule NAME {data}]` tree format: each
    level of depth is indented by two spaces."""
    entries = []
    for number, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        margin = len(raw) - len(raw.lstrip(" "))
        if margin % 2 or raw[margin].isspace():
            raise PhlError(f"bad indentation in derivation line {number}: "
                           "indent by two spaces per level")
        indent = margin // 2
        line = raw.strip()
        m = line.rfind("[rule ")
        if m < 0:
            raise PhlError(f"derivation line missing rule tag: {line!r}")
        seq_text = line[:m].strip()
        tag = line[m + len("[rule "):].rstrip()
        if not tag.endswith("]"):
            raise PhlError(f"unterminated rule tag: {line!r}")
        name, _, payload = tag[:-1].partition(" ")
        try:
            data = (json.loads(payload, object_pairs_hook=_json_object)
                    if payload.strip() else {})
        except json.JSONDecodeError as e:
            raise PhlError(f"bad rule data in derivation: {e}") from None
        seq = parse_sequent(seq_text, sig)
        entries.append((indent, seq, name, data))
    if not entries:
        raise PhlError("empty derivation")

    def build(i: int, indent: int):
        ind, seq, name, data = entries[i]
        if ind != indent:
            raise PhlError("bad indentation in derivation")
        instance = _instance_from_data(name, data, sig)
        children = []
        j = i + 1
        while j < len(entries) and entries[j][0] > indent:
            child, j = build(j, indent + 1)   # raises unless one deeper
            children.append(child)
        return Derivation(seq, instance, tuple(children)), j

    root, end = build(0, entries[0][0])
    if end != len(entries):
        raise PhlError("multiple roots in derivation")
    return root
