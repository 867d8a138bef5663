"""Abstract syntax for finitary partial Horn theories, plus the text DSL.

Sorts are plain strings.  Terms, formulas, sequents and theories are frozen
dataclasses; structural equality is ordered (conjunctions are ordered lists,
permutation-equivalence is a prover fact, not syntactic identity).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache


class PhlError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PhlError):
    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = f" at line {line}:{col}" if line is not None else ""
        super().__init__(f"{message}{where}")


class WellFormedError(PhlError):
    pass


class SubstitutionError(PhlError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    message: str

    def __str__(self):
        return self.message


# ---------------------------------------------------------------------------
# signatures

@dataclass(frozen=True)
class FuncDecl:
    name: str
    arg_sorts: tuple[str, ...]
    result: str


@dataclass(frozen=True)
class RelDecl:
    name: str
    arg_sorts: tuple[str, ...]


@dataclass(frozen=True)
class Signature:
    sorts: tuple[str, ...] = ()
    functions: tuple[FuncDecl, ...] = ()
    relations: tuple[RelDecl, ...] = ()

    @cached_property
    def _funcs(self) -> dict[str, FuncDecl]:
        return {f.name: f for f in self.functions}

    @cached_property
    def _rels(self) -> dict[str, RelDecl]:
        return {r.name: r for r in self.relations}

    def function(self, name: str) -> FuncDecl | None:
        return self._funcs.get(name)

    def relation(self, name: str) -> RelDecl | None:
        return self._rels.get(name)

    def has_sort(self, s: str) -> bool:
        return s in self.sorts


# ---------------------------------------------------------------------------
# terms and formulas

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: tuple["Term", ...] = ()


Term = Var | App


@dataclass(frozen=True)
class RelApp:
    rel: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Truth:
    pass


@dataclass(frozen=True)
class Conj:
    parts: tuple["Formula", ...]


Formula = RelApp | Eq | Truth | Conj

TRUE = Truth()


def defined(t: Term) -> Eq:
    """The definedness assertion for a term, sugar for t = t."""
    return Eq(t, t)


def is_definedness(f: Formula) -> bool:
    return isinstance(f, Eq) and f.lhs == f.rhs


def conj(parts) -> Formula:
    """Smart conjunction: empty is truth, singletons collapse."""
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return Conj(parts)


def conjuncts(f: Formula) -> tuple[Formula, ...]:
    """Top-level conjuncts of a formula (truth has none)."""
    if isinstance(f, Truth):
        return ()
    if isinstance(f, Conj):
        return f.parts
    return (f,)


def atoms(f: Formula) -> tuple[Formula, ...]:
    """All atomic subformulas, recursively flattening conjunctions."""
    if isinstance(f, Truth):
        return ()
    if isinstance(f, Conj):
        out: list[Formula] = []
        for p in f.parts:
            out.extend(atoms(p))
        return tuple(out)
    return (f,)


@dataclass(frozen=True)
class Context:
    vars: tuple[tuple[str, str], ...] = ()  # (name, sort)

    @cached_property
    def _sorts(self) -> dict[str, str]:
        return dict(self.vars)

    def sort_of(self, name: str) -> str | None:
        return self._sorts.get(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.vars)

    def __len__(self):
        return len(self.vars)


@dataclass(frozen=True)
class Sequent:
    context: Context
    premise: Formula
    conclusion: Formula


@dataclass(frozen=True)
class NamedAxiom:
    name: str
    sequent: Sequent


@dataclass(frozen=True)
class Theory:
    name: str
    signature: Signature
    axioms: tuple[NamedAxiom, ...] = ()

    def axiom(self, name: str) -> NamedAxiom | None:
        for ax in self.axioms:
            if ax.name == name:
                return ax
        return None


def subterms(t: Term):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + max((term_depth(a) for a in t.args), default=0)


def free_vars(obj) -> set[str]:
    if isinstance(obj, Var):
        return {obj.name}
    if isinstance(obj, App):
        out: set[str] = set()
        for a in obj.args:
            out |= free_vars(a)
        return out
    if isinstance(obj, RelApp):
        out = set()
        for a in obj.args:
            out |= free_vars(a)
        return out
    if isinstance(obj, Eq):
        return free_vars(obj.lhs) | free_vars(obj.rhs)
    if isinstance(obj, Truth):
        return set()
    if isinstance(obj, Conj):
        out = set()
        for p in obj.parts:
            out |= free_vars(p)
        return out
    raise TypeError(f"not a term or formula: {obj!r}")


# ---------------------------------------------------------------------------
# well-formedness

def infer_sort(sig: Signature, ctx: Context, t: Term) -> str:
    """Sort of a term, raising WellFormedError on any sorting failure."""
    if isinstance(t, Var):
        s = ctx.sort_of(t.name)
        if s is None:
            raise WellFormedError(f"unknown variable '{t.name}'")
        return s
    decl = sig.function(t.func)
    if decl is None:
        raise WellFormedError(f"unknown function symbol '{t.func}'")
    if len(decl.arg_sorts) != len(t.args):
        raise WellFormedError(
            f"'{t.func}' expects {len(decl.arg_sorts)} arguments, got {len(t.args)}")
    for want, arg in zip(decl.arg_sorts, t.args):
        got = infer_sort(sig, ctx, arg)
        if got != want:
            raise WellFormedError(
                f"argument of '{t.func}' has sort {got}, expected {want}")
    return decl.result


def _check_formula(sig: Signature, ctx: Context, f: Formula, out: list[Diagnostic]):
    if isinstance(f, Truth):
        return
    if isinstance(f, Conj):
        for p in f.parts:
            _check_formula(sig, ctx, p, out)
        return
    if isinstance(f, Eq):
        try:
            ls = infer_sort(sig, ctx, f.lhs)
            rs = infer_sort(sig, ctx, f.rhs)
            if ls != rs:
                out.append(Diagnostic(f"equation between sorts {ls} and {rs}"))
        except WellFormedError as e:
            out.append(Diagnostic(str(e)))
        return
    if isinstance(f, RelApp):
        decl = sig.relation(f.rel)
        if decl is None:
            out.append(Diagnostic(f"unknown relation symbol '{f.rel}'"))
            return
        if len(decl.arg_sorts) != len(f.args):
            out.append(Diagnostic(
                f"'{f.rel}' expects {len(decl.arg_sorts)} arguments, got {len(f.args)}"))
            return
        for want, arg in zip(decl.arg_sorts, f.args):
            try:
                got = infer_sort(sig, ctx, arg)
                if got != want:
                    out.append(Diagnostic(
                        f"argument of '{f.rel}' has sort {got}, expected {want}"))
            except WellFormedError as e:
                out.append(Diagnostic(str(e)))
        return
    out.append(Diagnostic(f"not a formula: {f!r}"))


def _check_context(sig: Signature, ctx: Context, out: list[Diagnostic]):
    seen = set()
    for name, sort in ctx.vars:
        if name in seen:
            out.append(Diagnostic(f"duplicate context variable '{name}'"))
        seen.add(name)
        if not sig.has_sort(sort):
            out.append(Diagnostic(f"unknown sort '{sort}' for variable '{name}'"))
        if sig.function(name) or sig.relation(name):
            out.append(Diagnostic(f"variable '{name}' shadows a symbol"))


def _check_signature(sig: Signature, out: list[Diagnostic]):
    seen = set()
    for s in sig.sorts:
        if s in seen:
            out.append(Diagnostic(f"duplicate sort '{s}'"))
        seen.add(s)
    names = set()
    for d in sig.functions + sig.relations:
        if d.name in names:
            out.append(Diagnostic(f"duplicate symbol '{d.name}'"))
        names.add(d.name)
        for s in d.arg_sorts:
            if s not in sig.sorts:
                out.append(Diagnostic(f"unknown sort '{s}' in arity of '{d.name}'"))
        if isinstance(d, FuncDecl) and d.result not in sig.sorts:
            out.append(Diagnostic(f"unknown result sort '{d.result}' of '{d.name}'"))


def well_formed(obj, signature: Signature | None = None,
                context: Context | None = None) -> list[Diagnostic]:
    """Diagnostics for a theory, sequent, formula or term; empty means well-formed."""
    out: list[Diagnostic] = []
    ctx = context or Context()
    if isinstance(obj, Theory):
        _check_signature(obj.signature, out)
        seen = set()
        for ax in obj.axioms:
            if ax.name in seen:
                out.append(Diagnostic(f"duplicate axiom name '{ax.name}'"))
            seen.add(ax.name)
            out.extend(well_formed(ax.sequent, obj.signature))
        return out
    if signature is None:
        raise TypeError("signature required for non-theory inputs")
    if isinstance(obj, Sequent):
        _check_context(signature, obj.context, out)
        _check_formula(signature, obj.context, obj.premise, out)
        _check_formula(signature, obj.context, obj.conclusion, out)
        return out
    if isinstance(obj, (RelApp, Eq, Truth, Conj)):
        _check_context(signature, ctx, out)
        _check_formula(signature, ctx, obj, out)
        return out
    if isinstance(obj, (Var, App)):
        _check_context(signature, ctx, out)
        try:
            infer_sort(signature, ctx, obj)
        except WellFormedError as e:
            out.append(Diagnostic(str(e)))
        return out
    raise TypeError(f"cannot check {type(obj).__name__}")


# ---------------------------------------------------------------------------
# substitution

def subst_term(t: Term, assignment: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return assignment[t.name]
    return App(t.func, tuple(subst_term(a, assignment) for a in t.args))


def subst_formula(f: Formula, assignment: dict[str, Term]) -> Formula:
    if isinstance(f, Truth):
        return f
    if isinstance(f, Conj):
        return Conj(tuple(subst_formula(p, assignment) for p in f.parts))
    if isinstance(f, Eq):
        return Eq(subst_term(f.lhs, assignment), subst_term(f.rhs, assignment))
    return RelApp(f.rel, tuple(subst_term(a, assignment) for a in f.args))


def substitute(sig: Signature, src_ctx: Context, tgt_ctx: Context,
               assignment: dict[str, Term], obj):
    """Simultaneous substitution of terms for the source context variables.

    The assignment must cover exactly the source variables, and every
    replacement term must sort-check in the target context at the variable's
    sort.
    """
    missing = set(src_ctx.names) - set(assignment)
    if missing:
        raise SubstitutionError(f"missing assignment for {sorted(missing)}")
    extra = set(assignment) - set(src_ctx.names)
    if extra:
        raise SubstitutionError(f"assignment for non-context variables {sorted(extra)}")
    for name, sort in src_ctx.vars:
        try:
            got = infer_sort(sig, tgt_ctx, assignment[name])
        except WellFormedError as e:
            raise SubstitutionError(str(e)) from None
        if got != sort:
            raise SubstitutionError(
                f"replacement for '{name}' has sort {got}, expected {sort}")
    if isinstance(obj, (Var, App)):
        return subst_term(obj, assignment)
    return subst_formula(obj, assignment)


# ---------------------------------------------------------------------------
# flat clauses

# Atom kinds.  An atom is a 4-tuple (kind, symbol, argument slots, out slot):
# (FUN, f, xs, y) is f(xs) = y, (REL, R, xs, None) is R(xs) and
# (EQ, None, (x, y), None) is x = y.  A TERM atom is a FUN atom that opens a
# top-level term of the conclusion.
FUN, TERM, REL, EQ = "fun", "term", "rel", "eq"


@dataclass(frozen=True)
class Clause:
    """A sequent as conjunctions of flat atoms over numbered slots, one slot
    per distinct subterm; slot i holds the value of terms[i], and the first
    slots are the context variables.

    Under Kleene-strict semantics a formula holds exactly when every slot
    its atoms define is defined and every atom holds.  The premise defines
    each subterm once.  The conclusion defines the subterms of each
    top-level term (an equation side or a relation argument) afresh, so that
    it reads no slot the premise filled and can be written into an e-graph
    term by term.
    """
    terms: tuple[Term, ...]
    premise: tuple[tuple, ...]
    conclusion: tuple[tuple, ...]


@lru_cache(maxsize=4096)
def flatten(names: tuple[str, ...], premise: Formula,
            conclusion: Formula = TRUE) -> Clause:
    """The flat clause of `premise |- conclusion` over the given variables."""
    slots: dict[Term, int] = {Var(n): i for i, n in enumerate(names)}

    def flat(f: Formula, fresh: bool) -> tuple[tuple, ...]:
        out: list[tuple] = []
        done: set[Term] = set()   # subterms defined in the current scope

        def define(t: Term) -> int:
            if isinstance(t, App) and t not in done:
                args = tuple(define(a) for a in t.args)
                kind = TERM if fresh and not done else FUN
                done.add(t)
                out.append((kind, t.func, args, slots.setdefault(t, len(slots))))
            return slots[t]

        def top(t: Term) -> int:
            if fresh:
                done.clear()
            return define(t)

        for a in atoms(f):
            if isinstance(a, Eq):
                x = top(a.lhs)
                y = x if a.rhs == a.lhs else top(a.rhs)
                out.append((EQ, None, (x, y), None))
            else:
                out.append((REL, a.rel, tuple(top(t) for t in a.args), None))
        return tuple(out)

    prem, concl = flat(premise, False), flat(conclusion, True)
    return Clause(tuple(slots), prem, concl)


# ---------------------------------------------------------------------------
# printing

def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.func
    return f"{t.func}({', '.join(print_term(a) for a in t.args)})"


def print_formula(f: Formula, nested: bool = False) -> str:
    if isinstance(f, Truth) or f == Conj(()):
        return "true"
    if isinstance(f, Eq):
        if f.lhs == f.rhs:
            return f"def({print_term(f.lhs)})"
        return f"{print_term(f.lhs)} = {print_term(f.rhs)}"
    if isinstance(f, RelApp):
        return f"{f.rel}({', '.join(print_term(a) for a in f.args)})"
    inner = " /\\ ".join(print_formula(p, nested=True) for p in f.parts)
    return f"({inner})" if nested else inner


def print_context(ctx: Context) -> str:
    return "[" + ", ".join(f"{n}:{s}" for n, s in ctx.vars) + "]"


def print_sequent(s: Sequent) -> str:
    return (f"{print_context(s.context)} {print_formula(s.premise)}"
            f" |- {print_formula(s.conclusion)}")


def print_theory(t: Theory) -> str:
    lines = [f"theory {t.name}"]
    if t.signature.sorts:
        lines.append("sorts: " + " ".join(t.signature.sorts) + ";")
    for f in t.signature.functions:
        args = " ".join(f.arg_sorts)
        lines.append(f"fun {f.name} :{' ' + args if args else ''} -> {f.result};")
    for r in t.signature.relations:
        lines.append(f"rel {r.name} : {' '.join(r.arg_sorts)};")
    for ax in t.axioms:
        lines.append(f"axiom {ax.name} {print_sequent(ax.sequent)};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<darrow>=>)
  | (?P<turnstile>\|-)
  | (?P<and>/\\)
  | (?P<conekw>product-cone|pullback-cone)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<number>[0-9]+)
  | (?P<star>\*)
  | (?P<punct>[:;,()\[\]=.])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


class TokenStream:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def at_word(self, word: str) -> bool:
        return self.at("ident", word)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def expect_word(self, word: str) -> Token:
        return self.expect("ident", word)

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


def _parse_sort_name(ts: TokenStream) -> str:
    if ts.at("star"):
        ts.next()
        return "*"
    return ts.expect("ident").text


def parse_arrow_header(ts: TokenStream, keyword: str) -> tuple[str, str, str]:
    """NAME, SRC and TGT from a `KEYWORD NAME : SRC -> TGT` header."""
    ts.expect_word(keyword)
    name = ts.expect("ident").text
    ts.expect("punct", ":")
    src = ts.expect("ident").text
    ts.expect("arrow")
    return name, src, ts.expect("ident").text


def parse_context_tokens(ts: TokenStream, sig: Signature) -> Context:
    """Parse `[x:s, y:s]`; sorts may be omitted when the signature is single-sorted."""
    ts.expect("punct", "[")
    entries: list[tuple[str, str]] = []
    while not ts.at("punct", "]"):
        name_tok = ts.expect("ident")
        if ts.at("punct", ":"):
            ts.next()
            sort = _parse_sort_name(ts)
        else:
            if len(sig.sorts) != 1:
                raise ParseError("context entry needs an explicit sort",
                                 name_tok.line, name_tok.col)
            sort = sig.sorts[0]
        entries.append((name_tok.text, sort))
        if ts.at("punct", ","):
            ts.next()
    ts.expect("punct", "]")
    return Context(tuple(entries))


def _term_sort(sig: Signature, ctx: Context, t: Term) -> str | None:
    if isinstance(t, Var):
        return ctx.sort_of(t.name)
    decl = sig.function(t.func)
    return decl.result if decl is not None else None


def _check_arity_at(ts: TokenStream, sig: Signature, ctx: Context,
                    tok: Token, name: str, arg_sorts, args):
    if len(arg_sorts) != len(args):
        raise ParseError(
            f"'{name}' expects {len(arg_sorts)} arguments, got {len(args)}",
            tok.line, tok.col)
    for want, arg in zip(arg_sorts, args):
        got = _term_sort(sig, ctx, arg)
        if got is None:
            raise ParseError(
                f"relation '{arg.func}' used inside a term", tok.line, tok.col)
        if got != want:
            raise ParseError(
                f"argument of '{name}' has sort {got}, expected {want}",
                tok.line, tok.col)


def _parse_term_tokens(ts: TokenStream, sig: Signature, ctx: Context) -> Term:
    tok = ts.expect("ident")
    name = tok.text
    if ts.at("punct", "("):
        ts.next()
        args: list[Term] = []
        while not ts.at("punct", ")"):
            args.append(_parse_term_tokens(ts, sig, ctx))
            if ts.at("punct", ","):
                ts.next()
        ts.expect("punct", ")")
        decl = sig.function(name)
        rdecl = sig.relation(name)
        if decl is None and rdecl is None:
            raise ParseError(f"unknown symbol '{name}'", tok.line, tok.col)
        _check_arity_at(ts, sig, ctx, tok, name,
                        (decl or rdecl).arg_sorts, args)
        return App(name, tuple(args))
    if ctx.sort_of(name) is not None:
        return Var(name)
    decl = sig.function(name)
    if decl is not None and not decl.arg_sorts:
        return App(name, ())
    raise ParseError(f"unknown variable or constant '{name}'", tok.line, tok.col)


def _parse_atom_tokens(ts: TokenStream, sig: Signature, ctx: Context) -> Formula:
    if ts.at_word("true"):
        ts.next()
        return TRUE
    if ts.at_word("def"):
        tok = ts.next()
        if ts.at("punct", "("):
            ts.next()
            t = _parse_term_tokens(ts, sig, ctx)
            ts.expect("punct", ")")
            if _term_sort(sig, ctx, t) is None:
                raise ParseError("def applies to terms, not relations",
                                 tok.line, tok.col)
            return defined(t)
        raise ParseError("expected '(' after def", tok.line, tok.col)
    if ts.at("punct", "("):
        ts.next()
        f = _parse_formula_tokens(ts, sig, ctx)
        ts.expect("punct", ")")
        return f
    tok = ts.peek()
    t = _parse_term_tokens(ts, sig, ctx)
    if isinstance(t, App) and sig.relation(t.func) is not None:
        return RelApp(t.func, t.args)
    if ts.at("punct", "="):
        eq_tok = ts.next()
        rhs = _parse_term_tokens(ts, sig, ctx)
        ls, rs = _term_sort(sig, ctx, t), _term_sort(sig, ctx, rhs)
        if rs is None:
            raise ParseError("relation symbol on the right of '='",
                             eq_tok.line, eq_tok.col)
        if ls != rs:
            raise ParseError(f"equation between sorts {ls} and {rs}",
                             eq_tok.line, eq_tok.col)
        return Eq(t, rhs)
    raise ParseError("expected '=' after term", tok.line, tok.col)


def _parse_formula_tokens(ts: TokenStream, sig: Signature, ctx: Context) -> Formula:
    parts = [_parse_atom_tokens(ts, sig, ctx)]
    while ts.at("and"):
        ts.next()
        parts.append(_parse_atom_tokens(ts, sig, ctx))
    return conj(parts)


def _parse_sequent_tokens(ts: TokenStream, sig: Signature) -> Sequent:
    ctx = parse_context_tokens(ts, sig)
    if ts.at("punct", "."):  # optional dot between context and formula
        ts.next()
    premise = _parse_formula_tokens(ts, sig, ctx)
    ts.expect("turnstile")
    conclusion = _parse_formula_tokens(ts, sig, ctx)
    return Sequent(ctx, premise, conclusion)


def _validated(kind: str, obj, sig: Signature, ctx: Context | None = None):
    diags = well_formed(obj, sig, ctx)
    if diags:
        raise WellFormedError(f"ill-formed {kind}: " + "; ".join(map(str, diags)))
    return obj


def parse_sequent(text: str, sig: Signature) -> Sequent:
    ts = TokenStream(text)
    seq = _parse_sequent_tokens(ts, sig)
    ts.expect("eof")
    return _validated("sequent", seq, sig)


def parse_formula_in_context(text: str, sig: Signature) -> tuple[Context, Formula]:
    """Parse `[CTX] FORMULA` (an optional dot may follow the context)."""
    ts = TokenStream(text)
    ctx = parse_context_tokens(ts, sig)
    if ts.at("punct", "."):
        ts.next()
    f = _parse_formula_tokens(ts, sig, ctx) if not ts.at("eof") else TRUE
    ts.expect("eof")
    _validated("formula", f, sig, ctx)
    return ctx, f


def parse_theory(text: str) -> Theory:
    ts = TokenStream(text)
    ts.expect_word("theory")
    name = ts.expect("ident").text
    sorts: list[str] = []
    functions: list[FuncDecl] = []
    relations: list[RelDecl] = []
    axioms: list[NamedAxiom] = []
    while not ts.at("eof"):
        if ts.at_word("sorts"):
            ts.next()
            ts.expect("punct", ":")
            while ts.at("ident") or ts.at("star"):
                if ts.at_word("fun") or ts.at_word("rel") or ts.at_word("axiom"):
                    break
                sorts.append(_parse_sort_name(ts))
            if ts.at("punct", ";"):
                ts.next()
        elif ts.at_word("fun"):
            ts.next()
            fname = ts.expect("ident").text
            ts.expect("punct", ":")
            args: list[str] = []
            while not ts.at("arrow"):
                args.append(_parse_sort_name(ts))
            ts.expect("arrow")
            result = _parse_sort_name(ts)
            ts.expect("punct", ";")
            functions.append(FuncDecl(fname, tuple(args), result))
        elif ts.at_word("rel"):
            ts.next()
            rname = ts.expect("ident").text
            ts.expect("punct", ":")
            args = []
            while not ts.at("punct", ";"):
                args.append(_parse_sort_name(ts))
            ts.expect("punct", ";")
            relations.append(RelDecl(rname, tuple(args)))
        elif ts.at_word("axiom"):
            ts.next()
            aname = ts.expect("ident").text
            sig = Signature(tuple(sorts), tuple(functions), tuple(relations))
            seq = _parse_sequent_tokens(ts, sig)
            ts.expect("punct", ";")
            axioms.append(NamedAxiom(aname, seq))
        else:
            ts.error(f"unexpected {ts.peek().text!r} in theory body")
    theory = Theory(name, Signature(tuple(sorts), tuple(functions), tuple(relations)),
                    tuple(axioms))
    diags = well_formed(theory)
    if diags:
        raise WellFormedError(f"ill-formed theory '{name}': "
                              + "; ".join(map(str, diags)))
    return theory
