"""Finite partial structures: interpretation, validity, homomorphisms,
products, finite-stage chain colimits, and bounded model enumeration.

Structures are immutable by convention after construction; every operation
here is pure.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

from .syntax import (
    EQ, REL, App, Context, Eq, FuncDecl, PhlError, Sequent, Signature, Theory,
    TokenStream, Truth, Var, _parse_sort_name, atoms, defined, flatten,
    parse_arrow_header,
)

UNDEF = None


class SemanticsError(PhlError):
    pass


class ElementView(NamedTuple):
    """A structure's elements numbered by sort in signature order, then by
    carrier order, and its table entries as symbol and element numbers, a
    function's value last."""
    elems: tuple[tuple[str, str], ...]      # (sort, element) by number
    funcs: tuple[tuple[str, tuple[int, ...]], ...]
    rels: tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class PartialStructure:
    name: str
    signature: Signature
    carriers: dict[str, tuple[str, ...]]
    funcs: dict[str, dict[tuple[str, ...], str]]
    rels: dict[str, frozenset[tuple[str, ...]]]

    @cached_property
    def view(self) -> ElementView:
        sig = self.signature
        elems = tuple((s, a) for s in sig.sorts for a in self.carrier(s))
        number = {e: i for i, e in enumerate(elems)}
        funcs = tuple((f.name, tuple(map(number.get, zip((*f.arg_sorts, f.result),
                                                         (*args, val)))))
                      for f in sig.functions for args, val in self.func_table(f.name).items())
        rels = tuple((r.name, tuple(map(number.get, zip(r.arg_sorts, args))))
                     for r in sig.relations for args in self.rel_table(r.name))
        return ElementView(elems, funcs, rels)

    def carrier(self, sort: str) -> tuple[str, ...]:
        return self.carriers.get(sort, ())

    def func_table(self, name: str) -> dict[tuple[str, ...], str]:
        return self.funcs.get(name, {})

    def rel_table(self, name: str) -> frozenset[tuple[str, ...]]:
        return self.rels.get(name, frozenset())

    def size(self) -> int:
        return sum(len(c) for c in self.carriers.values())


def make_structure(name: str, sig: Signature, carriers, funcs=None,
                   rels=None) -> PartialStructure:
    problems = [f"carrier for unknown sort '{s}'"
                for s in carriers if s not in sig.sorts]
    carriers = {s: tuple(carriers.get(s, ())) for s in sig.sorts}
    funcs = {f: dict(t) for f, t in (funcs or {}).items()}
    rels = {r: frozenset(tuple(x) for x in t) for r, t in (rels or {}).items()}
    m = PartialStructure(name, sig, carriers, funcs, rels)
    problems += structure_diagnostics(m)
    if problems:
        raise SemanticsError(f"bad structure '{name}': " + "; ".join(problems))
    return m


def structure_diagnostics(m: PartialStructure) -> list[str]:
    out = []
    elems = {s: set(c) for s, c in m.carriers.items()}
    for s, c in m.carriers.items():
        if len(set(c)) != len(c):
            out.append(f"duplicate elements in carrier {s}")
    for fname, table in m.funcs.items():
        decl = m.signature.function(fname)
        if decl is None:
            out.append(f"table for unknown function '{fname}'")
            continue
        for args, val in table.items():
            if len(args) != len(decl.arg_sorts):
                out.append(f"bad arity in table of '{fname}'")
                continue
            for a, s in zip(args, decl.arg_sorts):
                if a not in elems.get(s, ()):
                    out.append(f"'{fname}' entry uses unknown element '{a}'")
            if val not in elems.get(decl.result, ()):
                out.append(f"'{fname}' entry has unknown value '{val}'")
    for rname, table in m.rels.items():
        decl = m.signature.relation(rname)
        if decl is None:
            out.append(f"table for unknown relation '{rname}'")
            continue
        for args in table:
            if len(args) != len(decl.arg_sorts):
                out.append(f"bad arity in table of '{rname}'")
                continue
            for a, s in zip(args, decl.arg_sorts):
                if a not in elems.get(s, ()):
                    out.append(f"'{rname}' entry uses unknown element '{a}'")
    return out


# ---------------------------------------------------------------------------
# interpretation

_UNK = object()  # value of a slot that depends on an unassigned cell
_NO_HOLES: frozenset = frozenset()


@lru_cache(maxsize=1024)
def _reader(atoms):
    """A conjunction of flat atoms as a Python function
    `read(vals, funcs, rels, holes, touched)`: its three-valued truth over
    partial tables.

    `vals` holds the variable slots and receives every other slot.  A
    function table maps argument tuples to values (a missing key is
    undefined), a relation table holds its true tuples, and `holes` is the
    set of cells `(symbol, args)` not assigned yet; every hole read is
    noted in `touched`.  `read` returns False as soon as some atom is
    definitely false, None when the answer waits on a hole, else True.  A
    slot that depends on a hole holds `_UNK`, and an atom over such a slot
    neither fails nor touches a cell.

    Slot i is the local `v{i}`; only the slots written by earlier atoms
    can hold `_UNK`.  Symbol names enter the source only as literals."""
    written: set[int] = set()
    tables: dict[str, str] = {}
    loads: list[str] = []
    body: list[str] = []
    for kind, name, args, out in atoms:
        for a in args:
            if a not in written and f"v{a} = vals[{a}]" not in loads:
                loads.append(f"v{a} = vals[{a}]")
        maybe = [f"v{a}" for a in dict.fromkeys(args) if a in written]
        sure = [f"{v} is not U" for v in maybe]
        if kind == EQ:
            if args[0] != args[1]:
                test = " and ".join([f"v{args[0]} != v{args[1]}", *sure])
                body.append(f"if {test}: return False")
            continue
        if name not in tables:
            tables[name] = f"t{len(tables)}"
            loads.append(f"{tables[name]} = {'rels' if kind == REL else 'funcs'}"
                         f"[{name!r}]")
        key = _key(args)
        miss = [f"    c = ({name!r}, {key})", "    if c not in holes: return False",
                "    touched.append(c)", "    known = None"]
        if kind == REL:
            body += [f"if {' and '.join([*sure, f'{key} not in {tables[name]}'])}:",
                     *miss]
            continue
        get = f"{tables[name]}.get({key})"
        if maybe:
            get = f"U if {' or '.join(f'{v} is U' for v in maybe)} else {get}"
        body += [f"v{out} = {get}", f"if v{out} is None:", *miss, f"    v{out} = U",
                 f"vals[{out}] = v{out}"]
        written.add(out)
    if any(kind != EQ for kind, *_ in atoms):
        loads.append("known = True")
        body.append("return known")
    else:
        body.append("return True")
    source = ("def make(U):\n"
              "    def read(vals, funcs, rels, holes, touched):\n"
              + "".join(f"        {line}\n" for line in loads + body)
              + "    return read\n")
    namespace: dict = {}
    exec(compile(source, "<phl reader>", "exec"), namespace)
    return namespace["make"](_UNK)


def _key(slots) -> str:
    """Source of the tuple of the given slots' locals."""
    return "(" + "".join(f"v{a}, " for a in slots) + ")"


def _tables(m: PartialStructure):
    sig = m.signature
    return ({f.name: m.func_table(f.name) for f in sig.functions},
            {r.name: m.rel_table(r.name) for r in sig.relations})


def _slots(clause, tup) -> list:
    return [*tup, *[None] * (len(clause.terms) - len(tup))]


def interp_term(m: PartialStructure, ctx: Context, term, tup) -> str | None:
    """Kleene-strict evaluation; UNDEF (None) when any stage is undefined."""
    clause = flatten(ctx.names, defined(term))
    vals = _slots(clause, tup)
    if not _reader(clause.premise)(vals, *_tables(m), _NO_HOLES, None):
        return UNDEF
    return vals[clause.terms.index(term)]


def formula_holds_at(m: PartialStructure, ctx: Context, f, tup) -> bool:
    clause = flatten(ctx.names, f)
    return bool(_reader(clause.premise)(_slots(clause, tup), *_tables(m),
                                        _NO_HOLES, None))


def context_tuples(m: PartialStructure, ctx: Context):
    return itertools.product(*(m.carrier(s) for _, s in ctx.vars))


def interp_formula(m: PartialStructure, ctx: Context, f) -> set[tuple[str, ...]]:
    clause = flatten(ctx.names, f)
    read = _reader(clause.premise)
    funcs, rels = _tables(m)
    return {tup for tup in context_tuples(m, ctx)
            if read(_slots(clause, tup), funcs, rels, _NO_HOLES, None)}


@dataclass(frozen=True)
class HoldsResult:
    ok: bool
    witness: tuple[str, ...] | None = None

    def __bool__(self):
        return self.ok


_HOLDS = HoldsResult(True)


@lru_cache(maxsize=1024)
def _violation(clause, sorts: tuple[str, ...]):
    """A sequent's flat clause, its context variables of the given sorts, as
    a Python function `run(carriers, funcs, rels)` over a structure's
    carriers and tables by name (a missing one empty): the first context
    tuple, in `context_tuples` order, where the premise holds and the
    conclusion does not, or None.

    One `for` per context variable, in context order, binds it to the
    elements of its carrier.  Each premise atom runs in the loop that binds
    the last variable it depends on, and an undefined value or a false atom
    goes on to that loop's next element (before every loop, returns None).
    The conclusion's atoms run in the innermost loop, and the first that
    fails returns the current tuple.  The conclusion defines once more every
    slot it reads, so it never relies on the premise's copy of a slot.

    Slot i is the local `v{i}`; sort and symbol names enter the source only
    as literals."""
    nvars = len(sorts)
    level = {i: i + 1 for i in range(nvars)}    # slot -> loop that binds it
    loads = [f"c{i} = carriers.get({s!r}, ())" for i, s in enumerate(sorts)]
    tables: dict[tuple[str, str], str] = {}

    def check(kind, name, args, out) -> list[str]:
        """Source that reads one atom and ends in its failure test."""
        if kind == EQ:
            return [f"v{args[0]} != v{args[1]}"]
        source, empty = ("rels", "()") if kind == REL else ("funcs", "{}")
        t = tables.get((source, name))
        if t is None:
            t = tables[source, name] = f"t{len(tables)}"
            loads.append(f"{t} = {source}.get({name!r}, {empty})")
        if kind == REL:
            return [f"{_key(args)} not in {t}"]
        return [f"v{out} = {t}.get({_key(args)})", f"v{out} is None"]

    body: list[list[str]] = [[] for _ in range(nvars + 1)]
    for kind, name, args, out in clause.premise:
        if kind == EQ and args[0] == args[1]:
            continue
        at = max((level[a] for a in args), default=0)
        if out is not None:
            level[out] = at
        *setup, test = check(kind, name, args, out)
        body[at] += [*setup, f"if {test}: {'continue' if at else 'return None'}"]
    witness, last, redone = _key(range(nvars)), [], set()
    for kind, name, args, out in clause.conclusion:
        if kind == EQ and args[0] == args[1] or out in redone:
            continue
        if out is not None:
            redone.add(out)
        *setup, test = check(kind, name, args, out)
        last += [*setup, f"if {test}: return {witness}"]
    lines = []
    if last:    # else no atom can fail
        body[nvars] += last
        lines += [*loads, *body[0]]
        for i in range(nvars):
            lines.append("    " * i + f"for v{i} in c{i}:")
            lines += ["    " * (i + 1) + line for line in body[i + 1]]
    source = ("def run(carriers, funcs, rels):\n"
              + "".join(f"    {line}\n" for line in lines) + "    return None\n")
    namespace: dict = {}
    exec(compile(source, "<phl validity>", "exec"), namespace)
    return namespace["run"]


def holds(m: PartialStructure, seq: Sequent) -> HoldsResult:
    """Validity of a sequent.  On failure the witness is the first context
    tuple in `context_tuples` order (carrier order, the last variable
    fastest) where the premise holds and the conclusion does not.

    The sequent's compiled check is cached on the sequent object, so a
    repeated call neither flattens nor hashes its formulas."""
    run = seq.__dict__.get("_violation")
    if run is None:
        run = _violation(flatten(seq.context.names, seq.premise, seq.conclusion),
                         tuple(s for _, s in seq.context.vars))
        object.__setattr__(seq, "_violation", run)
    witness = run(m.carriers, m.funcs, m.rels)
    return _HOLDS if witness is None else HoldsResult(False, witness)


@dataclass(frozen=True)
class ModelReport:
    ok: bool
    violations: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __bool__(self):
        return self.ok


def is_model(m: PartialStructure, theory: Theory) -> ModelReport:
    bad = []
    for ax in theory.axioms:
        r = holds(m, ax.sequent)
        if not r.ok:
            bad.append((ax.name, r.witness))
    return ModelReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# homomorphisms

@dataclass(frozen=True)
class Homomorphism:
    name: str
    source: PartialStructure
    target: PartialStructure
    maps: dict[str, dict[str, str]]


def check_hom(h: Homomorphism) -> bool:
    """Whether h maps each source carrier and preserves every table entry:
    the hom search with every element pinned to its image."""
    m = h.source
    maps = {s: h.maps.get(s, {}) for s in m.signature.sorts}
    if any(set(t) != set(m.carrier(s)) for s, t in maps.items()):
        return False
    pinned = {s: {a: {b} for a, b in t.items()} for s, t in maps.items()}
    return exists_hom(m, h.target, restrict=pinned) is not None


def identity_hom(m: PartialStructure) -> Homomorphism:
    return Homomorphism("id", m, m, {s: {a: a for a in m.carrier(s)}
                                     for s in m.signature.sorts})


def compose_homs(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    if f.target is not g.source and f.target != g.source:
        raise SemanticsError("homomorphisms not composable")
    maps = {s: {a: g.maps[s][f.maps[s][a]] for a in f.source.carrier(s)}
            for s in f.source.signature.sorts}
    return Homomorphism(f"{g.name}.{f.name}", f.source, g.target, maps)


def iter_homs(m: PartialStructure, n: PartialStructure,
              restrict: dict[str, dict[str, set[str]]] | None = None,
              injective: bool = False):
    """Homomorphisms m -> n by backtracking over the elements of m in view
    order, checking each table entry of m once, as soon as its image is
    decided.  `restrict` optionally limits the permitted values of
    individual elements; `injective` skips a value already used in the same
    sort, so only injective homs are built, in the order the search without
    it yields them."""
    if m.signature != n.signature:
        return
    view = m.view
    choices = []
    for s, a in view.elems:
        r = None if restrict is None else restrict.get(s, {}).get(a)
        choices.append([b for b in n.carrier(s) if r is None or b in r])
    # at[i + 1]: (target table, argument numbers, value number or None for
    # membership) of each check decided once element i is mapped.  A
    # function entry's value is decided at the later of its last argument
    # and its value, its definedness at its last argument.
    at: list[list] = [[] for _ in range(len(view.elems) + 1)]
    for f, (*args, v) in view.funcs:
        last = max(args, default=-1)
        if v > last:
            at[last + 1].append((n.func_table(f), args, None))
        at[max(last, v) + 1].append((n.func_table(f), args, v))
    for r, args in view.rels:
        at[max(args, default=-1) + 1].append((n.rel_table(r), args, None))
    img: list = [None] * len(view.elems)

    def preserved(checks) -> bool:
        for table, args, v in checks:
            im = tuple(img[i] for i in args)
            if (im not in table) if v is None else (table.get(im) != img[v]):
                return False
        return True

    names = (f"h{k}" for k in itertools.count())

    def rec(i: int):
        if i == len(img):
            maps: dict[str, dict[str, str]] = {s: {} for s in m.signature.sorts}
            for (s, a), b in zip(view.elems, img):
                maps[s][a] = b
            yield Homomorphism(next(names), m, n, maps)
            return
        s, a = view.elems[i]
        used = img[i - m.carrier(s).index(a):i] if injective else ()
        for b in choices[i]:
            img[i] = b
            if b not in used and preserved(at[i + 1]):
                yield from rec(i + 1)

    if all(choices) and preserved(at[0]):
        yield from rec(0)


def enumerate_homs(m: PartialStructure, n: PartialStructure) -> list[Homomorphism]:
    """All homomorphisms m -> n (exhaustive)."""
    return list(iter_homs(m, n))


def exists_hom(m: PartialStructure, n: PartialStructure,
               restrict=None, injective: bool = False) -> Homomorphism | None:
    return next(iter_homs(m, n, restrict, injective), None)


def hom_image(h: Homomorphism) -> dict[str, set[str]]:
    return {s: set(h.maps[s].values()) for s in h.source.signature.sorts}


# ---------------------------------------------------------------------------
# products and colimits

PRODUCT_CAP = 100_000


def _pack(tup) -> str:
    return "(" + ",".join(tup) + ")"


def product(sig: Signature, factors, cap: int = PRODUCT_CAP,
            name: str | None = None) -> PartialStructure:
    """Product structure: each table entry is one entry from each factor's
    table.  The empty product is the terminal structure, whose tables are
    total over the empty tuples."""
    factors = list(factors)
    if sum(math.prod(len(m.carrier(s)) for m in factors) for s in sig.sorts) > cap:
        raise SemanticsError(f"product carrier would exceed cap {cap}")

    def pack(rows, arity):
        """The product tuple of one argument tuple per factor."""
        return tuple(_pack([row[i] for row in rows]) for i in range(arity))

    carriers = {s: tuple(map(_pack, itertools.product(*(m.carrier(s) for m in factors))))
                for s in sig.sorts}
    funcs = {}
    for f in sig.functions:
        entries = itertools.product(*(m.func_table(f.name).items() for m in factors))
        funcs[f.name] = {pack([a for a, _ in es], len(f.arg_sorts)):
                         _pack([v for _, v in es]) for es in entries}
    rels = {}
    for r in sig.relations:
        entries = itertools.product(*(m.rel_table(r.name) for m in factors))
        rels[r.name] = frozenset(pack(rows, len(r.arg_sorts)) for rows in entries)
    pname = name or ("1" if not factors else "x".join(m.name for m in factors))
    return PartialStructure(pname, sig, carriers, funcs, rels)


def terminal(sig: Signature) -> PartialStructure:
    return product(sig, [], name="1")


@dataclass(frozen=True)
class ChainDiagram:
    """Functor from a finite directed poset: stages keyed by id, and a
    connecting homomorphism for every strict pair i < j."""
    order: tuple[tuple[str, str], ...]        # reflexive-transitive pairs (i, j)
    stages: dict[str, PartialStructure]
    arrows: dict[tuple[str, str], Homomorphism]

    def leq(self, i: str, j: str) -> bool:
        return (i, j) in self.order


def _diagram_diagnostics(d: ChainDiagram) -> list[str]:
    """Problems with `d` as a diagram; the order and arrow checks come first
    so that the functoriality check below only indexes arrows that exist."""
    ids = sorted(d.stages)
    if not ids:
        return ["empty diagram"]
    out = []
    for i in ids:
        if not d.leq(i, i):
            out.append(f"order not reflexive at {i}")
    for i, j in d.order:
        if i < j and d.leq(j, i):
            out.append(f"order not antisymmetric on {i},{j}")
        if i != j and (i, j) not in d.arrows:
            out.append(f"missing arrow {i} -> {j}")
        out += [f"order not transitive at {i},{j},{k}"
                for j2, k in d.order if j2 == j and not d.leq(i, k)]
    for i, j in itertools.product(ids, repeat=2):
        if not any(d.leq(i, k) and d.leq(j, k) for k in ids):
            out.append(f"poset not directed at {i},{j}")
            break
    for (i, j), h in d.arrows.items():
        if i not in d.stages or j not in d.stages:
            out.append(f"arrow {i} -> {j} has an unknown stage")
            continue
        if not d.leq(i, j):
            out.append(f"arrow {i} -> {j} is outside the order")
        if not check_hom(h):
            out.append(f"arrow {i} -> {j} is not a homomorphism")
        if h.source != d.stages[i] or h.target != d.stages[j]:
            out.append(f"arrow {i} -> {j} has wrong endpoints")
    if out:
        return out
    for i, j in d.order:
        for k in ids:
            if i != j and j != k and d.leq(j, k):
                left = compose_homs(d.arrows[(j, k)], d.arrows[(i, j)])
                if left.maps != d.arrows[(i, k)].maps:
                    out.append(f"non-functorial composite {i} -> {j} -> {k}")
    return out


@dataclass(frozen=True)
class ColimitResult:
    structure: PartialStructure
    coprojections: dict[str, Homomorphism]


def chain_colimit(theory: Theory, diagram: ChainDiagram) -> ColimitResult:
    """Colimit of a finite directed diagram of partial structures.

    Carriers are classes of the disjoint union under the cospan relation;
    since the poset is finite and directed it has a top stage, and every
    cospan can be taken there.
    """
    problems = _diagram_diagnostics(diagram)
    if problems:
        raise SemanticsError("bad diagram: " + "; ".join(problems))
    sig = theory.signature
    ids = sorted(diagram.stages)
    top = next(i for i in ids if all(diagram.leq(j, i) for j in ids))

    def to_top(i: str, sort: str, elem: str) -> str:
        if i == top:
            return elem
        return diagram.arrows[(i, top)].maps[sort][elem]

    # classes keyed by image in the top stage
    class_id: dict[str, dict[str, str]] = {}
    carriers = {}
    for s in sig.sorts:
        names = {}
        for a in diagram.stages[top].carrier(s):
            names[a] = f"[{top};{a}]"
        class_id[s] = names
        carriers[s] = tuple(names[a] for a in diagram.stages[top].carrier(s))

    def cls(i: str, sort: str, elem: str) -> str:
        return class_id[sort][to_top(i, sort, elem)]

    tops = diagram.stages[top]
    funcs = {}
    for f in sig.functions:
        table = {}
        for args, val in tops.func_table(f.name).items():
            key = tuple(class_id[s][a] for s, a in zip(f.arg_sorts, args))
            table[key] = class_id[f.result][val]
        funcs[f.name] = table
    rels = {}
    for r in sig.relations:
        rows = set()
        for args in tops.rel_table(r.name):
            rows.add(tuple(class_id[s][a] for s, a in zip(r.arg_sorts, args)))
        rels[r.name] = frozenset(rows)
    colim = PartialStructure("colim", sig, carriers, funcs, rels)

    copr = {}
    for i in ids:
        maps = {s: {a: cls(i, s, a) for a in diagram.stages[i].carrier(s)}
                for s in sig.sorts}
        copr[i] = Homomorphism(f"copr_{i}", diagram.stages[i], colim, maps)
        if not check_hom(copr[i]):
            raise SemanticsError(f"coprojection from {i} failed to commute")
    if all(is_model(diagram.stages[i], theory).ok for i in ids):
        if not is_model(colim, theory).ok:
            raise SemanticsError("colimit of models failed to be a model")
    return ColimitResult(colim, copr)


# ---------------------------------------------------------------------------
# bounded enumeration of structures and models

def _totalish_functions(theory: Theory) -> set[str]:
    """Function symbols asserted total by an axiom with a trivial premise."""
    out = set()
    for ax in theory.axioms:
        if not isinstance(ax.sequent.premise, Truth):
            continue
        for a in atoms(ax.sequent.conclusion):
            if isinstance(a, Eq) and a.lhs == a.rhs and isinstance(a.lhs, App):
                if all(isinstance(x, Var) for x in a.lhs.args):
                    out.add(a.lhs.func)
    return out


def enumerate_structures(theory: Theory, sizes: dict[str, int]):
    """Yield every partial structure on fixed carriers that models the theory.

    Backtracking over table cells in a fixed order, with three-valued
    pruning: a branch dies as soon as some axiom instance is definitely
    violated.  Each axiom side is read by its compiled reader (`_reader`).
    A pending instance waits in the bucket of the first cell, in branching
    order, that its last read touched, and is rechecked only when that cell
    is assigned, in instance order.  A pending instance whose premise holds
    and whose conclusion waits on one cell forces that cell: a relation
    cell must be true, and a function cell must be defined, with the value
    of an equation partner that is already known.  Forcing only drops
    options that lead to no model, so the models come out in the same
    order as without it.  Bucket appends and narrowed option lists are
    undone on backtrack through one trail of ints: j for an append to
    bucket j, ~j for a narrowing of cell j.  The models share one
    `carriers` dict, and a model shares each table that equals the
    previous model's.
    """
    sig = theory.signature
    carriers = {s: tuple(f"{_sort_tag(s)}{i}" for i in range(sizes.get(s, 0)))
                for s in sig.sorts}

    totalish = _totalish_functions(theory)

    def func_rank(d: FuncDecl):
        if not d.arg_sorts:
            return (0, 0, d.name)
        if d.name in totalish:
            return (1, len(d.arg_sorts), d.name)
        return (2, len(d.arg_sorts), d.name)

    # a cell is (symbol, args); choices[i] is a stack of the option lists of
    # cell i, each a sublist of the one below, with UNDEF meaning absent from
    # the table
    cells: list[tuple[str, tuple[str, ...]]] = []
    choices: list[list[list]] = []
    for f in sorted(sig.functions, key=func_rank):
        options = list(carriers[f.result]) + [UNDEF]
        for args in itertools.product(*(carriers[s] for s in f.arg_sorts)):
            cells.append((f.name, args))
            choices.append([options])
    for r in sorted(sig.relations, key=lambda d: (len(d.arg_sorts), d.name)):
        for args in itertools.product(*(carriers[s] for s in r.arg_sorts)):
            cells.append((r.name, args))
            choices.append([[UNDEF, True]])
    index = {cell: i for i, cell in enumerate(cells)}

    funcs: dict[str, dict] = {f.name: {} for f in sig.functions}
    rels: dict[str, dict] = {r.name: {} for r in sig.relations}
    tables = {**funcs, **rels}
    holes = set(cells)

    instances = []
    for ax in theory.axioms:
        seq = ax.sequent
        clause = flatten(seq.context.names, seq.premise, seq.conclusion)
        premise = _reader(clause.premise) if clause.premise else None
        conclusion = _reader(clause.conclusion)
        partners = _partners(clause.conclusion)
        for tup in itertools.product(*(carriers[s] for _, s in seq.context.vars)):
            instances.append((premise, conclusion, _slots(clause, tup), partners))
    bucket: list[list[int]] = [[] for _ in cells]
    trail: list[int] = []

    def check(k) -> bool:
        """Read instance k: False if it is violated or forces a cell out of
        options; a pending instance goes to its bucket."""
        premise, conclusion, vals, partners = instances[k]
        touched: list = []
        p = premise(vals, funcs, rels, holes, touched) if premise else True
        if p is False:
            return True
        c = conclusion(vals, funcs, rels, holes, touched)
        if c is True:
            return True
        if p is True and c is False:
            return False
        j = min(map(index.__getitem__, touched))
        bucket[j].append(k)
        trail.append(j)
        if p is True and touched.count(touched[0]) == len(touched):
            return force(j, vals, partners)
        return True

    def force(j, vals, partners) -> bool:
        now = choices[j][-1]
        if cells[j][0] in rels:
            narrowed = [v for v in now if v is True]
        else:
            # the one touched cell is the atom of a slot o that is unknown
            # while its arguments are known
            want = [vals[p] for o, p, args in partners
                    if vals[o] is _UNK and vals[p] is not _UNK
                    and all(vals[a] is not _UNK for a in args)]
            narrowed = [v for v in now
                        if v is not UNDEF and all(v == w for w in want)]
        if len(narrowed) < len(now):
            choices[j].append(narrowed)
            trail.append(~j)
        return bool(narrowed)

    def undo(mark):
        while len(trail) > mark:
            t = trail.pop()
            if t >= 0:
                bucket[t].pop()
            else:
                choices[~t].pop()

    last_funcs: dict = {}
    last_rels: dict = {}

    def freeze(count):
        """The current tables as a structure.  A table equal to the previous
        model's is that model's table, and so is a dict of tables."""
        nonlocal last_funcs, last_rels
        new_funcs = {f: last_funcs[f] if last_funcs.get(f) == t else dict(t)
                     for f, t in funcs.items()}
        new_rels = {r: last_rels[r] if last_rels.get(r) == t.keys() else frozenset(t)
                    for r, t in rels.items()}
        if new_funcs != last_funcs:
            last_funcs = new_funcs
        if new_rels != last_rels:
            last_rels = new_rels
        return PartialStructure(f"M{count}", sig, carriers, last_funcs, last_rels)

    count = 0

    def rec(i):
        nonlocal count
        if i == len(cells):
            count += 1
            yield freeze(count)
            return
        cell = cells[i]
        name, args = cell
        table = tables[name]
        holes.remove(cell)
        order = sorted(bucket[i])
        for value in choices[i][-1]:
            if value is UNDEF:
                table.pop(args, None)
            else:
                table[args] = value
            mark = len(trail)
            if all(map(check, order)):
                yield from rec(i + 1)
            undo(mark)
        table.pop(args, None)
        holes.add(cell)

    if all(map(check, range(len(instances)))):
        yield from rec(0)


def _partners(atoms) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The equation partners of a conclusion's function slots: `(o, p, args)`
    for each equation between the slot o and the slot p, with `args` the
    argument slots of o's atom."""
    args_of = {out: args for _, _, args, out in atoms if out is not None}
    return tuple((o, p, args_of[o]) for kind, _, args, _ in atoms
                 if kind == EQ and args[0] != args[1]
                 for o, p in (args, args[::-1]) if o in args_of)


def _sort_tag(sort: str) -> str:
    return "u" if sort == "*" else sort


def size_profiles(sorts, max_size: int):
    """All carrier-size assignments with every sort at most max_size."""
    for combo in itertools.product(range(max_size + 1), repeat=len(sorts)):
        yield dict(zip(sorts, combo))


def iter_models(theory: Theory, max_size: int):
    """All models with every carrier of size <= max_size, named M0, M1, ...
    in enumeration order; each is built only when the caller asks for it."""
    n = 0
    for sizes in size_profiles(theory.signature.sorts, max_size):
        for m in enumerate_structures(theory, sizes):
            yield replace(m, name=f"M{n}")
            n += 1


@lru_cache(maxsize=64)
def _models_cached(theory: Theory, max_size: int) -> tuple:
    return tuple(iter_models(theory, max_size))


def enumerate_models(theory: Theory, max_size: int) -> tuple:
    """The models of `iter_models` as one tuple (cached per theory)."""
    return _models_cached(theory, max_size)


# ---------------------------------------------------------------------------
# model and hom text formats

def print_model(m: PartialStructure, theory_name: str = "?") -> str:
    lines = [f"model {m.name} of {theory_name}"]
    for s in m.signature.sorts:
        lines.append(f"carrier {s}: " + " ".join(m.carrier(s)) + ";")
    for f in m.signature.functions:
        for args in sorted(m.func_table(f.name)):
            val = m.funcs[f.name][args]
            lines.append(f"fun {f.name}: ({','.join(args)}) -> {val};")
    for r in m.signature.relations:
        rows = sorted(m.rel_table(r.name))
        if rows:
            lines.append(f"rel {r.name}: " + " ".join(f"({','.join(t)})" for t in rows) + ";")
    return "\n".join(lines) + "\n"


def _elem(ts: TokenStream) -> str:
    if ts.at("number"):
        return ts.next().text
    return ts.expect("ident").text


def _parse_elem_tuple(ts: TokenStream) -> tuple[str, ...]:
    ts.expect("punct", "(")
    elems = []
    while not ts.at("punct", ")"):
        elems.append(_elem(ts))
        if ts.at("punct", ","):
            ts.next()
    ts.expect("punct", ")")
    return tuple(elems)


def parse_model(text: str, sig: Signature) -> tuple[PartialStructure, str]:
    """Parse the model text format; returns the structure and the theory name
    it claims to model."""
    ts = TokenStream(text)
    ts.expect_word("model")
    name = ts.expect("ident").text
    ts.expect_word("of")
    theory_name = ts.expect("ident").text
    carriers: dict[str, tuple[str, ...]] = {}
    funcs: dict[str, dict] = {}
    rels: dict[str, set] = {}
    while not ts.at("eof"):
        if ts.at_word("carrier"):
            ts.next()
            sort = _parse_sort_name(ts)
            if sort in carriers:
                ts.error(f"carrier {sort} given twice")
            ts.expect("punct", ":")
            elems = []
            while not ts.at("punct", ";"):
                elems.append(_elem(ts))
            ts.expect("punct", ";")
            carriers[sort] = tuple(elems)
        elif ts.at_word("fun"):
            ts.next()
            fname = ts.expect("ident").text
            ts.expect("punct", ":")
            args = _parse_elem_tuple(ts)
            table = funcs.setdefault(fname, {})
            if args in table:
                ts.error(f"fun {fname}: ({','.join(args)}) given twice")
            ts.expect("arrow")
            table[args] = _elem(ts)
            ts.expect("punct", ";")
        elif ts.at_word("rel"):
            ts.next()
            rname = ts.expect("ident").text
            ts.expect("punct", ":")
            rows = rels.setdefault(rname, set())
            while not ts.at("punct", ";"):
                rows.add(_parse_elem_tuple(ts))
            ts.expect("punct", ";")
        else:
            ts.error(f"unexpected {ts.peek().text!r} in model body")
    m = make_structure(name, sig, carriers, funcs, rels)
    return m, theory_name


def print_hom(h: Homomorphism) -> str:
    lines = [f"hom {h.name} : {h.source.name} -> {h.target.name}"]
    for s in h.source.signature.sorts:
        entries = " ".join(f"{a}->{b}" for a, b in sorted(h.maps.get(s, {}).items()))
        lines.append(f"map {s}: {entries};")
    return "\n".join(lines) + "\n"


def parse_hom(text: str, models: dict[str, PartialStructure]) -> Homomorphism:
    ts = TokenStream(text)
    name, src_name, tgt_name = parse_arrow_header(ts, "hom")
    for n in (src_name, tgt_name):
        if n not in models:
            ts.error(f"unknown model '{n}'")
    src, tgt = models[src_name], models[tgt_name]
    maps: dict[str, dict[str, str]] = {}
    while not ts.at("eof"):
        ts.expect_word("map")
        sort = _parse_sort_name(ts)
        if sort not in src.signature.sorts:
            ts.error(f"map for unknown sort '{sort}'")
        ts.expect("punct", ":")
        table = maps.setdefault(sort, {})
        while not ts.at("punct", ";"):
            a = _elem(ts)
            if a in table:
                ts.error(f"map {sort}: element '{a}' mapped twice")
            ts.expect("arrow")
            table[a] = _elem(ts)
        ts.expect("punct", ";")
    return Homomorphism(name, src, tgt, maps)
