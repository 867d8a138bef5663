"""Finite partial structures: interpretation, validity, homomorphisms,
products, finite-stage chain colimits, and bounded model enumeration.

Structures are immutable by convention after construction; every operation
here is pure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

from .syntax import (
    EQ, REL, App, Context, Eq, FuncDecl, PhlError, Sequent, Signature, Theory,
    TokenStream, Truth, Var, atoms, defined, flatten,
)

UNDEF = None


class SemanticsError(PhlError):
    pass


@dataclass(frozen=True)
class PartialStructure:
    name: str
    signature: Signature
    carriers: dict[str, tuple[str, ...]]
    funcs: dict[str, dict[tuple[str, ...], str]]
    rels: dict[str, frozenset[tuple[str, ...]]]

    def carrier(self, sort: str) -> tuple[str, ...]:
        return self.carriers.get(sort, ())

    def func_table(self, name: str) -> dict[tuple[str, ...], str]:
        return self.funcs.get(name, {})

    def rel_table(self, name: str) -> frozenset[tuple[str, ...]]:
        return self.rels.get(name, frozenset())

    def size(self) -> int:
        return sum(len(c) for c in self.carriers.values())


def make_structure(name: str, sig: Signature, carriers, funcs=None, rels=None,
                   check: bool = True) -> PartialStructure:
    carriers = {s: tuple(carriers.get(s, ())) for s in sig.sorts}
    funcs = {f: dict(t) for f, t in (funcs or {}).items()}
    rels = {r: frozenset(tuple(x) for x in t) for r, t in (rels or {}).items()}
    m = PartialStructure(name, sig, carriers, funcs, rels)
    if check:
        problems = structure_diagnostics(m)
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


def _read(atoms, vals, funcs, rels, holes, touched) -> bool | None:
    """Three-valued truth of a conjunction of flat atoms over partial tables.

    `vals` holds the variable slots and receives every other slot.  A
    function table maps argument tuples to values (a missing key is
    undefined), a relation table holds its true tuples, and `holes` is the
    set of cells `(symbol, args)` not assigned yet; every hole read is
    noted in `touched`.  False as soon as some atom is definitely false,
    None when the answer waits on a hole, else True.
    """
    known = True
    get = vals.__getitem__
    for kind, name, args, out in atoms:
        if kind == EQ:
            x, y = get(args[0]), get(args[1])
            if x != y and x is not _UNK and y is not _UNK:
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
        if _UNK not in key:
            cell = (name, key)
            if cell not in holes:
                return False
            touched.append(cell)
            known = False
        if kind != REL:
            vals[out] = _UNK
    return True if known else None


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
    if not _read(clause.premise, vals, *_tables(m), _NO_HOLES, None):
        return UNDEF
    return vals[clause.terms.index(term)]


def formula_holds_at(m: PartialStructure, ctx: Context, f, tup) -> bool:
    clause = flatten(ctx.names, f)
    return bool(_read(clause.premise, _slots(clause, tup), *_tables(m),
                      _NO_HOLES, None))


def context_tuples(m: PartialStructure, ctx: Context):
    return itertools.product(*(m.carrier(s) for _, s in ctx.vars))


def interp_formula(m: PartialStructure, ctx: Context, f) -> set[tuple[str, ...]]:
    clause = flatten(ctx.names, f)
    funcs, rels = _tables(m)
    return {tup for tup in context_tuples(m, ctx)
            if _read(clause.premise, _slots(clause, tup), funcs, rels,
                     _NO_HOLES, None)}


@dataclass(frozen=True)
class HoldsResult:
    ok: bool
    witness: tuple[str, ...] | None = None

    def __bool__(self):
        return self.ok


def holds(m: PartialStructure, seq: Sequent) -> HoldsResult:
    """Validity of a sequent; on failure carries a premise tuple outside the
    conclusion."""
    clause = flatten(seq.context.names, seq.premise, seq.conclusion)
    funcs, rels = _tables(m)
    for tup in context_tuples(m, seq.context):
        vals = _slots(clause, tup)
        if _read(clause.premise, vals, funcs, rels, _NO_HOLES, None) and \
                not _read(clause.conclusion, vals, funcs, rels, _NO_HOLES, None):
            return HoldsResult(False, tup)
    return HoldsResult(True)


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
    m, n = h.source, h.target
    if m.signature != n.signature:
        return False
    maps = {s: h.maps.get(s, {}) for s in m.signature.sorts}
    for s, table in maps.items():
        if set(table) != set(m.carrier(s)):
            return False
        if not set(table.values()) <= set(n.carrier(s)):
            return False
    return partial_hom_ok(m, n, maps)


def identity_hom(m: PartialStructure) -> Homomorphism:
    return Homomorphism("id", m, m, {s: {a: a for a in m.carrier(s)}
                                     for s in m.signature.sorts})


def compose_homs(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    if f.target is not g.source and f.target != g.source:
        raise SemanticsError("homomorphisms not composable")
    maps = {s: {a: g.maps[s][f.maps[s][a]] for a in f.source.carrier(s)}
            for s in f.source.signature.sorts}
    return Homomorphism(f"{g.name}.{f.name}", f.source, g.target, maps)


def partial_hom_ok(m: PartialStructure, n: PartialStructure,
                   maps: dict[str, dict[str, str]]) -> bool:
    """Whether a partial element map m -> n preserves every table entry of m
    whose arguments it already maps."""
    for f in m.signature.functions:
        target = n.func_table(f.name)
        res = maps[f.result]
        for args, val in m.func_table(f.name).items():
            if all(a in maps[s] for a, s in zip(args, f.arg_sorts)):
                want = target.get(tuple(maps[s][a] for a, s in zip(args, f.arg_sorts)))
                if want is None or (val in res and res[val] != want):
                    return False
    for r in m.signature.relations:
        target = n.rel_table(r.name)
        for args in m.rel_table(r.name):
            if all(a in maps[s] for a, s in zip(args, r.arg_sorts)):
                if tuple(maps[s][a] for a, s in zip(args, r.arg_sorts)) not in target:
                    return False
    return True


def iter_homs(m: PartialStructure, n: PartialStructure,
              restrict: dict[str, dict[str, set[str]]] | None = None):
    """Homomorphisms m -> n by backtracking over element assignments with
    incremental preservation checks.  `restrict` optionally limits the
    permitted values of individual elements."""
    if m.signature != n.signature:
        return
    todo = [(s, a) for s in m.signature.sorts for a in m.carrier(s)]
    for s, _ in todo:
        if not n.carrier(s):
            return
    maps: dict[str, dict[str, str]] = {s: {} for s in m.signature.sorts}

    count = 0

    def rec(i: int):
        nonlocal count
        if i == len(todo):
            count += 1
            yield Homomorphism(f"h{count - 1}", m, n,
                               {s: dict(t) for s, t in maps.items()})
            return
        s, a = todo[i]
        allowed = n.carrier(s)
        if restrict is not None:
            r = restrict.get(s, {}).get(a)
            if r is not None:
                allowed = [b for b in allowed if b in r]
        for b in allowed:
            maps[s][a] = b
            if partial_hom_ok(m, n, maps):
                yield from rec(i + 1)
            del maps[s][a]

    yield from rec(0)


def enumerate_homs(m: PartialStructure, n: PartialStructure) -> list[Homomorphism]:
    """All homomorphisms m -> n (exhaustive)."""
    return list(iter_homs(m, n))


def exists_hom(m: PartialStructure, n: PartialStructure,
               restrict=None) -> Homomorphism | None:
    return next(iter_homs(m, n, restrict), None)


def hom_image(h: Homomorphism) -> dict[str, set[str]]:
    return {s: set(h.maps[s].values()) for s in h.source.signature.sorts}


# ---------------------------------------------------------------------------
# products and colimits

PRODUCT_CAP = 100_000


def _pack(tup) -> str:
    return "(" + ",".join(tup) + ")"


def product(sig: Signature, factors, cap: int = PRODUCT_CAP,
            name: str | None = None) -> PartialStructure:
    """Product structure; the empty product is the terminal structure."""
    factors = list(factors)
    total = 1
    for s in sig.sorts:
        n = 1
        for m in factors:
            n *= len(m.carrier(s))
        total += n
        if total > cap:
            raise SemanticsError(f"product carrier would exceed cap {cap}")
    carriers = {}
    elem_tuples = {}
    for s in sig.sorts:
        tuples = list(itertools.product(*(m.carrier(s) for m in factors)))
        elem_tuples[s] = tuples
        carriers[s] = tuple(_pack(t) for t in tuples)
    funcs: dict[str, dict[tuple[str, ...], str]] = {}
    for f in sig.functions:
        table: dict[tuple[str, ...], str] = {}
        arg_spaces = [elem_tuples[s] for s in f.arg_sorts]
        for args in itertools.product(*arg_spaces):
            vals = []
            for i, m in enumerate(factors):
                component = tuple(a[i] for a in args)
                v = m.func_table(f.name).get(component, UNDEF)
                if v is UNDEF:
                    break
                vals.append(v)
            else:
                # empty product: the loop over factors is vacuous, which makes
                # the terminal's tables total
                table[tuple(_pack(a) for a in args)] = _pack(tuple(vals))
        funcs[f.name] = table
    rels: dict[str, frozenset] = {}
    for r in sig.relations:
        rows = set()
        arg_spaces = [elem_tuples[s] for s in r.arg_sorts]
        for args in itertools.product(*arg_spaces):
            if all(tuple(a[i] for a in args) in factors[i].rel_table(r.name)
                   for i in range(len(factors))):
                rows.add(tuple(_pack(a) for a in args))
        rels[r.name] = frozenset(rows)
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
    out = []
    ids = sorted(d.stages)
    if not ids:
        out.append("empty diagram")
        return out
    for i in ids:
        if not d.leq(i, i):
            out.append(f"order not reflexive at {i}")
    for i, j in d.order:
        if i != j and d.leq(j, i):
            out.append(f"order not antisymmetric on {i},{j}")
        if i != j and (i, j) not in d.arrows:
            out.append(f"missing arrow {i} -> {j}")
    for i, j in itertools.product(ids, repeat=2):
        if not any(d.leq(i, k) and d.leq(j, k) for k in ids):
            out.append(f"poset not directed at {i},{j}")
            break
    for (i, j), h in d.arrows.items():
        if not check_hom(h):
            out.append(f"arrow {i} -> {j} is not a homomorphism")
        if h.source != d.stages[i] or h.target != d.stages[j]:
            out.append(f"arrow {i} -> {j} has wrong endpoints")
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

    Backtracking over table cells with three-valued pruning: a branch dies as
    soon as some axiom instance is definitely violated.  Each pending axiom
    instance watches the unassigned cells its last evaluation touched and is
    only rechecked when one of them changes.
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

    # a cell is (symbol, args); its options are the values it may take, with
    # UNDEF meaning absent from the table
    cells: list[tuple[str, tuple[str, ...], list]] = []
    for f in sorted(sig.functions, key=func_rank):
        options = list(carriers[f.result]) + [UNDEF]
        for args in itertools.product(*(carriers[s] for s in f.arg_sorts)):
            cells.append((f.name, args, options))
    for r in sorted(sig.relations, key=lambda d: (len(d.arg_sorts), d.name)):
        for args in itertools.product(*(carriers[s] for s in r.arg_sorts)):
            cells.append((r.name, args, [UNDEF, True]))

    funcs: dict[str, dict] = {f.name: {} for f in sig.functions}
    rels: dict[str, dict] = {r.name: {} for r in sig.relations}
    tables = {**funcs, **rels}
    holes = {(name, args) for name, args, _ in cells}

    instances = []
    for ax in theory.axioms:
        seq = ax.sequent
        clause = flatten(seq.context.names, seq.premise, seq.conclusion)
        for tup in itertools.product(*(carriers[s] for _, s in seq.context.vars)):
            instances.append((clause.premise, clause.conclusion,
                              _slots(clause, tup)))
    watch: list[frozenset] = [frozenset()] * len(instances)

    def status(k):
        premise, conclusion, vals = instances[k]
        touched: list = []
        p = _read(premise, vals, funcs, rels, holes, touched) if premise else True
        if p is False:
            return True
        c = _read(conclusion, vals, funcs, rels, holes, touched)
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
            if value is UNDEF:
                table.pop(args, None)
            else:
                table[args] = value
            still = []
            trail = []
            ok = True
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


def _sort_tag(sort: str) -> str:
    return "u" if sort == "*" else sort


def size_profiles(sorts, max_size: int):
    """All carrier-size assignments with every sort at most max_size."""
    for combo in itertools.product(range(max_size + 1), repeat=len(sorts)):
        yield dict(zip(sorts, combo))


@lru_cache(maxsize=64)
def _models_cached(theory: Theory, max_size: int) -> tuple:
    out = []
    for sizes in size_profiles(theory.signature.sorts, max_size):
        for m in enumerate_structures(theory, sizes):
            out.append(replace(m, name=f"M{len(out)}"))
    return tuple(out)


def enumerate_models(theory: Theory, max_size: int) -> tuple:
    """All models with every carrier of size <= max_size (cached per theory)."""
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
            sort = ts.expect("ident").text if not ts.at("star") else ts.next().text
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
            ts.expect("arrow")
            val = _elem(ts)
            ts.expect("punct", ";")
            funcs.setdefault(fname, {})[args] = val
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
    unknown = set(carriers) - set(sig.sorts)
    if unknown:
        raise SemanticsError(f"carriers for unknown sorts {sorted(unknown)}")
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
    ts.expect_word("hom")
    name = ts.expect("ident").text
    ts.expect("punct", ":")
    src_name = ts.expect("ident").text
    ts.expect("arrow")
    tgt_name = ts.expect("ident").text
    for n in (src_name, tgt_name):
        if n not in models:
            ts.error(f"unknown model '{n}'")
    src, tgt = models[src_name], models[tgt_name]
    maps: dict[str, dict[str, str]] = {}
    while not ts.at("eof"):
        ts.expect_word("map")
        sort = ts.expect("ident").text if not ts.at("star") else ts.next().text
        ts.expect("punct", ":")
        table = maps.setdefault(sort, {})
        while not ts.at("punct", ";"):
            a = _elem(ts)
            ts.expect("arrow")
            b = _elem(ts)
            table[a] = b
        ts.expect("punct", ";")
    return Homomorphism(name, src, tgt, maps)
