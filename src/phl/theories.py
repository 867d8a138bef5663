"""Bundled theories and small structures used across tests and scripts."""
from __future__ import annotations

from functools import lru_cache

from .semantics import PartialStructure, make_structure
from .syntax import Theory, parse_theory

POS_SRC = """\
theory pos
sorts: *
rel leq : * *;
axiom refl [x:*] true |- leq(x,x);
axiom antisym [x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y;
axiom trans [x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z);
"""

PREORDER_SRC = """\
theory preord
sorts: *
rel leq : * *;
axiom refl [x:*] true |- leq(x,x);
axiom trans [x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z);
"""

MON_SRC = """\
theory mon
sorts: *
fun e : -> *;
fun mul : * * -> *;
axiom e_total [] true |- def(e);
axiom mul_total [x:*, y:*] true |- def(mul(x,y));
axiom assoc [x:*, y:*, z:*] true |- mul(mul(x,y),z) = mul(x,mul(y,z));
axiom unit [x:*] true |- mul(x,e) = x /\\ mul(e,x) = x;
"""

MON_INV_SRC = """\
theory mon_inv
sorts: *
fun e : -> *;
fun mul : * * -> *;
fun inv : * -> *;
axiom e_total [] true |- def(e);
axiom mul_total [x:*, y:*] true |- def(mul(x,y));
axiom assoc [x:*, y:*, z:*] true |- mul(mul(x,y),z) = mul(x,mul(y,z));
axiom unit [x:*] true |- mul(x,e) = x /\\ mul(e,x) = x;
axiom inv_law [x:*] def(inv(x)) |- mul(inv(x),x) = e /\\ mul(x,inv(x)) = e;
axiom inv_unique [x:*, y:*] mul(y,x) = e /\\ mul(x,y) = e |- inv(x) = y;
"""

CAT_SRC = """\
theory cat
sorts: ob mor
fun id : ob -> mor;
fun d : mor -> ob;
fun c : mor -> ob;
fun comp : mor mor -> mor;
axiom id_total [x:ob] true |- def(id(x));
axiom dc_total [f:mor] true |- def(d(f)) /\\ def(c(f));
axiom comp_dom1 [g:mor, f:mor] d(g) = c(f) |- def(comp(g,f));
axiom comp_dom2 [g:mor, f:mor] def(comp(g,f)) |- d(g) = c(f);
axiom id_dc [x:ob] true |- d(id(x)) = x /\\ c(id(x)) = x;
axiom comp_dc [g:mor, f:mor] d(g) = c(f) |- d(comp(g,f)) = d(f) /\\ c(comp(g,f)) = c(g);
axiom id_unit [f:mor] true |- comp(f,id(d(f))) = f /\\ comp(id(c(f)),f) = f;
axiom assoc [h:mor, g:mor, f:mor] d(h) = c(g) /\\ d(g) = c(f) |- comp(comp(h,g),f) = comp(h,comp(g,f));
"""

QUIV_SRC = """\
theory quiv
sorts: e v
fun s : e -> v;
fun t : e -> v;
axiom st_total [f:e] true |- def(s(f)) /\\ def(t(f));
"""

SET_SRC = """\
theory set
sorts: *
"""

RSREL_SRC = """\
theory rsrel
sorts: *
rel com : * *;
axiom refl [x:*] true |- com(x,x);
axiom sym [x:*, y:*] com(x,y) |- com(y,x);
"""


@lru_cache(maxsize=None)
def _parsed(src: str) -> Theory:
    return parse_theory(src)


def pos_theory() -> Theory:
    return _parsed(POS_SRC)


def preorder_theory() -> Theory:
    return _parsed(PREORDER_SRC)


def mon_theory() -> Theory:
    return _parsed(MON_SRC)


def mon_inv_theory() -> Theory:
    return _parsed(MON_INV_SRC)


def cat_theory() -> Theory:
    return _parsed(CAT_SRC)


def quiver_theory() -> Theory:
    return _parsed(QUIV_SRC)


def set_theory() -> Theory:
    return _parsed(SET_SRC)


def rsrel_theory() -> Theory:
    return _parsed(RSREL_SRC)


# ---------------------------------------------------------------------------
# stock structures

def chain_poset(n: int, labels: str = "abcdefghij") -> PartialStructure:
    """The n-element chain as a pos-structure."""
    elems = tuple(labels[i] for i in range(n))
    leq = {(elems[i], elems[j]) for i in range(n) for j in range(i, n)}
    return make_structure(f"chain{n}", pos_theory().signature,
                          {"*": elems}, {}, {"leq": leq})


def antichain_poset(n: int, labels: str = "abcdefghij") -> PartialStructure:
    elems = tuple(labels[i] for i in range(n))
    leq = {(e, e) for e in elems}
    return make_structure(f"disc{n}", pos_theory().signature,
                          {"*": elems}, {}, {"leq": leq})


def cycle_preorder() -> PartialStructure:
    """Two mutually related points: a preorder that is not a poset."""
    leq = {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
    return make_structure("cyc2", pos_theory().signature,
                          {"*": ("a", "b")}, {}, {"leq": leq})


def zmod_monoid(n: int) -> PartialStructure:
    """The additive cyclic monoid on n elements."""
    elems = tuple(str(i) for i in range(n))
    mul = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    funcs = {"e": {(): "0"}, "mul": mul}
    return make_structure(f"z{n}", mon_theory().signature, {"*": elems}, funcs)
