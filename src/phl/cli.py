"""Command-line surface: check, prove, free, factor, translate, sketch2pht,
birkhoff, fmt.

Exit codes: 0 success / Proved / true; 1 Refuted / false (witness printed);
2 Unknown (budget); 10 usage errors; 11 parse or well-formedness errors and
input that is not UTF-8 text; 12 missing files and paths that are not
regular files.  `--json` emits a stable machine-readable report.

Each subcommand imports the engine modules it runs when it is called, so a
fresh process loads only those.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .syntax import (
    PhlError, TokenStream, WellFormedError, parse_arrow_header,
    parse_formula_in_context, parse_sequent, parse_theory, print_formula,
    print_sequent, print_theory,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 10
EXIT_PARSE = 11
EXIT_MISSING = 12

DEFAULT_DEPTH = 4
DEFAULT_MODEL_SIZE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _read(path) -> str:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{path} is not a regular file" if p.exists() else path)
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise PhlError(f"{path} is not UTF-8 text (byte {e.start})") from None


def _load(found: dict, kind: str, path, parse):
    """Parse the file at `path` and key what it declares by name in `found`;
    a name already there is an error."""
    item = parse(_read(path))
    if item.name in found:
        raise PhlError(f"duplicate {kind} name '{item.name}'")
    found[item.name] = item
    return item


def _read_arrow(path: str, header: str, found: dict, parse) -> str:
    """Read the `header` ("hom" or "morphism") file at `path`.  Each endpoint
    its header names that `found` lacks is loaded from a NAME.model (hom) or
    NAME.phl (morphism) file next to it, if there is one."""
    text = _read(path)
    _, src, tgt = parse_arrow_header(TokenStream(text), header)
    kind, suffix = ("model", ".model") if header == "hom" else ("theory", ".phl")
    for name in (src, tgt):
        sibling = Path(path).parent / f"{name}{suffix}"
        if name not in found and sibling.exists():
            _load(found, kind, sibling, parse)
    return text


def _default_depth() -> int:
    env = os.environ.get("PHL_BUDGET_DEPTH")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"bad PHL_BUDGET_DEPTH {env!r}")
    return DEFAULT_DEPTH


def _emit(args, report: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    from . import semantics as sm
    theory = parse_theory(_read(args.theory))
    model, _ = sm.parse_model(_read(args.model), theory.signature)
    report = sm.is_model(model, theory)
    payload = {
        "command": "check", "theory": theory.name, "model": model.name,
        "ok": report.ok,
        "violations": [{"axiom": a, "witness": list(w)}
                       for a, w in report.violations],
    }
    lines = [f"model {model.name}: "
             + ("satisfies all axioms" if report.ok else "violations found")]
    for a, w in report.violations:
        lines.append(f"  axiom {a} fails at ({', '.join(w)})")
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_FALSE


def cmd_prove(args) -> int:
    from . import prover as pv
    from . import semantics as sm
    theory = parse_theory(_read(args.theory))
    seq = parse_sequent(args.sequent, theory.signature)
    result = pv.prove(theory, seq, depth=args.depth, model_size=args.model_size)
    payload = {"command": "prove", "theory": theory.name,
               "sequent": print_sequent(seq), "verdict": result.verdict,
               "depth": args.depth, "model_size": args.model_size}
    lines = [f"{result.verdict}: {print_sequent(seq)}"]
    if isinstance(result, pv.Proved):
        payload["trace_length"] = len(result.trace)
        payload["saturated"] = result.status.saturated
        if args.elaborate:
            from . import kernel as kn
            tree = kn.elaborate(theory, seq, fuel=6)
            if tree is not None:
                payload["derivation"] = kn.format_derivation(tree)
                lines.append(kn.format_derivation(tree))
            else:
                payload["derivation"] = None
                lines.append("no explicit tree found; saturation trace stands")
    elif isinstance(result, pv.Refuted):
        payload["witness"] = list(result.witness)
        payload["countermodel"] = sm.print_model(result.countermodel, theory.name)
        lines.append(f"witness tuple: ({', '.join(result.witness)})")
        lines.append(sm.print_model(result.countermodel, theory.name).rstrip())
    else:
        payload["reason"] = result.reason
        lines.append(result.reason)
    _emit(args, payload, lines)
    return {"Proved": EXIT_OK, "Refuted": EXIT_FALSE,
            "Unknown": EXIT_UNKNOWN}[result.verdict]


def cmd_free(args) -> int:
    from . import freemodel as fm
    from . import semantics as sm
    theory = parse_theory(_read(args.theory))
    ctx, formula = parse_formula_in_context(args.formula, theory.signature)
    p = fm.representing_model(theory, ctx, formula, args.depth)
    model_text = sm.print_model(p.structure, theory.name)
    payload = {"command": "free", "theory": theory.name,
               "formula": print_formula(formula), "status": str(p.status),
               "elements": p.element_count(), "model": model_text}
    lines = [model_text.rstrip(), f"status: {p.status}"]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_factor(args) -> int:
    from . import morphology as mo
    from . import semantics as sm
    theory = parse_theory(_read(args.theory))

    def parse(text):
        return sm.parse_model(text, theory.signature)[0]

    models: dict = {}
    for path in args.model or []:
        _load(models, "model", path, parse)
    hom = sm.parse_hom(_read_arrow(args.hom, "hom", models, parse), models)
    fr = mo.factorize(hom)
    payload = {"command": "factor", "hom": hom.name,
               "mid": sm.print_model(fr.mid, theory.name),
               "dense": sm.print_hom(fr.dense),
               "closed_mono": sm.print_hom(fr.closed_mono)}
    lines = ["mid object:", sm.print_model(fr.mid, theory.name).rstrip(),
             "dense part:", sm.print_hom(fr.dense).rstrip(),
             "closed mono part:", sm.print_hom(fr.closed_mono).rstrip()]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_translate(args) -> int:
    from . import semantics as sm
    from . import translation as tr
    theories: dict = {}
    for path in args.theory or []:
        _load(theories, "theory", path, parse_theory)
    rho = tr.parse_morphism(
        _read_arrow(args.morphism, "morphism", theories, parse_theory), theories)
    if args.check:
        report = tr.check_theory_morphism(rho, depth=args.depth,
                                          model_size=args.model_size)
        payload = {"command": "translate", "morphism": rho.name,
                   "obligations": dict(report.statuses),
                   "accepted": report.accepted}
        lines = [f"{a}: {v}" for a, v in report.statuses]
        lines.append("accepted" if report.accepted else "not accepted")
        _emit(args, payload, lines)
        if report.accepted:
            return EXIT_OK
        verdicts = {v for _, v in report.statuses}
        return EXIT_FALSE if "Refuted" in verdicts else EXIT_UNKNOWN
    if args.input is None:
        raise _UsageError("translate needs INPUT (a model file or an inline sequent)")
    if Path(args.input).exists():
        m, _ = sm.parse_model(_read(args.input), rho.target.signature)
        out = tr.U_rho(rho, m)
        payload = {"command": "translate", "morphism": rho.name,
                   "model": sm.print_model(out, rho.source.name)}
        _emit(args, payload, [sm.print_model(out, rho.source.name).rstrip()])
        return EXIT_OK
    seq = parse_sequent(args.input, rho.source.signature)
    out_seq = tr.translate_sequent(rho, seq)
    payload = {"command": "translate", "morphism": rho.name,
               "sequent": print_sequent(out_seq)}
    _emit(args, payload, [print_sequent(out_seq)])
    return EXIT_OK


def cmd_sketch2pht(args) -> int:
    from . import translation as tr
    sk = tr.parse_sketch(_read(args.sketch))
    theory = tr.sketch_to_pht(sk)
    text = print_theory(theory)
    payload = {"command": "sketch2pht", "sketch": sk.name, "theory": text}
    _emit(args, payload, [text.rstrip()])
    return EXIT_OK


def cmd_birkhoff(args) -> int:
    from . import birkhoff as bk
    from . import semantics as sm
    theory = parse_theory(_read(args.theory))
    judgments_theory = parse_theory(_read(args.judgments))
    if judgments_theory.signature != theory.signature:
        raise WellFormedError("judgment file must share the theory's signature")
    pool_dir = Path(args.pool)
    if not pool_dir.is_dir():
        raise FileNotFoundError(args.pool)
    found: dict = {}
    for path in sorted(pool_dir.glob("*.model")):
        m = _load(found, "pool model", path,
                  lambda text: sm.parse_model(text, theory.signature)[0])
        if not sm.is_model(m, theory).ok:
            raise WellFormedError(f"pool member '{m.name}' is not a model")
    pool = list(found.values())
    class_matches = None
    if args.class_filter:
        filter_theory = parse_theory(_read(args.class_filter))
        if filter_theory.signature != theory.signature:
            raise WellFormedError("class file must share the theory's signature")

        def members(t):
            return {m.name for m in pool
                    if all(sm.holds(m, j.sequent).ok for j in t.axioms)}
        class_matches = sorted(members(judgments_theory) ^ members(filter_theory))
    rep = bk.definability_check(theory, judgments_theory.axioms, pool,
                                depth=args.depth, size_cap=args.size_cap)
    ok = rep.ok and not class_matches
    payload = {
        "command": "birkhoff", "theory": theory.name,
        "class_size": rep.class_size, "fixed_point": rep.fixed_point,
        "closure_failures": list(rep.closure_failures),
        "pool_insufficiency": list(rep.pool_insufficiency),
        "orthogonality_ok": rep.orthogonality_ok,
        "orthogonality_failures": list(rep.orthogonality_failures),
        "orthogonality_skipped": list(rep.orthogonality_skipped),
        "class_mismatches": list(class_matches or []),
        "ok": ok,
    }
    lines = [f"class size: {rep.class_size}",
             f"hsp fixed point: {'yes' if rep.fixed_point else 'NO'}"]
    if class_matches is not None:
        lines.append("judgments define the class file: "
                     + ("yes" if not class_matches else "NO"))
        for w in class_matches:
            lines.append(f"  class mismatch at: {w}")
    for w in rep.closure_failures:
        lines.append(f"  closure failure: {w}")
    for w in rep.pool_insufficiency:
        lines.append(f"  pool insufficiency: {w}")
    lines.append("orthogonality matches validity: "
                 + ("yes" if rep.orthogonality_ok else "NO"))
    for w in rep.orthogonality_failures:
        lines.append(f"  mismatch: {w}")
    for w in rep.orthogonality_skipped:
        lines.append(f"  skipped: {w}")
    lines.append("PASS" if ok else "FAIL")
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FALSE


def cmd_fmt(args) -> int:
    text = _read(args.file)
    head = text.lstrip().split(None, 1)[0] if text.strip() else ""
    if head == "theory":
        print(print_theory(parse_theory(text)).rstrip())
        return EXIT_OK
    raise _UsageError("fmt supports theory files (header 'theory NAME')")


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="phl", description="finitary partial Horn logic toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, depth=True, model_size=None):
        q.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if depth:
            q.add_argument("-d", "--depth", type=int, default=None,
                           help=f"saturation depth (default {DEFAULT_DEPTH}; "
                                "PHL_BUDGET_DEPTH overrides)")
        if model_size is not None:
            q.add_argument("-k", "--model-size", type=int, default=model_size,
                           help="countermodel size bound per sort "
                                f"(default {model_size})")

    q = sub.add_parser("check", help="check a finite model against a theory")
    q.add_argument("theory")
    q.add_argument("model")
    common(q, depth=False)
    q.set_defaults(fn=cmd_check)

    q = sub.add_parser("prove", help="prove or refute an inline sequent")
    q.add_argument("theory")
    q.add_argument("sequent")
    q.add_argument("--elaborate", action="store_true",
                   help="print an explicit derivation tree for small proofs")
    common(q, model_size=DEFAULT_MODEL_SIZE)
    q.set_defaults(fn=cmd_prove)

    q = sub.add_parser("free", help="saturate a representing model")
    q.add_argument("theory")
    q.add_argument("formula", help='"[x:s, y:s] FORMULA"')
    common(q)
    q.set_defaults(fn=cmd_free)

    q = sub.add_parser("factor", help="(dense, closed-mono) factorization")
    q.add_argument("theory")
    q.add_argument("hom")
    q.add_argument("--model", action="append",
                   help="model file (repeatable); sibling NAME.model files "
                        "are picked up automatically")
    common(q, depth=False)
    q.set_defaults(fn=cmd_factor)

    q = sub.add_parser("translate", help="translate along a theory morphism")
    q.add_argument("morphism")
    q.add_argument("input", nargs="?",
                   help="model file or inline sequent over the source")
    q.add_argument("--theory", action="append",
                   help="theory file (repeatable); sibling NAME.phl files "
                        "are picked up automatically")
    q.add_argument("--check", action="store_true",
                   help="check the morphism's proof obligations")
    common(q, model_size=0)
    q.set_defaults(fn=cmd_translate)

    q = sub.add_parser("sketch2pht", help="translate a limit sketch to a theory")
    q.add_argument("sketch")
    common(q, depth=False)
    q.set_defaults(fn=cmd_sketch2pht)

    q = sub.add_parser("birkhoff", help="definability experiment over a pool")
    q.add_argument("theory")
    q.add_argument("--pool", required=True, help="directory of .model files")
    q.add_argument("--judgments", required=True,
                   help="theory file whose axioms are the judgments")
    q.add_argument("--class", dest="class_filter",
                   help="theory file whose axioms carve out the class the "
                        "judgments are expected to define")
    q.add_argument("--size-cap", type=int, default=64)
    common(q)
    q.set_defaults(fn=cmd_birkhoff)

    q = sub.add_parser("fmt", help="pretty-print a theory file")
    q.add_argument("file")
    common(q, depth=False)
    q.set_defaults(fn=cmd_fmt)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "depth", None) is None and hasattr(args, "depth"):
            args.depth = _default_depth()
        return args.fn(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"missing file: {e}", file=sys.stderr)
        return EXIT_MISSING
    except PhlError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
