"""Command-line surface: classification runs, single-state queries,
equivalence and stabilizer checks, lower bounds, and reference-table
verification.

Exit codes: 0 success, 1 input error, 2 budget exceeded, 3 conformance
mismatch.  Standard output is machine-parseable; progress goes to stderr.
"""
from __future__ import annotations

import argparse
import decimal
import json
import sys
import time

from . import classify as classify_mod
from . import linalg, polynomials, stabilizer, verify
from .classify import BudgetError, classify_lfp, classify_lu, special_function
from .fpops import dephase
from .polynomials import EnumerationTooLarge, PolynomialParseError
from .ring import ArityError, FiniteFunction, PermutationError, function_from_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_CONFORMANCE = 3

_NAMED = {
    "s6": ("s6_fixture", 6),
    "f32": ("f32_fixture", 6),
    "f22": ("f22", 4),
    "h4": ("h4", 4),
    "fourier": ("fourier", None),
}


def parse_function_literal(text, d):
    """Polynomial string, image-matrix JSON (leading '{'), or a named state."""
    text = text.strip()
    if text.startswith("{"):
        return function_from_json(json.loads(text))
    if text in _NAMED:
        name, want_d = _NAMED[text]
        if want_d is not None and d != want_d:
            raise ArityError(f"named state {text!r} requires d={want_d}")
        return special_function(name, d)
    return polynomials.parse_polynomial(text, d, 2).to_function()


def cmd_classify(args):
    try:
        cat = classify_lfp(args.d, args.scope, threads=args.threads)
    except (BudgetError, EnumerationTooLarge) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if args.lu:
        cat = classify_lu(cat)
    if args.out:
        payload = cat.to_csv() if args.format == "csv" else cat.to_json()
        with open(args.out, "w") as fh:
            fh.write(payload)
    elapsed = cat.provenance.get("runtime_seconds", 0.0)
    print(
        f"d={args.d} scope={args.scope} lfp_classes={len(cat.orbits)} "
        f"lu_classes={len(cat.lu_classes) if args.lu else 0} elapsed={elapsed}"
    )
    return EXIT_OK


def cmd_query(args):
    f = parse_function_literal(args.f, args.d)
    ops = [op.strip() for op in args.ops.split(",") if op.strip()]
    out = {}
    for op in ops:
        if op == "it":
            out["it"] = classify_mod.invariant_It(f)
        elif op == "rowsig":
            out["rowsig"] = list(classify_mod.invariant_row_signature(f, 0))
            out["colsig"] = list(classify_mod.invariant_row_signature(f, 1))
        elif op == "haagerup":
            out["haagerup"] = list(classify_mod.haagerup_histogram(f))
        elif op == "schmidt":
            out["schmidt"] = linalg.schmidt_rank(f)
        elif op == "sv":
            out["sv"] = [round(v, 6) for v in linalg.singular_values(f)]
        elif op == "hadamard":
            out["hadamard"] = linalg.is_butson_hadamard(f)
        elif op == "is-poly":
            poly = polynomials.is_polynomial(f)
            out["is-poly"] = poly is not None
            if poly is not None:
                out["polynomial"] = poly.to_text()
        else:
            raise ArityError(f"unknown query op {op!r}")
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_equiv(args):
    f = parse_function_literal(args.f, args.d)
    g = parse_function_literal(args.g, args.d)
    if f.d != g.d:
        raise ArityError("mismatched d between the two states")
    if args.mode == "lfp":
        same = classify_mod.membership_check(f, g)
        witness = "orbit membership of the dephased representative"
    else:
        same = linalg.trace_powers(f) == linalg.trace_powers(g)
        witness = "exact trace-power signature comparison"
    print(f"{'equivalent' if same else 'inequivalent'} ({witness})")
    return EXIT_OK


def _parse_cycles(spec, d, n):
    if spec is None:
        return stabilizer.CycleSpec.plus_cycles(d, n)
    return stabilizer.CycleSpec(d, json.loads(spec))


def cmd_stabilizers(args):
    f = parse_function_literal(args.f, args.d)
    cycles = _parse_cycles(args.cycles, f.d, f.n)
    sset = stabilizer.complete_set(f, cycles)
    out = {"stabilizers": []}
    for i, (kappa, el) in enumerate(zip(cycles.cycles, sset.elements)):
        entry = {"site": i, "cycle": list(kappa), "phase_fn": list(el.phase_fn.values)}
        if args.check_internal:
            entry["internal"] = stabilizer.internally_commutes(f, i, kappa)
        out["stabilizers"].append(entry)
    if args.check_unique:
        out["fixed_space_dim"] = stabilizer.unique_fixed_space_dim(sset)
    print(json.dumps(out))
    return EXIT_OK


def cmd_lower_bound(args):
    # str() of an int stops at the interpreter's int-to-str digit limit (4300
    # by default), which the bound passes (22,295 digits at d=12, n=4); an
    # exact Decimal prints every digit and leaves that global limit alone
    print(decimal.Decimal(classify_mod.lower_bound(args.d, args.n)))
    return EXIT_OK


def cmd_verify_appendix(args):
    try:
        report = verify.verify_appendix(args.d, args.fixtures)
    except FileNotFoundError as exc:
        print(f"fixture missing: {exc}", file=sys.stderr)
        return EXIT_INPUT
    failed = [c["check"] for c in report["checks"] if not c["ok"]]
    total = len(report["checks"])
    print(f"d={args.d} conformance checks: {total - len(failed)}/{total} passed")
    if "note" in report:
        print(f"note: {report['note']}")
    for name in failed:
        print(f"MISMATCH: {name}")
    return EXIT_OK if report["ok"] else EXIT_CONFORMANCE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ffe",
        description="Finite-function-encoded states: classification and exact invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="enumerate LFP (and optionally LU) classes")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--scope", choices=["all", "teh"], default="all")
    p.add_argument("--lu", action="store_true")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--threads", type=int, help="worker threads (default: FFE_THREADS, else 1)")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("query", help="invariants of a single state")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--ops", default="it,rowsig,haagerup,schmidt,sv,hadamard,is-poly")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("equiv", help="local equivalence of two states")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--mode", choices=["lfp", "lu"], default="lfp")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("stabilizers", help="complete stabilizer set of a state")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--cycles", help="JSON list of per-site d-cycles")
    p.add_argument("--check-unique", action="store_true")
    p.add_argument("--check-internal", action="store_true")
    p.set_defaults(fn=cmd_stabilizers)

    p = sub.add_parser("lower-bound", help="LFP class-count lower bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(fn=cmd_lower_bound)

    p = sub.add_parser("verify-appendix", help="diff against reference tables")
    p.add_argument("--d", type=int, required=True, choices=[3, 4, 6])
    p.add_argument("--fixtures", help="fixture JSON path (default: packaged)")
    p.set_defaults(fn=cmd_verify_appendix)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetError, EnumerationTooLarge) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        ArityError,
        PermutationError,
        PolynomialParseError,
        json.JSONDecodeError,
        ValueError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
