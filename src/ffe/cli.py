"""Command-line surface: classification runs, single-state queries,
equivalence and stabilizer checks, lower bounds, and reference-table
verification.

Exit codes: 0 success, 1 input error (usage errors included), 2 budget
exceeded, 3 conformance mismatch.  Standard output is machine-parseable;
errors go to stderr, each cut to MAX_MESSAGE characters.
"""
from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import sys

from . import classify as classify_mod
from . import linalg, polynomials, stabilizer, verify
from .classify import NAMED_FIXED_D, BudgetError, classify_lfp, classify_lu, special_function
from .polynomials import EnumerationTooLarge
from .ring import ArityError, check_shape, parse_function, read_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_CONFORMANCE = 3

# The most characters of an error message printed.  A longer message, which
# echoes a long input, is cut there and ends with its length, so no error
# line passes MAX_ERROR_LINE characters.
MAX_MESSAGE = 300
MAX_ERROR_LINE = 400

# the names of --f for the named states of classify.special_function
_NAMED = {"s6": "s6_fixture", "f32": "f32_fixture", "f22": "f22", "h4": "h4", "fourier": "fourier"}


def _clip(message):
    """str(message), cut to MAX_MESSAGE characters and its length if longer."""
    message = str(message)
    if len(message) <= MAX_MESSAGE:
        return message
    return f"{message[:MAX_MESSAGE]}... ({len(message)} characters)"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are clipped like the others; its
    subparsers are of the same class."""

    def error(self, message):
        super().error(_clip(message))


def parse_function_literal(text, d):
    """Polynomial string, image-matrix JSON (leading '{'), or a named state,
    as a function over Z_d: a JSON or named state of another d is rejected."""
    text = text.strip()
    if text.startswith("{"):
        f = parse_function(text)
        if f.d != d:
            raise ArityError(f"function JSON has d={f.d}, but --d is {d}")
        return f
    if text in _NAMED:
        fixed_d = NAMED_FIXED_D.get(_NAMED[text], d)
        if d != fixed_d:
            raise ValueError(f"{text} is a d={fixed_d} construction")
        return special_function(_NAMED[text], d)
    return polynomials.parse_polynomial(text, d, 2).to_function()


def cmd_classify(args):
    cat = classify_lfp(args.d, args.scope)
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
    if args.mode == "lfp":
        same = classify_mod.membership_check(f, g)
        witness = "orbit membership of the dephased representative"
    else:
        sigs = linalg.trace_power_coeffs([f.image(), g.image()], f.d).tolist()
        same = sigs[0] == sigs[1]
        witness = "exact trace-power signature comparison"
    print(f"{'equivalent' if same else 'inequivalent'} ({witness})")
    return EXIT_OK


def _parse_cycles(spec, d, n):
    if spec is None:
        return stabilizer.CycleSpec.plus_cycles(d, n)
    return stabilizer.CycleSpec(d, read_json(spec, "--cycles JSON"))


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


def _decimal_lower_bound(d, n):
    """classify.lower_bound(d, n) as an exact decimal.Decimal.

    str() of an int stops at the interpreter's int-to-str digit limit (4300 by
    default), which the bound passes (22,295 digits at d=12, n=4), and
    converting a large int to Decimal is quadratic in its digits. Computing
    the bound in decimal arithmetic avoids both; the context traps Inexact
    and Rounded, so any rounding raises instead of changing a digit.
    """
    check_shape(d, n)
    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded],
    )
    num = ctx.power(decimal.Decimal(d), decimal.Decimal(d**n - n * (d - 1) - 1))
    q, r = ctx.divmod(num, decimal.Decimal(math.factorial(d) ** n))
    return ctx.add(q, 1) if r else q


def cmd_lower_bound(args):
    print(_decimal_lower_bound(args.d, args.n))
    return EXIT_OK


def cmd_verify_appendix(args):
    try:
        report = verify.verify_appendix(args.d, args.fixtures)
    except FileNotFoundError as exc:
        print(f"fixture missing: {_clip(exc)}", file=sys.stderr)
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
    parser = _Parser(
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


@functools.cache
def _parser():
    # argparse builds a help formatter per argument, so the tree costs far
    # more than a parse; it is built on the first call and reused after it
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error and exits 2, which the CLI
        # reserves for an exceeded budget; --help exits 0 and stays an exit
        if not exc.code:
            raise
        return EXIT_INPUT
    try:
        return args.fn(args)
    except (BudgetError, EnumerationTooLarge) as exc:
        print(f"budget exceeded: {_clip(exc)}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        # ArityError, PermutationError, PolynomialParseError and malformed
        # JSON are all ValueErrors; the budget errors above are too, so
        # they must be caught first.  An OSError is a --out or --fixtures
        # path that cannot be written or read.
        print(f"input error: {_clip(exc)}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
