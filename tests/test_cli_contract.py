"""A generated contract for the command line.

Each example draws a valid argument list for one subcommand from the
library's own grammar (polynomial text, JSON functions, named states, cycle
lists, fixture files), then mutates up to two of its arguments: bounds ± 1,
other types, deep nesting, long repeats, huge integers, empty and non-ASCII
strings, a dropped or a repeated argument.  No thread or process count is
ever drawn.  Whatever the input, `ffe` must:

- exit with a documented code, 0, 1, 2 or 3, and raise nothing (so print no
  traceback);
- on exit 1 or 2, print nothing on stdout and end stderr with a line of at
  most cli.MAX_ERROR_LINE characters;
- on exit 0, print stdout in the subcommand's format, as on exit 3 (a
  conformance mismatch prints its report);
- finish each example within DEADLINE.

The examples are derandomized and counted, so every run tries the same ones.
"""
import contextlib
import copy
import io
import json
import os
import random
import re
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ffe import cli, verify
from ffe.ring import FiniteFunction

from scaffolding import emit_function

DEADLINE = timedelta(seconds=5)
EXAMPLES = 40

NAMED = ["s6", "f32", "f22", "h4", "fourier"]
OPS = ["it", "rowsig", "haagerup", "schmidt", "sv", "hadamard", "is-poly"]
# d and n on and one past each end of their ranges, as text
SIZES = ["-1", "0", "1", "2", "3", "4", "5", "6", "12", "13"]


@st.composite
def polynomials(draw, d):
    """Polynomial text over x and y, coefficients and exponents unreduced."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = [str(draw(st.integers(0, 3 * d)))] if draw(st.booleans()) else []
        for name in "xy":
            e = draw(st.integers(0, 2 * d))
            factors += [name if e == 1 else f"{name}^{e}"] if e else []
        terms.append("*".join(factors) or "0")
    return " + ".join(terms)


@st.composite
def function_literals(draw, d):
    """A JSON function over Z_d, flat or nested, of at most 6^4 values."""
    n = draw(st.integers(1, 4 if d <= 6 else 2))
    rng = random.Random(draw(st.integers(0, 2**16)))
    f = FiniteFunction(d, n, [rng.randrange(d) for _ in range(d**n)])
    if draw(st.booleans()):
        return emit_function(f)
    return json.dumps({"d": d, "n": n, "values": list(f.values)})


def literals(d):
    return st.one_of(polynomials(d), function_literals(d), st.sampled_from(NAMED))


@st.composite
def cycle_lists(draw, d):
    """JSON of up to three d-cycles, one per site, each a random d-cycle."""
    cycles = []
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.permutations(range(d)))
        cycle = [0] * d
        for a, b in zip(order, order[1:] + order[:1]):
            cycle[a] = b
        cycles.append(cycle)
    return json.dumps(cycles)


def mutants(text):
    """text, or a value that stands in for it."""
    return st.one_of(
        st.just(text),
        st.sampled_from(SIZES + ["", " ", "1.5", "nan", "Infinity", "ÿ", "٣", "[]", "{}",
                                 "null", "true", "--help", "--bogus"]),
        st.sampled_from([4300, 4301, 100_000]).map(lambda k: "9" * k),
        st.sampled_from([2, 100, 5000]).map(lambda k: "[" * k + "]" * k),
        st.sampled_from([2, 1000]).map(lambda k: " + ".join([text] * k)[:200_000]),
        st.sampled_from([4301, 10_000]).map(lambda k: re.sub(r"\d+", "9" * k, text, count=1)),
        st.sampled_from(['NaN', 'Infinity', '1e999', '-1', '2.5', '"1"', 'true']).map(
            lambda v: re.sub(r"(?<=[\[,])\d+", v, text, count=1)),
        st.text(max_size=30),
    )


@st.composite
def mutated(draw, argv):
    argv = list(argv)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv) - 1))
        how = draw(st.sampled_from(["replace", "replace", "drop", "repeat"]))
        if how == "replace":
            argv[i] = draw(mutants(argv[i]))
        elif how == "drop":
            del argv[i]
        else:
            argv.insert(i, argv[i])
        if not argv:
            break
    return argv


@st.composite
def classify_argv(draw):
    argv = ["classify", "--d", draw(st.sampled_from(["2", "3", "4", "5", "6", "7", "12"])),
            "--scope", draw(st.sampled_from(["all", "teh"]))]
    argv += ["--lu"] if draw(st.booleans()) else []
    return argv


@st.composite
def query_argv(draw):
    d = draw(st.integers(2, 12))
    argv = ["query", "--d", str(d), "--f", draw(literals(d))]
    if draw(st.booleans()):
        argv += ["--ops", ",".join(draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=4)))]
    return argv


@st.composite
def equiv_argv(draw):
    d = draw(st.integers(2, 12))
    return ["equiv", "--d", str(d), "--f", draw(literals(d)), "--g", draw(literals(d)),
            "--mode", draw(st.sampled_from(["lfp", "lu"]))]


@st.composite
def stabilizers_argv(draw):
    d = draw(st.integers(2, 12))
    argv = ["stabilizers", "--d", str(d), "--f", draw(literals(d))]
    argv += ["--cycles", draw(cycle_lists(d))] if draw(st.booleans()) else []
    argv += [flag for flag in ("--check-unique", "--check-internal") if draw(st.booleans())]
    return argv


@st.composite
def lower_bound_argv(draw):
    return ["lower-bound", "--d", draw(st.sampled_from(SIZES)),
            "--n", draw(st.sampled_from(SIZES[:7]))]


def verify_argv(paths):
    @st.composite
    def argv(draw):
        d = draw(st.sampled_from(["3", "4", "6"]))
        out = ["verify-appendix", "--d", d]
        return out + (["--fixtures", draw(st.sampled_from(paths[d]))] if draw(st.booleans()) else [])
    return argv()


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    """Per d, fixture files: the packaged tables, a moved member, a dropped
    class, a malformed table, an oversized file, a directory, a missing path."""
    root = tmp_path_factory.mktemp("fixtures")
    oversized = root / "oversized.json"
    oversized.write_bytes(b" " * (verify.MAX_FIXTURE_BYTES + 1))
    (root / "malformed.json").write_text('{"classes": [{"index": 0}]}')
    paths = {}
    for d in (3, 4, 6):
        data = verify.load_fixture(d)
        moved, dropped = copy.deepcopy(data), copy.deepcopy(data)
        moved["classes"][2]["members"].append(moved["classes"][1]["members"].pop())
        del dropped["classes"][1]
        for name, content in (("shipped", data), ("moved", moved), ("dropped", dropped)):
            (root / f"d{d}-{name}.json").write_text(json.dumps(content))
        paths[str(d)] = [str(root / f"d{d}-{name}.json") for name in ("shipped", "moved", "dropped")]
        paths[str(d)] += [str(root / name) for name in ("malformed.json", "oversized.json", "missing")]
        paths[str(d)].append(str(root))
    return paths


# stdout on exit 0 (and on exit 3, for verify-appendix) matches its format
FORMATS = {
    "classify": lambda out: re.fullmatch(
        r"d=\d+ scope=(all|teh) lfp_classes=\d+ lu_classes=\d+ elapsed=[\d.]+\n", out),
    "query": lambda out: isinstance(json.loads(out), dict),
    "equiv": lambda out: re.fullmatch(r"(equivalent|inequivalent) \([^\n]*\)\n", out),
    "stabilizers": lambda out: isinstance(json.loads(out)["stabilizers"], list),
    "lower-bound": lambda out: re.fullmatch(r"\d+\n", out),
    "verify-appendix": lambda out: re.match(r"d=\d conformance checks: \d+/\d+ passed\n", out),
}

STRATEGIES = {
    "classify": lambda paths: classify_argv(),
    "query": lambda paths: query_argv(),
    "equiv": lambda paths: equiv_argv(),
    "stabilizers": lambda paths: stabilizers_argv(),
    "lower-bound": lambda paths: lower_bound_argv(),
    "verify-appendix": verify_argv,
}


def call(argv):
    """(exit code, stdout, stderr) of cli.main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            # --help prints the usage to stdout and exits 0
            assert exc.code in (0, None), argv
            return cli.EXIT_OK, "", err.getvalue()
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(STRATEGIES))
@settings(derandomize=True, database=None, max_examples=EXAMPLES, deadline=DEADLINE,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_cli_contract(fixture_paths, tmp_path_factory, command, data):
    argv = data.draw(STRATEGIES[command](fixture_paths).flatmap(mutated), label="argv")
    here = os.getcwd()
    # a mutant may spell an option that writes a file; it lands in a scratch directory
    os.chdir(tmp_path_factory.getbasetemp())
    try:
        code, out, err = call(argv)
    finally:
        os.chdir(here)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_BUDGET, cli.EXIT_CONFORMANCE)
    assert "Traceback" not in err
    if code in (cli.EXIT_INPUT, cli.EXIT_BUDGET):
        assert out == "" and err.endswith("\n")
        assert len(err.splitlines()[-1]) <= cli.MAX_ERROR_LINE
    elif out and argv[:1] == [command]:
        assert FORMATS[command](out), out[:200]
