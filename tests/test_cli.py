"""Command-line surface: subcommands, exit codes, output formats."""
import decimal
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ffe import classify, cli, verify
from ffe.classify import lower_bound, special_function
from ffe.cli import EXIT_BUDGET, EXIT_CONFORMANCE, EXIT_INPUT, EXIT_OK, main
from ffe.fpops import random_lfp
from ffe.linalg import trace_powers
from ffe.polynomials import Polynomial, admissible_monomials, parse_polynomial
from ffe.ring import FiniteFunction

from scaffolding import emit_function


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# JSON nested far past the interpreter's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


def assert_input_error(code, out, err):
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("input error:") and len(err.splitlines()) == 1


class TestClassify:
    def test_d3_summary_line(self, capsys):
        code, out, _ = run(capsys, "classify", "--d", "3", "--lu")
        assert code == EXIT_OK
        assert "d=3 scope=all lfp_classes=9 lu_classes=6" in out

    def test_d2(self, capsys):
        code, out, _ = run(capsys, "classify", "--d", "2", "--lu")
        assert code == EXIT_OK
        assert "lfp_classes=2 lu_classes=2" in out

    def test_budget_exit(self, capsys):
        code, _, err = run(capsys, "classify", "--d", "5")
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize("d", [5, 8, 12])
    def test_polynomial_scope_budget_exit(self, capsys, d):
        # scope=teh passes the all-states budget and stops at the index's
        # polynomial enumeration budget
        code, out, err = run(capsys, "classify", "--d", str(d), "--scope", "teh")
        assert code == EXIT_BUDGET and out == "" and "budget" in err

    @pytest.mark.parametrize("scope", ["all", "teh"])
    @pytest.mark.parametrize("d", [1, 0, -2, 13])
    def test_out_of_range_d_rejected(self, capsys, d, scope):
        code, out, err = run(capsys, "classify", "--d", str(d), "--scope", scope)
        assert code == EXIT_INPUT and out == "" and "input error" in err

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        code, _, _ = run(capsys, "classify", "--d", "3", "--lu", "--out", str(path))
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert len(doc["classes"]) == 9

    @pytest.mark.parametrize("where", ["missing-dir/cat.json", "."])
    def test_unwritable_out(self, capsys, tmp_path, where):
        # a path in a missing directory, and a directory
        out_path = tmp_path / where
        code, out, err = run(capsys, "classify", "--d", "2", "--out", str(out_path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("input error:") and str(out_path) in err
        assert len(err.splitlines()) == 1

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "cat.csv"
        code, _, _ = run(
            capsys, "classify", "--d", "3", "--out", str(path), "--format", "csv"
        )
        assert code == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("lfp_class,") and len(lines) == 10


class TestQuery:
    def test_d0_rejected(self, capsys):
        code, out, err = run(capsys, "query", "--d", "0", "--f", "x")
        assert code == EXIT_INPUT and out == "" and "input error" in err

    def test_fourier_hadamard(self, capsys):
        code, out, _ = run(capsys, "query", "--d", "4", "--f", "x*y", "--ops", "hadamard,schmidt")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {"hadamard": True, "schmidt": 4}

    def test_s6_not_polynomial(self, capsys):
        code, out, _ = run(capsys, "query", "--d", "6", "--f", "s6", "--ops", "is-poly,hadamard")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["is-poly"] is False and doc["hadamard"] is True

    def test_zero_schmidt(self, capsys):
        code, out, _ = run(capsys, "query", "--d", "3", "--f", "0", "--ops", "schmidt")
        assert json.loads(out)["schmidt"] == 1

    def test_matrix_literal(self, capsys):
        literal = '{"d":2,"n":2,"values":[[0,0],[0,1]]}'
        code, out, _ = run(capsys, "query", "--d", "2", "--f", literal, "--ops", "hadamard")
        assert code == EXIT_OK and json.loads(out)["hadamard"] is True

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "query", "--d", "3", "--f", "x*z", "--ops", "it")
        assert code == EXIT_INPUT and "input error" in err

    def test_trailing_caret_rejected(self, capsys):
        code, out, err = run(capsys, "query", "--d", "3", "--f", "x^", "--ops", "it")
        assert code == EXIT_INPUT and out == "" and "input error" in err

    def test_named_state_wrong_d(self, capsys):
        code, _, err = run(capsys, "query", "--d", "4", "--f", "s6", "--ops", "it")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("name,d,fixed_d", [("s6", 4, 6), ("f32", 4, 6), ("f22", 6, 4), ("h4", 3, 4)])
    def test_named_state_wrong_d_names_the_alias(self, capsys, name, d, fixed_d):
        code, out, err = run(capsys, "query", "--d", str(d), "--f", name)
        assert_input_error(code, out, err)
        assert err == f"input error: {name} is a d={fixed_d} construction\n"

    @pytest.mark.parametrize("literal", [
        '{"d":"3","n":1,"values":[0,1,2]}',
        '{"d":3.0,"n":1,"values":[0,1,2]}',
        '{"d":3,"n":"2","values":[0,1,2,0,1,2,0,1,2]}',
        '{"d":3,"n":1,"values":5}',
        '{"d":3,"values":[[]]}',
        '{"d":2,"n":1,"values":[0,true]}',
        '{"d":2,"values":[[0,1],[1,false]]}',
    ])
    def test_malformed_function_json(self, capsys, literal):
        code, out, err = run(capsys, "query", "--d", "3", "--f", literal, "--ops", "is-poly")
        assert code == EXIT_INPUT and out == "" and "input error" in err

    def test_deeply_nested_function_json(self, capsys):
        literal = '{"d":2,"values":' + DEEP + "}"
        assert_input_error(*run(capsys, "query", "--d", "2", "--f", literal))

    @pytest.mark.parametrize("n", [1, 3])
    def test_default_ops_reject_n_other_than_2(self, capsys, n):
        # rowsig/colsig and haagerup are defined on the image matrix only
        literal = emit_function(FiniteFunction.from_callable(3, n, sum))
        code, out, err = run(capsys, "query", "--d", "3", "--f", literal)
        assert code == EXIT_INPUT and out == "" and "input error" in err
        code, out, _ = run(capsys, "query", "--d", "3", "--f", literal, "--ops", "it,is-poly")
        assert code == EXIT_OK and json.loads(out)["is-poly"] is True

    def test_is_poly_random_state_d11_n3(self, capsys):
        # every function over a prime field is a polynomial
        rng = random.Random(11)
        f = FiniteFunction(11, 3, [rng.randrange(11) for _ in range(11**3)])
        start = time.monotonic()
        code, out, _ = run(capsys, "query", "--d", "11", "--f", emit_function(f), "--ops", "is-poly")
        elapsed = time.monotonic() - start
        doc = json.loads(out)
        assert code == EXIT_OK and doc["is-poly"] is True
        assert parse_polynomial(doc["polynomial"], 11, 3).to_function() == f
        assert elapsed < 10, f"(11, 3) is-poly took {elapsed:.1f}s"

    def test_is_poly_dense_normal_form_d9_n4(self, capsys):
        # a normal form with every admissible monomial; moving one value
        # adds a point indicator, which is no polynomial over Z_9 (its third
        # difference along one axis is -1, not divisible by 3! = 2 * 3)
        rng = random.Random(9)
        poly = Polynomial(9, 4, {
            exps: rng.randrange(1, modulus)
            for exps, modulus in admissible_monomials(3, 2, 4)
        })
        f = poly.to_function()
        moved = list(f.values)
        moved[rng.randrange(len(moved))] += 1
        for g, expected in [(f, poly.to_text()), (FiniteFunction(9, 4, moved), None)]:
            start = time.monotonic()
            code, out, _ = run(capsys, "query", "--d", "9", "--f", emit_function(g), "--ops", "is-poly")
            elapsed = time.monotonic() - start
            doc = json.loads(out)
            assert code == EXIT_OK and doc["is-poly"] is (expected is not None)
            assert doc.get("polynomial") == expected
            assert elapsed < 10, f"(9, 4) is-poly took {elapsed:.1f}s"

    def test_is_poly_d11_n4(self, capsys):
        # over Z_11 every function is a polynomial: a random state, and a
        # dense normal form with every admissible monomial
        rng = random.Random(11)
        poly = Polynomial(11, 4, {
            exps: rng.randrange(1, modulus)
            for exps, modulus in admissible_monomials(11, 1, 4)
        })
        random_state = FiniteFunction(11, 4, [rng.randrange(11) for _ in range(11**4)])
        for f, expected in [(random_state, None), (poly.to_function(), poly.to_text())]:
            start = time.monotonic()
            code, out, _ = run(capsys, "query", "--d", "11", "--f", emit_function(f), "--ops", "is-poly")
            elapsed = time.monotonic() - start
            doc = json.loads(out)
            assert code == EXIT_OK and doc["is-poly"] is True
            assert parse_polynomial(doc["polynomial"], 11, 4).to_function() == f
            assert expected is None or doc["polynomial"] == expected
            assert elapsed < 10, f"(11, 4) is-poly took {elapsed:.1f}s"


class TestEquiv:
    def test_d0_rejected(self, capsys):
        code, out, err = run(capsys, "equiv", "--d", "0", "--f", "x", "--g", "x")
        assert code == EXIT_INPUT and out == "" and "input error" in err

    def test_f32_lfp_equivalent_to_fourier(self, capsys):
        code, out, _ = run(capsys, "equiv", "--d", "6", "--f", "x*y", "--g", "f32", "--mode", "lfp")
        assert code == EXIT_OK and out.startswith("equivalent")

    def test_f4_vs_f22_lfp_and_lu(self, capsys):
        code, out, _ = run(capsys, "equiv", "--d", "4", "--f", "x*y", "--g", "f22", "--mode", "lfp")
        assert code == EXIT_OK and out.startswith("inequivalent")
        code, out, _ = run(capsys, "equiv", "--d", "4", "--f", "x*y", "--g", "f22", "--mode", "lu")
        assert code == EXIT_OK and out.startswith("equivalent")

    def test_self_equivalence(self, capsys):
        code, out, _ = run(capsys, "equiv", "--d", "3", "--f", "x^2*y", "--g", "x^2*y")
        assert code == EXIT_OK and out.startswith("equivalent")

    @pytest.mark.parametrize("d", range(2, 7))
    def test_modes_agree_with_per_state_trace_powers(self, capsys, d):
        # moved is an LFP image of f, so equivalent in both modes; other has
        # different trace powers, so it is inequivalent in both
        rng = random.Random(500 + d)
        f = FiniteFunction(d, 2, [rng.randrange(d) for _ in range(d * d)])
        moved, _ = random_lfp(d, 2, 600 + d).lift().apply(f)
        other = f
        while trace_powers(other) == trace_powers(f):
            other = FiniteFunction(d, 2, [rng.randrange(d) for _ in range(d * d)])
        assert trace_powers(moved) == trace_powers(f)
        witnesses = {"lu": "exact trace-power signature comparison",
                     "lfp": "orbit membership of the dephased representative"}
        for g, expected in [(moved, "equivalent"), (other, "inequivalent")]:
            for mode, witness in witnesses.items():
                code, out, _ = run(
                    capsys, "equiv", "--d", str(d), "--f", emit_function(f),
                    "--g", emit_function(g), "--mode", mode,
                )
                assert code == EXIT_OK and out == f"{expected} ({witness})\n"

    def test_lfp_budget_exit_at_d7(self, capsys, monkeypatch):
        # the canonical-form search stops past its state budget, patched down
        # here so that an ordinary pair exceeds it; no orbit scan starts
        def no_scan(*args):
            raise AssertionError("the orbit scan started")

        monkeypatch.setattr(classify, "_permutations", no_scan)
        monkeypatch.setattr(classify, "CANONICAL_STATE_BUDGET", 10)
        code, out, err = run(capsys, "equiv", "--d", "7", "--f", "x^2*y", "--g", "2*x^2*y", "--mode", "lfp")
        assert code == EXIT_BUDGET and out == ""
        assert "budget exceeded" in err

    @pytest.mark.parametrize("d", [7, 12])
    @pytest.mark.parametrize("kind", ["random", "fourier", "zero"])
    def test_lfp_beyond_orbit_enumeration(self, capsys, d, kind):
        # (d!)^2 images is far beyond enumeration at these d; the canonical
        # form answers in milliseconds, so the bound is generous
        rng = random.Random(d)
        if kind == "random":
            f = FiniteFunction(d, 2, [rng.randrange(d) for _ in range(d * d)])
        elif kind == "fourier":
            f = special_function("fourier", d)
        else:
            f = FiniteFunction.zero(d, 2)
        moved, _ = random_lfp(d, 2, d).lift().apply(f)
        other = FiniteFunction(d, 2, [rng.randrange(d) for _ in range(d * d)])
        # an LU invariant tells them apart, so they are not LFP-equivalent
        assert trace_powers(other) != trace_powers(f)
        for g, expected in [(moved, "equivalent"), (other, "inequivalent")]:
            start = time.monotonic()
            code, out, _ = run(
                capsys, "equiv", "--d", str(d), "--f", emit_function(f),
                "--g", emit_function(g), "--mode", "lfp",
            )
            elapsed = time.monotonic() - start
            assert code == EXIT_OK and out.split()[0] == expected
            assert elapsed < 10, f"d={d} {kind} equiv took {elapsed:.1f}s"


class TestStabilizers:
    def test_multilinear_internal_true(self, capsys):
        code, out, _ = run(
            capsys, "stabilizers", "--d", "3", "--f", "x*y",
            "--check-internal", "--check-unique",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert all(s["internal"] for s in doc["stabilizers"])
        assert doc["fixed_space_dim"] == 1

    def test_x2y_internal_false_at_site_0(self, capsys):
        code, out, _ = run(capsys, "stabilizers", "--d", "3", "--f", "x^2*y", "--check-internal")
        doc = json.loads(out)
        assert doc["stabilizers"][0]["internal"] is False

    def test_zero_function_bare_cycles(self, capsys):
        code, out, _ = run(capsys, "stabilizers", "--d", "3", "--f", "0")
        doc = json.loads(out)
        assert all(set(s["phase_fn"]) == {0} for s in doc["stabilizers"])

    def test_non_cycle_rejected(self, capsys):
        code, _, err = run(
            capsys, "stabilizers", "--d", "3", "--f", "x*y",
            "--cycles", "[[0,1,2],[1,2,0]]",
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "cycles", ["5", "[5]", "[[1.0,2,0],[1,2,0]]", "[[true,2,false],[1,2,0]]"]
    )
    def test_non_integer_cycles_rejected(self, capsys, cycles):
        # the bools and the float sort to a valid permutation of range(3)
        code, out, err = run(
            capsys, "stabilizers", "--d", "3", "--f", "x*y", "--cycles", cycles,
        )
        assert code == EXIT_INPUT and out == "" and "input error" in err

    def test_deeply_nested_cycles(self, capsys):
        assert_input_error(*run(capsys, "stabilizers", "--d", "3", "--f", "x*y", "--cycles", DEEP))

    @pytest.mark.parametrize("d", [5, 12])
    def test_four_sites_unique(self, capsys, d):
        # every supported shape up to 12^4 points is checked exactly; (5, 4)
        # once exited 1 over a 256-point budget. The bound is generous: the
        # (12, 4) call takes about 0.25 s
        rng = random.Random(d)
        f = FiniteFunction(d, 4, [rng.randrange(d) for _ in range(d**4)])
        start = time.monotonic()
        code, out, _ = run(
            capsys, "stabilizers", "--d", str(d), "--f", emit_function(f), "--check-unique",
        )
        elapsed = time.monotonic() - start
        assert code == EXIT_OK
        assert json.loads(out)["fixed_space_dim"] == 1
        assert elapsed < 30, f"(d, n) = ({d}, 4) fixed space took {elapsed:.1f}s"


class TestLowerBound:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "lower-bound", "--d", "3", "--n", "2")
        assert code == EXIT_OK and out.strip() == "3"
        import math

        code, out, _ = run(capsys, "lower-bound", "--d", "7", "--n", "2")
        assert out.strip() == str(-(-(7**36) // math.factorial(7) ** 2))

    def test_d2_n1(self, capsys):
        code, out, _ = run(capsys, "lower-bound", "--d", "2", "--n", "1")
        assert code == EXIT_OK and out.strip() == "1"

    def test_largest_bound_printed_in_full(self, capsys):
        import math

        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "lower-bound", "--d", "12", "--n", "4")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        closed = -(-(12 ** (12**4 - 4 * 11 - 1)) // math.factorial(12) ** 4)
        digits = out.strip()
        assert len(digits) == 22295
        # compare in 1000-digit pieces: str() and int() of the whole value
        # would pass the interpreter's int-to-str digit limit
        pieces = [digits[max(0, i - 1000):i] for i in range(len(digits), 0, -1000)]
        for piece in pieces:
            closed, low = divmod(closed, 10 ** len(piece))
            assert int(piece) == low
        assert closed == 0

    def test_digits_match_exact_bound(self, capsys):
        for d in range(2, 13):
            for n in range(1, 5):
                code, out, _ = run(capsys, "lower-bound", "--d", str(d), "--n", str(n))
                assert code == EXIT_OK
                assert out == f"{decimal.Decimal(lower_bound(d, n))}\n", (d, n)

    @pytest.mark.parametrize("d,n", [(1, 2), (3, 0), (13, 2)])
    def test_out_of_range_rejected(self, capsys, d, n):
        code, out, err = run(capsys, "lower-bound", "--d", str(d), "--n", str(n))
        assert code == EXIT_INPUT and out == "" and "outside supported range" in err


class TestErrorBound:
    """A message that echoes a long input is cut, and ends with its length."""

    @pytest.mark.parametrize("argv,head,length", [
        (["stabilizers", "--d", "3", "--f", "x*y", "--cycles", json.dumps([[0] * 50_000])],
         "input error: not a permutation of range(3): (0, 0, 0, ", 150_031),
        (["query", "--d", "3", "--f", "x" + "^2" * 2000],
         "input error: bad exponent in 'x^2^2^2", 4_019),
        (["query", "--d", "3", "--f", "x*y", "--ops", "a" * 100_000],
         "input error: unknown query op 'aaa", 100_019),
        (["query", "--d", "3", "--f", "z" * 100_000],
         "input error: unknown variable 'zzz", 100_019),
        (["query", "--d", "9" * 100_000, "--f", "x"],
         "ffe query: error: argument --d: invalid int value: '999", 100_035),
    ], ids=["cycle", "carets", "query-op", "variable", "usage-int"])
    def test_long_message_cut(self, capsys, argv, head, length):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT and out == ""
        line = err.splitlines()[-1]
        assert line.startswith(head) and line.endswith(f"... ({length} characters)")
        assert len(line) <= cli.MAX_ERROR_LINE


class TestLongDigits:
    """Numbers in polynomial text past Python's 4,300-digit int() limit."""

    NINES = "9" * 100_000  # 3 mod 4

    def test_long_coefficient(self, capsys):
        code, out, err = run(capsys, "query", "--d", "4", "--f", self.NINES + "*x*y")
        assert code == EXIT_OK and err == ""
        assert out == run(capsys, "query", "--d", "4", "--f", "3*x*y")[1]

    def test_long_exponent(self, capsys):
        # x^e is x^3 over Z_4 for every odd e >= 3
        code, out, err = run(capsys, "query", "--d", "4", "--f", "x^" + "1" * 5000 + "*y")
        assert code == EXIT_OK and err == ""
        assert out == run(capsys, "query", "--d", "4", "--f", "x^3*y")[1]

    @pytest.mark.parametrize("mode", ["lfp", "lu"])
    @pytest.mark.parametrize("f,answer", [("3*x*y", "equivalent"), ("2*x*y", "inequivalent")])
    def test_long_coefficient_in_equiv(self, capsys, mode, f, answer):
        code, out, err = run(
            capsys, "equiv", "--d", "4", "--f", f, "--g", self.NINES + "*x*y", "--mode", mode,
        )
        assert code == EXIT_OK and err == "" and out.split(" (")[0] == answer

    # json.loads refuses an integer past the int-to-str digit limit; the
    # error names the limit, not the interpreter call that would lift it
    LONG_INT = "1" * 5000

    def assert_digit_limit_error(self, code, out, err, what):
        assert_input_error(code, out, err)
        limit = sys.get_int_max_str_digits()
        assert err == f"input error: {what} holds an integer of more than {limit} digits\n"

    def test_long_integer_in_function_json(self, capsys):
        literal = '{"d":3,"n":1,"values":[' + self.LONG_INT + ",0,0]}"
        self.assert_digit_limit_error(*run(capsys, "query", "--d", "3", "--f", literal),
                                      "function JSON")

    def test_long_integer_in_cycles(self, capsys):
        cycles = "[[" + self.LONG_INT + "]]"
        self.assert_digit_limit_error(
            *run(capsys, "stabilizers", "--d", "3", "--f", "x*y", "--cycles", cycles),
            "--cycles JSON",
        )

    def test_long_integer_in_fixture(self, capsys, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text('{"classes": [{"index": ' + self.LONG_INT + "}]}")
        self.assert_digit_limit_error(
            *run(capsys, "verify-appendix", "--d", "4", "--fixtures", str(path)),
            "fixture for d=4",
        )


class TestJsonLiteralD:
    LITERAL = '{"d":3,"n":2,"values":[[0,1,2],[1,2,0],[2,0,1]]}'

    @pytest.mark.parametrize("argv", [
        ["query", "--d", "4", "--f", LITERAL],
        ["equiv", "--d", "6", "--f", LITERAL, "--g", LITERAL],
        ["equiv", "--d", "3", "--f", LITERAL, "--g", '{"d":2,"n":2,"values":[[0,0],[0,1]]}'],
        ["stabilizers", "--d", "5", "--f", LITERAL],
    ])
    def test_mismatch_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT and out == "" and "input error" in err and "--d" in err

    def test_match_accepted(self, capsys):
        code, out, _ = run(capsys, "query", "--d", "3", "--f", self.LITERAL, "--ops", "schmidt")
        assert code == EXIT_OK and json.loads(out) == {"schmidt": 1}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["query", "--d", "x", "--f", "x*y"],
        ["verify-appendix", "--d", "5"],
        ["no-such-command"],
        [],
        ["query", "--d", "3"],
        ["lower-bound", "--d", "3", "--m", "2"],
        ["classify", "--d", "3", "--threads", "2"],
    ])
    def test_exit_input_with_usage(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("usage: ffe") and "error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["query", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ffe")


class TestSharedParser:
    ARGVS = [
        ["classify", "--d", "3", "--lu"],
        ["query", "--d", "4", "--f", "x*y^2 + x^2*y + 2*x*y"],
        ["query", "--d", "6", "--f", "s6", "--ops", "sv,hadamard,is-poly"],
        ["equiv", "--d", "3", "--f", "x*y", "--g", "2*x*y", "--mode", "lfp"],
        ["equiv", "--d", "4", "--f", "x*y", "--g", "f22", "--mode", "lu"],
        ["stabilizers", "--d", "3", "--f", "x^2*y", "--check-unique", "--check-internal"],
        ["stabilizers", "--d", "3", "--f", "x*y", "--cycles", "[[1,2,0],[2,0,1]]"],
        ["lower-bound", "--d", "5", "--n", "3"],
        ["lower-bound", "--d", "4"],
        ["verify-appendix", "--d", "3"],
        ["query", "--d", "x", "--f", "x*y"],
        ["classify", "--d", "5"],
        ["query", "--d", "3", "--f", "x^"],
        ["query", "--d", "4", "--f", '{"d":3,"n":2,"values":[[0,0,0],[0,1,2],[0,2,1]]}'],
    ]

    def test_parser_built_on_first_call_only(self):
        # the shared parser must not be built at import: a fresh interpreter
        # that imports the CLI has built none
        probe = "import ffe.cli as c; print(c._parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.strip() == "0"
        assert cli._parser() is cli._parser()

    def test_interleaved_calls_match_fresh_parser(self, capsys, monkeypatch):
        # every subcommand, a usage error, a budget error and a bad literal,
        # run twice over in one process through the shared parser, answer
        # exactly as a parser built for the call does
        def call(argv):
            # classify reports its run time, the one output that may differ
            code, out, err = run(capsys, *argv)
            return code, re.sub(r"elapsed=\S+", "elapsed=", out), err

        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            fresh = [call(argv) for argv in self.ARGVS]
        assert {code for code, _, _ in fresh} == {EXIT_OK, EXIT_INPUT, EXIT_BUDGET}
        for order in (self.ARGVS, self.ARGVS[::-1]):
            shared = {tuple(argv): call(argv) for argv in order}
            assert [shared[tuple(argv)] for argv in self.ARGVS] == fresh


def _moved(classes):
    # the last member of listed class 1 joins listed class 2
    classes[2]["members"].append(classes[1]["members"].pop())


def _shifted(classes):
    classes[1]["singular_values"][0] += 0.01


def _dropped(classes):
    del classes[1]


D4_NOTE = (
    "note: summary text says 15 polynomial-scope classes; the per-class listing "
    "has 17, which the computation reproduces"
)


class TestVerifyAppendix:
    @pytest.mark.parametrize("d,perturb,lines", [
        (3, _moved, ["d=3 conformance checks: 35/39 passed", "MISMATCH: class_1_size",
                     "MISMATCH: class_2_single_orbit", "MISMATCH: class_2_distinct",
                     "MISMATCH: class_2_size"]),
        (3, _shifted, ["d=3 conformance checks: 38/39 passed",
                       "MISMATCH: class_1_singular_values"]),
        (3, _dropped, ["d=3 conformance checks: 34/35 passed", "MISMATCH: class_count"]),
        (4, _moved, ["d=4 conformance checks: 52/54 passed", D4_NOTE,
                     "MISMATCH: class_2_single_orbit", "MISMATCH: listing_covers_all_classes"]),
        (4, _shifted, ["d=4 conformance checks: 54/55 passed", D4_NOTE,
                       "MISMATCH: class_1_singular_values"]),
        (4, _dropped, ["d=4 conformance checks: 51/52 passed", D4_NOTE,
                       "MISMATCH: listing_covers_all_classes"]),
    ], ids=["d3-moved", "d3-shifted", "d3-dropped", "d4-moved", "d4-shifted", "d4-dropped"])
    def test_mismatch_exits_3(self, capsys, tmp_path, d, perturb, lines):
        data = verify.load_fixture(d)
        perturb(data["classes"])
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify-appendix", "--d", str(d), "--fixtures", str(path))
        assert code == EXIT_CONFORMANCE and err == ""
        assert out.splitlines() == lines

    def test_d3_conformance(self, capsys):
        code, out, _ = run(capsys, "verify-appendix", "--d", "3")
        assert code == EXIT_OK
        assert "conformance checks" in out and "MISMATCH" not in out

    def test_missing_fixture(self, capsys):
        code, _, err = run(capsys, "verify-appendix", "--d", "3", "--fixtures", "/no/such.json")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize(
        "fixture",
        [
            {"classes": [{"index": 0}]},
            [{"index": 0, "members": [], "singular_values": []}],
            {"classes": {"index": 0}},
            {"classes": [{"index": 0, "singular_values": [1.0], "members": []}]},
            {"classes": [{"index": 0, "singular_values": [1.0], "members": [{"matrix": [0, 0, 0]}]}]},
            {"classes": [{"index": 0, "singular_values": [1.0], "members": [{"polynomial": 0}]}]},
            {"classes": [{"index": 0, "singular_values": ["1"], "members": [{}]}]},
            # ragged rows of nine entries, which would flatten to a 3 x 3 matrix
            {"classes": [{"index": 0, "singular_values": [1.0],
                          "members": [{"matrix": [[0, 0, 0, 0], [0, 0], [0, 0, 0]]}]}]},
            "not json",
        ],
    )
    def test_malformed_fixture(self, capsys, tmp_path, d, fixture):
        path = tmp_path / "fixture.json"
        path.write_text(fixture if isinstance(fixture, str) else json.dumps(fixture))
        assert_input_error(*run(capsys, "verify-appendix", "--d", str(d), "--fixtures", str(path)))

    def test_deeply_nested_fixture(self, capsys, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text('{"classes": ' + DEEP + "}")
        assert_input_error(*run(capsys, "verify-appendix", "--d", "3", "--fixtures", str(path)))

    def test_fifo_fixture(self, capsys, tmp_path):
        # opening a FIFO for reading would block until a writer opens it
        path = tmp_path / "fixture.fifo"
        os.mkfifo(path)
        assert_input_error(*run(capsys, "verify-appendix", "--d", "3", "--fixtures", str(path)))

    def test_oversized_fixture(self, capsys, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_bytes(b" " * (verify.MAX_FIXTURE_BYTES + 1))
        assert_input_error(*run(capsys, "verify-appendix", "--d", "3", "--fixtures", str(path)))

    def test_fixture_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify-appendix", "--d", "3", "--fixtures", str(tmp_path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("input error:") and str(tmp_path) in err
        assert len(err.splitlines()) == 1
