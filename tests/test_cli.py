"""Command-line surface: subcommands, exit codes, output formats."""
import json
import random
import sys
import time

import pytest

from ffe import classify
from ffe.classify import special_function
from ffe.cli import EXIT_BUDGET, EXIT_CONFORMANCE, EXIT_INPUT, EXIT_OK, main
from ffe.fpops import random_lfp
from ffe.linalg import trace_powers
from ffe.ring import FiniteFunction, emit_function


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        code, _, _ = run(capsys, "classify", "--d", "3", "--lu", "--out", str(path))
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert len(doc["classes"]) == 9

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "cat.csv"
        code, _, _ = run(
            capsys, "classify", "--d", "3", "--out", str(path), "--format", "csv"
        )
        assert code == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("lfp_class,") and len(lines) == 10


class TestQuery:
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


class TestEquiv:
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

    @pytest.mark.parametrize("d,n", [(1, 2), (3, 0), (13, 2)])
    def test_out_of_range_rejected(self, capsys, d, n):
        code, out, err = run(capsys, "lower-bound", "--d", str(d), "--n", str(n))
        assert code == EXIT_INPUT and out == "" and "outside supported range" in err


class TestVerifyAppendix:
    def test_d3_conformance(self, capsys):
        code, out, _ = run(capsys, "verify-appendix", "--d", "3")
        assert code == EXIT_OK
        assert "conformance checks" in out and "MISMATCH" not in out

    def test_missing_fixture(self, capsys):
        code, _, err = run(capsys, "verify-appendix", "--d", "3", "--fixtures", "/no/such.json")
        assert code == EXIT_INPUT
