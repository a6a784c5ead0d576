"""The three benchmark workloads: seeded inputs, one round of work, output checks.

Every workload is a closed loop in one process: the next operation starts when
the previous one has returned. A round is a fixed list of operations, so
every round of a run attempts the same operations. Calls into ffe go through
module and class attributes (ffe.classify.classify_lfp, ffe.cli.main), so a
traced run sees the wrappers installed by layertrace.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from importlib import resources

import numpy as np

import ffe.classify
import ffe.cli

import oracles

CATALOGUE_D = 4
VERIFY_DS = (3, 4)


def _cli(argv):
    """(exit code, stdout, seconds) of one in-process `ffe` call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ffe.cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def _fixture(d):
    ref = resources.files("ffe.data") / f"d{d}_{'classes' if d == 3 else 'teh_classes'}.json"
    return json.loads(ref.read_text())


class Round:
    __slots__ = ("latencies", "failed", "output")

    def __init__(self, latencies, failed, output):
        self.latencies = latencies
        self.failed = failed
        self.output = output


# ---------------------------------------------------------------- catalogue


class CatalogueD4All:
    """classify_lfp(4, "all") -> classify_lu -> to_json + to_csv: one request per round."""

    name = "catalogue-d4-all"
    min_ops = 1

    def make_inputs(self, seed):
        # classify_lfp(4, "all") takes no input; the seed changes nothing here.
        return None

    def run_round(self, inputs):
        start = time.perf_counter()
        cat = ffe.classify.classify_lfp(CATALOGUE_D, "all", threads=1)
        cat = ffe.classify.classify_lu(cat)
        payload = (cat.to_json(), cat.to_csv())
        return Round([time.perf_counter() - start], 0, payload)

    def check(self, inputs, output):
        return check_catalogue(CATALOGUE_D, *output)


def _poly_classes_expected(d):
    # The paper's per-class tables list exactly the classes that contain a
    # polynomial: all classes at d = 3, the polynomial scope at d = 4.
    return len(_fixture(d)["classes"])


def check_catalogue(d, json_text, csv_text):
    """Errors in a d-level all-states LU catalogue, found without ffe's own code."""
    errors = []
    data = json.loads(json_text)
    classes = data["classes"]
    reps = [np.array(c["representative"]) for c in classes]
    want = oracles.burnside_lfp_classes(d)
    if len(classes) != want:
        errors.append(f"{len(classes)} LFP classes, Burnside's lemma gives {want}")
    sizes = [c["orbit_size"] for c in classes]
    group = math.factorial(d) ** 2
    if sum(sizes) != d ** ((d - 1) ** 2):
        errors.append(f"orbit sizes sum to {sum(sizes)}, not {d ** ((d - 1) ** 2)}")
    if any(group % s for s in sizes):
        errors.append(f"an orbit size does not divide (d!)^2 = {group}")
    if not all(oracles.is_dephased(r) for r in reps):
        errors.append("a representative is not dephased")
    if len({r.tobytes() for r in reps}) != len(reps):
        errors.append("two classes share a representative")

    spectra = np.array([oracles.rho_spectrum(r, d) for r in reps])
    ids = [c["id"] for c in classes]
    numeric = {frozenset(ids[i] for i in g) for g in oracles.lu_groups(spectra)}
    if numeric != {frozenset(c["members"]) for c in data["lu_classes"]}:
        errors.append("LU classes differ from the grouping by numeric spectrum")
    if any(c["id"] not in c_lu["members"] for c_lu in data["lu_classes"]
           for c in classes if c.get("lu_class") == c_lu["id"]):
        errors.append("a class's lu_class field disagrees with the LU member lists")

    hadamard = sum(oracles.is_hadamard(r, d) for r in reps)
    if hadamard != oracles.HADAMARD_CLASSES[d]:
        errors.append(f"{hadamard} Butson Hadamard classes, want {oracles.HADAMARD_CLASSES[d]}")

    poly_classes = [c for c in classes if c["contains_polynomial"]]
    if len(poly_classes) != _poly_classes_expected(d):
        errors.append(f"{len(poly_classes)} classes contain polynomials, want {_poly_classes_expected(d)}")
    texts = [t for c in classes for t in c["polynomials"]]
    want_forms = oracles.constant_free_normal_forms(d)
    if len(texts) != want_forms or len(set(texts)) != want_forms:
        errors.append(f"{len(set(texts))} listed normal forms, Legendre's formula gives {want_forms}")
    if any(bool(c["polynomials"]) != c["contains_polynomial"] for c in classes):
        errors.append("contains_polynomial disagrees with the polynomial list")
    errors += _check_listed_polynomials(d, classes, spectra)

    for c, r in zip(classes, reps):
        sv = np.array(c["singular_values"])
        ref = oracles.schmidt_coefficients(r, d)
        # A zero Schmidt coefficient is the root of an eigenvalue of rho that
        # is zero up to round-off (about 1e-16), so it is checked squared.
        zero = ref < 1e-12
        if (np.abs(sv - ref)[~zero].max() > 1e-8 or (sv[zero] ** 2).max(initial=0) > 1e-15
                or abs((sv**2).sum() - 1) > 1e-8):
            errors.append(f"class {c['id']}: singular values disagree with numpy's SVD")
            break
        fingerprint = (c["I_t"], c["row_signature"], c["col_signature"], c["haagerup"])
        if fingerprint != (oracles.image_sum(r, d), oracles.axis_signature(r, d, 0),
                           oracles.axis_signature(r, d, 1), oracles.haagerup_counts(r, d)):
            errors.append(f"class {c['id']}: fingerprint disagrees with direct sums")
            break

    rows = csv_text.splitlines()[1:]
    if len(rows) != len(classes):
        errors.append(f"CSV has {len(rows)} rows for {len(classes)} classes")
    return errors


def _check_listed_polynomials(d, classes, spectra):
    """Each listed polynomial is a constant-free normal form in its class's LU spectrum."""
    (p, m), = oracles.prime_powers(d)
    bounds = oracles.normal_form_bounds(p, m)
    mats, rows = [], []
    for i, c in enumerate(classes):
        for text in c["polynomials"]:
            terms = oracles.parse_poly(text, d)
            if (0, 0) in terms or any(
                key not in bounds or not 0 < coeff < bounds[key] for key, coeff in terms.items()
            ):
                return [f"{text!r} is not a constant-free normal form"]
            mats.append(oracles.evaluate_poly(terms, d))
            rows.append(i)
    if not mats:
        return []
    a = np.exp(2j * np.pi * np.array(mats) / d)
    poly_spectra = np.linalg.eigvalsh(a @ a.conj().transpose(0, 2, 1) / d**2)
    if np.abs(poly_spectra - spectra[rows]).max() > 1e-8:
        return ["a listed polynomial lies outside its class's LU spectrum"]
    return []


# ---------------------------------------------------------------- verify


class VerifyAppendix:
    """`ffe verify-appendix --d 3` and `--d 4`: two requests per round."""

    name = "verify-appendix"
    min_ops = 1

    def make_inputs(self, seed):
        # The reference tables are the input; the seed changes nothing here.
        return [["verify-appendix", "--d", str(d)] for d in VERIFY_DS]

    def run_round(self, inputs):
        latencies, output = [], []
        for argv in inputs:
            code, out, seconds = _cli(argv)
            latencies.append(seconds)
            output.append((code, out))
        return Round(latencies, 0, output)

    def check(self, inputs, output):
        errors = []
        for d, (code, out) in zip(VERIFY_DS, output):
            n = len(_fixture(d)["classes"])
            # d=3: a class-count, partition-total and LU-count check plus four
            # per listed class; d=4: class count, coverage, merged listings and
            # LU count plus three per listed class.
            k = 4 * n + 3 if d == 3 else 3 * n + 4
            if code != 0:
                errors.append(f"verify-appendix --d {d} exited {code}")
            if f"d={d} conformance checks: {k}/{k} passed" not in out or "MISMATCH" in out:
                errors.append(f"verify-appendix --d {d} did not pass {k}/{k}: {out.splitlines()[:1]}")
        return errors


# ---------------------------------------------------------------- query mix

# (kind, d, n, count per round). The slowest kind, LFP membership of generic
# d=5 states, makes up 5 of 250 queries and no other kind comes within half
# its latency, so p99 falls near the middle of that kind: with 1000 queries,
# ten lie beyond p99 and twenty belong to the kind.
QUERY_MIX = (
    [("query", d, 2, 10) for d in range(3, 9)]
    + [("equiv-lu", d, 2, 10) for d in range(2, 7)]
    + [("equiv-lfp", d, 2, 8) for d in range(2, 5)]
    + [("equiv-lfp-small", 5, 2, 8), ("equiv-lfp-small", 6, 2, 8), ("equiv-lfp", 5, 2, 5)]
    + [("stabilizers", d, 2, 6) for d in range(2, 7)]
    + [("stabilizers", d, 3, 4) for d in range(2, 5)]
    + [("stabilizers", 5, 3, 1), ("stabilizers", 6, 3, 1), ("stabilizers", 4, 4, 1)]
    + [("lower-bound", None, None, 48)]
)

# Two valid inputs that exit 1 today: the bound has more digits than the
# interpreter converts to text by default. They run in every round, whatever
# the seed, and count as failed operations.
FAILING_LOWER_BOUNDS = ((11, 4), (12, 4))
# Shapes the seeded lower-bound draw picks from: every bound of at most 4000
# digits. (9, 4) and (10, 4) fail like the two above and are left out, so that
# the failure count does not depend on the seed.
LOWER_BOUND_SHAPES = [
    (d, n) for d in range(2, 13) for n in range(2, 5)
    if (d**n - n * (d - 1) - 1) * math.log10(d) < 4000
]

# Polynomials whose LFP orbits are small at d = 5 and d = 6 (25 to 450 dephased
# matrices), so single-orbit membership stays cheap there.
SMALL_ORBIT_POLYS = {
    5: [{(1, 1): 1}, {(1, 1): 2}, {(4, 1): 1}, {(4, 4): 1}, {(2, 1): 1}],
    6: [{(1, 1): 3}, {(1, 1): 2}, {(1, 1): 4}, {(2, 1): 2}, {(2, 1): 3}, {(2, 2): 2}, {(2, 2): 3}],
}


def _matrix_literal(m, d):
    return json.dumps({"d": d, "values": [list(map(int, row)) for row in m]})


def _random_matrix(d, rng):
    return [[rng.randrange(d) for _ in range(d)] for _ in range(d)]


def _make_query(kind, d, n, rng):
    """One query: its argv and what the checks need to know about its input."""
    q = {"kind": kind, "d": d, "n": n}
    if kind == "query":
        prime = oracles.prime_powers(d)[0][0] == d
        pick = rng.random()
        literal = None
        if pick < 0.2:
            # a Butson Hadamard matrix: c*x*y with c a unit, moved by a random LFP operation
            unit = rng.choice([c for c in range(1, d) if math.gcd(c, d) == 1])
            m = oracles.lfp_transform(oracles.evaluate_poly({(1, 1): unit}, d).tolist(), d, rng)
            q["poly"] = True if prime else (False if oracles.breaks_mod_p(m, d) else None)
        elif pick < 0.6:
            terms = oracles.random_polynomial(d, rng)
            m = oracles.evaluate_poly(terms, d).tolist()
            q["poly"] = True
            if rng.random() < 0.5:
                literal = oracles.poly_text(terms)
        elif prime:
            m = _random_matrix(d, rng)
            q["poly"] = True
        else:
            m = oracles.non_polynomial(d, rng)
            q["poly"] = False
        q["matrix"] = m
        q["argv"] = ["query", "--d", str(d), "--f", literal or _matrix_literal(m, d)]
    elif kind.startswith("equiv"):
        if kind == "equiv-lfp-small":
            g = oracles.lfp_transform(
                oracles.evaluate_poly(rng.choice(SMALL_ORBIT_POLYS[d]), d).tolist(), d, rng)
        else:
            g = _random_matrix(d, rng)
        q["same"] = rng.random() < 0.5
        if q["same"]:
            f = oracles.lfp_transform(g, d, rng)
        else:
            f = _random_matrix(d, rng)
            while not oracles.spectra_differ(f, g, d):
                f = _random_matrix(d, rng)
        mode = "lu" if kind == "equiv-lu" else "lfp"
        q["argv"] = ["equiv", "--d", str(d), "--f", _matrix_literal(f, d),
                     "--g", _matrix_literal(g, d), "--mode", mode]
    elif kind == "stabilizers":
        q["values"] = [rng.randrange(d) for _ in range(d**n)]
        q["argv"] = ["stabilizers", "--d", str(d), "--f",
                     json.dumps({"d": d, "n": n, "values": q["values"]}),
                     "--check-unique", "--check-internal"]
    elif kind == "lower-bound":
        q["argv"] = ["lower-bound", "--d", str(d), "--n", str(n)]
    return q


class QueryMix:
    """A seeded, shuffled batch of 250 single-state CLI calls per round."""

    name = "query-mix"
    min_ops = 1000

    def make_inputs(self, seed):
        rng = random.Random(seed)
        batch = []
        for kind, d, n, count in QUERY_MIX:
            for _ in range(count):
                if kind == "lower-bound":
                    d, n = rng.choice(LOWER_BOUND_SHAPES)
                batch.append(_make_query(kind, d, n, rng))
        batch += [_make_query("lower-bound", d, n, rng) for d, n in FAILING_LOWER_BOUNDS]
        rng.shuffle(batch)
        return batch

    def run_round(self, inputs):
        latencies, output, failed = [], [], 0
        for q in inputs:
            code, out, seconds = _cli(q["argv"])
            latencies.append(seconds)
            output.append((code, out))
            failed += code != 0
        return Round(latencies, failed, output)

    def check(self, inputs, output):
        errors = []
        for q, (code, out) in zip(inputs, output):
            if code == 0:
                err = check_answer(q, out)
                if err:
                    errors.append(f"{' '.join(q['argv'][:3])}: {err}")
        return errors


def check_answer(q, out):
    """None if the printed answer to query q is right, else what is wrong."""
    kind, d = q["kind"], q["d"]
    if kind == "query":
        m = q["matrix"]
        ans = json.loads(out)
        if ans["schmidt"] != oracles.numeric_rank(m, d):
            return f"schmidt {ans['schmidt']}, numpy rank {oracles.numeric_rank(m, d)}"
        if np.abs(np.array(ans["sv"]) - oracles.schmidt_coefficients(m, d)).max() > 2e-6:
            return "sv disagrees with numpy's SVD"
        if ans["hadamard"] != oracles.is_hadamard(m, d):
            return f"hadamard {ans['hadamard']}"
        if ans["it"] != oracles.image_sum(m, d):
            return f"it {ans['it']}"
        if (ans["rowsig"], ans["colsig"]) != (oracles.axis_signature(m, d, 0), oracles.axis_signature(m, d, 1)):
            return "rowsig/colsig disagree with direct sums"
        if ans["haagerup"] != oracles.haagerup_counts(m, d):
            return "haagerup disagrees with direct sums"
        if q["poly"] is not None and ans["is-poly"] != q["poly"]:
            return f"is-poly {ans['is-poly']}, want {q['poly']}"
        if ans["is-poly"]:
            back = oracles.evaluate_poly(oracles.parse_poly(ans["polynomial"], d), d)
            if not np.array_equal(back, np.asarray(m)):
                return f"polynomial {ans['polynomial']!r} does not evaluate to the input"
        return None
    if kind.startswith("equiv"):
        want = "equivalent" if q["same"] else "inequivalent"
        return None if out.split(" ")[0] == want else f"answered {out.strip()!r}, want {want}"
    if kind == "stabilizers":
        return _check_stabilizers(q, json.loads(out))
    if kind == "lower-bound":
        got = oracles.parse_big_int(out.strip())
        return None if got == oracles.lower_bound(d, q["n"]) else "lower bound differs from the closed form"
    return f"unknown kind {kind}"


def _check_stabilizers(q, ans):
    d, n, values = q["d"], q["n"], np.array(q["values"])
    if ans.get("fixed_space_dim") != 1:
        return f"fixed_space_dim {ans.get('fixed_space_dim')}"
    if [s["site"] for s in ans["stabilizers"]] != list(range(n)):
        return "not one stabilizer per site"
    plus = [(k + 1) % d for k in range(d)]
    for s in ans["stabilizers"]:
        if s["cycle"] != plus:
            return f"site {s['site']} cycle {s['cycle']}"
        perm = oracles.site_permutation(d, n, s["site"], plus)
        h = (values[perm] - values) % d
        if s["phase_fn"] != h.tolist():
            return f"site {s['site']}: phase function is not f o pi - f"
        if not oracles.stabilizer_fixes_state(values, d, perm, s["phase_fn"]):
            return f"site {s['site']}: stabilizer does not fix the state"
        free_of_site = bool(np.all(h.reshape((d,) * n) == np.take(h.reshape((d,) * n), [0], axis=s["site"])))
        if s["internal"] != free_of_site:
            return f"site {s['site']}: internal {s['internal']}"
    return None


WORKLOADS = {w.name: w for w in (CatalogueD4All(), VerifyAppendix(), QueryMix())}
