"""Per-module spans and counts for a traced run, recorded from outside ffe.

Tracer.install() rebinds public functions of the ffe modules to wrappers, in
every ffe module namespace and class that holds them (so `from .x import f`
copies are wrapped too), and uninstall() puts the originals back. A span is
(name, start, end, parent index) and lives in memory until the run writes it
out. A function that no longer exists is skipped, and every metric that
needs it is left out of the result.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter

# (name, module, attribute path, how it is recorded)
#   span:  one span per call
#   count: a call counter only (functions called too often for spans)
#   gen:   a generator; the time spent producing items and their number
TARGETS = [
    ("polynomials.enumerate", "ffe.polynomials", "enumerate_polynomial_functions", "gen"),
    ("polynomials.is_polynomial", "ffe.polynomials", "is_polynomial", "span"),
    ("polynomials.parse_polynomial", "ffe.polynomials", "parse_polynomial", "span"),
    ("fpops.dephase", "ffe.fpops", "dephase", "count"),
    ("classify.classify_lfp", "ffe.classify", "classify_lfp", "span"),
    ("classify.index", "ffe.classify", "dephased_polynomial_index", "span"),
    ("classify.fingerprint", "ffe.classify", "invariants_fingerprint", "span"),
    ("classify.invariant_It", "ffe.classify", "invariant_It", "span"),
    ("classify.invariant_row_signature", "ffe.classify", "invariant_row_signature", "span"),
    ("classify.haagerup_histogram", "ffe.classify", "haagerup_histogram", "span"),
    ("classify.classify_lu", "ffe.classify", "classify_lu", "span"),
    ("classify.to_json", "ffe.classify", "Catalogue.to_json", "span"),
    ("classify.to_csv", "ffe.classify", "Catalogue.to_csv", "span"),
    ("classify.membership_check", "ffe.classify", "membership_check", "span"),
    ("classify.lfp_orbit_keys", "ffe.classify", "lfp_orbit_keys", "span"),
    ("classify.lower_bound", "ffe.classify", "lower_bound", "span"),
    ("linalg.trace_powers", "ffe.linalg", "trace_powers", "span"),
    ("linalg.schmidt_rank", "ffe.linalg", "schmidt_rank", "span"),
    ("linalg.singular_values", "ffe.linalg", "singular_values", "span"),
    ("linalg.is_butson_hadamard", "ffe.linalg", "is_butson_hadamard", "span"),
    ("stabilizer.complete_set", "ffe.stabilizer", "complete_set", "span"),
    ("stabilizer.fixed_space", "ffe.stabilizer", "unique_fixed_space_dim", "span"),
    ("stabilizer.internally_commutes", "ffe.stabilizer", "internally_commutes", "span"),
    ("verify.appendix", "ffe.verify", "verify_appendix", "span"),
    ("ring.function_from_json", "ffe.ring", "function_from_json", "span"),
    ("cli.main", "ffe.cli", "main", "span"),
    ("cyclo.mul", "ffe.cyclo", "CyclotomicInt.__mul__", "count"),
]

# counts read off return values
RESULT_COUNTS = {
    "classify.index": lambda r: {"classify.index_keys": len(r)},
    "classify.classify_lfp": lambda r: {
        "classify.seeds": r.provenance["seed_count"], "classify.orbits": len(r.orbits)},
    "classify.lfp_orbit_keys": lambda r: {"classify.membership_keys": len(r)},
    "verify.appendix": lambda r: {"verify.checks": len(r["checks"])},
}

FINGERPRINT_PARTS = {
    "classify.fingerprint", "classify.invariant_It",
    "classify.invariant_row_signature", "classify.haagerup_histogram",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.busy = Counter()
        self.missing = set()
        self._stack = []
        self._patches = []

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        on_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if on_result:
                try:
                    counts.update(on_result(result))
                except (AttributeError, KeyError, TypeError):
                    pass  # the result changed shape; its counts stay 0
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _gen(self, name, fn):
        counts, busy = self.counts, self.busy

        def timed(gen):
            while True:
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    busy[name] += time.perf_counter() - start
                    return
                busy[name] += time.perf_counter() - start
                counts[name + "_rows"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))
        return wrapper

    def install(self):
        for name, module, path, how in TARGETS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            wrapped = getattr(self, "_" + how)(name, original)
            places = [owner] if owner_name else [
                m for key, m in list(sys.modules.items())
                if m is not None and (key == "ffe" or key.startswith("ffe."))
            ]
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        setattr(place, key, wrapped)
                        self._patches.append((place, key, original))

    def uninstall(self):
        for place, key, original in reversed(self._patches):
            setattr(place, key, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": self.counts, "busy_s": self.busy}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _median_ms(durations):
    return statistics.median(durations) * 1000 if durations else 0.0


def layer_metrics(tracer, rounds, traced_solve_s, untraced_solve_s):
    """Per-layer metrics of `rounds` traced rounds: totals and counts per round, medians per call."""
    spans = tracer.spans
    counts, busy = tracer.counts, tracer.busy
    durations, children = {}, [0.0] * len(spans)
    for name, start, end, parent in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            children[parent] += end - start

    def total(name):
        return sum(durations.get(name, ())) / rounds

    def self_times(name):
        return [end - start - children[i] for i, (n, start, end, _) in enumerate(spans) if n == name]

    # time to fingerprint one state: a whole invariants_fingerprint call, or
    # the separate invariant calls one CLI query makes
    units = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name in FINGERPRINT_PARTS and (parent < 0 or spans[parent][0] not in FINGERPRINT_PARTS):
            key = i if name == "classify.fingerprint" else ("parent", parent)
            units[key] = units.get(key, 0.0) + end - start

    rows = counts["polynomials.enumerate_rows"] / rounds
    keys = counts["classify.index_keys"] / rounds
    seeds = counts["classify.seeds"] / rounds
    orbits = counts["classify.orbits"] / rounds
    # (name, unit, value, the traced functions it needs)
    table = [
        ("classify.index_s", "s", total("classify.index"), ["classify.index"]),
        ("polynomials.enumerate_s", "s", busy["polynomials.enumerate"] / rounds, ["polynomials.enumerate"]),
        ("classify.index_rows", "count", rows, ["polynomials.enumerate"]),
        ("classify.index_keys", "count", keys, ["classify.index"]),
        ("classify.index_yield", "ratio", keys / rows if rows else 0.0,
         ["classify.index", "polynomials.enumerate"]),
        ("fpops.dephase_calls", "count", counts["fpops.dephase"] / rounds, ["fpops.dephase"]),
        ("classify.closure_s", "s", sum(self_times("classify.classify_lfp")) / rounds,
         ["classify.classify_lfp", "classify.index", "classify.fingerprint"]),
        ("classify.fingerprint_s", "s", sum(units.values()) / rounds, sorted(FINGERPRINT_PARTS)),
        ("classify.seeds", "count", seeds, ["classify.classify_lfp"]),
        ("classify.orbits", "count", orbits, ["classify.classify_lfp"]),
        ("classify.orbit_yield", "ratio", orbits / seeds if seeds else 0.0, ["classify.classify_lfp"]),
        ("classify.lu_s", "s", total("classify.classify_lu"), ["classify.classify_lu"]),
        ("linalg.trace_powers_s", "s", total("linalg.trace_powers"), ["linalg.trace_powers"]),
        ("linalg.trace_powers_calls", "count", len(durations.get("linalg.trace_powers", ())) / rounds,
         ["linalg.trace_powers"]),
        ("classify.to_json_s", "s", total("classify.to_json"), ["classify.to_json"]),
        ("classify.to_csv_s", "s", total("classify.to_csv"), ["classify.to_csv"]),
        ("linalg.singular_values_s", "s", total("linalg.singular_values"), ["linalg.singular_values"]),
        ("linalg.singular_values_calls", "count", len(durations.get("linalg.singular_values", ())) / rounds,
         ["linalg.singular_values"]),
        ("verify.appendix_s", "s", total("verify.appendix"), ["verify.appendix"]),
        ("verify.checks", "count", counts["verify.checks"] / rounds, ["verify.appendix"]),
        ("polynomials.is_polynomial_s", "s", total("polynomials.is_polynomial"), ["polynomials.is_polynomial"]),
        ("polynomials.is_polynomial_calls", "count",
         len(durations.get("polynomials.is_polynomial", ())) / rounds, ["polynomials.is_polynomial"]),
        ("classify.membership_ms", "ms", _median_ms(durations.get("classify.membership_check")),
         ["classify.membership_check"]),
        ("classify.membership_keys", "count", counts["classify.membership_keys"] / rounds,
         ["classify.lfp_orbit_keys"]),
        ("classify.fingerprint_ms", "ms", _median_ms(list(units.values())), sorted(FINGERPRINT_PARTS)),
        ("stabilizer.fixed_space_ms", "ms", _median_ms(durations.get("stabilizer.fixed_space")),
         ["stabilizer.fixed_space"]),
        ("stabilizer.internally_commutes_ms", "ms",
         _median_ms(durations.get("stabilizer.internally_commutes")), ["stabilizer.internally_commutes"]),
        ("cli.self_ms", "ms", _median_ms(self_times("cli.main")), ["cli.main"]),
        ("cyclo.mul_calls", "count", counts["cyclo.mul"] / rounds, ["cyclo.mul"]),
        ("trace.overhead_s", "s", traced_solve_s - untraced_solve_s, []),
    ]
    for name in ("linalg.schmidt_rank", "linalg.singular_values", "linalg.is_butson_hadamard",
                 "linalg.trace_powers", "polynomials.is_polynomial"):
        table.append((name + "_ms", "ms", _median_ms(durations.get(name)), [name]))
    return {
        name: {"value": value, "unit": unit}
        for name, unit, value, needs in table
        if not tracer.missing.intersection(needs)
    }
