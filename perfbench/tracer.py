"""Per-layer tracing of localekit, installed from outside the package.

The tracer replaces public functions in every localekit module namespace
that holds them, so calls made inside the package are seen too (for
example `validate_frame` imported into `corpus`, `spaces` and
`sublocales`). Ordinary layer functions record a span each: name, start,
end and the index of the span that caused it. Spans stay in memory and are
written out once, at the end. Hot helpers called hundreds of thousands of
times get a call counter and summed time instead of a span per call.

A layer's self time is its duration minus the time covered by the traced
calls nested in it, so every traced second is counted in exactly one layer.
The speed probe of child.py (about 0.6% of a campaign) is counted in
whichever layer is running when it fires.
Importing this module imports nothing from localekit; `install` does.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span per call.
SPANS = (
    ("corpus", "labeled_lattice_rows"),
    ("corpus", "random_regular_open"),
    ("corpus", "random_pair"),
    ("corpus", "sample_points_outside"),
    ("lattice", "validate_frame"),
    ("sublocales", "all_sublocales"),
    ("sublocales", "closed_join_frame"),
    ("separation", "is_symmetric"),
    ("separation", "subfit_correspondence_check"),
    ("separation", "pseudocomplement_formula_check"),
    ("spaces", "uc_lattice"),
    ("spaces", "omega"),
    ("spaces", "space_proposition_check"),
    ("spaces", "td_remark_check"),
    ("realline", "exclusion_certificate"),
    ("realline", "descending_pair"),
)
# Generators: a span per resume, so only time spent inside them counts.
GENERATORS = (
    ("corpus", "iter_distributive_frames"),
    ("spaces", "enumerate_topologies"),
)
# Hot helpers: counters and summed time, no spans.
HOT = (
    ("sublocales", "meet_close"),
    ("realline", "zero_padded_term"),
    ("realline", "regularize"),
    ("realline", "is_subset"),
)
# Lazily built S(L) tables (cached properties of SublocaleLattice).
TABLES = ("join_table", "meet_table", "supplements")
# The real-line campaign calls these check functions directly.
REALLINE_CHECKS = {
    "boolean_laws": "boolean-laws",
    "raw_open_laws": "raw-open-laws",
    "lemma_invariants": "lemma1-invariants",
    "descent_invariants": "prop2-invariants",
    "forcing_cases": "prop1-forcing",
}

REALLINE_INPUTS = ("corpus.random_regular_open", "corpus.random_pair",
                   "corpus.sample_points_outside")


def per_layer_spec(check_names) -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    spec = [
        ("corpus.labeled_lattice_rows.s", "s", "lower"),
        ("corpus.frames", "count", "higher"),
        ("corpus.realline_inputs.s", "s", "lower"),
        ("lattice.validate_frame.calls", "count", "lower"),
        ("lattice.validate_frame.s", "s", "lower"),
        ("lattice.carrier.max", "count", "higher"),
    ]
    for fn in ("all_sublocales", "closed_join_frame"):
        spec += [(f"sublocales.{fn}.calls", "count", "lower"),
                 (f"sublocales.{fn}.s", "s", "lower")]
    spec += [
        ("sublocales.tables.s", "s", "lower"),
        ("sublocales.count", "count", "higher"),
        ("sublocales.closed_joins.count", "count", "higher"),
        ("sublocales.meet_close.calls", "count", "lower"),
        ("sublocales.meet_close.s", "s", "lower"),
        ("sublocales.meet_close.repeat_frac", "ratio", "lower"),
        ("separation.is_symmetric.s", "s", "lower"),
        ("separation.subfit_correspondence_check.s", "s", "lower"),
        ("separation.pseudocomplement_formula_check.s", "s", "lower"),
        ("spaces.enumerate_topologies.s", "s", "lower"),
        ("spaces.topologies", "count", "higher"),
        ("spaces.uc_lattice.s", "s", "lower"),
        ("spaces.omega.s", "s", "lower"),
        ("spaces.space_proposition_check.s", "s", "lower"),
        ("spaces.td_remark_check.s", "s", "lower"),
    ]
    for fn in ("zero_padded_term", "exclusion_certificate", "descending_pair",
               "regularize", "is_subset"):
        spec += [(f"realline.{fn}.calls", "count", "lower"),
                 (f"realline.{fn}.s", "s", "lower")]
    spec += [
        ("realline.zero_padded_term.repeat_frac", "ratio", "lower"),
        ("realline.exclusion_stage.max", "count", "higher"),
        ("realline.terms_per_certificate", "count", "lower"),
    ]
    for name in check_names:
        spec += [(f"checks.{name}.calls", "count", "lower"),
                 (f"checks.{name}.s", "s", "lower")]
    spec += [
        ("checks.item_ms.p50", "ms", "lower"),
        ("checks.item_ms.p99", "ms", "lower"),
        ("cli.emit.s", "s", "lower"),
        ("cli.records", "count", "higher"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
    return spec


class Tracer:
    """Span and counter store shared by every wrapper it installs."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.repeats = defaultdict(int)
        self.spans: list = []
        # One entry per open call: [index of the enclosing span, child time].
        self._stack = [[-1, 0.0]]
        self._seen: dict[str, set] = defaultdict(set)
        self._pinned: dict[int, object] = {}
        self._check_s = 0.0
        self._check_calls = 0
        self.item_ms: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.check_names: tuple[str, ...] = ()

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        calls, self_s, spans, stack = self.calls, self.self_s, self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [len(spans), 0.0]
            spans.append(None)
            stack.append(entry)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - entry[1]
                spans[entry[0]] = (name, start, end, stack[-1][0])
        return wrapper

    def hot(self, name, fn, key=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        repeats, seen = self.repeats, self._seen[name]
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(args)
                if k in seen:
                    repeats[name] += 1
                else:
                    seen.add(k)
            entry = [stack[-1][0], 0.0]
            stack.append(entry)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - entry[1]
        return wrapper

    def generator(self, name, fn):
        traced_next = self.span(name, next)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = traced_next(it)
                except StopIteration:
                    return
                counts[name] += 1
                yield item
        return wrapper

    def check(self, name, fn):
        traced = self.span(f"checks.{name}", fn)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return traced(*args, **kwargs)
            finally:
                self._check_s += perf() - start
                self._check_calls += 1
        return wrapper

    def _frame_mask_key(self, args):
        frame, mask = args[0], args[1]
        self._pinned.setdefault(id(frame), frame)  # keep ids unique while traced
        return id(frame), mask

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded localekit namespace."""
        import localekit.cli as cli
        from localekit import checks, sublocales

        def target(module, fn_name):
            obj = getattr(sys.modules.get(f"localekit.{module}"), fn_name, None)
            if obj is None:
                self.missing.append(f"{module}.{fn_name}")
            return obj

        def after(fn, hook):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(result)
                return result
            return wrapper

        hooks = {
            "lattice.validate_frame": lambda f: self._maximum("lattice.carrier", f.n),
            "sublocales.all_sublocales": lambda lat: self._add("sublocales.count", len(lat)),
            "sublocales.closed_join_frame": lambda cjf: self._add("sublocales.closed_joins",
                                                                  len(cjf)),
        }
        for module, fn_name in SPANS:
            original = target(module, fn_name)
            if original is None:
                continue
            name = f"{module}.{fn_name}"
            fn = original
            if name == "realline.exclusion_certificate":
                fn = self._certificate_counter(fn)
            elif name in hooks:
                fn = after(fn, hooks[name])
            _replace(original, self.span(name, fn))
        for module, fn_name in GENERATORS:
            fn = target(module, fn_name)
            if fn is not None:
                _replace(fn, self.generator(f"{module}.{fn_name}", fn))
        keys = {"sublocales.meet_close": self._frame_mask_key,
                "realline.zero_padded_term": tuple}
        for module, fn_name in HOT:
            fn = target(module, fn_name)
            if fn is not None:
                name = f"{module}.{fn_name}"
                _replace(fn, self.hot(name, fn, keys.get(name)))

        table_cls = getattr(sublocales, "SublocaleLattice", None)
        for attr in TABLES:
            prop = vars(table_cls).get(attr) if table_cls is not None else None
            if not isinstance(prop, functools.cached_property):
                self.missing.append(f"sublocales.SublocaleLattice.{attr}")
                continue
            wrapped = functools.cached_property(self.span(f"sublocales.{attr}", prop.func))
            wrapped.__set_name__(table_cls, attr)
            setattr(table_cls, attr, wrapped)

        named = {}
        for table in ("LATTICE_CHECKS", "SPACE_CHECKS"):
            named.update(getattr(checks, table, {}))
        for fn_name, name in REALLINE_CHECKS.items():
            if hasattr(checks, fn_name):
                named[name] = getattr(checks, fn_name)
        for name, fn in named.items():
            _replace(fn, self.check(name, fn))
        self.check_names = tuple(named)

        emit = getattr(cli.Report, "emit", None)
        if emit is not None:
            traced_emit = self.span("cli.emit", emit)

            @functools.wraps(emit)
            def emit_wrapper(report, *args, **kwargs):
                self.counts["cli.records"] += len(report.records)
                return traced_emit(report, *args, **kwargs)
            cli.Report.emit = emit_wrapper
        else:
            self.missing.append("cli.Report.emit")

        record_from = getattr(cli, "_record_from", None)
        if record_from is not None:
            @functools.wraps(record_from)
            def record_wrapper(report, item, check, *args, **kwargs):
                if self._check_calls:
                    self.item_ms[item] += self._check_s * 1e3
                    self._check_s = 0.0
                    self._check_calls = 0
                return record_from(report, item, check, *args, **kwargs)
            cli._record_from = record_wrapper
        else:
            self.missing.append("cli._record_from")

    def _add(self, name, value):
        self.counts[name] += value

    def _maximum(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def _certificate_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls["realline.zero_padded_term"]
            cert = fn(*args, **kwargs)
            self.counts["realline.certificate_terms"] += (
                self.calls["realline.zero_padded_term"] - before)
            self._maximum("realline.exclusion_stage", cert.stage)
            return cert
        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, checks included for every wrapped check.

        trace_overhead_frac needs an untraced run and is set by the caller."""
        s, calls = self.self_s, self.calls
        out = {
            "corpus.labeled_lattice_rows.s": s["corpus.labeled_lattice_rows"],
            "corpus.frames": self.counts["corpus.iter_distributive_frames"],
            "corpus.realline_inputs.s": sum(s[n] for n in REALLINE_INPUTS),
            "lattice.validate_frame.calls": calls["lattice.validate_frame"],
            "lattice.validate_frame.s": s["lattice.validate_frame"],
            "lattice.carrier.max": self.maxima["lattice.carrier"],
            "sublocales.tables.s": sum(s[f"sublocales.{t}"] for t in TABLES),
            "sublocales.count": self.counts["sublocales.count"],
            "sublocales.closed_joins.count": self.counts["sublocales.closed_joins"],
            "sublocales.meet_close.repeat_frac": self._repeat_frac("sublocales.meet_close"),
            "spaces.topologies": self.counts["spaces.enumerate_topologies"],
            "realline.zero_padded_term.repeat_frac":
                self._repeat_frac("realline.zero_padded_term"),
            "realline.exclusion_stage.max": self.maxima["realline.exclusion_stage"],
            "realline.terms_per_certificate": (
                self.counts["realline.certificate_terms"]
                / calls["realline.exclusion_certificate"]
                if calls["realline.exclusion_certificate"] else 0.0),
            "cli.emit.s": s["cli.emit"],
            "cli.records": self.counts["cli.records"],
        }
        for layer, fn in (("sublocales", "all_sublocales"), ("sublocales", "closed_join_frame"),
                          ("sublocales", "meet_close"), ("realline", "zero_padded_term"),
                          ("realline", "exclusion_certificate"), ("realline", "descending_pair"),
                          ("realline", "regularize"), ("realline", "is_subset")):
            out[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"]
            out[f"{layer}.{fn}.s"] = s[f"{layer}.{fn}"]
        for name in ("separation.is_symmetric", "separation.subfit_correspondence_check",
                     "separation.pseudocomplement_formula_check",
                     "spaces.enumerate_topologies", "spaces.uc_lattice", "spaces.omega",
                     "spaces.space_proposition_check", "spaces.td_remark_check"):
            out[f"{name}.s"] = s[name]
        for name in self.check_names:
            out[f"checks.{name}.calls"] = calls[f"checks.{name}"]
            out[f"checks.{name}.s"] = s[f"checks.{name}"]
        item_ms = list(self.item_ms.values())
        out["checks.item_ms.p50"] = _percentile(item_ms, 50)
        out["checks.item_ms.p99"] = _percentile(item_ms, 99)
        return out

    def _repeat_frac(self, name) -> float:
        total = self.calls[name]
        return self.repeats[name] / total if total else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent in (s for s in self.spans if s is not None):
                out.write(json.dumps([name, start, end, parent]) + "\n")


def _replace(original, replacement) -> None:
    """Rebind `original` to `replacement` in every localekit namespace and
    in the module-level dicts (check tables) that hold it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("localekit"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, held in list(value.items()):
                    if held is original:
                        value[key] = replacement


def _percentile(values, pct) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
