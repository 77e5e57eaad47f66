"""Tracing of the checker from outside its source.

The tracer replaces functions where their callers look them up: a name
bound by `from .x import f` lives in the caller's module, so `harness.weil`
is patched rather than `function_field.weil`, and methods such as
`HomogeneousPoly.evaluate` are patched on their class.  Wrappers return the
wrapped function's result and let its exceptions through unchanged.

Three kinds of wrapper:

* span  - stage- and module-level calls; each call is recorded with its
          start, end, parent span and self time.
* leaf  - hot leaves; count, inclusive time (outermost call only, so
          recursion is not counted twice) and self time are aggregated.
* count - the hottest leaves; a call count only, so they cost almost nothing.

A call's self time is its duration minus the time spent in timed wrappers it
called directly.  A target that no longer exists is skipped and listed in
`unpatched`, so a refactor of the package leaves the traced run working; the
metrics that depended on it read 0.
"""

from __future__ import annotations

import importlib
from time import perf_counter

PKG = "ffsubspace"

# (owner, attribute, stat name, kind).  The owner is a module of the package,
# optionally followed by ":Class" for a method.
PATCHES = [
    ("cli", "_cmd_chow", "cli.chow", "span"),
    ("cli", "load_scenario", "harness.load", "span"),
    ("cli", "load_scenario_dict", "harness.load", "span"),
    ("cli", "run_check", "harness.run_check", "span"),
    ("cli", "emit_report", "harness.emit", "span"),
    ("cli", "expand_skew", "chow.expand_skew", "span"),
    ("harness", "check_subgeneral_position", "harness.position", "span"),
    ("harness", "threshold_a_eps", "hilbert_bounds.threshold_a_eps", "span"),
    ("harness", "_hilbert_table", "harness.hilbert_table", "span"),
    ("harness", "assemble_constants", "effective_constants.assemble", "span"),
    ("harness", "chow_of_hypersurface", "chow.build", "span"),
    ("harness", "chow_of_linear", "chow.build", "span"),
    ("harness", "multihomform_from_json", "chow.build", "span"),
    ("harness", "weil", "function_field.weil", "span"),
    ("harness", "height_point", "function_field.height_point", "span"),
    ("harness", "hypersurface_hilbert", "hilbert_bounds.hypersurface_hilbert", "leaf"),
    ("harness", "hilbert_function", "graded_ideal.hilbert_function", "count"),
    ("harness", "parse_rational", "parsing.parse_rational", "leaf"),
    ("parsing", "parse_rational", "parsing.parse_rational", "leaf"),
    ("harness", "parse_poly", "multipoly.parse_poly", "leaf"),
    ("graded_ideal", "parse_poly", "multipoly.parse_poly", "leaf"),
    ("graded_ideal", "graded_piece", "graded_ideal.graded_piece", "leaf"),
    ("linalg:Echelon", "add_row", "linalg.add_row", "leaf"),
    ("multipoly:HomogeneousPoly", "evaluate", "multipoly.evaluate", "leaf"),
    ("function_field", "order_at", "function_field.order_at", "count"),
    ("chow:MultiHomForm", "__mul__", "chow.multihom_mul", "count"),
    ("chow:MultiHomForm", "__rmul__", "chow.multihom_mul", "count"),
    ("upoly", "mul", "upoly.mul", "count"),
    ("upoly", "divmod_", "upoly.divmod", "count"),
    ("upoly", "gcd", "upoly.gcd", "leaf"),
    ("upoly", "multiplicity", "upoly.multiplicity", "leaf"),
    ("upoly", "factor_monic", "upoly.factor", "leaf"),
] + [
    ("function_field:RationalFunction", op, "function_field.rf_ops", "leaf")
    for op in (
        "__add__", "__radd__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    )
]


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Installs the wrappers and keeps spans and aggregates in memory."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        # Values read off arguments and results by the _observe_* hooks.
        self.observed = dict.fromkeys(
            [
                "graded_piece_repeats", "add_row_useful", "chow.form_terms",
                "chow.sigma_count", "graded_ideal.subsets",
                "hilbert_bounds.values.calls", "effective_constants.m",
            ],
            0,
        )
        self.unpatched = []
        self._piece_keys = set()
        self._stack = [[0.0]]  # one frame per timed call: [time in timed callees]
        self._open_spans = [None]
        self._factor_cache = None
        self._factor_start = None

    # ------------------------------------------------------------ install

    def install(self):
        """Patch every target in PATCHES; returns the tracer."""
        for owner, attr, name, kind in PATCHES:
            stat = self.stats.setdefault(name, Stat())
            modname, _, cls = owner.partition(":")
            try:
                target = importlib.import_module(f"{PKG}.{modname}")
            except ImportError:
                target = None
            if cls:
                target = getattr(target, cls, None)
            fn = getattr(target, attr, None)
            if fn is None:
                self.unpatched.append(f"{owner}.{attr}")
                continue
            if kind == "count":
                wrapper = self._counting(fn, stat)
            else:
                wrapper = self._timed(fn, name, stat, kind == "span")
            setattr(target, attr, wrapper)
        # The patched name is a wrapper; the lru cache sits on the original.
        upoly = importlib.import_module(f"{PKG}.upoly")
        factor = getattr(upoly.factor_monic, "__wrapped__", None)
        self._factor_cache = factor if hasattr(factor, "cache_info") else None
        self._factor_start = self._factor_info()
        return self

    def _factor_info(self):
        if self._factor_cache is None:
            return 0, 0
        info = self._factor_cache.cache_info()
        return info.hits, info.misses

    @staticmethod
    def _counting(fn, stat):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, fn, name, stat, is_span):
        stack = self._stack
        spans = self.spans
        open_spans = self._open_spans
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            if is_span:
                span_id, parent = len(spans), open_spans[-1]
                spans.append(None)  # reserve the id; filled in on exit
                open_spans.append(span_id)
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if not stat.active:
                    stat.total_s += dt
                if is_span:
                    open_spans.pop()
                    spans[span_id] = {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": t0,
                        "end": t1,
                        "self_s": dt - frame[0],
                    }
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ observers

    def _observe_graded_ideal_graded_piece(self, args, result):
        key = (args[0], args[1])
        if key in self._piece_keys:
            self.observed["graded_piece_repeats"] += 1
        else:
            self._piece_keys.add(key)

    def _observe_linalg_add_row(self, args, result):
        if result:
            self.observed["add_row_useful"] += 1

    def _observe_chow_build(self, args, result):
        self.observed["chow.form_terms"] = len(result.terms)

    def _observe_chow_expand_skew(self, args, result):
        self.observed["chow.sigma_count"] = result.sigma_count

    def _observe_harness_position(self, args, result):
        self.observed["graded_ideal.subsets"] += len(result.subsets)

    def _observe_harness_hilbert_table(self, args, result):
        self.observed["hilbert_bounds.values.calls"] += len(set(args[1]))

    def _observe_effective_constants_assemble(self, args, result):
        self.observed["effective_constants.m"] = result.m

    # ------------------------------------------------------------ results

    def _stage_times(self):
        """Split every run_check span into position, constants and points.

        position runs from the start of run_check to the end of the position
        check, constants from there to the end of assemble_constants, and
        points from there to the end of run_check.
        """
        position = constants = points = 0.0
        runs = [s for s in self.spans if s["name"] == "harness.run_check"]
        for run in runs:
            kids = {s["name"]: s for s in self.spans if s["parent"] == run["id"]}
            pos_end = kids.get("harness.position", {"end": run["start"]})["end"]
            asm_end = kids.get("effective_constants.assemble", {"end": pos_end})["end"]
            position += pos_end - run["start"]
            constants += asm_end - pos_end
            points += run["end"] - asm_end
        return position, constants, points

    def metrics(self) -> dict:
        """The per-layer metrics of one traced process."""
        st = self.stats
        position, constants, points = self._stage_times()
        hits0, misses0 = self._factor_start
        hits1, misses1 = self._factor_info()
        lookups = (hits1 - hits0) + (misses1 - misses0)
        pieces = st["graded_ideal.graded_piece"].calls
        rows = st["linalg.add_row"].calls
        out = {
            "harness.load_s": st["harness.load"].total_s,
            "harness.position_s": position,
            "harness.constants_s": constants,
            "harness.points_s": points,
            "harness.emit_s": st["harness.emit"].total_s,
            "cli.chow_s": st["cli.chow"].total_s,
            "parsing.parse_rational.calls": st["parsing.parse_rational"].calls,
            "parsing.parse_rational_s": st["parsing.parse_rational"].total_s,
            "multipoly.parse_poly_s": st["multipoly.parse_poly"].total_s,
            "multipoly.evaluate.calls": st["multipoly.evaluate"].calls,
            "multipoly.evaluate_s": st["multipoly.evaluate"].total_s,
            "function_field.weil.calls": st["function_field.weil"].calls,
            "function_field.weil_self_s": st["function_field.weil"].self_s,
            "function_field.height_point.calls": st["function_field.height_point"].calls,
            "function_field.height_point_s": st["function_field.height_point"].total_s,
            "function_field.order_at.calls": st["function_field.order_at"].calls,
            "function_field.rf_ops.calls": st["function_field.rf_ops"].calls,
            "function_field.rf_ops_s": st["function_field.rf_ops"].total_s,
            "upoly.mul.calls": st["upoly.mul"].calls,
            "upoly.divmod.calls": st["upoly.divmod"].calls,
            "upoly.gcd.calls": st["upoly.gcd"].calls,
            "upoly.gcd_s": st["upoly.gcd"].total_s,
            "upoly.multiplicity.calls": st["upoly.multiplicity"].calls,
            "upoly.multiplicity_s": st["upoly.multiplicity"].total_s,
            "upoly.factor.calls": st["upoly.factor"].calls,
            "upoly.factor_s": st["upoly.factor"].total_s,
            "upoly.factor.hit_ratio": (hits1 - hits0) / lookups if lookups else 0.0,
            "chow.build_s": st["chow.build"].total_s,
            "chow.form_terms": self.observed["chow.form_terms"],
            "chow.multihom_mul.calls": st["chow.multihom_mul"].calls,
            "chow.expand_skew_s": st["chow.expand_skew"].total_s,
            "chow.sigma_count": self.observed["chow.sigma_count"],
            "graded_ideal.graded_piece.calls": pieces,
            "graded_ideal.graded_piece_s": st["graded_ideal.graded_piece"].total_s,
            "graded_ideal.graded_piece.hit_ratio": (
                self.observed["graded_piece_repeats"] / pieces if pieces else 0.0
            ),
            "graded_ideal.subsets": self.observed["graded_ideal.subsets"],
            "graded_ideal.hilbert_function.calls": st["graded_ideal.hilbert_function"].calls,
            "linalg.add_row.calls": rows,
            "linalg.add_row_s": st["linalg.add_row"].total_s,
            "linalg.add_row.useful_ratio": (
                self.observed["add_row_useful"] / rows if rows else 0.0
            ),
            "hilbert_bounds.values.calls": self.observed["hilbert_bounds.values.calls"],
            "hilbert_bounds.hypersurface_hilbert_s": st[
                "hilbert_bounds.hypersurface_hilbert"
            ].total_s,
            "hilbert_bounds.threshold_a_eps_s": st["hilbert_bounds.threshold_a_eps"].total_s,
            "effective_constants.assemble_s": st["effective_constants.assemble"].total_s,
            "effective_constants.m": self.observed["effective_constants.m"],
        }
        return out
