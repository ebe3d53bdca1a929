"""Per-layer tracing from outside the program.

Tracer.install wraps the public functions of every `ualg.*` module and
rebinds each wrapper wherever a `ualg` module imported the function, so
calls between modules (`iter_homs` -> `classify`, `build_free` ->
`apply_op`) are caught.  Every wrapped call adds its count, inclusive time
and self time (inclusive time minus wrapped callees) to its function.  A
coarse call also records a span; the hot leaves, called millions of times,
only aggregate into the enclosing span.  Spans stay in memory until dump().
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("terms", "eqlogic", "core", "free", "closure", "homs", "birkhoff", "entail", "fileio", "cli")

# Leaves and small helpers: aggregated, no span per call.
HOT = {
    "terms.evaluate",
    "core.apply_op",
    "homs.hom_violation",
    "homs.classify",
    "eqlogic.satisfies",
    "eqlogic.class_satisfies",
    "eqlogic.mod_check",
    "core.same_signature",
    "core.validate",
    "terms.depth",
    "terms.term_size",
    "terms.term_vars",
    "terms.equation_vars",
    "terms.substitute",
    "terms.collect_arities",
    "entail.check_proof",
    "entail.match_term",
    "entail.match_equation",
    "fileio.parse_term",
    "fileio.parse_equation",
    "fileio.term_to_text",
    "fileio.equation_to_text",
    "homs.compose",
    "homs.identity_map",
    "homs.kernel_pairs",
    "closure.closure_list",
}
# Callee counts that a function's post hook sees as deltas over its call.
DELTAS = {
    "eqlogic.theory_upto": "eqlogic.class_satisfies",
    "free.build_free": "core.apply_op",
}
PARSERS = ("parse_algebra_file", "parse_equation_file", "parse_equation", "parse_proof", "parse_certificate", "parse_term")


class Tracer:
    def __init__(self):
        # key -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [key, child seconds, span id or None]
        self.spans: list[tuple] = []
        self.job = ""

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == "ualg" or name.startswith("ualg.")]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, name, wrapped[value])

    def _wrap(self, key: str, fn):
        hot = key in HOT
        delta = DELTAS.get(key)
        if key.partition(".")[2] in PARSERS and key.startswith("fileio."):
            post = self._parse_hook
        else:
            post = getattr(self, "_post_" + key.replace(".", "_"), None)
        stats, stack, spans = self.stats[key], self.stack, self.spans
        if delta is not None:
            delta_stats = self.stats[delta]

        def wrapper(*args, **kwargs):
            frame = [key, 0.0, None if hot else len(spans)]
            if not hot:
                spans.append(None)  # reserved so children can name their parent
            if delta is not None:
                before = delta_stats[0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if not hot:
                    spans[frame[2]] = (key, start, end, self._parent_span(), self.job)
            if post is not None:
                post(result, args, elapsed, delta_stats[0] - before if delta is not None else 0)
            return result

        if key == "homs.iter_homs":
            return self._wrap_generator(wrapper)
        return wrapper

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _wrap_generator(self, call):
        """iter_homs searches lazily: time each step of its generator as
        part of the function, and count what it yields."""
        stats, stack, counts = self.stats["homs.iter_homs"], self.stack, self.counts

        def wrapper(*args, **kwargs):
            try:
                inner = call(*args, **kwargs)
            except Exception as e:
                if type(e).__name__ == "SearchCapError":
                    counts["homs.search_cap_errors"] += 1
                raise
            return steps(inner)

        def steps(inner):
            while True:
                frame = ["homs.iter_homs", 0.0, None]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    stats[1] += elapsed
                    stats[2] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                counts["homs.iter_homs.found"] += 1
                yield item

        return wrapper

    # ------------------------------------------------------------ post hooks

    def _post_terms_enumerate_terms(self, result, args, elapsed, delta):
        self.counts["terms.enumerate_terms.terms"] += len(result)

    def _post_eqlogic_theory_upto(self, result, args, elapsed, delta):
        self.counts["eqlogic.theory_upto.pairs"] += delta
        self.counts["eqlogic.theory_upto.kept"] += len(result)

    def _post_free_build_free(self, result, args, elapsed, delta):
        width = len(result.index)
        self.counts["free.build_free.elements"] += result.alg.size
        self.counts["free.build_free.coords"] += width
        self.counts["free.build_free.apply_op_calls"] += delta
        self.counts["free.build_free.new"] += result.alg.size - len(set(result.gens.values()))
        self.counts["free.build_free.tuples"] += delta / width if width else 0

    def _post_closure_product(self, result, args, elapsed, delta):
        self.counts["closure.product.cells"] += sum(len(t) for t in result.alg.tables)

    def _post_birkhoff_enumerate_algebras(self, result, args, elapsed, delta):
        self.counts["birkhoff.enumerate_algebras.algebras"] += len(result)

    def _post_birkhoff_eqcl_to_var_check(self, result, args, elapsed, delta):
        first = result.stages[0]
        if first.name == "enumerate-models":
            self.counts["birkhoff.models"] += int(first.witness.split()[0])

    def _post_entail_search_proof(self, result, args, elapsed, delta):
        self.counts["entail.search_proof.found"] += result.status == "found"

    def _parse_hook(self, result, args, elapsed, delta):
        # outermost parser calls only: parse_equation_file calls parse_equation
        if not any(frame[0].startswith("fileio.parse_") for frame in self.stack):
            self.counts["fileio.parse.bytes"] += len(args[0].encode())
            self.counts["fileio.parse.seconds"] += elapsed

    # ------------------------------------------------------------ reports

    def snapshot(self) -> tuple[dict, dict]:
        return {k: list(v) for k, v in self.stats.items()}, dict(self.counts)

    def dump(self, path, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        body = {
            **extra,
            "span_names": names,
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id", "job"],
            "spans": [
                [i, index[span[0]], round(span[1], 7), round(span[2], 7), span[3], span[4]]
                for i, span in enumerate(self.spans)
                if span is not None
            ],
            "functions": {k: {"calls": c, "inclusive_s": t, "self_s": s} for k, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
