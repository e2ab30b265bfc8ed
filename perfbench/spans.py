"""Spans around calls into bilbiq, recorded from outside the program.

Each wrapper replaces a module attribute that bilbiq looks up at call
time, so calls the program makes to itself are seen as well as the
benchmark's own.  Spans are held in memory: (name, start, end, parent
index, operation id, note), where note is a count read from the result
(colorings found, semiarcs parsed, True for an accepted candidate).

vec_add, vec_scale and bilinear_eval are left alone: a search calls them
10^5 to 10^6 times, and a wrapper there would mostly time itself.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


# (module, attribute, span name, note taken from the result)
WRAPPED = [
    ("bilinear", "search", "search", len),
    ("bilinear", "passes_axioms", "passes_axioms", bool),
    ("bilinear", "build_bilinear", "build", None),
    ("invariant", "build_bilinear", "build", None),
    ("invariant", "passes_axioms", "passes_axioms", bool),
    ("biquandle", "check_axioms", "check_axioms", None),
    ("biquandle", "block_matrix_encode", "codec", None),
    ("biquandle", "block_matrix_decode", "codec", None),
    ("gauss", "parse_gauss", "parse", lambda d: d.n_semiarcs),
    ("invariant", "crossing_relations", "relations", None),
    ("invariant", "enumerate_colorings", "enumerate", len),
    ("invariant", "subbiquandle_closure", "closure", None),
    ("invariant", "submodule_span", "span", None),
    ("invariant", "phi_bb", "phi", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._restore: list = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self, package) -> None:
        """Wrap every layer boundary listed in WRAPPED, plus table
        validation in FiniteBiquandle.__init__, which every constructor
        path runs."""
        for module, attr, name, note in WRAPPED:
            self.wrap(getattr(package, module), attr, name, note)
        self.wrap(package.biquandle.FiniteBiquandle, "__init__", "construct")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "note": note}) + "\n")


def layer_totals(spans) -> dict:
    """Per span name, and per "parent/name" pair: total time, self time,
    calls and summed notes."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for idx, (name, start, end, parent, _, note) in enumerate(spans):
        dur = end - start
        keys = [name]
        if parent is not None:
            keys.append(f"{spans[parent][0]}/{name}")
        for key in keys:
            out[key + ".s"] += dur
            out[key + ".self_s"] += dur - child_time[idx]
            out[key + ".calls"] += 1
            out[key + ".note"] += note or 0
    return out


def per_layer_metrics(spans) -> dict:
    """The benchmark's per-layer metrics from one traced round."""
    t = layer_totals(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    candidates = t["search/passes_axioms.calls"]
    accepted = t["search/passes_axioms.note"]
    emitted = t["search.note"]
    phi_colorings = t["phi/enumerate.note"]
    return {
        "bilinear.search_s": (t["search.s"], "s"),
        "bilinear.search_rest_s": (t["search.self_s"], "s"),
        "bilinear.candidates": (candidates, "count"),
        "bilinear.accepted": (accepted, "count"),
        "bilinear.emitted": (emitted, "count"),
        "bilinear.accept_ratio": (ratio(accepted, candidates), "ratio"),
        "bilinear.dedup_ratio": (ratio(emitted, accepted), "ratio"),
        "bilinear.build_s": (t["build.s"], "s"),
        "bilinear.builds": (t["build.calls"], "count"),
        "biquandle.construct_s": (t["construct.s"], "s"),
        "biquandle.constructed": (t["construct.calls"], "count"),
        "biquandle.passes_axioms_s": (t["passes_axioms.s"], "s"),
        "biquandle.passes_axioms_calls": (t["passes_axioms.calls"], "count"),
        "biquandle.check_axioms_s": (t["check_axioms.s"], "s"),
        "biquandle.checks": (t["check_axioms.calls"], "count"),
        "biquandle.codec_s": (t["codec.s"], "s"),
        "gauss.parse_s": (t["parse.s"], "s"),
        "gauss.relations_s": (t["relations.s"], "s"),
        "gauss.semiarcs": (t["parse.note"], "count"),
        "invariant.enumerate_s": (t["enumerate.s"], "s"),
        "invariant.colorings": (t["enumerate.note"], "count"),
        "invariant.closure_s": (t["closure.s"], "s"),
        "invariant.closure_calls": (t["closure.calls"], "count"),
        "modular.span_s": (t["span.s"], "s"),
        "modular.span_calls": (t["span.calls"], "count"),
        "invariant.closure_cache_hit_ratio": (
            1 - ratio(t["phi/closure.calls"], phi_colorings) if phi_colorings else 0.0,
            "ratio",
        ),
        "invariant.phi_s": (t["phi.s"], "s"),
        "invariant.phi_rest_s": (t["phi.self_s"], "s"),
    }
