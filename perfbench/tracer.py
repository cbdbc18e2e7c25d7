"""Spans around the package's layers, installed from outside the package.

The tracer replaces functions of the package by wrappers that record one
span per call (name, start, end, parent span) and puts the originals back
when it is removed.  Per-system callables (behaviour handlers, distribution
hooks, services) are wrapped after ``build_system`` and restored after each
operation.  Spans are kept per operation and folded into per-name totals
(calls, inclusive time, self time) when the operation ends; the full spans
of a sample of operations stay in memory and are written out at the end.

A span's self time is its duration minus the durations of its direct
children.  Calls nest strictly (one thread, no callbacks across spans), so
the children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

class Tracer:
    def __init__(self, modules):
        rt, ev, pt = modules["runtime"], modules["events"], modules["protocol"]
        # (owner, attribute, span name) of every package function wrapped
        self.targets = [
            (rt.System, "deliver_next", "runtime.deliver_next"),
            (rt.System, "_fill_batch", "runtime._fill_batch"),
            (rt.System, "_execute", "runtime._execute"),
            (rt.BehaviorDef, "allowed_keys", "runtime.allowed_keys"),
            (rt, "_render_value", "runtime._render_value"),
            (ev.EventNetwork, "record", "events.record"),
            (pt, "_assert_on_fringe", "protocol._assert_on_fringe"),
            (pt, "read_out_trees", "protocol.read_out_trees"),
            (pt, "check_invariants", "protocol.check_invariants"),
            (ev, "validate_trace", "events.validate_trace"),
            (ev, "export", "events.export"),
            (modules["oracle"], "oracle_parse", "oracle.oracle_parse"),
            (modules["lexicon"], "load_lexicon", "lexicon.load_lexicon"),
            (modules["concepts"], "load_kb", "concepts.load_kb"),
            (ev, "derive_etn", "events.derive_etn"),
        ]
        self.absent = []
        self.spans = []
        self.stack = []
        self.group = "setup"
        # group -> span name -> [calls, inclusive seconds, self seconds]
        self.totals = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.kept = []          # (operation id, spans) of the sampled operations
        self.peak_pool = 0
        self._originals = []    # (owner, attribute, span name, original)
        self._op_patches = []
        self._in_render = False

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)

        return traced

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own, around a stretch of its code."""
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, self.stack[-1] if self.stack else -1)

    def _special(self, name, fn):
        if name == "runtime._render_value":
            traced = self.wrap(name, fn)

            def render(value):
                # The renderer recurses through its module-level name; only
                # the outermost call is a span.
                if self._in_render:
                    return fn(value)
                self._in_render = True
                try:
                    return traced(value)
                finally:
                    self._in_render = False
            return render
        if name == "events.export":
            by_format = {f: self.wrap(f"events.export.{f}", fn) for f in ("jsonl", "dot")}

            def export(obj, format="jsonl"):
                return by_format.get(format, fn)(obj, format)
            return export
        if name == "runtime.deliver_next":
            traced = self.wrap(name, fn)

            def deliver_next(system):
                pool = len(system.scheduler.pending) + len(getattr(system, "_batch", ()))
                if pool > self.peak_pool:
                    self.peak_pool = pool
                return traced(system)
            return deliver_next
        return self.wrap(name, fn)

    def install(self):
        for owner, attr, name in self.targets:
            own = vars(owner)
            if attr not in own:
                self.absent.append(name)
                continue
            self._originals.append((owner, attr, name, own[attr]))
            setattr(owner, attr, self._special(name, own[attr]))

    def uninstall(self):
        for owner, attr, _name, original in reversed(self._originals):
            setattr(owner, attr, original)

    def not_restored(self) -> list:
        """Span names whose package attribute is not the original any more."""
        return [name for owner, attr, name, original in self._originals
                if vars(owner).get(attr) is not original]

    def wrap_system(self, system):
        """Wrap one system's handlers, hooks and services in place."""
        for behavior in system.behaviors.values():
            for prefix, table in (("handler", behavior.handlers),
                                  ("pre", behavior.pre_distribution),
                                  ("post", behavior.post_distribution)):
                for key, fn in list(table.items()):
                    self._op_patches.append((table, key, fn))
                    table[key] = self.wrap(f"{prefix}:{key}", fn)
        for service, fn in list(system.services.items()):
            self._op_patches.append((system.services, service, fn))
            system.services[service] = self.wrap(f"service:{service}", fn)

    # -- per-operation bookkeeping ----------------------------------------

    def begin(self, group):
        self.group = group
        self.spans = []
        self.stack.clear()

    def end(self, op_id=None, keep=False, count=True):
        """Put the per-system callables back and fold the operation's spans
        into the totals of its group (unless count is false)."""
        for table, key, fn in reversed(self._op_patches):
            table[key] = fn
        self._op_patches.clear()
        spans = self.spans
        if count:
            child = [0.0] * len(spans)
            for _name, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            totals = self.totals[self.group]
            for i, (name, start, end, _parent) in enumerate(spans):
                t = totals[name]
                t[0] += 1
                t[1] += end - start
                t[2] += end - start - child[i]
        if keep:
            self.kept.append((op_id, spans))
        self.spans = []

    def write_spans(self, path):
        with open(path, "w") as out:
            for op_id, spans in self.kept:
                for i, (name, start, end, parent) in enumerate(spans):
                    out.write(json.dumps({"op": op_id, "id": i, "name": name,
                                          "start": start, "end": end,
                                          "parent": parent}) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics from the totals.

MESSAGE_KEYS = ("searchHead", "headFound", "headAccepted", "headRetracted", "receipt",
                "updateFeatures", "scanNext", "copyStructure", "duplicateStructure")
SERVICES = (("features.unify", "unify"), ("lexicon.subclass_of", "subclass_of"),
            ("lexicon.resolve_entry", "resolve_entry"),
            ("concepts.role_permits", "role_permits"))


def _merge(totals, groups):
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for g in groups:
        for name, (calls, incl, self_) in totals.get(g, {}).items():
            t = out[name]
            t[0] += calls
            t[1] += incl
            t[2] += self_
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, counts, parse_modes):
    """Every per-layer metric as name -> (value, unit), and the metric
    names whose layer was absent.

    ``counts`` holds per-run sums over the traced parses that quiesced:
    parses, parse_s, events, word_actors, copies, reading_tags, readings,
    traced_parse_p50_ms, untraced_parse_p50_ms.  ``parse_modes`` names the
    totals groups of traced parses (one per scheduling mode).
    """
    totals = tracer.totals
    allt = _merge(totals, parse_modes)
    parallel = _merge(totals, [m for m in parse_modes if m == "parallel"])
    setup = totals.get("setup", {})
    parses = counts["parses"]
    deliveries = allt["runtime._execute"][0]
    absent = set(tracer.absent)

    def per_parse(x):
        return _ratio(x, parses)

    def us_per(name, denominator, which=2):
        return _ratio(allt[name][which] * 1e6, denominator)

    def ms_per_call(table, name, which=1):
        return _ratio(table[name][which] * 1e3, table[name][0])

    handler_self = sum(v[2] for k, v in allt.items()
                       if k.startswith(("handler:", "pre:", "post:")))
    m = {
        "runtime.deliveries_per_parse": (per_parse(deliveries), "count"),
        "runtime.scheduler_us_per_delivery": (us_per("runtime.deliver_next", deliveries), "us"),
        "runtime.fill_batch_us_per_round": (
            _ratio(parallel["runtime._fill_batch"][1] * 1e6, parallel["runtime._fill_batch"][0]),
            "us"),
        "runtime.deliveries_per_round": (
            _ratio(parallel["runtime._execute"][0], parallel["runtime._fill_batch"][0]), "count"),
        "runtime.peak_pending": (tracer.peak_pool, "count"),
        "runtime.dispatch_us_per_delivery": (us_per("runtime._execute", deliveries), "us"),
        "runtime.allowed_keys_us_per_delivery": (
            us_per("runtime.allowed_keys", deliveries, 1), "us"),
        "runtime.render_us_per_delivery": (us_per("runtime._render_value", deliveries, 1), "us"),
        "runtime.allowed_keys_parse_share": (
            _ratio(allt["runtime.allowed_keys"][1] * 100, counts["parse_s"]), "%"),
        "events.events_per_parse": (per_parse(counts["events"]), "count"),
        "events.record_us_per_event": (
            _ratio(allt["events.record"][1] * 1e6, allt["events.record"][0]), "us"),
        "events.export_jsonl_ms": (ms_per_call(allt, "events.export.jsonl"), "ms"),
        "events.export_dot_ms": (ms_per_call(allt, "events.export.dot"), "ms"),
        "events.validate_trace_ms": (ms_per_call(allt, "events.validate_trace"), "ms"),
        "events.derive_etn_ms": (ms_per_call(setup, "events.derive_etn"), "ms"),
        "protocol.build_system_us": (
            _ratio(allt["protocol.build_system"][1] * 1e6, allt["protocol.build_system"][0]),
            "us"),
        "protocol.handler_us_per_delivery": (_ratio(handler_self * 1e6, deliveries), "us"),
    }
    for key in MESSAGE_KEYS:
        calls = allt[f"handler:{key}"][0]
        self_s = allt[f"handler:{key}"][2] + allt[f"pre:{key}"][2] + allt[f"post:{key}"][2]
        m[f"protocol.{key}.deliveries"] = (per_parse(calls), "count")
        m[f"protocol.{key}.us_per_delivery"] = (_ratio(self_s * 1e6, calls), "us")
    m.update({
        "protocol.fringe_check_us_per_call": (
            _ratio(allt["protocol._assert_on_fringe"][1] * 1e6,
                   allt["protocol._assert_on_fringe"][0]), "us"),
        "protocol.word_actors_per_parse": (per_parse(counts["word_actors"]), "count"),
        "protocol.copies_per_parse": (per_parse(counts["copies"]), "count"),
        "protocol.reading_tags_per_parse": (per_parse(counts["reading_tags"]), "count"),
        "protocol.readings_per_parse": (per_parse(counts["readings"]), "count"),
        "protocol.readout_yield": (_ratio(counts["readings"], counts["reading_tags"]), "ratio"),
        "protocol.readout_ms": (ms_per_call(allt, "protocol.read_out_trees"), "ms"),
        "protocol.check_invariants_ms": (ms_per_call(allt, "protocol.check_invariants", 2), "ms"),
    })
    for metric, service in SERVICES:
        calls = allt[f"service:{service}"][0]
        m[f"{metric}.calls_per_parse"] = (per_parse(calls), "count")
        m[f"{metric}.us_per_call"] = (
            _ratio(allt[f"service:{service}"][1] * 1e6, calls), "us")
    m.update({
        "lexicon.load_ms": (ms_per_call(setup, "lexicon.load_lexicon"), "ms"),
        "concepts.load_ms": (ms_per_call(setup, "concepts.load_kb"), "ms"),
        "oracle.oracle_parse_ms": (ms_per_call(setup, "oracle.oracle_parse"), "ms"),
        "trace.parse_ms_p50": (counts["traced_parse_p50_ms"], "ms"),
        "trace.untraced_parse_ms_p50": (counts["untraced_parse_p50_ms"], "ms"),
        "trace.overhead_ratio": (
            _ratio(counts["traced_parse_p50_ms"], counts["untraced_parse_p50_ms"]), "ratio"),
    })

    needs = {
        "runtime.deliver_next": ["runtime.scheduler_us_per_delivery", "runtime.peak_pending"],
        "runtime._fill_batch": ["runtime.fill_batch_us_per_round",
                                "runtime.deliveries_per_round"],
        "runtime._execute": ["runtime.deliveries_per_parse", "runtime.dispatch_us_per_delivery"],
        "runtime.allowed_keys": ["runtime.allowed_keys_us_per_delivery",
                                 "runtime.allowed_keys_parse_share"],
        "runtime._render_value": ["runtime.render_us_per_delivery"],
        "events.record": ["events.record_us_per_event"],
        "events.export": ["events.export_jsonl_ms", "events.export_dot_ms"],
        "events.validate_trace": ["events.validate_trace_ms"],
        "events.derive_etn": ["events.derive_etn_ms"],
        "protocol._assert_on_fringe": ["protocol.fringe_check_us_per_call"],
        "protocol.read_out_trees": ["protocol.readout_ms"],
        "protocol.check_invariants": ["protocol.check_invariants_ms"],
        "oracle.oracle_parse": ["oracle.oracle_parse_ms"],
        "lexicon.load_lexicon": ["lexicon.load_ms"],
        "concepts.load_kb": ["concepts.load_ms"],
    }
    return m, sorted(metric for layer in absent for metric in needs.get(layer, []))
