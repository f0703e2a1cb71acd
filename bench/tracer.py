"""Span tracer that wraps opmine's layer functions from outside the program.

Each wrapped call records a span (name, start, end, parent span, operation id).
A function is wrapped in every opmine module namespace that bound it, because
``pipeline`` and ``cli`` import names with ``from ... import``; patching only the
defining module would miss their calls. Wrappers are removed on exit, and the
exit checks that every patched name is the original function again.

Only the functions below are wrapped. Per-token helpers such as
``preprocess.stem`` or ``corpus.parse_timestamp`` stay inside their callers'
self time: wrapping them would add a span per token and swamp the trace.
"""

from __future__ import annotations

import sys
import time

TRACED = {
    "corpus": ("load_corpus", "split_folds"),
    "preprocess": ("tokenize", "remove_stop_words", "build_suffix_trie", "stem_tokens"),
    "features": ("rule_adjusted_tokens", "build_dictionary", "extract_counts", "compute_metric"),
    "classify": ("train_svm", "train_nb", "predict_svm", "predict_nb"),
    "pipeline": (
        "vectorize", "train_two_stage", "evaluate_fold", "cross_validate",
        "classify_post", "model_to_json", "load_model",
    ),
    "stats": ("mood_by_topic", "mood_by_month", "emit_report"),
    "cli": ("main",),
    "ioutil": ("atomic_write_text",),
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _counters(key: str):
    """Counter increments for one call, from its arguments and result."""
    if key == "corpus.load_corpus":
        return lambda a, k, r: {"posts": len(r)}
    if key == "preprocess.build_suffix_trie":
        return lambda a, k, r: {"words": len(r.vocabulary)}
    if key == "preprocess.stem_tokens":
        return lambda a, k, r: {"tokens": len(_arg(a, k, 1, "tokens"))}
    if key == "features.build_dictionary":
        return lambda a, k, r: {"entries": len(r)}
    if key == "features.compute_metric":
        return lambda a, k, r: {"nnz": len(r)}
    if key == "classify.train_svm":
        def svm(a, k, r):
            steps = len(_arg(a, k, 0, "vectors")) * _arg(a, k, 3, "epochs")
            return {"steps": steps, "step_dims": steps * r.vocab_size}
        return svm
    if key == "pipeline.vectorize":
        return lambda a, k, r: {"empty": int(len(r) == 0)}
    if key == "pipeline.classify_post":
        return lambda a, k, r: {"stage2": int(r.polarity_score is not None)}
    if key == "pipeline.model_to_json":
        return lambda a, k, r: {"bytes": len(r.encode("utf-8"))}
    if key == "ioutil.atomic_write_text":
        return lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text").encode("utf-8"))}
    return None


class Tracer:
    """Context manager: wraps the TRACED functions while active.

    Spans are recorded only inside an operation (``begin_op``/``end_op``), so
    the benchmark's own untimed checks leave no trace. A function listed in
    ``op_roots`` opens a nested operation of its own, e.g. one per grid cell.
    """

    def __init__(self, op_roots=()):
        self.op_roots = set(op_roots)
        self.names: list[str] = []
        self.spans: list = []
        self.ops: list[dict] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.op = None
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    # -- operations ---------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.ops.append({"kind": kind, "wall": None, "root_span": None})
        self.op = len(self.ops) - 1

    def end_op(self, wall: float) -> None:
        self.ops[self.op]["wall"] = wall
        self.op = None

    def take_round(self) -> dict:
        """Hand over the spans recorded so far and start afresh."""
        taken = {"names": list(self.names), "spans": self.spans, "ops": self.ops, "counts": self.counts}
        self.spans, self.ops, self.counts = [], [], {}
        return taken

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        name_id = len(self.names)
        self.names.append(key)
        counter = _counters(key)
        opens_op = key in self.op_roots
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            if opens_op:
                tracer.ops.append({"kind": key, "wall": None, "root_span": idx, "parent_op": op})
                tracer.op = len(tracer.ops) - 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.op)
                if opens_op:
                    tracer.ops[tracer.op]["wall"] = end - start
                    tracer.op = op
            if counter is not None:
                slot = tracer.counts.setdefault(key, {})
                for stat, inc in counter(args, kwargs, result).items():
                    slot[stat] = slot.get(stat, 0) + inc
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = self._opmine_modules()
        wrappers = {}
        for short, functions in TRACED.items():
            home = modules[f"opmine.{short}"]
            for fname in functions:
                original = getattr(home, fname)
                wrappers[id(original)] = (original, self._wrap(f"{short}.{fname}", original))
        self._wrappers = {id(w) for _, w in wrappers.values()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()
        leftover = [f"{name}.{attr}" for name, mod in self._opmine_modules().items()
                    for attr, value in vars(mod).items() if id(value) in self._wrappers]
        if leftover:
            raise RuntimeError(f"tracer left wrappers in place: {leftover}")

    @staticmethod
    def _opmine_modules() -> dict:
        return {name: mod for name, mod in sys.modules.items()
                if name == "opmine" or name.startswith("opmine.")}


def summarize(trace: dict) -> tuple[dict, dict]:
    """Per-function {calls, self_s, counters...} and the per-operation accounting.

    Self time is a span's duration minus the durations of its direct children.
    For every operation, wall = sum of its spans' self times + untraced_s; the
    untraced part is time the benchmark measured around the call but no span
    covered. A nested operation (a grid cell) is carved out of its parent's wall.
    """
    names, spans, ops = trace["names"], trace["spans"], trace["ops"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    per_fn: dict[str, dict] = {}
    self_by_op = [0.0] * len(ops)
    for i, (name_id, start, end, _, op) in enumerate(spans):
        own = (end - start) - child[i]
        slot = per_fn.setdefault(names[name_id], {"calls": 0, "self_s": 0.0})
        slot["calls"] += 1
        slot["self_s"] += own
        self_by_op[op] += own
    for key, counts in trace["counts"].items():
        per_fn.setdefault(key, {"calls": 0, "self_s": 0.0}).update(counts)
    wall = [op["wall"] for op in ops]
    for op in ops:
        if op["root_span"] is not None:
            wall[op["parent_op"]] -= op["wall"]
    untraced = [w - s for w, s in zip(wall, self_by_op)]
    accounting = {
        "ops": len(ops),
        "wall_s": sum(op["wall"] for op in ops if op["root_span"] is None),
        "self_s": sum(self_by_op),
        "untraced_s": sum(untraced),
        "min_op_untraced_s": min(untraced, default=0.0),
    }
    return per_fn, accounting
