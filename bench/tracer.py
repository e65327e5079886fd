"""Outside-in span tracer for dcmesh's public calls.

dcmesh binds most collaborators by name at import time (``from
.keysetup import build_key_graph``), so wrapping a function only where
it is defined misses the calls made through those copies.  The tracer
therefore replaces every module global in the ``dcmesh`` package whose
value *is* a traced function, and wraps methods on their class.  Spans
are kept in memory as parallel arrays and written out after the run.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
from array import array
from time import perf_counter

# layer (defining module) -> traced functions, methods as Class.method
TRACED = {
    "keysetup": (
        "build_key_graph", "sign", "KeyGraph.public", "KeyGraph.view",
        "KeyView.aggregate_commitment", "verify_sig",
    ),
    "merkle": ("build_tree",),
    "groups": ("commit", "GroupParams.validate", "GroupParams.is_element"),
    "zkp": ("prove_or", "verify_or", "prove_rep", "verify_rep", "forge_attempt"),
    "splitter": (
        "run_session", "ResolutionTree.advance", "prove_retransmission",
        "verify_retransmission", "prove_node_denial", "verify_node_denial",
        "audit_wrong_branches",
    ),
    "dcnet": ("make_ciphertext", "aggregate_round", "investigate"),
    "sim": ("run_scenario", "verify_transcript"),
    "transcript": ("Transcript.to_text", "Transcript.from_text"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
PACKAGE = "dcmesh"


class Tracer:
    """Records (id, parent, name, start, end) spans while installed."""

    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [0]   # open span ids; 0 is the root
        self._next_id = itertools.count(1)
        self._undo = []     # (owner, attribute, original value)
        self.missing = []   # traced names the package no longer defines

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for index, span in enumerate(SPAN_NAMES):
            layer, _, fn = span.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                self.missing.append(span)
                continue
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(span)
                    continue
                self._wrap_method(cls, meth, index)
                continue
            original = getattr(module, fn, None)
            if not callable(original):
                self.missing.append(span)
                continue
            wrapper = self._wrap(original, index)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, meth, index) -> None:
        raw = vars(cls)[meth]
        if isinstance(raw, (classmethod, staticmethod)):
            self._replace(cls, meth, type(raw)(self._wrap(raw.__func__, index)))
        else:
            self._replace(cls, meth, self._wrap(raw, index))

    def _wrap(self, fn, index):
        stack, next_id = self._stack, self._next_id
        ids, parents, names = self.ids, self.parents, self.names
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(next_id)
            parent = stack[-1]
            stack.append(span_id)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ids.append(span_id)
                parents.append(parent)
                names.append(index)
                starts.append(t0)
                ends.append(t1)

        return traced

    # -- results -------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, self seconds); and the traced seconds
        covered by root spans."""
        duration = {}
        child_time = {}
        for span_id, parent, t0, t1 in zip(self.ids, self.parents, self.starts, self.ends):
            duration[span_id] = t1 - t0
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for span_id, index in zip(self.ids, self.names):
            calls[index] += 1
            self_s[index] += duration[span_id] - child_time.get(span_id, 0.0)
        per_name = {
            name: (calls[i], self_s[i]) for i, name in enumerate(SPAN_NAMES)
        }
        return per_name, child_time.get(0, 0.0)

    def write(self, path) -> None:
        """Write spans as gzip'd TSV: id, parent, name, start, end."""
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for span_id, parent, index, t0, t1 in zip(
                self.ids, self.parents, self.names, self.starts, self.ends
            ):
                out.write(f"{span_id}\t{parent}\t{SPAN_NAMES[index]}\t{t0:.9f}\t{t1:.9f}\n")
