"""Spans around the engine's layer entry points, recorded from outside it.

``install`` replaces each target function, wherever a ``shleibniz`` module
holds a reference to it, with a wrapper that records a span: name, start,
end and parent span.  Spans stay in memory until ``write``.  The engine's
code is not changed; only the traced process is affected.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); attributes with a dot are methods
TARGETS = (
    ("shleibniz.document", "parse_document", "document.parse"),
    ("shleibniz.document", "AlgebraDocument.to_basis", "document.to_basis"),
    ("shleibniz.document", "AlgebraDocument.to_bracket", "document.to_bracket"),
    ("shleibniz.document", "AlgebraDocument.to_family", "document.to_family"),
    ("shleibniz.document", "AlgebraDocument.to_gauge", "document.to_gauge"),
    ("shleibniz.derived", "build_sh_structure", "derived.build_sh_structure"),
    ("shleibniz.derived", "build_codifferential", "derived.build_codifferential"),
    ("shleibniz.derived", "check_sh_leibniz", "derived.check_sh_leibniz"),
    ("shleibniz.derived", "check_codifferential", "derived.check_codifferential"),
    ("shleibniz.derived", "check_key_lemma", "derived.check_key_lemma"),
    ("shleibniz.multiop", "nary_bracket", "multiop.nary_bracket"),
    ("shleibniz.multiop", "n_i_d", "multiop.n_i_d"),
    ("shleibniz.multiop", "check_leibniz_identity", "multiop.check_leibniz_identity"),
    ("shleibniz.coalgebra", "hom_bracket", "coalgebra.hom_bracket"),
    ("shleibniz.coalgebra", "check_dual_leibniz", "coalgebra.check_dual_leibniz"),
    ("shleibniz.coalgebra", "check_coderivation_axiom", "coalgebra.check_coderivation_axiom"),
    ("shleibniz.gauge", "check_gauge_equivalence", "gauge.check_gauge_equivalence"),
    ("shleibniz.gauge", "check_deformation", "gauge.check_deformation"),
    ("shleibniz.gauge", "gauge_transform", "gauge.gauge_transform"),
    ("shleibniz.report", "render_text", "report.render"),
)


class Recorder:
    """In-memory spans; each is [name, start, end, parent index, root index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        record = [name, time.perf_counter(), None, parent, root]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child_time[index]
        return dict(out)

    def coverage(self) -> float:
        """Share of the root spans' time covered by their direct children."""
        roots = {i for i, s in enumerate(self.spans) if s[3] < 0}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        covered = sum(e - s for _, s, e, parent, _ in self.spans if parent in roots)
        return covered / total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, root in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "root": root}
                out.write(json.dumps(record) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every target in every loaded shleibniz module that refers to it."""
    modules = [m for n, m in sys.modules.items() if n.startswith("shleibniz") and m]
    for module_name, attr, span in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, recorder.wrap(span, getattr(cls, method)))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(span, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
