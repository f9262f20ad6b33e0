"""Layer tracer: records a span around every call into the engine's
hot-path functions, from outside the engine.

Each traced function is replaced, in every ``bigengine`` module that
binds it, by a wrapper that appends ``(name, start, end, parent)`` to an
in-memory list. Modules that import a function by name (``engine`` binds
``find_occurrences``, ``apply_at``, ``canonical_key``, ``iso_equal``;
``rules`` binds ``find_occurrences`` and ``check_constraints``) are
patched too, so internal calls are seen. A layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _length(result):
    return len(result)


def _truth(result):
    return 1 if result else 0


# (module, attribute, outcome measure). The outcome measure turns a
# call's result into a number summed per layer: occurrences returned,
# guards passed, successors built, bytes exported, isomorphisms found.
TRACED = (
    ("elaborate", "load_file", None),
    ("matching", "find_occurrences", _length),
    ("matching", "check_constraints", _truth),
    ("matching", "matches_predicate", None),
    ("rules", "apply_at", None),
    ("engine", "enabled_class", None),
    ("engine", "reduce_instantaneous", None),
    ("engine", "step_distribution", _length),
    ("engine", "explore", None),
    ("engine", "simulate", None),
    ("canon", "canonical_key", None),
    ("canon", "iso_equal", _truth),
    ("canon", "StateStore.insert", None),
    ("canon", "StateStore.lookup", None),
    ("export", "write_tra", _length),
    ("export", "write_labels", _length),
    ("export", "write_dot", _length),
)


class Tracer:
    """Installs the wrappers on `install` and removes them on `remove`.

    `spans` holds every span since the last `reset`; `collect` folds
    them into per-layer calls, self seconds and outcome sums.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._outcomes: dict = {}
        self._undo: list = []

    def _wrap(self, name, fn, measure):
        spans, stack, outcomes = self.spans, self._stack, self._outcomes

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if measure is not None:
                outcomes[name] = outcomes.get(name, 0) + measure(result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "bigengine" or key.startswith("bigengine."))]
        for module_name, attr, measure in TRACED:
            home = sys.modules.get("bigengine." + module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            fn = getattr(owner, member, None)
            if fn is None:
                continue                  # gone from the engine: reported as 0 calls
            wrapper = self._wrap(module_name + "." + attr, fn, measure)
            if owner_name:
                self._patch(owner, member, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def collect(self) -> dict:
        """Per layer name: {"calls", "self_s", "outcome"}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "outcome": 0})
            row["calls"] += 1
            row["self_s"] += end - start - covered
        for name, total in self._outcomes.items():
            layers.setdefault(name, {"calls": 0, "self_s": 0.0, "outcome": 0})["outcome"] = total
        return layers

    def reset(self):
        self.spans.clear()
        self._outcomes.clear()

    def write_spans(self, path):
        """The spans held now, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
