"""In-memory span tracer that wraps the public functions of ``qcontext``.

``Tracer.install`` replaces every public module-level function of the layer
modules, the public methods of the input-validation classes
(``PovmFamily``, ``ContextHypergraph``) and the ``hv`` sampling kernels with
a wrapper that records one span per call: name, start, end, parent span and
operation id. Names bound
elsewhere by ``from .x import f`` (the package ``__init__``, ``cli``, ``hv``
importing ``born_probability``, ...) are rebound too, so a call is traced
whichever binding it goes through. Spans are recorded only while ``op`` is
set; ``uninstall`` restores the originals. Spans stay in memory, in flat
arrays, and ``write`` dumps them once at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

#: Modules whose public functions are layers, by their short names.
LAYERS = ("bloch", "povm", "ks", "dilation", "hv", "cli")
#: Classes whose public methods are traced too, named ``<module>.<method>``.
METHOD_CLASSES = (("povm", "PovmFamily"), ("ks", "ContextHypergraph"))
#: Private functions traced too: the per-shard sampling kernels. A shard run
#: in-process (workers=1, or a single shard) is then a child span, so the self
#: time of ``simulate_povm`` and ``bell_marginal_estimate`` excludes it.
KERNELS = (("hv", "_povm_shard"), ("hv", "_marginal_shard"))


class Tracer:
    def __init__(self):
        #: Operation id (an int) stamped on new spans; None records nothing.
        self.op: int | None = None
        self.names: list[str] = []
        self.name_index: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op_id: array = array("i")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._own: array | None = None

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(starts)
            self.name_index.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for short in LAYERS:
            module = sys.modules[f"qcontext.{short}"]
            for attr, obj in vars(module).items():
                traced = not attr.startswith("_") or (short, attr) in KERNELS
                if traced and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name == "qcontext" or module_name.startswith("qcontext."):
                for attr, obj in list(vars(module).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        self._replace(module, attr, obj, wrapper)
        for short, class_name in METHOD_CLASSES:
            cls = getattr(sys.modules[f"qcontext.{short}"], class_name)
            for attr, member in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    self._replace(cls, attr, member, classmethod(self._wrap(f"{short}.{attr}", member.__func__)))
                elif inspect.isfunction(member):
                    self._replace(cls, attr, member, self._wrap(f"{short}.{attr}", member))

    def _replace(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children
        (computed once, after tracing)."""
        if self._own is None or len(self._own) != len(self.start):
            own = array("d", (e - s for s, e in zip(self.start, self.end)))
            for index, parent in enumerate(self.parent):
                if parent >= 0:
                    own[parent] -= self.end[index] - self.start[index]
            self._own = own
        return self._own

    def aggregate(self, ops) -> dict[str, dict[str, float]]:
        """Per name: calls, busy_s and self_s over the spans of ``ops``."""
        own = self.self_times()
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, name_id in enumerate(self.name_index):
            if self.op_id[index] not in ops:
                continue
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["busy_s"] += self.end[index] - self.start[index]
            entry["self_s"] += own[index]
        return dict(totals)

    def write(self, path) -> None:
        """Gzipped JSON: the name table and one column per span field."""
        doc = {
            "names": self.names,
            "name": self.name_index.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op_id.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))
