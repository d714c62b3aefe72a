"""In-memory span tracer that wraps navpredict's public functions from outside.

``Tracer.installed()`` rebinds every public function (and public method)
of the traced modules, wherever a navpredict module holds a reference to
it, to a wrapper that records one span: name, start, end, parent span,
phase and two integers a probe may fill in (for example points scanned
and points kept). Nothing under ``src/`` changes; leaving the context
restores the originals.

Self time is a span's duration minus the part its child spans cover. Spans
nest strictly (one thread, synchronous calls), so child coverage is the sum
of the direct children's durations.
"""

from __future__ import annotations

import array
import contextlib
import functools
import inspect
import time

import numpy as np

# Module -> functions that get a counter instead of a span, because they
# run hundreds of times per query and a span each would swamp it.
COUNT_ONLY = {"road_graph": ("point_segment_distance",)}


def _select_probe(args, kwargs, result):
    return len(args[0]), len(result)


def _len_probe(args, kwargs, result):
    return len(result), 0


def _parse_probe(args, kwargs, result):
    return len(result[0]), len(result[1])


def _forward_probe(args, kwargs, result):
    # The observed track's identity tells repeated teacher forwards apart.
    return id(args[0]), 0


PROBES = {
    "model.select_map_points": _select_probe,
    "model.forward": _forward_probe,
    "scenario.generate_scenes": _len_probe,
    "osm_ingest.parse_osm": _parse_probe,
    "road_graph.segments_in_radius": _len_probe,
}


class Tracer:
    def __init__(self, package, module_names):
        self.package = package
        self.modules = [getattr(package, name) for name in module_names]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.phase = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.a = array.array("q")
        self.b = array.array("q")
        self.counters: dict[tuple[str, int], int] = {}
        self.current_phase = 0
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.phase.append(self.current_phase)
        self.start.append(0.0)
        self.end.append(0.0)
        self.a.append(0)
        self.b.append(0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if probe is not None:
                self.a[idx], self.b[idx] = probe(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.current_phase)
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _targets(self):
        """(span name, owner, attribute, original) per traced callable."""
        out = []
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    out.append((f"{short}.{attr}", mod, attr, val))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for mname, meth in vars(val).items():
                        if (inspect.isfunction(meth)
                                and not mname.startswith("_")):
                            out.append((f"{short}.{mname}", val, mname, meth))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target wherever a package module references it."""
        patches = []
        holders = [m for name, m in vars(self.package).items()
                   if inspect.ismodule(m)
                   and m.__name__.startswith(self.package.__name__)]
        for name, owner, attr, orig in self._targets():
            short, fname = name.split(".", 1)
            if fname in COUNT_ONLY.get(short, ()):
                wrapper = self._counter(name, orig)
            else:
                wrapper = self._wrap(name, orig)
            if inspect.isclass(owner):
                patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for holder in holders:
                for hattr, hval in list(vars(holder).items()):
                    if hval is orig:
                        patches.append((holder, hattr, orig))
                        setattr(holder, hattr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def frame(self) -> dict[str, np.ndarray]:
        """All spans as arrays, with duration and self time in seconds."""
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": parent,
            "phase": np.frombuffer(self.phase, dtype=np.int64).copy(),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - covered,
            "a": np.frombuffer(self.a, dtype=np.int64).copy(),
            "b": np.frombuffer(self.b, dtype=np.int64).copy(),
        }

    def write(self, path, frame) -> None:
        np.savez(path, names=np.array(self.names), **frame)
