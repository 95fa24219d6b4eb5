"""In-memory spans recorded from the benchmark's own files.

A span has a name, a start, an end, a parent span and an op id.  Spans live
in flat typed arrays (about 36 bytes each), so a traced run can hold a few
hundred thousand of them, and are written out once when the run ends.

Spans come in two kinds.  A *real* span wraps a call the op makes.  A
*replayed* span wraps a call made again after the op, through the layer's
public function, to estimate the op's inner work from outside; its parent
is the real span whose work it stands for.  Self time of a span is its
duration minus the durations of its direct children, so self times and the
shares built from them are replayed estimates.
"""

from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.replayed = array("b")
        self.op_id = -1

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name, parent=-1, replayed=False):
        """Start a span now; returns its id for close() and for children."""
        sid = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.replayed.append(replayed)
        self.end.append(float("nan"))
        self.start.append(perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = perf_counter()

    def call(self, name, parent, fn, *args):
        """Replay fn(*args) inside a replayed span; returns (result, span id)."""
        sid = self.open(name, parent, replayed=True)
        out = fn(*args)
        self.close(sid)
        return out, sid

    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "replayed": np.array(self.replayed, dtype=np.int8),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Per-name durations and self times over one or more tracers.

    Tracers are consulted in order: a name takes its figures from the first
    tracer that recorded it, so a later tracer only fills in names that the
    earlier ones lack.
    """

    def __init__(self, *tracers):
        self._sources = []
        for tr in tracers:
            a = tr.arrays()
            a["dur"] = a["end"] - a["start"]
            has_parent = a["parent"] >= 0
            a["child_sum"] = np.bincount(a["parent"][has_parent], weights=a["dur"][has_parent],
                                         minlength=len(a["dur"]))
            self._sources.append((tr.names, a))

    def _find(self, name):
        for names, a in self._sources:
            if name in names:
                return a, a["name"] == names.index(name)
        return None, None

    def p50(self, name):
        a, mask = self._find(name)
        return float(np.median(a["dur"][mask]))

    def self_frac(self, name):
        """Share of the spans' total time not covered by their direct children."""
        a, mask = self._find(name)
        return float((a["dur"][mask] - a["child_sum"][mask]).sum() / a["dur"][mask].sum())

    def child_frac(self, name, child):
        """Share of the spans' total time spent in direct children named child."""
        for names, a in self._sources:
            if name in names:
                if child not in names:
                    return 0.0
                is_child = (a["name"] == names.index(child)) & (a["parent"] >= 0)
                under = a["name"][a["parent"][is_child]] == names.index(name)
                parent_mask = a["name"] == names.index(name)
                return float(a["dur"][is_child][under].sum() / a["dur"][parent_mask].sum())
        raise KeyError(name)
