"""Span recording around the public functions of each rookposet module.

The program carries no tracing of its own.  ``install`` replaces every layer
function named in ``LAYERS`` by a wrapper that records one span per call:
its name, start, end and the span that was open when it began (its parent).
The wrapper is bound wherever the original was bound, because ``cli`` and
``suites`` import ``run_suite``, ``coadjoint``, ``poset_index`` and others by
name, and a wrapper only on the defining module would miss those calls.

Self time is a span's duration minus the durations of its direct children.
Every layer is single-threaded and nothing queues between layers, so there is
no waiting time to record; a span is busy from start to end.
"""
from __future__ import annotations

import functools
import sys
import time

# module -> public names; ``PosetIndex.x`` is a member of that class.
LAYERS = {
    "cli": ["run"],
    "suites": ["run_suite"],
    "exactlin": [
        "coadjoint",
        "mat_mul",
        "upper_inverse",
        "rank_profile",
        "integer_rank",
        "random_scalars",
        "placement_form",
        "tangent_dimension",
        "kirillov_form",
        "matrix_rank",
        "check_polarization",
    ],
    "polarization": ["mp_sets", "subalgebra_witness", "dimensions"],
    "permutations": ["inversions"],
    "board": ["permutation_of", "rank_matrix", "placement"],
    "poset": [
        "enumerate_placements",
        "poset_index",
        "_pairwise_leq",
        "PosetIndex.covers",
        "cover_moves",
        "PosetIndex.lower_cover_ids",
        "PosetIndex.index_of",
        "verify_covers",
    ],
}


def layer_names() -> list[str]:
    """Metric prefixes, ``<module>.<function>``, in ``LAYERS`` order."""
    return [f"{mod}.{name.split('.')[-1]}" for mod, names in LAYERS.items() for name in names]


class Recorder:
    """Spans kept in memory as (parent, name, start, end); the id is the list index."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.open: list[int] = []
        self.cells = 0  # sum of rows * cols over integer_rank calls

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self.open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[sid] = (parent, name, start, end)

        return traced

    def count_cells(self, fn):
        """Outer wrapper for integer_rank: adds rows * cols of its argument."""

        @functools.wraps(fn)
        def counted(rows, *args, **kwargs):
            nrows = len(rows)
            self.cells += nrows * (len(rows[0]) if nrows else 0)
            return fn(rows, *args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per layer: exact call count and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in layer_names()}
        for sid, (_, name, start, end) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child_time[sid]
        return out


def _rebind(original, replacement) -> None:
    """Bind ``replacement`` under every rookposet module name bound to ``original``."""
    for modname, module in list(sys.modules.items()):
        if modname != "rookposet" and not modname.startswith("rookposet."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> list[str]:
    """Wrap every layer function; returns the names not found in the program."""
    import rookposet  # noqa: F401  (loads every submodule)

    missing = []
    for mod, names in LAYERS.items():
        home = sys.modules[f"rookposet.{mod}"]
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            metric = f"{mod}.{attr}"
            owner = getattr(home, cls_name, None) if cls_name else home
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(metric)
            elif isinstance(original, property):
                setattr(owner, attr, property(recorder.wrap(metric, original.fget)))
            elif cls_name:
                setattr(owner, attr, recorder.wrap(metric, original))
            else:
                wrapped = recorder.wrap(metric, original)
                if metric == "exactlin.integer_rank":
                    wrapped = recorder.count_cells(wrapped)
                _rebind(original, wrapped)
    return missing
