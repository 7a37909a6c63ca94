"""Span recorder for the traced benchmark run.

Spans are taken from outside the program: `instrument` replaces each public
entry point under the name its calling module binds it (for example
`hbasis.construct.bits_to_sorted`, which `build_theorem1` calls) with a
wrapper that records (name, start, end, parent) and the layer's counters,
and restores the original bindings on exit.  Nothing under `src/` changes.

Spans live in flat arrays, because the search workload makes hundreds of
thousands of `n_of` calls per round, and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from array import array
from collections import defaultdict
from math import ceil
from pathlib import Path
from time import perf_counter

import numpy as np

SEARCH_LADDER = ((2, 11), (3, 8), (4, 7), (6, 6))
COVER_ROUNDS = 3

# (binding module, attribute, span name): the entry point as its caller sees it.
BINDINGS = (
    ("hbasis.cli", "main", "cli.main"),
    ("hbasis.cli", "plan_params", "construct.plan_params"),
    ("hbasis.cli", "build_theorem1", "construct.build_theorem1"),
    ("hbasis.cli", "verify_basis", "sumset.verify_basis"),
    ("hbasis.cli", "read_basis_document", "basisfile.read_basis_document"),
    ("hbasis.cli", "format_document", "basisfile.format_document"),
    ("hbasis.cli", "extremal_n", "search.extremal_n"),
    ("hbasis.construct", "decompose", "construct.decompose"),
    ("hbasis.construct", "bose_chowla", "sidon.bose_chowla"),
    ("hbasis.construct", "coverage_layers", "sumset.coverage_layers"),
    ("hbasis.construct", "bits_to_sorted", "arith.bits_to_sorted"),
    ("hbasis.construct", "k_complement", "cover.k_complement"),
    ("hbasis.construct", "verify_basis", "sumset.verify_basis"),
    ("hbasis.construct", "backtrack_witness", "sumset.backtrack_witness"),
    ("hbasis.cover", "greedy_shift_cover", "cover.greedy_shift_cover"),
    ("hbasis.cover", "residue_sumset", "sumset.residue_sumset"),
    ("hbasis.sumset", "bits_to_sorted", "arith.bits_to_sorted"),
    ("hbasis.search", "n_of", "sumset.n_of"),
)

# Per-layer metrics (name, unit): every one is printed on every workload,
# as 0 where the layer does no work.  `.s` is self time per round and
# `.total_s` the whole span per round, children included.
PER_LAYER = (
    ("cli.main.s", "s"),
    ("construct.plan_params.s", "s"),
    ("construct.build_theorem1.s", "s"),
    ("construct.basis_size", "count"),
    ("arith.bits_to_sorted.s", "s"),
    ("arith.bits_to_sorted.calls", "count"),
    ("arith.bits_to_sorted.bits_decoded", "count"),
    ("cover.k_complement.s", "s"),
    ("cover.greedy_shift_cover.s", "s"),
    ("cover.picks", "count"),
    *((f"cover.picks.round_{i}", "count") for i in range(1, COVER_ROUNDS + 1)),
    ("cover.s_per_pick", "s"),
    ("cover.shifts_over_bound", "ratio"),
    ("sumset.residue_sumset.s", "s"),
    ("sumset.verify_basis.s", "s"),
    ("sumset.verify.shift_ors", "count"),
    ("sumset.verify.bytes_computed", "bytes"),
    ("sumset.coverage_layers.s", "s"),
    ("sidon.bose_chowla.s", "s"),
    ("construct.decompose.s", "s"),
    ("construct.decompose.calls", "count"),
    ("construct.decompose.errors", "count"),
    ("construct.decompose.first_call_s", "s"),
    ("sumset.backtrack_witness.s", "s"),
    ("search.extremal_n.s", "s"),
    *((f"search.extremal_n.h{h}k{k}.total_s", "s") for h, k in SEARCH_LADDER),
    ("search.nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("sumset.n_of.s", "s"),
    ("sumset.n_of.calls", "count"),
    ("basisfile.read_basis_document.s", "s"),
    ("basisfile.format_document.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "frac"),
)

# Counts that depend only on the workload's input, never on timing.
DETERMINISTIC = ("cover.picks", "arith.bits_to_sorted.bits_decoded", "arith.bits_to_sorted.calls",
                 "sumset.verify.shift_ors", "search.nodes",
                 "construct.decompose.calls", "construct.decompose.errors")


class Tracer:
    """In-memory spans plus the counters the hooks derive from arguments and results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.first_call_s = 0.0
        self._decomposed: set[int] = set()
        self._cover_rounds: list[int] = []

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to the measured rounds."""
        self.counts.clear()
        self._cover_rounds.clear()
        return len(self.name_id)

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result, self.end[idx] - self.start[idx])
            return result

        return traced

    def self_times(self, first: int) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count by span name over spans[first:].

        Self time is a span's duration minus the durations of its direct children.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        parents = np.frombuffer(self.parent, dtype=np.int32)[first:]
        dur = (np.frombuffer(self.end, dtype=np.float64)[first:]
               - np.frombuffer(self.start, dtype=np.float64)[first:])
        own = np.zeros(len(self.names))
        np.add.at(own, ids, dur)
        child = parents >= first
        np.add.at(own, np.frombuffer(self.name_id, dtype=np.int32)[parents[child]], -dur[child])
        calls = np.bincount(ids, minlength=len(self.names))
        return ({name: float(own[i]) for i, name in enumerate(self.names)},
                {name: int(calls[i]) for i, name in enumerate(self.names)})

    def per_layer(self, first: int, rounds: int) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_frac, per measured round."""
        own, calls = self.self_times(first)
        c = self.counts
        out = {}
        for name, unit in PER_LAYER:
            if name.endswith(".s"):
                out[name] = own.get(name[:-2], 0.0) / rounds
            elif name.endswith(".calls"):
                out[name] = calls.get(name[:-6], 0) / rounds
            else:
                out[name] = c.get(name, 0.0) / rounds
        out["construct.decompose.first_call_s"] = self.first_call_s
        out["cover.s_per_pick"] = c["cover.greedy_shift_cover.incl_s"] / c["cover.picks"] if c["cover.picks"] else 0.0
        out["cover.shifts_over_bound"] = (c["cover.shifts_over_bound.sum"] / c["cover.k_complement.calls"]
                                          if c["cover.k_complement.calls"] else 0.0)
        out["search.nodes_per_s"] = c["search.nodes"] / c["search.extremal_n.incl_s"] if c["search.nodes"] else 0.0
        out["trace.spans"] = float(len(self.name_id) - first) / rounds
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _bits_to_sorted(t, args, result, dur):
    t.counts["arith.bits_to_sorted.bits_decoded"] += len(result)


def _greedy_shift_cover(t, args, result, dur):
    t._cover_rounds.append(len(result.picks))
    t.counts["cover.greedy_shift_cover.incl_s"] += dur


def _k_complement(t, args, result, dur):
    from hbasis.cover import complement_size_bound
    base, k = args
    rounds = t._cover_rounds[:]
    t._cover_rounds.clear()
    for i, picks in enumerate(rounds[:COVER_ROUNDS], start=1):
        t.counts[f"cover.picks.round_{i}"] += picks
    t.counts["cover.picks"] += sum(rounds)
    t.counts["cover.k_complement.calls"] += 1
    if result.q >= 2:
        t.counts["cover.shifts_over_bound.sum"] += (
            result.total_shifts / complement_size_bound(result.q, len(base), k))


def _verify_basis(t, args, result, dur):
    # Model of coverage_layers: layers 2..h each OR one shifted copy of the
    # previous layer (n+1 bits) per element a <= n, an operand of n+1+a bits.
    basis, h, n = args
    elems = [a for a in basis.elements if a <= n]
    t.counts["sumset.verify.shift_ors"] += (h - 1) * len(elems)
    t.counts["sumset.verify.bytes_computed"] += (h - 1) * sum(ceil((n + 1 + a) / 8) for a in elems)


def _build_theorem1(t, args, result, dur):
    t.counts["construct.basis_size"] += len(result.basis)


def _decompose(t, args, result, dur):
    if id(args[1]) not in t._decomposed:
        t._decomposed.add(id(args[1]))
        t.first_call_s += dur


def _extremal_n(t, args, result, dur):
    h, k = args[:2]
    t.counts["search.nodes"] += result.nodes_explored
    t.counts["search.extremal_n.incl_s"] += dur
    t.counts[f"search.extremal_n.h{h}k{k}.total_s"] += dur


_HOOKS = {
    "arith.bits_to_sorted": _bits_to_sorted,
    "cover.greedy_shift_cover": _greedy_shift_cover,
    "cover.k_complement": _k_complement,
    "sumset.verify_basis": _verify_basis,
    "construct.build_theorem1": _build_theorem1,
    "construct.decompose": _decompose,
    "search.extremal_n": _extremal_n,
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Replace every binding in BINDINGS with its traced wrapper while inside."""
    saved = []
    try:
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
