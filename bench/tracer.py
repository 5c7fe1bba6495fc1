"""Out-of-program tracing: spans and counts recorded at module boundaries.

The tracer replaces the module attributes the simulator looks up at call
time (``fedlorasim.simulator.optimize_allocation``,
``fedlorasim.allocator.marginal_weight``, ``ToyLoRANet.forward`` and so on)
with wrappers that record one span per call: name, start, end, parent span
and simulator run id. Spans live in flat arrays in memory and are written
out once, after the workload, by ``save``. ``restore`` puts every original
attribute back, so an untraced run in the same process sees the package as
shipped.

``ToyLoRANet.effective_weight`` is called about 166k times per trend-sweep
pass; it is counted, not timed, to keep the tracing overhead small.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

import numpy as np

import fedlorasim.allocator
import fedlorasim.memory
import fedlorasim.reporting
import fedlorasim.simulator
from fedlorasim.memory import AllocationMap
from fedlorasim.toymodel import ToyLoRANet

FEDRA_ALLOC = "simulator.baseline_allocation[fedra_random]"
BASELINE_ALLOC = "simulator.baseline_allocation"

# (owner, attribute, span name); each owner namespace is patched separately
# because each module bound its own reference at import time.
_SPANS = (
    (fedlorasim.simulator, "run_experiment", "simulator.run_experiment"),
    (fedlorasim.simulator, "run_round", "simulator.run_round"),
    (fedlorasim.simulator, "build_clients", "simulator.build_clients"),
    (fedlorasim.simulator, "generate", "data.generate"),
    (fedlorasim.simulator, "partition", "data.partition"),
    (fedlorasim.simulator, "optimize_allocation", "allocator.solve"),
    (fedlorasim.simulator, "max_feasible_naive_u", "simulator.max_feasible_naive_u"),
    (fedlorasim.simulator, "total_memory", "memory.total_memory"),
    (fedlorasim.simulator, "local_ig_scores", "scoring.local_ig_scores"),
    (fedlorasim.simulator, "value_function", "scoring.value_function"),
    (fedlorasim.simulator, "update_history", "scoring.update_history"),
    (fedlorasim.simulator, "local_train", "toymodel.local_train"),
    (fedlorasim.simulator, "apply_delta", "aggregation.apply_delta"),
    (fedlorasim.allocator, "marginal_weight", "memory.marginal_weight"),
    (fedlorasim.allocator, "total_memory", "memory.total_memory"),
    (fedlorasim.memory, "total_memory", "memory.total_memory"),
    (fedlorasim.reporting, "generate_report", "reporting.generate_report"),
    (ToyLoRANet, "forward", "toymodel.forward"),
    (ToyLoRANet, "backward", "toymodel.backward"),
    (ToyLoRANet, "evaluate", "toymodel.evaluate"),
    (ToyLoRANet, "clone", "toymodel.clone"),
)

# Aggregation rules: all three are one layer, "aggregation.merge"; the
# argument position of the client-delta list differs.
_MERGES = (("com_agg", 1), ("com_agg_fixed", 1), ("fed_avg", 0))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._nid: dict[str, int] = {}
        self.sid = array("q")
        self.nid = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, int] = {}
        self.stack = [-1]
        self.next_sid = 0
        self.run_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
        return self._nid[name]

    def _record(self, nid, sid, parent, t0, t1):
        self.sid.append(sid)
        self.nid.append(nid)
        self.parent.append(parent)
        self.run.append(self.run_id)
        self.t0.append(t0)
        self.t1.append(t1)

    def _wrap(self, fn, nid, pick_nid=None, on_call=None):
        tr = self

        def traced(*args, **kwargs):
            n = pick_nid(args) if pick_nid is not None else nid
            if on_call is not None:
                on_call(args)
            sid = tr.next_sid
            tr.next_sid = sid + 1
            stack = tr.stack
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr._record(n, sid, parent, t0, t1)

        return traced

    def timed(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        return self._wrap(fn, self.name_id(name))

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, name in _SPANS:
            self._set(owner, attr, self._wrap(getattr(owner, attr), self.name_id(name)))

        fedra, other = self.name_id(FEDRA_ALLOC), self.name_id(BASELINE_ALLOC)
        self._set(fedlorasim.simulator, "baseline_allocation",
                  self._wrap(fedlorasim.simulator.baseline_allocation, other,
                             pick_nid=lambda a: fedra if a[0] == "fedra_random" else other))

        from_bits = AllocationMap.__dict__["from_bits"].__func__
        self._set(AllocationMap, "from_bits",
                  classmethod(self._wrap(from_bits, self.name_id("memory.AllocationMap.from_bits"))))

        self.counts.setdefault("aggregation.contributions", 0)
        for attr, pos in _MERGES:
            def count_contributions(args, pos=pos):
                self.counts["aggregation.contributions"] += sum(amap.count for _, _, amap in args[pos])
            fn = getattr(fedlorasim.simulator, attr)
            self._set(fedlorasim.simulator, attr,
                      self._wrap(fn, self.name_id("aggregation.merge"), on_call=count_contributions))

        effective_weight = ToyLoRANet.effective_weight
        self.counts.setdefault("toymodel.effective_weight", 0)

        def counted_effective_weight(net, j):
            self.counts["toymodel.effective_weight"] += 1
            return effective_weight(net, j)

        self._set(ToyLoRANet, "effective_weight", counted_effective_weight)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64).copy(),
            "nid": np.frombuffer(self.nid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (one row per call) and the name table, once."""
        np.savez(path, names=np.array(self.names), counts=np.array(json.dumps(self.counts)),
                 **self.arrays())


def layer_metrics(tracer: Tracer, sid_lo: int, sid_hi: int,
                  counts: dict[str, int]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer figures for the spans with ids in [sid_lo, sid_hi), plus the
    bases of the ratios among them. ``counts`` holds the counters' increments
    over the same interval.

    busy_s is time inside the function, children included; self_s subtracts
    the time covered by direct child spans (calls nest strictly, so children
    never overlap).
    """
    a = tracer.arrays()
    keep = (a["sid"] >= sid_lo) & (a["sid"] < sid_hi)
    sid = a["sid"][keep] - sid_lo
    nid = a["nid"][keep]
    parent = a["parent"][keep]
    run = a["run"][keep]
    t0, t1 = a["t0"][keep], a["t1"][keep]
    dur = t1 - t0

    n = sid_hi - sid_lo
    nid_by_sid = np.full(n, -1, dtype=np.int64)
    nid_by_sid[sid] = nid
    has_parent = parent >= sid_lo
    parent_rel = parent[has_parent] - sid_lo
    child = np.zeros(n)
    np.add.at(child, parent_rel, dur[has_parent])
    self_time = dur - child[sid]
    parent_nid = np.full(len(sid), -1, dtype=np.int64)
    parent_nid[has_parent] = nid_by_sid[parent_rel]

    def sel(name):
        return nid == tracer._nid.get(name, -2)

    def calls(name):
        return int(sel(name).sum())

    def busy(name):
        return float(dur[sel(name)].sum())

    def self_s(name):
        return float(self_time[sel(name)].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    solves = calls("allocator.solve")
    solve_us = dur[sel("allocator.solve")] * 1e6
    fedra = tracer._nid.get(FEDRA_ALLOC, -2)
    fedra_allocs = calls(FEDRA_ALLOC)
    draws = int((sel("memory.AllocationMap.from_bits") & (parent_nid == fedra)).sum())
    fallbacks = int((sel("simulator.max_feasible_naive_u") & (parent_nid == fedra)).sum())
    rounds = calls("simulator.run_round")

    # run time not spent in set-up (entry to first round), in rounds, or in
    # the benchmark's speed readings between rounds
    io = 0.0
    is_round = sel("simulator.run_round")
    is_probe = sel("bench.speed_probe")
    for k in np.flatnonzero(sel("simulator.run_experiment")):
        in_run = is_round & (run == run[k])
        first = t0[in_run].min() if in_run.any() else t1[k]
        probes = is_probe & (run == run[k]) & (t0 >= first) & (t1 <= t1[k])
        io += float(t1[k] - first - dur[in_run].sum() - dur[probes].sum())

    out = {
        "memory.marginal_weight.calls": calls("memory.marginal_weight"),
        "memory.marginal_weight.busy_s": busy("memory.marginal_weight"),
        "memory.total_memory.calls": calls("memory.total_memory"),
        "memory.total_memory.busy_s": busy("memory.total_memory"),
        "allocator.solve.calls": solves,
        "allocator.solve.busy_s": busy("allocator.solve"),
        "allocator.solve.self_s": self_s("allocator.solve"),
        "allocator.solve.us_p50": float(np.median(solve_us)) if solves else 0.0,
        "allocator.marginal_weight_per_solve": ratio(calls("memory.marginal_weight"), solves),
        "simulator.baseline_allocation.calls": calls(BASELINE_ALLOC) + fedra_allocs,
        "simulator.baseline_allocation.busy_s": busy(BASELINE_ALLOC) + busy(FEDRA_ALLOC),
        "simulator.fedra.draws_per_alloc": ratio(draws, fedra_allocs),
        "simulator.fedra.accept_share": ratio(fedra_allocs - fallbacks, fedra_allocs),
        "toymodel.local_train.calls": calls("toymodel.local_train"),
        "toymodel.local_train.busy_s": busy("toymodel.local_train"),
        "toymodel.local_train.self_s": self_s("toymodel.local_train"),
        "toymodel.forward.calls": calls("toymodel.forward"),
        "toymodel.forward.busy_s": busy("toymodel.forward"),
        "toymodel.backward.calls": calls("toymodel.backward"),
        "toymodel.backward.busy_s": busy("toymodel.backward"),
        "toymodel.effective_weight.calls": counts["toymodel.effective_weight"],
        "toymodel.evaluate.busy_s": busy("toymodel.evaluate"),
        "toymodel.clone.busy_s": busy("toymodel.clone"),
        "scoring.local_ig_scores.calls": calls("scoring.local_ig_scores"),
        "scoring.local_ig_scores.busy_s": busy("scoring.local_ig_scores"),
        "scoring.value_function.busy_s": busy("scoring.value_function"),
        "scoring.update_history.busy_s": busy("scoring.update_history"),
        "aggregation.merge.calls": calls("aggregation.merge"),
        "aggregation.merge.busy_s": busy("aggregation.merge"),
        "aggregation.apply_delta.busy_s": busy("aggregation.apply_delta"),
        "aggregation.contributions_per_round": ratio(counts["aggregation.contributions"], rounds),
        "data.generate.busy_s": busy("data.generate"),
        "data.partition.busy_s": busy("data.partition"),
        "simulator.build_clients.busy_s": busy("simulator.build_clients"),
        "simulator.run_round.self_s": self_s("simulator.run_round"),
        "simulator.io.self_s": io,
        "reporting.generate_report.busy_s": busy("reporting.generate_report"),
    }
    bases = {"solves": solves, "fedra_allocs": fedra_allocs, "fedra_draws": draws,
             "fedra_fallbacks": fallbacks, "rounds": rounds,
             "contributions": counts["aggregation.contributions"]}
    return out, bases


#: Deterministic counters: equal across any two traced runs of one seed.
EXACT = (
    "memory.marginal_weight.calls",
    "memory.total_memory.calls",
    "allocator.solve.calls",
    "allocator.marginal_weight_per_solve",
    "simulator.baseline_allocation.calls",
    "simulator.fedra.draws_per_alloc",
    "simulator.fedra.accept_share",
    "toymodel.local_train.calls",
    "toymodel.forward.calls",
    "toymodel.backward.calls",
    "toymodel.effective_weight.calls",
    "scoring.local_ig_scores.calls",
    "aggregation.merge.calls",
    "aggregation.contributions_per_round",
)

_RATIO_UNITS = {
    "allocator.marginal_weight_per_solve": "calls/solve",
    "simulator.fedra.draws_per_alloc": "draws/alloc",
    "simulator.fedra.accept_share": "share",
    "aggregation.contributions_per_round": "layers/round",
}


def unit(name: str) -> str:
    if name in _RATIO_UNITS:
        return _RATIO_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".us_p50"):
        return "us"
    return "s"
