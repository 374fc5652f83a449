"""Span recorder for the traced benchmark run.

The benchmark wraps public homord functions from the outside: each wrapper
replaces the function in every homord module namespace that binds it, so a
call made through `homord.cro.canonical_type` is timed just like one made
through `homord.structures.canonical_type`.  Sampler streams are wrapped so
that every `next` is its own span.  Spans (name, start, end, parent) are kept
in compact arrays and written out when the run ends.  A span's self time is
its duration minus the time covered by its direct children; since one
thread runs one call stack, children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute) -> span name.  Layers are the homord modules.
FUNCTIONS = {
    ("structures", "canonical_type"): "structures.canonical_type",
    ("structures", "induced_substructure"): "structures.induced_substructure",
    ("structures", "make_structure"): "structures.make_structure",
    ("builders", "build_generic"): "builders.build_generic",
    ("builders", "audit_saturation"): "builders.audit_saturation",
    ("builders", "chain_dumps"): "builders.chain_dumps",
    ("builders", "chain_loads"): "builders.chain_loads",
    ("groups", "automorphisms"): "groups.automorphisms",
    ("groups", "orbits"): "groups.orbits",
    ("groups", "acl_profile"): "groups.acl_profile",
    ("groups", "invariant_equivalences"): "groups.invariant_equivalences",
    ("taupaths", "build_tau_index"): "taupaths.build_tau_index",
    ("taupaths", "find_tau_path"): "taupaths.find_tau_path",
    ("stats", "estimate_order_event"): "stats.estimate",
    ("stats", "test_monotone_coupling"): "stats.monotone",
    ("stats", "test_independence"): "stats.independence",
    ("stats", "test_exchangeability"): "stats.exchangeability",
    ("stats", "test_shift_ergodicity"): "stats.shift_ergodicity",
    ("stats", "estimate_eta_covariance"): "stats.eta_covariance",
    ("cro", "enumerate_base_classes"): "cro.enumerate_base_classes",
    ("cro", "enumerate_ordered_types"): "cro.enumerate_ordered_types",
    ("cro", "build_cro_system"): "cro.build_cro_system",
    ("cro", "kernel_basis"): "cro.kernel_basis",
    ("cro", "dirac_solutions"): "cro.dirac_solutions",
    ("cli", "cmd_build"): "cli.build",
    ("cli", "cmd_sample"): "cli.sample",
    ("cli", "cmd_test"): "cli.test",
    ("cli", "cmd_estimate"): "cli.estimate",
    ("cli", "cmd_tau_path"): "cli.tau-path",
    ("cli", "cmd_orbits"): "cli.orbits",
    ("cli", "cmd_cro"): "cli.cro",
}

# sampler class -> construction name; streams are timed per `next`.
SAMPLERS = {
    "UniformOrderSampler": "uniform",
    "AtomOrderSampler": "atoms",
    "ConditionedAtomSampler": "atoms_conditioned",
    "PQOrderSampler": "pq",
    "BipartiteMinSampler": "bimin",
    "InvolutionOrderSampler": "involution",
    "DualFunctionalSampler": "dual",
}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_ids = array("i")
        self.parent = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, start, child seconds]
        self.active = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.start)
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(0.0)
        self.name_ids.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([idx, t0, 0.0])

    def exit(self, nid: int) -> None:
        t1 = time.perf_counter()
        idx, t0, child = self._stack.pop()
        self.end[idx] = t1
        span = t1 - t0
        self.self_s[nid] += span - child
        self.total_s[nid] += span
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][2] += span

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_s[nid], self.total_s[nid]

    @contextmanager
    def paused(self):
        """Oracle checks call homord too; keep them out of the trace."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def dump(self, path, meta: dict) -> None:
        import json

        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def _wrap_function(rec: Recorder, fn, name: str):
    nid = rec.name_id(name)

    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            # find_tau_path raises ResourceLimitError when its state cap trips
            if type(exc).__name__ == "ResourceLimitError" and name == "taupaths.find_tau_path":
                rec.count("taupaths.state_cap_hits")
            raise
        finally:
            rec.exit(nid)
        _count_result(rec, name, result)
        return result

    return traced


def _count_result(rec: Recorder, name: str, result) -> None:
    """Counters read off return values at the layer boundary."""
    if name == "builders.build_generic":
        # one witness round per new level, plus the final round adding none
        rec.count("builders.witness_rounds", len(result.levels))
        rec.count("builders.witnesses_added", result.top.size - result.levels[0].size)
    elif name == "groups.automorphisms":
        rec.count("groups.aut_order", len(result))
    elif name == "taupaths.find_tau_path":
        rec.count("taupaths.paths_found" if result is not None else "taupaths.no_path")
    elif name == "cro.build_cro_system":
        rec.count("cro.vars", len(result.variables))
        rec.count("cro.rows", len(result.rows))
    elif name == "cro.kernel_basis":
        rec.count("cro.nullity", len(result))


def _wrap_stream(rec: Recorder, stream):
    def traced_stream(self, *args, **kwargs):
        gen = stream(self, *args, **kwargs)
        if not rec.active:
            return gen
        name = SAMPLERS.get(type(self).__name__, "other")
        return _timed_iter(rec, gen, rec.name_id(f"samplers.{name}"), f"samplers.{name}.samples")

    return traced_stream


def _timed_iter(rec: Recorder, gen, nid: int, counter: str):
    while True:
        rec.enter(nid)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            rec.exit(nid)
        rec.count(counter)
        yield item


@contextmanager
def traced(rec: Recorder):
    """Install every wrapper, record while inside, then restore originals."""
    import homord
    import homord.cli  # not imported by the package itself
    from homord import samplers

    modules = [m for k, m in sorted(sys.modules.items()) if k == "homord" or k.startswith("homord.")]
    undo = []
    for (mod_name, attr), span in FUNCTIONS.items():
        original = getattr(getattr(homord, mod_name), attr)
        wrapper = _wrap_function(rec, original, span)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapper)
    # the base class's stream serves every sampler that does not override it
    for cls in (samplers.OrderSamplerBase, samplers.ConditionedAtomSampler,
                samplers.DualFunctionalSampler):
        undo.append((cls, "stream", cls.__dict__["stream"]))
        cls.stream = _wrap_stream(rec, cls.__dict__["stream"])
    rec.active = True
    try:
        yield rec
    finally:
        rec.active = False
        for target, key, value in reversed(undo):
            setattr(target, key, value)
