"""Span tracer for the traced benchmark run.

Wrappers are installed on every module-level name that binds a traced
function, in every loaded ``locc_purity`` module. ``protocol``, ``schurweyl``,
``states`` and ``cli`` bind their imports with ``from ... import``, so patching
only the defining module would miss their calls. Nothing under ``src/`` is
edited; ``uninstall`` puts every original binding back.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out only when the run ends. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Any, Callable

TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("run", "emit"),
    "protocol": (
        "exponent_series", "run_test", "block_statistics", "p_opt", "p_star", "slack_bound",
    ),
    "schurweyl": (
        "build_projector_set", "young_projector", "ab_block_projector", "to_copy_major",
        "sym_projector_bipartite",
    ),
    "tensorops": (
        "kron", "symmetrizer", "symmetric_basis", "trace_product", "perm_operator",
        "check_memory_cap",
    ),
    "states": ("spec_from_json", "build_state", "analyze", "tensor_power"),
    "partitions": (
        "enumerate_partitions", "hook_dim", "mn_character", "complete_homogeneous",
        "schur_polynomial", "type_region_bound", "check_dim_entropy_bound",
    ),
}

# Functions that build or contract a dense operator on the copy chains.
DENSE = frozenset({
    "tensorops.kron", "tensorops.symmetrizer", "tensorops.symmetric_basis",
    "tensorops.trace_product", "tensorops.perm_operator",
    "schurweyl.build_projector_set", "schurweyl.young_projector",
    "schurweyl.ab_block_projector", "schurweyl.to_copy_major",
    "schurweyl.sym_projector_bipartite", "states.tensor_power",
})
DENSE_MODULES = ("tensorops", "schurweyl", "states", "protocol")

ROOT = "bench.op"
COMPLEX_BYTES = 16  # check_memory_cap counts complex128 entries

# How each counter combines across passes and pass processes.
COUNTERS: dict[str, Callable[[float, float], float]] = {
    "dense_bytes": lambda a, b: a + b,
    "cap_request_max_bytes": max,
    "blocks": lambda a, b: a + b,
    "blocks_dropped": lambda a, b: a + b,
    "fidelity_clamped": lambda a, b: a + b,
    "oracle_resid_max": max,
    "sum_m_resid_max": max,
    "sandwich_lo_margin_min": min,
    "sandwich_hi_margin_min": min,
}


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("l")
        self.parent: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self._stack: list[int] = [-1]
        self._last_child_result: dict[int, int] = {}
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "locc_purity" or name.startswith("locc_purity."))
        }
        for layer, funcs in TRACED.items():
            home = modules.get(f"locc_purity.{layer}")
            if home is None:  # a module nobody imported has no callers
                continue
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{layer}.{func}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        import numpy as np

        name_id = self._name_id(name)
        dense = name in DENSE
        hook = {
            "tensorops.check_memory_cap": self._on_cap_request,
            "protocol.run_test": self._on_report,
        }.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1]
            self.name_of.append(name_id)
            self.parent.append(parent)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = clock()
            if dense and isinstance(result, np.ndarray):
                # an array handed up unchanged from a traced child is counted once
                if self._last_child_result.pop(idx, None) != id(result):
                    self._add("dense_bytes", float(result.nbytes))
                self._last_child_result[parent] = id(result)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation as a root span."""
        idx = len(self.start)
        self.name_of.append(self._name_id(ROOT))
        self.parent.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        try:
            return fn()
        finally:
            self._stack.pop()
            self.end[idx] = time.perf_counter()
            self._last_child_result.clear()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- counters -----------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        old = self.counters.get(key)
        self.counters[key] = value if old is None else COUNTERS[key](old, value)

    def _on_cap_request(self, args, kwargs, result) -> None:
        n_entries = args[0] if args else kwargs["n_entries"]
        self._add("cap_request_max_bytes", float(COMPLEX_BYTES * n_entries))

    def _on_report(self, args, kwargs, report) -> None:
        blocks = report.blocks
        self._add("blocks", float(len(blocks)))
        self._add("blocks_dropped", float(sum(b.fidelity is None for b in blocks)))
        self._add("fidelity_clamped", float(sum(
            b.fidelity is not None and not 0.0 <= b.fidelity <= 1.0 for b in blocks
        )))
        self._add("oracle_resid_max", abs(report.p_opt - report.oracle_p_opt))
        self._add("sum_m_resid_max", abs(sum(b.m_lambda for b in blocks) - report.p_opt))
        self._add("sandwich_lo_margin_min", report.p_star - report.p_opt)
        self._add("sandwich_hi_margin_min", report.p_opt + report.slack - report.p_star)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Self time and call count per traced name, plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        funcs: dict[str, list[float]] = {}
        for i in range(n):
            entry = funcs.setdefault(self.names[self.name_of[i]], [0.0, 0])
            entry[0] += (self.end[i] - self.start[i]) - child[i]
            entry[1] += 1
        return {"funcs": funcs, "counters": dict(self.counters)}

    def spans(self) -> dict[str, Any]:
        """Columnar span table; times in nanoseconds from the first span."""
        import numpy as np

        t0 = self.start[0] if len(self.start) else 0.0
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name_of, dtype=np.int_),
            "parent": np.frombuffer(self.parent, dtype=np.int_),
            "start_ns": np.rint((np.frombuffer(self.start) - t0) * 1e9).astype(np.int64),
            "end_ns": np.rint((np.frombuffer(self.end) - t0) * 1e9).astype(np.int64),
        }


def merge_summaries(parts: list[dict[str, Any]]) -> dict[str, Any]:
    funcs: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for part in parts:
        for name, (self_s, calls) in part["funcs"].items():
            entry = funcs.setdefault(name, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
        for key, value in part["counters"].items():
            counters[key] = value if key not in counters else COUNTERS[key](counters[key], value)
    return {"funcs": funcs, "counters": counters}
