"""In-memory span tracing around the public functions of each tbswap module.

Each hook replaces a name in the module where its caller looks it up (so
both tbswap.cli.optimal_k and tbswap.analytic.swap_fidelity_k are wrapped:
optimal_k calls the latter by its analytic-module name). Nothing under src/
changes. A name that no longer exists is skipped and its layer reported
absent, so removing a cache or the thread pool does not break the run.

Spans are (id, parent, layer, start, end). A span opened on a
sweep worker thread, where the thread's own stack is empty, takes the open
sweep span as its parent. Spans stay in per-thread buffers until summary.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

# (module, attribute, dict key or None, layer). Where one layer is reached
# through several names, each name gets its own hook.
HOOKS = (
    ("tbswap.cli", "build_parser", None, "cli.build_parser"),
    ("tbswap.cli", "write_sweep", None, "cli.write_sweep"),
    ("tbswap.cli", "run_sections", None, "cli.run_sections"),
    ("tbswap.cli", "_EVALUATORS", "analytic", "cli.point"),
    ("tbswap.cli", "_EVALUATORS", "oracle", "cli.point"),
    ("tbswap.cli", "swap_fidelity_k", None, "analytic.swap_fidelity_k"),
    ("tbswap.analytic", "swap_fidelity_k", None, "analytic.swap_fidelity_k"),
    ("tbswap.cli", "optimal_k", None, "analytic.optimal_k"),
    ("tbswap.cli", "swap_fidelity_n1", None, "analytic.swap_fidelity_n1"),
    ("tbswap.cli", "swap_fidelity_n2", None, "analytic.swap_fidelity_n2"),
    ("tbswap.cli", "state_fidelity_analytic", None, "states.state_fidelity_analytic"),
    ("tbswap.cli", "transducer_to_channel", None, "channel.transducer_to_channel"),
    ("tbswap.cli", "state_fidelity_oracle", None, "states.state_fidelity_oracle"),
    ("tbswap.cli", "heralded_state", None, "swap.heralded_state"),
    ("tbswap.swap", "channel_output", None, "states.channel_output"),
    ("tbswap.states", "channel_output", None, "states.channel_output"),
    ("tbswap.swap", "_bin_trace_tensor", None, "swap.bin_trace_tensor"),
    ("tbswap.swap", "beam_splitter_unitary", None, "fock.beam_splitter_unitary"),
    ("tbswap.states", "apply_channel_oracle", None, "channel.apply_channel_oracle"),
    ("tbswap.channel", "_mixing_unitary", None, "channel.mixing_unitary"),
    ("tbswap.channel", "tensor", None, "fock.tensor"),
    ("tbswap.channel", "partial_trace", None, "fock.partial_trace"),
)

SWEEP_LAYER = "cli.run_sections"
COMPLEX_BYTES = 16


def oracle_kernel_counts(args: tuple) -> tuple[int, int]:
    """Computed (flops, bytes) of one dense apply_channel_oracle call.

    With d_box = d_sys + d_env - 1 and n = d_box^2 the call forms the n x n
    joint state by a Kronecker product (6 n^2 flops), conjugates it by the
    dilation unitary with two complex matmuls (16 n^3), and traces out the
    environment (2 d_box^3). Bytes count each n x n complex array read or
    written once per step: 10 arrays, 160 n^2. Computed, not measured.
    """
    _, p, cfg = args[:3]
    if p.is_identity:
        return 0, 0
    d_box = cfg.d_sys + cfg.d_env - 1
    n = d_box * d_box
    return 16 * n**3 + 6 * n * n + 2 * d_box**3, 10 * COMPLEX_BYTES * n * n


class _Buffer:
    """Spans and counters of one thread; only that thread appends."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.layer = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, int] = {}
        self.keys: set = set()

    def record(self, sid: int, parent: int, layer: int, t0: float, t1: float) -> None:
        self.sid.append(sid)
        self.parent.append(parent)
        self.layer.append(layer)
        self.t0.append(t0)
        self.t1.append(t1)


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._installed: list[tuple[Any, str, Any, bool]] = []
        self.layers: list[str] = []
        self.present: set[str] = set()
        self.caches: dict[str, Callable] = {}
        self.open_sweep = 0

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, fn: Callable, layer: str) -> Callable:
        layer_id = self._layer_id(layer)
        sweep = layer == SWEEP_LAYER
        extra = {
            "channel.apply_channel_oracle": self._count_kernel,
            "cli.write_sweep": self._count_csv,
            "channel.mixing_unitary": self._record_key,
        }.get(layer)
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else tracer.open_sweep
            sid = next(tracer._ids)
            stack.append(sid)
            if sweep:
                outer, tracer.open_sweep = tracer.open_sweep, sid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if sweep:
                    tracer.open_sweep = outer
                buf.record(sid, parent, layer_id, t0, t1)
            if extra is not None:
                extra(buf, args)
            return result

        return traced

    @staticmethod
    def _count_kernel(buf: _Buffer, args: tuple) -> None:
        flops, nbytes = oracle_kernel_counts(args)
        buf.counts["oracle_flops"] = buf.counts.get("oracle_flops", 0) + flops
        buf.counts["oracle_bytes"] = buf.counts.get("oracle_bytes", 0) + nbytes

    @staticmethod
    def _count_csv(buf: _Buffer, args: tuple) -> None:
        out = Path(args[1])  # write_sweep(sections, out)
        size = out.stat().st_size if out.exists() else 0
        buf.counts["csv_bytes"] = buf.counts.get("csv_bytes", 0) + size

    @staticmethod
    def _record_key(buf: _Buffer, args: tuple) -> None:
        buf.keys.add((args[0], args[1]))

    # -- hooks -----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, key, layer in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner = getattr(module, attr, None) if key is not None else module
            name = key if key is not None else attr
            if owner is None:
                continue
            is_dict = isinstance(owner, dict)
            original = owner.get(name) if is_dict else getattr(owner, name, None)
            if not callable(original):
                continue
            if hasattr(original, "cache_info"):
                self.caches.setdefault(layer, original)
            wrapped = self.wrap(original, layer)
            if is_dict:
                owner[name] = wrapped
            else:
                setattr(owner, name, wrapped)
            self._installed.append((owner, name, original, is_dict))
            self.present.add(layer)

    def uninstall(self) -> None:
        for owner, name, original, is_dict in reversed(self._installed):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._installed.clear()

    def cache_info(self, layer: str):
        cached = self.caches.get(layer)
        return cached.cache_info() if cached is not None else None

    # -- analysis --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        with self._lock:
            buffers = list(self._buffers)
        cols = {}
        for field in ("sid", "parent", "layer", "t0", "t1"):
            parts = [np.frombuffer(getattr(b, field), dtype=getattr(b, field).typecode)
                     for b in buffers if len(getattr(b, field))]
            dtype = "f8" if field in ("t0", "t1") else "i8"
            cols[field] = np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype)
        return cols

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for buf in self._buffers:
            for name, value in buf.counts.items():
                total[name] = total.get(name, 0) + value
        return total

    def keys(self) -> set:
        out: set = set()
        for buf in self._buffers:
            out |= buf.keys
        return out

    def save(self, path: Path) -> None:
        cols = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(self.layers), **cols)


def self_times(spans: dict[str, np.ndarray], parent_mask: np.ndarray) -> np.ndarray:
    """Self time of each selected span: duration minus the union of its children.

    Children on different threads may overlap, so their intervals are
    merged before subtracting; each is clipped to the parent's interval.
    """
    sids = spans["sid"][parent_mask]
    t0 = spans["t0"][parent_mask]
    t1 = spans["t1"][parent_mask]
    out = t1 - t0
    if not len(sids):
        return out
    index = {int(s): i for i, s in enumerate(sids)}
    child = np.isin(spans["parent"], sids)
    order = np.lexsort((spans["t0"][child], spans["parent"][child]))
    parents = spans["parent"][child][order]
    c0 = spans["t0"][child][order]
    c1 = spans["t1"][child][order]
    covered = np.zeros(len(sids))
    run_parent, run_start, run_end = -1, 0.0, 0.0
    for par, a, b in zip(parents.tolist(), c0.tolist(), c1.tolist()):
        i = index[par]
        a, b = max(a, t0[i]), min(b, t1[i])
        if b <= a:
            continue
        if par != run_parent or a > run_end:
            if run_parent >= 0:
                covered[index[run_parent]] += run_end - run_start
            run_parent, run_start, run_end = par, a, b
        else:
            run_end = max(run_end, b)
    if run_parent >= 0:
        covered[index[run_parent]] += run_end - run_start
    return out - covered
