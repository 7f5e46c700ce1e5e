"""Span tracing of neurodissip's module entry points, from outside the package.

The traced run wraps each entry point listed in TARGETS in place, in every
``neurodissip.*`` module namespace that holds it, so calls made through a
``from .x import f`` binding are seen as well as calls through ``x.f``.
Spans (name, parent, start, end) are kept in memory and written out when
the benchmark ends.  A target that no longer exists is reported with zero
calls: refactors that delete an entry point keep the traced run working.

Counters are derived from the arguments or results of the wrapped entry
points (rows of a batch, substeps times samples), never by wrapping the
per-element functions underneath, which would mostly measure the tracer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape:
        return int(shape[0])
    return len(value)


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _grid_cells(args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    return {"dissipativity.anchors": (grid.resolution if grid is not None else 120) ** 2}


def _rk4_steps(args, kwargs, result):
    if _arg(args, kwargs, 4, "method", "rk4") != "rk4":
        return {}
    samples = _rows(_arg(args, kwargs, 2, "input_sequence"))
    return {"plants.rk4_steps": max(samples - 1, 0) * int(_arg(args, kwargs, 5, "substeps", 1))}


# (span name, module, attribute path, counter function).  A counter function
# maps (args, kwargs, result) to increments; it runs only for the outermost
# span of its name, so nested calls (ray_gains -> secant_gains) count once.
TARGETS = (
    ("cli.certificate_report", "neurodissip.cli", "certificate_report", None),
    ("cli.grid_analysis", "neurodissip.cli", "grid_analysis", None),
    ("cli.write", "neurodissip.cli", "_write_json", None),
    ("cli.write", "neurodissip.dissipativity", "write_grid_csv", None),
    ("cli.write", "neurodissip.dissipativity", "write_grid_json", None),
    ("cli.write", "neurodissip.dynamics", "write_trajectory_csv", None),
    ("cli.write", "neurodissip.dynamics", "write_basin_csv", None),
    ("cli.write", "neurodissip.dynamics", "write_spectra_csv", None),
    ("cli.write", "neurodissip.plants", "write_dataset", None),
    ("cli.write", "neurodissip.training", "save_checkpoint", None),
    ("dissipativity.verdicts_at", "neurodissip.dissipativity", "verdicts_at",
     lambda a, k, r: {"dissipativity.anchors": _rows(_arg(a, k, 1, "anchors"))}),
    ("dissipativity.certify_region", "neurodissip.dissipativity", "certify_region",
     _grid_cells),
    ("dissipativity.layerwise_certificate", "neurodissip.dissipativity",
     "layerwise_certificate", None),
    ("pwa.extract_pwa_batch", "neurodissip.pwa", "extract_pwa_batch",
     lambda a, k, r: {"pwa.anchors": _rows(_arg(a, k, 1, "xs"))}),
    ("pwa.extract_pwa", "neurodissip.pwa", "extract_pwa",
     lambda a, k, r: {"pwa.anchors": 1}),
    ("linalg.norm_batch", "neurodissip.linalg", "_spectral_norm_batch",
     lambda a, k, r: {"linalg.norm_batch.matrices": _rows(_arg(a, k, 0, "a"))}),
    ("linalg.eig2_batch", "neurodissip.linalg", "_eig2_batch", None),
    ("linalg.eigenvalues", "neurodissip.linalg", "eigenvalues", None),
    ("linalg.svd_bounded", "neurodissip.linalg", "svd_bounded", None),
    ("linalg.spectral_norm", "neurodissip.linalg", "spectral_norm", None),
    ("network.forward", "neurodissip.network", "MlpNetwork.forward", None),
    ("network.forward_batch", "neurodissip.network", "MlpNetwork.forward_batch",
     lambda a, k, r: {"network.forward_batch.rows": _rows(_arg(a, k, 1, "x"))}),
    ("activations.gains", "neurodissip.activations", "ray_gains",
     lambda a, k, r: {"activations.gains.elements": _size(_arg(a, k, 1, "z"))}),
    ("activations.gains", "neurodissip.activations", "secant_gains",
     lambda a, k, r: {"activations.gains.elements": _size(_arg(a, k, 1, "z"))}),
    ("structured.draw_map", "neurodissip.structured", "draw_map", None),
    ("dynamics.rollout", "neurodissip.dynamics", "rollout",
     lambda a, k, r: {"dynamics.rollout.steps": r.steps}),
    ("dynamics.basin_map", "neurodissip.dynamics", "basin_map", None),
    ("dynamics.depth_spectra", "neurodissip.dynamics", "depth_spectra", None),
    ("plants.integrate", "neurodissip.plants", "integrate", _rk4_steps),
    ("training.train", "neurodissip.training", "train",
     lambda a, k, r: {"training.epochs": int(_arg(a, k, 2, "config").epochs)}),
    ("training.bptt_forward", "neurodissip.training", "_bptt_forward",
     lambda a, k, r: {"training.windows": _rows(_arg(a, k, 2, "xs"))}),
    ("training.bptt_backward", "neurodissip.training", "_bptt_backward", None),
    ("training.open_loop_mse", "neurodissip.training", "open_loop_mse", None),
)

# Every Activation in activations.ACTIVATIONS gets its fn and deriv wrapped.
_ACTIVATION_FIELDS = (("activations.fn", "fn"), ("activations.deriv", "deriv"))

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    "cli.certificate_report.self_s", "cli.grid_analysis.self_s",
    "cli.write_s", "cli.bytes_written",
    "dissipativity.verdicts_at.calls", "dissipativity.verdicts_at.self_s",
    "dissipativity.anchors", "dissipativity.certify_region.calls",
    "dissipativity.layerwise_certificate.self_s",
    "pwa.extract_pwa_batch.calls", "pwa.extract_pwa_batch.self_s",
    "pwa.anchors", "pwa.extract_pwa.calls",
    "linalg.norm_batch.matrices", "linalg.norm_batch.self_s",
    "linalg.eigenvalues.calls", "linalg.eigenvalues.self_s",
    "linalg.svd_bounded.calls", "linalg.svd_bounded.self_s",
    "linalg.spectral_norm.calls", "linalg.eig2_batch.self_s",
    "network.forward.calls", "network.forward.self_s",
    "network.forward_batch.rows", "network.forward_batch.self_s",
    "activations.gains.elements", "activations.gains.self_s",
    "activations.fn.self_s", "activations.deriv.self_s",
    "structured.draw_map.calls", "structured.draw_map.self_s",
    "dynamics.rollout.calls", "dynamics.rollout.steps",
    "dynamics.rollout.self_s", "dynamics.basin_map.self_s",
    "dynamics.depth_spectra.self_s",
    "plants.integrate.calls", "plants.integrate.self_s", "plants.rk4_steps",
    "training.epochs", "training.windows",
    "training.bptt_forward.self_s", "training.bptt_backward.self_s",
    "training.open_loop_mse.self_s",
    "trace.overhead_s",
)


class Tracer:
    """Records spans from wrapped callables; one open-span stack per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Each span is [name id, parent index or -1, start, end].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.rounds: list[list] = []  # spans of every finished round
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def end_round(self) -> dict:
        """Summarise the spans since the last call, then start afresh."""
        summary = self.summary()
        self.rounds.append(self.spans)
        self.spans = []
        self.counters = defaultdict(float)
        return summary

    def wrap(self, name: str, fn, counter=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            span = [name_id, parent, 0.0, 0.0]
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None and (parent < 0 or self.spans[parent][0] != name_id):
                for key, value in counter(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return traced

    def adopt(self, parent: int, fn):
        """Run fn on a pool thread as if called under span `parent`."""

        def adopted(*args, **kwargs):
            stack = self._stack()
            base = len(stack)
            if parent >= 0:
                stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                del stack[base:]

        return adopted

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        packages = {n: m for n, m in sys.modules.items()
                    if n == "neurodissip" or n.startswith("neurodissip.")}
        for name, module_name, path, counter in TARGETS:
            module = packages.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            traced = self.wrap(name, original, counter)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for mod in packages.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        acts = getattr(packages.get("neurodissip.activations"), "ACTIVATIONS", None)
        if acts is None:
            self.missing.append("neurodissip.activations.ACTIVATIONS")
        else:
            for act in acts.values():
                for name, attr in _ACTIVATION_FIELDS:
                    object.__setattr__(act, attr, self.wrap(name, getattr(act, attr)))
        self._install_pool(packages.get("neurodissip.cli"))

    def _install_pool(self, cli) -> None:
        # Pool workers inherit the submitting thread's open span, so the
        # time a span spends waiting on its pool counts as child time.
        pool_cls = getattr(cli, "ThreadPoolExecutor", None)
        if pool_cls is None:
            return
        tracer = self

        class TracedPool(pool_cls):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)

        cli.ThreadPoolExecutor = TracedPool

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counters.

        Self time is a span's duration minus the union of its children's
        intervals, so children running side by side on a pool are not
        subtracted twice.
        """
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[1] >= 0:
                children[span[1]].append((span[2], span[3]))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for index, (name_id, _, start, end) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - covered
        out = dict(self.counters)
        for name in self.names:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        return out

    def dump(self) -> dict:
        """Spans as [name id, parent index in its round or -1, start, end]."""
        return {"names": self.names, "missing": self.missing, "rounds": self.rounds}
