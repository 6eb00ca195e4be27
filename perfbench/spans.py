"""Span tracer for the traced run, and the per-layer metrics made from it.

Spans are recorded only by wrappers that this module installs around
public qlsplit functions, at the module attribute the caller resolves
(`qlsplit.cli.run_simulation`, `qlsplit.diagnostics.mass`, ...), and
around the `numpy.fft` entry points.  Nothing inside qlsplit changes.
Each span is (name, start, end, parent); spans stay in memory until the
run ends.

An FFT becomes a span only when the innermost open span is the stepper
(`splitting.run`), so the spectral layer counts the stepper's transforms;
an FFT made inside a diagnostic stays part of that diagnostic's time.
A layer's self time is its spans' durations minus the time their child
spans cover, so the layer self times add up to the traced wall time.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# span name -> layer (package module)
LAYERS = {
    "cli": "cli",
    "splitting.run": "splitting",
    "spectral.fft": "spectral",
    "model.ic": "model",
    "diagnostics.mass": "diagnostics",
    "diagnostics.energy": "diagnostics",
    "diagnostics.error_norms": "diagnostics",
    "diagnostics.fit": "diagnostics",
    "stability.scan": "stability",
    "stability.mode": "stability",
}

# (module, attribute) -> span name.  A missing attribute is an error, so a
# renamed function cannot silently stop being traced.
TARGETS = (
    ("qlsplit.cli", "main", "cli"),
    ("qlsplit.cli", "run_simulation", "splitting.run"),
    ("qlsplit.splitting", "build_initial_condition", "model.ic"),
    ("qlsplit.diagnostics", "mass", "diagnostics.mass"),
    ("qlsplit.diagnostics", "energy", "diagnostics.energy"),
    ("qlsplit.cli", "l2_norm", "diagnostics.error_norms"),
    ("qlsplit.cli", "h1_seminorm", "diagnostics.error_norms"),
    ("qlsplit.cli", "fit_order", "diagnostics.fit"),
    ("qlsplit.cli", "stability_threshold_scan", "stability.scan"),
    ("qlsplit.stability", "gn_eigenvalues", "stability.mode"),
    ("qlsplit.cli", "split_step_mode_growth", "stability.mode"),
)
FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft")


class Tracer:
    def __init__(self) -> None:
        self.names = list(LAYERS)
        self._id = {name: i for i, name in enumerate(self.names)}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.runs = 0
        self.steps = 0
        self.records = 0
        self.trips: Counter[str] = Counter()
        self.fft_bytes = 0

    def _open(self, kind: int) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        kind = self._id[name]

        def traced(*args, **kwargs):
            idx = self._open(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _stepper(self, fn):
        traced = self._span("splitting.run", fn)

        def run_simulation(model, ic, grid, cfg, t_final):
            rec = traced(model, ic, grid, cfg, t_final)
            self.runs += 1
            self.records += len(rec.times)
            self.steps += round(float(rec.times[-1]) / cfg.tau)
            if rec.blowup is not None:
                self.trips[rec.blowup.trigger] += 1
            return rec

        return run_simulation

    def _fft(self, fn):
        kind = self._id["spectral.fft"]
        stepper = self._id["splitting.run"]

        def transform(a, *args, **kwargs):
            top = self._stack[-1]
            if top < 0 or self.kind[top] != stepper:
                return fn(a, *args, **kwargs)
            idx = self._open(kind)
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._close(idx)
            self.fft_bytes += a.nbytes + out.nbytes
            return out

        return transform

    def install(self) -> None:
        """Replace the traced attributes with span-recording wrappers."""
        import importlib

        import numpy.fft

        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if name == "splitting.run":
                self._patch(module, attr, self._stepper(fn))
            else:
                self._patch(module, attr, self._span(name, fn))
        for attr in FFT_ENTRY_POINTS:
            self._patch(numpy.fft, attr, self._fft(getattr(numpy.fft, attr)))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """(per-span-name count, per-span-name total self time in s)."""
        import numpy as np

        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(
            parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur)
        )
        own = dur - child
        n = len(self.names)
        counts = np.bincount(kind, minlength=n)
        totals = np.bincount(kind, weights=own, minlength=n)
        return (
            {name: int(counts[i]) for i, name in enumerate(self.names)},
            {name: float(totals[i]) for i, name in enumerate(self.names)},
        )

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


# name -> unit, in the order printed; must match BENCHMARK.json's per_layer.
PER_LAYER_UNITS = {
    "splitting.step_us": "us",
    "splitting.steps": "count",
    "splitting.runs": "count",
    "splitting.records": "count",
    "splitting.trips_amplitude": "count",
    "splitting.trips_energy": "count",
    "splitting.trips_nonfinite": "count",
    "splitting.share": "ratio",
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_bytes_per_step": "B",
    "spectral.fft_us": "us",
    "spectral.fft_share": "ratio",
    "diagnostics.mass_calls": "count",
    "diagnostics.mass_us": "us",
    "diagnostics.energy_calls": "count",
    "diagnostics.energy_us": "us",
    "diagnostics.error_norms_us": "us",
    "diagnostics.share": "ratio",
    "model.ic_calls": "count",
    "model.ic_us": "us",
    "model.share": "ratio",
    "stability.modes": "count",
    "stability.mode_us": "us",
    "stability.share": "ratio",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.share": "ratio",
    "cli.bytes_written": "B",
    "trace.overhead": "ratio",
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    passes: int,
    traced_wall: float,
    overhead: float,
    bytes_written: float,
) -> dict[str, float]:
    """Per-layer metrics per traced pass.

    `traced_wall` is the total traced wall time over `passes` passes;
    `overhead` is the traced over the untraced pass time, minus 1.
    """
    counts, own = tracer.self_times()
    layer = Counter()
    for name, t in own.items():
        layer[LAYERS[name]] += t
    us = 1e6
    steps = tracer.steps
    ffts = counts["spectral.fft"]
    modes = counts["stability.mode"]
    values = {
        "splitting.step_us": _per(own["splitting.run"] * us, steps),
        "splitting.steps": steps / passes,
        "splitting.runs": tracer.runs / passes,
        "splitting.records": tracer.records / passes,
        "splitting.trips_amplitude": tracer.trips["amplitude"] / passes,
        "splitting.trips_energy": tracer.trips["energy"] / passes,
        "splitting.trips_nonfinite": tracer.trips["nonfinite"] / passes,
        "splitting.share": layer["splitting"] / traced_wall,
        "spectral.fft_calls_per_step": round(_per(ffts, steps), 2),
        "spectral.fft_bytes_per_step": _per(tracer.fft_bytes, steps),
        "spectral.fft_us": _per(own["spectral.fft"] * us, ffts),
        "spectral.fft_share": layer["spectral"] / traced_wall,
        "diagnostics.mass_calls": counts["diagnostics.mass"] / passes,
        "diagnostics.mass_us": _per(
            own["diagnostics.mass"] * us, counts["diagnostics.mass"]
        ),
        "diagnostics.energy_calls": counts["diagnostics.energy"] / passes,
        "diagnostics.energy_us": _per(
            own["diagnostics.energy"] * us, counts["diagnostics.energy"]
        ),
        "diagnostics.error_norms_us": _per(
            own["diagnostics.error_norms"] * us, counts["diagnostics.error_norms"]
        ),
        "diagnostics.share": layer["diagnostics"] / traced_wall,
        "model.ic_calls": counts["model.ic"] / passes,
        "model.ic_us": _per(own["model.ic"] * us, counts["model.ic"]),
        "model.share": layer["model"] / traced_wall,
        "stability.modes": modes / passes,
        "stability.mode_us": _per(layer["stability"] * us, modes),
        "stability.share": layer["stability"] / traced_wall,
        "cli.calls": counts["cli"] / passes,
        "cli.self_s": own["cli"] / passes,
        "cli.share": layer["cli"] / traced_wall,
        "cli.bytes_written": bytes_written,
        "trace.overhead": overhead,
    }
    return values
