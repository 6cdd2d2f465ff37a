"""Span recording for the traced benchmark runs.

The program itself carries no instrumentation.  :func:`install` replaces
every public function of the fpcavity layer modules, wherever it is bound
in an ``fpcavity*`` module namespace, with a wrapper that records a span
(name, parent, start, end) in a :class:`Recorder`.  Because module code
looks its globals up at call time, calls between layers and inside one
layer are both seen.  :func:`uninstall` puts the originals back.

:func:`layer_metrics` turns the spans of one pass into the per-layer
metrics that ``run.py`` reports.  Self time is a span's duration minus the
time its direct children cover.  Each span's self time goes to one bucket:
the function's own metric when it has one, else the bucket of its nearest
ancestor in the same layer, else ``<layer>.other``.  A layer's ``self_s``
sums all its buckets, so the layers plus ``import`` partition the traced
wall time.

Run as a script it is the traced CLI process: it times ``import
fpcavity.cli``, installs the wrappers, calls ``fpcavity.cli.main(argv)``
and writes the spans to a JSON file::

    python bench/spans.py SPANS.json -- cavity --config cfg.json --json
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("config", "optics", "purcell", "ensemble", "spectra", "fitting",
          "trace", "planner", "cli")

# functions with a metric of their own; every other public function of a
# layer inherits its caller's bucket (see the module docstring)
NAMED = {
    "config.default_config_data": "config.load_s",
    "config.RunConfig.from_file": "config.load_s",
    "config.RunConfig.default": "config.load_s",
    "config.build_manifest": "config.manifest_s",
    "config.write_manifest": "config.manifest_s",
    "config.file_sha256": "config.manifest_s",
    "config.manifest_path_for": "config.manifest_s",
    "purcell.coupling_report": "purcell.coupling_report_s",
    "purcell.jitter_suppression": "purcell.jitter_suppression_s",
    "ensemble.ions_in_bandwidth": "ensemble.ions_in_bandwidth_s",
    "ensemble.ensemble_purcell_stats": "ensemble.ensemble_purcell_stats_s",
    "ensemble.channel_strengths": "ensemble.channel_strengths_s",
    "ensemble.sfs_spectrum": "ensemble.sfs_spectrum_s",
    "spectra.ple_scan": "spectra.generate_s",
    "spectra.saturation_curve": "spectra.generate_s",
    "spectra.hole_spectrum": "spectra.generate_s",
    "spectra.decay_histogram": "spectra.generate_s",
    "fitting.fit": "fitting.fit_s",
    "trace.write_trace": "trace.write_s",
    "trace.write_trace_csv": "trace.write_s",
    "trace.read_trace_csv": "trace.read_s",
    "planner.sweep_grid": "planner.sweep_grid_s",
    "planner.write_sweep_csv": "planner.write_sweep_csv_s",
    "planner.best_operating_point": "planner.best_operating_point_s",
}


class Recorder:
    """Spans and counters of one process, kept in memory.

    A span is ``[name, parent_index, start, end]`` with perf_counter
    seconds; ``parent_index`` is None for a root.  ``mark()`` returns the
    current span count so a caller can slice out the spans of one pass.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((len(self.spans), name, float(value)))

    def mark(self) -> int:
        return len(self.spans)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size(path) -> int:
    return os.path.getsize(path)


# counters recorded after a span closes, from the call's arguments and
# result; they describe work done, so they repeat exactly for fixed inputs
def _count_ions(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rec.count("ensemble.ion_frequencies_drawn",
              a["population"].total_ions * a["n_draws"])


def _count_samples(rec, fn, args, kwargs, result):
    rec.count("ensemble.samples", _bound(fn, args, kwargs)["n_samples"])


def _count_points(rec, fn, args, kwargs, result):
    rec.count("spectra.points", len(result))


def _count_fit(rec, fn, args, kwargs, result):
    rec.count("fitting.fits", 1)
    rec.count("fitting.iterations", result.iterations)
    rec.count("fitting.converged", 1 if result.converged else 0)


def _count_csv_written(rec, fn, args, kwargs, result):
    rec.count("trace.bytes_written", _size(_bound(fn, args, kwargs)["path"]))


def _count_sidecar_written(rec, fn, args, kwargs, result):
    rec.count("trace.bytes_written", _size(result))


def _count_read(rec, fn, args, kwargs, result):
    rec.count("trace.bytes_read", _size(_bound(fn, args, kwargs)["path"]))


def _count_rows(rec, fn, args, kwargs, result):
    rec.count("planner.rows", len(result))


COUNTERS = {
    "ensemble.ions_in_bandwidth": _count_ions,
    "ensemble.ensemble_purcell_stats": _count_samples,
    "spectra.ple_scan": _count_points,
    "spectra.saturation_curve": _count_points,
    "spectra.hole_spectrum": _count_points,
    "spectra.decay_histogram": _count_points,
    "fitting.fit": _count_fit,
    "trace.write_trace_csv": _count_csv_written,
    "trace.write_trace": _count_sidecar_written,
    "trace.read_trace_csv": _count_read,
    "planner.sweep_grid": _count_rows,
}


def _wrap(fn, name: str, rec: Recorder):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            counter(rec, fn, args, kwargs, result)
        return result

    return wrapper


def _targets():
    """(span name, original function) for every public layer function."""
    targets = []
    for layer in LAYERS:
        if layer == "cli":
            continue  # the cli layer is the root span around main()
        module = sys.modules[f"fpcavity.{layer}"]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                targets.append((f"{layer}.{attr}", value))
    return targets


def install(rec: Recorder):
    """Wrap the layer functions; returns the undo list for uninstall()."""
    import fpcavity.config

    undo = []
    wrappers = {}
    for name, original in _targets():
        wrappers[id(original)] = (original, _wrap(original, name, rec))
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("fpcavity"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                namespace[attr] = entry[1]
                undo.append((namespace, attr, value))
    run_config = fpcavity.config.RunConfig
    for attr in ("from_file", "default"):
        original = vars(run_config)[attr]
        wrapped = _wrap(original.__func__, f"config.RunConfig.{attr}", rec)
        setattr(run_config, attr, classmethod(wrapped))
        undo.append((run_config, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(rec: Recorder, start: int, stop: int) -> dict:
    """Per-layer self times and counters of spans[start:stop].

    Returns a flat dict of metric name to value, including
    ``<layer>.self_s`` for every layer that has spans, span counts as
    ``<name>.calls``, and the summed counters.
    """
    spans = rec.spans[start:stop]
    parents = [None if p is None or p < start else p - start
               for _, p, _, _ in spans]
    child_time = [0.0] * len(spans)
    bucket = [""] * len(spans)
    out: dict[str, float] = {}
    for i, (name, _, t0, t1) in enumerate(spans):
        if parents[i] is not None:
            child_time[parents[i]] += t1 - t0
        layer = _layer_of(name)
        ancestor = parents[i]
        while ancestor is not None and _layer_of(spans[ancestor][0]) != layer:
            ancestor = parents[ancestor]
        if name in NAMED:
            bucket[i] = NAMED[name]
        elif ancestor is not None:
            bucket[i] = bucket[ancestor]
        elif layer in LAYERS and layer != "cli":
            bucket[i] = f"{layer}.other_s"
        else:  # the roots: import, cli, study
            bucket[i] = f"{layer}.self_s"
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
    for i, (name, _, t0, t1) in enumerate(spans):
        own = (t1 - t0) - child_time[i]
        out[bucket[i]] = out.get(bucket[i], 0.0) + own
        layer = _layer_of(name)
        if layer in LAYERS and layer != "cli":
            key = f"{layer}.self_s"
            out[key] = out.get(key, 0.0) + own
    out["optics.calls"] = sum(v for k, v in out.items()
                              if k.startswith("optics.")
                              and k.endswith(".calls"))
    for position, name, value in rec.counts:
        if start < position <= stop:
            out[name] = out.get(name, 0.0) + value
    return out


def _main(argv) -> int:
    t_start = time.perf_counter()
    spans_path = argv[0]
    if argv[1] != "--":
        raise SystemExit("usage: spans.py SPANS.json -- CLI-ARGS...")
    cli_argv = argv[2:]
    rec = Recorder()
    index = rec.open("import")
    import fpcavity.cli
    rec.close(index)
    install(rec)
    index = rec.open("cli")
    try:
        code = fpcavity.cli.main(cli_argv)
    finally:
        rec.close(index)
        sys.stdout.flush()
        wall = time.perf_counter() - t_start
        with open(spans_path, "w") as handle:
            json.dump({"wall_s": wall, "spans": rec.spans,
                       "counts": rec.counts,
                       "metrics": layer_metrics(rec, 0, rec.mark())},
                      handle)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
