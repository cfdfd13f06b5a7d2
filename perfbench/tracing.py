"""Spans around the public calls of each projclt layer, recorded from outside.

Nothing inside the package changes.  While a ``Tracer`` is installed, every
function listed in ``SITES`` is replaced, at each module attribute its callers
look it up by, with a wrapper that records one span: name, layer, start, end,
parent span and the run id shared by all spans of one benchmark run.  Spans
stay in memory; the caller writes them out when the run ends.

Size attributes (elements, bytes, kernel pairs, taps) are *computed* from
array shapes after the wrapped call returns; they are never measured counters.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time

import numpy as np

from projclt.errors import ProjCltError
from projclt.model import BodyKind

LAYERS = ("samplers", "grassmann", "density", "spherical", "radial", "deconvolution", "cli")

# (layer, function) -> modules whose attribute its callers look up: the CLI,
# m_tilde_profile inside density, and the benchmark's own kernel calls.
SITES = {
    ("samplers", "sample_body"): ("cli", "density"),
    ("samplers", "sample_gaussian"): ("density",),
    ("samplers", "convolve_and_rescale"): ("cli",),
    ("samplers", "save_batch"): ("cli",),
    ("samplers", "load_batch"): ("cli",),
    ("grassmann", "random_subspace"): ("cli", "density"),
    ("grassmann", "project"): ("cli", "density"),
    ("density", "estimate_density"): ("cli", "density"),
    ("density", "ratio_to_gaussian"): ("cli",),
    ("density", "m_tilde_profile"): ("cli",),
    ("spherical", "radial_mixture_marginal"): ("spherical",),
    ("spherical", "psi_ball_mass"): ("spherical",),
    ("spherical", "psi_gaussian_ratio_scan"): ("cli", "spherical"),
    ("radial", "thin_shell_fraction"): ("cli",),
    ("deconvolution", "grid_convolve"): ("deconvolution",),
    ("deconvolution", "verify_sandwich"): ("deconvolution",),
    ("cli", "main"): ("cli",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _taps(args, kwargs):
    density = np.asarray(_arg(args, kwargs, 0, "density"))
    spacing = float(_arg(args, kwargs, 1, "spacing"))
    sigma = math.sqrt(float(_arg(args, kwargs, 2, "variance")))
    kernel_len = 2 * int(math.ceil(8.0 * sigma / spacing)) + 1
    return density.size * kernel_len * density.ndim


def _stderr_rel_max(est):
    ok = est.values > 0
    return float(np.max(est.stderr[ok] / est.values[ok])) if np.any(ok) else 0.0


# Computed size attributes per wrapped function: f(args, kwargs, result) -> dict.
_ATTRS = {
    "sample_body": lambda a, k, r: {
        "kind": _arg(a, k, 0, "spec").kind.value,
        "elems": r.data.size,
        "out_bytes": r.data.nbytes,
    },
    "sample_gaussian": lambda a, k, r: {"elems": r.data.size, "out_bytes": r.data.nbytes},
    "convolve_and_rescale": lambda a, k, r: {"elems": r.data.size, "out_bytes": r.data.nbytes},
    "save_batch": lambda a, k, r: {"bytes": _arg(a, k, 0, "batch").data.nbytes},
    "load_batch": lambda a, k, r: {"bytes": r.data.nbytes, "out_bytes": r.data.nbytes},
    "project": lambda a, k, r: {"bytes_read": _arg(a, k, 0, "batch").data.nbytes},
    "estimate_density": lambda a, k, r: {
        "pairs": r.sample_count * r.points.shape[0],
        "stderr_rel_max": _stderr_rel_max(r),
    },
    "ratio_to_gaussian": lambda a, k, r: {"sup_dev": r.sup_abs_deviation},
    "m_tilde_profile": lambda a, k, r: {"sup_dev": r.sup_abs_deviation},
    "radial_mixture_marginal": lambda a, k, r: {"points": int(np.size(_arg(a, k, 3, "t")))},
    "thin_shell_fraction": lambda a, k, r: {"bytes_read": _arg(a, k, 0, "batch").data.nbytes},
    "grid_convolve": lambda a, k, r: {"taps": _taps(a, k)},
}


class Tracer:
    """Installs span-recording wrappers; one caller thread at a time."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer, fname, fn):
        attrs = _ATTRS.get(fname)

        def traced(*args, **kwargs):
            span = {
                "run_id": self.run_id,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": f"{layer}.{fname}",
                "layer": layer,
                "error": False,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ProjCltError:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for (layer, fname), modules in SITES.items():
            home = importlib.import_module(f"projclt.{layer}")
            original = getattr(home, fname)
            wrapper = self._wrap(layer, fname, original)
            for mod_name in modules:
                mod = importlib.import_module(f"projclt.{mod_name}")
                if getattr(mod, fname) is not original:
                    raise RuntimeError(f"projclt.{mod_name}.{fname} is not {layer}.{fname}")
                self._saved.append((mod, fname, original))
                setattr(mod, fname, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, fname, original = self._saved.pop()
            setattr(mod, fname, original)
        return False

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _function_metrics():
    """(name, unit) of the busy time, self time and count of each wrapped call."""
    out = []
    for layer, fname in SITES:
        if layer == "cli":
            continue
        base = f"{layer}.{fname}"
        out += [(f"{base}.s", "s"), (f"{base}.self_s", "s"), (f"{base}.count", "count")]
    return out


KINDS = tuple(k.value for k in BodyKind)

PER_LAYER = (
    _function_metrics()
    + [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [(f"samplers.sample_body.ns_per_elem.{k}", "ns") for k in KINDS]
    + [(f"samplers.sample_body.speedup_t2.{k}", "ratio") for k in KINDS]
    + [
        ("samplers.convolve_and_rescale.ns_per_elem", "ns"),
        ("samplers.bytes_materialised", "B"),
        ("samplers.save_batch.mb_per_s", "MB/s"),
        ("samplers.load_batch.mb_per_s", "MB/s"),
        ("grassmann.project.gb_per_s", "GB/s"),
        ("density.kde.pair_evals", "count"),
        ("density.kde.ns_per_pair", "ns"),
        ("density.sup_dev", "ratio"),
        ("density.stderr_max", "ratio"),
        ("spherical.radial_mixture_marginal.ms_per_point", "ms"),
        ("radial.thin_shell_fraction.gb_per_s", "GB/s"),
        ("deconvolution.grid_convolve.taps", "count"),
        ("cli.main.s", "s"),
        ("cli.self_s", "s"),
        ("cli.invocations", "count"),
        ("cli.artifact_bytes", "B"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
        ("machine.copy_gb_s", "GB/s"),
    ]
)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def span_metrics(spans: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration whose timed body took wall_s.

    A call the workload never makes reports 0 for its time, count and rates.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    self_s = dict(dur)
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= dur[s["id"]]

    def total(name, key=None, value=dur):
        return sum(
            (s.get(key, 0) if key else value[s["id"]]) for s in spans if s["name"] == name
        )

    m = {}
    for layer, fname in SITES:
        name = f"{layer}.{fname}"
        if layer != "cli":
            m[f"{name}.s"] = total(name)
            m[f"{name}.self_s"] = total(name, value=self_s)
            m[f"{name}.count"] = sum(1 for s in spans if s["name"] == name)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[s["id"]] for s in spans if s["layer"] == layer)
        m[f"{layer}.errors"] = sum(1 for s in spans if s["layer"] == layer and s["error"])
    for kind in KINDS:
        of_kind = [s for s in spans if s["name"] == "samplers.sample_body" and s.get("kind") == kind]
        m[f"samplers.sample_body.ns_per_elem.{kind}"] = _ratio(
            sum(dur[s["id"]] for s in of_kind), sum(s.get("elems", 0) for s in of_kind), 1e9
        )
    m["samplers.convolve_and_rescale.ns_per_elem"] = _ratio(
        total("samplers.convolve_and_rescale"), total("samplers.convolve_and_rescale", "elems"), 1e9
    )
    m["samplers.bytes_materialised"] = sum(
        s.get("out_bytes", 0) for s in spans if s["layer"] == "samplers"
    )
    for io in ("save_batch", "load_batch"):
        name = f"samplers.{io}"
        m[f"{name}.mb_per_s"] = _ratio(total(name, "bytes"), total(name), 1e-6)
    m["grassmann.project.gb_per_s"] = _ratio(
        total("grassmann.project", "bytes_read"), total("grassmann.project"), 1e-9
    )
    pairs = total("density.estimate_density", "pairs")
    m["density.kde.pair_evals"] = pairs
    m["density.kde.ns_per_pair"] = _ratio(total("density.estimate_density"), pairs, 1e9)
    m["density.sup_dev"] = max((s["sup_dev"] for s in spans if "sup_dev" in s), default=0.0)
    m["density.stderr_max"] = max(
        (s["stderr_rel_max"] for s in spans if "stderr_rel_max" in s), default=0.0
    )
    m["spherical.radial_mixture_marginal.ms_per_point"] = _ratio(
        total("spherical.radial_mixture_marginal"),
        total("spherical.radial_mixture_marginal", "points"),
        1e3,
    )
    m["radial.thin_shell_fraction.gb_per_s"] = _ratio(
        total("radial.thin_shell_fraction", "bytes_read"), total("radial.thin_shell_fraction"), 1e-9
    )
    m["deconvolution.grid_convolve.taps"] = total("deconvolution.grid_convolve", "taps")
    m["cli.main.s"] = total("cli.main")
    m["cli.invocations"] = sum(1 for s in spans if s["name"] == "cli.main")
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(self_s.values())
    return m


def median_metrics(per_iteration: list[dict]) -> dict:
    """Median of each metric across traced iterations."""
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
