"""Where the traced run wraps the library, and how spans become per-layer
metrics.

Each target is a name as a calling module binds it.  A span is named
``<layer>.<call>``, where the layer is the module that defines the function,
and carries ``caller``, the module whose binding was wrapped.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict

from spans import Recorder, Span, ancestors, self_times
from stats import high_percentile, median

SKETCHERS = {
    "fd_sketch": lambda a, ell: "fd",
    "spfd_sketch": lambda a, cfg: f"spfd{cfg.q}",
    "spemb_sketch": lambda a, ell, rng: "spemb",
    "norm_sampling_sketch": lambda a, ell, rng: "normsamp",
    "dct_sketch": lambda a, ell, rng: "dct",
}
SHRINK_METHODS = ("fd", "spfd10", "spfd50")
SVD_CALLERS = ("sketch", "lowrank", "netrank")


def _method_of(name):
    describe = SKETCHERS[name]
    return lambda *args, **kwargs: {"method": describe(*args, **kwargs)}


def _file_bytes(path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _max_iter(fn):
    signature = inspect.signature(fn)

    def describe(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"max_iter": bound.arguments["max_iter"], "matvecs": 0}

    return describe


def trace_targets(lib) -> list[tuple[object, str, str, object]]:
    """``(module, attribute, span name, describe)`` for every wrapped call.
    ``describe(fn)`` returns the callable that turns the call's arguments
    into span attributes, or is ``None``."""
    bench, sketch, lowrank = lib.bench, lib.sketch, lib.lowrank
    netrank, dataio, datagen = lib.netrank, lib.dataio, lib.datagen
    method = lambda fn: lambda a, m, *rest, **kw: {"method": m}
    targets = [
        (bench, "run_method", "bench.run_method", method),
        (bench, "run_benchmark", "bench.run_benchmark", None),
        (bench, "load_config", "bench.load_config", None),
        (bench, "emit_results", "bench.emit_results", None),
        (bench, "generate_synthetic", "datagen.generate_synthetic", None),
        (datagen, "generate_synthetic", "datagen.generate_synthetic", None),
        (datagen, "thin_qr", "linalg.thin_qr", None),
        (sketch, "svd", "linalg.svd", None),
        (sketch, "thin_qr", "linalg.thin_qr", None),
        (sketch, "spfd_intermediate", "sketch.spfd_intermediate", None),
        (sketch, "spemb_apply", "sketch.spemb_apply", None),
        (lowrank, "svd", "linalg.svd", None),
        (lowrank, "residual_spectral_norm", "lowrank.residual_spectral_norm",
         _max_iter),
        (lowrank, "_residual_fro", "lowrank.residual_fro", None),
        (netrank, "svd", "linalg.svd", None),
        (netrank, "approx_svd", "lowrank.approx_svd", None),
        (netrank, "_sketch_basis", "netrank.sketch_basis", None),
        (netrank, "expm_scores_exact", "netrank.expm_scores_exact", None),
        (netrank, "expm_scores_sketched", "netrank.expm_scores_sketched", None),
        (netrank, "hits", "netrank.hits", None),
    ]
    for module in (bench, lowrank):
        for call in ("approx_from_basis", "best_rank_k", "error_report"):
            targets.append((module, call, f"lowrank.{call}", None))
    for module in (bench, netrank):
        for call in SKETCHERS:
            if hasattr(module, call):
                targets.append(
                    (module, call, "sketch.sketcher", lambda fn, c=call: _method_of(c))
                )
    for module in (bench, dataio):
        for call in ("load_svmlight", "load_matrix_market", "load_edge_list"):
            if hasattr(module, call):
                targets.append((module, call, "dataio.load", lambda fn: _file_bytes))
    return targets


def tracing_patches(lib, recorder: Recorder, callers=None):
    """Replacements for ``spans.patched``: one span wrapper per target, plus
    a counter of power-iteration matrix-vector steps that charges the open
    ``residual_spectral_norm`` span.  ``callers`` limits the wrapping to the
    bindings of those modules."""
    patches = []
    for module, attr, name, describe in trace_targets(lib):
        caller = module.__name__.rsplit(".", 1)[-1]
        if callers is not None and caller not in callers:
            continue

        def make(fn, name=name, describe=describe, caller=caller):
            extra = describe(fn) if describe else None

            def attrs(*args, **kwargs):
                out = {"caller": caller}
                if extra:
                    out.update(extra(*args, **kwargs))
                return out

            return recorder.wrap(fn, name, attrs)

        patches.append((module, attr, make))

    def count_matvec(fn):
        def counted(*args, **kwargs):
            recorder.bump("matvecs")
            return fn(*args, **kwargs)

        return counted

    if callers is None or "lowrank" in callers:
        patches.append((lib.lowrank, "_matvec_residual", count_matvec))
    return patches


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times are self times (a span's duration less its traced children on the
    same thread), except the calls named as inclusive in BENCHMARK.md:
    reconstruction, the exact reference, generation, loading, campaign
    repetitions and the netrank stages, which include the SVD or sketch they
    make.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_sum(*names, caller=None):
        return sum(
            own[s.id]
            for n in names
            for s in by_name[n]
            if caller is None or s.attrs.get("caller") == caller
        )

    def incl_sum(name, caller=None):
        return sum(
            s.duration
            for s in by_name[name]
            if caller is None or s.attrs.get("caller") == caller
        )

    out: dict[str, tuple[float, str]] = {}
    rounds = [s for s in by_name["linalg.svd"] if s.attrs.get("caller") == "sketch"]
    per_method = defaultdict(int)
    for s in rounds:
        owner = next(
            (p for p in ancestors(s, by_id) if p.name == "sketch.sketcher"), None
        )
        per_method[owner.attrs["method"] if owner else "?"] += 1
    shrink_s = sum(s.duration for s in rounds)
    out["sketch.shrink_rounds"] = (len(rounds), "count")
    for m in SHRINK_METHODS:
        out[f"sketch.shrink_rounds.{m}"] = (per_method.get(m, 0), "count")
    out["sketch.shrink_s"] = (shrink_s, "s")
    out["sketch.shrink_ms_per_round"] = (
        1e3 * shrink_s / len(rounds) if rounds else 0.0, "ms")
    round_ms = [1e3 * s.duration for s in rounds]
    out["sketch.shrink_ms_median"] = (median(round_ms) if rounds else 0.0, "ms")
    tail = high_percentile(round_ms)
    if tail:
        out[f"sketch.shrink_ms_p{tail['p']}"] = (tail["value"], "ms")
    out["sketch.embed_s"] = (
        self_sum("sketch.spfd_intermediate", "sketch.spemb_apply"), "s")
    out["sketch.basis_s"] = (self_sum("linalg.thin_qr", caller="sketch"), "s")

    out["lowrank.reconstruct_s"] = (incl_sum("lowrank.approx_from_basis"), "s")
    out["lowrank.exact_ref_s"] = (incl_sum("lowrank.best_rank_k"), "s")
    out["lowrank.error_report_s"] = (self_sum("lowrank.error_report"), "s")
    out["lowrank.residual_spec_s"] = (
        self_sum("lowrank.residual_spectral_norm"), "s")
    out["lowrank.residual_fro_s"] = (self_sum("lowrank.residual_fro"), "s")
    power = by_name["lowrank.residual_spectral_norm"]
    out["lowrank.power_iters"] = (sum(s.attrs["matvecs"] for s in power), "count")
    out["lowrank.power_unconverged"] = (
        sum(s.attrs["matvecs"] >= s.attrs["max_iter"] for s in power), "count")

    svds = by_name["linalg.svd"]
    out["linalg.svd_calls"] = (len(svds), "count")
    out["linalg.svd_s"] = (sum(s.duration for s in svds), "s")
    for caller in SVD_CALLERS:
        mine = [s for s in svds if s.attrs.get("caller") == caller]
        out[f"linalg.svd_calls.{caller}"] = (len(mine), "count")
        out[f"linalg.svd_s.{caller}"] = (sum(s.duration for s in mine), "s")

    out["datagen.generate_s"] = (incl_sum("datagen.generate_synthetic"), "s")
    loads = by_name["dataio.load"]
    out["dataio.load_s"] = (sum(s.duration for s in loads), "s")
    out["dataio.bytes_read"] = (sum(s.attrs["bytes"] for s in loads), "bytes")

    reps = by_name["bench.run_method"]
    failed = sum("error" in s.attrs for s in reps) + sum(
        "error" in s.attrs
        for s in by_name["lowrank.error_report"]
        if s.attrs.get("caller") == "bench"
    )
    out["bench.reps_attempted"] = (len(reps), "count")
    out["bench.reps_failed"] = (failed, "count")
    out["bench.rep_busy_s"] = (sum(s.duration for s in reps), "s")

    out["netrank.exact_svd_s"] = (out["linalg.svd_s.netrank"][0], "s")
    out["netrank.sketch_basis_s"] = (incl_sum("netrank.sketch_basis"), "s")
    out["netrank.approx_svd_s"] = (incl_sum("lowrank.approx_svd", caller="netrank"), "s")
    out["netrank.hits_s"] = (incl_sum("netrank.hits"), "s")
    return out
