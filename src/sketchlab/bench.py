"""Benchmark harness: sweep sketch sizes, repeat with derived seeds,
aggregate lower medians and emit CSV/JSON result tables.

The protocol mirrors the evaluation it reproduces: synthetic datasets are
regenerated per outer repetition, each method runs ``inner`` times per
matrix with its own derived seed, and the reported numbers are medians
over all completed repetitions.  Timing covers sketch construction plus
rank-k reconstruction only; dataset loading and the exact reference SVD
are excluded.

``ResultRow`` is the one definition of a result row: the CSV columns and
the JSON keys are its fields in declaration order, so a new column is one
more field (added at the end, since the CSV layout is public).

Repetitions run serially, one after another, so each one's timing is free
of contention from the others.  A repetition that raises ``NumericalError``
or ``numpy.linalg.LinAlgError`` is logged, counted in its row's ``failed``
column and left out of the medians; a cell whose repetitions all failed
still gets a row, with ``reps=0`` and null medians.  Any other exception
aborts the campaign.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import time
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from statistics import median_low
from typing import Optional, Union

import numpy as np

from .datagen import SyntheticSpec, generate_synthetic
from .dataio import load_edge_list, load_matrix_market, load_svmlight
from .linalg import Matrix, NumericalError
from .lowrank import approx_from_basis, best_rank_k, error_report
from .sketch import (
    SketchOutput,
    SpfdConfig,
    dct_sketch,
    fd_sketch,
    norm_sampling_sketch,
    parse_sketcher_id,
    spemb_sketch,
    spfd_sketch,
)

__all__ = [
    "BenchConfig",
    "ResultRow",
    "run_benchmark",
    "emit_results",
    "load_config",
    "MEDIAN_NOTE",
    "EXACT_REFERENCE_CELL_CAP",
    "DATASET_FORMATS",
]

log = logging.getLogger(__name__)

# Above this many matrix cells the exact reference is skipped and only
# timings are reported.  Every shape counts all n*d cells, although a tall
# matrix's Gram route holds d*d and the truncated route of square and wide
# input works on the matrix as given: each route can fall back to `svd`,
# which densifies it.  The Gram route falls back when its rounding bound
# fails (a singular value or tail too small to resolve, such as any rank
# below d but the all-zero matrix's); the truncated route when its
# residual bound fails or ARPACK raises.
EXACT_REFERENCE_CELL_CAP = 5 * 10**7

MEDIAN_NOTE = (
    "medians use the lower-median convention (even repetition counts report "
    "the smaller central value) over completed repetitions only"
)

DATASET_FORMATS = ("svmlight", "matrixmarket", "edges")

_CONFIG_KEYS = {
    "schema_version",
    "dataset",
    "methods",
    "k",
    "ell_sweep",
    "repetitions",
    "seed",
    "output",
    "format",
}
_SYNTH_KEYS = {"type", "n", "d", "k", "zeta", "m"}
_FILE_KEYS = {"type", "path", "format"}


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark campaign: a dataset, methods, a sketch-size sweep and
    a repetition/seed policy."""

    dataset: Union[SyntheticSpec, tuple[str, str]]
    methods: tuple[str, ...]
    k: int
    ell_sweep: tuple[int, int, int]  # start, step, end (inclusive)
    repetitions: tuple[int, int] = (1, 1)  # outer (matrices), inner (runs)
    seed: int = 0
    output: Optional[str] = None
    format: str = "csv"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        start, step, end = self.ell_sweep
        if start < self.k:
            raise ValueError(
                f"ell sweep must start at or above k (start={start}, k={self.k})"
            )
        if step < 1 or end < start:
            raise ValueError(f"invalid ell sweep {self.ell_sweep}")
        if self.repetitions[0] < 1 or self.repetitions[1] < 1:
            raise ValueError("repetition counts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.methods:
            raise ValueError("at least one method is required")
        seen = {}
        for m in self.methods:
            key = parse_sketcher_id(m)
            if key in seen:
                raise ValueError(f"methods '{seen[key]}' and '{m}' name the same sketcher")
            seen[key] = m
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format '{self.format}'")

    @property
    def ells(self) -> list[int]:
        start, step, end = self.ell_sweep
        return list(range(start, end + 1, step))


@dataclass(frozen=True)
class ResultRow:
    """Aggregated row: medians over the ``reps`` completed repetitions, and
    the count of ``failed`` ones.  With ``reps == 0`` every median is
    ``None``."""

    method: str
    ell: int
    fro_ratio: Optional[float]
    spec_ratio: Optional[float]
    elapsed_seconds: Optional[float]
    reps: int
    failed: int = 0


CSV_HEADER = [f.name for f in fields(ResultRow)]


def _required(obj: dict, key: str, path, where: str = ""):
    if key not in obj:
        raise ValueError(f"{path}: missing required key '{where}{key}'")
    return obj[key]


def _number(value, kind, path, key: str):
    """``kind(value)`` (``int`` or ``float``), or a ``ValueError`` naming the
    file and the key.  Booleans are refused, and an integer key refuses a
    number with a fractional part instead of truncating it."""
    what = "an integer" if kind is int else "a number"
    bad = ValueError(f"{path}: {key} must be {what}, got {value!r}")
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise bad
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise bad from None


def _parse_sweep(raw, path) -> tuple[int, int, int]:
    keys = ("start", "step", "end")
    if isinstance(raw, str):
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"{path}: ell_sweep must look like 'start:step:end', got {raw!r}"
            )
        return tuple(
            _number(part, int, path, f"ell_sweep.{key}")
            for key, part in zip(keys, parts)
        )
    if isinstance(raw, dict):
        extra = set(raw) - set(keys)
        if extra:
            raise ValueError(f"{path}: unknown ell_sweep keys {sorted(extra)}")
        return tuple(
            _number(
                _required(raw, key, path, "ell_sweep."), int, path, f"ell_sweep.{key}"
            )
            for key in keys
        )
    raise ValueError(
        f"{path}: ell_sweep must be a 'start:step:end' string or an object"
    )


def load_config(path) -> BenchConfig:
    """Parse and validate a benchmark config JSON file.

    The schema is versioned and closed: unknown keys anywhere are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if raw.get("schema_version") != 1:
        raise ValueError(f"{path}: schema_version must be 1")
    extra = set(raw) - _CONFIG_KEYS
    if extra:
        raise ValueError(f"{path}: unknown config keys {sorted(extra)}")
    methods = _required(raw, "methods", path)
    if not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
        raise ValueError(f"{path}: methods must be a list of strings")
    k = _number(_required(raw, "k", path), int, path, "k")
    ell_sweep = _parse_sweep(_required(raw, "ell_sweep", path), path)
    ds = raw.get("dataset")
    if not isinstance(ds, dict) or "type" not in ds:
        raise ValueError(f"{path}: dataset must be an object with a 'type'")
    if ds["type"] == "synthetic":
        extra = set(ds) - _SYNTH_KEYS
        if extra:
            raise ValueError(f"{path}: unknown dataset keys {sorted(extra)}")
        kwargs = {
            key: _number(
                _required(ds, key, path, "dataset."), int, path, f"dataset.{key}"
            )
            for key in ("n", "d")
        }
        kwargs["k"] = _number(ds.get("k", k), int, path, "dataset.k")
        if "zeta" in ds:
            # explicit null disables the noise term; absent keeps the default
            kwargs["zeta"] = (
                None if ds["zeta"] is None
                else _number(ds["zeta"], float, path, "dataset.zeta")
            )
        if ds.get("m") is not None:
            kwargs["m"] = _number(ds["m"], int, path, "dataset.m")
        dataset: Union[SyntheticSpec, tuple[str, str]] = SyntheticSpec(**kwargs)
    elif ds["type"] == "file":
        extra = set(ds) - _FILE_KEYS
        if extra:
            raise ValueError(f"{path}: unknown dataset keys {sorted(extra)}")
        if ds.get("format") not in DATASET_FORMATS:
            raise ValueError(f"{path}: unknown dataset format {ds.get('format')!r}")
        dataset = (str(_required(ds, "path", path, "dataset.")), str(ds["format"]))
    else:
        raise ValueError(f"{path}: unknown dataset type {ds['type']!r}")
    reps = raw.get("repetitions", {"outer": 1, "inner": 1})
    if not isinstance(reps, dict):
        raise ValueError(
            f"{path}: repetitions must be an object with 'outer' and 'inner'"
        )
    if set(reps) - {"outer", "inner"}:
        raise ValueError(f"{path}: unknown repetition keys")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ValueError(f"{path}: output must be a string, got {output!r}")
    return BenchConfig(
        dataset=dataset,
        methods=tuple(methods),
        k=k,
        ell_sweep=ell_sweep,
        repetitions=tuple(
            _number(reps.get(key, 1), int, path, f"repetitions.{key}")
            for key in ("outer", "inner")
        ),
        seed=_number(raw.get("seed", 0), int, path, "seed"),
        output=output,
        format=raw.get("format", "csv"),
    )


def load_dataset_file(path: str, fmt: str) -> Matrix:
    if fmt == "svmlight":
        return load_svmlight(path)
    if fmt == "matrixmarket":
        return load_matrix_market(path)
    if fmt == "edges":
        return load_edge_list(path)
    raise ValueError(
        f"unknown dataset format '{fmt}', expected one of {', '.join(DATASET_FORMATS)}"
    )


def derive_seed(base: int, matrix_idx: int, rep_idx: int, method: str, ell: int) -> int:
    """Deterministic per-repetition seed from the campaign base seed."""
    tag = zlib.crc32(method.encode("utf-8"))
    ss = np.random.SeedSequence((base, matrix_idx, rep_idx, tag, ell))
    return int(ss.generate_state(1)[0])


def sketch_by_id(a: Matrix, method: str, ell: int, seed: int) -> SketchOutput:
    """Run the sketcher named by ``method`` (see ``parse_sketcher_id``) once.

    The randomized sketchers draw from ``default_rng(seed)``; ``spfd<q>``
    takes ``seed`` as its config seed; ``fd`` ignores it.
    """
    kind, q = parse_sketcher_id(method)
    if kind == "fd":
        return fd_sketch(a, ell)
    if kind == "spemb":
        return spemb_sketch(a, ell, np.random.default_rng(seed))
    if kind == "normsamp":
        return norm_sampling_sketch(a, ell, np.random.default_rng(seed))
    if kind == "dct":
        return dct_sketch(a, ell, np.random.default_rng(seed))
    return spfd_sketch(a, SpfdConfig(ell=ell, q=q, seed=seed))


def run_method(a: Matrix, method: str, ell: int, k: int, seed: int):
    """One timed repetition: sketch, then rank-k reconstruction factors.

    Returns ``(factors, elapsed_seconds)`` where the clock covers exactly
    the sketch and the reconstruction.
    """
    t0 = time.perf_counter()
    out = sketch_by_id(a, method, ell, seed)
    factors = approx_from_basis(a, out.basis, k)
    return factors, time.perf_counter() - t0


def _exact_reference(a: Matrix, k: int):
    n, d = a.shape
    if n * d > EXACT_REFERENCE_CELL_CAP:
        log.warning(
            "matrix %s exceeds %d cells; skipping exact reference, "
            "error ratios will be omitted",
            (n, d),
            EXACT_REFERENCE_CELL_CAP,
        )
        return None
    # loaders and the generator validate; CSR stays sparse (sparse Gram)
    return best_rank_k(a, k)


def _matrices(cfg: BenchConfig):
    """Yield ``(matrix_idx, a, exact)`` for each outer repetition.

    A synthetic dataset is regenerated per index from a derived seed.  A file
    dataset is fixed: it is loaded, and its reference taken, once, and outer
    repetitions only rerun the randomized methods.
    """
    outer = cfg.repetitions[0]
    if isinstance(cfg.dataset, SyntheticSpec):
        for matrix_idx in range(outer):
            seed = derive_seed(cfg.seed, matrix_idx, 0, "dataset", 0)
            a = generate_synthetic(replace(cfg.dataset, seed=seed))
            yield matrix_idx, a, _exact_reference(a, cfg.k)
        return
    a = load_dataset_file(*cfg.dataset)
    exact = _exact_reference(a, cfg.k)
    for matrix_idx in range(outer):
        yield matrix_idx, a, exact


def _median(values: list) -> Optional[float]:
    """Lower median, or ``None`` without values or where they are ``None``."""
    return None if not values or values[0] is None else median_low(values)


def run_benchmark(cfg: BenchConfig) -> list[ResultRow]:
    """Execute the full campaign and return aggregated rows sorted by
    ``(method, ell)``."""
    # per cell: (fro, spec, elapsed) for each completed repetition, None
    # for each failed one
    cells: dict[tuple[str, int], list] = {
        (m, ell): [] for m in cfg.methods for ell in cfg.ells
    }
    for matrix_idx, a, exact in _matrices(cfg):
        for method, ell, rep in itertools.product(
            cfg.methods, cfg.ells, range(cfg.repetitions[1])
        ):
            seed = derive_seed(cfg.seed, matrix_idx, rep, method, ell)
            try:
                factors, elapsed = run_method(a, method, ell, cfg.k, seed)
                result = (None, None, elapsed)
                if exact is not None:
                    report = error_report(a, factors, exact, elapsed)
                    result = (report.fro_ratio, report.spec_ratio, elapsed)
            except (NumericalError, np.linalg.LinAlgError):
                log.exception("repetition %s failed", (method, ell, rep))
                result = None
            cells[(method, ell)].append(result)

    rows = []
    for method in sorted(cfg.methods):
        for ell in cfg.ells:
            results = cells[(method, ell)]
            runs = [r for r in results if r is not None]
            failed = len(results) - len(runs)
            if failed:
                log.warning(
                    "%s ell=%d: %d of %d repetitions failed",
                    method, ell, failed, len(results),
                )
            fro, spec, elapsed = (_median([r[i] for r in runs]) for i in range(3))
            rows.append(ResultRow(method, ell, fro, spec, elapsed, len(runs), failed))
    return rows


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "nan"
    return f"{value:.10g}"


def _json_float(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(_fmt(value))


def _record(row: ResultRow, number) -> dict:
    """``row`` as a field-ordered dict, with each float or missing median
    written by ``number``."""
    return {
        key: number(value) if value is None or isinstance(value, float) else value
        for key, value in asdict(row).items()
    }


def emit_results(rows: list[ResultRow], path, fmt: str = "csv") -> None:
    """Write rows as CSV (with a convention note as a comment line) or as a
    JSON array; identical inputs produce identical bytes."""
    path = Path(path)
    try:
        if fmt == "csv":
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(f"# {MEDIAN_NOTE}\n")
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(CSV_HEADER)
                writer.writerows(_record(row, _fmt).values() for row in rows)
        elif fmt == "json":
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump([_record(row, _json_float) for row in rows], fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown output format '{fmt}'")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
