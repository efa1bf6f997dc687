"""Command-line entry point.

Subcommands:

* ``gen``      write a synthetic matrix to a MatrixMarket file
* ``sketch``   run one sketcher once and write B / V as MatrixMarket
* ``bench``    run a benchmark campaign from a JSON config (plus overrides)
* ``network``  rank hubs/authorities of an edge-list graph

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .bench import (
    DATASET_FORMATS,
    emit_results,
    load_config,
    load_dataset_file,
    run_benchmark,
    sketch_by_id,
)
from .datagen import SyntheticSpec, generate_synthetic
from .dataio import load_edge_list, save_matrix_market
from .netrank import (
    _check_tol, expm_scores_exact, expm_scores_sketched, hits, ranking_overlap,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sketchlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic matrix")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--zeta", type=float, default=10.0,
                     help="noise divisor; 0 disables the noise term")
    gen.add_argument("--m", type=int, default=None,
                     help="signal weight decay divisor (default: k)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    sk = sub.add_parser("sketch", help="sketch a matrix file once")
    sk.add_argument("--input", required=True)
    sk.add_argument("--format", choices=DATASET_FORMATS, required=True)
    sk.add_argument("--method", required=True,
                    help="fd, spemb, normsamp, dct or spfd<q>")
    sk.add_argument("--ell", type=int, required=True)
    sk.add_argument("--seed", type=int, default=0)
    sk.add_argument("--out-b", required=True, help="MatrixMarket path for B")
    sk.add_argument("--out-v", default=None, help="MatrixMarket path for V")

    be = sub.add_parser("bench", help="run a benchmark campaign")
    be.add_argument("--config", required=True, help="JSON config path")
    be.add_argument("--seed", type=int, default=None, help="override base seed")
    be.add_argument("--output", default=None, help="override output path")
    be.add_argument("--out-format", choices=["csv", "json"], default=None)
    be.add_argument("--methods", default=None,
                    type=lambda ids: tuple(m.strip() for m in ids.split(",")),
                    help="override method list, comma separated")

    net = sub.add_parser("network", help="hub/authority ranking of a graph")
    net.add_argument("--edges", required=True, help="edge list path")
    net.add_argument("--zero-indexed", action="store_true",
                     help="node ids start at 0 instead of 1")
    net.add_argument("--k", type=int, default=10, help="top-k list length")
    net.add_argument("--p", type=int, default=5,
                     help="sketch oversampling, ell = k + p")
    net.add_argument("--methods", required=True,
                     help="comma separated: hits, expm and/or sketcher ids; "
                          "the exact expm scores, and every record's "
                          "overlap with them, are computed only when expm "
                          "is listed")
    net.add_argument("--tol", type=float, default=1e-3, help="hits tolerance")
    net.add_argument("--seed", type=int, default=0)
    net.add_argument("--out", required=True, help="JSON output path")
    return parser


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(
        n=args.n, d=args.d, k=args.k,
        zeta=None if args.zeta == 0 else args.zeta,
        m=args.m, seed=args.seed,
    )
    save_matrix_market(args.out, generate_synthetic(spec))
    print(f"wrote {args.n}x{args.d} synthetic matrix to {args.out}")
    return 0


def _cmd_sketch(args) -> int:
    a = load_dataset_file(args.input, args.format)
    out = sketch_by_id(a, args.method, args.ell, args.seed)
    save_matrix_market(args.out_b, out.sketch)
    print(f"wrote sketch B ({out.sketch.shape[0]}x{out.sketch.shape[1]}) "
          f"to {args.out_b}")
    if args.out_v is not None:
        save_matrix_market(args.out_v, out.basis)
        print(f"wrote basis V ({out.basis.shape[0]}x{out.basis.shape[1]}) "
              f"to {args.out_v}")
    return 0


def _cmd_bench(args) -> int:
    overrides = {"seed": args.seed, "output": args.output,
                 "format": args.out_format, "methods": args.methods}
    cfg = replace(load_config(args.config),
                  **{k: v for k, v in overrides.items() if v is not None})
    if cfg.output is None:
        raise ValueError("no output path: set 'output' in the config or --output")
    rows = run_benchmark(cfg)
    emit_results(rows, cfg.output, cfg.format)
    print(f"wrote {len(rows)} result rows to {cfg.output}")
    return 0


def _cmd_network(args) -> int:
    methods = [m.strip().lower() for m in args.methods.split(",")]
    if "hits" in methods:
        _check_tol(args.tol)  # before any ranking runs
    adj = load_edge_list(args.edges, one_indexed=not args.zero_indexed)
    exact = None
    if "expm" in methods:
        exact = expm_scores_exact(adj, top_k=args.k)
    # report nodes in the input file's numbering
    shift = 0 if args.zero_indexed else 1
    records = []
    for i, method in enumerate(methods):
        if method == "hits":
            res = hits(adj, tol=args.tol, rng=np.random.default_rng(args.seed),
                       top_k=args.k)
        elif method == "expm":
            res = exact
        else:
            res = expm_scores_sketched(
                adj, method, k=args.k, p=args.p,
                rng=np.random.default_rng((args.seed, i)),
            )
        record = {
            "method": method,
            "top_hubs": [node + shift for node in res.top_hubs],
            "top_authorities": [node + shift for node in res.top_authorities],
            "elapsed_seconds": res.elapsed_seconds,
            "status": res.status,
            "overlap_vs_exact": None,
        }
        if exact is not None:
            # the top lists hold at most n nodes
            top = min(args.k, adj.shape[0])
            record["overlap_vs_exact"] = {
                "hubs": ranking_overlap(res, exact, top, "hubs"),
                "authorities": ranking_overlap(res, exact, top, "authorities"),
            }
        records.append(record)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(records)} method records to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "sketch": _cmd_sketch,
    "bench": _cmd_bench,
    "network": _cmd_network,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        # every subcommand has --seed; checked here so that all four exit 2
        # on a negative one, as bench's config check does
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
