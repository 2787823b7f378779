"""Command-line entry point.

    spectral-limits <command> --config <file> [--out dir] [--seed s] [--threads t]

Commands: sample, graph, spectrum, align, regularity, distortion, energy,
moser, sweep.  The config file is flat `key = value` text; see
docs/formats.md for all keys and the CSV column layouts.  Every run writes
run_meta.json with the tool version, a config hash, and the seeds used.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    ALL_REPORTS,
    load_config,
    map_cells,
    run_alignment,
    run_convergence_sweep,
    run_distortion,
    run_energy,
    run_moser,
    run_regularity,
    run_spectrum_experiment,
    write_rows_csv,
    write_run_meta,
)
from .graph import save_graph_csv


def _cmd_sample(cfg, out):
    def save(cell):
        path = os.path.join(out, f"points_n{cell.n}_seed{cell.seed}.csv")
        cell.cloud.save(path)
        return path

    return map_cells(cfg, save)


def _cmd_graph(cfg, out):
    def save(cell):
        paths = [os.path.join(out, f"{kind}_n{cell.n}_seed{cell.seed}.csv")
                 for kind in ("edges", "vertices")]
        save_graph_csv(cell.graph, *paths)
        return paths

    return [p for paths in map_cells(cfg, save) for p in paths]


def _write_report(rows, out, name):
    if not rows:
        return []
    path = os.path.join(out, f"{name}.csv")
    write_rows_csv(rows, path)
    return [path]


def _cmd_sweep(cfg, out):
    svg = os.path.join(out, "sweep.svg")
    rows = run_convergence_sweep(cfg, svg_path=svg)
    return _write_report(rows, out, "sweep_summary") + ([svg] if rows else [])


def _report(run, name):
    return lambda cfg, out: _write_report(run(cfg), out, name)


# one writer per command: (cfg, out) -> the paths it wrote, for run_meta.json
WRITERS = {
    "sample": _cmd_sample,
    "graph": _cmd_graph,
    "spectrum": _report(run_spectrum_experiment, "spectrum"),
    "align": _report(run_alignment, "alignment"),
    "regularity": _report(run_regularity, "regularity"),
    "distortion": _report(run_distortion, "distortion"),
    "energy": _report(run_energy, "energy"),
    "moser": _report(run_moser, "moser"),
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectral-limits",
        description="Graph-Laplacian spectral approximation experiments",
    )
    parser.add_argument("command", choices=ALL_REPORTS)
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed list with one seed")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if args.threads is not None:
        cfg.threads = args.threads
    os.makedirs(args.out, exist_ok=True)

    written = []
    if args.command in cfg.reports:
        written = WRITERS[args.command](cfg, args.out)
    write_run_meta(cfg, args.out, written)
    return 0


if __name__ == "__main__":
    sys.exit(main())
