"""Command-line entry point.

    spectral-limits <command> --config <file> [--out dir] [--seed s] [--threads t]

Commands: sample, graph, spectrum, align, regularity, distortion, energy,
moser, sweep.  The config file is TOML; every key is checked at load (see
docs/formats.md for all keys and the CSV column layouts).  Every run writes
run_meta.json with the tool version, a config hash, and the seeds used.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from dataclasses import replace

from .config import ALL_REPORTS, load_config, write_rows_csv, write_run_meta


def _cmd_sample(experiments, cfg, out):
    def save(cell):
        path = os.path.join(out, f"points_n{cell.n}_seed{cell.seed}.csv")
        cell.cloud.save(path)
        return path

    return experiments.map_cells(cfg, save)


def _cmd_graph(experiments, cfg, out):
    def save(cell):
        paths = [os.path.join(out, f"{kind}_n{cell.n}_seed{cell.seed}.csv")
                 for kind in ("edges", "vertices")]
        experiments.save_graph_csv(cell.graph, *paths)
        return paths

    return [p for paths in experiments.map_cells(cfg, save) for p in paths]


def _write_report(rows, out, name):
    if not rows:
        return []
    path = os.path.join(out, f"{name}.csv")
    write_rows_csv(rows, path)
    return [path]


def _cmd_sweep(experiments, cfg, out):
    svg = os.path.join(out, "sweep.svg")
    rows = experiments.run_convergence_sweep(cfg, svg_path=svg)
    return _write_report(rows, out, "sweep_summary") + ([svg] if rows else [])


def _report(run, name):
    return lambda module, cfg, out: _write_report(run(module)(cfg), out, name)


# one row per command: the module its report runs in, and its writer,
# (module, cfg, out) -> the paths it wrote, for run_meta.json
WRITERS = {
    "sample": ("experiments", _cmd_sample),
    "graph": ("experiments", _cmd_graph),
    "spectrum": ("experiments",
                 _report(lambda m: m.run_spectrum_experiment, "spectrum")),
    "align": ("experiments", _report(lambda m: m.run_alignment, "alignment")),
    "regularity": ("experiments",
                   _report(lambda m: m.run_regularity, "regularity")),
    "distortion": ("distortion",
                   _report(lambda m: m.run_distortion, "distortion")),
    "energy": ("experiments", _report(lambda m: m.run_energy, "energy")),
    "moser": ("experiments", _report(lambda m: m.run_moser, "moser")),
    "sweep": ("experiments", _cmd_sweep),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectral-limits",
        description="Graph-Laplacian spectral approximation experiments",
    )
    parser.add_argument("command", choices=ALL_REPORTS)
    parser.add_argument("--config", required=True, help="TOML config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed list with one seed")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=[args.seed])
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)

    written = []
    if args.command in cfg.reports:
        module, write = WRITERS[args.command]
        # imported only now, so that distortion never loads the graph stack
        written = write(importlib.import_module(f".{module}", __package__),
                        cfg, args.out)
    write_run_meta(cfg, args.out, written)
    return 0


if __name__ == "__main__":
    sys.exit(main())
