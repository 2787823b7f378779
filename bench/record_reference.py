"""Record the distortion-spindle reference values the output check compares with.

    python3 bench/record_reference.py

Runs the workload's CLI command in-process on its config with workload seeds
0..SEEDS-1 and writes ``bench/distortion_reference.json``: every
(v_p_eps, s_eps) row and, per estimate, the mean and standard deviation over
seeds.  Each cell draws from its own seed, so a row equals what a benchmark
run gets for that seed.  Run it on the commit whose estimator is the
reference; the check then holds later estimators to those values.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, format_config  # noqa: E402

from spectral_limits import cli  # noqa: E402

OUT = os.path.join(HERE, "distortion_reference.json")
SEEDS = 40


def main() -> int:
    wl = WORKLOADS["distortion-spindle"]
    settings = dict(wl.settings(0), seeds=list(range(SEEDS)))
    work = os.path.join(ROOT, ".bench_work", "record")
    os.makedirs(work, exist_ok=True)
    try:
        cfg = os.path.join(work, "config.txt")
        with open(cfg, "w") as fh:
            fh.write(format_config(settings))
        cli.main([wl.command, "--config", cfg, "--out", work])
        with open(os.path.join(work, "distortion.csv")) as fh:
            rows = [{k: float(row[k]) for k in
                     ("seed", "v_p_eps", "v_stderr", "s_eps", "s_stderr")}
                    for row in csv.DictReader(fh)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    summary = {
        key: {"mean": statistics.fmean(r[key] for r in rows),
              "sd": statistics.stdev(r[key] for r in rows)}
        for key in ("v_p_eps", "s_eps")
    }
    with open(OUT, "w") as fh:
        json.dump({"commit": commit, "workload": settings, "summary": summary,
                   "rows": rows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
