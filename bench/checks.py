"""Output checks, one per workload.

Each check reads the CSV the CLI wrote and returns the (n, seed) cells that
failed, with the reasons.  A table-wide check, such as a slope or a spread
across n, fails every cell of the run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics

from workloads import SWEEP_K_MAX, SWEEP_N

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "distortion_reference.json")


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def bad_row(row) -> str | None:
    """Why a CSV row is unusable: a non-numeric or non-finite value, or a
    disconnected graph; None when the row is usable."""
    for key, text in row.items():
        try:
            value = float(text)
        except (TypeError, ValueError):
            return f"{key}={text!r} is not a number"
        if not math.isfinite(value):
            return f"{key}={text} is not finite"
    if row.get("connected") == "0":
        return "connected=0"
    return None


def _per_cell_rows(path, cells):
    """Rows keyed by (n, seed); cells with a bad or missing row are failed."""
    failed, problems, rows = set(), [], {}
    for row in read_rows(path):
        key = (int(float(row["n"])), int(float(row["seed"])))
        why = bad_row(row)
        if why:
            failed.add(key)
            problems.append(f"cell {key}: {why}")
        else:
            rows[key] = row
    for key in cells:
        if key not in rows and key not in failed:
            failed.add(key)
            problems.append(f"cell {key}: no row")
    return rows, failed, problems


def check_sweep(out_dir, cells):
    """A1 bands at the largest n, and the A3 trend, on sweep_summary.csv.

    A3 bounds the median over k of the per-k log-log error slopes, not the
    k = 1 slope alone as the acceptance test does over n = 500..4000: here,
    with three seeds and n >= 2000, the k = 1 error is at its noise floor and
    its slope is noise (see README).
    """
    problems, rows = [], {}
    for row in read_rows(os.path.join(out_dir, "sweep_summary.csv")):
        why = bad_row(row)
        if why:
            problems.append(f"row k={row.get('k')} n={row.get('n')}: {why}")
        else:
            rows[(int(row["k"]), int(row["n"]))] = row
    missing = [(k, n) for k in range(1, SWEEP_K_MAX + 1) for n in SWEEP_N
               if (k, n) not in rows]
    if missing:
        problems.append(f"missing (k, n) rows {missing}")
    else:
        top = max(SWEEP_N)
        err1 = float(rows[(1, top)]["median_abs_err"])
        err3 = float(rows[(3, top)]["median_abs_err"])
        slope = statistics.median(float(rows[(k, top)]["slope"])
                                  for k in range(1, SWEEP_K_MAX + 1))
        if err1 > 0.20:
            problems.append(f"A1: k=1 median error {err1} > 0.20 at n={top}")
        if err3 > 0.8:
            problems.append(f"A1: k=3 median error {err3} > 0.8 at n={top}")
        if slope > -0.1:
            problems.append(f"A3: median slope over k {slope} > -0.1")
    return (set(cells) if problems else set()), problems


def check_regularity(out_dir, cells):
    """A8/A9-style: Q, P, R finite, Q >= 1; spreads across n of Q, P, R at
    most 4 and of each Moser p=4 ratio at most 2."""
    rows, failed, problems = _per_cell_rows(
        os.path.join(out_dir, "regularity.csv"), cells)
    for key, row in rows.items():
        if float(row["Q"]) < 1.0:
            failed.add(key)
            problems.append(f"cell {key}: Q={row['Q']} < 1")
    good = [row for key, row in rows.items() if key not in failed]
    if good:
        limits = {col: 4.0 for col in ("Q", "P", "R")}
        limits.update({col: 2.0 for col in good[0] if col.endswith("_p4")})
        for col, limit in limits.items():
            values = [float(r[col]) for r in good]
            spread = max(values) / min(values)
            if spread > limit:
                problems.append(f"{col} spread across n {spread} > {limit}")
                failed = set(cells)
    return failed, problems


def load_reference(path=REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_distortion(out_dir, cells, reference=None):
    """Finite estimates with positive stderr, held to the recorded reference.

    Both estimators draw from a generator seeded with the cell's seed, so a
    cell whose seed has a recorded row must reproduce it: each estimate
    within the recorded standard error of the recorded value.  That lets a
    changed geodesic solver flip a few ball-membership tests but not shift an
    estimate.  The workload's check seed, run in every benchmark run, has a
    row.  A seed without one only gets a sanity band: within 4 standard
    errors of the mean over the recorded seeds, where the standard error
    combines the run's own with the recorded spread over seeds.
    """
    reference = reference or load_reference()
    recorded = {int(r["seed"]): r for r in reference["rows"]}
    rows, failed, problems = _per_cell_rows(
        os.path.join(out_dir, "distortion.csv"), cells)
    for key, row in rows.items():
        ref_row = recorded.get(key[1])
        for est, err in (("v_p_eps", "v_stderr"), ("s_eps", "s_stderr")):
            value, stderr = float(row[est]), float(row[err])
            if stderr <= 0:
                why = f"{err}={stderr} is not positive"
            elif ref_row is not None:
                if abs(value - ref_row[est]) <= ref_row[err]:
                    continue
                why = (f"{est}={value} is more than the recorded standard "
                       f"error {ref_row[err]} from the recorded {ref_row[est]}")
            else:
                ref = reference["summary"][est]
                if abs(value - ref["mean"]) <= 4.0 * math.hypot(stderr, ref["sd"]):
                    continue
                why = (f"{est}={value} is more than 4 standard errors from "
                       f"the recorded mean {ref['mean']}")
            failed.add(key)
            problems.append(f"cell {key}: {why}")
    return failed, problems


CHECKS = {
    "sweep-circle": check_sweep,
    "regularity-sphere": check_regularity,
    "distortion-spindle": check_distortion,
}


def check_outputs(workload: str, out_dir, cells):
    """Run the workload's check; a missing or unreadable CSV fails every cell."""
    try:
        return CHECKS[workload](out_dir, cells)
    except (OSError, KeyError, ValueError) as exc:
        return set(cells), [f"output unreadable: {exc!r}"]
