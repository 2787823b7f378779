"""Tests of the benchmark itself: its declared metrics, the span arithmetic
and the output checks.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import math
import os
import re
import tracemalloc

import pytest

from checks import (bad_row, check_distortion, check_regularity, check_sweep,
                    load_reference)
from run import CAL_REF_S, Rep, end_to_end_metrics
from spans import Tracer, cells, covered, layer_metrics, self_times
from workloads import REGULARITY_N, SWEEP_K_MAX, SWEEP_N, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metric names


def test_metric_name_grammar(spec):
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


def _span(sid, parent, name, start, end, **extra):
    return {"id": sid, "parent": parent, "name": name, "run": "r",
            "start": start, "end": end, **extra}


def _traced_sweep():
    """A root with a reference build and two cells of sample, graph, solve."""
    return [
        _span(0, None, "cli.main", 0.0, 20.0),
        _span(1, 0, "reference.reference_spectrum_for", 0.5, 1.0),
        _span(2, 0, "sampling.sample_dataset", 1.0, 2.0),
        _span(3, 0, "graph.gamma_N_eps", 2.0, 6.0, n=100, edges=400,
              alloc_peak=3 * 2**20),
        _span(4, 3, "graph.build_edges", 2.5, 4.0),
        _span(5, 0, "spectral.eigen_decompose", 6.0, 9.0, n=100, max_residual=1e-12),
        _span(6, 0, "sampling.sample_dataset", 10.0, 11.0),
        _span(7, 0, "graph.gamma_N_eps", 11.0, 13.0, n=100, edges=600,
              alloc_peak=5 * 2**20),
        _span(8, 7, "graph.build_edges", 11.0, 12.0),
        _span(9, 0, "spectral.eigen_decompose", 13.0, 19.0, n=100, max_residual=2e-12),
    ]


def test_layer_metric_names_match_spec(spec):
    produced = set(layer_metrics(_traced_sweep(), "sampling.sample_dataset"))
    produced.add("trace.overhead_frac")       # computed from untraced runs
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_end_to_end_times_are_scaled_by_the_calibration_kernel():
    """A run on a host at half speed reads the same as one at full speed."""
    slow = CAL_REF_S * 2
    reps = [Rep(4.0, 3.8, 100.0, host_s=slow),
            Rep(2.0, 1.9, 102.0, host_s=CAL_REF_S, failed={(1, 1)}),  # timed
            Rep(2.2, 2.0, 101.0, host_s=CAL_REF_S),
            Rep(1.0, 1.0, 99.0, host_s=CAL_REF_S, exit_code=1)]       # left out
    m = end_to_end_metrics(reps, [1.2, 1.6, 1.4], slow)
    assert m == pytest.approx({"wall_s": 2.0, "cpu_s": 1.9, "peak_rss_mb": 101.0,
                               "setup_s": 0.7})


# ---------------------------------------------------------------------------
# span arithmetic


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_times_of_nested_spans():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.child", 2.0, 3.0),
        _span(3, 0, "b", 5.0, 9.0),
        _span(4, 3, "b.child", 5.0, 6.0),
        _span(5, 3, "b.child", 5.5, 7.0),     # overlaps its sibling
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 3 - 4)
    assert selfs[1] == pytest.approx(3 - 1)
    assert selfs[2] == pytest.approx(1)
    assert selfs[3] == pytest.approx(4 - 2)
    # a layer's self time plus its children's cover is its duration
    assert selfs[3] + covered([(5.0, 6.0), (5.5, 7.0)], 5.0, 9.0) == pytest.approx(4)


def test_layer_metrics_of_synthetic_run():
    m = layer_metrics(_traced_sweep(), "sampling.sample_dataset")
    assert m["graph.build_s"] == pytest.approx(6.0)
    assert m["graph.edge_search_s"] == pytest.approx(2.5)
    assert m["graph.validate_s"] == pytest.approx(3.5)
    assert m["graph.edges"] == 1000
    assert m["graph.edges_per_s"] == pytest.approx(1000 / 6.0)
    assert m["graph.peak_alloc_mb"] == pytest.approx(5.0)
    assert m["spectral.eigsolve_s"] == pytest.approx(9.0)
    assert m["spectral.max_residual"] == 2e-12
    assert m["reference.build_s"] == pytest.approx(0.5)
    assert m["experiments.cells"] == 2
    assert sorted(cells(_traced_sweep(), 0, "sampling.sample_dataset")) == \
        pytest.approx([8.0, 9.0])
    assert m["experiments.cell_s.max"] == pytest.approx(9.0)
    # root 20 s, top-level spans cover 0.5..9 and 10..19
    assert m["experiments.self_s"] == pytest.approx(20 - 8.5 - 9)
    assert m["trace.coverage_frac"] == pytest.approx(17.5 / 20)
    assert m["regularity.certify_s"] == 0 and m["geometry.geodesic_pairs"] == 0


def test_tracer_records_allocation_peaks_only_in_alloc_mode():
    class Owner:
        @staticmethod
        def build(k):
            return [0] * k

    for alloc in (False, True):
        tracer = Tracer("r", alloc=alloc)
        tracer.wrap(Owner, "build", "graph.gamma_N_eps", alloc=True)
        try:
            assert len(Owner.build(100_000)) == 100_000
        finally:
            tracer.restore()
        (span,) = tracer.spans
        assert ("alloc_peak" in span) == alloc
        assert span.get("alloc_peak", 8e5) >= 8e5 and not tracemalloc.is_tracing()
        metrics = layer_metrics([_span(0, None, "cli.main", 0.0, 1.0),
                                 dict(span, id=1, parent=0, edges=0)],
                                "sampling.sample_dataset")
        assert (metrics["graph.peak_alloc_mb"] > 0) == alloc


def test_layer_metrics_need_one_cli_root():
    with pytest.raises(ValueError):
        layer_metrics(_traced_sweep()[1:], "sampling.sample_dataset")


# ---------------------------------------------------------------------------
# output checks


def _write_csv(path, rows):
    header = list(rows[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(r[h]) for h in header) + "\n")


def _sweep_rows():
    return [dict(k=k, n=n, median_abs_err=0.05 * k * (2000 / n) ** 0.5,
                 slope=-0.5) for k in range(1, SWEEP_K_MAX + 1) for n in SWEEP_N]


def _regularity_rows(seed):
    rows = []
    for n in REGULARITY_N:
        rows.append(dict(n=n, seed=seed, eps=0.2, Q=6.5, P=1.2, sigma=1, R=2.2,
                         moser_k1_p2=1.1, moser_k1_p4=1.3, moser_k1_p8=1.5,
                         moser_k1_pinf=1.9))
    return rows


REF = {"summary": {"v_p_eps": {"mean": 0.25, "sd": 0.05},
                   "s_eps": {"mean": 0.02, "sd": 0.003}},
       "rows": [dict(seed=0.0, v_p_eps=0.26, v_stderr=0.04,
                     s_eps=0.022, s_stderr=0.005)]}


def _distortion_rows(seed, **values):
    row = dict(n=2000, seed=seed, eps=0.248, v_p_eps=0.27, v_stderr=0.03,
               s_eps=0.019, s_stderr=0.004)
    row.update(values)
    return [row]


def test_bad_row():
    assert bad_row({"a": "1", "b": "2.5"}) is None
    assert "finite" in bad_row({"a": "nan"})
    assert "finite" in bad_row({"a": "inf"})
    assert "number" in bad_row({"a": ""})
    assert bad_row({"n": "2000", "connected": "0"}) == "connected=0"
    assert bad_row({"n": "2000", "connected": "1"}) is None


def test_sweep_check(tmp_path):
    cells_ = WORKLOADS["sweep-circle"].cells(1)
    path = tmp_path / "sweep_summary.csv"
    _write_csv(path, _sweep_rows())
    assert check_sweep(tmp_path, cells_) == (set(), [])
    rows = _sweep_rows()
    for r in rows[:len(SWEEP_N)]:           # k = 1 at its noise floor
        r["slope"] = -0.088
    _write_csv(path, rows)
    assert check_sweep(tmp_path, cells_) == (set(), [])

    for corrupt in (
        lambda rows: rows[0].update(median_abs_err="nan"),      # NaN row
        lambda rows: rows.pop(),                                # missing (k, n)
        lambda rows: [r.update(slope=0.1) for r in rows],       # A3
        lambda rows: [r.update(slope=-0.05) for r in rows[3:]], # A3, k >= 2
        lambda rows: rows[2].update(median_abs_err=0.3),        # A1, k=1
        lambda rows: rows[8].update(median_abs_err=0.9),        # A1, k=3
        lambda rows: [r.update(connected=0) for r in rows],     # disconnected
    ):
        rows = _sweep_rows()
        corrupt(rows)
        _write_csv(path, rows)
        failed, problems = check_sweep(tmp_path, cells_)
        assert failed == set(cells_) and problems


def test_regularity_check(tmp_path):
    cells_ = WORKLOADS["regularity-sphere"].cells(3)
    path = tmp_path / "regularity.csv"
    _write_csv(path, _regularity_rows(3))
    assert check_regularity(tmp_path, cells_) == (set(), [])

    rows = _regularity_rows(3)
    rows[1]["P"] = "nan"
    _write_csv(path, rows)
    failed, _ = check_regularity(tmp_path, cells_)
    assert failed == {(REGULARITY_N[1], 3)}

    rows = _regularity_rows(3)
    rows[0]["Q"] = 0.9
    _write_csv(path, rows)
    assert check_regularity(tmp_path, cells_)[0] == {(REGULARITY_N[0], 3)}

    for col, value in (("Q", 30.0), ("moser_k1_p4", 3.0)):  # spread across n
        rows = _regularity_rows(3)
        rows[1][col] = value
        _write_csv(path, rows)
        assert check_regularity(tmp_path, cells_)[0] == set(cells_)

    _write_csv(path, _regularity_rows(3)[:1])
    assert check_regularity(tmp_path, cells_)[0] == {(REGULARITY_N[1], 3)}


def _distortion_failed(tmp_path, seed, reference, **values):
    _write_csv(tmp_path / "distortion.csv", _distortion_rows(seed, **values))
    failed, problems = check_distortion(
        tmp_path, WORKLOADS["distortion-spindle"].cells(seed), reference)
    assert bool(failed) == bool(problems)
    return bool(failed)


def test_distortion_check_of_a_recorded_seed(tmp_path):
    """A recorded seed must reproduce its row within the recorded stderr."""
    assert not _distortion_failed(tmp_path, 0, REF, v_p_eps=0.26 - 0.039,
                                  s_eps=0.022 + 0.0049)
    for col, value in (("v_p_eps", "nan"), ("s_stderr", 0.0),
                       ("v_p_eps", 0.26 + 0.041), ("s_eps", 0.022 - 0.0051),
                       ("v_p_eps", 0.5 * 0.25), ("v_p_eps", 2 * 0.25),
                       ("s_eps", 0.5 * 0.02), ("s_eps", 2 * 0.02)):
        assert _distortion_failed(tmp_path, 0, REF, **{col: value}), (col, value)


def test_distortion_check_of_an_unrecorded_seed(tmp_path):
    """Without a recorded row only the band around the recorded mean holds."""
    assert not _distortion_failed(tmp_path, 4, REF)
    for col, value in (("v_p_eps", "nan"), ("s_stderr", 0.0),
                       ("v_p_eps", 0.25 + 4.1 * math.hypot(0.03, 0.05)),
                       ("s_eps", 0.05)):
        assert _distortion_failed(tmp_path, 4, REF, **{col: value}), (col, value)


def test_recorded_reference_rejects_halved_or_doubled_estimates(tmp_path):
    """On the check seed, the recorded reference fails an estimate at half or
    twice the recorded mean or value, and passes the recorded row itself."""
    reference = load_reference()
    wl = WORKLOADS["distortion-spindle"]
    assert reference["workload"] == dict(wl.settings(0),
                                         seeds=reference["workload"]["seeds"])
    row = next(r for r in reference["rows"] if r["seed"] == wl.check_seed)
    recorded = {k: row[k] for k in ("v_p_eps", "v_stderr", "s_eps", "s_stderr")}
    assert not _distortion_failed(tmp_path, wl.check_seed, reference, **recorded)
    for est in ("v_p_eps", "s_eps"):
        for target in (reference["summary"][est]["mean"], row[est]):
            for factor in (0.5, 2.0):
                assert _distortion_failed(
                    tmp_path, wl.check_seed, reference,
                    **dict(recorded, **{est: factor * target})), (est, target, factor)


def test_recorded_seeds_pass_the_distortion_check(tmp_path):
    """Every run recorded for the reference passes the check made from it."""
    reference = load_reference()
    for row in reference["rows"]:
        assert not _distortion_failed(tmp_path, int(row["seed"]), reference, **{
            k: row[k] for k in ("v_p_eps", "v_stderr", "s_eps", "s_stderr")})
