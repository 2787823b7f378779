import json
import math
import os
import subprocess
import sys
import tomllib
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from test_cli_golden import SRC
from spectral_limits import experiments, graph
from spectral_limits.cli import main as cli_main
from spectral_limits.config import CONFIG_KEYS, ExperimentConfig, \
    _bound_text, load_config, make_manifold, write_run_meta
from spectral_limits.experiments import (
    _loglog_slope,
    align_eigenspaces,
    map_cells,
    run_alignment,
    run_convergence_sweep,
    run_energy,
    run_moser,
    run_regularity,
    run_spectrum_experiment,
)
from spectral_limits.graph import gamma_N_eps
from spectral_limits.reference import ReferenceSpectrum, circle_spectrum, \
    sphere_spectrum
from spectral_limits.sampling import DensitySpec, epsilon_schedule, sample_dataset
from spectral_limits.spectral import eigen_decompose


CIRCLE_CFG = """
manifold = "circle"
radius = 1.0
density = "uniform"
n = [64, 128]
seeds = [1, 2, 3]
eps = "schedule"
graph = "gamma_N"
k_max = 2
cluster = [1, 2]
"""


class TestConfig:
    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CIRCLE_CFG)
        cfg = load_config(path)
        assert cfg.manifold == "circle"
        assert cfg.n_list == [64, 128]
        assert cfg.seeds == [1, 2, 3]
        assert cfg.graph_kind == "gamma_N"

    def test_utf8_config_under_an_ascii_locale(self, tmp_path):
        # TOML is UTF-8: a config with a non-ASCII comment loads, and hashes
        # the same, in a child python whose locale encoding is ASCII
        path = tmp_path / "cfg.txt"
        path.write_bytes(("# \u03b5 = schedule" + CIRCLE_CFG).encode("utf-8"))
        write_run_meta(load_config(path), tmp_path, [])
        child = tmp_path / "child"
        child.mkdir()
        env = dict(os.environ, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   LC_ALL="C", LANG="C")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        script = ("import sys\n"
                  "from spectral_limits.config import load_config, "
                  "write_run_meta\n"
                  "write_run_meta(load_config(sys.argv[1]), sys.argv[2], [])\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script,
                               str(path), str(child)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        meta = [json.loads((d / "run_meta.json").read_text())
                for d in (tmp_path, child)]
        assert meta[1]["config_hash"] == meta[0]["config_hash"]

    def test_scalar_for_a_list_key_is_one_item(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text('n = 64\nseeds = 2\nreports = "spectrum"\n')
        cfg = load_config(path)
        assert (cfg.n_list, cfg.seeds, cfg.reports) == ([64], [2], ["spectrum"])

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            load_config(path)

    def test_repeated_key_fails_at_load(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CIRCLE_CFG + "k_max = 1\n")
        with pytest.raises(tomllib.TOMLDecodeError):
            load_config(path)

    def test_docs_key_table_matches_the_schema(self):
        docs = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                            "formats.md")
        with open(docs) as fh:
            section = fh.read().split("## Config files")[1].split("\n## ")[0]
        rows = [[cell.strip().strip("`") for cell in line.split("|")[1:5]]
                for line in section.splitlines() if line.startswith("| `")]
        assert [row[0] for row in rows] == [key for key, *_ in CONFIG_KEYS]
        defaults = ExperimentConfig()
        for (key, field, kind, bound), row in zip(CONFIG_KEYS, rows):
            default = getattr(defaults, field)
            if isinstance(default, tuple):
                default = list(default)
            _, doc_type, doc_default, doc_bound = row
            assert (doc_type, doc_bound) == (kind, _bound_text(bound)), key
            assert tomllib.loads(f"v = {doc_default}")["v"] == default, key

    def test_n_floor(self):
        with pytest.raises(ValueError, match="n values"):
            ExperimentConfig(n_list=[8], seeds=[1])

    def test_seeds_nonempty(self):
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig(n_list=[64], seeds=[])

    @pytest.mark.parametrize("line,key", [
        ('eps = "abc"', "eps"), ("eps = 0", "eps"), ("eps = -0.1", "eps"),
        ("threads = 0", "threads"), ("threads = 1.5", "threads"),
        ("n = [20.5]", "n"), ("seeds = [1.5]", "seeds"),
        ("n = []", "n"), ("seeds = []", "seeds"),
        ("k_max = 2.5", "k_max"), ("k_max = -1", "k_max"),
        ("cluster = [1]", "cluster"), ("cluster = [1, 2, 3]", "cluster"),
        ("cluster = [1, 2.5]", "cluster"), ("cluster = [2, 1]", "cluster"),
        ("cluster = [-1, 1]", "cluster"),
        ("mc_outer = 0", "mc_outer"), ("mc_outer = 1", "mc_outer"),
        ("mc_inner = 0", "mc_inner"),
        ("mc_inner = 2.5", "mc_inner"),
        ("m = 1.5", "m"), ("m = 0", "m"),
        ("k_max = 64", "k_max"),
        ('manifold = "bogus"', "manifold"), ('density = "bogus"', "density"),
        ('graph = "bogus"', "graph"), ('reports = ["bogus"]', "reports"),
        ("radius = -1", "radius"), ("radius = inf", "radius"),
        ("warp = 2", "warp"), ("p = 0.5", "p"), ("K = -1", "K"),
        ("mesh = 0", "mesh"), ("l_max = -1", "l_max"),
        ("amplitude = 0.9", "amplitude"), ("periods = [-1.0, 1.0]", "periods"),
        ("seeds = [-1]", "seeds"), ("eps = true", "eps"),
        ("threads = true", "threads"), ("k_max = true", "k_max"),
        ("n = [16]\ncluster = [15, 16]", "cluster"),
        ('manifold = "spindle"\nm = 1', "m"),
        ('manifold = "sphere"\ndensity = "cosine_tilt"', "density"),
        ("mesh = 514", "mesh"),
    ])
    def test_bad_value_fails_at_load(self, tmp_path, line, key):
        # CIRCLE_CFG's line for each key the case sets is dropped, since a
        # repeated key is a TOML error before any value is checked
        keys = {case.split("=")[0].strip() for case in line.splitlines()}
        kept = [base for base in CIRCLE_CFG.splitlines()
                if base.split("=")[0].strip() not in keys]
        path = tmp_path / "cfg.txt"
        path.write_text("\n".join(kept + [line]) + "\n")
        with pytest.raises(ValueError, match=f"^{key} must be"):
            load_config(path)

    def test_k_not_below_n_raises(self):
        # a bad config is an error at load, before any cell runs
        with pytest.raises(ValueError, match="^k_max must be below the "
                                             "smallest n, 16, got 16$"):
            ExperimentConfig(manifold="circle", n_list=[40, 16], seeds=[1],
                             eps_rule=0.9, k_max=16)
        cfg = ExperimentConfig(manifold="circle", n_list=[16], seeds=[1],
                               eps_rule=0.9, k_max=15)
        assert len(run_spectrum_experiment(cfg)) == 16

    def test_bad_cli_override_fails(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CIRCLE_CFG)
        with pytest.raises(ValueError, match="^threads must be"):
            cli_main(["sample", "--config", str(path), "--threads", "0",
                      "--out", str(tmp_path / "o")])


class TestSpectrumExperiment:
    def test_k0_error_zero(self):
        cfg = ExperimentConfig(manifold="circle", m=1, n_list=[128],
                               seeds=[1], k_max=2)
        rows = run_spectrum_experiment(cfg)
        k0 = [r for r in rows if r["k"] == 0]
        assert all(r["abs_err"] < 1e-7 for r in k0)

    def test_sphere_reference_column(self):
        cfg = ExperimentConfig(manifold="sphere", m=2, n_list=[300],
                               seeds=[2], k_max=3)
        rows = run_spectrum_experiment(cfg)
        assert [r["lam_ref"] for r in rows] == [0.0, 2.0, 2.0, 2.0]
        # the continuum estimator is (m + 2) * lambda_k(Gamma)
        assert all(r["estimate"] == 4.0 * r["lam_graph"] for r in rows)

    def test_reference_does_not_depend_on_the_cluster(self, tmp_path):
        # the weighted circle's reference is numerical, so its low
        # eigenvalues move in the last digits with the number solved for;
        # the spectrum report solves for k_max + 1 of them, whatever
        # cluster ``align`` would use
        base = ('manifold = "circle"\ndensity = "cosine_tilt"\n'
                'amplitude = 0.2\nn = [200]\nseeds = [1]\nk_max = 2\n')
        written = []
        for extra in ("", "cluster = [1, 2]\n", "cluster = [5, 6]\n"):
            cfg, out = tmp_path / f"cfg{len(written)}.txt", tmp_path / "out"
            cfg.write_text(base + extra)
            assert cli_main(["spectrum", "--config", str(cfg),
                             "--out", str(out)]) == 0
            written.append((out / "spectrum.csv").read_bytes())
        assert written[1] == written[0]
        assert written[2] == written[0]

    def test_disconnected_rows_flagged(self):
        cfg = ExperimentConfig(manifold="circle", n_list=[64], seeds=[1],
                               eps_rule=0.01, k_max=1)
        rows = run_spectrum_experiment(cfg)
        assert all(r["connected"] == 0 for r in rows)
        assert all(math.isnan(r["abs_err"]) for r in rows)

    @pytest.mark.parametrize("run", [run_spectrum_experiment, run_alignment,
                                     run_regularity, run_moser])
    def test_disconnected_rows_match_a_connected_cell(self, run):
        # eps = 0.01 splits n = 64 on the circle; the schedule's eps does not
        cfg = ExperimentConfig(manifold="circle", n_list=[64], seeds=[1],
                               k_max=2)
        good = run(cfg)
        bad = run(replace(cfg, eps_rule=0.01))
        assert len(bad) == len(good) > 0
        measured = {"lam_graph", "estimate", "abs_err", "rel_err",
                    "proj_residual", "rel_residual", "norm_defect",
                    "aligned_residual", "thm12_residual", "Q", "P", "R",
                    "ratio", "bound_shape"}
        for b, g in zip(bad, good):
            assert list(b) == list(g)
            assert (b["connected"], g["connected"]) == (0, 1)
            for key, value in b.items():
                if key in measured or key.startswith("moser_"):
                    assert math.isnan(value) and not math.isnan(g[key])
                elif key not in ("connected", "eps"):
                    assert value == g[key]


class TestAlignment:
    def _setup(self, n=400, seed=3):
        circle = make_manifold(ExperimentConfig(manifold="circle"))
        cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed)
        eps = epsilon_schedule(n, 1)
        g = gamma_N_eps(cloud, eps)
        spec = eigen_decompose(g, 4)
        ref = circle_spectrum(1.0, 5)
        return g, spec, ref, cloud

    def test_constant_cluster_zero_residual(self):
        g, spec, ref, cloud = self._setup()
        rep = align_eigenspaces(g, spec, ref, cloud, (0, 0))
        assert rep.projection_residuals[0] == pytest.approx(0.0, abs=1e-9)

    def test_first_pair_cluster(self):
        g, spec, ref, cloud = self._setup()
        rep = align_eigenspaces(g, spec, ref, cloud, (1, 2))
        assert np.max(rep.relative_residuals) < 0.5
        assert np.all(rep.projection_residuals >= 0)
        assert rep.gamma == pytest.approx(0.5 * min(1.0, 3.0))
        assert rep.span_width == pytest.approx(0.0)
        assert rep.rotation.shape == (2, 2)
        assert np.allclose(rep.rotation @ rep.rotation.T, np.eye(2),
                           atol=1e-12)

    def test_bad_cluster_boundary_raises(self):
        g, spec, ref, cloud = self._setup()
        with pytest.raises(ValueError, match="multiplicity"):
            align_eigenspaces(g, spec, ref, cloud, (1, 1))

    def test_procrustes_identity_on_self(self):
        g, spec, ref, cloud = self._setup()
        lam = np.array([0.0, 1.0, 1.0, 4.0])
        funcs = []
        for j in range(1, 3):
            col = spec.eigenvectors[:, j].copy()
            funcs.append(lambda zi, ze, _c=col: _c)
        fake = ReferenceSpectrum(
            eigenvalues=lam,
            eigenfunctions=[None] + funcs + [None],
            weight="rho2_vol",
            manifold=g and None,
        )
        rep = align_eigenspaces(g, spec, fake, cloud, (1, 2))
        assert np.allclose(rep.rotation, np.eye(2), atol=1e-9)
        assert np.max(rep.aligned_residuals) < 1e-9
        assert np.max(rep.norm_defects) < 1e-9

    def test_residual_invariance_under_cluster_rotation(self):
        g, spec, ref, cloud = self._setup()
        rep1 = align_eigenspaces(g, spec, ref, cloud, (1, 2))
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        spec.eigenvectors[:, 1:3] = spec.eigenvectors[:, 1:3] @ q
        rep2 = align_eigenspaces(g, spec, ref, cloud, (1, 2))
        assert np.allclose(rep1.projection_residuals,
                           rep2.projection_residuals, atol=1e-8)
        total1 = np.sum(rep1.aligned_residuals**2)
        total2 = np.sum(rep2.aligned_residuals**2)
        assert total1 == pytest.approx(total2, abs=1e-8)

    def test_run_alignment_rows(self):
        cfg = ExperimentConfig(manifold="circle", n_list=[256], seeds=[1],
                               k_max=2, cluster=[1, 2])
        rows = run_alignment(cfg)
        assert len(rows) == 2
        assert all(r["rel_residual"] >= 0 for r in rows)
        assert all(r["thm12_residual"] >= 0 for r in rows)

    def test_default_cluster_is_the_first_nonconstant_one(self):
        cfg = ExperimentConfig(manifold="circle", n_list=[256], seeds=[1],
                               k_max=2)
        assert [r["k"] for r in run_alignment(cfg)] == [1, 2]

    def test_default_cluster_reference_may_outgrow_the_smallest_n(self):
        # on S^7 the reference grows to k_max = 18 before it holds three
        # clusters; that is no config error at n = 16
        cfg = ExperimentConfig(manifold="sphere", m=7, n_list=[16],
                               seeds=[1])
        assert [r["k"] for r in run_alignment(cfg)] == list(range(1, 9))

    def test_explicit_cluster_is_still_validated(self):
        cfg = ExperimentConfig(manifold="sphere", n_list=[300], seeds=[1],
                               cluster=[1, 1])
        with pytest.raises(ValueError, match="multiplicity"):
            run_alignment(cfg)

    def test_bad_cluster_fails_with_every_cell_disconnected(self):
        # the cluster is checked against the reference, before any cell
        cfg = ExperimentConfig(manifold="sphere", n_list=[64, 700], seeds=[1],
                               cluster=[1, 1], eps_rule=0.05)
        with pytest.raises(ValueError, match="multiplicity"):
            run_alignment(cfg)

    @pytest.mark.parametrize("fields, reason", [
        # S^3 ships no evaluator above l = 1, the spindle none above l = 0
        (dict(manifold="sphere", m=3, cluster=[5, 13]), "no evaluator"),
        (dict(manifold="spindle", m=2, cluster=[2, 3]), "no evaluator"),
        # a tilted density cannot be renormalized to gamma_m's weight
        (dict(manifold="circle", m=1, density="cosine_tilt", amplitude=0.2,
              graph_kind="gamma_m", cluster=[1, 2]), "renormalize"),
    ])
    def test_cluster_without_eigenfunctions_fails_before_any_cell(
            self, monkeypatch, fields, reason):
        sampled = []
        monkeypatch.setattr(experiments, "sample_dataset",
                            lambda *args: sampled.append(args))
        cfg = ExperimentConfig(n_list=[300], seeds=[1], **fields)
        k, l = fields["cluster"]
        with pytest.raises(ValueError, match=rf"cluster \[{k},{l}\] .* the "
                           rf"{fields['manifold']} with m = {fields['m']}: "
                           rf".*{reason}"):
            run_alignment(cfg)
        assert sampled == []

    def test_sphere_align_without_cluster(self, tmp_path):
        path = tmp_path / "sphere.toml"
        path.write_text('manifold = "sphere"\nn = [700]\nseeds = [1]\n')
        out = str(tmp_path / "a")
        assert cli_main(["align", "--config", str(path), "--out", out]) == 0
        lines = Path(out, "alignment.csv").read_text().splitlines()
        k_col = lines[0].split(",").index("k")
        assert [row.split(",")[k_col] for row in lines[1:]] == ["1", "2", "3"]


class TestCells:
    def test_serial_cells_are_freed_before_the_next(self):
        cfg = ExperimentConfig(manifold="circle", n_list=[64, 128],
                               seeds=[1, 2])
        last = []

        def fn(cell):
            alive = bool(last) and last[-1]() is not None
            last.append(weakref.ref(cell.graph))
            return cell.n, cell.seed, alive

        assert map_cells(cfg, fn) == [(64, 1, False), (64, 2, False),
                                      (128, 1, False), (128, 2, False)]

    def test_threads_keep_the_cell_order(self):
        cfg = ExperimentConfig(manifold="circle", n_list=[64, 128],
                               seeds=[1, 2, 3], threads=2)
        assert map_cells(cfg, lambda cell: (cell.n, cell.seed)) == [
            (n, s) for n in (64, 128) for s in (1, 2, 3)]

    def test_energy_searches_edges_once_per_cell(self, monkeypatch):
        searches = []

        def counted(cloud, eps):
            searches.append(cloud.n)
            return build_edges(cloud, eps)

        build_edges = graph.build_edges
        monkeypatch.setattr(graph, "build_edges", counted)
        cfg = ExperimentConfig(manifold="circle", n_list=[64, 128],
                               seeds=[1, 2])
        assert len(run_energy(cfg)) == 4
        assert searches == [64, 64, 128, 128]


    def test_each_report_solves_once_per_cell(self, monkeypatch):
        solve = experiments.eigen_decompose
        calls = []

        def counted(g, k):
            calls.append((g.n_vertices, k))
            return solve(g, k)

        monkeypatch.setattr(experiments, "eigen_decompose", counted)
        # eps = 0.3 splits only the (64, 1) cell; align solves up to l = 2
        cfg = ExperimentConfig(manifold="circle", n_list=[64, 256],
                               seeds=[1, 2], k_max=1, cluster=[1, 2],
                               eps_rule=0.3)
        assert map_cells(cfg, lambda cell: cell.spectrum(1) is None) == [
            True, False, False, False]
        for run, k in ((run_spectrum_experiment, 1), (run_alignment, 2),
                       (run_regularity, 1), (run_moser, 1)):
            calls.clear()
            run(cfg)
            assert calls == [(n, k) for n in (64, 64, 256, 256)], run.__name__


class TestSweep:
    def test_distinct_errors_slope(self):
        assert _loglog_slope([100, 200, 400], [0.4, 0.2, 0.1]) == pytest.approx(-1.0)

    def test_constant_errors_slope_zero(self):
        assert _loglog_slope([100, 200, 400], [0.3, 0.3, 0.3]) == pytest.approx(0.0)

    def test_sweep_summary(self, tmp_path):
        cfg = ExperimentConfig(manifold="circle", n_list=[64, 128, 256],
                               seeds=[1, 2, 3], k_max=1)
        svg = tmp_path / "sweep.svg"
        rows = run_convergence_sweep(cfg, svg_path=svg)
        assert all(math.isfinite(r["slope"]) for r in rows)
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_no_connected_cell_gives_no_rows_and_no_svg(self, tmp_path):
        cfg = ExperimentConfig(manifold="circle", n_list=[16, 20, 24],
                               seeds=[1, 2, 3], eps_rule=0.001, k_max=2)
        svg = tmp_path / "sweep.svg"
        assert run_convergence_sweep(cfg, svg_path=svg) == []
        assert not svg.exists()

    def test_needs_three_points(self):
        cfg = ExperimentConfig(manifold="circle", n_list=[64, 128],
                               seeds=[1, 2, 3], k_max=1)
        with pytest.raises(ValueError):
            run_convergence_sweep(cfg)


@pytest.mark.parametrize("run, name", [(run_convergence_sweep, "sweep"),
                                       (run_moser, "moser")])
def test_k_max_zero_fails_before_any_cell(monkeypatch, run, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was sampled")

    monkeypatch.setattr(experiments, "sample_dataset", refuse)
    cfg = ExperimentConfig(manifold="circle", n_list=[64, 128, 256],
                           seeds=[1, 2, 3], k_max=0)
    with pytest.raises(ValueError, match=f"{name} needs k_max >= 1"):
        run(cfg)


class TestCli:
    def _write_cfg(self, tmp_path, extra=""):
        path = tmp_path / "cfg.txt"
        path.write_text(CIRCLE_CFG + extra)
        return str(path)

    def test_spectrum_determinism(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert cli_main(["spectrum", "--config", cfg, "--out", out1]) == 0
        assert cli_main(["spectrum", "--config", cfg, "--out", out2]) == 0
        a = Path(out1, "spectrum.csv").read_text()
        b = Path(out2, "spectrum.csv").read_text()
        assert a == b
        meta = json.loads(Path(out1, "run_meta.json").read_text())
        assert meta["tool"] == "spectral-limits"
        assert len(meta["config_hash"]) == 64

    def test_sample_and_graph_outputs(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        assert cli_main(["sample", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "points_n64_seed1.csv"))
        first = Path(out, "points_n64_seed1.csv").read_text().splitlines()[0]
        assert first.startswith("# manifold=circle n=64 seed=1")
        assert cli_main(["graph", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "edges_n64_seed1.csv"))
        assert os.path.exists(os.path.join(out, "vertices_n64_seed1.csv"))

    def test_empty_reports_no_outputs(self, tmp_path):
        cfg = self._write_cfg(tmp_path, "reports = []\n")
        out = str(tmp_path / "empty")
        assert cli_main(["regularity", "--config", cfg, "--out", out]) == 0
        files = set(os.listdir(out))
        assert files == {"run_meta.json"}

    def test_seed_override(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "s")
        assert cli_main(["spectrum", "--config", cfg, "--out", out,
                         "--seed", "42"]) == 0
        lines = Path(out, "spectrum.csv").read_text().splitlines()
        seed_col = lines[0].split(",").index("seed")
        seeds = {row.split(",")[seed_col] for row in lines[1:]}
        assert seeds == {"42"}

    def test_align_and_moser_and_energy(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "m")
        assert cli_main(["align", "--config", cfg, "--out", out]) == 0
        assert cli_main(["moser", "--config", cfg, "--out", out]) == 0
        assert cli_main(["energy", "--config", cfg, "--out", out]) == 0
        for name in ("alignment", "moser", "energy"):
            assert os.path.exists(os.path.join(out, f"{name}.csv"))

    def test_distortion_cli(self, tmp_path):
        cfg = self._write_cfg(tmp_path, "mc_outer = 2000\nmc_inner = 500\n")
        out = str(tmp_path / "d")
        assert cli_main(["distortion", "--config", cfg, "--out", out]) == 0
        lines = Path(out, "distortion.csv").read_text().splitlines()
        assert lines[0].startswith("n,seed,eps,v_p_eps")
        assert len(lines) == 1 + 2 * 3

    def test_threads_give_identical_rows(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
        assert cli_main(["spectrum", "--config", cfg, "--out", out1,
                         "--threads", "1"]) == 0
        assert cli_main(["spectrum", "--config", cfg, "--out", out2,
                         "--threads", "3"]) == 0
        a = Path(out1, "spectrum.csv").read_text()
        b = Path(out2, "spectrum.csv").read_text()
        assert a == b
