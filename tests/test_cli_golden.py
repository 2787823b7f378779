"""Golden gate for the CLI output contract.

Every command runs through ``cli.main`` on a tiny config (n <= 512, so the
dense eigensolver is used), once at ``--threads 1`` and once at
``--threads 2``, and the sha256 of every file it writes, ``run_meta.json``
included, must equal the recorded value at both thread counts.  All runs
happen in one child ``python`` with BLAS and OpenMP pinned to one thread,
as the benchmark runs the CLI: the dense ``eigh`` rounds differently with
more BLAS threads, so an unpinned run would tie the hashes to the host's
core count.  ``run_meta.json`` lists file names relative to ``--out``, so
its hash does not depend on the output directory.

The hashes pin this platform's floating-point output.  To re-record them
after an intended output change, run ``python tests/test_cli_golden.py`` and
paste the printed table over ``GOLDEN``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# the same pin as PINNED_THREADS in bench/run.py
PINNED_THREADS = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
THREADS = (1, 2)

CIRCLE = """
manifold = "circle"
n = [64, 128, 256]
seeds = [1, 2, 3]
k_max = 2
cluster = [1, 2]
"""

SPHERE = """
manifold = "sphere"
m = 2
n = [300]
seeds = [4]
k_max = 3
"""

SPINDLE = """
manifold = "spindle"
m = 2
n = [200, 400]
seeds = [1, 2]
mc_outer = 10
mc_inner = 200
"""

CONFIGS = {
    "sample": CIRCLE,
    "graph": CIRCLE,
    "spectrum": SPHERE,
    "align": CIRCLE,
    "regularity": SPHERE,
    "distortion": SPINDLE,
    "energy": SPHERE,
    "moser": CIRCLE,
    "sweep": CIRCLE,
}

GOLDEN = {
    "align": {
        "alignment.csv":
            "4b4ba9908f68318b060f052301470e590d5b1ee3b661b08824f931fa0db21619",
        "run_meta.json":
            "28b7d56e3f2f0acf862f5b7f80787303fd2d680391c8ad389fa6b93dfd2a54ee",
    },
    "distortion": {
        "distortion.csv":
            "5b75e5b71ab8fa2b6a47b48bfd04828f9522ca9d8f4d1860103964ddc3ad1afd",
        "run_meta.json":
            "15dbdef878f13e19f6f395568b0c6097f59c2d24782053d8e15f97a9e053a105",
    },
    "energy": {
        "energy.csv":
            "069c9b60a90b32a3ec1d9f9f1f8a3d78429002599c27e22ce0d2d656355a45c7",
        "run_meta.json":
            "e35d8d6c97ac5a5d1e1bca88f4c1edeb231873c13ba84c8b445967d78cb2b036",
    },
    "graph": {
        "edges_n128_seed1.csv":
            "7dc7b3dc7ae416f8ed59ed620b58f8a865c61c0ba1ee6d639f1913e3e859e1cc",
        "edges_n128_seed2.csv":
            "40ceb8c2cb5a85928660bbdba471378f6fc1c62065e6deba3f1bd1c823ea31d3",
        "edges_n128_seed3.csv":
            "35983d3586fda126cf488cda42e4b0f6ad0a52e24f35d4cfc1c6bb7f9f8b5c97",
        "edges_n256_seed1.csv":
            "8fee0edd4b9e182b26d825411e42e8441bc13b2de35df8d5e511cb65dea44a04",
        "edges_n256_seed2.csv":
            "79702618052ad71343ac1b7135a1ef93464994eed36c8f282bbda566ed0f0027",
        "edges_n256_seed3.csv":
            "9425f498b29ee93a291a32f9c43390af6e10be3cfc9cd4215eb8c7c93af29471",
        "edges_n64_seed1.csv":
            "7063cea6941f95d17947d3fce2c9b9cb799c19896ac2927b4010c3ba7c605baf",
        "edges_n64_seed2.csv":
            "bfcf84438d89e2341c1bc6ab434a180a38cb38b15622caf7c02293fb76d8efa8",
        "edges_n64_seed3.csv":
            "fe6764fb63a60c6edd6da8a6075db9c34ee50a167ebb6e3e95ea851d3c4ca7ee",
        "run_meta.json":
            "b0600243a30cf5e574c3c55ff89f0cf580aa3ffcf89327ded0b6bc84920f12e8",
        "vertices_n128_seed1.csv":
            "9cb97fdd5b3d5411bb25f67ccc228320ba0811bb62fd90f1e7313a7b5059c0ad",
        "vertices_n128_seed2.csv":
            "3eac4c50e6f2cf25e1cb39f5afd8aaa68c93c44fcd6b178f540ce109a9fa6119",
        "vertices_n128_seed3.csv":
            "c1e3817fb1725159e3586efeb400de4d1237259248f84bcf333a70c91ac63b8a",
        "vertices_n256_seed1.csv":
            "fae354a28146566c1da3cbd01bb42dbebbdaae0df65f0a1fee4816b02410585a",
        "vertices_n256_seed2.csv":
            "4f458ce34fc25cbe399ba8d5f2b8cd24527ce6ef3d7bdf4fca4b34bcedcc71f7",
        "vertices_n256_seed3.csv":
            "8ea2378f4a08cf71ff97562e5c1dcaaf3bccf7f6d55196f684a7b150586b3cc1",
        "vertices_n64_seed1.csv":
            "23bca717944e013b073d97f260abecae990d1f1a1be0094f48ec102378addbb7",
        "vertices_n64_seed2.csv":
            "9bbf9d745ead24d3f546445f3c2166f8fb6924129f1de120a5a6f8368dd94210",
        "vertices_n64_seed3.csv":
            "39614dad989a51d2af7f4dd5dc51ed93bb33c61977da9dc015d8e4fedf458dd2",
    },
    "moser": {
        "moser.csv":
            "ef977f062cfa31ec377e9f01637013710f06ed657f52d0c1f0a1dc2d21c02615",
        "run_meta.json":
            "d1823b0a5f880a7e9b28ce5010fe1c3646208001d3bdbfa0797e5118cc59f5b9",
    },
    "regularity": {
        "regularity.csv":
            "0cc7e4ca78492d7655330da74f738ff0c105a1dea87e72281142a549520b52f7",
        "run_meta.json":
            "9d0bca2019df57f904adf70ecd669e0f2b87b1fe76dfa036f3deaa6cbe7783c1",
    },
    "sample": {
        "points_n128_seed1.csv":
            "6492440103048f82e2229ad7f4f3d07f8cab62723df16d2752b92c49cbf3e383",
        "points_n128_seed2.csv":
            "8fd69227c130ebf7eb98a4fb55910e22f7a0c7c9c1d6429a6b981cf48c86c9cb",
        "points_n128_seed3.csv":
            "52d1b189e2ad05030f103ab5b08a9c7c3189579b1322155c98c43ec642758d64",
        "points_n256_seed1.csv":
            "c3e6ec3fb76692600efc1f812fc79eb2bf928e569320e06bf98e8d38526e3111",
        "points_n256_seed2.csv":
            "55574c247581d4faf1c865070b6197f11a30de9385661a2d3305f36f830e1f80",
        "points_n256_seed3.csv":
            "8f36afd4dd7f5c2818a2af94d7688cabf7ec6975848250bb945036efe5effa8c",
        "points_n64_seed1.csv":
            "308c38c25432b80043cec3d90db68e9b91df3e35a385e620a97b44dd5d8f90fc",
        "points_n64_seed2.csv":
            "b680063349957c37fba54bbd8f2fc93a4c080be4bb1607cc61e6218ae80265a8",
        "points_n64_seed3.csv":
            "be33126ed30ab9a412def933943ddedd9dfe725f2e0152632b6abe09b6a1d531",
        "run_meta.json":
            "aba2382ba42cf0888b5ea8adafa185e7bdb37e353520fd22e0f579a156146efa",
    },
    "spectrum": {
        "run_meta.json":
            "d777967fad1f221a295d8e4f9bba6acdbd9a7422bba92589e63a4711d2d0671d",
        "spectrum.csv":
            "35fb7d95b171ff0b706eea32b7247050422d5d2222fc4d5a9bf092938e36a4de",
    },
    "sweep": {
        "run_meta.json":
            "9d67ccd7dbbfbee6c5268bb53b46d4be006e53511ab49b1f8774bdd0154bda56",
        "sweep.svg":
            "d1217634893c6e465f5387e1f22bd768906845e532a6ca941504c1a6c12477f8",
        "sweep_summary.csv":
            "5425562ccc3ff032d87f30d5bfd422add1a369b10c683769e1a120ecb51f3965",
    },
}


def run_command(command, threads, workdir):
    """Run one command in ``workdir``; return {file name: sha256}."""
    # imported here, so that recording runs without the package on the path:
    # only the child, which gets src/ on PYTHONPATH, runs the commands
    from spectral_limits.cli import main as cli_main

    cfg = os.path.join(workdir, "cfg.txt")
    out = os.path.join(workdir, "out")
    with open(cfg, "w") as fh:
        fh.write(CONFIGS[command])
    assert cli_main([command, "--config", cfg, "--out", out,
                     "--threads", str(threads)]) == 0
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def run_all():
    """{threads: {command: {file name: sha256}}} for every command."""
    hashes = {}
    for threads in THREADS:
        hashes[str(threads)] = {}
        for cmd in sorted(CONFIGS):
            with tempfile.TemporaryDirectory() as tmp:
                hashes[str(threads)][cmd] = run_command(cmd, threads, tmp)
    return hashes


def run_pinned():
    """``run_all`` in a child python with BLAS pinned to one thread."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--json"],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def pinned_hashes():
    return run_pinned()


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_outputs_match_recorded_hashes(command, pinned_hashes):
    for threads in THREADS:
        assert pinned_hashes[str(threads)][command] == GOLDEN[command], \
            f"--threads {threads}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        print(json.dumps(run_all()))
        sys.exit(0)
    runs = run_pinned()
    for threads in THREADS[1:]:
        if runs[str(threads)] != runs[str(THREADS[0])]:
            sys.exit(f"--threads {threads} differs from --threads {THREADS[0]}")
    print("GOLDEN = {")
    for cmd, files in runs[str(THREADS[0])].items():
        print(f'    "{cmd}": {{')
        for name, digest in files.items():
            print(f'        "{name}":\n            "{digest}",')
        print("    },")
    print("}")
