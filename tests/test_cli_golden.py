"""Golden gate for the CLI output contract.

Every command runs once through ``cli.main`` on a tiny config (n <= 512, so
the dense eigensolver is used), and the sha256 of every file it writes,
``run_meta.json`` included, must equal the recorded value.  The commands run
with ``--out out`` from a temporary directory, so the paths listed in
``run_meta.json`` do not depend on where the test runs.

The hashes pin this platform's floating-point output.  To re-record them
after an intended output change, run ``python tests/test_cli_golden.py`` and
paste the printed table over ``GOLDEN``.
"""

import hashlib
import os

import pytest

from spectral_limits.cli import main as cli_main

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
            "a2ea15508e2d5ad0e9c36554c957cc0af8f2a943822f54ce84ac8b6ad2a8a1bf",
        "run_meta.json":
            "f1ffcb84fdf2e358629be24019cb44a94a55816c41a47d45dcde4af2d227f3f7",
    },
    "distortion": {
        "distortion.csv":
            "5b75e5b71ab8fa2b6a47b48bfd04828f9522ca9d8f4d1860103964ddc3ad1afd",
        "run_meta.json":
            "1a477e6b9e3a14c52a9e820c2164131e029d677ba7a8de4cfca4f0390db2d167",
    },
    "energy": {
        "energy.csv":
            "069c9b60a90b32a3ec1d9f9f1f8a3d78429002599c27e22ce0d2d656355a45c7",
        "run_meta.json":
            "3c551f82d10ae3c8cc3933b5e84891e7288d9dab0f2a8b53bdea6ead34896995",
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
            "7614eb692439f657d7fb72976b597a70e128e2dcbf40bf2b3b234dcb87c03126",
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
            "23f65916db4225260f3368e575b329c901ee96aa0dabc930319753f6d247afa5",
        "run_meta.json":
            "2228d91debada7db0d0310e486f689763f73564897a64026efd03790bbfa6b9c",
    },
    "regularity": {
        "regularity.csv":
            "a08be9a353b9ce9d8f30001b2fa5299118d7c1c67498135aabd25116d129ef1b",
        "run_meta.json":
            "1cc694b40f598a7232104e533d7079a12ac89c71502b3250b2b60e035c713569",
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
            "ac2dda73831babb8dc5a392be178e6f9ab31f3143cc4f501282afde01baea697",
    },
    "spectrum": {
        "run_meta.json":
            "01e17dafae98a7afcc2b9f3fc6c7fb4dac0eac260216fbbc6d0f542812d08c00",
        "spectrum.csv":
            "d62f6e6b55fdfe76f596ec304790ab4e4bbc984093db86c3f9c02ddedc1b32a6",
    },
    "sweep": {
        "run_meta.json":
            "5c96f8e2ddec804f9533627a5fcaaffcab6e50f91c426fd884ee90ed4625810a",
        "sweep.svg":
            "d1217634893c6e465f5387e1f22bd768906845e532a6ca941504c1a6c12477f8",
        "sweep_summary.csv":
            "647d0d6761a2fd49e89d0caccc8a9872971cf87190a7eeede76243ad8a21b117",
    },
}


def run_command(command, workdir):
    """Run one command in ``workdir``; return {relative path: sha256}."""
    cfg = os.path.join(workdir, "cfg.txt")
    with open(cfg, "w") as fh:
        fh.write(CONFIGS[command])
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert cli_main([command, "--config", "cfg.txt", "--out", "out"]) == 0
    finally:
        os.chdir(cwd)
    out = os.path.join(workdir, "out")
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_outputs_match_recorded_hashes(command, tmp_path):
    assert run_command(command, str(tmp_path)) == GOLDEN[command]


if __name__ == "__main__":
    import tempfile

    print("GOLDEN = {")
    for cmd in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{cmd}": {{')
            for name, digest in run_command(cmd, tmp).items():
                print(f'        "{name}":\n            "{digest}",')
            print("    },")
    print("}")
