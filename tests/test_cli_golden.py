"""Golden gate for the CLI output contract.

Every command runs through ``cli.main`` on a tiny config (n <= 512, so the
dense eigensolver is used), and ``graph``, ``spectrum``, ``sweep``,
``regularity`` and ``moser`` run once more above ``DENSE_LIMIT``, where the
spectrum and the larger Poincare balls go to Lanczos.  Each entry runs once
at ``--threads 1`` and once at ``--threads 2``, and the sha256 of every file
it writes, ``run_meta.json`` included, must equal the recorded value at both
thread counts.  All runs
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

# above DENSE_LIMIT: the Lanczos spectrum, with its hashed start vector
CIRCLE_LANCZOS = """
manifold = "circle"
n = [600, 800, 1000]
seeds = [1, 2, 3]
k_max = 3
"""

# Poincare balls of more than DENSE_LIMIT vertices go to Lanczos
SPHERE_LANCZOS = """
manifold = "sphere"
m = 2
n = [700]
seeds = [1]
k_max = 3
"""

# eps = 0.3 splits the (64, 1) cell and leaves the other three connected,
# so every eigensolve report writes its bad-cell rows beside good ones
CIRCLE_MIXED = """
manifold = "circle"
n = [64, 256]
seeds = [1, 2]
k_max = 2
cluster = [1, 2]
eps = 0.3
"""

# no other entry reaches the flat torus's reference spectrum and test function
TORUS = """
manifold = "flat_torus"
n = [200, 400]
seeds = [1, 2]
k_max = 4
"""

# the CIRCLE cells on the gamma_m graph
CIRCLE_GAMMA_M = CIRCLE + """graph = "gamma_m"
"""

# entry name: (command, config)
CONFIGS = {
    "sample": ("sample", CIRCLE),
    "graph": ("graph", CIRCLE),
    "graph-lanczos": ("graph", CIRCLE_LANCZOS),
    "spectrum": ("spectrum", SPHERE),
    "align": ("align", CIRCLE),
    "regularity": ("regularity", SPHERE),
    "distortion": ("distortion", SPINDLE),
    "energy": ("energy", SPHERE),
    "moser": ("moser", CIRCLE),
    "moser-lanczos": ("moser", CIRCLE_LANCZOS),
    "sweep": ("sweep", CIRCLE),
    "spectrum-lanczos": ("spectrum", CIRCLE_LANCZOS),
    "sweep-lanczos": ("sweep", CIRCLE_LANCZOS),
    "regularity-lanczos": ("regularity", SPHERE_LANCZOS),
    "spectrum-mixed": ("spectrum", CIRCLE_MIXED),
    "align-mixed": ("align", CIRCLE_MIXED),
    "regularity-mixed": ("regularity", CIRCLE_MIXED),
    "moser-mixed": ("moser", CIRCLE_MIXED),
    "spectrum-torus": ("spectrum", TORUS),
    "energy-torus": ("energy", TORUS),
    "spectrum-gamma-m": ("spectrum", CIRCLE_GAMMA_M),
}

GOLDEN = {
    "align": {
        "alignment.csv":
            "c581ef577af2823b1531122898b2e071bf186dd3e98f1bab4c02ab07a0eb9f59",
        "run_meta.json":
            "28b7d56e3f2f0acf862f5b7f80787303fd2d680391c8ad389fa6b93dfd2a54ee",
    },
    "align-mixed": {
        "alignment.csv":
            "873b84785f88b6a6e9bbc67f7217e4e776ffaf9b5a300e42f14cfcbe504a3400",
        "run_meta.json":
            "b4b91db7c74fcff6ec1c71e587302a31e6d1fe8a253680ecccf0b9eb13fefa1b",
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
    "energy-torus": {
        "energy.csv":
            "a5c92290dac5d152cdf7f5db13964be4cc31014817785daac86bcdbde6d3d016",
        "run_meta.json":
            "8026d8a267eacf1a5b8d3750bd65d92e1a64d16c21729c1c76da604d6890b603",
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
    "graph-lanczos": {
        "edges_n1000_seed1.csv":
            "5b11999fd3a35427cf36442c0f6e5e7882114faaf4909bbe9ba5d9f3bec48797",
        "edges_n1000_seed2.csv":
            "bf240fff92d5668320b7320d993fbfcc99ade53b687d6a5f871e6baae9c3474b",
        "edges_n1000_seed3.csv":
            "f6650507e9e643741e757a1d0438303cf0bdb5d065c905f411328a4b8d25c747",
        "edges_n600_seed1.csv":
            "e97a67d4ddc216497a20e0b8043c402cc14c3168c33c0b1dcd68377bccb8a9e8",
        "edges_n600_seed2.csv":
            "1a819d40b193b9f089e296cfe8c9f9dd383533b85fa76a4f7c101caa48715dd8",
        "edges_n600_seed3.csv":
            "e3156c7b55d912d236b9c26fc3511b25d2413fc5835f8ceb42d4eb729dec670e",
        "edges_n800_seed1.csv":
            "057bb7b00b6b7e42d825613b905bb055c36c5880758f05204f382e44b106d221",
        "edges_n800_seed2.csv":
            "a55f1d89281de7f1507d3df121d26d718b80062a5e38c11c05e755c430f4d764",
        "edges_n800_seed3.csv":
            "55a136a812488fb6b8b5258ec201a87b9ff4624d0bdba32b470aabe47bd57a89",
        "run_meta.json":
            "5ae9c204b4e8141b1da6cdc0637e1f88ca8ff6d849c667864c84e9dc40ad1343",
        "vertices_n1000_seed1.csv":
            "4719d4bb18e5ae4657ccfa7900eaa627cfc6b7ff3df0400bbab9dc41ea8ccf5f",
        "vertices_n1000_seed2.csv":
            "7ddc31a469d5cad15355b81c58c3ce3942610a0bdddc7c8f8c1544e0e785a77d",
        "vertices_n1000_seed3.csv":
            "5a47d310cd67c1261b8ab6925950deccaf5713bd2e12ce8aa9eea79169cb1954",
        "vertices_n600_seed1.csv":
            "a514d5d8751632e45fdaa5191f1f98294850338bae8d0224b015c983f3710a87",
        "vertices_n600_seed2.csv":
            "ef350dea0c1438461f1cff3eb1438fa9ce118fff10f3041d852853b6b8097cda",
        "vertices_n600_seed3.csv":
            "40a2580b3c13bfdbc80b8d1bcf00eaa7942686797caaf08a6676e32d614e1e28",
        "vertices_n800_seed1.csv":
            "3c0df29f35b39a82cff2b4cd4b673df623d8151f41952244e5a033a14c7ecac6",
        "vertices_n800_seed2.csv":
            "d468ef93876df1ac235e7f37681f08b4fc7ea87b60df9f3c441f423856e3ab3f",
        "vertices_n800_seed3.csv":
            "6b3064662617369afd0dd3edf48f5ff54a0cc90ec2350fc8b0a5d62a33505228",
    },
    "moser": {
        "moser.csv":
            "acd4af59100eaeb9ae603bd8e337f7537168166282a6775481a51441e14258a1",
        "run_meta.json":
            "d1823b0a5f880a7e9b28ce5010fe1c3646208001d3bdbfa0797e5118cc59f5b9",
    },
    "moser-lanczos": {
        "moser.csv":
            "e53b487dcd3cad5777a331375526315517e01552865390de487067e6bc531601",
        "run_meta.json":
            "f6b3233d1d1df938ff6b356f64a33eeacf9c918b004010f299bdbcf6276c4ad9",
    },
    "moser-mixed": {
        "moser.csv":
            "df5137703119aa58686339bb21f774ea0b859ac2a3f14e2ca5452c8766a33b2b",
        "run_meta.json":
            "ffe852708ccb7bddc759743da3474f113d777ad1c55713548771e823e331731c",
    },
    "regularity": {
        "regularity.csv":
            "e49e39f1bc4556220ca34a798b4492abe302e78f11cf021b133877c1c4276a7a",
        "run_meta.json":
            "9d0bca2019df57f904adf70ecd669e0f2b87b1fe76dfa036f3deaa6cbe7783c1",
    },
    "regularity-lanczos": {
        "regularity.csv":
            "7f89b488703eaf7b0df7392145d6da07b701b228364db039886976bf6ead8aa6",
        "run_meta.json":
            "ee119e5062b00df0a5da493529e35d00f4c4f6b987bfb4b9da788e4fce62f49d",
    },
    "regularity-mixed": {
        "regularity.csv":
            "d4cc74e834419a744d1bd759c0e99d99d06ec4628283fe33213c3287e5cca7ae",
        "run_meta.json":
            "4e2edd938ddec0b5ea9a2a22a8371282b24c61d41a43d2c657dbf3b7b44c255c",
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
    "spectrum-gamma-m": {
        "run_meta.json":
            "f931ebd28cad3bce5daf220adcd63adc0e9d4cde5e5960c0a20fff900595cc11",
        "spectrum.csv":
            "d1744d021e91b7547dc4b40af237ae7c2ddb61b92d295c4747e97b7839fdf93e",
    },
    "spectrum-lanczos": {
        "run_meta.json":
            "b9e056bb51f968816db55ae90179e851078ee6d9ebe8817daebee8e1c0f6dd52",
        "spectrum.csv":
            "48e07b39cf198462d00df488411e66c796f8614072341478010a6d4937b6172b",
    },
    "spectrum-mixed": {
        "run_meta.json":
            "2db8b0eaad687f95a7867ab0b3441d002adde26d7840f57a6e5b63d1a8f0f807",
        "spectrum.csv":
            "669328b93967a0e4e8aed48051d17072f0a965e4f15d8e8827a9f8040d177266",
    },
    "spectrum-torus": {
        "run_meta.json":
            "8e4e669d17d2cdccd7a144069c7ca97a35fb34ef0a1dc813fa0e6d2a87073ca2",
        "spectrum.csv":
            "f1632b68d1d8aa062f924ad906a264f0f8f53321125b863569d18391c1cfac02",
    },
    "sweep": {
        "run_meta.json":
            "9d67ccd7dbbfbee6c5268bb53b46d4be006e53511ab49b1f8774bdd0154bda56",
        "sweep.svg":
            "d1217634893c6e465f5387e1f22bd768906845e532a6ca941504c1a6c12477f8",
        "sweep_summary.csv":
            "5425562ccc3ff032d87f30d5bfd422add1a369b10c683769e1a120ecb51f3965",
    },
    "sweep-lanczos": {
        "run_meta.json":
            "3d1ac5f7ec137af9aacea38c9e8a8f84d993bd896b1b8396732ed2cb05b12e11",
        "sweep.svg":
            "3bc060b985fb50a449a3a09ff97d1216f1365e6d9dea50e3f5685af675d05461",
        "sweep_summary.csv":
            "01eaed18a4547708055c21057c4772c08efecec1e1eff82d64a7eab3fa338c45",
    },
}


def run_command(entry, threads, workdir):
    """Run one entry's command in ``workdir``; return {file name: sha256}."""
    # imported here, so that recording runs without the package on the path:
    # only the child, which gets src/ on PYTHONPATH, runs the commands
    from spectral_limits.cli import main as cli_main

    command, text = CONFIGS[entry]
    cfg = os.path.join(workdir, "cfg.txt")
    out = os.path.join(workdir, "out")
    with open(cfg, "w") as fh:
        fh.write(text)
    assert cli_main([command, "--config", cfg, "--out", out,
                     "--threads", str(threads)]) == 0
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def run_all():
    """{threads: {entry: {file name: sha256}}} for every entry."""
    hashes = {}
    for threads in THREADS:
        hashes[str(threads)] = {}
        for entry in sorted(CONFIGS):
            with tempfile.TemporaryDirectory() as tmp:
                hashes[str(threads)][entry] = run_command(entry, threads, tmp)
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


@pytest.mark.parametrize("entry", sorted(CONFIGS))
def test_outputs_match_recorded_hashes(entry, pinned_hashes):
    for threads in THREADS:
        assert pinned_hashes[str(threads)][entry] == GOLDEN[entry], \
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
    for entry, files in runs[str(THREADS[0])].items():
        print(f'    "{entry}": {{')
        for name, digest in files.items():
            print(f'        "{name}":\n            "{digest}",')
        print("    },")
    print("}")
