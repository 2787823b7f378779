"""Pins every reference builder's output bit for bit.

Each case builds one reference spectrum and records its ``weight`` and
``uniform_rho``, and the sha256 of its eigenvalue bytes, of its labels, and
of every eigenfunction evaluated in each of the two weights at fixed sample
points.  An evaluator that is missing, or that cannot be renormalized, is
recorded by its error text.  The error cases record the error of a builder
that must refuse its input.

The hashes pin this platform's floating-point output.  To re-record them
after an intended output change, run
``PYTHONPATH=src python tests/test_reference_pins.py`` and paste the printed
table over ``PINS``.
"""

import hashlib
import math

import numpy as np
import pytest

from spectral_limits.reference import (
    circle_spectrum,
    sphere_spectrum,
    spindle_spectrum,
    torus_spectrum,
    weighted_circle_spectrum,
)
from spectral_limits.sampling import DensitySpec

C = 1.0 / math.sqrt(2.0)
TILT = DensitySpec("cosine_tilt", amplitude=0.2)

# case name: builder call
CASES = {
    "circle": lambda: circle_spectrum(1.3, 6),
    "sphere2": lambda: sphere_spectrum(2, 1.0, 10),
    "sphere3": lambda: sphere_spectrum(3, 1.2, 6),
    "torus2": lambda: torus_spectrum((1.0, 1.0), 12),
    "torus3": lambda: torus_spectrum((1.0, 1.0, 2.0), 10),
    "weighted-circle-tilt": lambda: weighted_circle_spectrum(1.0, TILT, 4,
                                                             mesh=1024),
    "weighted-circle-uniform": lambda: weighted_circle_spectrum(
        1.0, DensitySpec("uniform"), 4, mesh=1024),
    "spindle2": lambda: spindle_spectrum(2, C, l_max=4, k_max=5, mesh=1024),
    "spindle3": lambda: spindle_spectrum(3, C, l_max=4, k_max=6, mesh=1024),
}

ERROR_CASES = {
    "weighted-circle-mesh": lambda: weighted_circle_spectrum(
        1.0, TILT, 2, mesh=100),
    "spindle-mesh": lambda: spindle_spectrum(2, C, l_max=2, k_max=2, mesh=1002),
    "spindle-tail-guard": lambda: spindle_spectrum(3, C, l_max=0, k_max=6,
                                                   mesh=1024),
}


def sample_points(mfd):
    """Nine fixed intrinsic points of ``mfd`` and their embedding."""
    rng = np.random.Generator(np.random.PCG64(5))
    if mfd.kind == "circle":
        z = np.linspace(-1.0, 7.0, 9)[:, None]     # both sides of [0, 2 pi)
    elif mfd.kind == "sphere":
        z = rng.standard_normal((9, mfd.m + 1))
    elif mfd.kind == "flat_torus":
        z = rng.uniform(0.0, 1.0, (9, len(mfd.periods))) * mfd.periods
    else:                                           # spindle: tips included
        z = np.column_stack([np.linspace(0.0, math.pi, 9),
                             rng.standard_normal((9, mfd.m))])
    return z, mfd.embed(z)


def digest(data) -> str:
    return hashlib.sha256(data).hexdigest()


def evaluations(spec, weight) -> str:
    """sha256 of every eigenfunction's values, or error text, in ``weight``."""
    z, x = sample_points(spec.manifold)
    parts = []
    for k in range(len(spec.eigenvalues)):
        try:
            vals = np.asarray(spec.evaluator(k, weight)(z, x), dtype=float)
            parts.append(vals.tobytes())
        except ValueError as exc:
            parts.append(str(exc).encode())
    return digest(b"\0".join(parts))


def record(case):
    if case in ERROR_CASES:
        try:
            ERROR_CASES[case]()
        except Exception as exc:               # noqa: BLE001 - type is pinned
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {"error": None}
    spec = CASES[case]()
    rho = spec.uniform_rho
    return {
        "eigenvalues": digest(spec.eigenvalues.astype("<f8").tobytes()),
        "labels": digest(repr([(int(l), int(j)) for l, j in spec.labels])
                         .encode()),
        "weight": spec.weight,
        "uniform_rho": repr(rho if rho is None else float(rho)),
        "rho_vol": evaluations(spec, "rho_vol"),
        "rho2_vol": evaluations(spec, "rho2_vol"),
    }


PINS = {
    "circle": {
        "eigenvalues":
            '939e7c39831b5077d05c1ade2904fcef54d23ec1cc95a6238b3a3e86d4d02ede',
        "labels":
            '04c84d1c0e3e493416d29e7c4de969112c00ed899e38a9280d506e0d85bdefb4',
        "weight":
            'rho_vol',
        "uniform_rho":
            '0.12242687930145796',
        "rho_vol":
            '2672b884261ccf81f09447f5ed4d83c58c04aafcd56b9581fa98a89ed9a8aefd',
        "rho2_vol":
            '9548a9ed5eb53352453a9e8bbf8e78df27af9b79489eec01486dfbd0aac9781f',
    },
    "sphere2": {
        "eigenvalues":
            'a3bdbd5a38d3ea7b6af4c7d6624ee44ab863f63f833d6ef660e5ea6dc5391f33',
        "labels":
            '45103a6674761916c6a25403651e142f4219c7a364f9e4cfd940ce37fb21d1dc',
        "weight":
            'rho_vol',
        "uniform_rho":
            '0.07957747154594766',
        "rho_vol":
            '75d9d75e62d687ba406274ee21f4579f205f767030cb7a88785caaa9aec7a23b',
        "rho2_vol":
            '8685dd22250ed21532083525cb534ceed3f72d90c32c17153262bf891db94faa',
    },
    "sphere3": {
        "eigenvalues":
            '2074f24aeeb351b9c296550536f3d165c51981e9b5253a2a4300e4d03bdc4dec',
        "labels":
            '915476e93bc70b91abd2d717339812a50df3d75e6cb0ca1479b73d25a7f708f6',
        "weight":
            'rho_vol',
        "uniform_rho":
            '0.029317472118732',
        "rho_vol":
            'b7c1d6f1df52f0e8afb0c0ab17a2907737d0f00a11df90b77e6ea36f82fe26c2',
        "rho2_vol":
            '466422fb39b7c0910c5426affbaa6d22a1b6a93e5e52e0f04315912439524ee0',
    },
    "torus2": {
        "eigenvalues":
            '8351347ab78b7f44e16e6fcf285ab89396a0714bbd74ea1c8d03bc32e81669a8',
        "labels":
            '1e861321bd94dbdf2f0ece4939b7cdfbc1e263ad3569ecbf9d574f14fd698f4a',
        "weight":
            'rho_vol',
        "uniform_rho":
            '1.0',
        "rho_vol":
            'a96197838e244534ccb892c7dc2b786b361a927cd67ad7648b69e4c6a71a8c37',
        "rho2_vol":
            'a96197838e244534ccb892c7dc2b786b361a927cd67ad7648b69e4c6a71a8c37',
    },
    "torus3": {
        "eigenvalues":
            '8b1147bbf0dd724e5015462b63329b1701d4e4982a9bc277c7c36561de35e090',
        "labels":
            'ee9bc36cc0ef71642f45af5c962ffa64466a3388c474aa2b15c944da7e04821b',
        "weight":
            'rho_vol',
        "uniform_rho":
            '0.5',
        "rho_vol":
            '2655b47b3b1d5707720d08f68d0e13f23858c0922a8a60a5ab158889d1f536a3',
        "rho2_vol":
            '127be0eaa40d7740fb5c468fbc990b182d01fb3cfb541e7afbe60ea3cd500aa0',
    },
    "weighted-circle-tilt": {
        "eigenvalues":
            'de5e3bcb60bb6124364c78fdfde2c3ff4d49f40967b693deac25a6d46ec6c8f7',
        "labels":
            '5cf1b42305533a2ab0e284804b208954618a61b0c82011119930279dc503d3b4',
        "weight":
            'rho2_vol',
        "uniform_rho":
            'None',
        "rho_vol":
            'f6c60ab2e8254016b81134e8360c8664b35251bd3ab31dff344fc4c86c8475ab',
        "rho2_vol":
            'd1fdfe56c24ca0b5709cdf5a2e340ddad3ac9886c94c00b19f716a51bc7512d5',
    },
    "weighted-circle-uniform": {
        "eigenvalues":
            'c0fb6ad00a99e2b35d6b03427d8efbed46aa988589b5e8ac98cd0786d6d3b7dc',
        "labels":
            '5cf1b42305533a2ab0e284804b208954618a61b0c82011119930279dc503d3b4',
        "weight":
            'rho2_vol',
        "uniform_rho":
            '0.15915494309189535',
        "rho_vol":
            '85a76e2cb5dffbfd7cae3773817fda857f0a7f83eb2c18c7fdc23a5f523b78c5',
        "rho2_vol":
            'c859f5df5c154aa1ca20a206fe7e53b3bed18b6918470e60ae05d86d49fb2355',
    },
    "spindle2": {
        "eigenvalues":
            '9bf6a6c3fc5c62cf241899763e6a23ab201174da5e618c75ff4057a219d4010f',
        "labels":
            '47a6a881795c88a5b84a18b745e6bac91378ce69cf48ecef18a3daa4774124ee',
        "weight":
            'rho2_vol',
        "uniform_rho":
            '0.11253953951963826',
        "rho_vol":
            '09a3d3697c12180fb3d339a7f471d1c8b1f55d6a91a50216486a28875cc2f6d7',
        "rho2_vol":
            'd161b4b67e4e177bd0a2b6763bb5b2afed890b2c396ed0f77b27aece68ff509e',
    },
    "spindle3": {
        "eigenvalues":
            '3dff9ea1ae524d484fd83d8a1ef4d8334a4b864bcb044020fbe3d4dc9fb19375',
        "labels":
            '5e4bfb4290da39d40e1e8d91690b791d82f489832fe2d1eb14d6d28371bea140',
        "weight":
            'rho2_vol',
        "uniform_rho":
            '0.10132118364233779',
        "rho_vol":
            'c0c7be727bee861fc488b4a8a0c46723aab0e079d000acaabcdbbdbbf07729d2',
        "rho2_vol":
            '65bc61a68867036b56fdd00a6dd9fb52ee66e63a47938d7fa967cbcb1753ca2f',
    },
    "weighted-circle-mesh": {
        "error":
            'ValueError: mesh must be >= 512 and divisible by 4',
    },
    "spindle-mesh": {
        "error":
            'ValueError: mesh must be >= 512 and divisible by 4',
    },
    "spindle-tail-guard": {
        "error":
            'ValueError: l_max=0 too small: truncated fiber indices could reach down to 4.0000 <= lambda_6=48.0000',
    },
}


@pytest.mark.parametrize("case", sorted(CASES) + sorted(ERROR_CASES))
def test_builder_output_matches_pin(case):
    assert record(case) == PINS[case]


if __name__ == "__main__":
    print("PINS = {")
    for case in list(CASES) + list(ERROR_CASES):
        print(f'    "{case}": {{')
        for key, value in record(case).items():
            print(f'        "{key}":\n            {value!r},')
        print("    },")
    print("}")
