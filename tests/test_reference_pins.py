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
    "weighted-circle-tilt": lambda: weighted_circle_spectrum(1.0, TILT, 4),
    "weighted-circle-uniform": lambda: weighted_circle_spectrum(
        1.0, DensitySpec("uniform"), 4),
    "spindle2": lambda: spindle_spectrum(2, C, l_max=4, k_max=5),
    "spindle3": lambda: spindle_spectrum(3, C, l_max=4, k_max=6),
}

ERROR_CASES = {
    "spindle-tail-guard": lambda: spindle_spectrum(3, C, l_max=0, k_max=6),
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
            '46d96fb6670b17dadea98225587dcafa4ca020b9672e896804a0925a40bf97c9',
        "labels":
            '5cf1b42305533a2ab0e284804b208954618a61b0c82011119930279dc503d3b4',
        "weight":
            'rho2_vol',
        "uniform_rho":
            'None',
        "rho_vol":
            'f6c60ab2e8254016b81134e8360c8664b35251bd3ab31dff344fc4c86c8475ab',
        "rho2_vol":
            '74db60b2bcd137e69e983883695a3507590334f2ffa37ce65dc01ab5f1f0073b',
    },
    "weighted-circle-uniform": {
        "eigenvalues":
            '8ebfb93a2f924ee8ac23729ed89a7977a63e4bc294211f7275428f92e1bbd8c2',
        "labels":
            '5cf1b42305533a2ab0e284804b208954618a61b0c82011119930279dc503d3b4',
        "weight":
            'rho2_vol',
        "uniform_rho":
            '0.15915494309189535',
        "rho_vol":
            '16144903436dab75c26c78865ad7128b712bcef2fb3005ced603c43ebbe4e3df',
        "rho2_vol":
            'e56c7471e093d4f2c92aa8480564a17bfa70b404f59447e3b2da5882a093bd9e',
    },
    "spindle2": {
        "eigenvalues":
            'ff497036382fab617b8f609bd0da60112152666efef36f82e50b363c434212d7',
        "labels":
            '47a6a881795c88a5b84a18b745e6bac91378ce69cf48ecef18a3daa4774124ee',
        "weight":
            'rho2_vol',
        "uniform_rho":
            '0.11253953951963826',
        "rho_vol":
            '3eb2b333adf87a2d6d6b2b7670650056c6e06ed7a58c8fef1e75dcbb9afdc771',
        "rho2_vol":
            'cdd149a51e5383d6c6d7e8209b661d2b7956b5486e81e74da000bd320eac17c2',
    },
    "spindle3": {
        "eigenvalues":
            '56f7d2b94b448e61e26f5a94c42aa476614ebbb141a59aaf1f0ea17132ff566b',
        "labels":
            '5e4bfb4290da39d40e1e8d91690b791d82f489832fe2d1eb14d6d28371bea140',
        "weight":
            'rho2_vol',
        "uniform_rho":
            '0.10132118364233779',
        "rho_vol":
            '6502c28ee341ecff9a5ed02c34431db3d91574c4f19ad27c3c5d6cb8a1405939',
        "rho2_vol":
            'd586d6713cded67ccd17926e8a2acc3ecc46716bd294a44e8aa8326830b53a86',
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
