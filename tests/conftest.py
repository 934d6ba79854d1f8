"""Shared fixtures. Session scope for anything whose construction is not free."""

import numpy as np
import pytest

from nse.grid import build_pixelization
from nse.model import MaskSpec, NoiseSpec, Scenario, SpectrumModel, spectrum_values
from nse.needlet import make_scale
from nse.window import build_windows


@pytest.fixture(scope="session")
def fam():
    # B = 2, M = 5, scales 0..8: the workhorse family for every numeric check
    return build_windows(2.0, 5, 0, 8, mode="tight")


@pytest.fixture(scope="session")
def fam_literal():
    return build_windows(2.0, 5, 0, 8, mode="literal")


@pytest.fixture(scope="session")
def model3():
    return SpectrumModel(alpha=3.0)


@pytest.fixture(scope="session")
def scale3(fam):
    return make_scale(fam, 3)


@pytest.fixture(scope="session")
def scale4(fam):
    return make_scale(fam, 4)


@pytest.fixture(scope="session")
def scale5(fam):
    return make_scale(fam, 5)


@pytest.fixture(scope="session")
def C_256(model3):
    return spectrum_values(model3, 256)


@pytest.fixture(scope="session")
def pix8():
    return build_pixelization(8)


@pytest.fixture(scope="session")
def cap_scen():
    # polar cap of radius 0.5 removed, noise rising from pole to pole
    return Scenario(
        schedule=(
            (0, 99, MaskSpec(kind="polar_cap", theta_cut=0.5),
             NoiseSpec(kind="colatitude_linear", sigma_min=0.3, sigma_max=0.6)),
        )
    )


@pytest.fixture(scope="session")
def hemi_scen():
    # full sky, noise level stepping between hemispheres
    return Scenario(
        schedule=(
            (0, 99, MaskSpec(kind="full_sky"),
             NoiseSpec(kind="hemisphere_step", sigma_north=0.1, sigma_south=0.3)),
        )
    )


@pytest.fixture(scope="session")
def full_scen():
    return Scenario()


def unit(theta, phi):
    return np.array([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ])
