"""Property: every public entry point ends in finite values or a DmrbfError.

Hypothesis draws whole scenario configs, mixing ordinary values with the
float extremes (nan, +-inf, 0, 1e-300, values near the float maximum),
and runs the library path a user runs: build the scene, compute every
beamformer, evaluate the rates and estimate a short BER.  Each call must
either return finite numbers or raise a subclass of `DmrbfError`; a NaN
result or a bare numpy/Python exception fails the property.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrbf import (
    DmrbfError,
    RECEIVE_METHODS,
    ScenarioConfig,
    build_scene,
    compute,
    mallory_receiver,
    rate_point,
    simulate_ber,
)

EXTREMES = (math.nan, math.inf, -math.inf, 0.0, 1e-300, 8.98846567431158e307, 1.7e308)

ANGLE = st.floats(0.0, 180.0)
POWER = st.floats(1e-6, 1e6)
DISTANCE = st.floats(1e-3, 1e3)

#: Ordinary values for every field; the extremes are mixed in below.
ORDINARY = {
    "n_a": st.integers(1, 5),
    "n_b": st.integers(1, 5),
    "n_m": st.integers(1, 5),
    "n_j": st.integers(0, 4),
    "p_a_watt": POWER,
    "p_m_watt": POWER,
    "beta1": st.floats(0.0, 1.0),
    "rho": st.floats(0.0, 1e-6),
    "sigma_b2_watt": POWER,
    "sigma_m2_watt": POWER,
    "theta_t_ab_deg": ANGLE,
    "theta_r_ab_deg": ANGLE,
    "theta_t_am_deg": ANGLE,
    "theta_r_am_deg": ANGLE,
    "theta_t_mb_deg": ANGLE,
    "theta_r_mb_deg": ANGLE,
    "d_ab_km": DISTANCE,
    "d_am_km": DISTANCE,
    "d_mb_km": DISTANCE,
    "path_alpha": st.floats(1e-3, 1e3),
    "path_exponent": st.floats(0.0, 6.0),
    "spacing_over_wavelength": st.floats(0.1, 2.0),
    "snr_definition": st.sampled_from(("received", "transmit")),
    "rng_seed": st.integers(0, 2**31 - 1),
}
FLOAT_FIELDS = tuple(
    f.name for f in dataclasses.fields(ScenarioConfig) if f.type in (float, "float")
)


@st.composite
def configs(draw) -> dict:
    """Ordinary values with up to two float fields set to an extreme, so
    most drawn configs are valid and reach the numerics."""
    fields = draw(st.fixed_dictionaries(ORDINARY))
    extremes = st.sampled_from(EXTREMES)
    fields.update(draw(st.dictionaries(st.sampled_from(FLOAT_FIELDS), extremes, max_size=2)))
    return fields


def _or_refused(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None when it raised a `DmrbfError`."""
    try:
        return fn(*args, **kwargs)
    except DmrbfError:
        return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to an error
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(configs())
def test_entry_points_return_finite_values_or_raise_dmrbf_error(fields):
    cfg = _or_refused(ScenarioConfig, **fields)
    if cfg is None:
        return
    scene = _or_refused(build_scene, cfg)
    if scene is None:
        return
    eve = _or_refused(mallory_receiver, scene)
    if eve is not None:
        assert np.isfinite(eve.weights).all()
    for method in RECEIVE_METHODS:
        bf = _or_refused(compute, method, scene)
        if bf is None:
            continue
        assert np.isfinite(bf.weights).all(), method
        if eve is not None:
            rates = _or_refused(rate_point, scene, bf.weights, eve.weights)
            if rates is not None:
                assert all(math.isfinite(v) for v in vars(rates).values()), method
    runs = _or_refused(simulate_ber, cfg, RECEIVE_METHODS, 64, 0)
    for run in (runs or {}).values():
        assert run.n_symbols == 64
        assert 0.0 <= run.ber <= 1.0 and math.isfinite(run.ci95_halfwidth)
