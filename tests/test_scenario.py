"""Scenario configuration, transmit setup, covariance assembly."""

import dataclasses

import numpy as np
import pytest

from dmrbf import (
    ConfigError,
    ConfigParseError,
    ScenarioConfig,
    build_channels,
    build_covariances,
    build_scene,
    build_transmit_setup,
    load_config,
    parse_config,
    serialize_config,
)

from conftest import config_with, random_config


def test_defaults_validate():
    cfg = ScenarioConfig()
    assert cfg.n_a == cfg.n_b == cfg.n_m == 4
    assert cfg.n_j == 1
    assert cfg.beta1 == 0.9
    assert cfg.snr_definition == "received"


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(301)
    for _ in range(20):
        cfg = random_config(rng)
        assert parse_config(serialize_config(cfg)) == cfg


def test_parse_overrides_and_comments():
    text = """
    # comment line
    n_a = 8

    p_m_watt = 2.5   # trailing comment
    snr_definition = transmit
    """
    cfg = parse_config(text)
    assert cfg.n_a == 8
    assert cfg.p_m_watt == 2.5
    assert cfg.snr_definition == "transmit"
    assert cfg.n_b == 4  # untouched default


def test_parse_empty_gives_defaults():
    assert parse_config("") == ScenarioConfig()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigParseError, match=r"^line 2:") as exc:
        parse_config("n_a = 4\nbogus_key = 1\n")
    assert exc.value.line_no == 2
    with pytest.raises(ConfigParseError, match="duplicate"):
        parse_config("n_a = 4\nn_a = 8\n")
    with pytest.raises(ConfigParseError, match=r"^line 1:"):
        parse_config("n_a 4")
    with pytest.raises(ConfigParseError):
        parse_config("n_a = not_an_int")
    with pytest.raises(ConfigParseError):
        parse_config("beta1 =")


def test_load_config(tmp_path):
    path = tmp_path / "scen.cfg"
    path.write_text("n_b = 8\nrng_seed = 3\n")
    cfg = load_config(path)
    assert cfg.n_b == 8 and cfg.rng_seed == 3


def test_validation_errors():
    with pytest.raises(ConfigError, match="n_j"):
        config_with(n_j=4)  # needs n_j <= n_m - 1
    with pytest.raises(ConfigError, match=r"\{1, \.\.\., 3\}"):
        config_with(n_m=4, n_j=4)
    with pytest.raises(ConfigError, match="beta1"):
        config_with(beta1=1.5)
    with pytest.raises(ConfigError, match="p_a_watt"):
        config_with(p_a_watt=0.0)
    with pytest.raises(ConfigError, match="theta_r_ab_deg"):
        config_with(theta_r_ab_deg=250.0)
    with pytest.raises(ConfigError, match="snr_definition"):
        config_with(snr_definition="per_bit")
    with pytest.raises(ConfigError, match="d_ab_km"):
        config_with(d_ab_km=-1.0)
    # jamming-free operation is allowed
    assert config_with(p_m_watt=0.0).p_m_watt == 0.0


_FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(ScenarioConfig) if f.type in (float, "float")
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_non_finite_values_name_the_field(field, value):
    with pytest.raises(ConfigError) as exc:
        config_with(**{field: value})
    assert exc.value.field == field


def test_unrepresentable_path_gain_names_the_distance():
    with pytest.raises(ConfigError) as exc:
        config_with(d_am_km=1e-200)
    assert exc.value.field == "d_am_km"
    with pytest.raises(ConfigError) as exc:
        config_with(path_exponent=1e300)  # 1 km keeps gain 1; 4 km overflows
    assert exc.value.field == "d_am_km"


def test_transmit_setup_beacons():
    cfg = ScenarioConfig()
    chans = build_channels(cfg)
    setup = build_transmit_setup(cfg, chans)
    # precoder v_a is the transmit steering vector of the A->B link
    assert np.allclose(setup.v_a, chans.ab.tx_steering, atol=1e-14)
    # AN projector carries unit average power
    t = setup.t_a_an
    assert abs(np.trace(t @ t.conj().T).real - 1.0) <= 1e-12
    # AN lives in the null space of the A->B channel
    assert np.linalg.norm(chans.ab.matrix @ t) <= 1e-12
    # Mallory's jamming beams are orthonormal columns scaled to unit power
    tm = setup.t_m_an
    assert tm.shape == (cfg.n_m, cfg.n_j)
    assert abs(np.trace(tm @ tm.conj().T).real - 1.0) <= 1e-12
    assert np.allclose(tm[:, 0], chans.mb.tx_steering, atol=1e-12)


def test_transmit_setup_multibeam_jammer():
    cfg = config_with(n_m=4, n_j=3)
    chans = build_channels(cfg)
    tm = build_transmit_setup(cfg, chans).t_m_an
    gram = tm.conj().T @ tm
    assert np.allclose(gram, np.eye(3) / 3, atol=1e-12)
    # first beam still points along the M->B transmit steering
    ref = chans.mb.tx_steering / np.sqrt(3)
    assert np.allclose(tm[:, 0], ref, atol=1e-12)


def test_rsi_channel_seeded():
    cfg = ScenarioConfig()
    chans = build_channels(cfg)
    a = build_transmit_setup(cfg, chans).h_m_rsi
    b = build_transmit_setup(cfg, chans).h_m_rsi
    assert np.array_equal(a, b)
    other = build_transmit_setup(dataclasses.replace(cfg, rng_seed=1), chans).h_m_rsi
    assert not np.array_equal(a, other)
    assert a.shape == (cfg.n_m, cfg.n_m)
    # CN(0,1) entries: mean square within loose bounds for 16 samples
    assert 0.3 <= np.mean(np.abs(a) ** 2) <= 3.0


def test_covariance_structure():
    rng = np.random.default_rng(302)
    for _ in range(25):
        scene = build_scene(random_config(rng))
        cov, cfg = scene.cov, scene.cfg
        n_b = cfg.n_b
        for mat in (cov.a, cov.b, cov.d, cov.c_nbar):
            assert mat.shape == (n_b, n_b)
            assert np.linalg.norm(mat - mat.conj().T) <= 1e-12 * max(
                1.0, np.linalg.norm(mat)
            )
        # signal covariance is the claimed rank-one outer product
        c1 = cfg.path_loss.gain(cfg.d_ab_km) * cfg.beta1 * cfg.p_a_watt
        u = scene.bob_signal_vector
        assert np.linalg.norm(cov.a - c1 * np.outer(u, u.conj())) <= 1e-12 * max(
            1.0, np.linalg.norm(cov.a)
        )
        # AN is projected into the A->B null space, so Bob never sees it
        assert np.linalg.norm(cov.b) <= 1e-20 * max(1.0, np.linalg.norm(cov.a))
        # jamming covariance carries the full radiated power times path gain
        g_mb = cfg.path_loss.gain(cfg.d_mb_km)
        assert np.trace(cov.d).real == pytest.approx(
            g_mb * cfg.p_m_watt, rel=1e-10, abs=1e-15
        )
        # c_nbar = B + D + sigma^2 I is positive definite
        lam = np.linalg.eigvalsh(cov.c_nbar)
        assert lam[0] >= cfg.sigma_b2_watt * (1 - 1e-10)


def test_covariance_mallory_side():
    scene = build_scene(ScenarioConfig())
    cov, cfg = scene.cov, scene.cfg
    n_m = cfg.n_m
    assert cov.e.shape == cov.f.shape == cov.r_m.shape == (n_m, n_m)
    # unlike Bob, Mallory sits outside the AN null space and sees the AN
    assert np.trace(cov.f).real > 1e-6 * np.trace(cov.e).real
    # residual self-interference scales with rho * P_M
    assert np.trace(cov.r_m).real > 0.0
    scene0 = build_scene(config_with(rho=0.0))
    assert np.linalg.norm(scene0.cov.r_m) == 0.0


def test_beta1_one_disables_an():
    scene = build_scene(config_with(beta1=1.0))
    assert np.linalg.norm(scene.cov.b) == 0.0
    assert np.linalg.norm(scene.cov.f) == 0.0


def test_build_scene_composes_stages():
    cfg = ScenarioConfig()
    chans = build_channels(cfg)
    setup = build_transmit_setup(cfg, chans)
    cov = build_covariances(cfg, chans, setup)
    scene = build_scene(cfg)
    assert np.array_equal(scene.cov.c_nbar, cov.c_nbar)
    assert np.array_equal(scene.setup.v_a, setup.v_a)


def test_scene_signal_vectors():
    scene = build_scene(ScenarioConfig())
    chans = scene.channels
    # v_a equals h_t(AB), so the noiseless receive signature is h_r(AB)
    assert np.allclose(scene.bob_signal_vector, chans.ab.rx_steering, atol=1e-12)
