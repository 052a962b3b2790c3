"""Scenario configuration, transmit setup, covariance assembly."""

import dataclasses
import math
import sys
import typing
import warnings

import numpy as np
import pytest

from dmrbf import (
    ConfigError,
    ConfigParseError,
    DimensionError,
    DmrbfError,
    DomainError,
    FlopCounter,
    Method,
    RECEIVE_METHODS,
    ScenarioConfig,
    Scene,
    build_channels,
    build_scene,
    build_transmit_setup,
    compute,
    formula_flops,
    load_config,
    mallory_receiver,
    parse_config,
    qpsk_awgn_ber,
    rate_point,
    serialize_config,
    sigma2_for_snr_db,
    stack_scenes,
    sweep,
    wilson_interval,
)
from dmrbf.ber import config_at
from dmrbf.cli import PRESETS
from dmrbf.scenario import (
    _MEMO_FIELDS,
    Term,
    _jamming_terms,
    _MemoKey,
    _noise_free_scene,
    noise_covariance,
)

from conftest import config_with, dense_term, link_matrix, random_config


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


def test_load_config_unreadable_is_typed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"n_a = 4\n\xff\xfe = 3\n")
    for path in (tmp_path / "missing.cfg", tmp_path, bad):
        with pytest.raises(DomainError, match=r"^cannot read config file "):
            load_config(path)


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
    huge = "an int of 16610 bits"  # 10**5000, too long for Python to print
    for overrides, message in (
        ({"n_a": 0}, "n_a: must be >= 1, got 0"),
        ({"p_m_watt": -1.0}, "p_m_watt: must be >= 0, got -1.0"),
        ({"rho": -1e-12}, "rho: must be >= 0, got -1e-12"),
        ({"path_alpha": 0.0}, "path_alpha: must be > 0, got 0.0"),
        ({"path_exponent": -1.0}, "path_exponent: must be >= 0, got -1.0"),
        ({"spacing_over_wavelength": 0.0}, "spacing_over_wavelength: must be > 0, got 0.0"),
        ({"rng_seed": -1}, "rng_seed: must be >= 0, got -1"),
        ({"n_a": -(10**5000)}, f"n_a: must be >= 1, got {huge}"),
        ({"n_j": 10**5000}, f"n_j: must lie in {{1, ..., n_m - 1}} = {{1, ..., 3}}, got {huge}"),
        (
            {"n_m": 10**5000, "n_j": 0},
            f"n_m: is too large for an n x n complex matrix, got {huge}",
        ),
        ({"rng_seed": -(10**5000)}, f"rng_seed: must be >= 0, got {huge}"),
        ({"p_a_watt": 10**400}, "p_a_watt: must fit in a float, got an int of 1329 bits"),
        (
            {"p_a_watt": [10**5000]},
            "p_a_watt: must be of type float, got a list holding an int of over 4300 digits",
        ),
    ):
        with pytest.raises(ConfigError) as exc:
            config_with(**overrides)
        assert str(exc.value) == message


# numpy indexes an array's bytes with intp, so no n x n complex128 matrix
# has 16 n^2 > sys.maxsize bytes: such a size is refused by name, before
# anything is allocated (the largest accepted one is only constructed)
@pytest.mark.parametrize("field", ["n_a", "n_b", "n_m"])
def test_array_sizes_no_matrix_can_have_are_refused(field):
    largest = math.isqrt(sys.maxsize // 16)
    assert 16 * largest**2 <= sys.maxsize < 16 * (largest + 1) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert getattr(config_with(**{field: largest}), field) == largest
        for value, shown in (
            (largest + 1, str(largest + 1)),
            (2**40, "1099511627776"),
            (10**400, "an int of 1329 bits"),
        ):
            with pytest.raises(ConfigError) as exc:
                config_with(**{field: value})
            want = f"{field}: is too large for an n x n complex matrix, got {shown}"
            assert str(exc.value) == want


_FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(ScenarioConfig) if f.type in (float, "float")
]


# an int beyond the float range cannot be checked as a float either
@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), 10**5000],
    ids=["nan", "inf", "-inf", "10**400", "-10**400", "10**5000"],
)
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_non_finite_values_name_the_field(field, value):
    with pytest.raises(ConfigError) as exc:
        config_with(**{field: value})
    assert exc.value.field == field


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_b", 4.5),
        ("n_j", 1.5),
        ("rng_seed", 1.5),
        ("p_a_watt", "10"),
        ("n_b", True),
        ("beta1", np.True_),
        ("snr_definition", 1),
    ],
)
def test_mistyped_values_name_the_field(field, value):
    # refused where the config is made, not deep inside build_scene
    with pytest.raises(ConfigError, match=f"^{field}: must be of type ") as exc:
        config_with(**{field: value})
    assert exc.value.field == field


def _rates(cfg: ScenarioConfig) -> list:
    scene = build_scene(cfg)
    eve = mallory_receiver(scene).weights
    return [rate_point(scene, compute(m, scene).weights, eve) for m in (Method.MRC, Method.WFMRC)]


def test_numpy_scalars_are_accepted():
    cfg = config_with(n_b=np.int64(8), rng_seed=np.uint32(3), p_a_watt=np.float32(10.0), d_ab_km=2)
    assert build_scene(cfg).n_b == 8
    # every field is stored as the Python number it holds, of its declared type
    for name, kind in typing.get_type_hints(ScenarioConfig).items():
        assert type(getattr(cfg, name)) is kind, name
    assert cfg == config_with(n_b=8, rng_seed=3, p_a_watt=10.0, d_ab_km=2.0)
    # so a numpy scalar computes as that Python number, not in its own dtype:
    # an int8 n_b would overflow n + 1 in the steering vector, and a float32
    # angle would round its cosine in single precision
    assert _rates(config_with(n_b=np.int8(127))) == _rates(config_with(n_b=127))
    angle = np.float32(45.3)
    assert _rates(config_with(theta_r_mb_deg=angle)) == _rates(
        config_with(theta_r_mb_deg=float(angle))
    )


#: Each public entry point that takes a scalar, as a call of that one
#: argument, with the argument's name and declared kind.
_SCALAR_ARGUMENTS = {
    "ScenarioConfig.n_b": (lambda v: ScenarioConfig(n_b=v), "n_b", "int"),
    "ScenarioConfig.p_a_watt": (lambda v: ScenarioConfig(p_a_watt=v), "p_a_watt", "float"),
    "path_gain": (ScenarioConfig().path_gain, "distance_km", "float"),
    "sigma2_for_snr_db": (lambda v: sigma2_for_snr_db(ScenarioConfig(), v), "snr_db", "float"),
    "wilson_interval.n_errors": (lambda v: wilson_interval(v, 10), "n_errors", "int"),
    "wilson_interval.n_bits": (lambda v: wilson_interval(0, v), "n_bits", "int"),
    "qpsk_awgn_ber": (qpsk_awgn_ber, "sinr", "float"),
    "sweep.max_symbols": (
        lambda v: sweep(ScenarioConfig(), ("mrc",), "snr_db", (0.0,), v, 0),
        "max_symbols",
        "int",
    ),
    "sweep.seed": (
        lambda v: sweep(ScenarioConfig(), ("mrc",), "snr_db", (0.0,), 1000, v),
        "seed",
        "int",
    ),
    "formula_flops.n_a": (lambda v: formula_flops("mrc", v, 4, 4), "n_a", "int"),
    "formula_flops.n_m": (lambda v: formula_flops("mrc", 4, 4, v), "n_m", "int"),
}
_BAD_SCALARS = {
    "str": ("1", "must be of type {kind}, got '1'"),
    "bool": (True, "must be of type {kind}, got True"),
    "10**400": (10**400, "must fit in a float, got an int of 1329 bits"),
}


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry in sorted(_SCALAR_ARGUMENTS)
        for bad in _BAD_SCALARS
        # a config keeps a Python int field as given, unchecked against the
        # float range (see ScenarioConfig.__post_init__)
        if (entry, bad) != ("ScenarioConfig.n_b", "10**400")
    ],
)
def test_every_scalar_argument_is_refused_by_one_rule(entry, bad):
    call, name, kind = _SCALAR_ARGUMENTS[entry]
    value, problem = _BAD_SCALARS[bad]
    with pytest.raises(DmrbfError) as exc:
        call(value)
    # a config field's ConfigError carries the field; the rest are DomainErrors
    kind_of_error, sep = (ConfigError, ": ") if entry.startswith("Scen") else (DomainError, " ")
    assert type(exc.value) is kind_of_error
    assert str(exc.value) == name + sep + problem.format(kind=kind)


def test_unrepresentable_path_gain_names_the_distance():
    with pytest.raises(ConfigError) as exc:
        config_with(d_am_km=1e-200)
    assert exc.value.field == "d_am_km"
    with pytest.raises(ConfigError) as exc:
        config_with(path_exponent=1e300)  # 1 km keeps gain 1; 4 km overflows
    assert exc.value.field == "d_am_km"
    # numpy scalars are refused the same way, not with a RuntimeWarning
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig(d_ab_km=np.float64(1e-200))
    assert exc.value.field == "d_ab_km"
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig(path_exponent=np.float64(1e300))
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
    assert np.linalg.norm(link_matrix(chans.ab) @ t) <= 1e-12
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
        a, b, d = (dense_term(t) for t in (cov.a, cov.b, cov.d))
        for mat in (a, b, d, cov.c_nbar):
            assert mat.shape == (n_b, n_b)
            assert np.linalg.norm(mat - mat.conj().T) <= 1e-12 * max(
                1.0, np.linalg.norm(mat)
            )
        # signal covariance is the claimed rank-one outer product
        c1 = cfg.path_gain(cfg.d_ab_km) * cfg.beta1 * cfg.p_a_watt
        u = scene.cov.a.factor[..., 0]
        assert np.linalg.norm(a - c1 * np.outer(u, u.conj())) <= 1e-12 * max(
            1.0, np.linalg.norm(a)
        )
        # AN is projected into the A->B null space, so Bob never sees it
        assert np.linalg.norm(b) <= 1e-20 * max(1.0, np.linalg.norm(a))
        # jamming covariance carries the full radiated power times path gain
        g_mb = cfg.path_gain(cfg.d_mb_km)
        assert np.trace(d).real == pytest.approx(
            g_mb * cfg.p_m_watt, rel=1e-10, abs=1e-15
        )
        # c_nbar = B + D + sigma^2 I is positive definite
        lam = np.linalg.eigvalsh(cov.c_nbar)
        assert lam[0] >= cfg.sigma_b2_watt * (1 - 1e-10)


def test_covariance_mallory_side():
    scene = build_scene(ScenarioConfig())
    cov, cfg = scene.cov, scene.cfg
    n_m = cfg.n_m
    e, f, r_m = (dense_term(t) for t in (cov.e, cov.f, cov.r_m))
    assert e.shape == f.shape == r_m.shape == (n_m, n_m)
    # unlike Bob, Mallory sits outside the AN null space and sees the AN
    assert np.trace(f).real > 1e-6 * np.trace(e).real
    # residual self-interference scales with rho * P_M
    assert np.trace(r_m).real > 0.0
    scene0 = build_scene(config_with(rho=0.0))
    assert np.linalg.norm(dense_term(scene0.cov.r_m)) == 0.0


@pytest.mark.parametrize(
    "fields, power",
    [
        ({"p_a_watt": 1e300, "d_ab_km": 1e-5}, "p_a_watt"),
        ({"p_a_watt": np.float64(1e300), "d_ab_km": 1e-5}, "p_a_watt"),
        ({"p_m_watt": 1e300, "d_mb_km": 1e-5}, "p_m_watt"),
        ({"rho": 1e10, "p_m_watt": 1e300}, "rho"),
        # a finite power whose factor's entries, larger than one, carry its
        # matrix past the float maximum: only the matrix refuses it
        ({"rho": 1.0, "p_m_watt": 1.7e308, "n_j": 3, "rng_seed": 1}, "rho"),
    ],
)
def test_a_term_beyond_the_float_range_is_refused_by_its_power(fields, power):
    # each power is finite, but times its gain it leaves the float range:
    # the term's coefficient is refused, naming the power, before numpy warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = config_with(**fields)
        with pytest.raises(ConfigError, match=f"^{power}: makes a covariance term") as info:
            build_scene(cfg)
    assert info.value.field == power


def test_noise_plus_jamming_beyond_the_float_range_is_refused_by_the_noise():
    # the noise and the jamming term are each finite, but their sum is not:
    # c_nbar is refused by the one covariance rule, naming the noise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = config_with(sigma_b2_watt=1.7e308, p_m_watt=1.7e308, d_mb_km=1.0)
        with pytest.raises(
            ConfigError,
            match="^sigma_b2_watt: makes an interference-plus-noise covariance that is not finite$",
        ) as info:
            build_scene(cfg)
    assert info.value.field == "sigma_b2_watt"


def test_beta1_one_disables_an():
    scene = build_scene(config_with(beta1=1.0))
    assert np.linalg.norm(dense_term(scene.cov.b)) == 0.0
    assert np.linalg.norm(dense_term(scene.cov.f)) == 0.0


def test_build_scene_composes_stages():
    cfg = ScenarioConfig()
    chans = build_channels(cfg)
    setup = build_transmit_setup(cfg, chans)
    _noise_free_scene.cache_clear()
    _jamming_terms.cache_clear()
    scene = build_scene(cfg)
    assert np.array_equal(scene.channels.ab.rx_steering, chans.ab.rx_steering)
    assert np.array_equal(scene.channels.ab.tx_steering, chans.ab.tx_steering)
    assert np.array_equal(scene.v_a, setup.v_a)
    # the scene keeps the RSI draw and the jamming beams as the factors of
    # r_m and d only; r_m's has the bits of the transmit setup's product,
    # and at one beam d's one column has the bits of the dense H_mb T_m's
    assert np.array_equal(scene.cov.r_m.factor, setup.h_m_rsi.conj().T @ setup.t_m_an)
    jam = np.outer(chans.mb.rx_steering, np.vecmat(chans.mb.tx_steering, setup.t_m_an))
    assert np.array_equal(scene.cov.d.factor, jam)
    assert np.array_equal(scene.cov.c_nbar, _c_nbar(scene))


def test_scene_signal_vectors():
    scene = build_scene(ScenarioConfig())
    chans = scene.channels
    # v_a equals h_t(AB), so the noiseless receive signature is h_r(AB)
    assert np.allclose(scene.cov.a.factor[..., 0], chans.ab.rx_steering, atol=1e-12)


def _arrays(part, path="scene"):
    """Every array of a scene, keyed by its attribute path."""
    if isinstance(part, np.ndarray):
        return {path: part}
    if not dataclasses.is_dataclass(part):
        return {}
    out = {}
    for f in dataclasses.fields(part):
        out.update(_arrays(getattr(part, f.name), f"{path}.{f.name}"))
    return out


def _bytes(scene: Scene) -> dict[str, bytes]:
    return {path: a.tobytes() for path, a in _arrays(scene).items()}


@pytest.mark.parametrize("n", [4, 16, 64])
def test_memoized_scene_equals_a_fresh_build_bit_for_bit(n):
    for n_j in (1, 3):
        base = config_with(n_a=n, n_b=n, n_m=n, n_j=n_j)
        _noise_free_scene.cache_clear()
        build_scene(config_at(base, "snr_db", 0.0))  # fills the memo
        for snr in (-5.0, 7.25, 25.0):
            cfg = config_at(base, "snr_db", snr)
            cached = build_scene(cfg)
            assert _noise_free_scene.cache_info().misses == 1
            _noise_free_scene.cache_clear()
            fresh = build_scene(cfg)
            assert _bytes(cached) == _bytes(fresh)


def test_noise_levels_share_the_noise_free_part():
    cfg_lo = config_with(sigma_b2_watt=0.1, sigma_m2_watt=0.2)
    cfg_hi = config_with(sigma_b2_watt=10.0, sigma_m2_watt=20.0)
    lo, hi = build_scene(cfg_lo), build_scene(cfg_hi)
    assert lo.cfg is cfg_lo and hi.cfg is cfg_hi
    assert lo.channels is hi.channels
    assert lo.v_a is hi.v_a
    for name in ("a", "b", "d", "e", "f", "r_m"):
        assert getattr(lo.cov, name) is getattr(hi.cov, name)
    for scene in (lo, hi):
        assert np.array_equal(scene.cov.c_nbar, _c_nbar(scene))
    assert not np.array_equal(lo.cov.c_nbar, hi.cov.c_nbar)


def _c_nbar(scene: Scene) -> np.ndarray:
    """``b + d + sigma_b2 I`` of a scene, or of each point of a stack, formed
    here from the factors of ``b`` and ``d`` by the scene's arithmetic."""
    noise = scene.sigma_b2_watt[..., None, None] * np.eye(scene.n_b)
    return dense_term(scene.cov.b) + dense_term(scene.cov.d) + noise


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("n_j", [1, 3])
def test_noise_covariance_is_the_sum_of_its_terms_bit_for_bit(n, n_j):
    # the one rule for Bob's c_nbar, NSP-WFRP's b + sigma_b2 I and
    # Mallory's f + r_m + sigma_m2 I: the terms' matrices summed in order,
    # then the noise, with the bits of the sum formed here; charged as its
    # term matrices (14n^2 for one column, 8(k + 1)n^2 for k), an add per
    # further term and the noise's scaling and add (2n^2 each)
    base = config_with(n_a=n, n_b=n, n_m=n, n_j=n_j, beta1=0.5, sigma_m2_watt=0.3)
    scenes = [build_scene(config_at(base, "p_m_watt", p)) for p in (0.1, 10.0, 1000.0)]
    for scene in (*scenes, stack_scenes(scenes)):
        cov = scene.cov
        for terms, sigma2 in (
            ((cov.b, cov.d), scene.sigma_b2_watt),
            ((cov.b,), scene.sigma_b2_watt),
            ((cov.f, cov.r_m), scene.sigma_m2_watt),
        ):
            want = dense_term(terms[0])
            for term in terms[1:]:
                want = want + dense_term(term)
            want = want + sigma2[..., None, None] * np.eye(n)
            fc = FlopCounter(len(scene))
            got = noise_covariance(terms, sigma2, "sigma2", fc)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            k = [t.factor.shape[-1] for t in terms]
            flops = sum(14 if c == 1 else 8 * (c + 1) for c in k) + 2 * len(terms) + 2
            assert fc.total == flops * n * n
        c_nbar = noise_covariance((cov.b, cov.d), scene.sigma_b2_watt, "sigma_b2_watt")
        assert scene.cov.c_nbar.tobytes() == c_nbar.tobytes()


def test_noise_covariance_past_the_float_maximum_is_refused_by_its_field():
    # finite terms and noise whose sum is not finite: a ConfigError naming
    # the field it is given, with no numpy warning, alone and stacked
    huge = Term(np.float64(1.7e308), np.ones((2, 1), dtype=complex))
    stacked = Term(np.array([1.0, 1.7e308]), np.ones((2, 2, 1), dtype=complex))
    message = "^noise_w: makes an interference-plus-noise covariance that is not finite$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = (((huge,), 1.7e308), ((huge, huge), 1.0), ((stacked,), np.array([1.0, 1e308])))
        for terms, sigma2 in cases:
            with pytest.raises(ConfigError, match=message) as info:
                noise_covariance(terms, sigma2, "noise_w")
            assert info.value.field == "noise_w"


def test_the_memo_shares_factors_not_matrices():
    # a term is its power and its factor, and the scene keeps Alice's
    # precoder, not her noise projector or the RSI draw: c_nbar is the one
    # n x n complex array in a scene, and its memo entry holds none
    assert [f.name for f in dataclasses.fields(Term)] == ["coef", "factor"]
    assert [f.name for f in dataclasses.fields(Scene)][:3] == ["channels", "v_a", "cov"]
    n = 64
    cfg = config_with(n_a=n, n_b=n, n_m=n, n_j=3)
    scene = build_scene(cfg)
    square = {path for path, a in _arrays(scene).items() if a.shape == (n, n)}
    assert square == {"scene.cov.c_nbar"}
    channels, v_a, fixed = _noise_free_scene(
        _MemoKey(tuple(repr(getattr(cfg, name)) for name in _MEMO_FIELDS), cfg)
    )
    assert v_a is scene.v_a and channels is scene.channels
    memo = [*_arrays(channels).values(), v_a]
    memo += [getattr(part, "factor", part) for part in fixed.values()]
    assert len(memo) == 3 * 2 + 1 + 6
    assert [a.shape for a in memo if a.shape[-1] == n and a.ndim > 1] == []


def test_shared_arrays_are_read_only():
    scene = build_scene(config_with(n_j=3, sigma_b2_watt=0.5))
    shared = {path: a for path, a in _arrays(scene).items() if path != "scene.cov.c_nbar"}
    # three links of two steering vectors, Alice's precoder, and six terms
    # of a factor each
    assert len(shared) == 3 * 2 + 1 + 6
    for path, a in shared.items():
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    # a scene built afterwards still sees the untouched arrays
    again = build_scene(config_with(n_j=3, sigma_b2_watt=0.7))
    assert all(again_a is shared[p] for p, again_a in _arrays(again).items() if p in shared)


def test_signed_zero_fields_do_not_share_an_entry():
    # rho keys the memo of the noise-free part; p_m_watt keys only the
    # jamming terms d and r_m, which scenes of one p_m_watt share
    for name, misses in (("rho", 2), ("p_m_watt", 1)):
        cfg_pos, cfg_neg = config_with(**{name: 0.0}), config_with(**{name: -0.0})
        assert cfg_pos == cfg_neg  # so the memo cannot key on the config itself
        _noise_free_scene.cache_clear()
        _jamming_terms.cache_clear()
        pos, neg = build_scene(cfg_pos), build_scene(cfg_neg)
        assert _noise_free_scene.cache_info().misses == misses
        assert (neg.v_a is pos.v_a) == (misses == 1)
        assert neg.cov.r_m is not pos.cov.r_m
        _noise_free_scene.cache_clear()
        _jamming_terms.cache_clear()
        assert _bytes(build_scene(cfg_neg)) == _bytes(neg)


def test_a_jamming_sweep_builds_its_geometry_once():
    # fig3 moves only p_m_watt: its points share one memo entry, and only
    # d, r_m and c_nbar are formed per point
    cfg = config_at(config_with(n_a=16, n_b=16, n_m=16, n_j=4), "snr_db", 15.0)
    values = PRESETS["fig3"].values
    _noise_free_scene.cache_clear()
    sweep(cfg, RECEIVE_METHODS, "p_m_watt", values, 100, 0)
    assert _noise_free_scene.cache_info().misses == 1
    assert _jamming_terms.cache_info().misses >= len(values)


def test_a_built_scene_is_one_point():
    cfg = config_with(n_a=3, n_b=5, n_m=6, n_j=2, p_m_watt=3.5, beta1=0.75)
    scene = build_scene(cfg)
    assert scene.cfg is cfg and len(scene) == 1
    for name in ("sigma_b2_watt", "sigma_m2_watt"):
        value = getattr(scene, name)
        assert type(value) is np.float64 and value == getattr(cfg, name), name
    # the powers live in the terms' coefficients
    assert type(scene.cov.a.coef) is np.float64
    assert scene.cov.a.coef == cfg.path_gain(cfg.d_ab_km) * 0.75 * cfg.p_a_watt
    assert scene.cov.d.coef == cfg.path_gain(cfg.d_mb_km) * 3.5
    assert (scene.n_b, scene.n_m, scene.n_j) == (cfg.n_b, cfg.n_m, cfg.n_j)
    assert scene.cov.a.factor[..., 0].shape == (5,)


def test_stacked_scenes_are_one_scene():
    scenes = [build_scene(config_with(n_j=2, p_m_watt=p)) for p in (1.0, 2.0, 4.0)]
    stack = stack_scenes(scenes)
    assert type(stack) is Scene and stack.cfg is None and len(stack) == 3
    assert stack.cov.d.coef.tolist() == [s.cov.d.coef for s in scenes]
    assert (stack.n_b, stack.n_m, stack.n_j) == (4, 4, 2)
    assert stack.cov.a.factor[..., 0].shape == (3, 4)
    # a stack is not stacked again
    with pytest.raises(DimensionError, match="^a scene stack needs one or more scenes"):
        stack_scenes((stack,))


def test_stack_scenes_needs_one_size():
    small, large = build_scene(config_with()), build_scene(config_with(n_b=5))
    for scenes in ((), (small, large)):
        with pytest.raises(DimensionError, match="^a scene stack needs one or more scenes"):
            stack_scenes(scenes)
    stack = stack_scenes((small, small))
    assert len(stack) == 2 and stack.cov.c_nbar.shape == (2, 4, 4)
    assert stack.sigma_b2_watt.tolist() == [small.cfg.sigma_b2_watt] * 2


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("n_j", [1, 3, pytest.param("n_m - 1", id="n_m-1")])
def test_rank_one_terms_match_the_dense_channel_forms(n, n_j):
    # the scene applies each link as h_rx (h_tx^H x) and keeps the artificial
    # noise's and the jamming's factors as one column each; against the
    # dense H forms of the transmit setup (|H|_F = 1 and the precoders have
    # unit power, so every entry is at most 1), the factors' grams agree to
    # 1e-13: all n_j beams reach Bob along the one column spanning H_mb T_m
    n_j = n - 1 if n_j == "n_m - 1" else n_j
    scene = build_scene(config_with(n_a=n, n_b=n, n_m=n, n_j=n_j))
    ch, cov = scene.channels, scene.cov
    setup = build_transmit_setup(scene.cfg, ch)
    assert np.array_equal(scene.v_a, setup.v_a)
    h_ab, h_am, h_mb = (link_matrix(link) for link in (ch.ab, ch.am, ch.mb))
    factors = {
        "a": (h_ab @ setup.v_a)[:, None],
        "b": h_ab @ setup.t_a_an,
        "d": h_mb @ setup.t_m_an,
        "e": (h_am @ setup.v_a)[:, None],
        "f": h_am @ setup.t_a_an,
    }
    for name, dense_factor in factors.items():
        term = getattr(cov, name)
        assert term.factor.shape == (n, 1), name
        gram = dense_factor @ dense_factor.conj().T
        assert np.abs(term.factor @ term.factor.conj().T - gram).max() <= 1e-13, name
        if name in ("a", "e"):  # the same column, not only the same span
            assert np.abs(term.factor - dense_factor).max() <= 1e-13, name
    # only Mallory's residual self-interference keeps a column per beam
    assert cov.r_m.factor.shape == (n, n_j) and scene.n_j == n_j
