"""Command-line interface: argument handling, outputs, determinism."""

import csv
import math

import pytest

from dmrbf import Method, RECEIVE_METHODS, ScenarioConfig, parse_config, wilson_interval
from dmrbf import ber, cli
from dmrbf.cli import PRESETS, _parse_methods, build_parser, main
from dmrbf.errors import DomainError


def run_cli(*argv):
    return main(list(argv))


def test_list_presets(capsys):
    assert run_cli("--list-presets") == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig3", "fig4"):
        assert name in out


def test_print_defaults_round_trips(capsys):
    assert run_cli("--print-defaults") == 0
    out = capsys.readouterr().out
    assert parse_config(out) == ScenarioConfig()


def test_no_command_prints_help(capsys):
    assert run_cli() == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_parse_methods():
    # the CLI only splits, strips and case-folds; `sweep` judges the names
    assert _parse_methods(None) == RECEIVE_METHODS
    assert _parse_methods("mrc,mmse") == (Method.MRC, Method.MMSE)
    assert _parse_methods("MRC, mrc") == ("mrc", "mrc")
    assert _parse_methods(" mrc,,bogus ") == ("mrc", "bogus")
    with pytest.raises(DomainError):
        _parse_methods(",")


@pytest.mark.parametrize(
    "methods, named",
    [
        ("mrc,MRC", "method 'mrc' is requested more than once"),
        ("mrc,mallory", "'mallory' is not a receive method"),
    ],
)
def test_run_refused_methods_are_one_error_line(
    tmp_path, capsys, monkeypatch, methods, named
):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    monkeypatch.setattr(ber, "build_scene", lambda *a: pytest.fail("a point ran"))
    out = str(tmp_path)
    rc = run_cli("run", str(cfg_path), "--preset", "fig2", "--out", out, "--methods", methods)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {named}")


def test_run_writes_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("p_m_watt = 10\n")
    out_dir = tmp_path / "results"
    rc = run_cli(
        "run",
        str(cfg_path),
        "--preset",
        "fig3",
        "--methods",
        "mrc,nsp_wfrp",
        "--out",
        str(out_dir),
        "--symbols",
        "500",
    )
    assert rc == 0
    csv_path = out_dir / "fig3.csv"
    svg_path = out_dir / "fig3.svg"
    assert csv_path.exists() and svg_path.exists()
    text = csv_path.read_text()
    # full parameter header, including the fig3 noise pin at 15 dB SNR
    assert "# preset = fig3" in text
    assert "# sigma_b2_watt = 0.31622776601683794" in text
    assert "# max_symbols = 500\n# ber_rel_halfwidth = 0.05\n" in text
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == (
        "axis_value,method,sr_bits,sinr_bob_db,sinr_mallory_db,n_symbols,ber,"
        "ber_ci95,ber_analytic,flops_formula"
    )
    rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == len(PRESETS["fig3"].values) * 2
    assert all(len(r.split(",")) == 10 for r in rows)
    out = capsys.readouterr().out
    assert "wrote" in out


def _csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_fig4_rows_state_their_precision(tmp_path, capsys):
    # every BER rests on at most --symbols symbols, sits within perfbench's
    # gate of the analytic value, and a point below the cap drew enough
    # for its stated relative precision
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    out = tmp_path / "out"
    rc = run_cli("run", str(cfg_path), "--preset", "fig4", "--out", str(out), "--symbols", "2000")
    assert rc == 0
    capsys.readouterr()
    rows = _csv_rows(out / "fig4.csv")
    below_cap = 0
    for row in rows:
        n, ber, ci95 = int(row["n_symbols"]), float(row["ber"]), float(row["ber_ci95"])
        assert n <= 2000
        assert abs(ber - float(row["ber_analytic"])) <= 3.0 * ci95, row
        if n < 2000:
            below_cap += 1
            assert ci95 / ber <= 1.3 * cli.BER_REL_HALFWIDTH, row
    assert below_cap > 0
    # a row with no error is drawn open at its Wilson upper bound, 2 * ci95
    zero = [row for row in rows if float(row["ber"]) == 0.0]
    assert zero
    svg = (out / "fig4.svg").read_text()
    assert svg.count('r="3.2" fill="none"') == len(zero)
    assert svg.count('r="2.6"') == len(rows) - len(zero)


def test_zero_error_rows_plot_at_their_upper_bound():
    spec = cli.SweepSpec(
        cfg=ScenarioConfig(),
        preset="fig4",
        axis="snr_db",
        values=(0.0, 25.0),
        methods=("mrc",),
        max_symbols=1000,
        seed=0,
    )
    reports = cli.sweep(spec.cfg, spec.methods, spec.axis, spec.values, 1000, 0)
    (series,) = cli._plot_series(spec, reports, "ber")
    assert [r.ber.n_errors > 0 for r in reports] == [True, False]
    assert series.hollow == (False, True)
    assert series.y == (reports[0].ber.ber, 2.0 * reports[1].ber.ci95_halfwidth)
    assert series.y[1] == wilson_interval(0, 2000)[1]


def test_a_hand_built_spec_plots_its_own_axis(tmp_path, capsys, monkeypatch):
    # a jamming-power axis gets its label and its log scale from spec.axis,
    # not from the preset it is filed under
    plots = []
    monkeypatch.setattr(cli, "save_line_plot", lambda path, series, **kw: plots.append(kw))
    spec = cli.SweepSpec(
        cfg=ScenarioConfig(),
        preset="fig2",
        axis="p_m_watt",
        values=(1.0, 100.0),
        methods=("mrc",),
        max_symbols=100,
        seed=0,
    )
    cli.run_sweep(spec, tmp_path)
    (plot,) = plots
    assert plot["xlabel"] == "jamming power [W]" and plot["xlog"]


def test_run_missing_config_fails(tmp_path, capsys):
    rc = run_cli("run", str(tmp_path / "nope.cfg"), "--preset", "fig2")
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_non_utf8_config_is_one_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(b"n_a = 4\n\xff\xfe = 3\n")
    rc = run_cli("run", str(cfg_path), "--preset", "fig2", "--out", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read config file {cfg_path}")


def test_run_invalid_config_names_field(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("beta1 = 1.5\n")
    rc = run_cli("run", str(cfg_path), "--preset", "fig2")
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "beta1" in err


@pytest.mark.parametrize(
    "line, named",
    [
        ("rho = nan", "rho: must be finite"),
        ("d_am_km = 1e-200", "d_am_km: path gain at distance 1e-200 km"),
        ("path_exponent = 1e300", "(exponent 1e+300)"),
        ("theta_r_mb_deg = 90", "nsp_wfrp at snr_db = -5: signal signature"),
    ],
)
def test_run_failure_is_one_named_error_line(tmp_path, capsys, line, named):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text(line + "\n")
    rc = run_cli(
        "run", str(cfg_path), "--preset", "fig2", "--out", str(tmp_path), "--symbols", "100"
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--methods", "bogus", "'bogus' is not a receive method"),
        ("--symbols", "0", "max_symbols must be in [1, 2**63)"),
        ("--seed", "-1", "seed must be in [0, 2**64)"),
    ],
)
def test_run_refused_arguments_leave_no_out_behind(tmp_path, capsys, flag, value, named):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    out = tmp_path / "newdir" / "sub"
    rc = run_cli("run", str(cfg_path), "--preset", "fig2", "--out", str(out), flag, value)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {named}")
    assert not (tmp_path / "newdir").exists()


def test_run_refused_scenario_leaves_no_out_behind(tmp_path, capsys):
    # the sweep itself refuses this config (its received signal power is
    # not a finite float), so the directories made for its outputs go again
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("p_a_watt = 1e300\nd_ab_km = 1e-5\nsnr_definition = transmit\n")
    out = tmp_path / "newdir" / "sub"
    rc = run_cli("run", str(cfg_path), "--preset", "fig2", "--out", str(out), "--symbols", "100")
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "p_a_watt: " in err[0]
    assert "Warning" not in captured.err
    assert not (tmp_path / "newdir").exists()


def test_run_unknown_method_fails(tmp_path, capsys):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    out = str(tmp_path)
    rc = run_cli("run", str(cfg_path), "--preset", "fig2", "--out", out, "--methods", "zf")
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: 'zf' is not a receive method; valid names: mrc, wfmrc,")


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        rc = run_cli(
            "run",
            str(cfg_path),
            "--preset",
            "fig2",
            "--methods",
            "mrc,wfmrc",
            "--out",
            str(out_dir),
            "--symbols",
            "400",
            "--seed",
            "11",
        )
        assert rc == 0
        blobs.append((out_dir / "fig2.csv").read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_parser_rejects_unknown_preset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "x.cfg", "--preset", "fig9"])


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_out_of_range_seed_is_one_error_line(tmp_path, capsys, seed):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    rc = run_cli(
        "run", str(cfg_path), "--preset", "fig2", "--out", str(tmp_path), "--seed", seed
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed") and seed in err[0]


@pytest.mark.parametrize("sub", ["", "below"])
def test_run_out_naming_a_file_fails_before_the_sweep(tmp_path, capsys, monkeypatch, sub):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    out = tmp_path / "taken"
    out.write_text("")

    def no_sweep(*_):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    rc = run_cli("run", str(cfg_path), "--preset", "fig2", "--out", str(out / sub))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out ")
    assert out.read_text() == ""


@pytest.mark.parametrize("suffix", ["csv", "svg"])
def test_run_output_path_naming_a_directory_fails_before_the_sweep(
    tmp_path, capsys, monkeypatch, suffix
):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    taken = tmp_path / "out" / f"fig2.{suffix}"
    taken.mkdir(parents=True)

    def no_sweep(*_):
        raise AssertionError("the sweep ran before the output paths were checked")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    rc = run_cli("run", str(cfg_path), "--preset", "fig2", "--out", str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {taken} is a directory")


@pytest.mark.parametrize("suffix", ["csv", "svg"])
def test_run_unwritable_output_is_one_error_line(tmp_path, capsys, suffix):
    # a dangling symlink passes the up-front directory check; writing
    # through it fails only once the sweep is done
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    out = tmp_path / "out"
    out.mkdir()
    target = out / f"fig4.{suffix}"
    target.symlink_to(tmp_path / "missing" / "file")
    rc = run_cli(
        "run", str(cfg_path), "--preset", "fig4", "--out", str(out), "--symbols", "100"
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {target}: ")


def test_run_with_a_distant_eavesdropper(tmp_path, capsys):
    # Mallory's signal power near the float minimum is a valid scene: her
    # SINR is tiny but finite, so the secrecy rate is Bob's whole rate
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("d_am_km = 1e150\n")
    argv = ["run", str(cfg_path), "--preset", "fig2", "--symbols", "2000"]
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    capsys.readouterr()
    text = (tmp_path / "fig2.csv").read_text().splitlines()
    rows = list(csv.DictReader(ln for ln in text if not ln.startswith("#")))
    assert len(rows) == len(PRESETS["fig2"].values) * len(RECEIVE_METHODS)
    for row in rows:
        values = [float(v) for k, v in row.items() if k != "method"]
        assert all(math.isfinite(v) for v in values), row
        assert -3030.0 < float(row["sinr_mallory_db"]) < -2980.0
        rate_bob = math.log2(1.0 + 10.0 ** (float(row["sinr_bob_db"]) / 10.0))
        assert float(row["sr_bits"]) == pytest.approx(rate_bob, rel=1e-9)


def test_run_with_a_weak_bob(tmp_path, capsys):
    # Bob's signal power near the float minimum is a valid scene too: every
    # method still detects, at a BER of about one half
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("d_ab_km = 1e150\nsnr_definition = transmit\n")
    argv = ["run", str(cfg_path), "--preset", "fig4", "--symbols", "2000"]
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    capsys.readouterr()
    rows = _csv_rows(tmp_path / "fig4.csv")
    assert len(rows) == len(PRESETS["fig4"].values) * len(RECEIVE_METHODS)
    for row in rows:
        values = [float(v) for k, v in row.items() if k != "method"]
        assert all(math.isfinite(v) for v in values), row
        assert abs(float(row["ber"]) - 0.5) < 0.05
