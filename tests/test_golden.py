"""Golden outputs: the preset CSVs are byte-identical at a fixed seed.

``tests/golden/<preset>.csv`` holds ``dmrbf run <empty config> --preset
<preset> --seed 0 --symbols 2000``, and ``<preset>_n16.csv`` the same run
on a config with ``n_a = n_b = n_m = 16`` and ``n_j = 4``.  A change that moves any digit of a
rate, SINR, BER or flop count, a symbol budget, or the random stream,
fails here.  A change that alters the output on purpose regenerates the
files with that command and checks that only the columns it meant to move
did.  The files hold random stream 5 (``# rng_stream = 5``: the reference
symbol at every symbol, the normals drawn symbol-major, and at points
where few symbols can leave the no-error ball only those drawn, with their
radii from a jumped copy of the point's generator).  Moving from stream 4
(every symbol drawn), as from streams 3, 2 and 1 before it, changed only
the ``ber`` and ``ber_ci95`` columns.

Each point draws the symbols its best method needs for a relative 95 %
half-width of 5 %, at most ``--symbols`` (``# max_symbols = 2000`` and
``# ber_rel_halfwidth = 0.05``; the ``n_symbols`` column is the budget
drawn).  At 2000 symbols only the -5 dB point of fig2 and fig4 is below
the cap (1818 symbols).  Planning the budgets replaced the header line
``# n_symbols`` by those two lines, added the ``n_symbols`` and
``ber_analytic`` columns, and moved ``ber`` and ``ber_ci95`` on those
rows only; every other column kept its bytes.
"""

import csv
from pathlib import Path

import pytest

from dmrbf import RECEIVE_METHODS, sweep
from dmrbf.ber import RNG_STREAM, config_at
from dmrbf.cli import PRESETS, main
from dmrbf.scenario import parse_config

GOLDEN = Path(__file__).parent / "golden"

_N16 = "n_a = 16\nn_b = 16\nn_m = 16\nn_j = 4\n"
#: golden file stem -> config file text; the preset is the stem up to "_"
CONFIGS = {"fig2": "", "fig3": "", "fig4": "", "fig3_n16": _N16, "fig4_n16": _N16}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_preset_csv_matches_golden(name, tmp_path, capsys):
    preset = name.split("_")[0]
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(CONFIGS[name])
    out = tmp_path / "out"
    argv = ["run", str(cfg), "--preset", preset, "--seed", "0", "--symbols", "2000"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    got = (out / f"{preset}.csv").read_bytes()
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_library_sweep_matches_golden(name):
    # the library plans budgets by the same rule as `dmrbf run`: a sweep
    # at the golden seed and cap draws the golden symbols and errors
    spec = PRESETS[name.split("_")[0]]
    cfg = parse_config(CONFIGS[name])
    if spec.pin_snr_db is not None:
        cfg = config_at(cfg, "snr_db", spec.pin_snr_db)
    reports = sweep(cfg, RECEIVE_METHODS, spec.axis, spec.values, 2000, 0)
    text = (GOLDEN / f"{name}.csv").read_text().splitlines()
    rows = list(csv.DictReader(ln for ln in text if not ln.startswith("#")))
    assert len(rows) == len(reports)
    for row, r in zip(rows, reports):
        assert row["method"] == r.method.value
        got = (str(r.ber.n_symbols), f"{r.ber.ber:.12g}", f"{r.ber.ci95_halfwidth:.12g}")
        assert got == (row["n_symbols"], row["ber"], row["ber_ci95"]), (name, row)


def test_golden_files_hold_the_current_random_stream():
    for path in sorted(GOLDEN.glob("*.csv")):
        header = [ln for ln in path.read_text().splitlines() if ln.startswith("# rng_stream")]
        assert header == [f"# rng_stream = {RNG_STREAM}"], (
            f"{path.name} holds {header or 'no rng_stream line'} but ber.RNG_STREAM is "
            f"{RNG_STREAM}: regenerate it with `dmrbf run <config> --preset "
            f"{path.stem.split('_')[0]} --seed 0 --symbols 2000`, the config being "
            f"CONFIGS[{path.stem!r}], copy the CSV over it and check that "
            "only the rng_stream line and the ber/ber_ci95 columns moved"
        )
