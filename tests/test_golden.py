"""Golden outputs: the preset CSVs are byte-identical at a fixed seed.

``tests/golden/<preset>.csv`` holds ``dmrbf run <empty config> --preset
<preset> --seed 0 --symbols 2000``.  A change that moves any digit of a
rate, SINR, BER or flop count, or the random stream, fails here.  A change
that alters the output on purpose regenerates the files with that command.
"""

from pathlib import Path

import pytest

from dmrbf.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4"])
def test_preset_csv_matches_golden(preset, tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out = tmp_path / "out"
    argv = ["run", str(cfg), "--preset", preset, "--seed", "0", "--symbols", "2000"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    got = (out / f"{preset}.csv").read_bytes()
    assert got == (GOLDEN / f"{preset}.csv").read_bytes()
