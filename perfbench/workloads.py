"""The three benchmark workloads and the correctness gate on their outputs.

Each workload is a closed loop: one caller runs one whole pass and waits
for it, the way a researcher runs ``dmrbf run``.  A pass returns the
rows the program produced, one per (sweep point, method); the gate in
``check_pass`` then decides which rows are wrong.  The CLI workloads are
checked on the CSV they write, which is what a user reads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

METHODS = ("mrc", "wfmrc", "max_sr", "mmse", "lc_mmse", "nsp_wfrp")
#: The four methods that provably pick the same direction (C2).
EQUIVALENT = ("wfmrc", "max_sr", "mmse", "lc_mmse")
EQUIV_RTOL = 1e-9  # C2: relative SINR spread of the four
NSP_FLAT_RTOL = 1e-9  # C3: relative span of the nsp_wfrp SINR over p_m
BER_SIGMAS = 3.0  # C8: Monte-Carlo BER within 3 Wilson half-widths of analytic
CONFIG_NAME = "scenario.cfg"


@dataclass
class Row:
    point: float | str  # the axis value, or "n<size>@<snr>dB" for rates_sizes
    method: str
    sinr_bob: float
    sinr_mallory: float
    rates: tuple[float, ...]
    ber: float | None = None
    ci95: float | None = None
    flops: tuple[int, int] | None = None  # (measured, closed-form)


@dataclass
class PassOutput:
    rows: list[Row]
    digest: str  # sha256 of the CSV, or of the exact counts for rates_sizes
    error: str | None = None


def qpsk_ber(sinr: float) -> float:
    """Gray-QPSK bit error rate at a post-combining SINR (the C8 oracle)."""
    return 0.5 * math.erfc(math.sqrt(sinr / 2.0))


def _traceback_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception(exc)).strip()


@dataclass(frozen=True)
class CliWorkload:
    """``dmrbf run <config> --preset ...`` with CSV and SVG output."""

    name: str
    preset: str
    config: str
    points: int
    n_symbols: int
    workers: int
    nsp_flat: bool  # the axis is the jamming power, so C3 applies

    @property
    def attempted(self) -> int:
        return self.points * len(METHODS)

    def prepare(self, out: Path) -> Path:
        path = out / CONFIG_NAME
        path.write_text(self.config)
        return path

    def run_pass(self, lib: ModuleType, seed: int, out: Path) -> PassOutput:
        argv = [
            "run", str(out / CONFIG_NAME),
            "--preset", self.preset,
            "--out", str(out),
            "--seed", str(seed),
            "--symbols", str(self.n_symbols),
            "--workers", str(self.workers),
        ]
        csv_path = out / f"{self.preset}.csv"
        svg_path = out / f"{self.preset}.svg"
        csv_path.unlink(missing_ok=True)
        svg_path.unlink(missing_ok=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = lib.cli.main(argv)
            if status != 0:
                return PassOutput([], "", f"dmrbf run exited with status {status}")
            if not svg_path.is_file() or svg_path.stat().st_size == 0:
                return PassOutput([], "", f"{svg_path.name} was not written")
            data = csv_path.read_bytes()
            rows = parse_csv(data.decode())
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
            return PassOutput([], "", _traceback_text(exc))
        return PassOutput(rows, hashlib.sha256(data).hexdigest())

    def wrap(self, tracer, lib: ModuleType, record: Callable) -> None:
        cli, ber = lib.cli, lib.ber
        tracer.wrap(cli, "load_config", "cli.load_config")
        tracer.wrap(cli, "sweep", "ber.sweep")
        tracer.wrap(cli, "write_csv", "cli.write_csv")
        tracer.wrap(cli, "_print_summary", "cli.print_summary")
        tracer.wrap(cli, "save_line_plot", "svgplot.save_line_plot")
        tracer.wrap(ber, "_sweep_point", "ber.sweep_point")
        tracer.wrap(ber, "_draw_block", "ber.draw")
        tracer.wrap(ber, "point_rng", "ber.point_rng", tag_result=record)
        tracer.wrap(ber, "build_scene", "scenario.build_scene", tag_args=_tag_cfg)
        tracer.wrap(ber, "compute", "beamformers.compute", _tag_method, _tag_flops)
        tracer.wrap(
            ber, "mallory_receiver", "beamformers.mallory", _tag_scene, _tag_flops
        )
        tracer.wrap(ber, "rate_point", "metrics.rate_point", tag_args=_tag_scene)
        tracer.wrap(
            ber, "count_bit_errors", "kernels.count_bit_errors", _tag_block, _tag_errors
        )
        tracer.wrap(lib.complexity, "formula_flops", "complexity.formula_flops")


def parse_csv(text: str) -> list[Row]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        rows.append(
            Row(
                point=float(rec["axis_value"]),
                method=rec["method"],
                sinr_bob=10.0 ** (float(rec["sinr_bob_db"]) / 10.0),
                sinr_mallory=10.0 ** (float(rec["sinr_mallory_db"]) / 10.0),
                rates=(float(rec["sr_bits"]),),
                ber=float(rec["ber"]),
                ci95=float(rec["ber_ci95"]),
            )
        )
    return rows


@dataclass(frozen=True)
class RatesWorkload:
    """The README's library path over SNR and array size, no Monte-Carlo.

    Every call goes through the ``dmrbf`` package attributes at call
    time, so the traced pass can wrap them there.
    """

    name: str
    sizes: tuple[int, ...]
    snr_db: tuple[float, ...]
    workers: int = 1
    n_symbols: int = 0  # no Monte-Carlo

    @property
    def attempted(self) -> int:
        return len(self.sizes) * len(self.snr_db) * len(METHODS)

    def prepare(self, out: Path) -> Path:
        path = out / CONFIG_NAME  # read only by the set-up probe
        path.write_text("")
        return path

    def run_pass(self, lib: ModuleType, seed: int, out: Path) -> PassOutput:
        rows: list[Row] = []
        errors: list[str] = []
        methods = [lib.Method(m) for m in METHODS]
        for n in self.sizes:
            sizes = {"n_a": n, "n_b": n, "n_m": n}
            base = lib.ScenarioConfig(**sizes)
            for snr in self.snr_db:
                try:
                    sigma2 = lib.sigma2_for_snr_db(base, snr)
                    noise = {"sigma_b2_watt": sigma2, "sigma_m2_watt": sigma2}
                    cfg = lib.ScenarioConfig(**sizes, **noise)
                    scene = lib.build_scene(cfg)
                    bfs = {m: lib.compute(m, scene) for m in methods}
                    eve = lib.mallory_receiver(scene)
                except Exception as exc:  # noqa: BLE001 - counted per point
                    errors.append(_traceback_text(exc))
                    continue
                for m, bf in bfs.items():
                    try:
                        rp = lib.rate_point(scene, bf.weights, eve.weights)
                        flops = lib.formula_flops(m, n, n, n)
                    except Exception as exc:  # noqa: BLE001 - counted per row
                        errors.append(_traceback_text(exc))
                        continue
                    rows.append(
                        Row(
                            point=f"n{n}@{snr:g}dB",
                            method=m.value,
                            sinr_bob=rp.sinr_bob,
                            sinr_mallory=rp.sinr_mallory,
                            rates=(
                                rp.rate_bob_bits,
                                rp.rate_mallory_bits,
                                rp.secrecy_rate_bits,
                            ),
                            flops=(int(bf.flops), int(flops)),
                        )
                    )
        counts = ",".join(f"{r.point}:{r.method}:{r.flops}" for r in rows)
        digest = hashlib.sha256(counts.encode()).hexdigest()
        return PassOutput(rows, digest, errors[0] if errors else None)

    def wrap(self, tracer, lib: ModuleType, record: Callable) -> None:
        tracer.wrap(lib, "ScenarioConfig", "scenario.config")
        tracer.wrap(lib, "sigma2_for_snr_db", "metrics.sigma2_for_snr_db")
        tracer.wrap(lib, "build_scene", "scenario.build_scene", tag_args=_tag_cfg)
        tracer.wrap(lib, "compute", "beamformers.compute", _tag_method, _tag_flops)
        tracer.wrap(
            lib, "mallory_receiver", "beamformers.mallory", _tag_scene, _tag_flops
        )
        tracer.wrap(lib, "rate_point", "metrics.rate_point", tag_args=_tag_scene)
        tracer.wrap(lib, "formula_flops", "complexity.formula_flops")


def _tag_cfg(cfg, *_):
    return {"n": cfg.n_b}


def _tag_scene(scene, *_):
    return {"n": scene.cfg.n_b}


def _tag_method(method, scene, *_):
    return {"method": str(getattr(method, "value", method)), "n": scene.cfg.n_b}


def _tag_flops(bf):
    return {"flops": int(bf.flops)}


def _tag_block(w_conj, rx, gain, sent, *_):
    return {"symbols": int(sent.size), "bytes": int(rx.nbytes + sent.nbytes)}


def _tag_errors(n_errors):
    return {"errors": int(n_errors)}


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            name="fig4_n4",
            preset="fig4",
            config="",
            points=13,
            n_symbols=200_000,
            workers=1,
            nsp_flat=False,
        ),
        CliWorkload(
            name="fig3_n16_w2",
            preset="fig3",
            config="n_a = 16\nn_b = 16\nn_m = 16\nn_j = 4\n",
            points=9,
            n_symbols=100_000,
            workers=2,
            nsp_flat=True,
        ),
        RatesWorkload(
            name="rates_sizes",
            sizes=(4, 16, 64),
            snr_db=tuple(-5.0 + 0.25 * k for k in range(121)),
        ),
    )
}


def check_pass(workload, out: PassOutput) -> int:
    """Number of rows of one pass that fail the correctness gate.

    A row the program should have produced but did not counts as failed,
    so a pass that raised fails every row it owed.  The first reason is
    kept in ``out.error``.
    """
    failed: set[tuple[float | str, str]] = set()

    def fail(keys, reason: str) -> None:
        failed.update(keys)
        out.error = out.error or reason

    by_point: dict[float | str, dict[str, Row]] = {}
    for r in out.rows:
        by_point.setdefault(r.point, {})[r.method] = r
        values = (r.sinr_bob, r.sinr_mallory, *r.rates)
        if r.ber is not None:
            values += (r.ber, r.ci95)
        if not all(math.isfinite(v) for v in values):
            fail([(r.point, r.method)], f"non-finite output at {r.point} {r.method}")
        elif r.ber is not None and abs(r.ber - qpsk_ber(r.sinr_bob)) > BER_SIGMAS * r.ci95:
            fail([(r.point, r.method)], f"BER off the analytic curve at {r.point} {r.method}")
    for point, rows in by_point.items():
        sinrs = [rows[m].sinr_bob for m in EQUIVALENT if m in rows]
        if sinrs and (max(sinrs) - min(sinrs)) > EQUIV_RTOL * max(sinrs):
            keys = [(point, m) for m in EQUIVALENT if m in rows]
            fail(keys, f"equivalent methods disagree on SINR at {point}: {sinrs}")
    if getattr(workload, "nsp_flat", False):
        nsp = {p: r["nsp_wfrp"].sinr_bob for p, r in by_point.items() if "nsp_wfrp" in r}
        values = list(nsp.values())
        if values and (max(values) - min(values)) > NSP_FLAT_RTOL * max(values):
            fail([(p, "nsp_wfrp") for p in nsp], f"nsp_wfrp SINR not flat over p_m: {values}")
    missing = max(0, workload.attempted - len(out.rows))
    if missing:
        out.error = out.error or f"{missing} rows missing"
    return len(failed) + missing


def ci95_rel(rows: list[Row]) -> float | None:
    """Median Wilson half-width over BER, on rows with at least one error."""
    rel = [r.ci95 / r.ber for r in rows if r.ber]
    return statistics.median(rel) if rel else None
