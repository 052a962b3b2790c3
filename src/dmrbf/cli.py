"""Command-line interface: run preset sweeps, inspect defaults.

``dmrbf run <config> --preset fig2`` evaluates the requested beamformers
over the preset's axis and writes one CSV (full parameter header, one
row per (axis value, method)) plus a self-drawn SVG plot into the output
directory.  An empty config file means "all defaults"; a missing one is
an error.

Presets only define the sweep: the scenario itself (powers, angles,
geometry) always comes from the config file, except that ``fig3`` pins
the noise level to its stated operating SNR.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .beamformers import METHOD_LABELS, RECEIVE_METHODS, Method
from .ber import PerformanceReport, config_at, sweep
from .errors import DmrbfError, DomainError
from .scenario import ScenarioConfig, load_config, serialize_config
from .svgplot import Series, save_line_plot

_SNR_GRID = tuple(2.5 * k for k in range(-2, 11))  # -5 .. 25 dB
_PM_GRID = tuple(10.0 ** (-1.0 + 0.5 * k) for k in range(9))  # 0.1 .. 1000 W


@dataclass(frozen=True)
class Preset:
    description: str
    axis: str  # 'snr_db', or 'p_m_watt' on a log x axis
    values: tuple[float, ...]
    plot_quantity: str  # 'sr', or 'ber' on a log y axis
    pin_snr_db: float | None = None


PRESETS: dict[str, Preset] = {
    "fig2": Preset(
        description="secrecy rate vs SNR (-5 to 25 dB in 2.5 dB steps)",
        axis="snr_db",
        values=_SNR_GRID,
        plot_quantity="sr",
    ),
    "fig3": Preset(
        description="secrecy rate vs jamming power (0.1 to 1000 W, noise pinned at 15 dB SNR)",
        axis="p_m_watt",
        values=_PM_GRID,
        plot_quantity="sr",
        pin_snr_db=15.0,
    ),
    "fig4": Preset(
        description="bit error rate vs SNR (-5 to 25 dB in 2.5 dB steps)",
        axis="snr_db",
        values=_SNR_GRID,
        plot_quantity="ber",
    ),
}


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved sweep: scenario plus axis, methods and budget."""

    cfg: ScenarioConfig
    preset: str
    axis: str
    values: tuple[float, ...]
    methods: tuple[Method, ...]
    n_symbols: int
    seed: int
    workers: int


def _parse_methods(raw: str | None) -> tuple[Method, ...]:
    if raw is None:
        return RECEIVE_METHODS
    valid = {m.value: m for m in RECEIVE_METHODS}
    out = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in valid:
            raise DomainError(
                f"unknown method {token!r}; valid names: {', '.join(valid)}"
            )
        if valid[token] not in out:
            out.append(valid[token])
    if not out:
        raise DomainError("--methods selected nothing")
    return tuple(out)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _db(value: float) -> float:
    return 10.0 * math.log10(value) if value > 0.0 else float("-inf")


def write_csv(path: Path, spec: SweepSpec, reports: list[PerformanceReport]) -> None:
    """One row per (axis value, method), with the full parameter header.

    The file content is a pure function of ``spec`` and ``reports``: no
    timestamps, no environment details, so identical runs produce
    byte-identical files.
    """
    lines = [
        "# dmrbf sweep results",
        f"# preset = {spec.preset}",
        f"# axis = {spec.axis}",
        f"# methods = {','.join(m.value for m in spec.methods)}",
        f"# n_symbols = {spec.n_symbols}",
        f"# sweep_seed = {spec.seed}",
    ]
    for f in fields(ScenarioConfig):
        lines.append(f"# {f.name} = {getattr(spec.cfg, f.name)}")
    lines.append(
        "axis_value,method,sr_bits,sinr_bob_db,sinr_mallory_db,ber,ber_ci95,flops_formula"
    )
    for r in reports:
        lines.append(
            ",".join(
                (
                    _fmt(r.axis_value),
                    r.method.value,
                    _fmt(r.rates.secrecy_rate_bits),
                    _fmt(_db(r.rates.sinr_bob)),
                    _fmt(_db(r.rates.sinr_mallory)),
                    _fmt(r.ber.ber),
                    _fmt(r.ber.ci95_halfwidth),
                    str(r.flops_formula),
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _plot_series(
    spec: SweepSpec, reports: list[PerformanceReport], quantity: str
) -> list[Series]:
    series = []
    for m in spec.methods:
        rows = [r for r in reports if r.method == m]
        xs = tuple(r.axis_value for r in rows)
        if quantity == "sr":
            ys = tuple(r.rates.secrecy_rate_bits for r in rows)
        else:
            ys = tuple(r.ber.ber for r in rows)
        series.append(Series(label=METHOD_LABELS[m], x=xs, y=ys))
    return series


def _print_summary(spec: SweepSpec, reports: list[PerformanceReport], quantity: str) -> None:
    name = "secrecy rate [bits]" if quantity == "sr" else "bit error rate"
    print(f"\n{name} by {spec.axis}:")
    header = f"{spec.axis:>12}" + "".join(f"{m.value:>12}" for m in spec.methods)
    print(header)
    by_value: dict[float, dict[Method, PerformanceReport]] = {}
    for r in reports:
        by_value.setdefault(r.axis_value, {})[r.method] = r
    for v in spec.values:
        row = f"{v:>12.4g}"
        for m in spec.methods:
            r = by_value[v][m]
            cell = r.rates.secrecy_rate_bits if quantity == "sr" else r.ber.ber
            row += f"{cell:>12.4g}"
        print(row)


def run_sweep(spec: SweepSpec, out_dir: Path) -> tuple[Path, Path]:
    """Execute a sweep spec and write its CSV and SVG outputs."""
    preset = PRESETS[spec.preset]
    reports = sweep(
        spec.cfg,
        spec.methods,
        spec.axis,
        spec.values,
        spec.n_symbols,
        spec.seed,
        spec.workers,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{spec.preset}.csv"
    svg_path = out_dir / f"{spec.preset}.svg"
    write_csv(csv_path, spec, reports)
    if preset.plot_quantity == "sr":
        ylabel, title = "secrecy rate [bits/channel use]", "Secrecy rate"
    else:
        ylabel, title = "bit error rate", "Bit error rate"
    xlabel = "SNR [dB]" if spec.axis == "snr_db" else "jamming power [W]"
    save_line_plot(
        svg_path,
        _plot_series(spec, reports, preset.plot_quantity),
        title=f"{title} ({spec.preset})",
        xlabel=xlabel,
        ylabel=ylabel,
        xlog=preset.axis == "p_m_watt",
        ylog=preset.plot_quantity == "ber",
    )
    _print_summary(spec, reports, preset.plot_quantity)
    return csv_path, svg_path


def validate_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a config file, translating I/O errors."""
    try:
        return load_config(path)
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmrbf",
        description="Compare receive beamformers for a directional-modulation "
        "network under full-duplex jamming.",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list sweep presets and exit"
    )
    parser.add_argument(
        "--print-defaults",
        action="store_true",
        help="print the default configuration in config-file format and exit",
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a preset sweep from a config file")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument(
        "--preset", required=True, choices=sorted(PRESETS), help="which sweep to run"
    )
    run_p.add_argument(
        "--methods",
        default=None,
        help="comma-separated subset of: "
        + ",".join(m.value for m in RECEIVE_METHODS)
        + " (default: all)",
    )
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument("--seed", type=int, default=0, help="sweep seed (default: 0)")
    run_p.add_argument(
        "--symbols",
        type=int,
        default=200_000,
        help="Monte-Carlo symbols per sweep point (default: 200000)",
    )
    run_p.add_argument(
        "--workers", type=int, default=1, help="worker threads over sweep points"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in sorted(PRESETS):
            print(f"{name}: {PRESETS[name].description}")
        return 0
    if args.print_defaults:
        print(serialize_config(ScenarioConfig()), end="")
        return 0
    if args.command != "run":
        parser.print_help()
        return 2
    try:
        cfg = validate_config(args.config)
        preset = PRESETS[args.preset]
        if preset.pin_snr_db is not None:
            cfg = config_at(cfg, "snr_db", preset.pin_snr_db)
        spec = SweepSpec(
            cfg=cfg,
            preset=args.preset,
            axis=preset.axis,
            values=preset.values,
            methods=_parse_methods(args.methods),
            n_symbols=args.symbols,
            seed=args.seed,
            workers=args.workers,
        )
        csv_path, svg_path = run_sweep(spec, Path(args.out))
    except DmrbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"\nwrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
