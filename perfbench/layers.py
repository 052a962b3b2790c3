"""Per-layer metrics of one traced pass, computed from its spans.

Span names are ``<layer>.<call>``; the layers are the modules of
``src/dmrbf`` (``kernels`` stands for ``_kernels``, whose leading
underscore a metric name may not start with).  Every metric names the
span it is read from; when the traced pass could not wrap that name
(a later change renamed or removed it) the metric is reported missing.
A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Tracer
from workloads import METHODS, ci95_rel

LAYERS = (
    "cli", "svgplot", "scenario", "beamformers", "metrics", "complexity", "ber", "kernels"
)
SIZES = (4, 16, 64)
BEAMFORMERS = METHODS + ("mallory",)
#: Units whose values are exact counts: they must repeat between passes.
COUNT_UNITS = frozenset({"count", "flop", "word/symbol"})


def _spec() -> list[tuple[str, str, str | None]]:
    """(metric name, unit, span it is read from) for every per-layer metric."""
    out = [
        ("ber.mc_self_s", "s", "ber.sweep_point"),
        ("ber.draw_s", "s", "ber.draw"),
        ("ber.rng_words_per_symbol", "word/symbol", "ber.point_rng"),
        ("ber.symbols", "count", "kernels.count_bit_errors"),
        ("ber.bit_errors", "count", "kernels.count_bit_errors"),
        ("ber.zero_error_rows", "count", "kernels.count_bit_errors"),
        ("ber.block_mb", "MB", "kernels.count_bit_errors"),
        ("ber.point_s.p50", "s", "ber.sweep_point"),
        ("ber.point_s.max", "s", "ber.sweep_point"),
        ("ber.worker_busy_frac", "ratio", "ber.sweep"),
        ("ber.ci95_rel", "ratio", None),
        ("kernels.count_bit_errors_s", "s", "kernels.count_bit_errors"),
    ]
    for n in SIZES:
        out.append((f"scenario.build_scene_us.n{n}", "us", "scenario.build_scene"))
    for m in BEAMFORMERS:
        span = "beamformers.mallory" if m == "mallory" else "beamformers.compute"
        for n in SIZES:
            out.append((f"beamformers.{m}_us.n{n}", "us", span))
            out.append((f"beamformers.{m}_flops.n{n}", "flop", span))
    for n in SIZES:
        out.append((f"beamformers.lc_mmse_over_mmse.n{n}", "ratio", "beamformers.compute"))
    out += [
        ("metrics.rate_point_us", "us", "metrics.rate_point"),
        ("complexity.formula_flops_us", "us", "complexity.formula_flops"),
        ("cli.load_config_ms", "ms", "cli.load_config"),
        ("cli.write_csv_ms", "ms", "cli.write_csv"),
        ("cli.print_summary_ms", "ms", "cli.print_summary"),
        ("svgplot.save_line_plot_ms", "ms", "svgplot.save_line_plot"),
    ]
    out += [(f"{layer}.self_s", "s", None) for layer in LAYERS]
    out += [
        ("trace.traced_wall_s", "s", None),
        ("trace.unattributed_s", "s", None),
        ("trace.unattributed_frac", "ratio", None),
        ("trace.overhead_s", "s", None),
    ]
    return out


PER_LAYER = _spec()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def rng_words(gen) -> int:
    """64-bit words a Philox generator has handed out, read from its counter.

    Philox fills a four-word buffer per counter step, so after ``c``
    steps with ``p`` words of the last buffer used, ``4 c - 4 + p`` words
    were consumed.
    """
    state = gen.bit_generator.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter - 4 + int(state["buffer_pos"]) if counter else 0


def pass_metrics(tracer: Tracer, workload, gens: list, rows) -> dict[str, float]:
    """Every per-layer metric of one traced pass whose source span exists.

    ``tracer.spans[0]`` must be the benchmark's own span around the pass.
    """
    selfs = tracer.self_seconds()
    by: dict[str, list] = defaultdict(list)
    for s in tracer.spans:
        by[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in by[name])

    def matching(name: str, tag: dict) -> list:
        return [s for s in by[name] if all(s.tag.get(k) == v for k, v in tag.items())]

    def us(name: str, **tag) -> float:
        return _median([s.seconds * 1e6 for s in matching(name, tag)])

    def flops(name: str, **tag) -> float:
        return float(max((s.tag.get("flops", 0) for s in matching(name, tag)), default=0))

    m: dict[str, float] = {}
    points = [s.seconds for s in by["ber.sweep_point"]]
    kern = by["kernels.count_bit_errors"]
    m["ber.mc_self_s"] = sum(
        selfs[id(s)]
        for name in ("ber.sweep_point", "ber.draw", "ber.point_rng")
        for s in by[name]
    )
    m["ber.draw_s"] = total("ber.draw")
    drawn = workload.n_symbols * len(gens)
    words = sum(rng_words(g) for g in gens)
    m["ber.rng_words_per_symbol"] = words / drawn if drawn else 0.0
    m["ber.symbols"] = float(sum(s.tag.get("symbols", 0) for s in kern))
    m["ber.bit_errors"] = float(sum(s.tag.get("errors", 0) for s in kern))
    m["ber.zero_error_rows"] = float(sum(1 for s in kern if s.tag.get("errors") == 0))
    m["ber.block_mb"] = max((s.tag.get("bytes", 0) for s in kern), default=0) / 1e6
    m["ber.point_s.p50"] = _median(points)
    m["ber.point_s.max"] = max(points, default=0.0)
    sweep_wall = total("ber.sweep")
    busy = workload.workers * sweep_wall
    m["ber.worker_busy_frac"] = sum(points) / busy if busy else 0.0
    m["ber.ci95_rel"] = ci95_rel(rows) or 0.0
    m["kernels.count_bit_errors_s"] = total("kernels.count_bit_errors")
    for n in SIZES:
        m[f"scenario.build_scene_us.n{n}"] = us("scenario.build_scene", n=n)
        for meth in BEAMFORMERS:
            if meth == "mallory":
                name, tag = "beamformers.mallory", {"n": n}
            else:
                name, tag = "beamformers.compute", {"n": n, "method": meth}
            m[f"beamformers.{meth}_us.n{n}"] = us(name, **tag)
            m[f"beamformers.{meth}_flops.n{n}"] = flops(name, **tag)
        lc, mmse = m[f"beamformers.lc_mmse_us.n{n}"], m[f"beamformers.mmse_us.n{n}"]
        m[f"beamformers.lc_mmse_over_mmse.n{n}"] = lc / mmse if mmse else 0.0
    m["metrics.rate_point_us"] = us("metrics.rate_point")
    m["complexity.formula_flops_us"] = us("complexity.formula_flops")
    m["cli.load_config_ms"] = total("cli.load_config") * 1e3
    m["cli.write_csv_ms"] = total("cli.write_csv") * 1e3
    m["cli.print_summary_ms"] = total("cli.print_summary") * 1e3
    m["svgplot.save_line_plot_ms"] = total("svgplot.save_line_plot") * 1e3
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in tracer.spans[1:]:
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += selfs[id(s)]
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    root = tracer.spans[0]
    m["trace.traced_wall_s"] = root.seconds
    m["trace.unattributed_s"] = selfs[id(root)]
    m["trace.unattributed_frac"] = selfs[id(root)] / root.seconds
    return {
        name: m[name]
        for name, _, source in PER_LAYER
        if name in m and source not in tracer.missing
    }
