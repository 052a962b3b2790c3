"""Every program name that the benchmark's tracer wraps still exists and
is still called.

``perfbench`` times each layer by replacing module attributes of
``dmrbf`` (``ber.build_scene``, ``cli.write_csv`` and the like) for one
traced pass.  A name that was renamed or removed is only listed in
``Tracer.missing``, and a name that still exists but is no longer called
records no span; either way its per-layer metric silently goes or reads
0.  These tests make both a failure.  They read ``perfbench/`` and change
nothing there.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import dmrbf
import dmrbf.cli  # noqa: F401 - the CLI workloads wrap names under dmrbf.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: One short pass of each workload: few symbols, and n = 4 at two SNRs.
SHORT = {
    "fig4_n4": {"n_symbols": 2000},
    "fig3_n16_w2": {"n_symbols": 2000},
    "rates_sizes": {"sizes": (4,), "snr_db": (0.0, 10.0)},
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


def test_every_wrapped_name_exists(perfbench):
    spans, workloads = perfbench
    for name, workload in workloads.WORKLOADS.items():
        tracer = spans.Tracer()
        try:
            workload.wrap(tracer, dmrbf, lambda _: {})
        finally:
            tracer.unwrap()
        assert not tracer.missing, (name, sorted(tracer.missing))


@pytest.mark.parametrize("name", sorted(SHORT))
def test_every_wrapped_name_fires(perfbench, name, tmp_path):
    spans, workloads = perfbench
    assert set(SHORT) == set(workloads.WORKLOADS)

    class Recorder(spans.Tracer):
        """A tracer that also keeps the span name of every wrap."""

        def __init__(self):
            super().__init__()
            self.wrapped = set()

        def wrap(self, owner, attr, span_name, *args, **kwargs):
            self.wrapped.add(span_name)
            super().wrap(owner, attr, span_name, *args, **kwargs)

    workload = replace(workloads.WORKLOADS[name], **SHORT[name])
    workload.prepare(tmp_path)
    tracer = Recorder()
    workload.wrap(tracer, dmrbf, lambda _: {})
    try:
        out = workload.run_pass(dmrbf, 0, tmp_path)
    finally:
        tracer.unwrap()
    assert out.error is None, out.error
    assert workloads.check_pass(workload, out) == 0, out.error
    fired = {span.name for span in tracer.spans}
    assert tracer.wrapped - fired == set()
