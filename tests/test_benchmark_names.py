"""Every program name that the benchmark's tracer wraps still exists.

``perfbench`` times each layer by replacing module attributes of
``dmrbf`` (``ber.build_scene``, ``cli.write_csv`` and the like) for one
traced pass.  A name that was renamed or removed is only listed in
``Tracer.missing``, and its per-layer metric silently goes; this test
makes that a failure.  It reads ``perfbench/`` and changes nothing there.
"""

from pathlib import Path

import dmrbf
import dmrbf.cli  # noqa: F401 - the CLI workloads wrap names under dmrbf.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        tracer = Tracer()
        try:
            workload.wrap(tracer, dmrbf, lambda _: {})
        finally:
            tracer.unwrap()
        assert not tracer.missing, (name, sorted(tracer.missing))
