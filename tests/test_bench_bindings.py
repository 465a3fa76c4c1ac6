"""The benchmark tracer patches qspeech attributes by name; installing it
here makes a rename fail in the unit tests, not only in a benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_and_uninstalls_against_current_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(object())        # a workload with no trainer attached
        patched = list(tracer._patched)
    except BaseException:
        # a failed install leaves the patches made before the failure
        for owner, attr, original in reversed(tracer._patched):
            setattr(owner, attr, original)
        raise
    tracer.uninstall()
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
