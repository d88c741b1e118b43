"""What the benchmark under `bench/` needs of the program still exists.

`bench/tracing.py` wraps the calls it traces at the place the program looks
them up (`owner.__dict__[attribute]`), and `bench/run.py` builds each
workload by `replace()`-ing config fields.  A renamed or deleted name fails
here in milliseconds rather than in `bench/selfcheck.py`.  The traced check
of each workload also runs here at its tiny settings (about 1 s each), so a
change to what it reads of a run (the artifacts, `embed_all`,
`EncoderBlock.attention`, `cross_entropy_loss`) fails here too.  The bench
files are imported, never edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fscil.config import RunConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class body runs
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_where_the_tracer_looks_it_up():
    targets = bench_module("tracing")._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing, missing
    assert all(callable(owner.__dict__[attr]) for owner, attr, _, _ in targets)


@pytest.mark.parametrize("tiny", [False, True])
def test_every_workload_config_builds(tiny):
    run = bench_module("run")
    for name in run.WORKLOADS:
        assert isinstance(run.workload_config(name, tiny=tiny), RunConfig)  # replace() raises TypeError for a field that is gone


@pytest.mark.parametrize("name", sorted(bench_module("run").WORKLOADS))
def test_the_traced_check_of_every_workload_passes_at_tiny_settings(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports tracing.py by its bare name
    run = bench_module("run")
    result = run.measure_traced(name, 0, tiny=True)
    assert result["failed"] == 0, result["problems"]
    assert set(result["metrics"]) == set(run.metric_units(1)) and len(result["metrics"]) == 62
