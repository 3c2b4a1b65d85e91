"""What the benchmark in bench/ needs from the package: every item's argv
parses, the tracer finds every call site it wraps, and a traced item
reaches every layer its workload requires."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import flatcert.cli as cli

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_bench_items_parse(name, tmp_path):
    warmup, items = workloads.build_items(name, 1, tmp_path, 2)
    parser = cli.build_parser()
    for item in [warmup, *items]:
        args = parser.parse_args(list(item.argv))
        assert callable(args.run), item.argv


def test_tracer_finds_every_call_site():
    with tracing.traced(tracing.Tracer()):
        pass


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_warm_up_reaches_required_layers(name, tmp_path):
    warmup, _ = workloads.build_items(name, 1, tmp_path, 2)
    tracer = tracing.Tracer()
    with tracing.traced(tracer), tracer.item(warmup.key), \
            contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(warmup.argv))
    seen = tracing.aggregate(tracer)
    assert [s for s in workloads.REQUIRED_SPANS[name] if s not in seen or seen[s].calls == 0] == []
