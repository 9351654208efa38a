"""The recorded golden reports of the benchmark, replayed in the suite.

perfbench/golden.json holds the digest of each of the first seed-1
reports of every workload. Each payload is sent through ``cli.run`` by
perfbench/run.py's own ``call_cli`` and hashed by its ``digest``, so this
test and the benchmark cannot drift apart. Nothing under perfbench/ is
written.
"""

import importlib.util
from pathlib import Path

import pytest

from p1moduli import cli

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload",
                         ["analyze", "conic", "counterexample", "equivalence"])
def test_golden_reports_reproduce(bench, workload):
    golden = bench.load_golden(workload, bench.DEFAULT_SEED)
    assert golden, f"no golden digests recorded for {workload}"
    ops = bench.gen.take(workload, bench.DEFAULT_SEED, len(golden))
    for i, (op, want) in enumerate(zip(ops, golden)):
        got = bench.digest(*bench.call_cli(cli, op.command, op.payload))
        assert got == want, f"{workload} report {i} ({op.kind}) changed"
