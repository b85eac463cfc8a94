"""The traced benchmark (bench/tracing.py) wraps blockbench functions by
module and name, and times fv, values_of and f_from_values directly.
This test runs it, in a fresh process, on one tiny `run` per
single-objective variant and one tiny `bi`, so a rename that would break
the traced benchmark fails here."""

import json
import subprocess
import sys
from pathlib import Path

from blockbench import VARIANTS

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, json, os, sys
root, tmp = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
import tracing
from run import ORACLE_SPECS, import_times
from blockbench import VARIANTS, spec_from_dict
from blockbench.cli import main

tracer = tracing.Tracer()
tracer.install()
values = tracing.micro_metrics(
    {name: spec_from_dict(d) for name, d in ORACLE_SPECS.items()})
tracer.start_round()
configs = {f"run-{v}": ("run", {"problem": "F10", "n": 8, "m": 2, "algo": v,
                                 "runs": 1, "budget": 200, "seed": 1})
           for v in VARIANTS}
configs["bi"] = ("bi", {"problem": "BF4", "n": 8, "m": 2, "runs": 1,
                        "pop_size": 4, "seed": 1})
codes = []
for name, (command, cfg) in configs.items():
    path = os.path.join(tmp, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    with contextlib.redirect_stdout(sys.stderr):
        codes.append(main([command, "-c", path, "-o",
                           os.path.join(tmp, name)]))
values.update(tracer.metrics())
values.update(import_times(dict(os.environ,
                                PYTHONPATH=os.path.join(root, "src"))))
print(json.dumps({"codes": codes, "values": values}))
"""

# bench/run.py computes these two from the output tree and the rounds
RUNNER_METRICS = {"harness.bytes_written", "trace.wall_s"}


def test_traced_benchmark_finds_every_layer(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT),
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * (len(VARIANTS) + 1)
    values = got["values"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in bench["per_layer"]} - RUNNER_METRICS
    assert sorted(wanted - set(values)) == []
    # the wrapped names are the ones the commands call
    for name in ("problems.known_optimum_calls",
                 "moea.non_dominated_sort_calls",
                 "moea.crowding_distance_calls",
                 "moea.environmental_selection_calls",
                 "moea.hypervolume_2d_calls", "moea.try_insert_calls",
                 "problems.fv_ns.F5", "problems.fv_ns.BF4-1",
                 "problems.f_from_values_ns.F10"):
        assert values[name] > 0, name
    for algo in VARIANTS:
        assert values[f"soea.us_per_eval.{algo}"] > 0, algo
    for algo in ("semo", "gsemo", "nsga2", "smsemoa", "moead"):
        assert values[f"moea.us_per_eval.{algo}"] > 0, algo
