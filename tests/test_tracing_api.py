"""The traced benchmark (bench/tracing.py) wraps blockbench functions by
module and name, and times fv, values_of and f_from_values directly.
This test runs it, in a fresh process, on one tiny `run` and one tiny
`bi`, so a rename that would break the traced benchmark fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, json, os, sys
root, tmp = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
import tracing
from run import ORACLE_SPECS, import_times
from blockbench import spec_from_dict
from blockbench.cli import main

tracer = tracing.Tracer()
tracer.install()
values = tracing.micro_metrics(
    {name: spec_from_dict(d) for name, d in ORACLE_SPECS.items()})
tracer.start_round()
configs = {"run": {"problem": "F10", "n": 8, "m": 2, "algo": "ea",
                   "runs": 1, "budget": 200, "seed": 1},
           "bi": {"problem": "BF4", "n": 8, "m": 2, "runs": 1,
                  "pop_size": 4, "seed": 1}}
codes = []
for command, cfg in configs.items():
    path = os.path.join(tmp, command + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    with contextlib.redirect_stdout(sys.stderr):
        codes.append(main([command, "-c", path, "-o",
                           os.path.join(tmp, command)]))
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
    assert got["codes"] == [0, 0]
    values = got["values"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in bench["per_layer"]} - RUNNER_METRICS
    assert sorted(wanted - set(values)) == []
    # the wrapped names are the ones the commands call
    for name in ("problems.known_optimum_calls", "soea.us_per_eval.ea",
                 "moea.non_dominated_sort_calls",
                 "moea.crowding_distance_calls",
                 "moea.environmental_selection_calls",
                 "moea.hypervolume_2d_calls", "moea.try_insert_calls",
                 "problems.fv_ns.F5", "problems.fv_ns.BF4-1",
                 "problems.f_from_values_ns.F10"):
        assert values[name] > 0, name
    for algo in ("semo", "gsemo", "nsga2", "smsemoa", "moead"):
        assert values[f"moea.us_per_eval.{algo}"] > 0, algo
