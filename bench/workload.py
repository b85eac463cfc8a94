"""One workload process: set up, then run whole rounds of the plan.

Usage: python3 bench/workload.py PLAN RESULT [--seconds S] [--trace]
                                 [--setup-only]

Set-up is the interpreter start, ``import blockbench`` and reading the
plan the benchmark generated. The process then writes one round's
config files at a time and times the round from its first
``blockbench.cli.main`` call to its last return; it starts rounds until
S seconds have passed since the first one began, and writes the timings
and exit codes to RESULT as JSON. With --setup-only it prints the
monotonic time at which set-up ended and exits. With --trace the layer
wrappers are installed and the microsecond-scale calls timed before the
first round.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import blockbench.cli


def _call(argv, log) -> int:
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            return blockbench.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is a failed command, logged
        traceback.print_exc(file=log)
        return 1


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    ready = time.monotonic()
    if "--setup-only" in argv:
        print(repr(ready))
        return 0
    seconds = float(argv[argv.index("--seconds") + 1])
    tracer = None
    out = {"ready": ready, "rounds": []}
    if "--trace" in argv:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        out["micro"] = tracing.micro_metrics(
            {name: blockbench.spec_from_dict(d)
             for name, d in plan["oracle_specs"].items()})
    log_path = Path(result_path).with_suffix(".log")
    with open(log_path, "w", encoding="utf-8") as log:
        first = None
        for rnd in plan["rounds"]:
            if first is not None and time.perf_counter() - first >= seconds:
                break
            for name, text in rnd["files"].items():
                path = Path(name)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
            if tracer is not None:
                tracer.start_round()
            t0 = time.perf_counter()
            if first is None:
                first = t0
            codes = [_call(cmd["argv"], log) for cmd in rnd["commands"]]
            out["rounds"].append({"wall_s": time.perf_counter() - t0,
                                  "codes": codes})
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(plan["trace_path"])
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
