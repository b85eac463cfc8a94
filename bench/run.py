"""Block-Bench benchmark: one workload per invocation, one JSON result.

Usage (from the repository root):

    python3 bench/run.py --workload so_suite --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md): so_suite, mo_bi, oracle. The seed fixes
every generated input; the program sees only the configs and command
lines generated from it. A fresh workload process drives
``blockbench.cli.main`` with ``--workers 1`` for whole rounds until the
given seconds have passed; every output is then checked against the
independent reference in bench/reference.py. The last line printed is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import reference

HERE = Path(__file__).resolve().parent
MAX_ROUNDS = 120
SETUP_PROBES = 10     # extra set-up-only processes; setup_s is the median
IMPORTTIME_PROBES = 3
DEADLINE_S = 170      # the whole invocation must end well inside 180 s

# so_suite: table2 at n=40, m=4 with a budget that most cells exhaust,
# so a round's evaluations barely depend on the seed (at the paper's
# 2 000 000 they ranged 1.1M-2.5M over eight seeds), then mu_ga with
# diversity on four Jump_3 blocks at a fixed budget it does not reach.
T2_RUNS, T2_BUDGET = 2, 10_000
MU_RUNS, MU_BUDGET = 2, 20_000
T2_ROWS = ("OneMax", "LeadingOnes", "Jump_3", "Epistasis", "DBP (F5)",
           "GCP (F10)")
T2_ALGOS = ("oll_ga", "ea", "two_rate", "var_ea", "fga")
# mo_bi: every multi-objective algorithm on BF4 at n^3 evaluations.
MO_ALGOS = ("semo", "gsemo", "nsga2", "smsemoa", "moead")
MO_BUDGET, MO_POP, MO_RUNS = 64_000, 40, 1
# oracle: non-monotone inline instances small enough for the 2^16 scan
# that known_optimum repeats for every run.
ORACLE_RUNS, ORACLE_BUDGET = 4, 100


def _blk(family, k=None, nu=None):
    return {"family": family, "k": k, "nu": nu}


ORACLE_SPECS = {
    # gates on the DAG 0->2, 1->2, 1->3, 2->3; block 1 opens its
    # dependants only while it stays at or below 1 ("le")
    "oracle-gcp": {
        "kind": "GCP", "n": 16, "m": 4,
        "blocks": [_blk("onemax"), _blk("leadingones"), _blk("jump", k=2),
                   _blk("epistasis", nu=2)],
        "weights": [1, 1, 2, 1], "constants": [0, 0, 0, 0],
        "dependencies": [[0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1],
                         [0, 0, 0, 0]],
        "thresholds": [3, 1, 4, 0], "gate_dirs": ["ge", "le", "ge", "ge"],
        "name": "oracle-gcp"},
    # additive with a negative product between blocks 2 and 0
    "oracle-dbp": {
        "kind": "DBP", "n": 16, "m": 4,
        "blocks": [_blk("onemax"), _blk("jump", k=2), _blk("leadingones"),
                   _blk("epistasis", nu=3)],
        "weights": [1, 1, 1, 1], "constants": [0, 0, 0, 0],
        "dependencies": [[0, 0, 0, 0], [1, 0, 0, 0], [-2, 0, 0, 0],
                         [0, 0.5, 0, 0]],
        "thresholds": None, "gate_dirs": None, "name": "oracle-dbp"},
}


@dataclass
class Command:
    argv: list
    ops: list
    check: Callable[[], tuple]


def round_seed(workload: str, seed: int, r: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{r}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _run_command(cfg_path: Path, cfg: dict, out: Path, files: dict):
    files[str(cfg_path)] = json.dumps(cfg, indent=2) + "\n"
    return ["run", "-c", str(cfg_path), "-o", str(out), "--workers", "1"]


def so_suite_round(seed, cfg_dir: Path, out: Path, files: dict):
    t2, mu = out / "table2", out / "mu_ga"
    cfg = {"problem": "F3", "n": 40, "m": 4, "algo": "mu_ga",
           "diversity": True, "runs": MU_RUNS, "budget": MU_BUDGET,
           "seed": seed}
    return [
        Command(["table2", "--n", "40", "--m", "4", "--runs", str(T2_RUNS),
                 "--seed", str(seed), "--budget", str(T2_BUDGET),
                 "-o", str(t2), "--workers", "1"],
                [f"{row}/{a}#{k}" for row in T2_ROWS for a in T2_ALGOS
                 for k in range(T2_RUNS)],
                lambda: checks.check_table2(t2, T2_RUNS, T2_BUDGET)),
        Command(_run_command(cfg_dir / "mu_ga.json", cfg, mu, files),
                [f"run#{i}" for i in range(MU_RUNS)],
                lambda: checks.check_run_dir(mu, reference.suite("F3", 40, 4),
                                             MU_BUDGET, MU_RUNS)),
    ]


def mo_bi_round(seed, cfg_dir: Path, out: Path, files: dict):
    cfg = {"problem": "BF4", "n": 40, "m": 4, "algos": list(MO_ALGOS),
           "runs": MO_RUNS, "budget": MO_BUDGET, "pop_size": MO_POP,
           "seed": seed}
    path = cfg_dir / "bi.json"
    files[str(path)] = json.dumps(cfg, indent=2) + "\n"
    bi = out / "bi"
    return [Command(["bi", "-c", str(path), "-o", str(bi), "--workers", "1"],
                    [f"{a}#{i}" for a in MO_ALGOS for i in range(MO_RUNS)],
                    lambda: checks.check_bi_dir(bi, reference.bf4(40, 4),
                                                MO_ALGOS, MO_RUNS,
                                                MO_BUDGET))]


def oracle_round(seed, cfg_dir: Path, out: Path, files: dict):
    cmds = []
    for k, (name, algo) in enumerate((("oracle-gcp", "ea"),
                                      ("oracle-dbp", "two_rate"))):
        spec = ORACLE_SPECS[name]
        cfg = {"problem": spec, "n": spec["n"], "m": spec["m"], "algo": algo,
               "runs": ORACLE_RUNS, "budget": ORACLE_BUDGET, "seed": seed + k}
        dest = out / name

        def check(dest=dest, spec=spec):
            return checks.check_run_dir(dest, spec, ORACLE_BUDGET, ORACLE_RUNS)
        cmds.append(Command(_run_command(cfg_dir / f"{name}.json", cfg, dest,
                                         files),
                            [f"run#{i}" for i in range(ORACLE_RUNS)], check))
    ones, svg, dist = out / "F10_ones.csv", out / "F10_ones.svg", out / "F9.csv"
    cmds.append(Command(
        ["landscape", "--problem", "F10", "--axis", "ones", "--n", "40",
         "--m", "4", "-o", str(ones), "--svg", str(svg)], ["export"],
        lambda: checks.check_landscape_ones(ones, reference.suite("F10", 40, 4),
                                            svg)))
    cmds.append(Command(
        ["landscape", "--problem", "F9", "--axis", "distance", "--n", "40",
         "--m", "4", "-o", str(dist)], ["export"],
        lambda: checks.check_landscape_distance(dist,
                                                reference.suite("F9", 40, 4))))
    return cmds


WORKLOADS = {"so_suite": so_suite_round, "mo_bi": mo_bi_round,
             "oracle": oracle_round}


def artifact_digest(out: Path) -> str:
    """SHA-256 over the relative paths and bytes of every output file."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _bytes_under(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def import_times(env) -> dict[str, float]:
    """Cumulative import time of blockbench and of numpy, in ms, from
    ``python -X importtime`` (median of a few processes)."""
    samples = {"blockbench": [], "numpy": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import blockbench"], env=env, text=True,
                              capture_output=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1000)
    return {f"setup.import_{k}_ms": statistics.median(v)
            for k, v in samples.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "blockbench" / "cli.py").is_file():
        print(f"no blockbench sources under {root / 'src'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = root / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = root / ".bench_out" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, root, work, trace_dir, wanted, began)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, root, work, trace_dir, wanted, began) -> int:
    build = WORKLOADS[args.workload]
    rounds, plan_rounds = [], []
    for r in range(MAX_ROUNDS):
        files: dict = {}
        out = work / "out" / f"r{r:03d}"
        cmds = build(round_seed(args.workload, args.seed, r),
                     work / "cfg" / f"r{r:03d}", out, files)
        rounds.append((out, cmds))
        plan_rounds.append({"files": files,
                            "commands": [{"argv": c.argv} for c in cmds]})
    work.mkdir(parents=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.csv"
    plan = {"rounds": plan_rounds, "oracle_specs": ORACLE_SPECS,
            "trace_path": str(trace_path)}
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    child = [sys.executable, str(HERE / "workload.py"), str(plan_path),
             str(result_path)]
    setups = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(child + ["--setup-only"], env=env, text=True,
                              capture_output=True, timeout=60)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        setups.append(float(proc.stdout.strip()) - t0)

    cmd = child + ["--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, text=True, capture_output=True,
                              timeout=max(30.0, DEADLINE_S - (t0 - began)))
    except subprocess.TimeoutExpired:
        print("workload process timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result_path.is_file():
        print(proc.stderr, file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    setups.append(result["ready"] - t0)

    attempted = failed = 0
    correct = True
    walls, rates = [], []
    done = result["rounds"]
    for (out, cmds), timing in zip(rounds, done):
        evaluations = 0
        for c, code in zip(cmds, timing["codes"]):
            attempted += len(c.ops)
            if code != 0:
                failed += len(c.ops)
                print(f"FAIL {c.argv[0]} exited {code}", file=sys.stderr)
                continue
            try:
                fails, evals = c.check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                fails, evals = {"output": f"unreadable: {exc!r}"}, 0
            evaluations += evals
            for op, msg in fails.items():
                print(f"FAIL {c.argv[0]} {op}: {msg}", file=sys.stderr)
            bad = set(fails)
            if bad - set(c.ops):
                bad = set(c.ops)
            failed += len(bad)
            correct = correct and not bad
        walls.append(timing["wall_s"])
        rates.append(evaluations / timing["wall_s"])
    digest = artifact_digest(rounds[0][0])

    values = {
        "wall_s": statistics.median(walls),
        "evals_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    if args.trace:
        values = dict(result["layers"])
        values.update(result["micro"])
        values.update(import_times(env))
        values["harness.bytes_written"] = statistics.fmean(
            _bytes_under(out) for out, _ in rounds[:len(done)])
        values["trace.wall_s"] = statistics.median(walls)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(done)} rounds, {attempted} operations attempted, "
          f"{failed} failed; round wall_s min {min(walls):.4g} median "
          f"{statistics.median(walls):.4g} max {max(walls):.4g}")
    print(f"digest {args.workload} seed {args.seed} round 0 sha256 {digest}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
