"""Experiment orchestration: configuration files, batch runs with
per-run CSV logs, aggregation into summary JSON, the five-algorithm
comparison table, landscape data exports, and SVG figure rendering.

Reproducibility contract: (config, master seed) determines every output
byte. Run workers derive their stream from the master seed and the run
index, files are named by run index, and no output embeds a timestamp,
so worker count and scheduling order never change the artifacts.

CSV schema: run logs use the header
    run,evals,best_f,v1..vm          (single objective)
    run,evals,best_f,v1..vm,y1,y2,hv (bi-objective; best_f duplicates hv)
with one row per checkpoint at or below the evaluations the run used.
Checkpoints are powers of 1.15 rounded and deduplicated, always
including 1 and the budget; a run that stops early gets a final row at
its last evaluation. Single-objective block columns carry the incumbent
solution's block values; bi-objective block columns carry the best
value seen per block, since an archive has no single incumbent.

Mean evaluations-to-target counts unsuccessful runs at the full budget;
that convention is recorded in every summary file.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import landscape, svgplot
from .moea import MULTI_RUNNERS
from .problems import (BiObjectiveInstance, InstanceSpec, biobjective_ids,
                       known_optimum, make_biobjective, make_suite_instance,
                       spec_from_dict, spec_to_dict, suite_ids)
from .rng import RandomSource
from .soea import SOConfig, VARIANTS, run_single

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "checkpoint_schedule",
    "aggregate_runs",
    "cmd_run",
    "cmd_bi",
    "cmd_table2",
    "cmd_landscape",
    "cmd_plot",
    "resolve_workers",
    "MULTI_ORDER",
    "TABLE2_ROWS",
    "TABLE2_COLUMNS",
]

MULTI_ORDER = ("semo", "gsemo", "nsga2", "smsemoa", "moead")

# Comparison-table layout: (label, suite id, composite). Four
# single-block rows, then the mixed composite of each kind, which is
# built with the table's block count m.
TABLE2_ROWS = (
    ("OneMax", "F1", False),
    ("LeadingOnes", "F2", False),
    ("Jump_3", "F3", False),
    ("Epistasis", "F4", False),
    ("DBP (F5)", "F5", True),
    ("GCP (F10)", "F10", True),
)
TABLE2_COLUMNS = ("oll_ga", "ea", "two_rate", "var_ea", "fga")

DEFAULT_BUDGET = 100_000


class ConfigError(ValueError):
    """Unparseable or invalid experiment configuration."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


# algorithm knob -> (type test, what the error message asks for)
_SO_FIELDS = {
    "lam": (_is_int, "an integer"),
    "p": (lambda v: v is None or _is_num(v), "a number or null"),
    "beta": (_is_num, "a finite number"),
    "f_var": (_is_num, "a finite number"),
    "f_oll": (_is_num, "a finite number"),
    "mu": (_is_int, "an integer"),
    "p_c": (_is_num, "a finite number"),
    "diversity": (lambda v: isinstance(v, bool), "true or false"),
}
_KNOWN_KEYS = frozenset(("problem", "n", "m", "algo", "algos", "runs",
                         "budget", "seed", "pop_size", "out",
                         "checkpoints") + tuple(_SO_FIELDS))


@dataclass
class ExperimentConfig:
    """One experiment: a problem, an algorithm (or the multi-objective
    set), a run count, a budget, and a master seed."""

    problem: str | InstanceSpec
    n: int
    m: int
    algo: str = "ea"
    algos: tuple[str, ...] = ()
    runs: int = 50
    budget: int | None = None
    seed: int = 1
    pop_size: int | None = None
    out: str | None = None
    so: SOConfig = field(default_factory=SOConfig)
    checkpoints: tuple[int, ...] | None = None
    raw_text: str = field(default="", repr=False, compare=False)

    @property
    def label(self) -> str:
        if isinstance(self.problem, str):
            return self.problem
        return self.problem.name or "custom"

    def out_dir(self, suffix: str) -> Path:
        if self.out:
            return Path(self.out)
        return Path("results") / f"{self.label}_{suffix}"

    def to_dict(self) -> dict:
        d = {
            "problem": (self.problem if isinstance(self.problem, str)
                        else spec_to_dict(self.problem)),
            "n": self.n, "m": self.m, "algo": self.algo,
            "runs": self.runs, "budget": self.budget, "seed": self.seed,
        }
        if self.algos:
            d["algos"] = list(self.algos)
        if self.pop_size is not None:
            d["pop_size"] = self.pop_size
        # the output directory is wherever the files live; embedding it
        # would make otherwise-identical experiments differ byte-wise
        if self.checkpoints is not None:
            d["checkpoints"] = list(self.checkpoints)
        so = self.so
        d.update(lam=so.lam, p=so.p, beta=so.beta, f_var=so.f_var,
                 f_oll=so.f_oll, mu=so.mu, p_c=so.p_c, diversity=so.diversity)
        return d


def _problem_error(path: str, pid: str) -> ConfigError:
    return ConfigError(
        f"{path}: unknown problem id {pid!r}; valid ids: "
        f"{', '.join(suite_ids())} (single objective), "
        f"{', '.join(biobjective_ids())} (bi-objective)")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, filling defaults."""
    path = str(path)
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")

    problem = data.get("problem")
    if problem is None:
        raise ConfigError(f"{path}: 'problem' is required")
    if not all(_is_int(data[k]) for k in ("n", "m") if k in data):
        raise ConfigError(f"{path}: n and m must be integers")
    if isinstance(problem, dict):
        try:
            problem = spec_from_dict(problem)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad inline problem: {exc}") from None
        n, m = problem.n, problem.m
        if data.get("n", n) != n or data.get("m", m) != m:
            raise ConfigError(f"{path}: n/m disagree with the inline problem")
    elif isinstance(problem, str):
        if problem not in suite_ids() and problem not in biobjective_ids():
            raise _problem_error(path, problem)
        if "n" not in data:
            raise ConfigError(f"{path}: 'n' is required")
        n = data["n"]
        m = data.get("m", 1)
        try:
            if problem in suite_ids():
                make_suite_instance(problem, n, m)
            else:
                make_biobjective(problem, n, m)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    else:
        raise ConfigError(f"{path}: 'problem' must be an id or an object")

    algo = data.get("algo", "ea")
    if algo not in VARIANTS:
        raise ConfigError(f"{path}: unknown algo {algo!r}; "
                          f"valid: {', '.join(VARIANTS)}")
    algos = data.get("algos", [])
    if not (isinstance(algos, list) and all(isinstance(a, str) for a in algos)):
        raise ConfigError(f"{path}: algos must be a list of algorithm names")
    algos = tuple(algos)
    for i, a in enumerate(algos):
        if a not in MULTI_RUNNERS:
            raise ConfigError(f"{path}: unknown multi-objective algo {a!r}; "
                              f"valid: {', '.join(MULTI_ORDER)}")
        if a in algos[:i]:  # its runs would share one output directory
            raise ConfigError(f"{path}: algos names {a!r} twice")

    runs = data.get("runs", 50)
    if not _is_int(runs) or runs < 1:
        raise ConfigError(f"{path}: runs must be a positive integer")
    budget = data.get("budget")
    if budget is not None and (not _is_int(budget) or budget < 1):
        raise ConfigError(f"{path}: budget must be a positive integer")
    seed = data.get("seed", 1)
    if not _is_int(seed):
        raise ConfigError(f"{path}: seed must be an integer")
    pop_size = data.get("pop_size")
    if pop_size is not None and (not _is_int(pop_size) or pop_size < 2):
        raise ConfigError(f"{path}: pop_size must be an integer >= 2")
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"{path}: out must be a string")
    checkpoints = data.get("checkpoints")
    if checkpoints is not None:
        if (not isinstance(checkpoints, list) or not checkpoints
                or any(not _is_int(c) or c < 1 for c in checkpoints)
                or checkpoints != sorted(set(checkpoints))):
            raise ConfigError(f"{path}: checkpoints must be strictly "
                              f"increasing positive integers")
        checkpoints = tuple(checkpoints)

    for k, (ok, want) in _SO_FIELDS.items():
        if k in data and not ok(data[k]):
            raise ConfigError(f"{path}: {k} must be {want}")
    so = SOConfig(variant=algo, **{k: data[k] for k in _SO_FIELDS if k in data})
    try:
        so.check(n)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    return ExperimentConfig(problem=problem, n=n, m=m, algo=algo, algos=algos,
                            runs=runs, budget=budget, seed=seed,
                            pop_size=pop_size, out=out, so=so,
                            checkpoints=checkpoints, raw_text=text)


def resolve_instance(cfg: ExperimentConfig) -> InstanceSpec:
    if isinstance(cfg.problem, InstanceSpec):
        return cfg.problem
    if cfg.problem in suite_ids():
        return make_suite_instance(cfg.problem, cfg.n, cfg.m)
    raise ConfigError(f"{cfg.problem!r} is not a single-objective problem; "
                      f"valid ids: {', '.join(suite_ids())}")


def resolve_bi(cfg: ExperimentConfig) -> BiObjectiveInstance:
    if isinstance(cfg.problem, str) and cfg.problem in biobjective_ids():
        return make_biobjective(cfg.problem, cfg.n, cfg.m)
    raise ConfigError(f"{cfg.problem!r} is not a bi-objective problem; "
                      f"valid ids: {', '.join(biobjective_ids())}")


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the CLI flag (default 1; below 1 is an error),
    capped by BLOCKBENCH_THREADS, which must be a positive integer when
    set."""
    w = 1 if requested is None else requested
    if w < 1:
        raise ConfigError(f"--workers must be >= 1, got {w}")
    cap = os.environ.get("BLOCKBENCH_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ConfigError(f"BLOCKBENCH_THREADS must be a positive "
                              f"integer, got {cap!r}")
        w = min(w, limit)
    return w


def checkpoint_schedule(budget: int) -> tuple[int, ...]:
    """Log-spaced evaluation indices: rounded powers of 1.15, plus 1 and
    the budget itself, deduplicated and sorted."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pts = {1, budget}
    v = 1.0
    while v < budget:
        v *= 1.15
        r = round(v)
        if r <= budget:
            pts.add(r)
    return tuple(sorted(pts))


def _num(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.10g}"


def _cell(x):
    return _num(x) if isinstance(x, (int, float)) else x


# _cell by exact class for the common ones; the float format is _num's
_CELL = {float: "{:.10g}".format, int: int.__str__, str: str.__str__,
         bool: _num}


def _write_csv(path, header, rows) -> None:
    """rows may be any iterable, a generator included; it is consumed once."""
    fmt = _CELL.get
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([fmt(type(c), _cell)(c) for c in row] for row in rows)


def _step_rows(traj, cps, evals_used):
    """Sample a strictly-improving trajectory at the checkpoints, plus a
    final row when the run stopped between checkpoints."""
    out = []
    idx = 0
    last = 0
    for cp in cps:
        if cp > evals_used:
            break
        while idx + 1 < len(traj) and traj[idx + 1][0] <= cp:
            idx += 1
        out.append((cp,) + tuple(traj[idx][1:]))
        last = cp
    if last != evals_used:
        while idx + 1 < len(traj) and traj[idx + 1][0] <= evals_used:
            idx += 1
        out.append((evals_used,) + tuple(traj[idx][1:]))
    return out


def _echo_config(cfg: ExperimentConfig, outdir: Path) -> None:
    text = cfg.raw_text or (json.dumps(cfg.to_dict(), indent=2,
                                       sort_keys=True) + "\n")
    (outdir / "config.json").write_text(text, encoding="utf-8")


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(fn, tasks)


def _so_worker(args):
    cfg, budget, target, cps, outdir, run_index = args
    spec = resolve_instance(cfg)
    rng = RandomSource(cfg.seed).derive(run_index)
    res = run_single(cfg.so, spec, budget, rng, target=target)
    rows = _step_rows([(e, f, V) for e, f, V in res.trajectory],
                      cps, res.evaluations_used)
    header = ["run", "evals", "best_f"] + [f"v{i + 1}" for i in range(spec.m)]
    _write_csv(Path(outdir) / f"run_{run_index:04d}.csv", header,
               [(run_index, cp, f) + tuple(V) for cp, f, V in rows])
    return (run_index, res.evaluations_used, res.best_f,
            res.hit_target, res.hit_index, target)


def _write_so_meta(outdir: Path, metas) -> None:
    rows = []
    for run, evals, best_f, hit, hit_index, target in sorted(metas):
        rows.append((run, evals, best_f, 1 if hit else 0,
                     "" if hit_index is None else hit_index,
                     "" if target is None else _num(target)))
    _write_csv(outdir / "runs_meta.csv",
               ["run", "evaluations", "best_f", "hit", "hit_index", "target"],
               rows)


def _failure(exc: Exception) -> str:
    """The exception's type name, and its text when it has one (a
    MemoryError has none)."""
    text = str(exc)
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


def cmd_run(cfg: ExperimentConfig, workers: int = 1) -> int:
    """Execute cfg.runs independent single-objective runs; write per-run
    CSV logs, runs_meta.csv, and summary.json. Returns an exit code."""
    spec = resolve_instance(cfg)
    budget = cfg.budget if cfg.budget is not None else DEFAULT_BUDGET
    cps = cfg.checkpoints or checkpoint_schedule(budget)
    outdir = cfg.out_dir(cfg.algo)
    outdir.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg, outdir)
    target = known_optimum(spec)  # once per command, not per run
    tasks = [(cfg, budget, target, cps, str(outdir), i)
             for i in range(cfg.runs)]
    try:
        metas = _map_tasks(_so_worker, tasks, workers)
    except Exception as exc:  # noqa: BLE001 - partial results stay on disk
        print(f"run failed: {_failure(exc)}; partial results kept in {outdir}",
              file=sys.stderr)
        return 1
    _write_so_meta(outdir, metas)
    summary = aggregate_runs(outdir)
    summary["config"] = cfg.to_dict()
    summary["budget"] = budget
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{cfg.label} {cfg.algo}: {cfg.runs} runs -> {outdir}")
    return 0


def _bi_worker(args):
    cfg, algo, budget, pop, cps, outdir, run_index = args
    inst = resolve_bi(cfg)
    algo_index = MULTI_ORDER.index(algo)
    rng = RandomSource(cfg.seed).derive(algo_index * cfg.runs + run_index)
    runner = MULTI_RUNNERS[algo]
    if algo in ("semo", "gsemo"):
        archive = runner(inst, budget, rng)
    else:
        archive = runner(inst, pop, budget, rng)
    rows = _step_rows(archive.progress, cps, archive.evaluations_used)
    m = inst.first.m
    header = (["run", "evals", "best_f"] + [f"v{i + 1}" for i in range(m)]
              + ["y1", "y2", "hv"])
    csv_rows = []
    for cp, hv, y1, y2, vmax in rows:
        csv_rows.append((run_index, cp, hv) + tuple(vmax) + (y1, y2, hv))
    adir = Path(outdir) / algo
    _write_csv(adir / f"run_{run_index:04d}.csv", header, csv_rows)
    ents = sorted(archive.entries, key=lambda e: -e[1][0])
    _write_csv(adir / f"archive_{run_index:04d}.csv", ["x", "y1", "y2"],
               [(bs.to01(), p[0], p[1]) for bs, p in ents])
    return (algo, run_index, archive.evaluations_used,
            archive.hypervolume(), len(archive))


def cmd_bi(cfg: ExperimentConfig, workers: int = 1) -> int:
    """Run the multi-objective set (default: all five algorithms) on a
    bi-objective problem; per-algorithm logs, archives, and summaries,
    plus a top-level hypervolume comparison."""
    inst = resolve_bi(cfg)
    n = inst.n
    budget = cfg.budget if cfg.budget is not None else n ** 3
    pop = cfg.pop_size if cfg.pop_size is not None else n
    algos = cfg.algos or MULTI_ORDER
    cps = cfg.checkpoints or checkpoint_schedule(budget)
    outdir = cfg.out_dir("bi")
    outdir.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg, outdir)
    for algo in algos:
        (outdir / algo).mkdir(exist_ok=True)
    tasks = [(cfg, algo, budget, pop, cps, str(outdir), i)
             for algo in algos for i in range(cfg.runs)]
    try:
        metas = _map_tasks(_bi_worker, tasks, workers)
    except Exception as exc:  # noqa: BLE001 - partial results stay on disk
        print(f"bi run failed: {_failure(exc)}; partial results kept in "
              f"{outdir}",
              file=sys.stderr)
        return 1
    comparison = {}
    for algo in algos:
        rows = sorted(m for m in metas if m[0] == algo)
        _write_csv(outdir / algo / "runs_meta.csv",
                   ["run", "evaluations", "final_hv", "archive_size"],
                   [(r, e, hv, sz) for _, r, e, hv, sz in rows])
        summary = aggregate_runs(outdir / algo)
        (outdir / algo / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        finals = [hv for _, _, _, hv, _ in rows]
        comparison[algo] = {"final_hv": finals,
                            "mean_final_hv": statistics.fmean(finals)}
    top = {"problem": cfg.label, "n": n, "m": cfg.m, "budget": budget,
           "pop_size": pop, "runs": cfg.runs, "seed": cfg.seed,
           "algos": comparison}
    (outdir / "bi_summary.json").write_text(
        json.dumps(top, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{cfg.label} bi ({', '.join(algos)}): {cfg.runs} runs -> {outdir}")
    return 0


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def aggregate_runs(log_dir) -> dict:
    """Fold run_*.csv logs into checkpoint means/medians, success rates,
    per-block mean trajectories, and mean evaluations-to-target
    (unsuccessful runs counted at their full budget)."""
    log_dir = Path(log_dir)
    files = sorted(log_dir.glob("run_*.csv"))
    if not files:
        raise ValueError(f"no run logs in {log_dir}")
    header, _ = _read_rows(files[0])
    v_cols = [i for i, name in enumerate(header) if name.startswith("v")]
    f_col = header.index("best_f")
    e_col = header.index("evals")
    is_bi = "hv" in header
    runs = []
    for path in files:
        h, rows = _read_rows(path)
        if h != header:
            raise ValueError(f"{path}: header differs from {files[0]}")
        runs.append([(int(r[e_col]), float(r[f_col]),
                      [float(r[c]) for c in v_cols]) for r in rows])

    meta_path = log_dir / "runs_meta.csv"
    target = None
    fes = success = None
    if meta_path.exists():
        mh, mrows = _read_rows(meta_path)
        fes_list = []
        success = 0
        targets = set()
        if "hit" in mh:
            for r in mrows:
                row = dict(zip(mh, r))
                hit = row["hit"] == "1"
                success += hit
                fes_list.append(int(row["hit_index"]) if hit
                                else int(row["evaluations"]))
                targets.add(row["target"])
            tv = targets.pop() if len(targets) == 1 else ""
            target = float(tv) if tv else None
            if target is None:
                success = None
        else:
            fes_list = [int(dict(zip(mh, r))["evaluations"]) for r in mrows]
            success = None
        fes = statistics.fmean(fes_list)
    else:
        fes = statistics.fmean(run[-1][0] for run in runs)

    cps = sorted({e for run in runs for e, _, _ in run})
    m = len(v_cols)
    mean_f, median_f, rate, block_means = [], [], [], [[] for _ in range(m)]
    for cp in cps:
        vals, blocks = [], [[] for _ in range(m)]
        for run in runs:
            cur = run[0]
            for row in run:
                if row[0] > cp:
                    break
                cur = row
            vals.append(cur[1])
            for i in range(m):
                blocks[i].append(cur[2][i])
        mean_f.append(statistics.fmean(vals))
        median_f.append(statistics.median(vals))
        if target is not None:
            rate.append(sum(v >= target for v in vals) / len(vals))
        for i in range(m):
            block_means[i].append(statistics.fmean(blocks[i]))

    out = {
        "runs": len(runs),
        "convention": "unsuccessful runs count their full budget in "
                      "mean_evals_to_target",
        "target": target,
        "success_count": success,
        "mean_evals_to_target": fes,
        "checkpoints": cps,
        "mean_best_f": mean_f,
        "median_best_f": median_f,
        "success_rate": rate if target is not None else None,
        "block_means": block_means,
    }
    if is_bi:
        out["mean_hv"] = mean_f
    return out


def _hit_worker(args):
    spec, so, budget, target, seed, seq = args
    rng = RandomSource(seed).derive(seq)
    return run_single(so, spec, budget, rng, target=target).hit_index


def cmd_table2(n: int = 40, m: int = 4, runs: int = 50, seed: int = 1,
               budget: int = 2_000_000, out="results/table2",
               workers: int = 1) -> int:
    """Mean evaluations-to-optimum (with per-row ranks) for the five
    single-objective algorithms on the six comparison problems."""
    if runs < 1:
        raise ConfigError(f"table2: runs must be >= 1, got {runs}")
    if budget < 1:
        raise ConfigError(f"table2: budget must be >= 1, got {budget}")
    try:
        specs = [make_suite_instance(pid, n, m if composite else 1)
                 for _, pid, composite in TABLE2_ROWS]
    except ValueError as exc:
        raise ConfigError(f"table2: {exc}") from None
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    cells = {}
    for ri, ((label, _, _), spec) in enumerate(zip(TABLE2_ROWS, specs)):
        target = known_optimum(spec)  # once per row, shared by its cells
        for ci, algo in enumerate(TABLE2_COLUMNS):
            so = SOConfig(variant=algo)
            tasks = [(spec, so, budget, target, seed,
                      (ri * len(TABLE2_COLUMNS) + ci) * runs + k)
                     for k in range(runs)]
            hits = _map_tasks(_hit_worker, tasks, workers)
            cells[label, algo] = {
                "mean_fes": statistics.fmean(
                    budget if h is None else h for h in hits),
                "success_count": sum(h is not None for h in hits),
            }
    table_rows = []
    for label, _, _ in TABLE2_ROWS:
        means = [cells[label, a]["mean_fes"] for a in TABLE2_COLUMNS]
        order = sorted(range(len(means)), key=lambda i: (means[i], i))
        ranks = [0] * len(means)
        for pos, i in enumerate(order):
            ranks[i] = pos + 1
            cells[label, TABLE2_COLUMNS[i]]["rank"] = pos + 1
        table_rows.append([label] + [f"{mu:.1f} ({rk})"
                                     for mu, rk in zip(means, ranks)])
    _write_csv(outdir / "table2.csv", ["problem"] + list(TABLE2_COLUMNS),
               table_rows)
    payload = {
        "n": n, "m": m, "runs": runs, "seed": seed, "budget": budget,
        "cells": {f"{label}/{algo}": cells[label, algo]
                  for label, _, _ in TABLE2_ROWS for algo in TABLE2_COLUMNS},
    }
    (outdir / "table2.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    width = max(len(r[0]) for r in table_rows)
    print(" " * width + "  " + "  ".join(f"{a:>16}" for a in TABLE2_COLUMNS))
    for row in table_rows:
        print(f"{row[0]:<{width}}  " + "  ".join(f"{c:>16}" for c in row[1:]))
    print(f"table -> {outdir}")
    return 0


def cmd_landscape(problem: str, axis: str, n: int, m: int, out,
                  fix: int | None = None, svg: str | None = None) -> int:
    """Exact attainable-value export along one axis: 'ones' (objective
    values per ones-count), 'distance' (min/max per per-block distance
    vector), or 'blocks' (min/max with one block pair pinned). Every
    refusal, the work cap included, comes before any output is written."""
    try:
        spec = make_suite_instance(problem, n, m)
        if axis == "blocks" and (fix is None or not 1 <= fix <= m):
            raise ValueError(f"blocks axis needs --fix in 1..{m}")
        if svg and axis == "blocks":
            raise ValueError("svg is supported for the ones and distance axes")
        if svg and axis == "distance" and m != 2:
            raise ValueError("svg heatmap needs m=2 on this axis")
        header, rows = landscape.export(spec, axis, fix)
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        if svg:
            rows = list(rows)
        _write_csv(out, header, rows)
        title = f"{problem} n={n} m={m}"
        if svg and axis == "ones":
            svgplot.scatter_chart(
                [(spec.name or problem, [k for k, _ in rows],
                  [f for _, f in rows])],
                svg, xlabel="number of one-bits", ylabel="objective value",
                title=title)
        elif svg:
            svgplot.heatmap_chart(
                [(r[0], r[1], r[3]) for r in rows], svg,
                xlabel="distance in block 1", ylabel="distance in block 2",
                title=f"{title}: max objective")
    except ValueError as exc:
        print(f"landscape: {exc}", file=sys.stderr)
        return 2
    print(f"landscape {problem} {axis} -> {out}")
    return 0


def _numeric_columns(header, rows):
    cols = []
    for i in range(len(header)):
        try:
            for r in rows:
                float(r[i])
        except ValueError:
            continue
        cols.append(i)
    return cols


def _lines_series(path):
    header, rows = _read_rows(path)
    if "evals" not in header:
        raise ConfigError(f"{path}: lines input needs an 'evals' column")
    e_col = header.index("evals")
    for name in ("best_f", "hv", "mean_best_f"):
        if name in header:
            y_col = header.index(name)
            break
    else:
        raise ConfigError(f"{path}: lines input needs a best_f or hv column")
    by_x: dict[float, list[float]] = {}
    for r in rows:
        by_x.setdefault(float(r[e_col]), []).append(float(r[y_col]))
    xs = sorted(by_x)
    ys = [statistics.fmean(by_x[x]) for x in xs]
    return Path(path).stem, xs, ys


def cmd_plot(inputs, kind: str, out, logx: bool = False) -> int:
    """Render CSV data as a deterministic SVG chart."""
    try:
        if not inputs:
            raise ConfigError("plot needs at least one input CSV")
        if kind == "lines":
            series = [_lines_series(p) for p in inputs]
            svgplot.line_chart(series, out, logx=logx, xlabel="evaluations",
                               ylabel="best objective value")
        elif kind == "scatter":
            series = []
            for path in inputs:
                header, rows = _read_rows(path)
                if not rows:
                    raise ConfigError(f"{path}: no data rows")
                if "y1" in header and "y2" in header:
                    c1, c2 = header.index("y1"), header.index("y2")
                else:
                    nc = _numeric_columns(header, rows)
                    if len(nc) < 2:
                        raise ConfigError(f"{path}: scatter input needs two "
                                          f"numeric columns")
                    c1, c2 = nc[0], nc[1]
                series.append((Path(path).stem,
                               [float(r[c1]) for r in rows],
                               [float(r[c2]) for r in rows]))
            svgplot.scatter_chart(series, out, xlabel=header[c1],
                                  ylabel=header[c2])
        elif kind == "heatmap":
            if len(inputs) != 1:
                raise ConfigError("heatmap takes exactly one input CSV")
            header, rows = _read_rows(inputs[0])
            if len(header) < 3 or not rows:
                raise ConfigError(f"{inputs[0]}: heatmap input needs at "
                                  f"least three columns and one row")
            try:
                cells = [(float(r[0]), float(r[1]), float(r[-1]))
                         for r in rows]
            except ValueError:
                raise ConfigError(f"{inputs[0]}: heatmap columns must be "
                                  f"numeric") from None
            svgplot.heatmap_chart(cells, out, xlabel=header[0],
                                  ylabel=header[1])
        else:
            raise ConfigError(f"unknown plot kind {kind!r}; "
                              f"valid: lines, scatter, heatmap")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"plot: {exc}", file=sys.stderr)
        return 2
    print(f"plot {kind} -> {out}")
    return 0
