"""Checks of blockbench output directories against the reference.

Each check reads what one command wrote and returns ``(failures,
evaluations)``: ``failures`` maps an operation name to the first problem
found in its output, and ``evaluations`` counts the objective
evaluations the outputs report. Operation names are the ones the
benchmark plan uses: ``run#i`` for a single-objective run,
``<algo>#i`` for a bi-objective run, ``<row>/<algo>#k`` for a table2
run, and ``export`` for a landscape export. Nothing here compares with
a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import reference


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [dict(zip(header, r)) for r in reader if r]


def _block_columns(header):
    return [h for h in header if h[:1] == "v" and h[1:].isdigit()]


def check_run_dir(outdir, inst: dict, budget: int, runs: int):
    """A ``run`` directory: targets, hits, budgets and every run log."""
    outdir = Path(outdir)
    target = reference.optimum(inst)
    fails: dict[str, str] = {}
    evaluations = 0
    try:
        _, meta = _rows(outdir / "runs_meta.csv")
    except OSError as exc:
        return {f"run#{i}": f"runs_meta.csv: {exc}" for i in range(runs)}, 0
    seen = set()
    for row in meta:
        op = f"run#{row['run']}"
        seen.add(op)
        evals = int(row["evaluations"])
        evaluations += evals
        best_f = float(row["best_f"])
        problem = None
        if float(row["target"]) != target:
            problem = f"target {row['target']} != reference optimum {target}"
        elif evals > budget:
            problem = f"{evals} evaluations exceed the budget {budget}"
        elif row["hit"] == "1" and best_f != target:
            problem = f"hit recorded but best_f {best_f} != target {target}"
        elif (row["hit"] == "1") != (best_f >= target):
            problem = f"hit flag {row['hit']} disagrees with best_f {best_f}"
        else:
            problem = _check_run_log(
                outdir / f"run_{int(row['run']):04d}.csv", inst, evals, best_f)
        if problem:
            fails[op] = problem
    for i in range(runs):
        if f"run#{i}" not in seen:
            fails[f"run#{i}"] = "missing from runs_meta.csv"
    return fails, evaluations


def _check_run_log(path, inst, evals_used, best_f):
    try:
        header, rows = _rows(path)
    except OSError as exc:
        return f"{path.name}: {exc}"
    vcols = _block_columns(header)
    if len(vcols) != inst["m"] or not rows:
        return f"{path.name}: expected {inst['m']} block columns and rows"
    prev_e, prev_f = 0, None
    for row in rows:
        e, f = int(row["evals"]), float(row["best_f"])
        if e <= prev_e:
            return f"{path.name}: evals {e} does not rise after {prev_e}"
        if prev_f is not None and f < prev_f:
            return f"{path.name}: best_f falls from {prev_f} to {f} at {e}"
        agg = reference.aggregate(inst, [int(row[c]) for c in vcols])
        if f != agg:
            return (f"{path.name}: best_f {f} at {e} != reference "
                    f"aggregate {agg} of its block values")
        prev_e, prev_f = e, f
    if prev_e != evals_used or prev_f != best_f:
        return (f"{path.name}: last row ({prev_e}, {prev_f}) != runs_meta "
                f"({evals_used}, {best_f})")
    return None


def check_table2(outdir, runs: int, budget: int):
    """``table2``: each row's ranks follow its mean_fes order (ties to the
    earlier column), and means and success counts stay in range."""
    outdir = Path(outdir)
    try:
        header, rows = _rows(outdir / "table2.csv")
        cells = json.loads((outdir / "table2.json").read_text())["cells"]
    except (OSError, ValueError, KeyError) as exc:
        return {"table2": f"unreadable output: {exc}"}, 0
    algos = header[1:]
    fails: dict[str, str] = {}
    evaluations = 0
    for row in rows:
        label = row["problem"]
        try:
            means = [cells[f"{label}/{a}"]["mean_fes"] for a in algos]
            ranks = [cells[f"{label}/{a}"]["rank"] for a in algos]
            succ = [cells[f"{label}/{a}"]["success_count"] for a in algos]
        except KeyError as exc:
            problem = f"missing cell field {exc}"
        else:
            evaluations += round(sum(means) * runs)
            order = sorted(range(len(algos)), key=lambda i: (means[i], i))
            expect = [0] * len(algos)
            for pos, i in enumerate(order):
                expect[i] = pos + 1
            problem = None
            if ranks != expect:
                problem = f"ranks {ranks} do not follow mean_fes {means}"
            elif any(not 1 <= mu <= budget for mu in means):
                problem = f"mean_fes {means} outside [1, {budget}]"
            elif any(not 0 <= s <= runs for s in succ):
                problem = f"success counts {succ} outside [0, {runs}]"
        if problem:
            for a in algos:
                for k in range(runs):
                    fails[f"{label}/{a}#{k}"] = problem
    return fails, evaluations


def check_bi_dir(outdir, pair, algos, runs: int, budget: int):
    """``bi``: archives against the reference objectives, mutual
    non-dominance, final hypervolume, and monotone hypervolume logs."""
    outdir = Path(outdir)
    fails: dict[str, str] = {}
    evaluations = 0
    for algo in algos:
        try:
            _, meta = _rows(outdir / algo / "runs_meta.csv")
        except OSError as exc:
            meta = []
            for i in range(runs):
                fails[f"{algo}#{i}"] = f"runs_meta.csv: {exc}"
        for row in meta:
            i = int(row["run"])
            evals = int(row["evaluations"])
            evaluations += evals
            problem = None
            if evals > budget:
                problem = f"{evals} evaluations exceed the budget {budget}"
            else:
                problem = _check_bi_run(outdir / algo, i, pair,
                                        float(row["final_hv"]),
                                        int(row["archive_size"]))
            if problem:
                fails[f"{algo}#{i}"] = f"{algo}: {problem}"
        for i in range(runs):
            if not any(int(r["run"]) == i for r in meta):
                fails.setdefault(f"{algo}#{i}", "missing from runs_meta.csv")
    return fails, evaluations


def _check_bi_run(adir, i, pair, final_hv, size):
    try:
        _, arch = _rows(adir / f"archive_{i:04d}.csv")
        _, log = _rows(adir / f"run_{i:04d}.csv")
    except OSError as exc:
        return str(exc)
    points = []
    for row in arch:
        y = (float(row["y1"]), float(row["y2"]))
        ref = (reference.evaluate(pair[0], row["x"]),
               reference.evaluate(pair[1], row["x"]))
        if y != ref:
            return f"archive row {row['x']} has {y}, reference gives {ref}"
        points.append(y)
    for a, p in enumerate(points):
        for b, q in enumerate(points):
            if a != b and (p == q or reference.dominates(p, q)):
                return f"archive point {p} dominates or repeats {q}"
    if len(points) != size:
        return f"archive has {len(points)} rows, runs_meta says {size}"
    hv = reference.hypervolume(points)
    if hv != final_hv:
        return f"final_hv {final_hv} != reference hypervolume {hv}"
    if not log:
        return "empty run log"
    prev_e, prev_hv = 0, 0.0
    for row in log:
        e, h = int(row["evals"]), float(row["hv"])
        if e <= prev_e:
            return f"evals {e} does not rise after {prev_e}"
        if h < prev_hv:
            return f"hv falls from {prev_hv} to {h} at {e}"
        prev_e, prev_hv = e, h
    if prev_hv != hv:
        return f"last hv row {prev_hv} != reference hypervolume {hv}"
    return None


def check_landscape_ones(csv_path, inst: dict, svg_path):
    """Ones axis: the largest attainable value is the optimum, and the
    chart is well-formed XML."""
    try:
        _, rows = _rows(csv_path)
        best = max(float(r["f"]) for r in rows)
        ET.parse(svg_path)
    except (OSError, ValueError, KeyError, ET.ParseError) as exc:
        return {"export": f"unreadable output: {exc}"}, 0
    opt = reference.optimum(inst)
    if best != opt:
        return {"export": f"ones-axis maximum {best} != optimum {opt}"}, 0
    return {}, 0


def check_landscape_distance(csv_path, inst: dict):
    """Distance axis: at distance 0 in every block the value is the
    optimum, and no row exceeds it."""
    try:
        header, rows = _rows(csv_path)
        dcols = [h for h in header if h[:1] == "d"]
        zero = [r for r in rows if all(r[c] == "0" for c in dcols)]
        top = max(float(r["f_max"]) for r in rows)
    except (OSError, ValueError, KeyError) as exc:
        return {"export": f"unreadable output: {exc}"}, 0
    opt = reference.optimum(inst)
    if len(dcols) != inst["m"] or len(zero) != 1:
        return {"export": "expected one row per distance vector"}, 0
    if float(zero[0]["f_max"]) != opt or top != opt:
        return {"export": f"distance-0 value {zero[0]['f_max']} or maximum "
                          f"{top} != optimum {opt}"}, 0
    return {}, 0
