"""Layer tracing for the traced benchmark run.

``Tracer.install`` wraps the public functions of the blockbench modules
from outside, where each name is looked up at call time, and keeps one
span (name, start, end, parent) per wrapped call in memory. Self time,
time per call and call counts come from those spans. Calls of about a
microsecond (random draws, block functions, ``fv``) would cost as much
in a wrapper as in themselves, so ``micro_metrics`` times them directly
in loops over the workloads' own instances and parameters.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array
from functools import wraps

MOEA_FUNCS = ("non_dominated_sort", "crowding_distance", "hv_contributions",
              "environmental_selection", "hypervolume_2d", "try_insert")
SO_VARIANTS = ("ea", "fga", "two_rate", "var_ea", "oll_ga", "mu_ga")
MO_ALGOS = ("semo", "gsemo", "nsga2", "smsemoa", "moead")
COMMANDS = ("cmd_run", "cmd_bi", "cmd_table2", "cmd_landscape", "cmd_plot")
SPAN_CAP = 200_000  # spans kept for the trace file; statistics cover all
MICRO_CALLS, MICRO_REPEATS = 4000, 5


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stats: list[list[int]] = []  # per name: calls, total ns, self ns
        self._stack: list[list[int]] = []  # open spans: [index, child ns]
        self._next = 0
        self.spans = array("q")  # index, name id, start, end, parent
        self.evals: dict[str, int] = {}
        self.scan_points = 0
        self.optimum_specs: list[set] = []

    def start_round(self) -> None:
        self.optimum_specs.append(set())

    def wrap(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self.stats.append([0, 0, 0])
        stat = self.stats[nid]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < 5 * SPAN_CAP:
                    spans.extend((idx, nid, t0, t1, parent))
            if after is not None:
                after(args, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every public entry point where its callers look it up."""
        from blockbench import harness, landscape, moea, problems, soea, svgplot

        for name in COMMANDS + ("load_config", "aggregate_runs"):
            setattr(harness, name,
                    self.wrap(f"harness.{name}", getattr(harness, name)))

        def optimum_seen(args, _result):
            self.optimum_specs[-1].add(args[0])

        known = self.wrap("problems.known_optimum", problems.known_optimum,
                          optimum_seen)
        for mod in (problems, soea, harness):
            mod.known_optimum = known

        def counter(key):
            def after(_args, result):
                self.evals[key] = (self.evals.get(key, 0)
                                   + result.evaluations_used)
            return after

        for v, fn in list(soea.SINGLE_RUNNERS.items()):
            soea.SINGLE_RUNNERS[v] = self.wrap(f"soea.run_{v}", fn,
                                               counter(f"soea.{v}"))
        run_single = self.wrap("soea.run_single", soea.run_single)
        soea.run_single = harness.run_single = run_single
        for a, fn in list(moea.MULTI_RUNNERS.items()):
            moea.MULTI_RUNNERS[a] = self.wrap(f"moea.run_{a}", fn,
                                              counter(f"moea.{a}"))
        for name in MOEA_FUNCS[:-1]:
            setattr(moea, name, self.wrap(f"moea.{name}", getattr(moea, name)))
        moea.ParetoArchive.try_insert = self.wrap(
            "moea.try_insert", moea.ParetoArchive.try_insert)

        def scanned(args, _result):
            self.scan_points += 1 << args[0].n

        landscape.exhaustive_optimum = self.wrap(
            "landscape.exhaustive_optimum", landscape.exhaustive_optimum,
            scanned)
        for name in ("block_profile", "attainable_by_ones_count",
                     "attainable_by_distance", "attainable_by_block_values"):
            fn = self.wrap(f"landscape.{name}", getattr(landscape, name))
            setattr(landscape, name, fn)
            setattr(harness, name, fn)
        for name in ("line_chart", "scatter_chart", "heatmap_chart"):
            setattr(svgplot, name,
                    self.wrap("svgplot.render", getattr(svgplot, name)))

    def _stat(self, name):
        nid = self._ids.get(name)
        return self.stats[nid] if nid is not None else [0, 0, 0]

    def metrics(self) -> dict[str, float]:
        """Per-layer figures; totals and counts are per round."""
        rounds = max(1, len(self.optimum_specs))
        out: dict[str, float] = {}
        calls, total, _ = self._stat("problems.known_optimum")
        out["problems.known_optimum_calls"] = calls / rounds
        out["problems.known_optimum_s"] = total / 1e9 / rounds
        distinct = sum(len(s) for s in self.optimum_specs)
        out["problems.known_optimum_calls_per_instance"] = (
            calls / distinct if distinct else 0.0)
        for v in SO_VARIANTS:
            ev = self.evals.get(f"soea.{v}", 0)
            t = self._stat(f"soea.run_{v}")[1]
            out[f"soea.us_per_eval.{v}"] = t / 1e3 / ev if ev else 0.0
        for a in MO_ALGOS:
            ev = self.evals.get(f"moea.{a}", 0)
            t = self._stat(f"moea.run_{a}")[1]
            out[f"moea.us_per_eval.{a}"] = t / 1e3 / ev if ev else 0.0
        for fn in MOEA_FUNCS:
            calls, total, _ = self._stat(f"moea.{fn}")
            out[f"moea.{fn}_us"] = total / 1e3 / calls if calls else 0.0
            out[f"moea.{fn}_calls"] = calls / rounds
        total = self._stat("landscape.exhaustive_optimum")[1]
        out["landscape.exhaustive_optimum_s"] = total / 1e9 / rounds
        out["landscape.exhaustive_ns_per_point"] = (
            total / self.scan_points if self.scan_points else 0.0)
        for name in ("block_profile", "attainable_by_ones_count",
                     "attainable_by_distance"):
            out[f"landscape.{name}_s"] = (
                self._stat(f"landscape.{name}")[1] / 1e9 / rounds)
        out["harness.self_s"] = sum(
            self._stat(f"harness.{c}")[2] for c in COMMANDS) / 1e9 / rounds
        out["harness.aggregate_runs_s"] = (
            self._stat("harness.aggregate_runs")[1] / 1e9 / rounds)
        calls, total, _ = self._stat("harness.load_config")
        out["harness.load_config_ms"] = total / 1e6 / calls if calls else 0.0
        calls, total, _ = self._stat("svgplot.render")
        out["svgplot.render_ms"] = total / 1e6 / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """Spans as CSV: index, name, start and end (ns), parent index."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(0, len(s), 5):
                fh.write(f"{s[i]},{self.names[s[i + 1]]},{s[i + 2]},"
                         f"{s[i + 3]},{s[i + 4]}\n")


# -- direct timing of the microsecond-scale calls ------------------------------


def _ns_per_call(fn, inputs) -> float:
    """Median over repeats of the loop time per input, loop included."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(MICRO_REPEATS):
        t0 = clock()
        for x in inputs:
            fn(x)
        samples.append((clock() - t0) / len(inputs))
    return statistics.median(samples)


def micro_metrics(oracle_specs: dict) -> dict[str, float]:
    """ns per call of the variation draws, block functions, every ``fv``
    the workloads evaluate, and F10's ``f_from_values``, at n=40 with
    the solvers' own parameters."""
    from blockbench import blocks, problems, rng as rng_mod

    n = 40
    src = rng_mod.RandomSource(12345)
    ticks = range(MICRO_CALLS)
    out = {
        "rng.binomial_positive_ns": _ns_per_call(
            lambda _: src.binomial_positive(n, 1 / n), ticks),
        "rng.binomial_ns": _ns_per_call(lambda _: src.binomial(n, 1 / n),
                                        ticks),
        "rng.positions_mask_ns": _ns_per_call(
            lambda _: src.positions_mask(n, 1), ticks),
        "rng.power_law_ns": _ns_per_call(lambda _: src.power_law(n // 2, 1.5),
                                         ticks),
        "rng.positive_normal_int_ns": _ns_per_call(
            lambda _: src.positive_normal_int(2.0, 2.0 * (1 - 2.0 / n), n),
            ticks),
        "rng.index_below_ns": _ns_per_call(lambda _: src.index_below(9), ticks),
    }
    draw = random.Random(54321)
    block_inputs = [draw.getrandbits(10) for _ in range(MICRO_CALLS)]
    for name, bf in (("onemax", blocks.onemax()),
                     ("leadingones", blocks.leadingones()),
                     ("jump", blocks.jump(3)),
                     ("epistasis", blocks.epistasis(3))):
        out[f"blocks.{name}_ns"] = _ns_per_call(
            blocks.compile_block(bf, 10), block_inputs)
    specs = {pid: problems.make_suite_instance(pid, n, 1)
             for pid in ("F1", "F2", "F3", "F4")}
    for pid in ("F5", "F10"):
        specs[pid] = problems.make_suite_instance(pid, n, 4)
    specs["F3m4"] = problems.make_suite_instance("F3", n, 4)
    bf4 = problems.make_biobjective("BF4", n, 4)
    specs["BF4-1"], specs["BF4-2"] = bf4.first, bf4.second
    specs.update(oracle_specs)
    for name, spec in specs.items():
        inputs = [draw.getrandbits(spec.n) for _ in range(MICRO_CALLS)]
        out[f"problems.fv_ns.{name}"] = _ns_per_call(
            problems.compile_instance(spec).fv, inputs)
    comp = problems.compile_instance(specs["F10"])
    values = [comp.values_of(draw.getrandbits(n)) for _ in range(MICRO_CALLS)]
    out["problems.f_from_values_ns.F10"] = _ns_per_call(comp.f_from_values,
                                                        values)
    return out
