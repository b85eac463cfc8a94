"""Composite maximization problems built from block functions.

A bit string of length n is split into m contiguous equal-length blocks;
block i (0-based) covers positions [i*n/m, (i+1)*n/m) and is scored by
its block function, giving the value vector V. Two aggregation kinds:

* additive ("DBP"): f = sum_i (a_i + w_i*V_i) + sum_{i>j} e_ij*V_i*V_j,
  where only the strict lower triangle of the dependency matrix
  contributes pairwise products.
* gated ("GCP"): f = sum_i (a_i + w_i*V_i) * c_i, where gate c_i opens
  only if every ancestor block j of i in the dependency DAG passes its
  threshold test (V_j >= b_j for "ge" gates, V_j <= b_j for "le").
  A nonzero dependency entry e[src][dst] is the edge src -> dst, and
  ancestors are transitive predecessors. Thresholds are clamped to what
  the block can actually reach: min(b, block max) for "ge" gates and
  max(b, 0) for "le" gates.

The module also instantiates the named single-objective suite F1..F10
and the bi-objective pairs BF1..BF5, serializes instances to JSON, and
compiles instances into generated evaluators over the raw backing
integers for the solver hot loops.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import chain, product

from .bitstring import BitString
from .blocks import (
    BlockFunction,
    Family,
    _is_int,
    block_max,
    block_values,
    compile_block,
    epistasis,
    jump,
    leadingones,
    onemax,
)
from .codegen import instance_evaluators, pair_evaluator

__all__ = [
    "Kind",
    "GateDir",
    "InstanceSpec",
    "Evaluation",
    "BiObjectiveInstance",
    "make_dbp",
    "make_gcp",
    "forward_path",
    "backward_path",
    "zero_matrix",
    "validate_spec",
    "ancestors",
    "evaluate",
    "evaluate_bi",
    "known_optimum",
    "make_suite_instance",
    "make_biobjective",
    "suite_ids",
    "biobjective_ids",
    "compile_instance",
    "compile_bi",
    "CompiledInstance",
    "spec_to_dict",
    "spec_from_dict",
    "spec_to_json",
    "spec_from_json",
]


class Kind(str, Enum):
    DBP = "DBP"  # additive aggregation with pairwise products
    GCP = "GCP"  # gated aggregation over a dependency DAG


class GateDir(str, Enum):
    GE = "ge"
    LE = "le"


@dataclass(frozen=True)
class InstanceSpec:
    """Full description of one problem instance. Immutable and hashable.

    weights, constants and the dependency matrix always have one entry
    per block; thresholds and gate_dirs are required for gated instances
    and must be None for additive ones.
    """

    kind: Kind
    n: int
    m: int
    blocks: tuple[BlockFunction, ...]
    weights: tuple[float, ...]
    constants: tuple[float, ...]
    dependencies: tuple[tuple[float, ...], ...]
    thresholds: tuple[float, ...] | None = None
    gate_dirs: tuple[GateDir, ...] | None = None
    name: str | None = None

    @property
    def block_length(self) -> int:
        return self.n // self.m


@dataclass(frozen=True)
class Evaluation:
    """One objective evaluation with block-level transparency."""

    f: float
    block_values: tuple[int, ...]
    gates: tuple[bool, ...]


@dataclass(frozen=True)
class BiObjectiveInstance:
    first: InstanceSpec
    second: InstanceSpec
    name: str | None = None

    def __post_init__(self):
        if self.first.n != self.second.n:
            raise ValueError("objectives must share the dimension")

    @property
    def n(self) -> int:
        return self.first.n


# -- construction helpers -------------------------------------------------


def zero_matrix(m: int) -> tuple[tuple[float, ...], ...]:
    return tuple((0,) * m for _ in range(m))


def forward_path(m: int) -> tuple[tuple[float, ...], ...]:
    """Edges i -> i+1: every block is gated by all earlier blocks."""
    return tuple(
        tuple(1 if j == i + 1 else 0 for j in range(m)) for i in range(m)
    )


def backward_path(m: int) -> tuple[tuple[float, ...], ...]:
    """Edges i -> i-1: every block is gated by all later blocks."""
    return tuple(
        tuple(1 if j == i - 1 else 0 for j in range(m)) for i in range(m)
    )


def _dirs_from_weights(weights) -> tuple[GateDir, ...]:
    return tuple(GateDir.GE if w >= 0 else GateDir.LE for w in weights)


def make_dbp(n, blocks, weights=None, constants=None, dependencies=None, name=None) -> InstanceSpec:
    blocks = tuple(blocks)
    m = len(blocks)
    spec = InstanceSpec(
        kind=Kind.DBP,
        n=n,
        m=m,
        blocks=blocks,
        weights=tuple(weights) if weights is not None else (1,) * m,
        constants=tuple(constants) if constants is not None else (0,) * m,
        dependencies=tuple(tuple(r) for r in dependencies) if dependencies is not None else zero_matrix(m),
        name=name,
    )
    _raise_if_invalid(spec)
    return spec


def make_gcp(n, blocks, dependencies, thresholds, weights=None, constants=None, gate_dirs=None, name=None) -> InstanceSpec:
    blocks = tuple(blocks)
    m = len(blocks)
    weights = tuple(weights) if weights is not None else (1,) * m
    spec = InstanceSpec(
        kind=Kind.GCP,
        n=n,
        m=m,
        blocks=blocks,
        weights=weights,
        constants=tuple(constants) if constants is not None else (0,) * m,
        dependencies=tuple(tuple(r) for r in dependencies),
        thresholds=tuple(thresholds),
        gate_dirs=(tuple(GateDir(g) for g in gate_dirs) if gate_dirs is not None
                   else _dirs_from_weights(weights)),
        name=name,
    )
    _raise_if_invalid(spec)
    return spec


def _raise_if_invalid(spec: InstanceSpec) -> None:
    errs = validate_spec(spec)
    if errs:
        raise ValueError("invalid instance: " + "; ".join(errs))


# -- validation and graph queries -----------------------------------------


def validate_spec(spec: InstanceSpec) -> list[str]:
    """All structural violations, empty list when the spec is sound."""
    errs: list[str] = []
    if not (_is_int(spec.n) and _is_int(spec.m)):
        return [f"n and m must be integers, got {spec.n!r} and {spec.m!r}"]
    if spec.m < 1:
        errs.append(f"block count must be >= 1, got {spec.m}")
        return errs
    if spec.n < 1 or spec.n % spec.m != 0:
        errs.append(f"dimension {spec.n} not divisible into {spec.m} equal blocks")
    if len(spec.blocks) != spec.m:
        errs.append(f"expected {spec.m} block functions, got {len(spec.blocks)}")
    if len(spec.weights) != spec.m:
        errs.append(f"expected {spec.m} weights, got {len(spec.weights)}")
    if len(spec.constants) != spec.m:
        errs.append(f"expected {spec.m} constants, got {len(spec.constants)}")
    if len(spec.dependencies) != spec.m or any(len(r) != spec.m for r in spec.dependencies):
        errs.append("dependency matrix must be m x m")
    for label, values in (
        ("weights", spec.weights), ("constants", spec.constants),
        ("dependencies", list(chain.from_iterable(spec.dependencies))),
        ("thresholds", spec.thresholds or ()),
    ):
        if not set(map(type, values)) <= {int}:  # all ints: nothing to check
            bad = [x for x in values if not _is_number(x)]
            if bad:
                errs.append(f"{label} must be finite numbers, got {bad[0]!r}")
    if errs:
        return errs

    ln = spec.block_length
    for i, bf in enumerate(spec.blocks):
        if bf.family.value == "jump" and bf.k >= ln:
            errs.append(f"block {i}: jump gap k={bf.k} must be below block length {ln}")

    if spec.kind is Kind.DBP:
        if spec.thresholds is not None:
            errs.append("additive instances take no thresholds")
        if spec.gate_dirs is not None:
            errs.append("additive instances take no gate directions")
    else:
        if spec.thresholds is None or len(spec.thresholds) != spec.m:
            errs.append("gated instances need one threshold per block")
        if spec.gate_dirs is None or len(spec.gate_dirs) != spec.m:
            errs.append("gated instances need one gate direction per block")
        else:
            bad = [g for g in spec.gate_dirs if not isinstance(g, GateDir)]
            if bad:
                errs.append(f"gate directions must be GateDir members, got {bad[0]!r}")
        try:
            _all_ancestors(spec.dependencies)
        except ValueError:
            errs.append("dependency graph has a cycle")
    return errs


def _is_number(x) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or isinstance(x, float) and math.isfinite(x)


def _all_ancestors(dependencies) -> tuple[frozenset[int], ...]:
    m = len(dependencies)
    preds = [[j for j in range(m) if dependencies[j][i]] for i in range(m)]
    succs = [[i for i in range(m) if dependencies[j][i]] for j in range(m)]
    waiting = [len(ps) for ps in preds]
    order = [i for i in range(m) if not waiting[i]]
    for j in order:  # topological order (Kahn): order grows while walked
        for i in succs[j]:
            waiting[i] -= 1
            if not waiting[i]:
                order.append(i)
    if len(order) < m:
        raise ValueError("dependency graph has a cycle")
    anc = [frozenset()] * m
    for i in order:
        anc[i] = frozenset(preds[i]).union(*(anc[j] for j in preds[i]))
    return tuple(anc)


def ancestors(dependencies, i: int) -> frozenset[int]:
    """Transitive predecessors of block i; raises on a cyclic graph."""
    deps = tuple(tuple(r) for r in dependencies)
    if not 0 <= i < len(deps):
        raise IndexError(i)
    return _all_ancestors(deps)[i]


# -- compiled evaluation ----------------------------------------------------


class CompiledInstance:
    """Fast evaluators over raw backing integers, generated per instance
    (see codegen for the template and its float-order contract).

    fv(v) maps the integer form of a solution to (f, block values); f(v)
    returns f alone and is the solvers' hot path. f_from_values and
    gates_from_values aggregate from a block-value vector directly,
    which the landscape scans rely on (f depends on x only through the
    block values). fv and f add their terms in one order and
    f_from_values in another, so the two may differ in the last bit or
    in type.
    """

    __slots__ = (
        "spec", "n", "m", "parts", "vmax", "eff_thresholds", "pairs",
        "ancestors", "plain", "chain",
        "fv", "f", "f_from_values", "gates_from_values",
    )

    def __init__(self, spec: InstanceSpec):
        _raise_if_invalid(spec)
        self.spec = spec
        self.n = spec.n
        m = self.m = spec.m
        ln = spec.block_length
        self.parts = tuple(
            (i * ln, (1 << ln) - 1, compile_block(bf, ln))
            for i, bf in enumerate(spec.blocks)
        )
        self.vmax = tuple(block_max(bf, ln) for bf in spec.blocks)
        self.pairs = tuple(
            (i, j, spec.dependencies[i][j])
            for i in range(m) for j in range(i) if spec.dependencies[i][j] != 0
        )
        self.plain = self.chain = self.eff_thresholds = self.ancestors = None
        if spec.kind is Kind.DBP:
            self.plain = not self.pairs and sum(spec.constants) == 0 and all(
                w == 1 for w in spec.weights)
        else:
            self.eff_thresholds = tuple(
                min(b, vm) if d is GateDir.GE else max(b, 0)
                for b, vm, d in zip(spec.thresholds, self.vmax, spec.gate_dirs)
            )
            anc = self.ancestors = _all_ancestors(spec.dependencies)
            if all(anc[i] == frozenset(range(i)) for i in range(m)):
                self.chain = tuple(range(m))  # each block gates all after it
            elif all(anc[i] == frozenset(range(i + 1, m)) for i in range(m)):
                self.chain = tuple(range(m - 1, -1, -1))
        self.fv, self.f, self.f_from_values, self.gates_from_values = (
            instance_evaluators(self))

    # boundary conveniences

    def values_of(self, v: int) -> tuple[int, ...]:
        return tuple(fn((v >> s) & mk) for s, mk, fn in self.parts)

    def evaluate_bits(self, x: BitString) -> Evaluation:
        if x.n != self.n:
            raise ValueError(f"expected length {self.n}, got {x.n}")
        f, V = self.fv(x.value)
        return Evaluation(float(f), V, self.gates_from_values(V))


_BY_REPR: dict[str, object] = {}  # evaluators, shared by equal-repr objects
_BY_ID: dict[int, object] = {}    # an entry leaves when its object dies


def _evaluator(obj, build):
    """build(obj), found by obj's id on later calls. Equal-repr objects
    share one; specs that compare equal but differ in a number's type or
    in the sign of a zero differ in repr, so each gets its own."""
    ev = _BY_ID.get(id(obj))
    if ev is None:
        key = repr(obj)
        if key not in _BY_REPR:
            _BY_REPR[key] = build(obj)
        ev = _BY_ID[id(obj)] = _BY_REPR[key]
        weakref.finalize(obj, _BY_ID.pop, id(obj))
    return ev


def compile_instance(spec: InstanceSpec) -> CompiledInstance:
    return _evaluator(spec, CompiledInstance)


def evaluate(spec: InstanceSpec, x: BitString) -> Evaluation:
    """Evaluate one solution; evaluation counting is the caller's concern."""
    return compile_instance(spec).evaluate_bits(x)


def compile_bi(inst: BiObjectiveInstance):
    """One generated evaluator v -> (f1, f2, V) of both objectives, with
    each f equal to its objective's fv and V the first objective's block
    values. Objectives that share their blocks share one extraction;
    otherwise each extracts its own."""
    return _evaluator(inst, lambda bi: pair_evaluator(
        compile_instance(bi.first), compile_instance(bi.second)))


def evaluate_bi(inst: BiObjectiveInstance, x: BitString) -> tuple[Evaluation, Evaluation]:
    return evaluate(inst.first, x), evaluate(inst.second, x)


def known_optimum(spec: InstanceSpec) -> float | None:
    """Exact optimum when cheap to certify, else None.

    Monotone cases have a closed form at the per-block optima: additive
    instances with nonnegative weights and pairwise coefficients, and
    gated instances with nonnegative weights and constants where every
    gate is a ">=" test (clamping makes those thresholds reachable).

    Small non-monotone instances (n <= 24) are certified over block-value
    vectors instead of strings: f depends on a solution only through V,
    and the blocks sit on disjoint bits, so every combination of
    attainable block values is attainable. Each block's witness table
    (blocks.block_values) holds the smallest substring of every distinct
    value; f on the string built from each combination of witnesses
    gives the maximum, equal to exhaustive_optimum's value bit for bit.
    Larger ones are reported unknown.
    """
    comp = compile_instance(spec)
    if spec.kind is Kind.DBP:
        lower = (
            spec.dependencies[i][j] for i in range(spec.m) for j in range(i)
        )
        if all(w >= 0 for w in spec.weights) and all(e >= 0 for e in lower):
            return float(comp.f_from_values(comp.vmax))
    else:
        if (
            all(w >= 0 for w in spec.weights)
            and all(a >= 0 for a in spec.constants)
            and all(d is GateDir.GE for d in spec.gate_dirs)
        ):
            return float(comp.f_from_values(comp.vmax))
    if spec.n <= 24:
        return _witness_optimum(comp)
    return None


def _witness_optimum(comp: CompiledInstance) -> float:
    """max f over every combination of per-block value witnesses."""
    # most significant block first, witnesses ascending: product() then
    # visits the strings in ascending integer order, as the 2^n scan
    # does, so among equal maxima (0.0 and -0.0) the same one is kept
    ln = comp.spec.block_length
    witnesses = [[w << (i * ln) for w in block_values(bf, ln).values()]
                 for i, bf in reversed(list(enumerate(comp.spec.blocks)))]
    f_of = comp.f
    best = None
    for combo in product(*witnesses):
        f = f_of(sum(combo))
        if best is None or f > best:
            best = f
    return float(best)


# -- named suites -----------------------------------------------------------

# (kind, block-function factory cycle, threshold per block length or None)
_ROWS = {
    "F1": (Kind.DBP, (onemax,), None),
    "F2": (Kind.DBP, (leadingones,), None),
    "F3": (Kind.DBP, (lambda: jump(3),), None),
    "F4": (Kind.DBP, (epistasis,), None),
    "F5": (Kind.DBP, (onemax, leadingones, lambda: jump(3), epistasis), None),
    "F6": (Kind.DBP, (onemax, lambda: jump(2), lambda: jump(3), epistasis), None),
    "F7": (Kind.GCP, (lambda: jump(3),), lambda ni: ni + 3),
    "F8": (Kind.GCP, (epistasis,), lambda ni: ni),
    "F9": (Kind.GCP, (onemax, lambda: jump(2), lambda: jump(3), epistasis), lambda ni: ni + 5),
    "F10": (Kind.GCP, (onemax, leadingones, lambda: jump(3), epistasis), lambda ni: ni + 3),
}


def suite_ids() -> tuple[str, ...]:
    return tuple(_ROWS)


def biobjective_ids() -> tuple[str, ...]:
    return ("BF1", "BF2", "BF3", "BF4", "BF5")


def make_suite_instance(instance_id: str, n: int, m: int) -> InstanceSpec:
    """Named single-objective instance; families cycle as m grows."""
    if instance_id not in _ROWS:
        raise ValueError(f"unknown instance id {instance_id!r}")
    kind, cycle, thr = _ROWS[instance_id]
    blocks = tuple(cycle[i % len(cycle)]() for i in range(m))
    if kind is Kind.DBP:
        return make_dbp(n, blocks, name=instance_id)
    ni = n // m if m > 0 else 0
    return make_gcp(
        n,
        blocks,
        dependencies=forward_path(m),
        thresholds=(thr(ni),) * m,
        name=instance_id,
    )


def make_biobjective(instance_id: str, n: int, m: int) -> BiObjectiveInstance:
    """Named bi-objective pair; both objectives share the block partition."""
    ni = n // m if m > 0 else 0
    if instance_id == "BF1":
        first = make_dbp(n, (onemax(),) * m, name="BF1/1")
        second = make_dbp(
            n, (onemax(),) * m,
            weights=(-1,) * m, constants=(ni,) * m, name="BF1/2",
        )
        return BiObjectiveInstance(first, second, name="BF1")
    if instance_id in ("BF2", "BF3"):
        fam = onemax if instance_id == "BF2" else leadingones
        first = make_gcp(
            n, tuple(fam() for _ in range(m)),
            dependencies=forward_path(m), thresholds=(ni,) * m,
            name=f"{instance_id}/1",
        )
        second = make_gcp(
            n, tuple(fam() for _ in range(m)),
            dependencies=backward_path(m), thresholds=(0,) * m,
            weights=(-1,) * m, constants=(ni,) * m,
            name=f"{instance_id}/2",
        )
        return BiObjectiveInstance(first, second, name=instance_id)
    if instance_id in ("BF4", "BF5"):
        fam = onemax if instance_id == "BF4" else leadingones
        out = []
        for delta, deps in (
            ((1, -1, 1, 1), forward_path(m)),
            ((-1, 1, 1, -1), backward_path(m)),
        ):
            w = tuple(delta[i % 4] for i in range(m))
            a = tuple(ni * (1 - wi) // 2 for wi in w)
            b = tuple(ni * (1 + wi) // 2 for wi in w)
            out.append(make_gcp(
                n, tuple(fam() for _ in range(m)),
                dependencies=deps, thresholds=b, weights=w, constants=a,
                name=f"{instance_id}/{len(out) + 1}",
            ))
        return BiObjectiveInstance(out[0], out[1], name=instance_id)
    raise ValueError(f"unknown instance id {instance_id!r}")


# -- serialization -----------------------------------------------------------


def spec_to_dict(spec: InstanceSpec) -> dict:
    d = {
        "kind": spec.kind.value,
        "n": spec.n,
        "m": spec.m,
        "blocks": [
            {"family": bf.family.value, "k": bf.k, "nu": bf.nu}
            for bf in spec.blocks
        ],
        "weights": list(spec.weights),
        "constants": list(spec.constants),
        "dependencies": [list(r) for r in spec.dependencies],
        "thresholds": list(spec.thresholds) if spec.thresholds is not None else None,
        "gate_dirs": [d.value for d in spec.gate_dirs] if spec.gate_dirs is not None else None,
    }
    if spec.name is not None:
        d["name"] = spec.name
    return d


def spec_from_dict(d: dict) -> InstanceSpec:
    blocks = tuple(
        BlockFunction(Family(b["family"]), k=b.get("k"), nu=b.get("nu"))
        for b in d["blocks"]
    )
    spec = InstanceSpec(
        kind=Kind(d["kind"]),
        n=d["n"],
        m=d["m"],
        blocks=blocks,
        weights=tuple(d["weights"]),
        constants=tuple(d["constants"]),
        dependencies=tuple(tuple(r) for r in d["dependencies"]),
        thresholds=tuple(d["thresholds"]) if d.get("thresholds") is not None else None,
        gate_dirs=tuple(GateDir(g) for g in d["gate_dirs"]) if d.get("gate_dirs") is not None else None,
        name=d.get("name"),
    )
    _raise_if_invalid(spec)
    return spec


def spec_to_json(spec: InstanceSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2)


def spec_from_json(text: str) -> InstanceSpec:
    return spec_from_dict(json.loads(text))
