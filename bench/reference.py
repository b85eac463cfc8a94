"""Independent reference for checking blockbench outputs.

Standard library only, and written from the documented definitions
rather than from the package: it imports nothing from ``blockbench``.
Solutions are lists of 0/1 ints in text order (position 0 is the first
character of the 0/1 form); block i covers positions [i*L, (i+1)*L)
with L = n/m. Instances use the documented JSON shape (``kind``, ``n``,
``m``, ``blocks``, ``weights``, ``constants``, ``dependencies`` and, for
gated instances, ``thresholds`` and ``gate_dirs``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product


# -- block functions ---------------------------------------------------------


def onemax(bits) -> int:
    return sum(bits)


def leadingones(bits) -> int:
    count = 0
    for b in bits:
        if not b:
            break
        count += 1
    return count


def jump(bits, k: int) -> int:
    """OneMax plus k, except in the gap: a string with more than
    length - k ones, other than all ones, scores length minus ones."""
    length = len(bits)
    ones = sum(bits)
    if ones <= length - k or ones == length:
        return ones + k
    return length - ones


def epistasis(bits, nu: int) -> int:
    """OneMax of the groupwise XOR scramble: within each full group of nu
    bits, output bit 0 is the parity of the group and output bit i is
    input i-1 XOR input i; a trailing partial group passes through."""
    out = []
    full = len(bits) // nu * nu
    for g in range(0, full, nu):
        grp = bits[g:g + nu]
        out.append(sum(grp) % 2)
        out.extend(grp[i - 1] ^ grp[i] for i in range(1, nu))
    out.extend(bits[full:])
    return sum(out)


def block_value(block: dict, bits) -> int:
    family = block["family"]
    if family == "onemax":
        return onemax(bits)
    if family == "leadingones":
        return leadingones(bits)
    if family == "jump":
        return jump(bits, block["k"])
    if family == "epistasis":
        return epistasis(bits, block["nu"])
    raise ValueError(f"unknown block family {family!r}")


def block_value_set(block: dict, length: int) -> frozenset[int]:
    """Every value the block attains on length-bit strings."""
    return _value_set(block["family"], block.get("k"), block.get("nu"),
                      length)


@lru_cache(maxsize=None)
def _value_set(family, k, nu, length) -> frozenset[int]:
    block = {"family": family, "k": k, "nu": nu}
    return frozenset(block_value(block, list(bits))
                     for bits in product((0, 1), repeat=length))


# -- aggregation ---------------------------------------------------------------


def _ancestors(deps) -> list[set[int]]:
    m = len(deps)
    parents = [{s for s in range(m) if deps[s][d]} for d in range(m)]
    out = []
    for i in range(m):
        seen: set[int] = set()
        todo = list(parents[i])
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                todo.extend(parents[j])
        out.append(seen)
    return out


def block_values(inst: dict, bits) -> list[int]:
    length = inst["n"] // inst["m"]
    return [block_value(b, bits[i * length:(i + 1) * length])
            for i, b in enumerate(inst["blocks"])]


def aggregate(inst: dict, values) -> float:
    """Objective value from the block-value vector.

    Additive (DBP): sum_i (a_i + w_i V_i) + sum_{i>j} e_ij V_i V_j.
    Gated (GCP): sum_i (a_i + w_i V_i) * [every ancestor j of i passes
    its test], where a "ge" test is V_j >= min(b_j, max of block j) and
    an "le" test is V_j <= max(b_j, 0).
    """
    m = inst["m"]
    w, a, e = inst["weights"], inst["constants"], inst["dependencies"]
    if inst["kind"] == "DBP":
        f = sum(a[i] + w[i] * values[i] for i in range(m))
        f += sum(e[i][j] * values[i] * values[j]
                 for i in range(m) for j in range(i))
        return float(f)
    length = inst["n"] // m
    passes = []
    for j in range(m):
        b = inst["thresholds"][j]
        if inst["gate_dirs"][j] == "ge":
            vmax = max(block_value_set(inst["blocks"][j], length))
            passes.append(values[j] >= min(b, vmax))
        else:
            passes.append(values[j] <= max(b, 0))
    anc = _ancestors(e)
    return float(sum(a[i] + w[i] * values[i] for i in range(m)
                     if all(passes[j] for j in anc[i])))


def evaluate(inst: dict, text: str) -> float:
    """Objective value of a solution given in 0/1 text form."""
    bits = [int(c) for c in text]
    if len(bits) != inst["n"]:
        raise ValueError(f"expected {inst['n']} bits, got {len(bits)}")
    return aggregate(inst, block_values(inst, bits))


def optimum(inst: dict) -> float:
    """Exact maximum: blocks sit on disjoint positions, so every
    combination of attainable block values is attainable."""
    length = inst["n"] // inst["m"]
    sets = [sorted(block_value_set(b, length)) for b in inst["blocks"]]
    return max(aggregate(inst, combo) for combo in product(*sets))


# -- the catalog instances the benchmark runs ---------------------------------


def _block(family: str, k=None, nu=None) -> dict:
    return {"family": family, "k": k, "nu": nu}


def _path(m: int, forward: bool) -> list[list[int]]:
    step = 1 if forward else -1
    return [[1 if d == s + step else 0 for d in range(m)] for s in range(m)]


def suite(instance_id: str, n: int, m: int) -> dict:
    """F3, F9 or F10: families cycle over the blocks; F9 and F10 gate
    every block on all earlier ones with threshold L+5 and L+3."""
    cycles = {
        "F3": [_block("jump", k=3)],
        "F9": [_block("onemax"), _block("jump", k=2), _block("jump", k=3),
               _block("epistasis", nu=3)],
        "F10": [_block("onemax"), _block("leadingones"), _block("jump", k=3),
                _block("epistasis", nu=3)],
    }
    cycle = cycles[instance_id]
    inst = {"kind": "DBP", "n": n, "m": m,
            "blocks": [cycle[i % len(cycle)] for i in range(m)],
            "weights": [1] * m, "constants": [0] * m,
            "dependencies": [[0] * m for _ in range(m)]}
    if instance_id != "F3":
        extra = 5 if instance_id == "F9" else 3
        inst.update(kind="GCP", dependencies=_path(m, True),
                    thresholds=[n // m + extra] * m, gate_dirs=["ge"] * m)
    return inst


def bf4(n: int, m: int) -> tuple[dict, dict]:
    """The OneMax-block pair with mixed gate directions: objective 1 has
    signs (+,-,+,+) on a forward chain, objective 2 (-,+,+,-) on a
    backward chain. A block with sign w scores a + w V with
    a = L(1-w)/2, and gates its successors at b = L(1+w)/2 with a "ge"
    test for w = 1 and an "le" test for w = -1."""
    length = n // m
    pair = []
    for signs, forward in (((1, -1, 1, 1), True), ((-1, 1, 1, -1), False)):
        w = [signs[i % 4] for i in range(m)]
        pair.append({
            "kind": "GCP", "n": n, "m": m,
            "blocks": [_block("onemax")] * m,
            "weights": w,
            "constants": [length * (1 - x) // 2 for x in w],
            "dependencies": _path(m, forward),
            "thresholds": [length * (1 + x) // 2 for x in w],
            "gate_dirs": ["ge" if x >= 0 else "le" for x in w],
        })
    return pair[0], pair[1]


# -- two-dimensional hypervolume -----------------------------------------------


def hypervolume(points, ref=(0.0, 0.0)) -> float:
    """Area of the union of the boxes [ref, p], both objectives
    maximized, by vertical strips between consecutive first
    coordinates."""
    pts = [(x - ref[0], y - ref[1]) for x, y in points
           if x > ref[0] and y > ref[1]]
    xs = sorted({x for x, _ in pts})
    area = 0.0
    prev = 0.0
    for x in xs:
        height = max(y for px, y in pts if px >= x)
        area += (x - prev) * height
        prev = x
    return area


def dominates(p, q) -> bool:
    return p[0] >= q[0] and p[1] >= q[1] and p != q
