"""Straight-line evaluators generated from one source template.

A compiled instance's fv, f, f_from_values and gates_from_values, and a
bi-objective pair's fused evaluator, are emitted as Python source and
exec'd, the way collections.namedtuple and dataclasses build their
methods. The source has no loops: constant shifts and masks per block,
onemax, leadingones, jump and the epistasis lookup tables inlined, the
weights, constants and pair terms written out term by term, and the
gate tests spelled out per block.

Binding rule: spec numbers (weights, constants, thresholds, pair
terms, jump gaps) and epistasis lookup tables reach the source only as names
(_0, _1, ...) bound to the arguments of the factory that defines the
functions, so the functions read them as closure cells. The only
literals written are the shifts, masks and block lengths computed
here. Spec text is never interpolated.

Float-order contract: every body adds its terms in the order of the
reference evaluator it stands for, so results are equal bit for bit
and type for type:

* additive fv and f: float(V_0 + V_1 + ...) on plain instances (all
  weights 1, constants summing to 0, no pair terms); otherwise
  sum(constants) + w_0*V_0 + w_1*V_1 + ... in block order, then
  e_ij*V_i*V_j for i > j, in row order;
* gate-chain fv and f (forward or backward path): c_h + w_h*V_h of the
  head block, then c_b + w_b*V_b for each next block while the gate
  before it passes; this may return an int;
* f_from_values, and gated fv and f off a chain: 0.0 plus c_i + w_i*V_i
  of every block whose gate is open, in block order (additive
  f_from_values follows additive fv without the float()).

A term is shortened only where the arithmetic is exact: an int weight
of 1 is left out of w*V, and an int constant of 0 out of c + w*V when w
is an int too. Evaluators take an n-bit solution 0 <= v < 2**n.
"""

from __future__ import annotations

from .blocks import Family, epistasis_segments

__all__ = ["instance_evaluators", "pair_evaluator"]

CHUNK = 64  # terms per statement, far below the compiler's recursion limit


def instance_evaluators(comp) -> tuple:
    """(fv, f, f_from_values, gates_from_values) of a compiled instance.

    f extracts the blocks of a gate chain lazily: a block behind a
    closed gate is never evaluated."""
    src = _Source()
    V = [f"V{i}" for i in range(comp.m)]
    unpack = [f"{', '.join(V)}, = V"]
    if comp.eff_thresholds is None:  # additive: every gate open
        gates = ["return " + _tuple(["True"] * comp.m)]
    else:
        flags, opens = src.gates(comp, V)
        gates = unpack + flags + ["return " + _tuple(
            [cond or "True" for cond in opens])]
    return src.build({
        "fv": ("v", src.fetch(comp, "V") + src.body(comp, "V", "y", _none)
               + [f"return y, {_tuple(V)}"]),
        "f": ("v", src.body(comp, "V", "y",
                            lambda i: src.extract(comp, i, "V"))
              + ["return y"]),
        "f_from_values": ("V", unpack + src.body(comp, "V", "y", _none,
                                                 reference=True)
                          + ["return y"]),
        "gates_from_values": ("V", gates),
    })


def pair_evaluator(c1, c2):
    """v -> (f1, f2, V): both objectives' f, each equal to its fv's, and
    the first objective's block values. Objectives on the same blocks
    share one extraction; otherwise each extracts its own."""
    src = _Source()
    lines = src.fetch(c1, "V")
    var2 = "V"
    if c1.spec.blocks != c2.spec.blocks:
        var2 = "U"
        lines += src.fetch(c2, "U")
    lines += (src.body(c1, "V", "y1", _none) + src.body(c2, var2, "y2", _none)
              + [f"return y1, y2, {_tuple([f'V{i}' for i in range(c1.m)])}"])
    return src.build({"fvv": ("v", lines)})[0]


def _none(i: int) -> list[str]:
    return []


class _Source:
    """The values bound so far, and the source-writing steps."""

    def __init__(self):
        self.values: list = []

    def name(self, value) -> str:
        self.values.append(value)
        return f"_{len(self.values) - 1}"

    def times(self, w, x: str) -> str:
        # an int 1 multiplies an int block value exactly
        return x if type(w) is int and w == 1 else f"{self.name(w)} * {x}"

    def term(self, c, w, x: str) -> str:
        # c + w*x; an int 0 added to an int product changes nothing
        wx = self.times(w, x)
        exact = type(c) is int and c == 0 and type(w) is int
        return wx if exact else f"{self.name(c)} + {wx}"

    def test(self, comp, j: int, x: str) -> str:
        op = ">=" if comp.spec.gate_dirs[j] == "ge" else "<="
        return f"{x} {op} {self.name(comp.eff_thresholds[j])}"

    def extract(self, comp, i: int, var: str) -> list[str]:
        """Lines setting var<i> to block i's value of v."""
        s, mk, _ = comp.parts[i]
        bf, out, ln = comp.spec.blocks[i], f"{var}{i}", comp.spec.block_length
        x = _field("v", s, mk, i == comp.m - 1)  # the top block needs no mask
        if bf.family is Family.ONEMAX:
            return [f"{out} = {x}.bit_count()"]
        if bf.family is Family.LEADINGONES:
            return [f"x = {x}", f"{out} = (x ^ (x + 1)).bit_length() - 1"]
        if bf.family is Family.JUMP:
            k, plateau = self.name(bf.k), self.name(ln - bf.k)
            return [f"c = {x}.bit_count()", f"{out} = c + {k} if c <= "
                    f"{plateau} or c == {ln:d} else {ln:d} - c"]
        tail, segments = epistasis_segments(bf.nu, ln)
        terms = [f"{self.name(tb)}[{_field('x', sh, sm, sh + sm.bit_length() == ln)}]"
                 for sh, sm, tb in segments]
        if tail is not None:
            terms.insert(0, f"(x >> {tail:d}).bit_count()")
        return [f"x = {x}"] + _sums(out, terms)

    def fetch(self, comp, var: str) -> list[str]:
        return [line for i in range(comp.m) for line in self.extract(comp, i, var)]

    def gates(self, comp, V: list[str]) -> tuple[list[str], list[str]]:
        """Lines setting g<j> to block j's own test, for every block that
        gates another, and o<i> to whether block i's gate is open (its
        parents pass and are open), in an order that puts parents first;
        and per block the name of its open flag ("" when it has no
        ancestors, so its gate is always open)."""
        anc, deps, m = comp.ancestors, comp.spec.dependencies, comp.m
        parents = [[p for p in range(m) if deps[p][i]] for i in range(m)]
        lines = [f"g{j} = {self.test(comp, j, V[j])}"
                 for j in sorted({p for ps in parents for p in ps})]
        for i in sorted(range(m), key=lambda i: len(anc[i])):  # parents first
            if parents[i]:
                lines.append(f"o{i} = " + " and ".join(
                    f"g{p} and o{p}" if anc[p] else f"g{p}" for p in parents[i]))
        return lines, [f"o{i}" if anc[i] else "" for i in range(m)]

    def body(self, comp, var: str, y: str, ex, reference=False) -> list[str]:
        """Lines computing comp's f from var0, var1, ... into y, in fv's
        order of operations or, with reference, f_from_values'. ex(i)
        gives the lines extracting block i, emitted before its first use,
        so a gate chain can extract a block only once its gate is open."""
        spec, m = comp.spec, comp.m
        V = [f"{var}{i}" for i in range(m)]
        w, c = spec.weights, spec.constants
        lines: list[str] = []
        if comp.chain is not None and not reference:
            head, last = comp.chain[0], comp.chain[-1]
            for b in comp.chain:
                step = ex(b) + [f"{y} {'=' if b == head else '+='} "
                                f"{self.term(c[b], w[b], V[b])}"]
                if b != last:  # a failed test closes every later block
                    step.append(f"ok = {self.test(comp, b, V[b])}")
                lines += step if b == head else ["if ok:"] + [
                    "    " + line for line in step]
            return lines
        for i in range(m):
            lines += ex(i)
        if comp.eff_thresholds is not None:
            flags, opens = self.gates(comp, V)
            lines += flags + [f"{y} = 0.0"]
            for i in range(m):
                add = f"{y} += {self.term(c[i], w[i], V[i])}"
                lines += [f"if {opens[i]}:", "    " + add] if opens[i] else [add]
            return lines
        if comp.plain and not reference:
            return lines + _sums(y, V, "float({})")
        base = sum(c)
        terms = [self.times(w[i], V[i]) for i in range(m)]
        if not (type(base) is int and base == 0 and type(w[0]) is int):
            terms.insert(0, self.name(base))
        terms += [f"{self.times(e, V[i])} * {V[j]}" for i, j, e in comp.pairs]
        return lines + _sums(y, terms)

    def build(self, functions: dict[str, tuple[str, list[str]]]) -> tuple:
        """exec one factory that defines each name(param) with its body
        lines and takes the bound values as its arguments."""
        args = ", ".join(f"_{i}" for i in range(len(self.values)))
        src = [f"def factory({args}):"]
        for fname, (param, lines) in functions.items():
            src.append(f"    def {fname}({param}):")
            src += ["        " + line for line in lines]
        src.append(f"    return {', '.join(functions)},")
        ns: dict = {}
        exec("\n".join(src), ns)
        return ns["factory"](*self.values)


def _sums(y: str, terms: list[str], wrap: str = "{}") -> list[str]:
    """y = wrap(terms[0] + terms[1] + ...), added left to right, CHUNK
    terms to a statement."""
    chunks = [terms[:CHUNK]] + [[y] + terms[k:k + CHUNK - 1]
                                for k in range(CHUNK, len(terms), CHUNK - 1)]
    return [f"{y} = " + (wrap if c is chunks[-1] else "{}").format(" + ".join(c))
            for c in chunks]


def _field(v: str, shift: int, mask: int, top: bool) -> str:
    """Source of (v >> shift) & mask; top: v has no bits above the field."""
    x = f"({v} >> {shift:d})" if shift else v
    return x if top else f"({x} & {mask:d})"


def _tuple(names: list[str]) -> str:
    return f"({', '.join(names)},)"
