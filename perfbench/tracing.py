"""Outside-in tracing of hyperdec's layers.

The tracer wraps the public methods of HyperValue and the public
functions of transfer, hypercalc, lightstone, expr, microscope and cli.
Modules import functions by name, so each wrapper replaces the original
under every name in every hyperdec module that refers to it (for example
hypercalc.derivative and cli.render as well as transfer.derivative and
lightstone.render).  Nothing under src/ changes.

Each call records a span: name, layer, start, end, parent span, op id
and a small detail (term budget and result shape for hyperfield, mode
and steps for Newton, exit code for the CLI).  A call whose parent span
has the same name is folded into it, so recursive helpers such as
eval_star count once per outside call.  Spans stay in memory and are
written out when the run ends.

A layer's self time is the time of its entry spans (spans whose parent
is in another layer, or none) minus the time of child spans in other
layers.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from hyperdec.errors import HyperError
from hyperdec.hyperfield import HyperValue

LAYERS = ("hyperfield", "transfer", "hypercalc", "lightstone", "expr", "microscope", "cli")

# HyperValue methods and the op name their spans carry.  Subtraction is
# counted as add (it is an add of the negation), division as div with
# its inverse as a child inv span.
HYPERVALUE_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "inv": "inv",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "compare": "compare", "floor": "floor", "standard_part": "standard_part",
    "classify": "classify",
}

HYPERFIELD_OPS = ("add", "mul", "inv", "pow", "compare", "floor")
TRANSFER_OPS = {"derivative": "derivative", "eval_star": "eval_star",
                "eval_real": "eval_real", "limit_seq": "limit_seq",
                "limit_fun": "limit_fun", "uniform_probe": "uniform_continuity_probe"}

# span fields
NAME, LAYER, START, END, PARENT, OP, DETAIL, REFUSED = range(8)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__ and name != "main"):
            yield name, obj


def _detail(layer: str, name: str, args, result):
    if layer == "hyperfield":
        if isinstance(result, HyperValue):
            return (args[0].ctx.max_terms, result.truncated, len(result.terms))
        return (args[0].ctx.max_terms, None, None)
    if name == "newton_trace":
        return (result.mode, len(result.iterates) - 1)
    if name == "run_cli":
        return result
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    # --- wrapping ---------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, layer, 0, 0, parent, tracer.op_id, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except HyperError:
                span[REFUSED] = True
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            span[DETAIL] = _detail(layer, name, args, result)
            return result

        return traced

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperdec" or mod_name.startswith("hyperdec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        """Install the wrappers; leaving the block removes them."""
        for method, op in HYPERVALUE_METHODS.items():
            original = getattr(HyperValue, method)
            self._undo.append((HyperValue, method, original))
            setattr(HyperValue, method, self._wrap("hyperfield", op, original))
        for layer in LAYERS[1:]:
            module = sys.modules[f"hyperdec.{layer}"]
            for name, fn in list(_public_functions(module)):
                self._replace_everywhere(fn, self._wrap(layer, name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- output -------------------------------------------------------------
    def write(self, path):
        """One tab-separated line per span: id parent op layer name start end."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tlayer\tname\tstart_ns\tend_ns\trefused\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[OP]}\t{s[LAYER]}\t{s[NAME]}"
                         f"\t{s[START] - t0}\t{s[END] - t0}\t{int(s[REFUSED])}\n")


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Every per-layer metric, by name, as (value, unit)."""
    layer_of = [s[LAYER] for s in spans]
    name_of = [s[NAME] for s in spans]
    dur = [s[END] - s[START] for s in spans]
    entry = [s[PARENT] < 0 or layer_of[s[PARENT]] != s[LAYER] for s in spans]

    calls = Counter()
    busy = Counter()
    for i, s in enumerate(spans):
        if entry[i]:
            calls[s[LAYER]] += 1
            busy[s[LAYER]] += dur[i]
            if s[PARENT] >= 0:
                busy[layer_of[s[PARENT]]] -= dur[i]

    def root(i):
        """Outermost span of i's layer that contains i."""
        while not entry[i]:
            i = spans[i][PARENT]
        return i

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[(s[LAYER], s[NAME])].append(i)

    def p50_us(layer, name, keep=lambda i: True):
        return _p50([dur[i] / 1e3 for i in by_name[(layer, name)] if keep(i)])

    def children_of(layer_child, name_child, parent_name, via_root=False):
        n = 0
        for i, s in enumerate(spans):
            if layer_of[i] != layer_child or (name_child and name_of[i] != name_child):
                continue
            if layer_child == "hyperfield" and not entry[i]:
                continue
            p = s[PARENT]
            if p < 0:
                continue
            if via_root:
                p = root(p)
            if name_of[p] == parent_name:
                n += 1
        return n

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    for layer in LAYERS:
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.self_s", busy[layer] / 1e9, "s")

    # hyperfield
    for op in HYPERFIELD_OPS:
        for k in (16, 40):
            put(f"hyperfield.{op}_k{k}_us_p50",
                p50_us("hyperfield", op, lambda i, k=k: spans[i][DETAIL] is not None
                       and spans[i][DETAIL][0] == k), "us")
    shaped = [spans[i][DETAIL] for i in range(len(spans))
              if entry[i] and layer_of[i] == "hyperfield" and spans[i][DETAIL]
              and spans[i][DETAIL][1] is not None]
    put("hyperfield.truncated_ratio", _ratio(sum(d[1] for d in shaped), len(shaped)), "fraction")
    put("hyperfield.terms_out_mean", _ratio(sum(d[2] for d in shaped), len(shaped)), "terms")
    put("hyperfield.refused", sum(1 for i, s in enumerate(spans)
                                  if entry[i] and s[LAYER] == "hyperfield" and s[REFUSED]),
        "count")

    # transfer
    for metric, fname in TRANSFER_OPS.items():
        put(f"transfer.{metric}_us_p50", p50_us("transfer", fname), "us")
    n_deriv = len(by_name[("transfer", "derivative")])
    n_star = len(by_name[("transfer", "eval_star")])
    put("transfer.eval_star_per_derivative",
        _ratio(children_of("transfer", "eval_star", "derivative"), n_deriv), "calls")
    put("transfer.hyperfield_calls_per_eval_star",
        _ratio(children_of("hyperfield", None, "eval_star"), n_star), "calls")

    # hypercalc
    newton = by_name[("hypercalc", "newton_trace")]
    for mode in ("exact", "float"):
        put(f"hypercalc.newton_{mode}_ms_p50",
            _p50([dur[i] / 1e6 for i in newton
                  if spans[i][DETAIL] and spans[i][DETAIL][0] == mode]), "ms")
    put("hypercalc.theorem_check_ms_p50",
        _p50([dur[i] / 1e6 for i in by_name[("hypercalc", "theorem_check")]]), "ms")
    steps = sum(spans[i][DETAIL][1] for i in newton if spans[i][DETAIL])
    put("hypercalc.derivative_calls_per_step",
        _ratio(children_of("transfer", "derivative", "newton_trace"), steps), "calls")
    put("hypercalc.eval_real_calls_per_step",
        _ratio(children_of("transfer", "eval_real", "newton_trace"), steps), "calls")

    # lightstone
    for fname in ("render", "digit_at"):
        put(f"lightstone.{fname}_us_p50", p50_us("lightstone", fname), "us")
    n_render = len(by_name[("lightstone", "render")])
    put("lightstone.digit_at_calls_per_render",
        _ratio(children_of("lightstone", "digit_at", "render"), n_render), "calls")
    put("lightstone.hyperfield_calls_per_render",
        _ratio(children_of("hyperfield", None, "render", via_root=True), n_render), "calls")

    # expr, microscope
    for fname in ("parse_command", "eval_command", "to_function"):
        put(f"expr.{fname}_us_p50", p50_us("expr", fname), "us")
    put("microscope.microscope_us_p50", p50_us("microscope", "microscope"), "us")

    # cli
    runs = by_name[("cli", "run_cli")]
    put("cli.run_cli_ms_p50", _p50([dur[i] / 1e6 for i in runs]), "ms")
    put("cli.overhead_ms_per_call", _ratio(busy["cli"] / 1e6, calls["cli"]), "ms")
    codes = Counter(spans[i][DETAIL] for i in runs)
    put("cli.exit1_ratio", _ratio(codes[1], len(runs)), "fraction")
    put("cli.exit2_ratio", _ratio(codes[2], len(runs)), "fraction")
    return m
