"""Outside-in tracer: spans around lawcat functions, installed by patching.

lawcat modules import names directly (`completeness` binds `kleisli_compose`
from `tvcat`), so a function is wrapped in every `lawcat.*` module that binds
it, and monad methods on every class that defines them.  One wrapper object
serves all bindings of one function; `uninstall` puts every original back.

Spans stay in memory as flat arrays (name, parent, start, end) until the pass
ends.  A span's self time is its duration minus the durations of its direct
children; since spans nest, the self times of all spans plus the time outside
every span add up to the pass time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (module, name) of each traced function; "Class.method" means every class
# of the module that defines the method in its own body.
FUNCTIONS = (
    ("laxext", "LaxExtension.extend"),
    ("monad", "*.extend_relation"),
    ("monad", "*.tmap"),
    ("monad", "*.mult_map"),
    ("monad", "monad_capabilities"),
    ("completeness", "enumerate_adjoint_pairs"),
    ("completeness", "representative_for"),
    ("tvcat", "kleisli_compose"),
    ("tvcat", "check_tvcategory"),
    ("vmatrix", "mcompose"),
    ("vmatrix", "left_adjoint_map_criterion"),
    ("enriched", "all_vcategories"),
    ("enriched", "check_vbimodule"),
    ("instances", "weakly_sober"),
    ("quniform", "decide_lawvere_q"),
    ("quniform", "decide_cauchy_complete"),
    ("fileio", "load_file"),
    ("cli", "main"),
)


def span_name(module, name):
    """Metric prefix of a traced function: `laxext.extend`, `monad.tmap`."""
    return f"{module}.{name.rsplit('.', 1)[-1]}"


def _count_extend(counters, args, result):
    counters["laxext.extend.cells"] += result.rows * result.cols


def _count_enumeration(counters, args, result):
    x = args[0]
    counters["completeness.enumerate_adjoint_pairs.candidates"] += (
        x.ext.q.n ** x.ext.monad.size(x.n)
    )
    counters["completeness.enumerate_adjoint_pairs.pairs"] += len(result)


COUNTERS = {
    "laxext.extend": _count_extend,
    "completeness.enumerate_adjoint_pairs": _count_enumeration,
}


class Tracer:
    """Records spans around patched lawcat functions.

    With `layers=False` only the suite items are wrapped: that is the
    untraced configuration, which still needs the time of each item.
    """

    def __init__(self, layers=True):
        self.layers = layers
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.counters = defaultdict(int)
        self._patches = []

    def _wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        count = COUNTERS.get(name)
        counters = self.counters
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import lawcat.cli  # noqa: F401  (loads every lawcat module)
        import lawcat.suite as suite

        if self.layers:
            modules = [
                m for k, m in sorted(sys.modules.items())
                if k == "lawcat" or k.startswith("lawcat.")
            ]
            for modname, dotted in FUNCTIONS:
                module = sys.modules[f"lawcat.{modname}"]
                name = span_name(modname, dotted)
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    for cls in vars(module).values():
                        if (
                            isinstance(cls, type)
                            and cls.__module__ == module.__name__
                            and (cls_name == "*" or cls.__name__ == cls_name)
                            and meth in vars(cls)
                        ):
                            self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
                    continue
                original = getattr(module, dotted)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        items = tuple((item, self._wrap(f"suite.{item}", fn)) for item, fn in suite.REGISTRY)
        self._patch(suite, "REGISTRY", items)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def first_durations(self, prefix):
        """Seconds of the first span of each name that starts with `prefix`."""
        wanted = {nid for nid, name in enumerate(self.names) if name.startswith(prefix)}
        out = {}
        for i, nid in enumerate(self.name):
            if nid in wanted and self.names[nid] not in out:
                out[self.names[nid]] = (self.end[i] - self.start[i]) / 1e9
        return out

    def summary(self):
        """Per-function self time and calls, the counters, and span cover."""
        n = len(self.name)
        child = [0] * n
        misses = set()
        relation = self._name_ids.get("monad.extend_relation")
        covered = 0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0:
                covered += dur
            else:
                child[p] += dur
                if self.name[i] == relation:
                    misses.add(p)
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        extend = self._name_ids.get("laxext.extend")
        hits = 0
        for i in range(n):
            name = self.names[self.name[i]]
            self_ns[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
            if self.name[i] == extend and i not in misses:
                hits += 1
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "calls": dict(calls),
            "counters": dict(self.counters),
            "extend_memo_hits": hits,
            "covered_s": covered / 1e9,
            "spans": n,
        }

    def spans_text(self):
        """The spans as tab-separated rows: index, parent, name, start, end."""
        rows = ["index\tparent\tname\tstart_ns\tend_ns\n"]
        for i in range(len(self.name)):
            rows.append(
                f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                f"{self.start[i]}\t{self.end[i]}\n"
            )
        return "".join(rows)
