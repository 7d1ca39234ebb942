"""Spans and counters around the public entry points of each package layer.

The traced run installs wrappers from here; the untraced run installs none.
A span is (name, start, end, parent, root) kept in memory and written out
when the run ends.  A layer's self time is the duration of its spans minus
the time their child spans cover.  Counters count only the finest-grained
calls (scalar inverses and products, EnvElement products and actions), so
they add no span of their own.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("scalars", "linalg", "algebra", "resolution", "cohomology", "yoneda", "bar", "cli")

_SPANS = {
    # module attribute -> span name; the layer is the span name's first part
    "linalg": ["coset_basis", "stack_rank"],
    "resolution": ["differential"],
    "cohomology": [
        "dimension_table", "hh_dimension_ext", "hh_dimension_tor",
        "hom_differential", "delta_matrix", "standard_basis", "express",
    ],
    "yoneda": ["build_lifting", "verify_lifting", "yoneda_product", "reduced_ring_table", "relations_check"],
    "cli": ["main"],
}
_METHOD_SPANS = {
    ("linalg", "SparseMatrix"): ["rank", "kernel_basis", "column_space", "solve", "apply"],
    ("linalg", "Subspace"): ["__init__", "contains", "contains_subspace"],
    ("bar", "BarComplex"): ["dimension_rows", "bar_differential", "bar_hh_dimension"],
}
_METHOD_COUNTS = {
    ("scalars", "CyclotomicScalar"): {"inverse": "cyc_inverse", "__mul__": "cyc_mul", "__rmul__": "cyc_mul"},
    ("algebra", "EnvElement"): {"__mul__": "env_mul", "act": "act"},
}
# calls that return a cached object on a hit; a new object means a build
_CACHED = {"resolution.differential", "cohomology.hom_differential", "cohomology.delta_matrix",
           "cohomology.standard_basis"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, root, attrs]
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._seen = {}  # id -> object returned by a cached call (kept alive)
        self._solved = defaultdict(list)  # (rows, cols, nnz) -> matrices solved

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self._observe

        def wrapped(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, stack[0] if stack else idx, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                rec[5] = observe(name, args, result)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _built(self, result) -> bool:
        """True the first time a cached call returns this object."""
        if id(result) in self._seen:
            return False
        self._seen[id(result)] = result
        return True

    def _observe(self, name, args, result):
        """Per-call attributes: matrix shape and size, cache hit, repeat solve."""
        if name in _CACHED:
            return {"built": self._built(result)}
        if name.startswith("linalg.SparseMatrix."):
            m = args[0]
            attrs = {"cols": m.cols, "nnz": len(m.entries)}
            if name == "linalg.SparseMatrix.solve":
                bucket = self._solved[(m.rows, m.cols, len(m.entries))]
                attrs["repeat"] = any(o.field == m.field and o.entries == m.entries for o in bucket)
                if not attrs["repeat"]:
                    bucket.append(m)
            return attrs
        if name == "linalg.Subspace.__init__":
            vectors = args[2]
            return {"cols": args[1], "nnz": sum(len(v) for v in vectors) if isinstance(vectors, list) else 0}
        if name in ("linalg.coset_basis", "linalg.stack_rank"):
            sub = args[0]
            return {"cols": sub.ambient, "nnz": sum(len(v) for v in sub.basis)}
        if name == "bar.BarComplex.bar_differential":
            if not self._built(result):
                return {"built": False}
            nonempty = sum(1 for row in result.rows if row)
            return {
                "built": True,
                "rows": result.nrows,
                "cols": result.ncols,
                "nnz": sum(len(row) for row in result.rows),
                "dense_bytes": nonempty * result.ncols * 8,
            }
        return None

    def install(self, package):
        """Wrap the layers' public entry points inside `package` (qci_hochschild)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        every = [m for m in vars(package).values() if type(m) is type(package)] + [package]
        for layer, names in _SPANS.items():
            for attr in names:
                original = getattr(modules[layer], attr)
                wrapper = self._span(f"{layer}.{attr}", original)
                # rebind every module-level reference, `from x import f` ones too
                for module in every:
                    for ref, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, ref, value))
                            setattr(module, ref, wrapper)
        for (layer, cls_name), names in _METHOD_SPANS.items():
            cls = getattr(modules[layer], cls_name)
            for attr in names:
                self._replace(cls, attr, self._span(f"{layer}.{cls_name}.{attr}", cls.__dict__[attr]))
        for (layer, cls_name), names in _METHOD_COUNTS.items():
            cls = getattr(modules[layer], cls_name)
            for attr, counter in names.items():
                self._replace(cls, attr, self._counter(f"{layer}.{counter}", cls.__dict__[attr]))

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, root, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "root": root, "attrs": attrs}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")

    # -- metrics ------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def metrics(self, wall_s, untraced_wall_s, bench_s, pairs, stdout_bytes):
        """Per-layer metrics of one traced pass.

        `bench_s` is the benchmark's own time in the pass (checking verdicts);
        `pairs` lists (cyclotomic root span, prime root span) pairs of
        invocations that differ only in their backend.
        """
        spans, counts = self.spans, self.counts
        own = self.self_times()
        layer = [s[0].split(".", 1)[0] for s in spans]
        dur = [s[2] - s[1] for s in spans]

        def select(*names):
            return [i for i, s in enumerate(spans) if s[0] in names]

        def outermost(idxs):
            chosen = set(idxs)
            out = []
            for i in idxs:
                p = spans[i][3]
                while p >= 0 and p not in chosen:
                    p = spans[p][3]
                if p < 0:
                    out.append(i)
            return out

        def frac(num, den):
            return num / den if den else 0.0

        linalg = [i for i in range(len(spans)) if layer[i] == "linalg"]
        linalg_entry = [i for i in linalg if spans[i][3] < 0 or layer[spans[i][3]] != "linalg"]
        ranks = select("linalg.SparseMatrix.rank")
        solves = select("linalg.SparseMatrix.solve")
        cached = select("cohomology.hom_differential", "cohomology.delta_matrix", "cohomology.standard_basis")
        diffs = select("resolution.differential")
        bar_builds = [spans[i][5] for i in select("bar.BarComplex.bar_differential") if spans[i][5]["built"]]

        linalg_by_root = Counter()
        for i in linalg:
            linalg_by_root[spans[i][4]] += own[i]
        cyc_s = sum(linalg_by_root[c] for c, _ in pairs)
        prime_s = sum(linalg_by_root[p] for _, p in pairs)

        def total(idxs, times=dur):
            return sum(times[i] for i in idxs)

        layer_self = {name: 0.0 for name in LAYERS if name not in ("scalars", "algebra")}
        for i in range(len(spans)):
            layer_self[layer[i]] += own[i]

        out = {
            "scalars.cyc_inverse_calls": counts["scalars.cyc_inverse"],
            "scalars.cyc_mul_calls": counts["scalars.cyc_mul"],
            "scalars.cyc_over_prime": frac(cyc_s, prime_s),
            "scalars.cyc_linalg_s": cyc_s,
            "scalars.prime_linalg_s": prime_s,
            "linalg.calls": len(linalg_entry),
            "linalg.s": total(linalg_entry),
            "linalg.rank_calls": len(ranks),
            "linalg.rank_s": total(outermost(ranks)),
            "linalg.solve_calls": len(solves),
            "linalg.solve_s": total(outermost(solves)),
            "linalg.max_cols": max((spans[i][5]["cols"] for i in linalg if spans[i][5]), default=0),
            "linalg.nnz_in": sum(spans[i][5]["nnz"] for i in linalg_entry if spans[i][5]),
            "linalg.repeat_solve_frac": frac(sum(spans[i][5]["repeat"] for i in solves), len(solves)),
            "algebra.env_mul_calls": counts["algebra.env_mul"],
            "algebra.act_calls": counts["algebra.act"],
            "resolution.differential_calls": len(diffs),
            "resolution.differential_s": total(outermost(diffs)),
            "resolution.differential_miss_frac": frac(sum(spans[i][5]["built"] for i in diffs), len(diffs)),
            "cohomology.matrix_build_s": total(select("cohomology.hom_differential", "cohomology.delta_matrix"), own),
            "cohomology.standard_basis_s": total(outermost(select("cohomology.standard_basis"))),
            "cohomology.express_calls": len(select("cohomology.express")),
            "cohomology.express_s": total(outermost(select("cohomology.express"))),
            "cohomology.express_self_s": total(select("cohomology.express"), own),
            "cohomology.cache_miss_frac": frac(sum(spans[i][5]["built"] for i in cached), len(cached)),
            "yoneda.product_calls": len(select("yoneda.yoneda_product")),
            "yoneda.product_self_s": total(select("yoneda.yoneda_product"), own),
            "yoneda.lifting_build_s": total(outermost(select("yoneda.build_lifting"))),
            "yoneda.lifting_verify_s": total(outermost(select("yoneda.verify_lifting"))),
            "yoneda.table_self_s": total(select("yoneda.reduced_ring_table"), own),
            "bar.build_s": total(outermost(select("bar.BarComplex.bar_differential"))),
            "bar.rank_s": total(select("bar.BarComplex.bar_hh_dimension"), own),
            "bar.max_rows": max((b["rows"] for b in bar_builds), default=0),
            "bar.max_cols": max((b["cols"] for b in bar_builds), default=0),
            "bar.nnz": sum(b["nnz"] for b in bar_builds),
            "bar.dense_bytes_computed": sum(b["dense_bytes"] for b in bar_builds),
            "cli.stdout_bytes": stdout_bytes,
            "trace.overhead_frac": wall_s / untraced_wall_s - 1.0,
            "trace.wall_s": wall_s,
            "trace.untraced_wall_s": untraced_wall_s,
            "trace.bench_self_s": bench_s,
            "trace.accounted_frac": (sum(layer_self.values()) + bench_s) / wall_s,
            "trace.spans": len(spans),
        }
        for name in ("cohomology", "yoneda", "bar", "cli"):  # linalg.s and differential_s are the others
            out[f"{name}.self_s"] = layer_self[name]
        return out

