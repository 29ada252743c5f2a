"""Run the springer-rca CLI once, recording a span around each layer call.

Usage: python3 perfbench/trace_cli.py TRACE_JSON ARG...

The ARGs reach ``springer_rca.cli.main`` unchanged and the report goes to
stdout exactly as the console script writes it.  Nothing inside the package
is edited: before ``main`` runs, each function listed in TARGETS is replaced,
in every package namespace and class that binds it, by a wrapper that records
a span (name, start, end, parent span) and counts work from the call's
arguments and return value.  Spans stay in memory and are written to
TRACE_JSON when ``main`` returns.

Per-entry helpers (``phi_weights``, ``is_admissible``, ``sca_numerator``,
``RatMat.__setitem__`` and the like) are deliberately not wrapped: they run
millions of times per case, so a span each would swamp the measurement.
Their time is self time of the layer call that invokes them.
"""

from __future__ import annotations

import importlib
import json
import sys
from math import comb
from time import perf_counter_ns

PACKAGE = "springer_rca"
MODULES = ("core", "linalg", "operators", "rank_two", "qseries", "semigroup", "verify", "cli")


class Tracer:
    """In-memory spans plus counters computed from call arguments and results."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.spans = []  # [name index, start ns, end ns, parent span index]
        self._stack = [-1]
        self.counters = {}
        self.distinct = {}

    def add(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def see(self, key, item):
        self.distinct.setdefault(key, set()).add(item)

    def _index(self, name):
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, name, fn, count=None, name_of=None):
        """Wrapper of ``fn`` that records a span; ``name_of(args)`` suffixes the name."""
        fixed = self._index(name)
        spans, stack, clock = self.spans, self._stack, perf_counter_ns

        def traced(*args, **kwargs):
            index = fixed if name_of is None else self._index(f"{name}.{name_of(args)}")
            record = [index, 0, 0, stack[-1]]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counters": self.counters,
                    "distinct": {key: len(items) for key, items in self.distinct.items()},
                },
                handle,
            )


def _entry_bits(value):
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def count_rref(tracer, args, kwargs, result):
    mat = args[0]
    tracer.add("linalg.rref_calls")
    tracer.add("linalg.rref_cells", mat.nrows * mat.ncols)
    tracer.peak("linalg.rref_max_cols", mat.ncols)
    tracer.peak(
        "linalg.rref_entry_bits_max",
        max((_entry_bits(v) for v in mat.entries.values()), default=0),
    )
    if len(result[1]) < mat.ncols:
        tracer.add("linalg.rref_nontrivial_kernels")


def count_call(key):
    def count(tracer, args, kwargs, result):
        tracer.add(key)

    return count


def _basis_key(basis):
    return (basis.params.n, basis.params.k, basis.max_degree)


def _source_labels(basis, shift):
    return sum(basis.dim(d) for d in range(basis.max_degree - max(0, shift) + 1))


def _nnz(op):
    return sum(len(block.entries) for block in op.blocks.values())


def count_monopole(tracer, args, kwargs, result):
    basis, coweight = args[0], args[1]
    dress = args[2] if len(args) > 2 else kwargs.get("dress")
    vector = coweight.expansion if hasattr(coweight, "expansion") else tuple(coweight)
    r = sum(1 for v in vector if v != 0)
    tracer.add("operators.assembly_calls")
    tracer.add("operators.orbit_terms", _source_labels(basis, result.shift) * comb(len(vector), r))
    tracer.add("operators.nnz", _nnz(result))
    dress_key = None if dress is None else tuple(sorted(dress.terms.items()))
    tracer.see("operators.assembly", (*_basis_key(basis), vector, dress_key))


def count_cartan(tracer, args, kwargs, result):
    basis = args[0]
    tracer.add("operators.assembly_calls")
    tracer.add("operators.orbit_terms", _source_labels(basis, 0))
    tracer.add("operators.nnz", _nnz(result))
    tracer.see("operators.assembly", (*_basis_key(basis), "H", None))


def count_basis(tracer, args, kwargs, result):
    tracer.add("core.basis_builds")
    tracer.see("core.basis", _basis_key(result))


def count_fixed_points(tracer, args, kwargs, result):
    tracer.add("core.fixed_points", len(result))


def count_gap_sets(tracer, args, kwargs, result):
    tracer.add("semigroup.gap_searches")
    tracer.add("semigroup.ideals", len(result))


# (module, class or None, attribute, span name, counter, span-name suffix)
TARGETS = (
    ("core", None, "build_graded_basis", "core.build_graded_basis", count_basis, None),
    ("core", None, "enumerate_fixed_points", "core.enumerate_fixed_points", count_fixed_points, None),
    ("linalg", "RatMat", "rref", "linalg.rref", count_rref, None),
    ("linalg", "RatMat", "matvec", "linalg.matvec", count_call("linalg.matvec_calls"), None),
    ("linalg", "RatMat", "__matmul__", "linalg.matmul", count_call("linalg.matmul_calls"), None),
    ("operators", None, "minuscule_monopole", "operators.minuscule_monopole", count_monopole, None),
    ("operators", None, "operator_h", "operators.operator_h", count_cartan, None),
    ("operators", "GradedOperator", "__matmul__", "operators.compose", count_call("operators.compose_calls"), None),
    ("operators", "GradedOperator", "__add__", "operators.add", count_call("operators.algebra_calls"), None),
    ("operators", "GradedOperator", "__sub__", "operators.sub", count_call("operators.algebra_calls"), None),
    ("operators", "GradedOperator", "scaled", "operators.scaled", count_call("operators.algebra_calls"), None),
    ("rank_two", None, "closed_form_x", "rank_two.closed_form_x", None, None),
    ("rank_two", None, "closed_form_y", "rank_two.closed_form_y", None, None),
    ("rank_two", None, "closed_form_e", "rank_two.closed_form_e", None, None),
    ("rank_two", None, "closed_form_f", "rank_two.closed_form_f", None, None),
    ("rank_two", None, "closed_form_h", "rank_two.closed_form_h", None, None),
    ("rank_two", None, "y_kernel_vectors", "rank_two.y_kernel_vectors", None, None),
    ("qseries", None, "euler_series", "qseries.euler_series", None, None),
    ("semigroup", None, "enumerate_gap_sets", "semigroup.enumerate_gap_sets", count_gap_sets, None),
    ("semigroup", None, "count_ideals", "semigroup.count_ideals", None, None),
    ("semigroup", None, "compare_with_fixed_points", "semigroup.compare_with_fixed_points", None, None),
    ("verify", None, "run_suite", "verify.suite", None, lambda args: args[0]),
    ("verify", None, "verify_stabilizer", "verify.verify_stabilizer", None, None),
    ("cli", None, "main", "cli.main", None, None),
)


def install(tracer):
    """Wrap every target wherever the package binds it; return cli.main.

    ``from .core import build_graded_basis`` gives ``verify`` and ``cli``
    their own bindings, so each module namespace is searched for the original
    object; any binding left unwrapped afterwards is an error.
    """
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    namespaces = [vars(m) for name, m in sys.modules.items() if name.split(".")[0] == PACKAGE]
    originals = []
    for module, cls, attr, span, count, name_of in TARGETS:
        owner = getattr(modules[module], cls) if cls else modules[module]
        original = vars(owner)[attr]
        wrapped = tracer.wrap(span, original, count, name_of)
        if cls:
            setattr(owner, attr, wrapped)
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
        originals.append((span, original))
    classes = [v for ns in namespaces for v in ns.values() if isinstance(v, type)]
    for span, original in originals:
        for holder in namespaces + [vars(c) for c in classes]:
            if any(value is original for value in holder.values()):
                raise RuntimeError(f"{span}: a package binding escaped the wrapper")
    return modules["cli"].main


def main():
    if len(sys.argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tracer = Tracer()
    cli_main = install(tracer)
    try:
        code = cli_main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
