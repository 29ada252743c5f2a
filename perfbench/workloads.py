"""Workloads of the springer-rca benchmark: case slots, pools and the seed rule.

A case is one CLI invocation.  A workload is a fixed list of slots.  Seed 0
gives every slot its reference case (the first entry of its pool), which
reproduces the reference grids in BASELINE.md; any other seed draws each
slot independently from its pool with ``random.Random(seed)``.  A pool holds
coprime ``(n, k, D)`` triples whose ``D`` follows the slot's stated rule and
whose wall time at the seed commit was within about 15% of the reference
case's on the host of BASELINE.md, so a pass does comparable work whatever
the seed.  Every case any seed can draw has a golden digest in
``golden.json``.
"""

from __future__ import annotations

import random

SUITES = ("weyl", "sl2", "singular", "kernel-y", "appendix-b", "stabilizer", "euler", "oracle")


class Case:
    """One CLI invocation; ``key`` is its argv as a user would type it."""

    def __init__(self, argv):
        self.argv = list(argv)
        self.key = " ".join(self.argv)


class Slot:
    """A case position: a command prefix and its pool of (n, k, D), reference first."""

    def __init__(self, prefix, pool):
        self.prefix = tuple(prefix)
        self.pool = tuple(pool)

    def case(self, n, k, d):
        return Case([*self.prefix, "--n", str(n), "--k", str(k), "--max-degree", str(d)])


class Workload:
    def __init__(self, name, slots, required_spans):
        self.name = name
        self.slots = slots
        # spans every traced pass of this workload must record at least once
        self.required_spans = required_spans

    def cases(self, seed):
        if seed == 0:
            return [slot.case(*slot.pool[0]) for slot in self.slots]
        rng = random.Random(seed)
        return [slot.case(*rng.choice(slot.pool)) for slot in self.slots]

    def all_cases(self):
        return [slot.case(*entry) for slot in self.slots for entry in slot.pool]


def stabilization_degree(n, k):
    """Smallest truncation the kernel-y suite accepts, (n-1)(k-1) + n."""
    return (n - 1) * (k - 1) + n


def _verify(suite):
    return ("verify", "--suite", suite)


def _kernel_y(*pairs):
    return [(n, k, stabilization_degree(n, k)) for n, k in pairs]


# Dense Fraction elimination (RatMat.rref) dominates: an elimination change
# shows here and only here.  singular: D per pair, listed, chosen so the
# seed-commit cost matches the reference; kernel-y: D = stabilization degree.
KERNEL_HEAVY = Workload(
    "kernel-heavy",
    [
        Slot(_verify("singular"), [(5, 6, 20), (4, 9, 20), (6, 5, 17)]),
        Slot(_verify("singular"), [(4, 7, 22), (5, 6, 15)]),
        Slot(_verify("kernel-y"), _kernel_y((5, 6), (6, 5))),
        Slot(_verify("kernel-y"), _kernel_y((4, 7), (2, 49))),
    ],
    (
        "cli.main", "verify.suite.singular", "verify.suite.kernel-y",
        "core.build_graded_basis", "core.enumerate_fixed_points",
        "operators.minuscule_monopole", "linalg.rref", "linalg.matvec",
        "qseries.euler_series",
    ),
)

# Operator assembly and composition dominate and elimination is under 1%:
# an assembly, vectorization or serialization change shows here, and an
# elimination change must read "no change".  D is fixed per slot.
RELATIONS = Workload(
    "relations",
    [
        Slot(_verify("weyl"), [(5, 7, 30), (7, 4, 31)]),
        Slot(_verify("weyl"), [(4, 7, 30), (7, 3, 30)]),
        Slot(_verify("sl2"), [(2, 21, 120), (2, 19, 120), (2, 23, 120)]),
        Slot(_verify("appendix-b"), [(2, 21, 120), (2, 19, 120), (2, 23, 120)]),
        Slot(
            ("operator", "--op", "monopole", "--coweight", "1,1,0,0,0", "--dress", "e2"),
            [(5, 7, 26), (5, 6, 29)],
        ),
    ],
    (
        "cli.main", "verify.suite.weyl", "verify.suite.sl2", "verify.suite.appendix-b",
        "core.build_graded_basis", "operators.minuscule_monopole", "operators.operator_h",
        "operators.compose", "operators.add", "operators.sub", "operators.scaled",
        "linalg.matmul", "linalg.rref", "linalg.matvec",
        "rank_two.closed_form_x", "rank_two.closed_form_y", "rank_two.closed_form_e",
        "rank_two.closed_form_f", "rank_two.closed_form_h", "rank_two.y_kernel_vectors",
    ),
)

# The everyday command: every applicable suite per case, with basis and
# operators rebuilt per suite, the lazy sympy import and the semigroup
# oracle.  D = 24, the oracle's colength budget.  Many small blocks, so a
# per-block overhead that big blocks hide shows here.
VERIFY_ALL = Workload(
    "verify-all",
    [
        Slot(_verify("all"), [(2, 7, 24), (2, 5, 24), (2, 9, 24)]),
        Slot(_verify("all"), [(2, 9, 24), (2, 7, 24), (2, 5, 24)]),
        Slot(_verify("all"), [(3, 4, 24), (2, 11, 24)]),
        Slot(_verify("all"), [(3, 5, 24), (4, 3, 24)]),
        Slot(_verify("all"), [(4, 5, 24), (3, 10, 24), (5, 3, 24)]),
    ],
    (
        "cli.main", *(f"verify.suite.{suite}" for suite in SUITES),
        "core.build_graded_basis", "core.enumerate_fixed_points",
        "operators.minuscule_monopole", "operators.operator_h", "operators.compose",
        "linalg.rref", "linalg.matvec", "linalg.matmul", "qseries.euler_series",
        "semigroup.enumerate_gap_sets", "semigroup.count_ideals",
        "semigroup.compare_with_fixed_points", "verify.verify_stabilizer",
        "rank_two.closed_form_x",
    ),
)

WORKLOADS = {w.name: w for w in (KERNEL_HEAVY, RELATIONS, VERIFY_ALL)}
