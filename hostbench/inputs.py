"""Seeded input generators and their numpy dense references.

Every generator takes a ``numpy.random.Generator`` and returns plain
:class:`Case` records: a registered graph name, the live tensors a
:class:`~repro.sam.spec.ProgramSpec` encodes, builder params and the
dense numpy result the run must reproduce.  Shapes and nonzeros per row
are fixed by the workload, so a new seed changes values and sparsity
patterns but keeps the amount of simulated work (and with it every
host-time metric) comparable from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import register_graph
from repro.sam import CsfTensor
from repro.sam import reference


@dataclass
class Case:
    """One program of a workload: how to build it and what it must compute."""

    name: str
    graph: str
    tensors: dict[str, Any]
    params: dict[str, Any]
    expected: np.ndarray
    executor: str = "sequential"
    config: dict[str, Any] = field(default_factory=dict)


@register_graph("hostbench_parallel_mha", tensors=("mask", "q", "k", "v"))
def build_parallel_mha(mask, q, k, v, parallelism=1, depth=None):
    """Parallel sparse MHA (Fig. 9) made constructible from a spec."""
    from repro.sam.graphs.mha import build_parallel_mha as build

    return build(mask.to_dense(), q, k, v, parallelism=parallelism, depth=depth)


def sparse_rows(rng, rows: int, cols: int, per_row: int) -> np.ndarray:
    """A dense array with exactly ``per_row`` nonzeros, in (0.1, 1], per row."""
    out = np.zeros((rows, cols))
    for row in range(rows):
        picked = rng.choice(cols, size=per_row, replace=False)
        out[row, picked] = rng.uniform(0.1, 1.0, size=per_row)
    return out


def attention_inputs(rng, heads: int, seq_len: int, d: int, per_row: int):
    mask = np.stack(
        [(sparse_rows(rng, seq_len, seq_len, per_row) != 0) for _ in range(heads)]
    ).astype(float)
    q, k, v = (rng.uniform(-1.0, 1.0, (heads, seq_len, d)) for _ in range(3))
    return mask, q, k, v


def spmspm_case(rng, n: int, per_row: int, depth: int) -> Case:
    b = sparse_rows(rng, n, n, per_row)
    c = sparse_rows(rng, n, n, per_row)
    return Case(
        "spmspm",
        "spmspm",
        {
            "b": CsfTensor.from_dense(b, "dc"),
            "c_transposed": CsfTensor.from_dense(c.T.copy(), "dc"),
        },
        {"depth": depth},
        reference.spmspm(b, c),
    )


def mmadd_case(rng, n: int, per_row: int, depth: int) -> Case:
    b = sparse_rows(rng, n, n, per_row)
    c = sparse_rows(rng, n, n, per_row)
    return Case(
        "mmadd",
        "mmadd",
        {"b": CsfTensor.from_dense(b, "dc"), "c": CsfTensor.from_dense(c, "dc")},
        {"depth": depth},
        reference.mmadd(b, c),
    )


def sddmm_case(rng, n: int, per_row: int, k: int, depth: int) -> Case:
    s = sparse_rows(rng, n, n, per_row)
    a = rng.uniform(-1.0, 1.0, (n, k))
    b = rng.uniform(-1.0, 1.0, (n, k))
    return Case(
        "sddmm",
        "sddmm",
        {"s": CsfTensor.from_dense(s, "dc"), "a_dense": a, "b_dense": b},
        {"depth": depth},
        reference.sddmm(s, a, b),
    )


def mha_case(rng, heads: int, seq_len: int, d: int, per_row: int, depth: int) -> Case:
    mask, q, k, v = attention_inputs(rng, heads, seq_len, d, per_row)
    return Case(
        "mha",
        "mha",
        {"mask": CsfTensor.from_dense(mask, "dcc"), "q": q, "k": k, "v": v},
        {"depth": depth},
        reference.sparse_mha(q, k, v, mask),
    )


def parallel_mha_case(
    rng, heads: int, seq_len: int, parallelism: int, workers: int, per_row: int = 5
) -> Case:
    mask, q, k, v = attention_inputs(rng, heads, seq_len, 8, per_row)
    return Case(
        f"mha_p{parallelism}",
        "hostbench_parallel_mha",
        {"mask": CsfTensor.from_dense(mask, "dcc"), "q": q, "k": k, "v": v},
        {"parallelism": parallelism, "depth": 16},
        reference.sparse_mha(q, k, v, mask),
        executor="process",
        config={"workers": workers},
    )


#: Kernel-mix sizes: (spmspm n, mmadd n, sddmm n, mha seq_len).  "full"
#: gives 60k-80k simulated ops per kernel; "smoke" is the self-test size.
MIX_SIZES = {"full": (24, 70, 30, 16), "smoke": (8, 12, 10, 6)}


def kernel_mix(rng, depth: int, scale: str = "full") -> list[Case]:
    """One of each SAM kernel, in a seeded order."""
    spmspm_n, mmadd_n, sddmm_n, seq_len = MIX_SIZES[scale]
    cases = [
        spmspm_case(rng, spmspm_n, max(1, spmspm_n // 5), depth),
        mmadd_case(rng, mmadd_n, max(1, mmadd_n * 3 // 10), depth),
        sddmm_case(rng, sddmm_n, max(1, sddmm_n * 3 // 10), 8, depth),
        mha_case(rng, 2, seq_len, 8, max(1, seq_len * 5 // 16), depth),
    ]
    return [cases[i] for i in rng.permutation(len(cases))]


def parallel_mix(rng, scale: str = "full") -> list[Case]:
    """Fig. 9 parallel MHA at parallelism 2 and 8, plus one pipeline the
    partitioner must cut across the two workers (the shuttle path)."""
    heads, seq_len = (8, 16) if scale == "full" else (8, 6)
    per_row = 5 if scale == "full" else 2
    return [
        parallel_mha_case(rng, heads, seq_len, 2, workers=2, per_row=per_row),
        parallel_mha_case(rng, heads, seq_len, 8, workers=2, per_row=per_row),
        parallel_mha_case(rng, 2, seq_len, 1, workers=2, per_row=per_row),
    ]


SERVE_GRAPHS = ("spmspm", "mmadd", "sddmm")
SERVE_EXECUTORS = ("sequential", "threaded", "process")
SERVE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")


def serve_order(rng, size: int = 36, cycles: int = 200) -> list[int]:
    """The order the closed loop sends pool entries in: a fresh seeded
    shuffle of the pool per cycle, so which executors' requests overlap
    is random but steady, instead of locking into one phase."""
    return [int(index) for _ in range(cycles) for index in rng.permutation(size)]


def serve_pool(rng, size: int = 36) -> list[tuple[str, Case]]:
    """Small served requests as ``(tenant, case)``, 2.5k-4.5k ops each.

    Every (graph, executor) pair appears equally often; each graph has
    two fixed shapes that repeat across the pool, so the server's plan
    cache sees hits, while values and sparsity patterns are fresh per
    request.
    """
    pool = []
    for index in range(size):
        graph = SERVE_GRAPHS[index % 3]
        executor = SERVE_EXECUTORS[(index // 3) % 3]
        small = (index // 9) % 2 == 0
        if graph == "spmspm":
            case = spmspm_case(rng, 6 if small else 7, 2, depth=4)
        elif graph == "mmadd":
            case = mmadd_case(rng, 9 if small else 10, 7, depth=4)
        else:
            case = sddmm_case(rng, 7 if small else 8, 3, 4, depth=4)
        case.executor = executor
        if executor == "process":
            case.config = {"workers": 2}
        pool.append((SERVE_TENANTS[(index // 2) % 3], case))
    return pool
