"""Seeded workload generator.

A workload is the fixed sequence of ``bosepauli`` command lines that make up
one pass. Sizes set the cost and never depend on the seed; the seed only
picks the exponents ``l`` (from 1..12, always at least one odd and one even),
the order of the quadrature variants, the exponent of each dump and which
parity projector is dumped. The program receives nothing but the generated
argv.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

WORKLOADS = ("algebra-sweep", "resolution-grid", "operator-export")
VARIANTS = ("even-plain", "odd-plain", "even-phased", "odd-phased")
CATALOG_SIZE = 30  # identities per (dim, l) in the pseudospin catalog


@dataclass(frozen=True)
class Invocation:
    """One command line and what the correctness gate expects of it.

    ``expect`` is ``exact`` (every residual exactly 0.0), ``resolved``
    (every residual below 1e-12), ``under_resolved`` (exit 1 with every
    record flagged under-resolved) or ``dump`` (the matrix equals its closed
    form). ``records`` is the record count a report must have; ``dump`` is
    ``(operator, dim, l, format)``. A non-empty ``standing_defect`` marks a
    probe of a defect the program is known to have: it runs and is timed in
    every pass, and its verdict is reported under that reason instead of in
    the failure count.
    """

    argv: tuple[str, ...]
    expect: str
    records: int = 0
    dump: tuple = ()
    standing_defect: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Invocation":
        return cls(tuple(data["argv"]), data["expect"], data["records"], tuple(data["dump"]), data["standing_defect"])


@dataclass(frozen=True)
class Sizes:
    sweep_dims: tuple[int, ...] = field(default=tuple(2 ** k for k in range(1, 9)))
    sweep_big_dim: int = 512
    quad_dim: int = 64
    quad_grid: tuple[int, int] = (64, 256)
    under_grid: tuple[int, int] = (8, 16)
    probe_grid: tuple[int, int] = (189, 4)
    dump_big_dim: int = 1024
    dump_small_dim: int = 512
    grassmann_dims: tuple[int, ...] = (256, 512, 1024)


FULL = Sizes()
# Seconds-scale sizes for the benchmark's own tests; the K=189 probe is cheap
# at dim 2 and stays as it is.
TINY = Sizes(
    sweep_dims=(2, 4),
    sweep_big_dim=8,
    quad_dim=8,
    quad_grid=(8, 32),
    under_grid=(2, 4),
    dump_big_dim=8,
    dump_small_dim=4,
    grassmann_dims=(2, 4),
)

NAN_GRID_DEFECT = "numpy laggauss weights overflow to NaN from K=189, so the residual is NaN and the JSON holds a bare NaN"


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _exponents(rng: random.Random, count: int) -> list[int]:
    odd = rng.randrange(1, 13, 2)
    even = rng.randrange(2, 13, 2)
    rest = rng.sample([l for l in range(1, 13) if l not in (odd, even)], count - 2)
    ls = [odd, even, *rest]
    rng.shuffle(ls)
    return ls


def _verify(dims, ls) -> Invocation:
    records = len(ls) + CATALOG_SIZE * len(dims) * len(ls)
    return Invocation(("verify", "--dims", _csv(dims), "--ls", _csv(ls)), "exact", records)


def _quadrature(dim, grid, variants, expect, standing_defect="") -> Invocation:
    radial, angular = grid
    argv = ("quadrature", "--dim", str(dim), "--radial", str(radial), "--angular", str(angular), "--variants", _csv(variants))
    return Invocation(argv, expect, len(variants), standing_defect=standing_defect)


def _dump(op, dim, l, fmt) -> Invocation:
    return Invocation(("dump", "--op", op, "--dim", str(dim), "--l", str(l), "--format", fmt), "dump", dump=(op, dim, l, fmt))


def generate(workload: str, seed: int, sizes: Sizes = FULL) -> list[Invocation]:
    """The invocations of one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "algebra-sweep":
        return [_verify(sizes.sweep_dims, _exponents(rng, 6)), _verify((sizes.sweep_big_dim,), _exponents(rng, 2))]
    if workload == "resolution-grid":
        order = list(VARIANTS)
        rng.shuffle(order)
        return [
            _quadrature(sizes.quad_dim, sizes.quad_grid, order, "resolved"),
            _quadrature(sizes.quad_dim, sizes.under_grid, order, "under_resolved"),
            _quadrature(2, sizes.probe_grid, order, "resolved", NAN_GRID_DEFECT),
        ]
    # operator-export. The JSON dump of sigma_+ prints -0.0 imaginary parts
    # (one byte more per entry than sigma_-), so the operator of each slot is
    # fixed; the two projectors print the same bytes and are drawn.
    grassmann_ls = _exponents(rng, 2)
    return [
        _dump("sigma_minus", sizes.dump_big_dim, rng.randint(1, 12), "json"),
        _dump("sigma_plus", sizes.dump_big_dim, rng.randint(1, 12), "csv"),
        _dump(rng.choice(("p_odd", "p_even")), sizes.dump_small_dim, rng.randint(1, 12), "json"),
        Invocation(
            ("grassmann", "--dims", _csv(sizes.grassmann_dims), "--ls", _csv(grassmann_ls)),
            "exact",
            len(sizes.grassmann_dims) * len(grassmann_ls),
        ),
    ]
