"""The four benchmark workloads: seeded inputs and the library call of one op.

An op is a plain tuple, so it can be hashed into the input digest and
sent to the workload process as JSON:

* ``("green", variant, d, beta, rho)``: one ``green_value`` call;
* ``("expand", variant, d, beta, r1, r2, gamma)``: one
  ``green_expansion`` call (d >= 3) or ``fourier_2d`` call (d = 2) with
  ``l_max = L_MAX``;
* ``("verify",)``: ``curvgreen.cli.run(["verify", "--output", "json"])``
  in process, writing to an in-memory stream.

The variant tags are spelled out here rather than read from the
library, so the inputs a seed produces cannot change with the code
under test.  R = 1 throughout.  Why each workload exists is recorded in
README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

VARIANTS = ("H_PLUS", "H_MINUS", "S_PLUS", "A_PLUS",
            "SF_MINUS", "FRAK_MINUS", "AF_MINUS", "FRAKA_MINUS")
EXPANDABLE = VARIANTS[:6]
HYPERBOLOID_VARIANTS = ("H_PLUS", "H_MINUS")
PLUS_VARIANTS = ("H_PLUS", "S_PLUS", "A_PLUS")
CANDIDATES = ("SF_MINUS", "FRAK_MINUS", "AF_MINUS", "FRAKA_MINUS")
# the -beta^2 sphere candidates refuse (EigenvaluePoleError, by design)
# within 1e-6 of a Laplace-Beltrami eigenvalue; inputs keep this margin
POLE_MARGIN = 1e-5

L_MAX = 60
# expansion pairs are drawn where the geometric tail ratio is at most
# this, so L_MAX terms converge far below the check's tolerance
EXPAND_MAX_RATIO = 0.6

# A run's op list is CHUNKS chunks of equal composition: every chunk
# holds the same number of ops of each (variant, d) cell, and inside a
# cell the ops are dealt to the chunks in order of their main cost
# factor (beta; the series' tail ratio for expand).  Chunks then differ
# mainly by machine noise, which the per-chunk statistics in run.py
# rely on.
CHUNKS = 40
CELLS = {
    "points": [(v, d) for v in VARIANTS for d in (2, 3, 4)],
    "large_degree": [(v, d) for v in VARIANTS for d in (2, 3, 4)],
    "expand": [(v, d) for v in EXPANDABLE for d in (2, 3, 4)],
    "verify": [None],
}
BETA_RANGE = {"points": (0.2, 4.0), "large_degree": (15.0, 60.0),
              "expand": (0.2, 4.0)}
# ops in a run ~ seconds * rate; with --seconds 10 a run, checks and
# set-up probes included, took 12-25 s on the 2-core machine that
# defined the benchmark
OPS_PER_SECOND = {"points": 450, "large_degree": 300, "expand": 300,
                  "verify": 4}
NAMES = tuple(OPS_PER_SECOND)


def plan(workload: str, seconds: float) -> tuple:
    """(number of chunks, ops per cell in each chunk) for a run."""
    per_cell = seconds * OPS_PER_SECOND[workload] / len(CELLS[workload])
    if per_cell >= CHUNKS:
        return CHUNKS, round(per_cell / CHUNKS)
    return max(1, round(per_cell)), 1


def _near_pole(variant: str, d: int, beta: float) -> bool:
    """beta within POLE_MARGIN of sqrt(n (n + d - 1)), n >= 1 (R = 1)."""
    if variant not in CANDIDATES:
        return False
    n_star = 0.5 * (math.sqrt((d - 1.0) ** 2 + 4.0 * beta * beta) - d + 1.0)
    return any(n >= 1 and abs(beta - math.sqrt(n * (n + d - 1.0)))
               <= POLE_MARGIN * beta
               for n in (math.floor(n_star), math.ceil(n_star)))


def _tail_ratio(variant: str, a: float, b: float) -> float:
    """Geometric tail ratio of the expansion at radii a != b."""
    lt, gt = min(a, b), max(a, b)
    if variant in HYPERBOLOID_VARIANTS:
        return math.tanh(0.5 * lt) / math.tanh(0.5 * gt)
    t_lt, t_gt = math.tan(0.5 * lt), math.tan(0.5 * gt)
    return max(t_lt * t_gt, t_lt / t_gt)


def _stratum(rng: random.Random, k: int, m: int, lo: float,
             hi: float) -> float:
    """Uniform draw from the k-th of m equal bins of [lo, hi]."""
    return lo + (k + rng.random()) / m * (hi - lo)


def _cell_ops(rng: random.Random, workload: str, variant: str, d: int,
              n: int) -> list:
    """n ops of one cell, one per stratum of log beta; rho (points,
    large_degree) is stratified the same way, in shuffled order."""
    lb_lo, lb_hi = (math.log(b) for b in BETA_RANGE[workload])
    rho_bins = list(range(n))
    rng.shuffle(rho_bins)
    ops = []
    for k in range(n):
        while True:
            beta = math.exp(_stratum(rng, k, n, lb_lo, lb_hi))
            if workload != "expand":
                op = ("green", variant, d, beta,
                      _stratum(rng, rho_bins[k], n, 0.2, 2.9))
            else:
                a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
                if a == b or _tail_ratio(variant, a, b) > EXPAND_MAX_RATIO:
                    continue
                op = ("expand", variant, d, beta, a, b,
                      rng.uniform(0.2, 2.9))
            if not _near_pole(variant, d, beta):
                break
        ops.append(op)
    return ops


def _cost_key(op) -> float:
    """The input property that drives an op's cost most within a cell."""
    if op[0] == "expand":
        return _tail_ratio(op[1], op[4], op[5])
    return op[3]


def _deal(ops, k: int) -> list:
    """Deal ops, sorted by cost key, to k chunks in serpentine order, so
    every chunk gets a like share of cheap and costly ops."""
    chunks = [[] for _ in range(k)]
    for i, op in enumerate(sorted(ops, key=_cost_key)):
        r, j = divmod(i, k)
        chunks[j if r % 2 == 0 else k - 1 - j].append(op)
    return chunks


def generate(workload: str, seed: int, seconds: float) -> list:
    """The op list of a run, as a list of chunks; the same (workload,
    seed, seconds) gives the same list.  Apart from the verify op, which
    takes no input, every op is a fresh random draw, so none repeats."""
    if workload not in CELLS:
        raise ValueError(f"unknown workload {workload!r}")
    chunks, m = plan(workload, seconds)
    if workload == "verify":
        return [[("verify",)] * m for _ in range(chunks)]
    rng = random.Random(f"{workload}:{seed}")
    out = [[] for _ in range(chunks)]
    for variant, d in CELLS[workload]:
        cell = _cell_ops(rng, workload, variant, d, chunks * m)
        for chunk, dealt in zip(out, _deal(cell, chunks)):
            chunk += dealt
    for chunk in out:
        rng.shuffle(chunk)
    return out


def digest(ops) -> str:
    """sha256 of the op list (floats in their repr, which round-trips)."""
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()


def make_runner():
    """Import the library and return ``run_op(op) -> raw output``.

    Library functions are looked up through their modules on every
    call, so that a tracer which rebinds module names sees the calls.
    """
    import io

    from curvgreen import cli, expansions, geometry, greens

    def manifold(variant, d):
        kind = (geometry.HYPERBOLOID if variant in HYPERBOLOID_VARIANTS
                else geometry.HYPERSPHERE)
        return geometry.ManifoldSpec(kind, d, 1.0)

    def run_op(op):
        kind = op[0]
        if kind == "green":
            _, variant, d, beta, rho = op
            return greens.green_value(variant, manifold(variant, d), beta,
                                      rho)
        if kind == "expand":
            _, variant, d, beta, r1, r2, gamma = op
            sign = greens.PLUS if variant in PLUS_VARIANTS else greens.MINUS
            wp = greens.WaveParams(manifold(variant, d), beta, sign)
            cfg = expansions.TwoPointConfig(r1, r2, gamma)
            series = (expansions.fourier_2d if d == 2
                      else expansions.green_expansion)
            return series(variant, wp, cfg, l_max=L_MAX)
        if kind == "verify":
            out = io.StringIO()
            code = cli.run(["verify", "--output", "json"], stdout=out)
            return code, out.getvalue()
        raise ValueError(f"unknown op {op!r}")

    return run_op


def summarize(op, out) -> list:
    """JSON-ready form of one op's outcome, compared bit for bit between
    runs and checked by the parent.  Exceptions become ["raise", type,
    message]."""
    if isinstance(out, Exception):
        return ["raise", type(out).__name__, str(out)]
    kind = op[0]
    if kind == "green":
        v = complex(out.value)
        return ["ok", v.real, v.imag, float(out.abs_err_est),
                int(out.terms_used), sorted(out.flags)]
    if kind == "expand":
        v = complex(out.value)
        rel = None if out.rel_err is None else float(out.rel_err)
        return ["ok", v.real, v.imag, rel, int(out.terms), sorted(out.flags)]
    code, text = out
    return ["ok", code, text]
