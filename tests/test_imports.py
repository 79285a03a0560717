"""Only the cylinder functions need scipy (and with it numpy): importing
curvgreen and evaluating the curved-space Green's functions and their
expansions load neither, and the cylinder functions load them on
first use."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "numpy"))

import curvgreen as cg
seen = {"import": heavy()}
for d in (2, 3, 4):
    for v in cg.ALL_VARIANTS:
        kind, _ = cg.greens.VARIANT_SPACES[v]
        cg.green_value(v, cg.ManifoldSpec(kind, d, 1.0), 1.3, 0.7)
seen["green_value"] = heavy()
cfg = cg.TwoPointConfig(0.4, 0.9, 0.7)
cg.green_expansion(cg.H_MINUS, cg.WaveParams(
    cg.ManifoldSpec(cg.HYPERBOLOID, 3, 1.0), 1.3, cg.MINUS), cfg, 20)
seen["green_expansion"] = heavy()
cg.fourier_2d(cg.S_PLUS, cg.WaveParams(
    cg.ManifoldSpec(cg.HYPERSPHERE, 2, 1.0), 1.3, cg.PLUS), cfg, 20)
seen["fourier_2d"] = heavy()
seen["cyl"] = cg.cyl("J", 0.5, 1.0).value.real
print(json.dumps(seen))
"""


def test_core_path_loads_neither_scipy_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    seen = json.loads(proc.stdout)
    for stage in ("import", "green_value", "green_expansion", "fourier_2d"):
        assert seen[stage] == [], stage
    # J_{1/2}(1) = sqrt(2/pi) sin 1
    assert abs(seen["cyl"] - 0.6713967071418031) < 1e-15
