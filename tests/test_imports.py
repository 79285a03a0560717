"""curvgreen runs without scipy and numpy: importing it, the curved-space
Green's functions and their expansions, the Euclidean Green's function
and its expansion, the cylinder functions, the large-parameter
approximants and the CLI ``verify`` battery load neither."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import io, json, sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "numpy"))

import curvgreen as cg
import curvgreen.cli
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
for d in (1, 2, 3):
    for sign in (cg.PLUS, cg.MINUS):
        cg.euclidean_green(sign, d, 1.3, 0.7)
        if d > 1:
            cg.euclidean_expansion(sign, d, 1.3, 0.4, 0.9, 0.7, 20)
seen["euclidean"] = heavy()
cg.legendre_large_nu("Q_mu", 20.0, 0.5, 0.3)
cg.conical_large_tau("Q_plus_branch", 20.0, 0.5, 0.3)
cg.ferrers_large_nu("Q_pos", 20.0, 0.5, 0.3)
cg.ferrers_conical_large_tau("Q_neg", 20.0, 0.5, 0.3)
cg.odd_ferrers_asymptotic("LARGE_NU", 20.0, 0.5, 0.3)
seen["asymptotics"] = heavy()
seen["cyl"] = [cg.cyl(k, 0.5, 1.0).value.real for k in ("J", "I")]
cg.env_j(0.5, 1.0)
cg.env_h("H1", 0.5, 1.0)
seen["cylinder"] = heavy()
seen["verify_code"] = cg.cli.run(["verify", "--output", "json"],
                                 stdout=io.StringIO())
seen["verify"] = heavy()
print(json.dumps(seen))
"""

STAGES = ("import", "green_value", "green_expansion", "fourier_2d",
          "euclidean", "asymptotics", "cylinder", "verify")


def test_core_path_loads_neither_scipy_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    seen = json.loads(proc.stdout)
    for stage in STAGES:
        assert seen[stage] == [], stage
    assert seen["verify_code"] == 0
    # J_{1/2}(1) = sqrt(2/pi) sin 1 and I_{1/2}(1) = sqrt(2/pi) sinh 1
    assert abs(seen["cyl"][0] - 0.6713967071418031) < 1e-15
    assert abs(seen["cyl"][1] - 0.9376748882454876) < 1e-15
