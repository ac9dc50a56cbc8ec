"""Generate the full-protocol results used by EXPERIMENTS.md.

Writes ``full_results.json`` beside this script.
"""
import json, time
from pathlib import Path

from repro.experiments.sweep import run_sweep
from repro.experiments.fig1 import fig1a, fig1b, fig1c
from repro.experiments.fig5 import fig5

t0 = time.time()
out = {}
sw = run_sweep(runs=10)
out["sweep"] = {
    f"{app}|{ctrl}|{tol:.0f}": {
        "slow": round(c.slowdown_pct.mean, 2),
        "pkg": round(c.package_savings_pct.mean, 2),
        "dram": round(c.dram_savings_pct.mean, 2),
        "energy": round(c.energy_savings_pct.mean, 2),
    }
    for (app, ctrl, tol), c in sw.comparisons.items()
}
w, t = sw.respected_count("dufp", slack=0.5)
out["respected"] = [w, t]
for name, fn in (("fig1a", fig1a), ("fig1b", fig1b), ("fig1c", fig1c)):
    r = fn(runs=10)
    out[name] = {row.label: [round(row.time_pct_of_default, 2), round(row.power_pct_of_budget, 2)] for row in r.rows}
f5 = fig5()
out["fig5"] = {"duf_ghz": round(f5.duf_avg_ghz, 2), "dufp_ghz": round(f5.dufp_avg_ghz, 2)}
out["wall_s"] = round(time.time() - t0, 1)
with open(Path(__file__).with_name("full_results.json"), "w") as fh:
    json.dump(out, fh, indent=1)
print("done", out["wall_s"], "s; respected:", out["respected"])
