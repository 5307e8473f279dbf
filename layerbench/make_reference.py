"""Regenerate layerbench/reference.json from the library in src/.

The benchmark's output checks compare deterministic analytic values (DE
traces, fixed points, converse curves) and the DE brackets of the simulate
workloads against this file, within 1e-9 relative.  Regenerate it only when a
change is meant to alter those values, and say so in that change::

    python3 layerbench/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

import worker as w
from gracecode import bounds_from_traces, iterate
from run import source_digest


def main() -> None:
    mixed = w.parse_profile(w.MIXED_PROFILE)
    ref = {"source_digest": source_digest(), "devo": {}, "fixed_point": {}, "converse": {}, "bracket": {}}
    alphas = w.grid(w.DE_GRID[False])
    for name, fam, sur, qty, x0 in w.DE_TRACES:
        family = w.family_for(fam, sur, qty, mixed)
        ref["devo"][name] = {w.key(a): iterate(family, float(a), x0, w.ELL, sur, qty).values.tolist() for a in alphas}
    for name in w.FIXED_POINT_FAMILIES:
        family = w.family_for(name, "BEC", "error", mixed)
        ref["fixed_point"][name] = {}
        for a in alphas:
            q, converged = w.fixed_point(family, float(a), 0.0)
            ref["fixed_point"][name][w.key(a)] = [q, float(converged)]
    g2 = w.GENERAL2
    ref["converse"]["general2"] = {
        w.key(e): w.general_two_point(g2["rate"], g2["delta"], g2["eps"], float(e)) for e in w.grid(g2["grid"][False])
    }
    ar = w.AREA
    ref["converse"]["area"] = {
        w.key(e): w.area_two_point(ar["rate"], ar["delta"], ar["eps"], float(e))
        for e in w.grid(ar["grid"][False])
        if e > ar["eps"]
    }
    # bracket of the simulated BER: BEC-error DE from x0=0 gives bp_lower;
    # neither ensemble has a BSC family, so there is no bp_upper
    for workload, name in (("sim-ldmc5", "ldmc5"), ("sim-mixed", "mixed")):
        family = w.family_for(name, "BEC", "error", mixed)
        ref["bracket"][workload] = {}
        for a in w.grid(w.SIM_ALPHA_GRID):
            b = bounds_from_traces([iterate(family, float(a), 0.0, w.ELL)])
            ref["bracket"][workload][w.key(a)] = {"bp_lower": b.bp_lower, "bp_upper": b.bp_upper}
    with open(Path(__file__).with_name("reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
