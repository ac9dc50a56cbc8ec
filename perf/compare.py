"""Compare two benchmark reports, metric by metric.

    python perf/compare.py A.json B.json

``A`` is the parent's ``report.json``, ``B`` the change's, both written
by ``perf/run.py`` with the same settings.  For every workload and
end-to-end metric the two share, one row gives each side's median and
quartiles, the change of the median, and a verdict:

* ``worse``: B's median is worse than A's by more than the metric's
  bound, a share of A's median (for a median of 0, an absolute amount);
* ``better``: B's median is better than A's by more than A's
  interquartile distance;
* ``within bound``: neither;
* ``unresolved``: A's interquartile distance, as a share of its median,
  exceeds the bound, so the runs cannot tell a change from noise,
  unless every sample of B reads better than every sample of A.
"""

from __future__ import annotations

import argparse
import json


def verdict(a: dict, b: dict) -> str:
    """Verdict for one metric; ``a`` and ``b`` are report summaries."""
    sign = 1 if a["better"] == "higher" else -1
    gain = sign * (b["value"] - a["value"])
    scale = abs(a["value"])
    spread = a["q3"] - a["q1"]
    if scale and spread / scale > a["bound"]:
        dominates = all(sign * (y - x) > 0 for x in a["samples"] for y in b["samples"])
        return "better" if dominates else "unresolved"
    if -gain > a["bound"] * scale:
        return "worse"
    if gain > spread:
        return "better"
    return "within bound"


def rows(a: dict, b: dict) -> list[list[str]]:
    out = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"].get(metric)
            if sb is None:
                continue
            change = (
                f"{100 * (sb['value'] - sa['value']) / abs(sa['value']):+.1f}%"
                if sa["value"]
                else f"{sb['value'] - sa['value']:+.3g}"
            )
            out.append(
                [
                    name,
                    metric,
                    sa["unit"],
                    f"{sa['value']:.4g} [{sa['q1']:.4g}, {sa['q3']:.4g}]",
                    f"{sb['value']:.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}]",
                    change,
                    verdict(sa, sb),
                ]
            )
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("parent", help="report.json of the parent commit (A)")
    p.add_argument("change", help="report.json of the change (B)")
    args = p.parse_args(argv)
    with open(args.parent) as fa, open(args.change) as fb:
        a, b = json.load(fa), json.load(fb)
    header = ["workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict"]
    table = [header] + rows(a, b)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
