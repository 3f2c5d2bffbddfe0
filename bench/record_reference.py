#!/usr/bin/env python3
"""Record the digests that the benchmark checks exact outputs against.

For every exact packing input a workload can draw, reference.json holds the
row count and the sha256 of the JSON stream and of the SVG under each render
option the workloads use, plus the row count of the float-only n = 3 seed.
The file was written at the commit that defined the benchmark; rerun only to
extend the input domain, and only on code whose outputs are known good:

    python3 bench/record_reference.py
"""

import json
import subprocess
from fractions import Fraction

from run import BENCH, ROOT, load_package


def main():
    load_package()
    import workloads
    from checks import sha256
    from inversive import apollonian, forms, shell, svg

    packings = {}
    for (geometry, bends, bound), options in workloads.reference_domain().items():
        seed = apollonian.realize_bends(geometry, bends)
        text = shell.dumps_packing(apollonian.generate(seed, Fraction(bound)))
        loaded = shell.loads_packing(text)
        packings[workloads.packing_key(geometry, bends, bound)] = {
            "rows": len(loaded.rows),
            "json": sha256(text),
            "svg": {key: sha256(svg.render(loaded, o))
                    for key, o in sorted(options.items())},
        }
    n3_seed = apollonian.standard_seed(forms.EUCLIDEAN, n=3, mode="float")
    n3 = {str(workloads.N3_BOUND): len(
        apollonian.generate(n3_seed, float(workloads.N3_BOUND)).rows)}
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    reference = {"recorded_at": commit or None, "packings": packings, "n3": n3}
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(packings)} packings recorded")


if __name__ == "__main__":
    main()
