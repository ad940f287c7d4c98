"""Record the moment_dp enclosures that later runs must intersect.

    python3 perfbench/record_reference.py

Run it on the seed code only: every correct implementation's enclosure
contains the true value, so it intersects these.  The endpoints are the
exact dyadic rationals of the OutwardInterval results.
"""

import json
import sys

import run  # puts the checkout's src/ on the path and pins the precision

from ecfrac import mdp_curve, moment_growth_rate
from workloads import REFERENCE_PATH, growth_key, mdp_key, moment_jobs_spec


def main() -> int:
    env = run.environment(run.import_package())
    growth, mdp, _, cap = moment_jobs_spec()
    enclosures = {}
    for theta, n in growth:
        value = moment_growth_rate(theta, [n], cap_schedule=cap).rows[0].value.value
        enclosures[growth_key(theta, n)] = [str(value.lo), str(value.hi)]
    for lam, n in mdp:
        value = mdp_curve(lam, [n], cap=cap).rows[0].value
        enclosures[mdp_key(lam, n)] = [str(value.lo), str(value.hi)]
    REFERENCE_PATH.write_text(json.dumps(
        {"recorded_with": {k: env[k] for k in ("commit", "src_sha256", "precision_bits")},
         "cap": cap, "enclosures": enclosures}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
