"""Record the reference outputs the benchmark checks against.

    python3 bench/record.py

Writes ``bench/reference.json``: digests of the exact case-study reports,
the exact verdicts for each float-sweep report, the seeded outputs at the
default seed, and each CLI op's exit code and stdout digest. Run it only on
a commit whose outputs are known good; a change that claims a gain must
leave the recorded outputs as they are.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import run  # sets up the import path and the environment  # noqa: F401
from workloads import (
    CLI_OPS, CROWDS_PF, DEFAULT_SEED, REFERENCE, WORKLOADS, digest, report_verdicts,
    run_cli_process,
)


def exact_verdicts(op_name):
    """Exact-mode verdicts for one float-sweep report op."""
    from exactchain import analysis, crowds, zeroconf

    kind, *rest = op_name.split("-")
    if kind == "zeroconf":
        n, p = int(rest[0][1:]), Fraction(1, int(rest[1][1:]))
        base = zeroconf.PAPER_TYPICAL
        params = zeroconf.ZeroconfParams(n, p, base.q, base.r, base.E)
        return report_verdicts(zeroconf.zeroconf_report(params))
    j = int(rest[0][1:])
    params = crowds.make_params(j, j // 5, CROWDS_PF)
    model = crowds.build_crowds(params)
    # The full exact report at J=60 takes minutes; these are its verdicts.
    return {
        "probable_innocence": crowds.probable_innocence(params).holds,
        "independence_first_last_jondo":
            crowds.is_product_joint(crowds.first_last_jondo_joint(model)),
        "ae_route_terminates": analysis.certify_ae_until(
            model.chain, model.chain.states, {crowds.END}, crowds.START),
    }


def main():
    os.chdir(run.ROOT)
    env = run.CHILD_ENV
    exact = WORKLOADS["exact-analysis"](DEFAULT_SEED, env)
    float_sweep = WORKLOADS["float-sweep"](DEFAULT_SEED, env)
    monte_carlo = WORKLOADS["monte-carlo"](DEFAULT_SEED, env)
    reference = {"reports": {}, "verdicts": {}, "seeded": {}, "cli": {}}
    for op in exact.ops:
        if op.name.startswith("chain"):
            reference["seeded"].setdefault(exact.name, {})[op.name] = digest(op.fn())
        else:
            reference["reports"][op.name] = digest(op.fn())
    for op in float_sweep.ops:
        if not op.name.startswith("chain"):
            reference["verdicts"][op.name] = exact_verdicts(op.name)
    for op in monte_carlo.ops:
        reference["seeded"].setdefault(monte_carlo.name, {})[op.name] = digest(op.fn())
    for name, argv in sorted(CLI_OPS.items()):
        code, stdout = run_cli_process(argv, env)
        reference["cli"][name] = {"exit": code, "stdout_sha256": digest(stdout)}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
