"""Regenerate EXPERIMENTS.md from the experiment drivers.

Run from the repository root::

    python scripts/generate_experiments_md.py

Uses moderately sized parameters (a couple of minutes) so the recorded
numbers match what `pytest benchmarks/ --benchmark-disable` asserts.
"""

import pathlib
import sys

from repro.simulation import experiments

PREAMBLE = """\
# EXPERIMENTS — paper claims vs measurements

The paper is pure theory: its "evaluation" is a set of theorems, so each
experiment below regenerates one claim (mapping in DESIGN.md §4).  Every
table was produced by the drivers in `repro/simulation/experiments.py` —
re-run this file with `python scripts/generate_experiments_md.py`, or the
equivalent assertions with `pytest benchmarks/ --benchmark-disable`.

We reproduce *shapes*, not testbed constants: who wins, by what growth
rate, and where the floors sit.  Summary of outcomes:

| Exp | Claim | Outcome |
|---|---|---|
| E1 | Thm 3.3: errorless DP-IR moves ≥ (1−δ)n | reproduced — linear PIR meets the floor with equality |
| E2 | Thm 3.4: DP-IR(α) floor Ω((1−α−δ)n/e^ε) | reproduced — construction sits above the floor at every ε |
| E3 | Thm 5.1: ε=Θ(log n) ⇒ O(1) blocks, error α | reproduced — pad size flat across n, error rate ≈ α |
| E4 | Sec 4: strawman δ=(n−1)/n | reproduced — membership attack ≈ always wins; DP-IR stays under its ceiling |
| E5 | Thm 3.7: DP-RAM floor log_c((1−α)n/e^ε) | reproduced — floor vanishes exactly in the ε=Θ(log n) regime |
| E6 | Thm 6.1 + Lem D.1: 3 blocks/query, stash ≈ Φ(n) | reproduced — bandwidth flat at 3, stash under e·Φ |
| E7 | Lem 6.4/6.5+6.7: transcript ratios ≤ 3·ln(n³/p²) | reproduced — exact sampled ratios all within budget |
| E8 | Thm A.1: two-choice max load Θ(log log n) | reproduced — d=1 grows with n, d∈{2,3} flat |
| E9 | Thm 7.2 + Lem 7.3: super root ≤ Φ(n) | reproduced — zero spills at t=4; level loads under β-sequence |
| E10 | Thm 7.5: DP-KVS O(log log n) blocks, O(n) storage | reproduced — cost = 6·path, nodes < 2n vs padded bins' ≥ 11n |
| E11 | headline: O(1)/O(log log n) vs ORAM's Ω(log n) | reproduced — factor grows from ~24× (n=2⁸) upward |
| E12 | Thm C.1: multi-server floor ((1−α)t−δ)n/e^ε | reproduced — corrupted view scales with t; total work t-independent, optimal for constant t |
| E13 | Related Work [50]: recursion costs Θ(log n) roundtrips | reproduced — recursion depth grows with n while DP-RAM stays at 2 |
| E14 | intro: response-time impact per link | reproduced — DP-RAM and DP-KVS within ~2 RTTs of plaintext on WAN; PIR orders of magnitude slower |

All schemes are checked for correctness against reference models on the
same traces that produce the numbers (mismatch columns must read 0).

---
"""


def main() -> None:
    sections = [PREAMBLE]
    for driver in experiments.ALL_EXPERIMENTS:
        sys.stderr.write(f"running {driver.__name__}...\n")
        sections.append(driver().to_markdown())
        sections.append("")
    out = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    out.write_text("\n".join(sections))
    sys.stderr.write(f"wrote {out}\n")


if __name__ == "__main__":
    main()
