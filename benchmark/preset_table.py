"""Microseconds per coupled step for every random preset.

    python3 benchmark/preset_table.py

Drives one trial of ``iter_coupled_steps`` per preset, in this process,
for about two seconds of steps each, and prints a Markdown table
of steps run and microseconds per step.  This is the per-preset reference
table of the README, measured the way the roadmap's baseline was.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from padic_rmt.presets import build_preset  # noqa: E402
from padic_rmt.processes import as_source, iter_coupled_steps  # noqa: E402
from padic_rmt.rng import RngStream  # noqa: E402

SECONDS = 2.0
SEED = 2024
PRESETS = ["fixed-10", "fixed-210", "mixture-half", "corner-haar-2-3", "haar-entries-2", "gsp4-haar", "gsp4-fixed-1100"]


def us_per_step(preset: str) -> tuple[int, float]:
    source = as_source(build_preset(preset))
    steps = 0
    start = time.perf_counter()
    for _ in iter_coupled_steps(source, 10**9, RngStream(SEED, 0)):
        steps += 1
        if steps % 50 == 0 and time.perf_counter() - start >= SECONDS:
            break
    return steps, (time.perf_counter() - start) / steps * 1e6


def main() -> int:
    print("| preset | steps | us/step |")
    print("| --- | --- | --- |")
    for preset in PRESETS:
        steps, us = us_per_step(preset)
        print(f"| `{preset}` | {steps} | {us:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
