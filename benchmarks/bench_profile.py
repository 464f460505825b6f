"""Profiling overhead of ``--profile`` on a smoke experiment.

The sampling profiler's pitch is "always cheap enough to leave on": a
daemon thread waking every ``interval_s`` to snapshot one stack must not
meaningfully slow the run it is measuring.  This harness prices that
claim the same way ``bench_serve.py --overhead`` prices the tracing
stack: the same experiment executed profiled and unprofiled on fresh run
directories (cache off, so both modes pay full execution), best of
``--repeats`` walls per mode, overhead = (profiled - bare) / bare.

Output: a two-row table (mode, wall s, samples) plus the overhead line,
printed and — with ``--out`` — written to a file CI uploads as an
artifact.  ``--flamegraph FILE`` additionally exports the last profiled
run's collapsed stacks (flamegraph.pl / speedscope input), CI's second
artifact.  ``--assert-overhead F`` exits non-zero when profiling costs
more than fraction ``F`` of the unprofiled wall — CI gates at 0.05.

Standalone::

    PYTHONPATH=src python benchmarks/bench_profile.py \
        --ids E6 --repeats 3 --assert-overhead 0.05 \
        --flamegraph e6-flame.txt --out profile-bench.txt
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.api import RunRequest, execute_request
from repro.exp.reporting import rows_table
from repro.obs.trace import ProfileReader


def measure(
    ids: Sequence[str],
    *,
    repeats: int,
    root: Path,
    interval: str = "sampling",
    smoke: bool = True,
    warmup: bool = True,
) -> dict:
    """Profiled vs unprofiled runs of ``ids``; best wall per mode.

    Every repeat runs cache-off on its own run directory so both modes
    pay identical execution cost.  One unmeasured warmup run absorbs
    import and allocator cold-start; within each repeat the two modes
    alternate order so thermal/scheduler drift cannot systematically
    favor either; the best-of-k wall per mode damps the remaining noise,
    exactly like the serve overhead harness.
    """
    result: dict = {"ids": list(ids), "repeats": repeats}
    request = {"ids": tuple(ids), "smoke": smoke, "cache": False}
    if warmup:
        execute_request(RunRequest(**request), out_dir=root / "warmup")
    walls: dict[str, list[float]] = {"profiled": [], "unprofiled": []}
    for repeat in range(repeats):
        modes = [("profiled", interval), ("unprofiled", None)]
        if repeat % 2:
            modes.reverse()
        for mode, profile in modes:
            run_dir = root / f"{mode}-{repeat}"
            t0 = time.perf_counter()
            execute_request(
                RunRequest(**request, profile=profile), out_dir=run_dir
            )
            walls[mode].append(time.perf_counter() - t0)
            if mode == "profiled":
                result["n_samples"] = ProfileReader.load(run_dir).n_samples
                result["profiled_run_dir"] = str(run_dir)
    for mode, mode_walls in walls.items():
        result[f"{mode}_wall_s"] = min(mode_walls)
    bare = result["unprofiled_wall_s"]
    result["overhead_frac"] = (
        (result["profiled_wall_s"] - bare) / bare if bare else 0.0
    )
    return result


def render(result: dict) -> str:
    rows = [
        ("profiled", f"{result['profiled_wall_s']:.3f}",
         result.get("n_samples", 0)),
        ("unprofiled", f"{result['unprofiled_wall_s']:.3f}", "-"),
    ]
    table = rows_table(
        ["mode", "wall s", "samples"],
        rows,
        title=(
            f"profiling overhead ({' '.join(result['ids'])}, "
            f"best of {result['repeats']})"
        ),
    )
    return (
        f"{table}\n"
        f"profiling overhead: {100 * result['overhead_frac']:+.2f}% wall "
        f"(profiled {result['profiled_wall_s']:.3f}s vs "
        f"unprofiled {result['unprofiled_wall_s']:.3f}s)"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ids", nargs="+", default=["E6"], metavar="ID",
                        help="experiments to run (default: E6)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="runs per mode, best wall wins (default 3)")
    parser.add_argument("--interval", default="sampling", metavar="MODE",
                        help="profile mode: 'sampling' or an interval in "
                             "seconds (default: sampling)")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="run-directory root (default: a temp directory)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the table to FILE")
    parser.add_argument("--flamegraph", metavar="FILE", default=None,
                        help="export the last profiled run's collapsed "
                             "stacks to FILE")
    parser.add_argument("--assert-overhead", type=float, default=None,
                        metavar="F",
                        help="exit 1 when profiling costs more than "
                             "fraction F of the unprofiled wall (CI: 0.05)")
    args = parser.parse_args(argv)

    root = Path(args.root or tempfile.mkdtemp(prefix="repro-profile-bench-"))
    result = measure(
        args.ids, repeats=args.repeats, root=root, interval=args.interval
    )
    text = render(result)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"table written to {args.out}")
    if args.flamegraph:
        profile = ProfileReader.load(result["profiled_run_dir"])
        Path(args.flamegraph).write_text(profile.flamegraph())
        print(f"collapsed stacks written to {args.flamegraph}")
    if (args.assert_overhead is not None
            and result["overhead_frac"] > args.assert_overhead):
        print(
            f"bench_profile: profiling overhead "
            f"{100 * result['overhead_frac']:.2f}% exceeds the allowed "
            f"{100 * args.assert_overhead:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


def test_profiled_run_measures_without_distorting(tmp_path):
    """Harness mechanics: both modes run, samples land, overhead computes."""
    from conftest import emit

    result = measure(["T1"], repeats=1, root=tmp_path, warmup=False)
    emit(render(result))
    assert result["profiled_wall_s"] > 0
    assert result["unprofiled_wall_s"] > 0
    assert "overhead_frac" in result
    # The profiled run always leaves a loadable stream; T1 is usually too
    # fast for any sample, so it may be empty.
    profile = ProfileReader.load(result["profiled_run_dir"])
    assert profile.mode in ("sampling", "empty")


if __name__ == "__main__":
    sys.exit(main())
