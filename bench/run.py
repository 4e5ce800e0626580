"""Benchmark of the sttt toolkit: one workload, one seed, one closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload {canon,playout} --seed N \
        --seconds S --trace {0,1}

One client runs operations back to back on a single thread; the next starts
when the previous one returns.  The run makes passes over the seeded inputs
until ``--seconds`` have passed.  Each operation yields between its stages,
and an input's latency is the sum of its stages' fastest times, which screens
out most of the slowdowns that other tenants of a shared machine cause.
Every operation's output is checked, and a mismatch or an exception counts as
a failed operation instead of stopping the run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 1 when any operation
failed and 2 when the program cannot be imported from ``src/`` next to this
directory.

With ``--trace 1`` each input runs twice per pass, once with a span recorded
around every call into ``sttt`` and once without, alternating which goes
first; the spans of each input's fastest traced run give the per-layer
numbers, and the two sides give the tracing overhead.  Each traced run also
executes one census-n2 pipeline and a few operations of the other workload,
so that every layer is measured.  Spans are written to
``bench/out/``.  See README.md for why each workload exists and which
end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from functools import partial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("canon", "playout")
# Every layer is owned by one of these; census-n2 runs only inside traced runs,
# since a quarter-second operation never gets a quiet moment on a shared
# machine and its timing swung by 30% between sets of runs.
LAYER_OWNERS = ("census-n2", "canon", "playout")
SETUP_RUNS = 11  # fresh interpreters per run; set-up time is their median
WARMUP_OPS = 3
# inputs of the other workloads that a traced run adds, in passes for
# FILL_SECONDS each, so that every per-layer metric is measured even where
# this workload never calls the layer
FILL_OPS = {"census-n2": 1, "canon": 12, "playout": 12}
FILL_SECONDS = 2.0

CENSUS_PHASES = {
    "census.search_ms": ("census.enumerate_winning_boards",),
    "census.partition_ms": ("census.partition_classes",),
    "census.io_ms": (
        "census.classes_to_jsonl",
        "census.classes_from_jsonl",
        "census.bundled_census_text",
        "census.parse_census_text",
        "census.diff_census",
    ),
}
# per-layer metric -> (span name, side length or None, unit scale from ns)
CALL_TIMES = {
    "board.canonical_form_us.n3": ("board.canonical_form", 3, 1e-3),
    "board.canonical_form_us.n4": ("board.canonical_form", 4, 1e-3),
    "board.canonical_form_us.n5": ("board.canonical_form", 5, 1e-3),
    "board.act_board_us": ("board.act_board", None, 1e-3),
    "board.to_bitstring_us": ("board.to_bitstring", None, 1e-3),
    "board.from_bitstring_us": ("board.from_bitstring", None, 1e-3),
    "game.legal_moves_us": ("game.legal_moves", None, 1e-3),
    "game.apply_move_us": ("game.apply_move", None, 1e-3),
    "game.replay_ms": ("game.replay", None, 1e-6),
    "game.final_board_ms": ("game.final_board", None, 1e-6),
    "game.act_game_ms": ("game.act_game", None, 1e-6),
    "game.is_valid_game_ms": ("game.is_valid_game", None, 1e-6),
}
SETUP_METRICS = (
    "dihedral.group_elements_ms",
    "spiral.numbering_ms",
    "perm.pow_us",
    "perm.mul_us",
    "perm.call_ns",
)


class Tracer:
    """Spans in memory: (name, n, start_ns, end_ns, parent, op).

    ``op`` is the operation id.  A root span covers one operation and has
    parent None; a call span has the operation id as parent, since the
    operation's root span is its only possible parent.  Spans of the latest
    run collect in ``pending``; the caller moves the ones it keeps to
    ``spans``.
    """

    def __init__(self):
        self.spans: list = []
        self.pending: list = []
        self._op = None

    def call(self, name, n, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        self.pending.append((name, n, start, time.perf_counter_ns(), self._op, self._op))
        return result

    def run(self, name, n, op_id, op, x):
        """``op`` on ``x`` under a root span, as a generator operation."""
        self.pending, self._op = [], op_id
        start = time.perf_counter_ns()
        try:
            return (yield from op(x, self.call))
        finally:
            self.pending.append((name, n, start, time.perf_counter_ns(), None, op_id))
            self._op = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "n", "start_ns", "end_ns", "parent", "op")
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def untraced(name, n, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tally:
    """Operations attempted and failed; keeps the first failure's detail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def run(self, op, x):
        """Run the generator operation ``op()`` on input ``x``, timing each of
        its stages.  Returns the stage seconds (None if it raised) and its
        counters (None if it failed)."""
        self.attempted += 1
        times = None
        try:
            times, (ok, counts) = run_stages(op())
        except Exception:  # any exception is a failed operation, not a crash
            ok, counts = False, None
            detail = traceback.format_exc()
        else:
            detail = f"output check failed on input {x!r:.200}"
        if ok:
            return times, counts
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = detail
        return times, None


def run_stages(stages):
    """Drive a generator operation; returns (seconds per stage, its result)."""
    times = []
    t0 = time.perf_counter()
    while True:
        try:
            next(stages)
        except StopIteration as stop:
            times.append(time.perf_counter() - t0)
            return times, stop.value
        t1 = time.perf_counter()
        times.append(t1 - t0)
        t0 = t1


class Fastest:
    """Each input's fastest time per stage; its latency is their sum.

    Stages are short (a game step, one canonical form), so each has a good
    chance to run once in a quiet moment of a shared machine, where a whole
    operation lasting tens of milliseconds rarely does.
    """

    def __init__(self, count: int):
        self.stages = [None] * count

    def add(self, i: int, times) -> None:
        best = self.stages[i]
        self.stages[i] = times if best is None else list(map(min, best, times))

    def latencies(self) -> list:
        return [sum(s) for s in self.stages if s is not None]


def import_program():
    """Import sttt from src/ of this checkout; exit 2 if that is impossible."""
    sys.path.insert(0, str(SRC))
    try:
        import sttt
    except ImportError as err:
        print(f"cannot import sttt from {SRC}: {err}", file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(sttt.__file__).resolve().parents:
        print(f"sttt imported from {sttt.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def measure_setup(workload: str) -> dict:
    """Median of each set-up figure over SETUP_RUNS fresh interpreters."""
    runs = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def make_op(wl, workload: str):
    if workload == "census-n2":
        return wl.census_op
    if workload == "canon":
        return wl.canon_op
    autos = {n: wl.automorphisms(n) for n in set(wl.SIZE_PATTERN["playout"])}
    return partial(wl.playout_op, autos=autos)


def input_size(x) -> int:
    return x if isinstance(x, int) else x.n


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples beyond
    it, or the maximum when there are fewer than 11 samples."""
    ordered = sorted(latencies)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def input_properties(wl, workload, inputs, game_lengths) -> dict:
    props = {}
    sizes = [input_size(x) for x in inputs]
    props["n_share"] = {
        n: round(sizes.count(n) / len(sizes), 4) for n in sorted(set(sizes))
    }
    if workload == "canon":
        props["x_count_quartiles"] = {
            n: statistics.quantiles(
                [x.board.x_count for x in inputs if x.n == n], n=4
            )
            for n in sorted(set(sizes))
        }
    if workload == "playout":
        props["mean_game_length"] = {
            n: round(statistics.mean(v), 2) for n, v in sorted(game_lengths.items())
        }
        props["automorphisms"] = {
            n: len(wl.automorphisms(n)) for n in sorted(set(sizes))
        }
    return props


def passes(inputs, seconds, once) -> int:
    """Call ``once(i, x, pass_no)`` on every input, pass after pass, until
    ``seconds`` have passed; always finishes at least one pass."""
    done = 0
    start = time.perf_counter()
    while done == 0 or time.perf_counter() - start < seconds:
        for i, x in enumerate(inputs):
            once(i, x, done)
        done += 1
    return done


def end_to_end(wl, workload, seed, seconds):
    setup = measure_setup(workload)
    inputs = wl.make_inputs(workload, seed)
    op = make_op(wl, workload)
    tally = Tally()
    for x in inputs[:WARMUP_OPS]:
        tally.run(lambda: op(x, untraced), x)
    fastest = Fastest(len(inputs))
    game_lengths = defaultdict(list)

    def once(i, x, pass_no):
        times, counts = tally.run(lambda: op(x, untraced), x)
        if times:
            fastest.add(i, times)
        if pass_no == 0 and counts:
            game_lengths[x.n].append(counts["game.moves_applied"])

    done = passes(inputs, seconds, once)
    latencies = fastest.latencies() or [math.inf]  # inf only if every run raised
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }
    print(f"{done} passes over {len(inputs)} inputs; tail percentile "
          f"p{tail_pct:.2f} over {len(latencies)} inputs")
    print(f"inputs: {json.dumps(input_properties(wl, workload, inputs, game_lengths))}")
    return tally, metrics


def _sum_counts(total: dict, counts: dict) -> None:
    for k, v in counts.items():
        total[k] = total.get(k, 0) + v


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures from one set of spans; missing layers are absent."""
    durations = defaultdict(list)
    per_op = defaultdict(lambda: defaultdict(int))
    roots = {}
    for name, n, start, end, parent, op_id in spans:
        if parent is None:
            roots[op_id] = end - start
            continue
        durations[name, n].append(end - start)
        durations[name, None].append(end - start)
        per_op[parent][name] += end - start
    out = {}
    for metric, names in CENSUS_PHASES.items():
        phase = [sum(op[nm] for nm in names) for op in per_op.values() if names[0] in op]
        if phase:
            out[metric] = statistics.median(phase) * 1e-6
    for metric, (name, n, scale) in CALL_TIMES.items():
        d = durations.get((name, n))
        if d:
            out[metric] = sum(d) / len(d) * scale
    for key in ("census.boards", "census.classes", "census.orbit_images",
                "game.moves_applied"):
        if key in counts:
            out[key] = counts[key]
    if counts.get("game.moves_applied"):
        out["game.branching_mean"] = counts["game.branching_sum"] / counts["game.moves_applied"]
        out["game.valid_image_ratio"] = counts["game.valid_images"] / counts["game.images_attempted"]
    if roots:
        out["trace.unaccounted_frac"] = statistics.median(
            (roots[r] - sum(per_op[r].values())) / roots[r] for r in roots
        )
    return out


def traced_passes(tally, tracer, workload, op, inputs, seconds, paired):
    """Trace ``op`` in passes over ``inputs`` for ``seconds``, keeping the spans
    of each input's fastest traced run.  With ``paired``, each input also runs
    untraced, in alternating order.  Returns the counters of the first pass
    and, keyed by traced or not, each input's fastest stages."""
    best = {True: Fastest(len(inputs)), False: Fastest(len(inputs))}
    kept = [(math.inf, [])] * len(inputs)
    counts = {}

    def once(i, x, pass_no):
        op_id = f"{workload}:{i}"
        modes = (True, False) if (i + pass_no) % 2 == 0 else (False, True)
        for traced in modes if paired else (True,):
            if traced:
                run = lambda: tracer.run(f"op.{workload}", input_size(x), op_id, op, x)  # noqa: E731
            else:
                run = lambda: op(x, untraced)  # noqa: E731
            times, c = tally.run(run, x)
            if times:
                best[traced].add(i, times)
                if traced and sum(times) < kept[i][0]:
                    kept[i] = (sum(times), tracer.pending)
            if traced and pass_no == 0 and c:
                _sum_counts(counts, c)

    passes(inputs, seconds, once)
    for _, spans in kept:
        tracer.spans.extend(spans)
    return counts, best


def per_layer(wl, workload, seed, seconds):
    setup = measure_setup(workload)
    inputs = wl.make_inputs(workload, seed)
    op = make_op(wl, workload)
    tally = Tally()
    for x in inputs[:WARMUP_OPS]:
        tally.run(lambda: op(x, untraced), x)
    tracer = Tracer()
    counts, best = traced_passes(tally, tracer, workload, op, inputs, seconds, True)
    own = layer_metrics(tracer.spans, counts)
    own["trace.overhead_frac"] = 1 - (
        sum(best[False].latencies()) / sum(best[True].latencies())
    )
    own_spans = len(tracer.spans)

    # fill the layers this workload never calls from short fixed passes of the
    # workloads that do; the figures a workload measures itself take priority
    filled = {}
    for other in LAYER_OWNERS:
        if other == workload:
            continue
        wl.warm_caches(other)
        fill = Tracer()
        fill_inputs = wl.make_inputs(other, seed, FILL_OPS[other])
        fill_counts, _ = traced_passes(
            tally, fill, other, make_op(wl, other), fill_inputs, FILL_SECONDS, False
        )
        tracer.spans.extend(fill.spans)
        for k, v in layer_metrics(fill.spans, fill_counts).items():
            filled.setdefault(k, v)
    filled.pop("trace.unaccounted_frac", None)
    metrics = {**filled, **own}
    for k in SETUP_METRICS:
        metrics[k] = setup[k]
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    print(f"{own_spans} spans of {workload}, {len(tracer.spans)} in all, "
          f"written to bench/out/")
    census_ops = [(s[3] - s[2]) * 1e-6 for s in tracer.spans if s[0] == "op.census-n2"]
    if census_ops and all(k in metrics for k in CENSUS_PHASES):
        parts = sum(metrics[k] for k in CENSUS_PHASES)
        print(f"census phases sum to {parts:.3f} ms of a {min(census_ops):.3f} ms "
              f"traced census operation")
    return tally, {k: (v, unit_of(k)) for k, v in sorted(metrics.items())}


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_ns", "ns")):
        if metric.endswith(suffix) or f"{suffix}." in metric:
            return unit
    if metric.endswith("_frac") or metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = import_program()
    measure = per_layer if args.trace else end_to_end
    tally, metrics = measure(wl, args.workload, args.seed, args.seconds)
    failed_frac = tally.failed / tally.attempted
    print(f"failed_frac {failed_frac} ({tally.failed}/{tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    if tally.first_failure:
        print(f"first failure:\n{tally.first_failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
