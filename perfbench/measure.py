"""Passes, checks and metrics of one benchmark run (see run.py)."""

import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from fairlists import cli
from fairlists.errors import FairlistsError

import checker
import layers
import spans
from inputs import DEFAULT_SEED
from workloads import WHOLE_PASS

HERE = Path(__file__).resolve().parent
SPANS_DIR = HERE.parent / ".perfbench_spans"
SETUP_REPEATS = 5
MIN_PASSES = 2
MAX_MEASURE_S = 120.0  # stop adding passes here even when ops are short
SELF_SUM_TOLERANCE_S = 1e-6


@dataclass
class Pass:
    traced: bool
    wall: float  # summed durations of the pass's cli.main calls
    spans: list
    rcs: list  # CLI exit codes
    digest: str


def time_setup(wl, seed, indir):
    """Median set-up time over SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), wl.name, str(seed), str(indir)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n%s" % proc.stderr)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_pass(wl, targets, indir, passdir, traced):
    passdir.mkdir()
    tracer = spans.Tracer()
    rcs = []
    with spans.installed(tracer, targets, wl.op):
        for argv in wl.commands(str(indir), str(passdir)):
            with tracer.span("cli.main"):
                rcs.append(cli.main(argv))
    recorded = tracer.drain()
    wall = sum(sp.duration for sp in recorded if sp.name == "cli.main")
    return Pass(traced, wall, recorded, rcs, checker.digest(passdir))


def run_passes(wl, work, seconds, trace):
    """Passes until `seconds` have passed and the metrics have their
    samples; with `trace`, untraced and traced passes alternate."""
    op_targets = [t for t in layers.TARGETS if t[2] == wl.op]
    need_ops = math.ceil(10 / (1.0 - wl.tail_pct / 100.0))
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passdir = work / ("pass%d" % len(passes))
        passes.append(run_pass(wl, layers.TARGETS if traced else op_targets, work / "in", passdir, traced))
        if len(passes) > 1:
            shutil.rmtree(passdir)  # the first pass's files are kept for the checks
        elapsed = time.perf_counter() - start
        untraced = [p for p in passes if not p.traced]
        ops = sum(1 for p in untraced for sp in p.spans if sp.name == wl.op)
        if elapsed >= MAX_MEASURE_S:
            return passes
        if elapsed < seconds:
            continue
        if trace and len(passes) >= 2:
            return passes
        if not trace and len(untraced) >= MIN_PASSES and ops >= need_ops:
            return passes


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def check_outputs(wl, work, passes, seed):
    """(problems, failing check units) of the run's result files."""
    problems = []
    if len({p.digest for p in passes}) > 1:
        problems.append("result files differ between passes")
    reference = json.loads((HERE / "reference.json").read_text()).get(wl.name)
    if seed == DEFAULT_SEED and reference is not None and passes[0].digest != reference:
        problems.append("digest %s differs from the reference %s" % (passes[0].digest, reference))
    for i, p in enumerate(passes):
        if any(rc != 0 for rc in p.rcs):
            problems.append("pass %d: CLI exit codes %r" % (i, p.rcs))
    try:
        unit_problems = wl.check(str(work / "in"), str(work / "pass0"))
    except (OSError, ValueError, FairlistsError) as exc:
        unit_problems = [(WHOLE_PASS, "check failed: %s" % exc)]
    problems += [msg for _, msg in unit_problems]
    return problems, {u for u, _ in unit_problems}


def count_ops(wl, p, bad_units):
    """(attempted, failed) ops of one pass."""
    ops = [sp for sp in p.spans if sp.name == wl.op]
    attempted = max(1, len(ops))
    if WHOLE_PASS in bad_units or any(rc != 0 for rc in p.rcs):
        return attempted, attempted
    bad = {sp.op for sp in ops if sp.failed}
    bad |= {sp.op for sp in p.spans if sp.name == layers.OP_SEARCH and not sp.info.get("certified", True)}
    return attempted, min(len(ops), len(bad - {None}) + len(bad_units))


def end_to_end(wl, passes, peak_rss_mb, setup_s, lines):
    untraced = [p for p in passes if not p.traced]
    op_ms = [1e3 * sp.duration for p in untraced for sp in p.spans if sp.name == wl.op]
    beyond = len(op_ms) - math.ceil(wl.tail_pct / 100.0 * len(op_ms))
    lines.append("  op_tail_ms is p%d of %d ops (%d beyond it)" % (wl.tail_pct, len(op_ms), beyond))
    return {
        "wall_s": {"value": statistics.median(p.wall for p in untraced), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
        "op_tail_ms": {"value": percentile(op_ms, wl.tail_pct), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def write_spans(path, passes, selfs_by_pass):
    """One JSON line per span of every traced pass."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for i, selfs in selfs_by_pass.items():
            for sp in passes[i].spans:
                fh.write(json.dumps({
                    "pass": i, "id": sp.id, "parent": sp.parent, "op": sp.op, "name": sp.name,
                    "start": sp.start, "end": sp.end, "self": selfs[sp.id], "failed": sp.failed,
                    "info": sp.info,
                }) + "\n")


def per_layer(passes, problems, lines, spans_path):
    traced = []
    selfs_by_pass = {}
    for i, p in enumerate(passes):
        if not p.traced:
            continue
        selfs_by_pass[i] = spans.self_times(p.spans)
        metrics, layer_self = layers.pass_metrics(p.spans, selfs_by_pass[i])
        total = sum(layer_self.values())
        if abs(total - p.wall) > SELF_SUM_TOLERANCE_S:
            problems.append("pass %d: self times sum to %r s, traced wall is %r s" % (i, total, p.wall))
        if metrics["search.uncertified"]:
            problems.append("pass %d: %d uncertified searches" % (i, metrics["search.uncertified"]))
        traced.append((metrics, p.wall))
        lines.append("  pass %d self time by layer (sum %.6f s, traced wall %.6f s): %s" % (
            i, total, p.wall, ", ".join("%s %.4f" % kv for kv in layer_self.items())))
    write_spans(spans_path, passes, selfs_by_pass)
    lines.append("  spans written to %s" % spans_path)
    summary = layers.summarize(traced, [p.wall for p in passes if not p.traced])
    return {name: {"value": summary[name], "unit": unit} for name, unit in layers.UNITS.items()}


def run(wl, work, seed, seconds, trace):
    """Measure one workload; print the summary and the JSON result line."""
    indir = work / "in"
    indir.mkdir(parents=True)
    setup_s = time_setup(wl, seed, indir)
    passes = run_passes(wl, work, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, bad_units = check_outputs(wl, work, passes, seed)
    attempted = failed = 0
    for p in passes:
        a, f = count_ops(wl, p, bad_units)
        attempted += a
        failed += f

    n_traced = sum(1 for p in passes if p.traced)
    lines = [
        "workload %s  seed %d  n %d  %d untraced and %d traced passes"
        % (wl.name, seed, wl.n, len(passes) - n_traced, n_traced),
        "  pass walls (s): %s" % " ".join("%.3f%s" % (p.wall, "T" if p.traced else "") for p in passes),
    ]
    if trace:
        metrics = per_layer(passes, problems, lines, SPANS_DIR / ("%s-%d.jsonl" % (wl.name, seed)))
    else:
        metrics = end_to_end(wl, passes, peak_rss_mb, setup_s, lines)
    for name, m in metrics.items():
        lines.append("  %-28s %14.6f %s" % (name, m["value"], m["unit"]))
    lines.append("  %-28s %14.6f (%d of %d ops)" % ("failed_frac", failed / attempted, failed, attempted))
    lines.append("  digest %s%s" % (passes[0].digest, "" if seed == DEFAULT_SEED else " (no reference for this seed)"))
    for msg in problems:
        print("perfbench: %s" % msg, file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
