#!/usr/bin/env python3
"""Bound-and-time benchmark for cttsolve.

Usage, from the repository root:

    python3 bench/run.py --workload search-mid --seed 1 --seconds 30 --trace 0

Runs one workload's strategy calls one at a time in this process, checks
every result, and prints a report line followed, as the last line, by one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, measured untraced; with
`--trace 1` untraced and traced passes alternate, and the metrics are the
per-layer ones plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

IMPORT_PROBE = ("import time; t = time.perf_counter();"
                " import cttsolve.control, cttsolve.milp;"
                " print(time.perf_counter() - t)")
SETUP_REPEATS = 5
MIN_PASSES = 2  # per-call minima need repeats, even past --seconds
FAR = 1e6  # a time budget far above any run: the ledger then stamps seconds


@dataclass(frozen=True)
class Workload:
    preset: str
    instances: int
    jobs: tuple[dict, ...]  # StrategyConfig arguments, run per instance
    mps_round_trip: bool = False


# Why each workload is here: see README.md.
WORKLOADS = {
    "search-mid": Workload("mid", 4, (
        dict(strategy="contract", surface_nodes=500, dive_nodes=60),)),
    "corpus-small": Workload("small", 4, (
        dict(strategy="exact", surface_nodes=300),
        dict(strategy="contract", surface_nodes=200, dive_nodes=40),
        dict(strategy="anytime", surface_nodes=200, dive_nodes=40))),
    "build-comp": Workload("comp", 1, (
        dict(strategy="exact", surface_nodes=1),
        dict(strategy="contract", surface_nodes=4, dive_nodes=5,
             pattern_cuts=True)), mps_round_trip=True),
}

DIVE_STATUSES = ("optimal", "feasible", "infeasible", "limit-reached")


@dataclass
class Job:
    label: str
    seconds: float = 0.0
    first_ub_s: float = 0.0
    report: object = None
    failures: list[str] = field(default_factory=list)
    fingerprint: object = None


def median_time(fn, repeats: int):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def import_seconds() -> float:
    """Median import time of the package, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit()}


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- one pass over a workload -------------------------------------------------

def fingerprint(report) -> list:
    """Everything about a run that must repeat exactly under node budgets."""
    return [report.status, report.lower_bound, report.upper_bound,
            report.surface_status, report.surface_nodes,
            [[d.kind, d.status, d.objective, d.nodes] for d in report.dives],
            [[e.kind, e.value, e.source] for e in report.history]]


def run_pass(workload: Workload, instances, oracle, tracer=None) -> list[Job]:
    from cttsolve import control, formulations, milp
    from checks import check_bracket, check_mps, check_report

    jobs = []
    for instance in instances:
        exact = None
        for spec in workload.jobs:
            job = Job(f"{instance.name}/{spec['strategy']}")
            config = control.StrategyConfig(total_time=FAR, **spec)
            try:
                with _request(tracer, "control.run_strategy"):
                    t0 = time.monotonic()
                    report = control.run_strategy(instance, config)
                    job.seconds = time.monotonic() - t0
                job.report = report
                job.first_ub_s = next((e.at - t0 for e in report.history
                                       if e.kind == "upper"), job.seconds)
                solution = control.solution_from_payload(report.solution)
                job.failures += check_report(instance, report, solution,
                                             oracle)
                if spec["strategy"] == "exact" and report.status == "optimal":
                    exact = report.upper_bound
                elif exact is not None:
                    job.failures += check_bracket(exact, report)
                job.fingerprint = fingerprint(report)
            except Exception:  # a failed run is counted, not fatal
                job.failures.append(traceback.format_exc(limit=3))
            jobs.append(job)
        if workload.mps_round_trip:
            job = Job(f"{instance.name}/mps")
            try:
                with _request(tracer, "milp.round_trip"):
                    t0 = time.monotonic()
                    model = formulations.build_monolithic(instance).freeze()
                    text = milp.export_mps(model)
                    again = milp.export_mps(milp.parse_mps(text))
                    job.seconds = time.monotonic() - t0
                job.failures += check_mps(text, again)
                job.fingerprint = [len(text),
                                   hashlib.sha256(text.encode()).hexdigest()]
            except Exception:
                job.failures.append(traceback.format_exc(limit=3))
            jobs.append(job)
    return jobs


def _request(tracer, name):
    if tracer is None:
        return contextlib.nullcontext()
    tracer.request += 1
    return tracer.span(name)


def end_to_end(passes: list[list[Job]]) -> dict:
    """Times are sums over the calls of each call's fastest time over the
    passes: on a shared machine, bursts of load from other processes only
    ever add time, and the minimum of a call's repeats varied between runs
    several times less than their median.  Bounds and counts come from the
    first pass, which all others repeat."""
    jobs = passes[0]
    reports = [j.report for j in jobs if j.report is not None]
    ubs = [r.upper_bound for r in reports if r.upper_bound is not None]
    gaps = [100.0 if r.gap is None else r.gap for r in reports]
    return {
        "solve_s": sum(min(p[j].seconds for p in passes)
                       for j in range(len(jobs))),
        "first_ub_s": sum(min(p[j].first_ub_s for p in passes)
                          for j in range(len(jobs))
                          if not jobs[j].label.endswith("/mps")),
        "lower_bound": sum(r.lower_bound or 0.0 for r in reports),
        "upper_bound": float(sum(ubs)),
        "ub_found": len(ubs),
        "gap_pct": statistics.fmean(gaps) if gaps else 100.0,
        "proved_optimal": sum(r.status == "optimal" for r in reports),
    }


UNITS = {"solve_s": "s", "setup_s": "s", "first_ub_s": "s",
         "lower_bound": "penalty", "upper_bound": "penalty",
         "ub_found": "count", "gap_pct": "%", "proved_optimal": "count",
         "peak_rss_mb": "MB", "failed_share": "ratio"}
# The end-to-end metrics in BENCHMARK.json; README.md says why the others
# are reported but not gated.
GATED_END_TO_END = ("solve_s", "setup_s", "first_ub_s", "gap_pct",
                    "peak_rss_mb")


# -- traced pass ------------------------------------------------------------

def trace_targets():
    from cttsolve import control, formulations, instance, milp, solver

    def bnb(span, args, result):
        model = args[0]
        role = ("dive" if "dive" in model.metadata else
                "surface" if model.metadata.get("formulation", "").startswith(
                    "surface") else "exact")
        span.attrs.update(role=role, nodes=result.nodes_explored,
                          limit=result.status == "limit-reached",
                          vars=len(model.variables),
                          rows=len(model.constraints))

    def cuts(span, args, result):
        span.attrs["added"] = result

    def mps(span, args, result):
        span.attrs["bytes"] = len(result.encode())

    return [
        (control, "branch_and_bound", "solver.bnb", bnb),
        (solver, "linprog", "solver.lp", None),
        (control, "build_monolithic", "formulations.build_monolithic", None),
        (formulations, "build_monolithic", "formulations.build_monolithic",
         None),
        (control, "build_surface", "formulations.build_surface", None),
        (control, "build_surface2", "formulations.build_surface", None),
        (control, "build_dive", "formulations.dive_build", None),
        (control, "greedy_clique_cover", "formulations.clique_cuts", None),
        (control, "add_clique_cuts", "formulations.clique_cuts", cuts),
        (control, "add_implied_bound_cuts", "formulations.implied_cuts",
         cuts),
        (control, "add_pattern_cuts", "formulations.pattern_cuts", cuts),
        (control, "decode_monolithic", "formulations.decode", None),
        (control, "_run_dive", "control.dive", None),
        (control, "check_hard", "evaluation.check_hard", None),
        (control, "evaluate", "evaluation.evaluate", None),
        (control, "penalties", "evaluation.penalties", None),
        (control, "build_conflict_graph", "instance.graph", None),
        (instance, "build_conflict_graph", "instance.graph", None),
        (instance, "parse_ctt", "instance.parse", None),
        (milp, "export_mps", "milp.export_mps", mps),
        (milp, "parse_mps", "milp.parse_mps", None),
    ]


MODULES = ("control", "solver", "formulations", "milp", "evaluation",
           "instance")


def per_layer(tracer, jobs: list[Job]) -> dict:
    """Per-layer numbers from the spans of one traced pass."""
    spans = tracer.spans
    own = tracer.self_times()
    kids = tracer.children()

    def total(name):
        return sum(s.seconds for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    bnb = [i for i, s in enumerate(spans) if s.name == "solver.bnb"]
    nodes = sum(spans[i].attrs["nodes"] for i in bnb)
    lp_s = total("solver.lp")
    bnb_self = sum(own[i] for i in bnb)
    bnb_s = bnb_self + lp_s
    surface_s = sum(spans[i].seconds - sum(
        spans[k].seconds for k in kids.get(i, ())
        if spans[k].name == "control.dive")
        for i in bnb if spans[i].attrs["role"] == "surface")

    reports = [j.report for j in jobs if j.report is not None]
    dives = [d for r in reports for d in r.dives]
    improved = sum(1 for r in reports for e in r.history
                   if e.kind == "upper" and e.source.startswith("dive:"))
    m = {
        "solver.bnb_s": bnb_s,
        "solver.bnb_calls": len(bnb),
        "solver.nodes": nodes,
        "solver.nodes_per_s": nodes / bnb_s if bnb_s else 0.0,
        "solver.limit_hits": sum(spans[i].attrs["limit"] for i in bnb),
        "solver.lp_solves": count("solver.lp"),
        "solver.lp_s": lp_s,
        "solver.lp_share": lp_s / bnb_s if bnb_s else 0.0,
        "solver.overhead_ms_per_node": 1000 * bnb_self / nodes if nodes
        else 0.0,
        "formulations.build_monolithic_s":
            total("formulations.build_monolithic"),
        "formulations.build_surface_s": total("formulations.build_surface"),
        "formulations.dive_build_s": total("formulations.dive_build"),
        "formulations.dive_builds": count("formulations.dive_build"),
        "formulations.decode_s": total("formulations.decode"),
        "formulations.vars": sum(spans[i].attrs["vars"] for i in bnb),
        "formulations.rows": sum(spans[i].attrs["rows"] for i in bnb),
        "milp.export_mps_s": total("milp.export_mps"),
        "milp.parse_mps_s": total("milp.parse_mps"),
        "milp.mps_bytes": attr_sum("milp.export_mps", "bytes"),
        "control.surface_s": surface_s,
        "control.dive_s": total("control.dive"),
        "control.dive_improved_ratio": improved / len(dives) if dives
        else 0.0,
        "evaluation.check_hard_s": total("evaluation.check_hard"),
        "evaluation.check_hard_calls": count("evaluation.check_hard"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.evaluate_calls": count("evaluation.evaluate"),
        "trace.solve_s": sum(s.seconds for s in spans if s.parent is None),
    }
    for family in ("clique", "implied", "pattern"):
        name = f"formulations.{family}_cuts"
        m[f"{name}_s"] = total(name)
        m[name] = attr_sum(name, "added")
    for status in DIVE_STATUSES:
        m[f"control.dives.{status}"] = sum(d.status == status for d in dives)
    m["control.dives.other"] = sum(d.status not in DIVE_STATUSES
                                   for d in dives)
    for module in MODULES:
        m[f"{module}.self_s"] = sum(t for s, t in zip(spans, own)
                                    if s.module == module)
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms_per_node"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- main -------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]

    import_s = import_seconds()
    from cttsolve.instance import instance_stats

    import generate
    from checks import load_oracle_objective
    from spans import Tracer

    oracle = load_oracle_objective(ROOT)

    def set_up():
        texts = generate.corpus_texts(workload.preset, args.seed,
                                      workload.instances)
        instances = generate.load(texts)
        return texts, instances, [instance_stats(i) for i in instances]

    setup_tracer = Tracer()
    with contextlib.ExitStack() as stack:
        if args.trace:
            stack.enter_context(setup_tracer.patched(trace_targets()))
        prepare_s, (texts, instances, stats) = median_time(set_up,
                                                           SETUP_REPEATS)
    setup_s = import_s + prepare_s

    # With --trace 1, untraced and traced passes alternate, so both see the
    # same machine conditions and their difference is the tracing overhead.
    untraced: list[list[Job]] = []
    traced: list[list[Job]] = []
    layers: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        if args.trace and len(untraced) > len(traced):
            tracer = Tracer()
            with tracer.patched(trace_targets()):
                jobs = run_pass(workload, instances, oracle, tracer)
            traced.append(jobs)
            layers.append(per_layer(tracer, jobs))
        else:
            untraced.append(run_pass(workload, instances, oracle))
        last = time.monotonic() - t0
        done = len(untraced) + len(traced) >= MIN_PASSES
        if done and time.monotonic() - start + last > args.seconds:
            break

    # determinism: every pass must repeat the first exactly, and every
    # traced pass the first traced pass's counts
    first = untraced[0]
    for jobs in untraced[1:] + traced:
        for a, b in zip(first, jobs):
            if a.fingerprint != b.fingerprint:
                b.failures.append("differs from the first pass")
    counts = [{k: v for k, v in m.items() if layer_unit(k) in ("count",
                                                              "bytes")}
              for m in layers]
    for jobs, c in zip(traced[1:], counts[1:]):
        if c != counts[0]:
            jobs[0].failures.append("traced counts differ from the first"
                                    " traced pass")
    all_jobs = [j for jobs in untraced + traced for j in jobs]
    attempted = len(all_jobs)
    failed = sum(1 for j in all_jobs if j.failures)
    for j in all_jobs:
        for message in j.failures:
            print(f"FAILED {j.label}: {message}", file=sys.stderr)

    e2e = end_to_end(untraced)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e["failed_share"] = failed / attempted

    report = {
        "workload": args.workload, "seed": args.seed,
        "environment": environment(),
        "instance_stats": [asdict(s) for s in stats],
        "ctt_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "determinism_digest": digest([j.fingerprint for j in first]),
        "dive_statuses": dict(collections.Counter(
            d.status for j in first if j.report for d in j.report.dives)),
        "end_to_end": {k: {"value": v, "unit": UNITS[k]}
                       for k, v in e2e.items()},
    }
    if args.trace:
        layer = {k: statistics.median_low(m[k] for m in layers)
                 for k in layers[0]}
        layer["instance.parse_s"] = sum(
            s.seconds for s in setup_tracer.spans
            if s.name == "instance.parse") / SETUP_REPEATS
        layer["instance.graph_s"] = sum(
            s.seconds for s in setup_tracer.spans
            if s.name == "instance.graph") / SETUP_REPEATS
        layer["trace.overhead_pct"] = 100 * (
            end_to_end(traced)["solve_s"] / e2e["solve_s"] - 1)
        report["traced_count_digest"] = digest(counts[0])
        report["per_layer"] = layer
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layer.items() if k not in REPORT_ONLY_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]}
                   for k in GATED_END_TO_END}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

# Per-layer times that are 0 on some workload at this commit (MPS and
# pattern cuts run on build-comp only, and build-comp reaches no dive or
# timetable).  A time that reads 0 on every run of a workload says nothing
# there, so these are in the report line but not in BENCHMARK.json; their
# call and cut counts are.
REPORT_ONLY_LAYER = frozenset((
    "milp.export_mps_s", "milp.parse_mps_s", "milp.self_s",
    "formulations.pattern_cuts_s", "formulations.dive_build_s",
    "formulations.decode_s", "control.dive_s", "evaluation.check_hard_s",
    "evaluation.evaluate_s", "evaluation.self_s"))


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
