"""sylsum benchmark: one workload, one seed, checked against a reference.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/NOTES.md for why each exists):

  rational_warm      in-process dispatch_sum, rational weights
  algebraic_warm     in-process dispatch_sum, weights in eight number fields
  unit_weight_large  weight 1, pivots 10^3..10^5, plus genus and Frobenius
  cli_cold           one fresh ``python -m sylsum ... --format json`` per request

One caller runs a closed loop over the seeded request pool, in whole passes
(each in a seeded order), stopping at the pass boundary nearest ``--seconds``
once at least MIN_REQUESTS requests are timed.  Every answer is
compared exactly with a reference computed after the timed loop
(bench/reference.py, plus second-pivot values for weight 1).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under the span hooks of bench/tracer.py and
prints the per-layer metrics, including the tracing overhead.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
Per-request records (and, when traced, the spans) go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# An untraced run goes on past --seconds until it has this many requests, so
# that ten samples lie beyond the 90th percentile.
MIN_REQUESTS = 100
CHILD_TIMEOUT_S = 120
# The formula_used values of sylsum.sums.Formula, spelled out because
# BENCHMARK.json names one metric per route; any other value counts as other.
ROUTES = (
    "general_thm1",
    "mu2_thm2",
    "mu1_thm3",
    "mu1_rou_thm4",
    "unweighted_thm5",
    "alternating_cor1",
    "two_var_closed",
    "two_var_degenerate",
    "three_var_thm6",
    "three_var_thm7",
    "oracle",
    "other",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def field_answer(e) -> tuple:
    return ("field", tuple(e.field.modulus), tuple(e.coeffs))


def answer_bits(answer) -> int | None:
    if answer[0] == "field":
        return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in answer[2])
    if answer[0] == "int" and answer[1] is not None:
        return answer[1].bit_length()
    return None


# ---------------------------------------------------------------------------
# executing one request


class Outcome(NamedTuple):
    latency_ns: int
    answer: tuple
    formula: str | None = None
    pivot: int | None = None


def call_api(req):
    import sylsum

    if req.kind == "sum":
        r = sylsum.dispatch_sum(sylsum.SumRequest(*req.args))
        return field_answer(r.value), r.formula_used.value, r.pivot_used
    fn = sylsum.sylvester_number if req.kind == "genus" else sylsum.frobenius_number
    return ("int", fn(*req.args)), None, None


def run_api(req, tracer, exec_id) -> Outcome:
    root = None
    if tracer is not None:
        tracer.request = exec_id
        root = tracer.open(tr.REQUEST)
    t0 = time.perf_counter_ns()
    try:
        answer, formula, pivot = call_api(req)
    except Exception as exc:  # a failed request is counted, the loop goes on
        answer, formula, pivot = ("error", type(exc).__name__, str(exc)), None, None
    latency = time.perf_counter_ns() - t0
    if tracer is not None:
        tracer.close(root)
        bits = answer_bits(answer)
        if bits is not None:
            tracer.size("exactnum.result_bits", bits)
        tracer.request = None
    return Outcome(latency, answer, formula, pivot)


def cli_answer(req, envelope):
    from sylsum.cli import parse_element

    res = envelope["result"]
    if req.kind in ("sum", "closed3"):
        return field_answer(parse_element(res["text"]))
    if req.kind == "verify":
        return (
            "verify",
            res["agrees"],
            field_answer(parse_element(res["formula_value"]["text"])),
            field_answer(parse_element(res["oracle_value"]["text"])),
        )
    if req.kind == "gaps":
        return ("list", tuple(res))
    if req.kind == "apery":
        return ("list", tuple(res["reps"]))
    return ("int", res)


def run_cli(req, tracer, exec_id) -> Outcome:
    if tracer is None:
        cmd = [sys.executable, "-m", "sylsum", *req.argv()]
    else:
        span_file = RESULTS / f"launch-{os.getpid()}.json"
        spawn = time.monotonic_ns()
        cmd = [sys.executable, str(BENCH / "launch.py"), str(span_file), str(spawn), str(exec_id)]
        cmd += req.argv()
        tracer.request = exec_id
        root = tracer.open(tr.REQUEST, start=spawn)
    t0 = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        proc = None
    latency = time.perf_counter_ns() - t0
    if proc is None:
        answer, envelope = ("error", "timeout"), {}
    elif proc.returncode != 0:
        answer, envelope = ("error", f"exit {proc.returncode}", proc.stderr.strip()[-200:]), {}
    else:
        try:
            envelope = json.loads(proc.stdout)
            answer = cli_answer(req, envelope)
        except (ValueError, KeyError, TypeError) as exc:
            answer, envelope = ("error", "bad output", str(exc)), {}
    if tracer is not None:
        tracer.close(root)
        if span_file.exists():
            tracer.merge(json.loads(span_file.read_text()), root, exec_id)
            span_file.unlink()
        bits = answer_bits(answer[2] if answer[0] == "verify" else answer)
        if bits is not None:
            tracer.size("exactnum.result_bits", bits)
        tracer.request = None
    return Outcome(latency, answer, envelope.get("formula_used"), envelope.get("pivot"))


# ---------------------------------------------------------------------------
# references, computed outside the timed loop


def gap_sizes(gens, gaps) -> dict:
    return {"genus": len(gaps), "max_apery": (gaps[-1] if gaps else -1) + min(gens)}


def weighted_references(pool) -> tuple[dict, dict]:
    refs, sizes, groups = {}, {}, {}
    for req in pool:
        groups.setdefault((req.gens, req.weight), []).append(req)
    for (gens, weight), reqs in groups.items():
        lam = weight.build()
        sums = reference.weighted_gap_sums(
            gens, sorted({r.mu for r in reqs}), lam.field.modulus, lam.coeffs
        )
        for r in reqs:
            refs[r.rid] = ("field", tuple(lam.field.modulus), sums[r.mu])
    for req in pool:
        sizes[req.rid] = gap_sizes(req.gens, reference.gaps(req.gens))
    return refs, sizes


def unit_references(pool) -> tuple[dict, dict]:
    """Second pivot (the second-smallest generator) for every instance, and
    the classical identities for two generators."""
    import sylsum

    refs, sizes, done = {}, {}, {}
    for req in pool:
        if req.gens not in done:
            A = req.args[0]
            p2 = A.gens[1]
            vals = {2: sylsum.unweighted_power_sum(A, 2, pivot=p2).value.coeffs[0]}
            if len(A.gens) == 2:
                ident = reference.pair_identities(*A.gens)
                vals.update(genus=ident["genus"], frobenius=ident["frobenius"])
                vals[1] = ident["gap_sum"]
            else:
                vals.update(
                    genus=sylsum.sylvester_number(A, pivot=p2),
                    frobenius=sylsum.frobenius_number(A, pivot=p2),
                )
                vals[1] = sylsum.unweighted_power_sum(A, 1, pivot=p2).value.coeffs[0]
            vals[0] = vals["genus"]
            done[req.gens] = vals
        vals = done[req.gens]
        if req.kind == "sum":
            refs[req.rid] = ("field", (Fraction(0), Fraction(1)), (Fraction(vals[req.mu]),))
        else:
            refs[req.rid] = ("int", vals[req.kind])
        sizes[req.rid] = {
            "genus": vals["genus"],
            "max_apery": vals["frobenius"] + min(req.gens),
        }
    return refs, sizes


def cli_references(pool) -> tuple[dict, dict]:
    refs, sizes = {}, {}
    for req in pool:
        g = reference.gaps(req.gens)
        sizes[req.rid] = gap_sizes(req.gens, g)
        if req.weight is not None:
            lam = req.weight.build()
            value = reference.weighted_gap_sums(
                req.gens, [req.mu], lam.field.modulus, lam.coeffs
            )[req.mu]
            ans = ("field", tuple(lam.field.modulus), value)
            refs[req.rid] = ("verify", True, ans, ans) if req.kind == "verify" else ans
        elif req.kind == "gaps":
            refs[req.rid] = ("list", tuple(g))
        elif req.kind == "apery":
            refs[req.rid] = ("list", tuple(reference.apery_reps(req.gens, req.pivot or min(req.gens))))
        elif req.kind == "genus":
            refs[req.rid] = ("int", len(g))
        else:
            refs[req.rid] = ("int", g[-1] if g else None)
    return refs, sizes


def references(name, pool) -> tuple[dict, dict]:
    """Reference answer and sizes (genus, largest Apery element) per rid."""
    if name == "unit_weight_large":
        return unit_references(pool)
    if name == "cli_cold":
        return cli_references(pool)
    return weighted_references(pool)


# ---------------------------------------------------------------------------


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh processes that only set the workload up.

    The output is captured so that the wait ends when the child's pipes
    close; ``wait`` with a timeout and no pipes polls in 50 ms steps."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), name, str(seed)],
            env=child_env(),
            capture_output=True,
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name, seed, traced = args.workload, args.seed, bool(args.trace)

    try:
        import sylsum  # noqa: F401
    except ImportError as exc:
        print(f"cannot import sylsum from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    setup_s = measure_setup(name, seed)
    pool = workloads.setup(name, seed)
    run = run_cli if name == "cli_cold" else run_api
    tracer = tr.Tracer() if traced else None

    # answers[rid] counts each distinct answer; outcomes feed the records
    answers = {req.rid: Counter() for req in pool}
    first: dict[int, Outcome] = {}
    latencies = {False: [], True: []}
    per_rid = {req.rid: [] for req in pool}
    order_rng = random.Random(f"{name}/{seed}/order")
    exec_id = 0

    def one_pass(with_trace: bool) -> None:
        nonlocal exec_id
        order = list(pool)
        order_rng.shuffle(order)
        use = tracer if with_trace else None
        if use is not None and name != "cli_cold":
            tr.install(tracer)
        try:
            for req in order:
                exec_id += 1
                out = run(req, use, exec_id)
                answers[req.rid][out.answer] += 1
                first.setdefault(req.rid, out)
                latencies[with_trace].append(out.latency_ns)
                if not with_trace:
                    per_rid[req.rid].append(out.latency_ns)
        finally:
            if use is not None and name != "cli_cold":
                tr.uninstall(tracer)

    # Whole passes, so every run sees the whole population; stop at the pass
    # boundary nearest to --seconds.
    start = time.perf_counter()
    passes = 0
    while True:
        if traced:
            # alternate which half of the pair goes first
            for with_trace in (passes % 2 == 1, passes % 2 == 0):
                one_pass(with_trace)
        else:
            one_pass(False)
        passes += 1
        elapsed = time.perf_counter() - start
        short = not traced and len(latencies[False]) < MIN_REQUESTS
        if elapsed + elapsed / passes / 2 >= args.seconds and not short:
            break
    wall = time.perf_counter() - start
    usage = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    refs, sizes = references(name, pool)
    attempted = sum(sum(c.values()) for c in answers.values())
    failed = sum(n for rid, c in answers.items() for ans, n in c.items() if ans != refs[rid])

    records = []
    for req in pool:
        out = first[req.rid]
        lat = per_rid[req.rid]
        records.append(
            dict(
                req.describe(),
                formula_used=out.formula,
                pivot=out.pivot,
                **sizes[req.rid],
                result_bits=answer_bits(out.answer),
                runs=sum(answers[req.rid].values()),
                failed=sum(n for a, n in answers[req.rid].items() if a != refs[req.rid]),
                latency_ms=statistics.median(lat) / 1e6 if lat else None,
            )
        )
    stem = RESULTS / f"{name}-seed{seed}{'-trace' if traced else ''}"
    with open(f"{stem}.requests.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")

    routes = Counter(r["formula_used"] for r in records if r["formula_used"] is not None)
    print(f"{name} seed={seed} pool={len(pool)} passes={passes} wall_s={wall:.2f}")
    for key in ("kind", "family", "wclass", "mu"):
        print(f"  population by {key}: {dict(sorted(Counter(str(r[key]) for r in records).items()))}")
    print(f"  population by route: {dict(sorted(routes.items()))}")

    untraced = latencies[False]
    error_rate = failed / attempted
    if traced:
        tr.write_spans(tracer, f"{stem}.spans.jsonl")
        metrics = tr.layer_metrics(tracer, len(latencies[True]), workloads.EXPECTED_LAYERS[name])
        for route in ROUTES:
            n = routes.get(route, 0) if route != "other" else sum(
                v for k, v in routes.items() if k not in ROUTES
            )
            metrics[f"sums.route.{route}"] = {"value": n, "unit": "count"}
        overhead = 100 * (sum(latencies[True]) / sum(untraced) - 1)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "latency_p50_ms": {"value": statistics.median(untraced) / 1e6, "unit": "ms"},
            "latency_p90_ms": {"value": percentile(untraced, 90) / 1e6, "unit": "ms"},
            "throughput_rps": {"value": len(untraced) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    counted = len(latencies[True]) if traced else len(untraced)
    for key, m in metrics.items():
        shown = "missing" if m.get("missing") else f"{m['value']:.6g}"
        print(f"  {key} = {shown} {m['unit']}  (requests={counted})")
    print(f"  error_rate = {error_rate:.6g}  (failed={failed} of attempted={attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
