"""Smoke test of the benchmark itself (not part of the package's test suite).

    python -m pytest -q bench/test_bench.py

Runs every workload on a thinned pool for one pass, untraced and traced,
and checks that every answer matched its reference, that the metric names
are those of BENCHMARK.json, and that no hook is missing.
"""

from __future__ import annotations

import json
import random

import pytest

import reference
import run
import tracer as tr
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
STRIDE = {"rational_warm": 14, "algebraic_warm": 8, "unit_weight_large": 12, "cli_cold": 4}


@pytest.fixture
def thin(monkeypatch):
    """One pass over every STRIDE-th request, one set-up child."""
    monkeypatch.setattr(run, "MIN_REQUESTS", 0)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for name, make in list(workloads.POOLS.items()):
        monkeypatch.setitem(
            workloads.POOLS, name, lambda seed, make=make, k=STRIDE[name]: make(seed)[::k]
        )


def _run(capsys, name: str, trace: int) -> dict:
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean(thin, capsys, name, trace):
    result = _run(capsys, name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert set(result["metrics"]) == wanted
    missing = [k for k, m in result["metrics"].items() if m.get("missing")]
    assert missing == []
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_every_hook_exists():
    t = tr.Tracer()
    import sylsum.cli  # noqa: F401  (the CLI hooks live there)

    tr.install(t)
    try:
        assert t.missing == set()
    finally:
        tr.uninstall(t)


def test_absent_hook_is_reported_missing(monkeypatch):
    monkeypatch.setattr(
        tr, "HOOKS", tr.HOOKS + (("exactnum.pow", "sylsum.exactnum", "FieldElement.no_such", "span"),)
    )
    t = tr.Tracer()
    tr.install(t)
    tr.uninstall(t)
    metrics = tr.layer_metrics(t, 1, expected=set())
    assert metrics["exactnum.pow_ms"] == {"value": None, "unit": "ms", "missing": True}
    assert metrics["sums.dispatch_ms"]["value"] == 0


def test_reference_agrees_with_package_oracle():
    import sylsum

    rng = random.Random(3)
    for weight in workloads.RATIONAL_WEIGHTS[:3] + tuple(p[0] for p in workloads.ALGEBRAIC_WEIGHTS):
        gens = workloads._draw(rng, "triple", 5, 12)
        lam = weight.build()
        ref = reference.weighted_gap_sums(gens, [0, 2], lam.field.modulus, lam.coeffs)
        A = sylsum.validate_generators(gens)
        assert reference.gaps(gens) == list(sylsum.gap_set(A))
        for mu in (0, 2):
            assert ref[mu] == sylsum.brute_force_weighted_sum(A, mu, lam).coeffs
