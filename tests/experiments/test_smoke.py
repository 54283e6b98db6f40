"""Tests of the smoke matrix's check functions on synthetic manifests.

No experiment runs here: each test builds the few manifest fields one
check reads, confirms the clean input passes, then breaks one invariant
and confirms the check names it.
"""

import copy

from repro.experiments import smoke


def _manifest(*records):
    return {
        "experiments": [copy.deepcopy(record) for record in records],
        "summary": {"failed": 0, "job_failures": 0},
    }


def _legs(**records):
    return {name: _manifest(*recs) for name, recs in records.items()}


def _broken(manifests, leg, exp_id):
    """A deep copy of ``manifests`` and the named experiment record in it."""
    manifests = copy.deepcopy(manifests)
    for record in manifests[leg]["experiments"]:
        if record["id"] == exp_id:
            return manifests, record
    raise KeyError(exp_id)


def test_fingerprint_difference_between_legs_is_reported():
    e1 = {"id": "E1", "fingerprints": ["a", "b"]}
    e4 = {"id": "E4", "fingerprints": ["c"]}
    legs = _legs(
        serial=[e1, e4],
        cold=[e4, {"id": "E1", "fingerprints": ["b", "a"]}],
        trace=[e1, e4],
    )
    assert smoke.check_fingerprints(legs) == []

    legs, record = _broken(legs, "trace", "E4")
    record["fingerprints"] = ["d"]
    assert smoke.check_fingerprints(legs) == [
        "E4: fingerprint multisets differ serial vs 'trace'"
    ]


def test_missing_fingerprints_are_reported():
    legs = _legs(serial=[{"id": "E1"}])
    (problem,) = smoke.check_fingerprints(legs)
    assert "no fingerprints" in problem


def test_alerts_blocks_differing_serial_vs_cold_are_reported():
    e20 = {"id": "E20", "alerts": {"slos": [{"fired": 3}]}, "analysis": {}}
    legs = _legs(serial=[e20], cold=[e20])
    assert smoke.check_pooled_blocks(legs) == []

    legs, record = _broken(legs, "cold", "E20")
    record["alerts"]["slos"][0]["fired"] = 2
    assert smoke.check_pooled_blocks(legs) == [
        "E20: alerts blocks differ serial vs 'cold'"
    ]


def test_blocks_differing_serial_vs_pooled_runs_are_reported():
    e20 = {"id": "E20", "alerts": {"slos": [{"fired": 3}]}}
    e21 = {"id": "E21", "analysis": {"verdicts": {"a": "refuted"}}}
    legs = _legs(serial=[e20, e21], cold=[e20, e21])
    assert smoke.check_pooled_blocks(legs) == []

    legs, record = _broken(legs, "cold", "E20")
    record["alerts"]["slos"][0]["fired"] = 2
    legs, record = _broken(legs, "cold", "E21")
    record["analysis"]["verdicts"]["a"] = "held"
    assert smoke.check_pooled_blocks(legs) == [
        "E20: alerts blocks differ serial vs 'cold'",
        "E21: analysis blocks differ serial vs 'cold'",
    ]


def test_reuse_missing_from_cold_or_leaking_into_serial_is_reported():
    reused = {"id": "E12", "reused": ["E1", "E3", "E6", "E8"]}
    legs = _legs(serial=[{"id": "E12"}], cold=[reused])
    assert smoke.check_reuse(legs) == []

    legs, record = _broken(legs, "cold", "E12")
    del record["reused"]
    legs["serial"] = _manifest(reused)
    assert smoke.check_reuse(legs) == [
        "cold E12 reused None, not E1/E3/E6/E8",
        "E12 reused outcomes under the serial leg's lint gate",
    ]


def _cache_legs():
    cold = {
        "hits": 4, "misses": 66, "stores": 66, "errors": 0,
        "quarantined": 0, "wall_seconds": 10.0,
    }
    warm = {
        "hits": 2, "misses": 0, "stores": 0, "errors": 0,
        "quarantined": 0, "wall_seconds": 0.5,
    }
    legs = _legs(cold=[{"id": "E1"}, {"id": "E2"}], warm=[{"id": "E1"}, {"id": "E2"}])
    legs["cold"]["cache_stats"] = cold
    legs["warm"]["cache_stats"] = warm
    return legs


def test_warm_misses_are_reported():
    legs = _cache_legs()
    assert smoke.check_cache(legs) == []

    legs["warm"]["cache_stats"]["misses"] = 1
    (problem,) = smoke.check_cache(legs)
    assert problem.startswith("warm run: misses, stores or errors")


def test_cache_counter_violations_are_reported():
    legs = _cache_legs()
    legs["cold"]["cache_stats"]["stores"] = 65
    legs["warm"]["cache_stats"]["hits"] = 1
    legs["warm"]["cache_stats"]["wall_seconds"] = 2.5
    problems = smoke.check_cache(legs)
    assert [p.split(":")[0] for p in problems] == [
        "cold run", "warm run", "warm run only 4.0x faster (want >= 5x)"
    ]


def test_output_differences_are_reported():
    legs = _legs(serial=[], cold=[], warm=[])
    for leg in legs.values():
        leg["outputs"] = {"e1.quick.txt": "table\n"}
    assert smoke.check_outputs(legs) == []

    legs["warm"]["outputs"]["e1.quick.txt"] = "other\n"
    assert smoke.check_outputs(legs) == [
        "leg 'warm': output files differ from the serial leg's"
    ]


def test_missing_e17_fault_kind_is_reported():
    by_kind = {kind: 2 for kind in smoke.FAULT_KINDS}
    faults = {"injected": 16, "detected": 8, "missed": 1, "by_kind": by_kind}
    legs = _legs(serial=[{"id": "E17", "faults": faults}])
    assert smoke.check_fault_ledger(legs) == []

    legs, record = _broken(legs, "serial", "E17")
    del record["faults"]["by_kind"]["dup_swap"]
    (problem,) = smoke.check_fault_ledger(legs)
    assert "dup_swap" in problem


def test_leg_failures_and_wrong_selection_are_reported():
    legs = _legs(trace=[{"id": "E1"}, {"id": "E4"}])
    assert smoke.check_summaries(legs) == []

    legs["trace"]["summary"]["failed"] = 1
    legs["trace"]["experiments"].append({"id": "E21"})
    assert len(smoke.check_summaries(legs)) == 2


def test_unrefuted_sweep_is_reported():
    from repro.experiments.e21_refutation import declared_assumptions

    verdicts = [
        {"assumption": a.name, "verdict": "holds"}
        for a in declared_assumptions()
    ]
    legs = _legs(serial=[{"id": "E21", "analysis": {"assumptions": verdicts}}])
    assert smoke.check_refutation(legs) == ["the E21 sweep refuted nothing"]


def test_level1_shares_must_sum_to_one():
    cls = {"path": "retiring", "levels": [{"shares": {"retiring": 0.5}}]}
    legs = _legs(serial=[{"id": "E1", "analysis": {"classification": cls}}])
    (problem,) = smoke.check_classification(legs)
    assert "sum to 0.5" in problem
