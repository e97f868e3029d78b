"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion is implemented as a pure builder function returning a
JSON-able report; the final determinism criterion reruns each builder
with identical seeds and requires byte-identical canonical reports.

The random-graph family is 20 G(n, p) configurations (n up to 500, sparse
and denser, unit and uniform(1,10) weights) with 5 generator seeds each,
100 graphs total, alongside the named small-graph family (paths, cycles,
cliques, stars and grids with n <= 12).
"""

import json
import math
import time
import zlib

import pytest

import spanforge as sf
from spanforge.cli import cost_model


def stable_seed(*parts) -> int:
    return zlib.crc32(":".join(str(p) for p in parts).encode())


def canonical(report) -> bytes:
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


def named_family():
    graphs = []
    for n in range(2, 13):
        graphs.append((f"path-{n}", sf.gen_path(n)))
    for n in range(3, 13):
        graphs.append((f"cycle-{n}", sf.gen_cycle(n)))
    for n in range(2, 13):
        graphs.append((f"clique-{n}", sf.gen_complete(n)))
    for n in range(2, 13):
        graphs.append((f"star-{n}", sf.gen_star(n)))
    for w, h in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]:
        graphs.append((f"grid-{w}x{h}", sf.gen_grid(w, h)))
    return graphs


def gnp_family():
    graphs = []
    for n in (30, 60, 120, 240, 500):
        for c in (1.5, 4.0):
            for dist in ("unit", ("uniform", 1, 10)):
                tag = "u" if dist == "unit" else "w"
                for s in range(5):
                    name = f"gnp-{n}-{c}-{tag}-{s}"
                    graphs.append((name, sf.gen_gnp(n, min(1.0, c / n), dist, seed=stable_seed(name))))
    assert len(graphs) == 100
    return graphs


_family_cache = {}


def family():
    if "graphs" not in _family_cache:
        _family_cache["graphs"] = named_family() + gnp_family()
    return _family_cache["graphs"]


# --------------------------- criterion builders -----------------------------

K_RANGE = range(1, 7)
T_RANGE = (1, 2, 3)


def build_criteria_1_and_4():
    runs = 0
    stretch_failures = []
    radius_failures = []
    worst_ratio = 0.0
    for name, g in family():
        for k in K_RANGE:
            for t in T_RANGE:
                seed = stable_seed("c1", name, k, t)
                build = sf.general_spanner(g, k, t, seed, radius_checks=True)
                bound = 2 * k ** sf.stretch_exponent(t)
                audit = sf.audit_stretch(g, build.spanner_edges, bound)
                runs += 1
                if audit.passed:
                    worst_ratio = max(worst_ratio, audit.max_ratio / bound)
                else:
                    stretch_failures.append({"graph": name, "k": k, "t": t, "ratio": audit.max_ratio})
                for i, cert in enumerate(build.radius_checks, start=1):
                    expected_bound = ((2 * t + 1) ** i - 1) // 2
                    if cert.radius_bound != expected_bound or not cert.passed:
                        radius_failures.append({"graph": name, "k": k, "t": t, "epoch": i})
    c1 = {
        "criterion": 1,
        "runs": runs,
        "failures": stretch_failures,
        "worst_ratio_fraction_of_bound": worst_ratio,
    }
    c4 = {"criterion": 4, "runs": runs, "failures": radius_failures}
    return c1, c4


def build_criterion_2():
    runs = 0
    failures = []
    for name, g in family():
        for k in K_RANGE:
            seed = stable_seed("c2", name, k)
            build = sf.general_spanner(g, k, k, seed)
            audit = sf.audit_stretch(g, build.spanner_edges, 2 * k - 1)
            runs += 1
            if not audit.passed:
                failures.append({"graph": name, "k": k, "ratio": audit.max_ratio})
    return {"criterion": 2, "runs": runs, "failures": failures}


def build_criterion_3():
    gnp = [item for item in family() if item[0].startswith("gnp-")]
    mismatches = []
    for idx in range(50):
        name, g = gnp[idx]
        k = (2, 3, 4, 5, 6)[idx % 5]
        seed = stable_seed("c3", idx)
        merge = sf.cluster_merge_spanner(g, k, seed)
        general = sf.general_spanner(g, k, 1, seed)
        if merge.to_json() != general.to_json():
            mismatches.append({"graph": name, "k": k})
    return {"criterion": 3, "pairs": 50, "mismatches": mismatches}


def build_criterion_5():
    n, k, t, trials = 1000, 5, 1, 30
    stats = sf.size_study(f"gnp:{n}:0.02:unit", k, t, trials, seed0=stable_seed("c5"))
    expected_clusters = n ** (1 - 1 / k)
    p1 = n ** (-1 / k)
    sigma = math.sqrt(n * p1 * (1 - p1))
    mean_epoch1 = stats.epoch_cluster_means[0]
    size_cap = 20 * n ** (1 + 1 / k) * (1 + math.log2(k))
    return {
        "criterion": 5,
        "trials": trials,
        "mean_epoch1_clusters": mean_epoch1,
        "expected_clusters": expected_clusters,
        "binomial_sigma": sigma,
        "cluster_pass": abs(mean_epoch1 - expected_clusters) <= 4 * sigma,
        "mean_size": stats.mean_size,
        "size_cap": size_cap,
        "size_pass": stats.mean_size <= size_cap,
    }


def build_criterion_6():
    runs = 0
    failures = []
    graphs = []
    for n in (80, 160, 240, 320, 400):
        for c in (2.0, 4.0):
            for s in range(5):
                name = f"c6-{n}-{c}-{s}"
                graphs.append((name, sf.gen_gnp(n, c / n, "unit", seed=stable_seed(name))))
    assert len(graphs) == 50
    for name, g in graphs:
        for k in (4, 9, 16):
            t = math.isqrt(k)
            t += t * t < k
            bound = 2 * t + (2 * t + 1) * (2 * t - 1) + 2 * t
            build = sf.two_phase_spanner(g, k, stable_seed("c6run", name, k))
            audit = sf.audit_stretch(g, build.spanner_edges, bound)
            runs += 1
            if not audit.passed:
                failures.append({"graph": name, "k": k, "ratio": audit.max_ratio})
    return {"criterion": 6, "runs": runs, "failures": failures}


def build_criterion_7():
    n = 300
    k = math.ceil(math.log2(n))  # 9
    bound = 2 * k ** sf.stretch_exponent(1)
    size_cap = 20 * n ** (1 + 1 / k) * math.log2(k)
    reports = []
    for s in range(5):
        g = sf.gen_gnp(n, 0.06, "unit", seed=stable_seed("c7-graph", s))
        rep = sf.apsp_experiment(g, k, 1, seed=stable_seed("c7-algo", s))
        reports.append(rep)
    return {
        "criterion": 7,
        "k": k,
        "bound": bound,
        "size_cap": size_cap,
        "max_ratio": max(r.max_ratio for r in reports),
        "max_size": max(r.spanner_size for r in reports),
        "runs": [r.as_dict() for r in reports],
        "pass": all(r.max_ratio <= bound and r.spanner_size <= size_cap for r in reports),
    }


def build_criterion_8():
    rows = []
    ok = True
    for k in (2, 3, 4, 7, 16, 64, 256):
        model = cost_model(k, 1)
        expected = (k - 1).bit_length()  # ceil(log2 k)
        good = model.epochs == expected and model.iterations == expected
        ok = ok and good
        rows.append({"k": k, "t": 1, "epochs": model.epochs, "expected": expected, "ok": good})
    for k in (2, 5, 8, 13):
        model = cost_model(k, k)
        good = model.epochs == 1 and model.iterations == k
        ok = ok and good
        rows.append({"k": k, "t": k, "epochs": model.epochs, "iterations": model.iterations, "ok": good})
    model = cost_model(256, 8)
    good = model.epochs == 3 and model.iterations == 24
    ok = ok and good
    rows.append({"k": 256, "t": 8, "epochs": model.epochs, "expected": 3, "ok": good})
    return {"criterion": 8, "rows": rows, "pass": ok}


def build_criterion_9():
    g = sf.gen_gnp(400, 0.05, "unit", seed=stable_seed("c9-graph"))
    bound = 2 * 4 ** sf.stretch_exponent(1)
    non_fallback = 0
    audits_ok = True
    details = []
    for meta in range(20):
        result = sf.parallel_repetition(
            g, 4, 1, stable_seed("c9", meta), repetitions=16,
            c_clusters=4.0, c_edges=4.0,
        )
        non_fallback += 0 if result.fallback else 1
        audit = sf.audit_stretch(g, result.build.spanner_edges, bound)
        audits_ok = audits_ok and audit.passed
        details.append({"meta": meta, "chosen": result.chosen, "fallback": result.fallback})
    return {
        "criterion": 9,
        "meta_trials": 20,
        "non_fallback": non_fallback,
        "required": 14,
        "stretch_ok": audits_ok,
        "details": details,
        "pass": non_fallback >= 14 and audits_ok,
    }


BUILDERS = {
    "1+4": build_criteria_1_and_4,
    "2": build_criterion_2,
    "3": build_criterion_3,
    "5": build_criterion_5,
    "6": build_criterion_6,
    "7": build_criterion_7,
    "8": build_criterion_8,
    "9": build_criterion_9,
}

_reports = {}


def cached(key):
    if key not in _reports:
        _reports[key] = BUILDERS[key]()
    return _reports[key]


# --------------------------------- tests ------------------------------------


def test_criterion_1_stretch_soundness():
    t0 = time.perf_counter()
    c1, _ = cached("1+4")
    elapsed = time.perf_counter() - t0
    print(
        f"CRITERION 1 ({'PASS' if not c1['failures'] else 'FAIL'}): "
        f"{c1['runs']} runs, {len(c1['failures'])} stretch failures, "
        f"worst ratio at {c1['worst_ratio_fraction_of_bound']:.2f} of bound, {elapsed:.1f}s"
    )
    assert c1["failures"] == []
    assert elapsed <= 300


def test_criterion_2_baswana_sen_extreme():
    c2 = cached("2")
    print(
        f"CRITERION 2 ({'PASS' if not c2['failures'] else 'FAIL'}): "
        f"{c2['runs']} runs at bound 2k-1, {len(c2['failures'])} failures"
    )
    assert c2["failures"] == []


def test_criterion_3_t1_equivalence():
    c3 = cached("3")
    print(
        f"CRITERION 3 ({'PASS' if not c3['mismatches'] else 'FAIL'}): "
        f"{c3['pairs']} (graph, seed) pairs, {len(c3['mismatches'])} mismatches"
    )
    assert c3["mismatches"] == []


def test_criterion_4_radius_invariants():
    _, c4 = cached("1+4")
    print(
        f"CRITERION 4 ({'PASS' if not c4['failures'] else 'FAIL'}): "
        f"radius certificates over {c4['runs']} runs, {len(c4['failures'])} failures"
    )
    assert c4["failures"] == []


def test_criterion_5_size_scaling():
    t0 = time.perf_counter()
    c5 = cached("5")
    elapsed = time.perf_counter() - t0
    ok = c5["cluster_pass"] and c5["size_pass"]
    print(
        f"CRITERION 5 ({'PASS' if ok else 'FAIL'}): mean epoch-1 clusters "
        f"{c5['mean_epoch1_clusters']:.1f} vs {c5['expected_clusters']:.1f} "
        f"(4 sigma = {4 * c5['binomial_sigma']:.1f}); mean size {c5['mean_size']:.0f} "
        f"<= {c5['size_cap']:.0f}; {elapsed:.1f}s"
    )
    assert c5["cluster_pass"]
    assert c5["size_pass"]
    assert elapsed <= 120


def test_criterion_6_two_phase():
    c6 = cached("6")
    print(
        f"CRITERION 6 ({'PASS' if not c6['failures'] else 'FAIL'}): "
        f"{c6['runs']} two-stage runs, {len(c6['failures'])} failures"
    )
    assert c6["failures"] == []


def test_criterion_7_apsp():
    t0 = time.perf_counter()
    c7 = cached("7")
    elapsed = time.perf_counter() - t0
    print(
        f"CRITERION 7 ({'PASS' if c7['pass'] else 'FAIL'}): max pair ratio "
        f"{c7['max_ratio']:.2f} <= {c7['bound']:.2f}, max size {c7['max_size']} "
        f"<= {c7['size_cap']:.0f}; {elapsed:.1f}s"
    )
    assert c7["pass"]
    assert elapsed <= 60


def test_criterion_8_cost_table():
    c8 = cached("8")
    print(f"CRITERION 8 ({'PASS' if c8['pass'] else 'FAIL'}): {len(c8['rows'])} exact cost rows")
    assert c8["pass"], c8["rows"]


def test_criterion_9_parallel_repetition():
    c9 = cached("9")
    print(
        f"CRITERION 9 ({'PASS' if c9['pass'] else 'FAIL'}): "
        f"{c9['non_fallback']}/20 meta-trials selected without fallback "
        f"(need >= {c9['required']}); stretch preserved: {c9['stretch_ok']}"
    )
    assert c9["pass"]


def test_criterion_10_determinism():
    mismatched = []
    for key, builder in BUILDERS.items():
        first = canonical(cached(key))
        second = canonical(builder())
        if first != second:
            mismatched.append(key)
    print(
        f"CRITERION 10 ({'PASS' if not mismatched else 'FAIL'}): "
        f"{len(BUILDERS)} criterion reports rerun byte-identically"
    )
    assert mismatched == []
