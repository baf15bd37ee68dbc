#!/usr/bin/env python3
"""Validate BENCH_*.json benchmark reports (schema ks-bench/1).

Usage: check_bench_json.py FILE [FILE...]
       check_bench_json.py --digest WORKLOAD[@SEED]=HEX [--digest ...] FILE

The --digest mode compares the "modeled digest" a perfbench run printed
for WORKLOAD and SEED (1 when omitted) with the digest of the newest PR's
"change" row for that workload and seed in the perfbench report FILE, and
fails with both values when they differ: the model moved without
committed rows. A change that moves the model on purpose commits its
scripts/perf_pairs.py rows.

Checks, per file:
  * parses as JSON, top level is an object;
  * "schema" == "ks-bench/1";
  * "study" is a non-empty string and matches the BENCH_<study>.json
    file name;
  * "rows" is a non-empty list of objects;
  * every row value is a JSON scalar (no nested containers);
  * numeric values are finite (the writer turns NaN/Inf into null, so a
    bare NaN in the text means a corrupt file);
  * rows of the same (study) agree on their key sets, so downstream
    tooling can treat the rows as a table;
  * studies whose rows come from full cluster runs (study_chaos,
    ablation_placement, fig9) report a positive integer "total_events"
    in every row, so event-count regressions stay visible in the
    archived reports;
  * fig9 rows carry a non-empty "workload" discriminator;
  * spatial rows carry a non-empty "mix" and a "mode" of "temporal" or
    "spatial", plus finite non-negative "goodput", "goodput_gain" and
    "fragmentation_ratio" (in [0, 1]) and a non-negative integer
    "concurrent_tokens_peak" — the goodput/fragmentation comparison is
    the study's reason to exist and must not silently drop out;
  * the engine study's cluster-scenario rows ("pattern" of
    "token-cluster" or "kernel-cluster") report a positive integer
    "total_events", so the whole-cluster event counts cannot silently
    vanish;
  * isolation rows carry a "mode" of baseline|unenforced|enforced, a
    non-empty "tenant", a boolean "hostile", finite non-negative "usage"
    and "ratio_vs_baseline", and non-negative integer enforcement
    counters; the study's acceptance gate is also enforced here — every
    polite tenant keeps >= 95% of its baseline usage when enforcement is
    on (and enforcement visibly engaged: violations_total > 0), while
    with enforcement off the attack collapses at least one polite
    tenant below 80% — a report where enforcement makes no difference
    means the subsystem silently stopped working;
  * oversub rows carry a "mode" of share|tq, a finite positive "factor"
    and "completion_time_s", non-negative integer migration counters,
    and a "link_busy_fraction" in [0, 1]; the study's acceptance gate is
    also enforced here — the tq run at factor 2.5 completes every job
    within 2x the 1.0x baseline's time, while the share run at 2.5
    demonstrates swap-thrashing (>= 2x the tq time, or incomplete) — a
    report where TQ makes no difference means the anti-thrashing
    subsystem silently stopped working;
  * serving rows come in two kinds. Cluster rows (pattern of
    steady|diurnal|flash-crowd) carry a "mode" of static|auto, finite
    non-negative latency percentiles (p50 <= p99 <= p99.9), a
    "slo_violation_rate" in [0, 1], non-negative request counters with
    arrived == served + shed + lost (every request reaches a terminal
    state), and a positive "replicas_peak". Generator rows (pattern
    "arrivals") carry a "mode" of per-request|batched, positive
    "clients"/"arrivals"/"engine_events" and a positive
    "events_per_request". Two acceptance gates are enforced on the
    report itself: on the flash crowd the autoscaler+admission run's
    violation rate beats static provisioning's, and at the largest
    client count the batched generator costs >= 5x fewer engine events
    per request than per-request generation — a report where either
    stops holding means the serving subsystem silently stopped earning
    its keep;
  * scale rows (KubeShare vs native Kubernetes on the real stack at
    several cluster sizes) carry a "mode" of kubeshare|native, positive
    integer "nodes" and "jobs", a non-negative integer "completed" no
    larger than "jobs", finite non-negative "makespan_s",
    "jobs_per_min", "mean_gpus_held", "wall_s", "cpu_s" and
    "peak_rss_mb", a "done_ratio" in [0, 1], and censored completion
    times with "jct_p50_s" <= "jct_p99_s"; every size has exactly one
    kubeshare and one native row, so the comparison the study exists
    for cannot silently lose a side;
  * perfbench rows (alternating parent/change ks_perfbench pairs, written
    by scripts/perf_pairs.py) carry a positive integer "pr", a "role" of
    parent|change, a non-empty "parent_commit" and "workload", a
    non-negative integer "seed", positive integer "pairs" and a
    non-negative integer "pairs_faster" no larger than "pairs", positive
    wall_s quartiles with "wall_s_q1" <= "wall_s_median" <= "wall_s_q3",
    a positive "peak_rss_mb_median", and a "digest" of 16 hex digits;
    newer rows also carry cpu_s and done_per_wall_s quartiles, checked
    the same way wherever any of them is present (older rows lack them
    and stay valid); every (pr, workload, seed) has exactly one
    parent and one change row with the same fields, so no measured gain
    loses its baseline.

Exit status 0 when every file passes, 1 otherwise. Stdlib only.
"""

import json
import math
import os
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return False


def check_isolation_gate(path, rows):
    """The isolation study's acceptance gate, enforced on the report itself:
    polite tenants keep >= 95% of baseline usage under enforcement, and the
    unenforced run demonstrates the collapse enforcement prevents."""
    ok = True
    polite = [r for r in rows
              if isinstance(r, dict) and r.get("hostile") is False]
    enforced = [r for r in polite if r.get("mode") == "enforced"]
    unenforced = [r for r in polite if r.get("mode") == "unenforced"]
    if not enforced or not unenforced:
        return fail(path, "isolation report lacks enforced/unenforced "
                          "polite-tenant rows")
    for r in enforced:
        ratio = r.get("ratio_vs_baseline")
        if not isinstance(ratio, (int, float)) or isinstance(ratio, bool) \
                or ratio < 0.95:
            ok = fail(
                path,
                f"enforced polite tenant {r.get('tenant')!r} kept only "
                f"{ratio!r} of its baseline usage (gate: >= 0.95)",
            )
        violations = r.get("violations_total")
        if not isinstance(violations, int) or violations <= 0:
            ok = fail(path, "enforced rows report violations_total == 0 — "
                            "enforcement never engaged")
    if not any(isinstance(r.get("ratio_vs_baseline"), (int, float))
               and not isinstance(r.get("ratio_vs_baseline"), bool)
               and r.get("ratio_vs_baseline") < 0.8 for r in unenforced):
        ok = fail(path, "no unenforced polite tenant fell below 0.8x "
                        "baseline — the attack had no visible effect")
    return ok


def check_oversub_gate(path, rows):
    """The oversubscription study's acceptance gate: the TQ rotation keeps
    a 2.5x-oversubscribed bursty mix within 2x of the fits-in-memory
    baseline, and the plain-sharing run at 2.5x shows the thrashing
    collapse TQ prevents."""
    def pick(mode, factor):
        for r in rows:
            if isinstance(r, dict) and r.get("mode") == mode \
                    and r.get("factor") == factor:
                return r
        return None

    base = pick("tq", 1.0)
    tq = pick("tq", 2.5)
    share = pick("share", 2.5)
    if base is None or tq is None or share is None:
        return fail(path, "oversub report lacks the factor 1.0/2.5 rows "
                          "the gate compares")
    ok = True
    for name, r in (("baseline", base), ("tq@2.5", tq)):
        if r.get("completed") != r.get("jobs"):
            ok = fail(path, f"{name} row left jobs incomplete: "
                            f"{r.get('completed')!r}/{r.get('jobs')!r}")
    base_t = base.get("completion_time_s")
    tq_t = tq.get("completion_time_s")
    share_t = share.get("completion_time_s")
    times_ok = all(isinstance(t, (int, float)) and not isinstance(t, bool)
                   and t > 0 for t in (base_t, tq_t, share_t))
    if not times_ok:
        return fail(path, "oversub gate rows carry non-positive or missing "
                          "completion_time_s")
    if tq_t > 2.0 * base_t:
        ok = fail(
            path,
            f"tq completion at 2.5x ({tq_t}s) exceeds 2x the 1.0x "
            f"baseline ({base_t}s) — the TQ rotation stopped containing "
            f"the migration overhead",
        )
    collapsed = share.get("completed") != share.get("jobs") \
        or share_t >= 2.0 * tq_t
    if not collapsed:
        ok = fail(
            path,
            f"share completion at 2.5x ({share_t}s) shows no thrashing "
            f"collapse vs tq ({tq_t}s) — the workload no longer "
            f"exercises the oversubscribed regime",
        )
    if not isinstance(tq.get("tq_engagements"), int) \
            or tq.get("tq_engagements") <= 0:
        ok = fail(path, "tq@2.5 row reports tq_engagements == 0 — the "
                        "thrash detector never engaged")
    return ok


def check_serving_gate(path, rows):
    """The serving study's acceptance gates: the autoscaler+admission run
    beats static provisioning on flash-crowd SLO-violation rate, and the
    batched arrival generator costs >= 5x fewer engine events per request
    than per-request generation at the largest client count."""
    def rate(mode):
        for r in rows:
            if isinstance(r, dict) and r.get("pattern") == "flash-crowd" \
                    and r.get("mode") == mode:
                return r.get("slo_violation_rate")
        return None

    ok = True
    static_rate = rate("static")
    auto_rate = rate("auto")
    rates_ok = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (static_rate, auto_rate))
    if not rates_ok:
        ok = fail(path, "serving report lacks the flash-crowd static/auto "
                        "rows the gate compares")
    elif auto_rate >= static_rate:
        ok = fail(
            path,
            f"flash-crowd violation rate under autoscaler+admission "
            f"({auto_rate}) does not beat static provisioning "
            f"({static_rate}) — the control loop stopped earning its keep",
        )

    gen = [r for r in rows
           if isinstance(r, dict) and r.get("pattern") == "arrivals"]
    largest = 0
    for r in gen:
        clients = r.get("clients")
        if isinstance(clients, int) and not isinstance(clients, bool):
            largest = max(largest, clients)

    def events(mode):
        for r in gen:
            if r.get("clients") == largest and r.get("mode") == mode:
                return r.get("events_per_request")
        return None

    per_request = events("per-request")
    batched = events("batched")
    events_ok = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and v > 0 for v in (per_request, batched))
    if largest == 0 or not events_ok:
        ok = fail(path, "serving report lacks the per-request/batched "
                        "generator rows the gate compares")
    elif batched * 5.0 > per_request:
        ok = fail(
            path,
            f"batched generator at {largest} clients costs "
            f"{batched} events/request vs {per_request} per-request — "
            f"less than the 5x reduction the batching exists to deliver",
        )
    return ok


def check_scale_pairs(path, rows):
    """The scale study compares KubeShare with native Kubernetes: every
    cluster size has exactly one row of each mode."""
    ok = True
    modes = {}
    for r in rows:
        if isinstance(r, dict):
            modes.setdefault(r.get("nodes"), []).append(r.get("mode"))
    for nodes, seen in sorted(modes.items(), key=lambda kv: str(kv[0])):
        if sorted(seen) != ["kubeshare", "native"]:
            ok = fail(path, f"{nodes!r} nodes has modes {sorted(seen)!r}, "
                            f"want one kubeshare and one native row")
    return ok


def check_perfbench_row(path, i, row):
    """One perfbench row: the schema scripts/perf_pairs.py writes."""
    ok = True

    def number(field, positive):
        value = row.get(field)
        good = isinstance(value, (int, float)) \
            and not isinstance(value, bool) \
            and (value > 0 if positive else value >= 0)
        return value if good else None

    def integer(field, positive):
        value = row.get(field)
        good = isinstance(value, int) and not isinstance(value, bool) \
            and (value > 0 if positive else value >= 0)
        return value if good else None

    for field, positive in (("pr", True), ("seed", False), ("pairs", True),
                            ("pairs_faster", False)):
        if integer(field, positive) is None:
            ok = fail(path, f"row {i} {field!r} missing or not a "
                            f"{'positive' if positive else 'non-negative'} "
                            f"integer: {row.get(field)!r}")
    if row.get("role") not in ("parent", "change"):
        ok = fail(path, f"row {i} \"role\" must be parent|change: "
                        f"{row.get('role')!r}")
    for field in ("parent_commit", "workload"):
        value = row.get(field)
        if not isinstance(value, str) or not value:
            ok = fail(path, f"row {i} {field!r} missing or empty: {value!r}")
    pairs, faster = integer("pairs", True), integer("pairs_faster", False)
    if pairs is not None and faster is not None and faster > pairs:
        ok = fail(path, f"row {i} pairs_faster {faster} > pairs {pairs}")
    for metric in PERFBENCH_QUARTILES:
        fields = [metric + s for s in ("_q1", "_median", "_q3")]
        if metric in PERFBENCH_OPTIONAL_QUARTILES and \
                not any(f in row for f in fields):
            continue
        quartiles = [number(f, True) for f in fields]
        if None in quartiles:
            ok = fail(path, f"row {i} {metric} quartiles missing or not "
                            f"positive: {quartiles!r}")
        elif not quartiles[0] <= quartiles[1] <= quartiles[2]:
            ok = fail(path, f"row {i} {metric} quartiles out of order "
                            f"(want q1 <= median <= q3): {quartiles!r}")
    if number("peak_rss_mb_median", True) is None:
        ok = fail(path, f"row {i} \"peak_rss_mb_median\" missing or not "
                        f"positive: {row.get('peak_rss_mb_median')!r}")
    digest = row.get("digest")
    if not isinstance(digest, str) or len(digest) != 16 or \
            any(c not in "0123456789abcdef" for c in digest):
        ok = fail(path, f"row {i} \"digest\" is not 16 hex digits: "
                        f"{digest!r}")
    return ok


def check_perfbench_pairs(path, rows):
    """Every measured (pr, workload, seed) has one parent and one change
    row, and the two carry the same fields."""
    ok = True
    roles = {}
    fields = {}
    for r in rows:
        if isinstance(r, dict):
            key = (r.get("pr"), r.get("workload"), r.get("seed"))
            roles.setdefault(key, []).append(r.get("role"))
            fields.setdefault(key, set()).add(frozenset(r.keys()))
    for key, seen in sorted(roles.items(), key=lambda kv: str(kv[0])):
        if sorted(seen, key=str) != ["change", "parent"]:
            ok = fail(path, f"(pr, workload, seed) {key!r} has roles "
                            f"{sorted(seen, key=str)!r}, want one parent "
                            f"and one change row")
        elif len(fields[key]) != 1:
            ok = fail(path, f"(pr, workload, seed) {key!r}: the parent and "
                            f"change rows carry different fields")
    return ok


# Host metrics a perfbench row reports as q1/median/q3; older rows carry
# only wall_s's, so the others are checked when present.
PERFBENCH_QUARTILES = ("wall_s", "cpu_s", "done_per_wall_s")
PERFBENCH_OPTIONAL_QUARTILES = ("cpu_s", "done_per_wall_s")

# Studies whose every row is produced by a whole-cluster run and must carry
# the engine's scheduled-event count.
TOTAL_EVENTS_REQUIRED = {"study_chaos", "ablation_placement", "fig9",
                         "spatial", "scale", "isolation", "oversub",
                         "serving"}


def check_file(path):
    try:
        with open(path, "rb") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(report, dict):
        return fail(path, "top level is not an object")
    if report.get("schema") != "ks-bench/1":
        return fail(path, f"bad schema tag: {report.get('schema')!r}")

    study = report.get("study")
    if not isinstance(study, str) or not study:
        return fail(path, "missing or empty \"study\"")
    expected_name = f"BENCH_{study}.json"
    if os.path.basename(path) != expected_name:
        return fail(path, f"file name does not match study (want {expected_name})")

    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "\"rows\" missing, not a list, or empty")

    ok = True
    key_sets = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not row:
            ok = fail(path, f"row {i} is not a non-empty object")
            continue
        for key, value in row.items():
            if isinstance(value, (dict, list)):
                ok = fail(path, f"row {i} field {key!r} is a nested container")
            if isinstance(value, float) and not math.isfinite(value):
                ok = fail(path, f"row {i} field {key!r} is not finite")
        needs_events = study in TOTAL_EVENTS_REQUIRED or (
            study == "engine"
            and row.get("pattern") in ("token-cluster", "kernel-cluster"))
        if needs_events:
            events = row.get("total_events")
            if not isinstance(events, int) or isinstance(events, bool) \
                    or events <= 0:
                ok = fail(
                    path,
                    f"row {i} \"total_events\" missing or not a positive "
                    f"integer: {events!r}",
                )
        if study == "fig9":
            value = row.get("workload")
            if not isinstance(value, str) or not value:
                ok = fail(
                    path,
                    f"row {i} \"workload\" missing or not a non-empty "
                    f"string: {value!r}",
                )
        if study == "spatial":
            mix = row.get("mix")
            if not isinstance(mix, str) or not mix:
                ok = fail(path, f"row {i} \"mix\" missing or empty: {mix!r}")
            if row.get("mode") not in ("temporal", "spatial"):
                ok = fail(
                    path,
                    f"row {i} \"mode\" must be temporal|spatial: "
                    f"{row.get('mode')!r}",
                )
            for field in ("goodput", "goodput_gain", "fragmentation_ratio"):
                value = row.get(field)
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or value < 0:
                    ok = fail(
                        path,
                        f"row {i} {field!r} missing or not a non-negative "
                        f"number: {value!r}",
                    )
            frag = row.get("fragmentation_ratio")
            if isinstance(frag, (int, float)) and not isinstance(frag, bool) \
                    and frag > 1:
                ok = fail(path, f"row {i} \"fragmentation_ratio\" > 1: {frag!r}")
            tokens = row.get("concurrent_tokens_peak")
            if not isinstance(tokens, int) or isinstance(tokens, bool) \
                    or tokens < 0:
                ok = fail(
                    path,
                    f"row {i} \"concurrent_tokens_peak\" missing or not a "
                    f"non-negative integer: {tokens!r}",
                )
        if study == "isolation":
            if row.get("mode") not in ("baseline", "unenforced", "enforced"):
                ok = fail(
                    path,
                    f"row {i} \"mode\" must be baseline|unenforced|enforced: "
                    f"{row.get('mode')!r}",
                )
            tenant = row.get("tenant")
            if not isinstance(tenant, str) or not tenant:
                ok = fail(path,
                          f"row {i} \"tenant\" missing or empty: {tenant!r}")
            if not isinstance(row.get("hostile"), bool):
                ok = fail(
                    path,
                    f"row {i} \"hostile\" missing or not a boolean: "
                    f"{row.get('hostile')!r}",
                )
            for field in ("usage", "ratio_vs_baseline"):
                value = row.get(field)
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or value < 0:
                    ok = fail(
                        path,
                        f"row {i} {field!r} missing or not a non-negative "
                        f"number: {value!r}",
                    )
            for field in ("violations_total", "fenced_rejections",
                          "clampdowns_total", "evictions_total"):
                value = row.get(field)
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 0:
                    ok = fail(
                        path,
                        f"row {i} {field!r} missing or not a non-negative "
                        f"integer: {value!r}",
                    )
        if study == "oversub":
            if row.get("mode") not in ("share", "tq"):
                ok = fail(
                    path,
                    f"row {i} \"mode\" must be share|tq: {row.get('mode')!r}",
                )
            for field in ("factor", "completion_time_s"):
                value = row.get(field)
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or value <= 0:
                    ok = fail(
                        path,
                        f"row {i} {field!r} missing or not a positive "
                        f"number: {value!r}",
                    )
            for field in ("jobs", "completed", "migrations",
                          "bytes_migrated", "tq_engagements"):
                value = row.get(field)
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 0:
                    ok = fail(
                        path,
                        f"row {i} {field!r} missing or not a non-negative "
                        f"integer: {value!r}",
                    )
            busy = row.get("link_busy_fraction")
            if not isinstance(busy, (int, float)) or isinstance(busy, bool) \
                    or busy < 0 or busy > 1:
                ok = fail(
                    path,
                    f"row {i} \"link_busy_fraction\" missing or outside "
                    f"[0, 1]: {busy!r}",
                )
        if study == "serving":
            pattern = row.get("pattern")
            if pattern == "arrivals":
                if row.get("mode") not in ("per-request", "batched"):
                    ok = fail(
                        path,
                        f"row {i} \"mode\" must be per-request|batched: "
                        f"{row.get('mode')!r}",
                    )
                for field in ("clients", "arrivals", "engine_events"):
                    value = row.get(field)
                    if not isinstance(value, int) or isinstance(value, bool) \
                            or value <= 0:
                        ok = fail(
                            path,
                            f"row {i} {field!r} missing or not a positive "
                            f"integer: {value!r}",
                        )
                epr = row.get("events_per_request")
                if not isinstance(epr, (int, float)) \
                        or isinstance(epr, bool) or epr <= 0:
                    ok = fail(
                        path,
                        f"row {i} \"events_per_request\" missing or not a "
                        f"positive number: {epr!r}",
                    )
            else:
                if pattern not in ("steady", "diurnal", "flash-crowd"):
                    ok = fail(
                        path,
                        f"row {i} \"pattern\" must be steady|diurnal|"
                        f"flash-crowd|arrivals: {pattern!r}",
                    )
                if row.get("mode") not in ("static", "auto"):
                    ok = fail(
                        path,
                        f"row {i} \"mode\" must be static|auto: "
                        f"{row.get('mode')!r}",
                    )
                percentiles = []
                for field in ("p50_ms", "p99_ms", "p999_ms"):
                    value = row.get(field)
                    if not isinstance(value, (int, float)) \
                            or isinstance(value, bool) or value < 0:
                        ok = fail(
                            path,
                            f"row {i} {field!r} missing or not a "
                            f"non-negative number: {value!r}",
                        )
                    else:
                        percentiles.append(value)
                if len(percentiles) == 3 and \
                        not (percentiles[0] <= percentiles[1]
                             <= percentiles[2]):
                    ok = fail(
                        path,
                        f"row {i} percentiles are not monotone: "
                        f"{percentiles!r}",
                    )
                rate = row.get("slo_violation_rate")
                if not isinstance(rate, (int, float)) \
                        or isinstance(rate, bool) or rate < 0 or rate > 1:
                    ok = fail(
                        path,
                        f"row {i} \"slo_violation_rate\" missing or outside "
                        f"[0, 1]: {rate!r}",
                    )
                counters = {}
                for field in ("arrived", "served", "shed", "lost"):
                    value = row.get(field)
                    if not isinstance(value, int) or isinstance(value, bool) \
                            or value < 0:
                        ok = fail(
                            path,
                            f"row {i} {field!r} missing or not a "
                            f"non-negative integer: {value!r}",
                        )
                    else:
                        counters[field] = value
                if len(counters) == 4 and counters["arrived"] != \
                        counters["served"] + counters["shed"] \
                        + counters["lost"]:
                    ok = fail(
                        path,
                        f"row {i} leaks requests: arrived "
                        f"{counters['arrived']} != served + shed + lost "
                        f"{counters['served'] + counters['shed'] + counters['lost']}",
                    )
                peak = row.get("replicas_peak")
                if not isinstance(peak, int) or isinstance(peak, bool) \
                        or peak <= 0:
                    ok = fail(
                        path,
                        f"row {i} \"replicas_peak\" missing or not a "
                        f"positive integer: {peak!r}",
                    )
        if study == "perfbench":
            ok = check_perfbench_row(path, i, row) and ok
        if study == "scale":
            if row.get("mode") not in ("kubeshare", "native"):
                ok = fail(
                    path,
                    f"row {i} \"mode\" must be kubeshare|native: "
                    f"{row.get('mode')!r}",
                )
            for field in ("nodes", "jobs"):
                value = row.get(field)
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value <= 0:
                    ok = fail(
                        path,
                        f"row {i} {field!r} missing or not a positive "
                        f"integer: {value!r}",
                    )
            completed = row.get("completed")
            if not isinstance(completed, int) or isinstance(completed, bool) \
                    or completed < 0:
                ok = fail(
                    path,
                    f"row {i} \"completed\" missing or not a non-negative "
                    f"integer: {completed!r}",
                )
            elif isinstance(row.get("jobs"), int) \
                    and completed > row.get("jobs"):
                ok = fail(
                    path,
                    f"row {i} completed {completed} more jobs than it ran "
                    f"({row.get('jobs')})",
                )
            for field in ("makespan_s", "jobs_per_min", "jct_p50_s",
                          "jct_p99_s", "mean_gpus_held", "wall_s", "cpu_s",
                          "peak_rss_mb"):
                value = row.get(field)
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or value < 0:
                    ok = fail(
                        path,
                        f"row {i} {field!r} missing or not a non-negative "
                        f"number: {value!r}",
                    )
            ratio = row.get("done_ratio")
            if not isinstance(ratio, (int, float)) or isinstance(ratio, bool) \
                    or ratio < 0 or ratio > 1:
                ok = fail(
                    path,
                    f"row {i} \"done_ratio\" missing or outside [0, 1]: "
                    f"{ratio!r}",
                )
            p50 = row.get("jct_p50_s")
            p99 = row.get("jct_p99_s")
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (p50, p99)) and p50 > p99:
                ok = fail(path, f"row {i} jct_p50_s {p50} > jct_p99_s {p99}")
        # Rows may legitimately differ in shape between row kinds (e.g.
        # bench_engine's pattern rows vs its token-cluster and
        # kernel-cluster scenario rows); group by the discriminator fields
        # that are present.
        kind = (row.get("pattern"), row.get("mode"), row.get("policy"))
        keys = frozenset(row.keys())
        if study == "perfbench":
            # The optional quartiles vary by PR; check_perfbench_pairs
            # keeps each parent/change pair alike.
            keys = frozenset(
                k for k in keys
                if not k.rsplit("_", 1)[0] in PERFBENCH_OPTIONAL_QUARTILES)
        if kind in key_sets and key_sets[kind] != keys:
            ok = fail(
                path,
                f"row {i} key set {sorted(keys)} differs from earlier "
                f"rows of the same kind {sorted(key_sets[kind])}",
            )
        key_sets.setdefault(kind, keys)
    if study == "isolation":
        ok = check_isolation_gate(path, rows) and ok
    if study == "oversub":
        ok = check_oversub_gate(path, rows) and ok
    if study == "serving":
        ok = check_serving_gate(path, rows) and ok
    if study == "scale":
        ok = check_scale_pairs(path, rows) and ok
    if study == "perfbench":
        ok = check_perfbench_pairs(path, rows) and ok
    return ok


def check_digests(path, expected):
    """--digest mode: each (workload, seed, digest) against the newest PR's
    change row for that workload and seed in the perfbench report."""
    try:
        with open(path, "rb") as f:
            rows = json.load(f).get("rows", [])
    except (OSError, ValueError, AttributeError) as e:
        return fail(path, f"unreadable perfbench report: {e}")
    ok = True
    for workload, seed, digest in expected:
        mine = [r for r in rows if isinstance(r, dict)
                and r.get("role") == "change" and r.get("seed") == seed
                and r.get("workload") == workload
                and isinstance(r.get("pr"), int)]
        if not mine:
            ok = fail(path, f"no change row for {workload} seed {seed}")
            continue
        newest = max(mine, key=lambda r: r["pr"])
        if newest.get("digest") != digest:
            ok = fail(path, f"{workload} seed {seed}: modeled digest "
                            f"{digest}, but PR {newest['pr']}'s change row "
                            f"has {newest.get('digest')}")
        else:
            print(f"{path}: {workload} seed {seed} digest {digest} matches "
                  f"PR {newest['pr']}")
    return ok


def main(argv):
    files, expected = [], []
    args = iter(argv[1:])
    for arg in args:
        if arg != "--digest":
            files.append(arg)
            continue
        target, _, digest = next(args, "").partition("=")
        workload, at, seed = target.partition("@")
        if not workload or not digest or (at and not seed.isdigit()):
            files = []
            break
        expected.append((workload, int(seed) if at else 1, digest))
    if not files or (expected and len(files) != 1):
        print(__doc__, file=sys.stderr)
        return 1
    if expected:
        return 0 if check_digests(files[0], expected) else 1
    all_ok = True
    for path in files:
        if check_file(path):
            print(f"{path}: ok")
        else:
            all_ok = False
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
