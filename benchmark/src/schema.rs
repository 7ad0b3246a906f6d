//! The ledger's catalogue — every workload and every metric with its
//! unit, direction and regression bound — and the two documents derived
//! from it: `BENCHMARK.json` (the contract the driver reads) and the
//! result object a run prints as its last line of standard output.
//!
//! The catalogue is the single source of truth: `BENCHMARK.json` is
//! generated from it (`fedval-benchmark --benchmark-json`) and a unit
//! test fails when the committed file and the catalogue disagree.

use std::collections::BTreeMap;

use fedval_serve::json::{Json, Num};

use crate::stats::{Better, Measured};

/// Default measuring time of one run, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// One benchmark workload and why it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "fl_cold_mlp",
        why: "paper headline: FEMNIST-like n=10 MLP, cold servers, eps=0.10 on ladder 16..256; time is fl.fedavg + nn dense/lane kernels, estimators and service are idle",
    },
    WorkloadDef {
        name: "fl_cold_cnn",
        why: "same fl/nn layers used differently: n=6 CNN, eps=0.33 on ladder 8..64; conv/pool take the PerLane fallback, so a dense-kernel gain must read as no change here",
    },
    WorkloadDef {
        name: "estimator_synthetic",
        why: "utility cost ~0 (noisy saturating game, n=20, eps=0.05 on ladder 4096..262144): sampling, memo, fold and Welford code in core is all of the time; legacy/streaming/adaptive paths",
    },
    WorkloadDef {
        name: "service_burst_cold",
        why: "fl_cold_mlp's federation with the 8 requests submitted at once: park/flush, merge+dedup and the shared caches do the work; moves with the coalescer while fl_cold_mlp stays put",
    },
    WorkloadDef {
        name: "wire_warm_mix",
        why: "n=8 MLP behind the HTTP wire with a warm memo, 2 keep-alive connections, 90% POST /v1/value + 10% GET /v1/stats in 1500-request windows: serve framing/JSON and service hand-off are the cost",
    },
];

/// One metric of the catalogue. `bound` is `Some` for end-to-end metrics
/// (the share of the parent's median by which the metric may worsen) and
/// `None` for per-layer metrics, which are not gated.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: the same eight names on every workload.
///
/// Wall-clock bounds are the contract's maximum: ten runs of one workload
/// on ten seeds spread (IQR / median) by 4–11 % on this shared box even
/// under the best-of rule (README § The statistic rule), and a bound has
/// to stay clear of that. Counts repeat exactly, so `evals_to_eps`
/// carries a bound below one evaluation in a thousand — any change of γ*
/// breaches it.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("time_to_eps_s", "s", Lower, 0.25),
    e2e("evals_to_eps", "count", Lower, 0.001),
    e2e("valuation_s", "s", Lower, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_tail_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// Sentinel a per-layer `*_to_eps` metric reports when no rung of the
/// ladder reaches ε (printed as `unreached` in the table).
pub const UNREACHED: f64 = -1.0;

/// The per-layer metrics, prefix = module. Reported by `--trace 1` runs
/// on every workload; README § Layer map says which end-to-end metric
/// each should move, and where.
pub const PER_LAYER: [MetricDef; 90] = [
    layer("data.generate_ms", "ms", Lower),
    layer("nn.dense_step_us", "us", Lower),
    layer("nn.lanes8_step_us_per_lane", "us", Lower),
    layer("nn.cnn_step_us", "us", Lower),
    layer("nn.matmul_a_bt_bias_gflops", "GFLOP/s", Higher),
    layer("nn.matmul_at_b_accum_gflops", "GFLOP/s", Higher),
    layer("nn.lane_matmul_gflops", "GFLOP/s", Higher),
    layer("nn.dot_gflops", "GFLOP/s", Higher),
    layer("nn.flops_per_mlp_step", "count", Lower),
    layer("fl.fedavg.solo_train_ms", "ms", Lower),
    layer("fl.fedavg.block8_train_ms", "ms", Lower),
    layer("fl.fedavg.lockstep_gain", "x", Higher),
    layer("fl.fedavg.local_trainings_per_eval", "count", Lower),
    layer("fl.trajcache.probes", "count", Lower),
    layer("fl.trajcache.hits", "count", Higher),
    layer("fl.trajcache.hit_ratio", "ratio", Higher),
    layer("fl.trajcache.local_trainings", "count", Lower),
    layer("fl.trajcache.round0_trainings", "count", Lower),
    layer("fl.trajcache.bytes", "B", Lower),
    layer("fl.trajcache.evictions", "count", Lower),
    layer("fl.trajcache.lookup_ns", "ns", Lower),
    layer("fl.trajcache.insert_ns", "ns", Lower),
    layer("fl.utility.eval_ms_per_coalition", "ms", Lower),
    layer("fl.utility.score_only_ms", "ms", Lower),
    layer("core.parallel.speedup_2t", "x", Higher),
    layer("core.parallel.efficiency", "ratio", Higher),
    layer("core.cache.lookups", "count", Lower),
    layer("core.cache.evaluations", "count", Lower),
    layer("core.cache.hit_ratio", "ratio", Higher),
    layer("core.cache.hit_ns", "ns", Lower),
    layer("core.service.flushes", "count", Lower),
    layer("core.service.merged_batches", "count", Lower),
    layer("core.service.merge_ratio", "ratio", Higher),
    layer("core.service.distinct_coalitions", "count", Lower),
    layer("core.service.dedup_ratio", "ratio", Higher),
    layer("core.service.failed_flushes", "count", Lower),
    layer("core.service.retries", "count", Lower),
    layer("core.service.park_wait_p50_ms", "ms", Lower),
    layer("core.service.park_wait_max_ms", "ms", Lower),
    layer("core.service.overhead_us", "us", Lower),
    layer("core.ipss.ns_per_sample", "ns", Lower),
    layer("core.stratified_mc.ns_per_sample", "ns", Lower),
    layer("core.stratified_cc.ns_per_sample", "ns", Lower),
    layer("core.owen.ns_per_sample", "ns", Lower),
    layer("core.banzhaf_pruned.ns_per_sample", "ns", Lower),
    layer("core.exact_mc.ns_per_sample", "ns", Lower),
    layer("core.tmc.ns_per_sample", "ns", Lower),
    layer("core.gtb.ns_per_sample", "ns", Lower),
    layer("core.ccshap.ns_per_sample", "ns", Lower),
    layer("core.ipss.stream_ns_per_sample", "ns", Lower),
    layer("core.stratified_mc.stream_ns_per_sample", "ns", Lower),
    layer("core.owen.stream_ns_per_sample", "ns", Lower),
    layer("core.ipss.adaptive_ns_per_sample", "ns", Lower),
    layer("core.stratified_mc.adaptive_ns_per_sample", "ns", Lower),
    layer("core.owen.adaptive_ns_per_sample", "ns", Lower),
    layer("core.ipss.evals_to_eps", "count", Lower),
    layer("core.stratified_mc.evals_to_eps", "count", Lower),
    layer("core.stratified_cc.evals_to_eps", "count", Lower),
    layer("core.tmc.evals_to_eps", "count", Lower),
    layer("core.gtb.evals_to_eps", "count", Lower),
    layer("core.ccshap.evals_to_eps", "count", Lower),
    layer("core.ipss.time_to_eps_s", "s", Lower),
    layer("core.stratified_mc.time_to_eps_s", "s", Lower),
    layer("core.stratified_cc.time_to_eps_s", "s", Lower),
    layer("core.tmc.time_to_eps_s", "s", Lower),
    layer("core.gtb.time_to_eps_s", "s", Lower),
    layer("core.ccshap.time_to_eps_s", "s", Lower),
    layer("serve.json.parse_mb_s", "MB/s", Higher),
    layer("serve.json.encode_mb_s", "MB/s", Higher),
    layer("serve.wire.parse_request_us", "us", Lower),
    layer("serve.wire.encode_response_us", "us", Lower),
    layer("serve.http.healthz_rtt_us", "us", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.bytes_per_response", "B", Lower),
    layer("serve.rejected_429", "count", Lower),
    layer("trace.requests", "count", Higher),
    layer("trace.spans", "count", Lower),
    layer("trace.request_span_ms", "ms", Lower),
    layer("trace.transport_wire_ms", "ms", Lower),
    layer("trace.service_ms", "ms", Lower),
    layer("trace.fanout_ms", "ms", Lower),
    layer("trace.fl_eval_ms", "ms", Lower),
    layer("trace.table_sum_gap_pct", "%", Lower),
    layer("trace.fl_train_share", "ratio", Lower),
    layer("trace.fl_score_share", "ratio", Lower),
    layer("trace.fl_trajcache_share", "ratio", Lower),
    layer("trace.miss_batches", "count", Lower),
    layer("trace.valuation_untraced_s", "s", Lower),
    layer("trace.valuation_traced_s", "s", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// Metrics a finished run reports, keyed by catalogue name.
pub type Metrics = BTreeMap<&'static str, Measured>;

/// The object a run prints as the last line of its standard output:
/// exactly `correct`, `attempted`, `failed` and `metrics`, the metrics
/// being every catalogue entry of `defs` with its value and unit.
/// Panics when `metrics` and `defs` disagree — a run that cannot report
/// every metric must fail loudly, not print a partial result.
pub fn result_line(defs: &[MetricDef], metrics: &Metrics, attempted: u64, failed: u64) -> Json {
    let extra: Vec<&&str> = metrics
        .keys()
        .filter(|k| !defs.iter().any(|d| d.name == **k))
        .collect();
    assert!(extra.is_empty(), "metrics outside the catalogue: {extra:?}");
    let entries: Vec<(String, Json)> = defs
        .iter()
        .map(|d| {
            let m = metrics
                .get(d.name)
                .unwrap_or_else(|| panic!("metric `{}` was not measured", d.name));
            assert!(m.value.is_finite(), "metric `{}` is not finite", d.name);
            let entry = Json::obj([("value", Json::f64(m.value)), ("unit", Json::str(d.unit))]);
            (d.name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(Num::U64(attempted))),
        ("failed", Json::Num(Num::U64(failed))),
        ("metrics", Json::Obj(entries)),
    ])
}

/// `BENCHMARK.json` as the catalogue defines it.
pub fn benchmark_json() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    let metric = |d: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if let Some(bound) = d.bound {
            fields.push(("bound", Json::f64(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(Num::U64(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Indented rendering of a [`Json`] document (the wire encoder is
/// compact-only; `BENCHMARK.json` and the result files are read by
/// people). Objects made only of scalars stay on one line.
pub fn pretty(doc: &Json) -> String {
    fn nested(v: &Json) -> bool {
        matches!(v, Json::Obj(_) | Json::Arr(_))
    }
    /// Members as `(key, value)`; array items have no key.
    fn members(v: &Json) -> Vec<(Option<&str>, &Json)> {
        match v {
            Json::Obj(pairs) => pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            _ => Vec::new(),
        }
    }
    fn go(v: &Json, depth: usize, out: &mut String) {
        if !nested(v) {
            out.push_str(&v.encode());
            return;
        }
        let members = members(v);
        // A container of scalars stays on one line; others get one
        // member per line.
        let inline = !members.iter().any(|(_, m)| nested(m));
        let (open, close) = if matches!(v, Json::Obj(_)) {
            ('{', '}')
        } else {
            ('[', ']')
        };
        out.push(open);
        for (i, (key, member)) in members.iter().enumerate() {
            match (inline, i) {
                (true, 0) => {}
                (true, _) => out.push_str(", "),
                (false, 0) => out.push_str(&format!("\n{}", "  ".repeat(depth + 1))),
                (false, _) => out.push_str(&format!(",\n{}", "  ".repeat(depth + 1))),
            }
            if let Some(key) = key {
                out.push_str(&Json::str(*key).encode());
                out.push_str(": ");
            }
            go(member, depth + 1, out);
        }
        if !inline {
            out.push_str(&format!("\n{}", "  ".repeat(depth)));
        }
        out.push(close);
    }
    let mut out = String::new();
    go(doc, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_serve::json::parse;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{} unit {}", d.name, d.unit);
            names.push(d.name);
        }
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --benchmark-json > BENCHMARK.json`"
        );
        assert_eq!(
            committed.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(parse(&pretty(&committed)).as_ref(), Ok(&committed));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics: Metrics = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, Measured::single(1.5 + i as f64)))
            .collect();
        let line = result_line(&END_TO_END, &metrics, 40, 0);
        assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(40));
        let reported = line.get("metrics").expect("metrics object");
        assert_eq!(reported.keys().len(), END_TO_END.len());
        for d in &END_TO_END {
            let m = reported.get(d.name).expect(d.name);
            assert_eq!(m.keys(), ["value", "unit"]);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
        assert!(!line.encode().contains('\n'), "one line");
        let failed = result_line(&END_TO_END, &metrics, 40, 2);
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_partial_report() {
        let mut metrics = Metrics::new();
        metrics.insert("setup_s", Measured::single(1.0));
        let _ = result_line(&END_TO_END, &metrics, 1, 0);
    }
}
