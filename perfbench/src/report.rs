//! Metric names, JSON helpers and the result line the benchmark prints.

use serde::Value;

/// Named metric values, in report order.
pub type Metrics = Vec<(String, f64)>;

/// End-to-end metrics: `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("slowest_cell_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Experiment ids of the combined registry, in canonical order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "T1", "F1", "F2", "F3", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
    "A1", "FL1",
];

/// Metrics each machine probe (`conv`, `hammer`) reports.
pub const PROBE_METRICS: &[(&str, &str)] = &[
    ("core.build_s", "s"),
    ("core.run_s", "s"),
    ("workloads.next_op_s", "s"),
    ("memctrl.sched_steps", "count"),
    ("memctrl.ns_per_sched_step", "ns"),
    ("memctrl.queue_depth_max", "count"),
    ("memctrl.queue_depth_mean", "count"),
    ("memctrl.wheel_events", "count"),
    ("cache.accesses", "count"),
    ("cache.hit_rate", "frac"),
    ("dram.commands", "count"),
    ("dram.replay_s", "s"),
    ("trace_overhead_frac", "frac"),
];

/// Software-defense counters, reported by the `conv` probe only (the
/// `hammer` probe runs undefended, where they are always zero).
pub const OS_METRICS: &[(&str, &str)] = &[
    ("os.convoluted_refreshes", "count"),
    ("os.actions", "count"),
];

/// Every per-layer metric a traced run reports: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for id in EXPERIMENT_IDS {
        out.push((format!("engine.exp_s.{id}"), "s"));
    }
    for id in EXPERIMENT_IDS {
        out.push((format!("engine.exp_sim_cycles.{id}"), "cycles"));
    }
    out.push(("engine.cell_s.max".into(), "s"));
    out.push(("engine.cell_s.p50".into(), "s"));
    for (probe, extra) in [
        ("conv", OS_METRICS),
        ("hammer", &[("dram.flips", "count")][..]),
    ] {
        for (name, unit) in PROBE_METRICS.iter().chain(extra) {
            out.push((format!("{probe}.{name}"), *unit));
        }
    }
    for depth in crate::probes::QUEUE_DEPTHS {
        out.push((format!("memctrl.ns_per_req.q{depth}"), "ns"));
    }
    out.push(("memctrl.sched_steps_per_req.q4096".into(), "count"));
    for (name, unit) in [
        ("synthesize_s", "s"),
        ("machine_build_s", "s"),
        ("migrate_s", "s"),
        ("fold_s", "s"),
        ("machines", "count"),
        ("migrations", "count"),
    ] {
        out.push((format!("fleet.{name}"), unit));
    }
    for layer in crate::spans::LAYERS {
        out.push((format!("self_s.{layer}"), "s"));
    }
    out
}

/// A JSON number with every digit of `x`.
pub fn num(x: f64) -> Value {
    assert!(x.is_finite(), "metric value must be finite, got {x}");
    Value::Num(format!("{x}"))
}

pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    serde::render_compact(v, &mut out);
    out
}

/// The last line of the benchmark's standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let metrics = Value::Obj(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.clone(),
                    obj(vec![
                        ("value", num(*value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    compact(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_unique_and_match_benchmark_json() {
        let mut all: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        all.extend(per_layer());
        assert!(per_layer().len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }

        let path = crate::checks::repo_root().join("BENCHMARK.json");
        let doc = serde::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |v: &[(String, &str)]| -> Vec<(String, String)> {
            v.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
        };
        let e2e: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), own(&e2e));
        assert_eq!(names(&doc, "per_layer"), own(&per_layer()));
    }

    #[test]
    fn experiment_ids_match_the_registry() {
        let ids: Vec<&str> = hammertime_fleet::full_registry()
            .iter()
            .map(|e| e.id())
            .collect();
        assert_eq!(ids, EXPERIMENT_IDS);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("wall_s".into(), "s", 1.25)]);
        assert!(!line.contains('\n'));
        let v = serde::parse_json(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_num), Some("1.25"));
    }
}
