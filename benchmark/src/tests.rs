//! Tests of the harness as a whole, at smoke scale.

use crate::harness::{run, RunOpts, Scratch, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::workloads::{Scale, WORKLOADS};

fn smoke(seed: u64) -> RunOpts {
    RunOpts {
        seed,
        seconds: 0.0,
        scale: Scale::SMOKE,
        self_test: false,
    }
}

/// Held by every test that runs a workload or switches tracing on:
/// tracing is one switch for the whole process, and tests share it.
pub static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    // A test that failed while holding the lock must not fail the others.
    EXCLUSIVE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Scratch space of one test.
fn scratch(test: &str) -> Scratch {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    Scratch::new(&out.join(format!("test-{test}"))).expect("scratch dir")
}

#[test]
fn same_seed_same_schedule_and_stored_bytes_other_seed_other_schedule() {
    let _alone = exclusive();
    let mut s = scratch("same-seed");
    for (workload, _) in WORKLOADS {
        let mut run = |seed| {
            let pass = run(workload, smoke(seed), &mut s).expect("runs");
            assert_eq!(pass.failed, 0, "{workload}: no operation fails");
            assert!(pass.oracle_checked > 0, "{workload}: the oracle ran");
            assert!(
                pass.end_to_end().iter().all(|(_, v)| *v > 0.0),
                "{workload}"
            );
            (pass.schedule_hash, pass.stored_per_user_byte)
        };
        let first = run(3);
        assert_eq!(
            first,
            run(3),
            "{workload}: a seed fixes inputs and stored bytes"
        );
        assert_ne!(first.0, run(4).0, "{workload}: another seed, other inputs");
    }
}

#[test]
fn oracle_fails_when_the_model_is_corrupted() {
    let _alone = exclusive();
    let mut s = scratch("self-test");
    for (workload, _) in WORKLOADS {
        let opts = RunOpts {
            self_test: true,
            ..smoke(5)
        };
        let pass = run(workload, opts, &mut s).expect("runs");
        assert!(pass.oracle_failed > 0, "{workload}: corruption is noticed");
        assert!(!pass.correct());
    }
}

#[test]
fn benchmark_json_names_what_the_code_measures() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|f| m.get(f).and_then(Json::as_str).expect(f).to_owned())
                    .collect()
            })
            .collect()
    };
    let triple = |m: &(&str, &str, &str)| vec![m.0.to_owned(), m.1.to_owned(), m.2.to_owned()];
    assert_eq!(
        names("end_to_end", &["name", "unit", "better"]),
        END_TO_END.iter().map(triple).collect::<Vec<_>>()
    );
    assert_eq!(
        names("per_layer", &["name", "unit", "better"]),
        PER_LAYER.iter().map(triple).collect::<Vec<_>>()
    );
    assert_eq!(
        names("workloads", &["name", "why"]),
        WORKLOADS
            .iter()
            .map(|(n, w)| vec![n.to_string(), w.to_string()])
            .collect::<Vec<_>>()
    );
}
