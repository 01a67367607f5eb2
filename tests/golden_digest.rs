//! Cross-revision golden digests of the study's store files.
//!
//! Determinism gates compare a run with itself; this test compares the
//! tree with a fixed reference written by an earlier revision. Each line
//! of `tests/data/golden_digests.txt` holds the FNV-1a 64 digest of one
//! single-epoch `mx-store/2` file: one per dataset for
//! `ScenarioConfig::small` seeds {7, 42} at snapshots {0, 4, 8}, plus one
//! world run under the chaos gate's fault plan with DNS faults on. A
//! refactor that claims "same behaviour" (the `Name` representation, the
//! worldgen memo, the fault-coin key) must leave every line unchanged.
//!
//! On a mismatch the failure message prints every computed line, so a
//! reviewed, intended output change can update the data file by hand.

use mx_analysis::observe::observe_world;
use mx_corpus::{company_map, provider_knowledge, ScenarioConfig, Study};
use mx_infer::{result_rows, Pipeline};
use mx_net::{DnsFaults, FaultPlan, SmtpFaults};
use mx_store::StoreWriter;

const GOLDEN: &str = "tests/data/golden_digests.txt";
const SEEDS: &[u64] = &[7, 42];
const SNAPSHOTS: &[usize] = &[0, 4, 8];
const CHAOS_RATE: f64 = 0.3;

/// The fault plan of `tests/chaos_gate.rs` at total fault mass `rate`.
fn chaos_plan(rate: f64, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.seed = seed;
    plan.scan_failure_rate = rate / 2.0;
    plan.dns = DnsFaults {
        servfail_rate: rate / 6.0,
        timeout_rate: rate / 6.0,
        truncation_rate: rate / 12.0,
    };
    plan.smtp = SmtpFaults {
        drop_after_banner_rate: rate / 8.0,
        ehlo_tarpit_rate: rate / 8.0,
        tls_handshake_rate: rate / 8.0,
        garbled_banner_rate: rate / 8.0,
    };
    plan
}

/// One line per active dataset of snapshot `k`: `<tag> <dataset> <len> <fnv64>`.
fn digest_lines(study: &Study, k: usize, plan: Option<FaultPlan>, tag: &str) -> Vec<String> {
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let companies = company_map();
    let mut world = study.world_at(k);
    if let Some(plan) = plan {
        world.net.set_faults(plan);
    }
    let data = observe_world(&world);
    data.per_dataset
        .iter()
        .map(|(dataset, obs)| {
            let result = pipeline.run(obs);
            let mut writer = StoreWriter::new();
            writer
                .add_epoch(
                    &world.date.ym_label(),
                    result_rows(&result, &companies),
                    &obs.acquisition,
                )
                .expect("add epoch");
            let bytes = writer.finish();
            format!(
                "{tag} {} {} {:016x}",
                dataset.label(),
                bytes.len(),
                mx_cert::fnv1a(&bytes)
            )
        })
        .collect()
}

fn all_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for &seed in SEEDS {
        let study = Study::generate(ScenarioConfig::small(seed));
        for &k in SNAPSHOTS {
            lines.extend(digest_lines(
                &study,
                k,
                None,
                &format!("small seed={seed} snapshot={k}"),
            ));
        }
        if seed == SEEDS[0] {
            let k = SNAPSHOTS[SNAPSHOTS.len() - 1];
            let tag = format!("chaos rate={CHAOS_RATE} seed={seed} snapshot={k}");
            lines.extend(digest_lines(
                &study,
                k,
                Some(chaos_plan(CHAOS_RATE, seed)),
                &tag,
            ));
        }
    }
    lines
}

#[test]
fn store_digests_match_the_committed_golden_file() {
    let got = all_lines();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let want = std::fs::read_to_string(&path).expect("read golden digests");
    let want: Vec<&str> = want.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        got == want,
        "store digests drifted from {GOLDEN}; computed lines:\n{}",
        got.join("\n")
    );
}
