//! Cache-correctness contract of the campaign engine (docs/CAMPAIGNS.md):
//! unchanged spec → zero executions and a byte-identical report; a changed
//! axis re-executes only the affected points; an interrupted campaign
//! resumes to the same report an uninterrupted run produces.

use noc_campaign::{run_campaign, CampaignOptions, CampaignSpec, Checkpoint};
use std::path::PathBuf;

const SPEC: &str = "\
name = \"cache-contract\"

[phases]
warmup = 50
measure = 200
drain = 2000

[axes]
topology = \"mesh2x2\"
scheme = [\"baseline\", \"pseudo+ps+bb\"]
packet = 2
load = [0.02, 0.05]
";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options() -> CampaignOptions {
    CampaignOptions {
        threads: 2,
        max_points: None,
        // Inject a fixed revision: the tests must not depend on the build
        // tree's git state, and must not mutate the environment (the repo
        // forbids set_var in tests — see noc-base's pool docs).
        git_rev: Some("testrev0001".into()),
    }
}

fn report_bytes(dir: &std::path::Path) -> Vec<u8> {
    std::fs::read(dir.join("report.json")).expect("report.json")
}

#[test]
fn unchanged_spec_rerun_executes_zero_points_byte_identically() {
    let dir = temp_dir("rerun");
    let spec = CampaignSpec::parse_toml_str(SPEC).unwrap();

    let first = run_campaign(&spec, &dir, &options()).unwrap();
    assert!(first.completed);
    assert_eq!((first.total, first.cache_hits, first.executed), (4, 0, 4));
    let bytes = report_bytes(&dir);

    let second = run_campaign(&spec, &dir, &options()).unwrap();
    assert!(second.completed);
    assert_eq!(
        (second.total, second.cache_hits, second.executed),
        (4, 4, 0),
        "an unchanged spec must execute nothing"
    );
    assert_eq!(
        report_bytes(&dir),
        bytes,
        "a fully-cached re-run must re-emit the report byte-for-byte"
    );

    // A different revision invalidates everything.
    let mut other_rev = options();
    other_rev.git_rev = Some("testrev0002".into());
    let third = run_campaign(&spec, &dir, &other_rev).unwrap();
    assert_eq!((third.cache_hits, third.executed), (0, 4));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn changed_axis_reexecutes_only_affected_points() {
    let dir = temp_dir("delta");
    let spec = CampaignSpec::parse_toml_str(SPEC).unwrap();
    let first = run_campaign(&spec, &dir, &options()).unwrap();
    assert_eq!(first.executed, 4);

    // Growing the load axis only executes the new loads (2 schemes × 1).
    let grown =
        CampaignSpec::parse_toml_str(&SPEC.replace("[0.02, 0.05]", "[0.02, 0.05, 0.08]")).unwrap();
    let outcome = run_campaign(&grown, &dir, &options()).unwrap();
    assert_eq!(
        (outcome.total, outcome.cache_hits, outcome.executed),
        (6, 4, 2),
        "only the new load's points may execute"
    );

    // Changing a phase invalidates every point: phases are hashed.
    let rephased =
        CampaignSpec::parse_toml_str(&SPEC.replace("measure = 200", "measure = 300")).unwrap();
    let outcome = run_campaign(&rephased, &dir, &options()).unwrap();
    assert_eq!((outcome.cache_hits, outcome.executed), (0, 4));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_campaign_resumes_to_the_uninterrupted_report() {
    let straight_dir = temp_dir("straight");
    let resumed_dir = temp_dir("resumed");
    let spec = CampaignSpec::parse_toml_str(SPEC).unwrap();

    let straight = run_campaign(&spec, &straight_dir, &options()).unwrap();
    assert!(straight.completed);

    // Stop after one point per invocation — the deterministic stand-in for
    // kill/resume (atomic cache writes make a real kill equivalent, minus
    // the in-flight point).
    let mut interrupted = options();
    interrupted.max_points = Some(1);
    let mut executed = 0;
    for round in 0..4 {
        let outcome = run_campaign(&spec, &resumed_dir, &interrupted).unwrap();
        executed += outcome.executed;
        assert_eq!(outcome.executed, 1);
        assert_eq!(outcome.completed, round == 3, "round {round}");
        assert_eq!(outcome.cache_hits, round, "resume skips finished points");
        // The checkpoint ledger tracks progress across interruptions.
        let cp = Checkpoint::load(&resumed_dir)
            .expect("readable")
            .expect("checkpoint");
        assert_eq!(cp.spec_hash, spec.spec_hash());
        assert_eq!((cp.total, cp.done), (4, round as u64 + 1));
    }
    assert_eq!(executed, 4);
    assert_eq!(
        report_bytes(&resumed_dir),
        report_bytes(&straight_dir),
        "resumed and uninterrupted campaigns must produce identical reports"
    );

    std::fs::remove_dir_all(&straight_dir).unwrap();
    std::fs::remove_dir_all(&resumed_dir).unwrap();
}

#[test]
fn colliding_points_are_rejected_not_cached_wrongly() {
    // A packet axis under benchmark traffic collapses onto one config hash
    // (packet length only parameterises synthetic traffic). The engine must
    // refuse, not silently reuse one point's result for the other.
    let dir = temp_dir("collide");
    let spec = CampaignSpec::parse_toml_str(
        "[phases]\nwarmup = 50\nmeasure = 200\ndrain = 2000\n\
         [axes]\ntopology = \"cmesh4x4\"\ntraffic = \"lu\"\npacket = [2, 5]\n",
    )
    .unwrap();
    let err = run_campaign(&spec, &dir, &options()).unwrap_err();
    assert!(err.0.contains("share config hash"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
