//! Hostile spec bytes through the `noc campaign` entry points: a damaged
//! spec file handed to `noc campaign expand` or `noc campaign status` ends in
//! `Ok` or a one-line `Err`, never a panic or an abort — and `status`
//! creates nothing, whatever the spec says. Values a spec or a flag can name
//! but no run can use are refused by both in the same one line, and a flag
//! of one command given to another (`noc run --threads`) is one line too.

use proptest::prelude::*;
use pseudo_circuit_repro::cli::{parse_campaign_args, parse_run_args, run, run_campaign_command};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A spec that sets every key the schema knows.
const SPEC: &str = "\
name = \"hostile\"  # comment
[phases]
warmup = 50
measure = 200
drain = 2000
[axes]
topology = [\"mesh2x2\", \"ring4\"]
traffic = \"ur\"
scheme = [\"baseline\", \"pseudo+ps+bb\", \"hybrid\"]
routing = \"xy\"
va = [\"static\", \"dynamic\"]
vcs = [2, 4]
buffer = 4
packet = [1, 5]
load = [0.02, 0.05]
seed = [1, 18446744073709551615]
";

/// A spec file of this test process; `case` numbers them.
fn scratch(case: usize) -> PathBuf {
    let name = format!("noc-hostile-cli-{}-{case}.toml", std::process::id());
    std::env::temp_dir().join(name)
}

/// Runs `noc campaign expand` and `noc campaign status` over the spec file
/// at `path`, returning both outcomes after checking that every error is
/// one line and that `status` left its `--out` directory uncreated.
fn drive(path: &Path) -> Vec<Result<String, String>> {
    let spec = path.to_string_lossy().into_owned();
    let out = path.with_extension("out");
    let out = out.to_string_lossy().into_owned();
    let verbs: [&[&str]; 2] = [
        &["expand", "--spec", &spec],
        &["status", "--spec", &spec, "--out", &out],
    ];
    let outcomes: Vec<_> = verbs
        .iter()
        .map(|argv| {
            let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            parse_campaign_args(&argv)
                .and_then(|command| run_campaign_command(&command))
                .map_err(|e| e.0)
        })
        .collect();
    for outcome in &outcomes {
        if let Err(e) = outcome {
            assert!(!e.contains('\n'), "a multi-line error: {e}");
        }
    }
    assert!(!Path::new(&out).exists(), "status created {out}");
    outcomes
}

/// Up to six edits: (kind, position, byte).
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..6)
}

/// Applies the edits: flip bits of a byte, insert a byte, delete a byte, or
/// truncate.
fn mutate(mut text: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        let at = at % (text.len() + 1);
        match kind {
            0 if at < text.len() => text[at] ^= byte.max(1),
            1 => text.insert(at, byte),
            2 if at < text.len() => drop(text.remove(at)),
            3 => text.truncate(at),
            _ => {}
        }
    }
    text
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_specs_end_in_ok_or_one_line_through_expand_and_status(edits in arb_edits()) {
        let path = scratch(CASE.fetch_add(1, Ordering::Relaxed));
        std::fs::write(&path, mutate(SPEC.as_bytes().to_vec(), &edits)).unwrap();
        drive(&path);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn the_undamaged_spec_expands_and_counts_nothing_cached() {
    let path = scratch(usize::MAX);
    std::fs::write(&path, SPEC).unwrap();
    let outcomes = drive(&path);
    assert!(outcomes[0]
        .as_ref()
        .unwrap()
        .starts_with("hostile: 192 point(s)"));
    let status = outcomes[1].as_ref().unwrap();
    assert!(
        status.ends_with(": 0/192 points cached | no report yet"),
        "{status}"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn an_oversized_spec_is_one_line_not_an_abort() {
    // Six axes of 64-100 values, 3 KB of TOML: the expansion used to be
    // allocated in full (66 TB) and abort `expand` and `status`.
    let list = |n: usize, value: &dyn Fn(usize) -> String| {
        (1..=n).map(value).collect::<Vec<_>>().join(", ")
    };
    let text = format!(
        "[axes]\nvcs = [{}]\nbuffer = [{}]\npacket = [{}]\nseed = [{}]\nload = [{}]\n\
         topology = [{}]\n",
        list(64, &|v| v.to_string()),
        list(100, &|v| v.to_string()),
        list(100, &|v| v.to_string()),
        list(100, &|v| v.to_string()),
        list(100, &|v| format!("{:?}", v as f64 / 100.0)),
        list(100, &|v| format!("\"ring{}\"", v + 1)),
    );
    let path = scratch(usize::MAX - 1);
    std::fs::write(&path, text).unwrap();
    for outcome in drive(&path) {
        assert_eq!(
            outcome.unwrap_err(),
            "spec: the axes expand to 640000000000 points, at most 1048576 are supported"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_zero_length_measurement_window_is_refused_by_flag_and_by_spec() {
    // Both used to run a window that measured nothing: `noc run` printed
    // `avg latency 0.00 cycles` and the campaign reported "no saturation
    // observed", each exiting 0.
    const REFUSAL: &str = "measure: must be at least 1 cycle";
    let flags: Vec<String> = ["--topology", "mesh2x2", "--measure", "0"]
        .iter()
        .map(|a| a.to_string())
        .collect();
    let from_flag = parse_run_args(&flags).and_then(|args| run(&args).map(drop));
    assert_eq!(from_flag.unwrap_err().0, REFUSAL);

    let path = scratch(usize::MAX - 2);
    let out = path.with_extension("out");
    std::fs::write(
        &path,
        "[phases]\nwarmup = 50\nmeasure = 0\ndrain = 2000\n\
         [axes]\ntopology = \"mesh2x2\"\nload = 0.05\n",
    )
    .unwrap();
    let argv: Vec<String> = ["run", "--spec", path.to_str().unwrap()]
        .into_iter()
        .chain(["--out", out.to_str().unwrap()])
        .map(String::from)
        .collect();
    let from_spec = parse_campaign_args(&argv).and_then(|command| run_campaign_command(&command));
    assert_eq!(from_spec.unwrap_err().0, REFUSAL);
    assert!(
        !out.exists(),
        "a refused campaign created {}",
        out.display()
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn threads_is_a_campaign_flag_and_an_unknown_one_for_run() {
    // One simulation steps serially, so `noc run` has no thread count to
    // take: `--threads` there is the one-line unknown-flag error, exit 1,
    // before anything runs. Campaigns still spread points over threads.
    let noc = |argv: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_noc"))
            .args(argv)
            .output()
            .expect("the noc binary runs")
    };
    let refused = noc(&["run", "--topology", "mesh2x2", "--threads", "2"]);
    assert_eq!(refused.status.code(), Some(1));
    assert!(refused.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&refused.stderr),
        "error: unknown flag \"--threads\" (see `noc help`)\n"
    );

    let path = scratch(usize::MAX - 3);
    let out = path.with_extension("out");
    std::fs::write(
        &path,
        "[phases]\nwarmup = 50\nmeasure = 200\ndrain = 2000\n\
         [axes]\ntopology = \"mesh2x2\"\npacket = 2\nload = [0.02, 0.05]\n",
    )
    .unwrap();
    let (spec, dir) = (path.to_str().unwrap(), out.to_str().unwrap());
    let ran = noc(&[
        "campaign",
        "run",
        "--spec",
        spec,
        "--out",
        dir,
        "--threads",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&ran.stdout);
    assert_eq!(ran.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.starts_with("2 points | cache hits 0 | executed 2\n"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&out).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn two_spellings_of_one_point_are_refused_for_what_they_are() {
    // A pattern has one name, so a second spelling is an unknown traffic;
    // a topology can be written two ways, and the two points it expands to
    // share one config hash.
    let refusals = [
        (
            "traffic = [\"ur\", \"uniform\"]",
            "unknown traffic \"uniform\" (try `noc list`)".to_string(),
        ),
        (
            "topology = [\"cmesh4x4\", \"mesh4x4c4\"]",
            format!(
                "points cmesh4x4/{TAIL} and mesh4x4c4/{TAIL} share config hash \
                 a39f96745a1be058 — an axis the configuration ignores is being swept (e.g. \
                 packet or load under benchmark traffic), or two spellings name one \
                 configuration (e.g. cmesh4x4 and mesh4x4c4); drop one of them"
            ),
        ),
    ];
    const TAIL: &str = "ur/pseudo+ps+bb/xy/static/vcs4/buf4/pkt5/seed1 load0.1";
    for (i, (axis, refusal)) in refusals.into_iter().enumerate() {
        let path = scratch(usize::MAX - 4 - i);
        std::fs::write(&path, format!("[axes]\n{axis}\n")).unwrap();
        let outcomes = drive(&path);
        assert!(outcomes[0].is_ok(), "expand resolves nothing: {axis}");
        assert_eq!(outcomes[1].as_ref().unwrap_err(), &refusal, "{axis}");
        std::fs::remove_file(&path).unwrap();
    }
}
