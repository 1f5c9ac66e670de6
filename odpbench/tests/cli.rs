//! The benchmark's own checks, run on `--tiny` rounds through the built
//! binary: outputs verified, digests and allocation counts repeatable,
//! and every printed metric declared in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

/// Printed result of one run.
struct Run {
    stdout: String,
    digest: String,
    failed: u64,
    correct: bool,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, String)>,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
        .to_path_buf()
}

/// The text after `"key": ` up to the next `,` or `}` (or the end).
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let rest = &json[at..];
    rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim_matches('"')
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_odpbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "2",
            "--trace",
            if trace { "1" } else { "0" },
            "--tiny",
        ])
        .output()
        .expect("run odpbench");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    let json = lines.last().expect("a result line");
    let digest = lines
        .iter()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .expect("a sim_digest line")
        .to_string();
    let body = &json[json.find("\"metrics\": {").expect("metrics") + 12..];
    let metrics = body
        .split("}, ")
        .map(|m| {
            let name = m.trim_start_matches(['{', ' ', '"']);
            let name = name[..name.find('"').expect("name end")].to_string();
            let value = field(m, "value").parse().expect("numeric value");
            (name, value, field(m, "unit").to_string())
        })
        .collect();
    Run {
        stdout: stdout.clone(),
        digest,
        failed: field(json, "failed").parse().expect("failed count"),
        correct: field(json, "correct") == "true",
        metrics,
    }
}

/// `(name, unit)` of every metric declared in one section of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect(section);
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").to_string(),
                field(entry, "unit").to_string(),
            )
        })
        .collect()
}

const WORKLOADS: [&str; 2] = ["flood", "congestion"];

#[test]
fn every_workload_verifies_its_outputs() {
    for w in WORKLOADS {
        let r = run(w, 3, false);
        assert!(r.correct && r.failed == 0, "{w}: {} failed", r.failed);
    }
}

#[test]
fn digest_and_allocs_repeat_for_a_seed_and_the_digest_follows_the_seed() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 5, false), run(w, 5, false));
        assert_eq!(a.digest, b.digest, "{w}: digest");
        assert_eq!(a.metric("allocs"), b.metric("allocs"), "{w}: allocs");
        assert_ne!(a.digest, run(w, 6, false).digest, "{w}: seed ignored");
    }
}

#[test]
fn the_sharded_flood_reproduces_the_sequential_one() {
    let r = run("flood", 7, true);
    assert!(r.correct && r.failed == 0, "{} failed", r.failed);
    let note = r
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix("# sharded digests: "))
        .expect("a sharded-digest note");
    let (same, rest) = note.split_once(" of ").expect("'<n> of <m>'");
    assert_eq!(same, rest.split(' ').next().expect("a round count"));
    assert!(r.metric("pdes.epoch_s") > 0.0);
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let r = run(w, 9, trace);
            assert!(r.correct, "{w} trace={trace}");
            if trace {
                let frames: u64 = r
                    .stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("# replays: "))
                    .and_then(|l| l.split(' ').next())
                    .and_then(|n| n.parse().ok())
                    .expect("a replay note");
                assert!(frames > 0, "{w}: the transit replay saw no frames");
            }
            let got: Vec<(String, String)> = r.metrics.into_iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(got, want, "{w} trace={trace}");
        }
    }
}
