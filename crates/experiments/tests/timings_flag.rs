//! `td-repro --timings FILE` without `--out`: the observability report
//! lands at FILE as well-formed JSON describing the sweep that ran, and
//! nothing else is written — no `SUMMARY.md`, no CSVs, no `cells/`.
//!
//! The report is read with the workspace's one JSON parser,
//! [`td_engine::json::parse`] (strict RFC 8259).

use std::process::Command;
use td_engine::json::{self, Json};

const EXE: &str = env!("CARGO_BIN_EXE_td-repro");

#[test]
fn timings_file_without_out_is_json_and_writes_nothing_else() {
    let dir = std::env::temp_dir().join(format!("td-timings-flag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(EXE)
        .args(["fig8", "--seed", "7", "--jobs", "1", "--timings", "T"])
        .current_dir(&dir)
        .output()
        .expect("spawn td-repro");
    assert!(
        out.status.success(),
        "td-repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(dir.join("T")).expect("--timings wrote no file");
    let report = json::parse(&text).unwrap_or_else(|e| panic!("T is not JSON ({e}):\n{text}"));
    assert_eq!(report.get("master_seed").and_then(Json::as_u64), Some(7));
    let rows = (report.get("experiments").and_then(Json::as_array))
        .unwrap_or_else(|| panic!("no experiments array:\n{text}"));
    assert_eq!(rows.len(), 1, "{text}");
    assert_eq!(rows[0].get("id").and_then(Json::as_str), Some("fig8"));

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["T"],
        "without --out only the timings file is written"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
