//! The `clan-trace` binary on hostile input: a trace file is read from
//! outside the process, so a malformed line must end in exit code 2 and
//! a `path: line N: …` message, never in an abort.

use std::process::Command;

#[test]
fn deeply_nested_line_exits_2_naming_the_line() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested.jsonl");
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    let file = path.to_str().unwrap();
    let out_path = path.with_extension("chrome.json");
    let out_file = out_path.to_str().unwrap();
    let _ = std::fs::remove_file(&out_path);
    for args in [
        vec!["analyze", "--trace", file],
        vec!["diff", file, file],
        vec!["chrome", file, out_file],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_clan-trace"))
            .args(&args)
            .output()
            .unwrap();
        // A stack overflow would be a signal (no code; 134 from a shell).
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{file}: line 1: ")), "{stderr}");
    }
    // `chrome` renders in full before it writes: a bad trace leaves no file.
    assert!(!out_path.exists(), "{out_file} was written");
}
