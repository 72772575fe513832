//! End-to-end tests of the `nimblock-cli` binary itself: real process,
//! real exit codes, real stdout/stderr.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nimblock-cli"))
}

#[test]
fn run_succeeds_and_prints_a_summary() {
    let out = cli()
        .args(["run", "--scheduler", "fcfs", "--events", "3", "--seed", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FCFS: 3 applications"), "{stdout}");
}

#[test]
fn errors_exit_nonzero_with_message_on_stderr() {
    let out = cli()
        .args(["run", "--scheduler", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown scheduler 'bogus'"), "{stderr}");
    assert!(stderr.contains("USAGE"), "usage shown on parse errors");
}

#[test]
fn help_exits_zero() {
    let out = cli().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn generate_then_run_roundtrip_through_the_filesystem() {
    let dir = std::env::temp_dir().join(format!("nimblock-cli-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stim = dir.join("s.json");
    let out = cli()
        .args([
            "generate", "--batch", "2", "--delay-ms", "100", "--events", "3",
            "--output", stim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli()
        .args(["run", "--input", stim.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("3 applications"));
}

#[test]
fn missing_input_file_fails_cleanly() {
    let out = cli()
        .args(["run", "--input", "/definitely/not/here.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("cannot read"));
}

/// Runs the binary with `args`, expecting a clean `error:` exit (status
/// 1, not a panic) whose message contains every one of `needles`.
fn assert_clean_error(args: &[&str], needles: &[&str]) {
    let out = cli().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{args:?} must fail with status 1");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error: "), "{stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{needle:?} missing from {stderr}");
    }
}

#[test]
fn run_rejects_zero_slots() {
    assert_clean_error(&["run", "--slots", "0", "--events", "2"], &["--slots must be at least 1"]);
}

#[test]
fn compare_rejects_zero_slots() {
    assert_clean_error(
        &["compare", "--slots", "0", "--events", "2"],
        &["--slots must be at least 1"],
    );
}

#[test]
fn run_rejects_an_input_task_that_fits_no_slot() {
    let dir = std::env::temp_dir().join(format!("nimblock-cli-fit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stim = dir.join("s.json");
    let out = cli()
        .args(["generate", "--events", "1", "--seed", "3", "--output", stim.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    // Inflate the first task's DSP demand past every slot of the board.
    let text = std::fs::read_to_string(&stim).unwrap();
    let at = text.find("\"dsp\": ").expect("tasks list their resources") + "\"dsp\": ".len();
    let end = at + text[at..].find(',').unwrap();
    std::fs::write(&stim, format!("{}99999999{}", &text[..at], &text[end..])).unwrap();
    let app = {
        let at = text.find("\"name\": \"").unwrap() + "\"name\": \"".len();
        text[at..at + text[at..].find('"').unwrap()].to_owned()
    };
    assert_clean_error(
        &["run", "--input", stim.to_str().unwrap()],
        &[&format!("application '{app}'"), "task#0", "fits no slot"],
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace whose item names a task its benchmark graph does not have is an
/// ordinary invariant violation (status 1), not a panic (status 101).
#[test]
fn analyze_trace_reports_an_unknown_task_as_a_violation() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/unknown_task.json");
    let out = cli().args(["analyze", "trace", fixture]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("task#7 of app#0 names a task the LeNet graph does not have"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error: trace violates"), "{stderr}");
}
