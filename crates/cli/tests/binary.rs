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

/// The token-leak trace re-declared with a batch of 10⁶ leaves nearly
/// three million items unconsumed. `analyze trace` still exits 1 promptly
/// and lists at most 65 token-conservation lines per task: the first 64
/// items, then one line counting the rest.
#[test]
fn analyze_trace_bounds_the_report_of_a_huge_declared_batch() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/token_leak.json");
    let text = std::fs::read_to_string(fixture).unwrap();
    assert_eq!(text.matches("\"batch\": 2,").count(), 1, "one arrival of batch 2");
    let dir = std::env::temp_dir().join(format!("nimblock-cli-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("token_leak_1e6.json");
    std::fs::write(&trace, text.replace("\"batch\": 2,", "\"batch\": 1000000,")).unwrap();
    let out = cli().args(["analyze", "trace", trace.to_str().unwrap()]).output().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.len() < 64 * 1024, "{} bytes of report", stdout.len());
    assert_eq!(stdout.matches("token-conservation").count(), 195, "{stdout}");
    assert!(stdout.contains("and 999934 more items of task#0 of app#0"), "{stdout}");
    assert!(stdout.contains("and 999935 more items of task#2 of app#0"), "{stdout}");
}

/// A zero mean gap would make the legacy gateway's workload generator
/// assert; the parser rejects it first.
#[test]
fn faas_rejects_a_zero_mean_gap() {
    assert_clean_error(&["faas", "--mean-gap-ms", "0"], &["--mean-gap-ms must be at least 1"]);
}

/// Every load factor scales the arrival rate: `--load` and each `--curve`
/// factor must leave RATE x factor finite and positive, in any flag order.
#[test]
fn faas_rejects_load_factors_that_break_the_arrival_rate() {
    for (flag, value) in [
        ("--load", "0"),
        ("--load", "-1"),
        ("--load", "nan"),
        ("--load", "inf"),
        ("--curve", "inf"),
        ("--curve", "1,0"),
    ] {
        assert_clean_error(
            &["faas", flag, value, "--arrivals", "steady:10"],
            &[flag, "finite and positive"],
        );
    }
    // 10/s x 1e308 overflows to infinity.
    assert_clean_error(
        &["faas", "--arrivals", "steady:10", "--load", "1e308"],
        &["--load 1e308", "finite and positive"],
    );
}

/// `--reconfig-latency-ms` turns on the exact CAP-latency check: a
/// default-board trace holds it at the board's 80 ms and breaks it at 81.
#[test]
fn analyze_trace_checks_an_exact_reconfiguration_latency() {
    let dir = std::env::temp_dir().join(format!("nimblock-cli-latency-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let trace = trace.to_str().unwrap();
    let out = cli()
        .args(["run", "--events", "4", "--seed", "11"])
        .args(["--trace-format", "json", "--trace-out", trace])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli()
        .args(["analyze", "trace", trace, "--reconfig-latency-ms", "80"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8(out.stdout).unwrap().contains("all invariants hold"));
    let out = cli()
        .args(["analyze", "trace", trace, "--reconfig-latency-ms", "81"])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("[cap-latency]"), "{stdout}");
    assert!(stdout.contains("expected 0.081000s"), "{stdout}");
    assert!(String::from_utf8(out.stderr).unwrap().starts_with("error: trace violates"));
}
