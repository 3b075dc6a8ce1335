//! Hostile input to `airtime-cli` — out-of-range numbers, a "trace"
//! with no parseable record, a zero TBR fill period — ends in a
//! diagnostic and a non-zero exit, never a panic, an unbounded run or a
//! silent empty summary.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn out_of_range_secs_are_rejected_without_panicking() {
    // 0 s has no span, 1 s leaves no time after the 1 s warm-up, and
    // the last two exceed the one-day ceiling (the very last overflows
    // the simulator's nanosecond clock).
    for secs in ["0", "1", "86401", "20000000000"] {
        let out = Command::new(env!("CARGO_BIN_EXE_airtime-cli"))
            .args(["run", "--rates", "11,1", "--secs", secs])
            .output()
            .expect("airtime-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--secs {secs} exited 0");
        assert!(
            !stderr.contains("panicked"),
            "--secs {secs} panicked: {stderr}"
        );
        assert!(stderr.contains("bad --secs"), "--secs {secs}: {stderr}");
    }
}

#[test]
fn zero_tbr_fill_period_is_rejected_without_hanging() {
    // A zero fill period never advances TBR's refill grid; the scenario
    // compiler must refuse it instead of running forever.
    let dir = std::env::temp_dir().join(format!("airtime-cli-fill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("zero_fill.toml");
    std::fs::write(
        &path,
        "duration_s = 3\nwarmup_s = 1\n[scheduler]\nkind = \"tbr\"\nfill_period_ms = 0\n\
         [[station]]\nrate = \"11\"\n",
    )
    .expect("write scenario");
    let mut child = Command::new(env!("CARGO_BIN_EXE_airtime-cli"))
        .args(["run", "--scenario"])
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("airtime-cli runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll airtime-cli").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("airtime-cli still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("airtime-cli output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited 0: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("zero_fill.toml:5: "), "{stderr}");
    assert!(stderr.contains("fill_period_ms"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inspect_rejects_a_file_with_no_parseable_record() {
    use airtime::obs::{EventRecord, MacPhase};
    use airtime::sim::SimTime;

    let dir = std::env::temp_dir().join(format!("airtime-cli-inspect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let inspect = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write trace");
        Command::new(env!("CARGO_BIN_EXE_airtime-cli"))
            .arg("inspect")
            .arg(&path)
            .output()
            .expect("airtime-cli runs")
    };

    // Every line malformed: exit 1, pointing at the first bad line.
    let out = inspect("bad.jsonl", "\ngarbage\n{\"type\":\"mac\"}\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("bad.jsonl:2: "), "{stderr}");

    // Some valid records: the bad lines are skipped and counted.
    let good = EventRecord::Mac {
        t: SimTime::from_micros(5),
        phase: MacPhase::TxEnd,
        node: 1,
    }
    .to_json_line();
    let out = inspect("mixed.jsonl", &format!("garbage\n{good}\n"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("records: 1"), "{stdout}");
    assert!(stdout.contains("malformed lines skipped: 1"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}
