//! Hostile input to `airtime-cli` — out-of-range numbers, a "trace"
//! with no parseable record, a zero TBR fill period — ends in a
//! diagnostic and a non-zero exit, never a panic, an unbounded run or a
//! silent empty summary. A partly corrupted trace is summarised with
//! its bad lines counted and the first one named. The `run` header
//! names the cell's transport as its flows declare it.

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
fn run_header_names_the_transport_of_the_flows() {
    let dir = std::env::temp_dir().join(format!("airtime-cli-header-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let header = |name: &str, second_transport: &str| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "duration_s = 2\nwarmup_s = 1\ndirection = \"down\"\n\
                 [[station]]\nrate = \"11\"\ntransport = \"udp\"\n\
                 [[station]]\nrate = \"1\"\ntransport = \"{second_transport}\"\n"
            ),
        )
        .expect("write scenario");
        let out = Command::new(env!("CARGO_BIN_EXE_airtime-cli"))
            .args(["run", "--scenario"])
            .arg(&path)
            .output()
            .expect("airtime-cli runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout.lines().next().unwrap_or_default().to_string()
    };
    assert_eq!(
        header("udp.toml", "udp"),
        "2 stations, Downlink UDP, 2 s simulated"
    );
    assert_eq!(
        header("mixed.toml", "tcp"),
        "2 stations, Downlink Mixed, 2 s simulated"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_airtime-cli"))
        .args(["run", "--rates", "11,1", "--secs", "2"])
        .output()
        .expect("airtime-cli runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("2 stations, Uplink TCP, 2 s simulated\n"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn inspect_spans_and_audit_report_skipped_malformed_lines() {
    let dir = std::env::temp_dir().join(format!("airtime-cli-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cli = |args: &[&std::ffi::OsStr]| {
        Command::new(env!("CARGO_BIN_EXE_airtime-cli"))
            .args(args)
            .output()
            .expect("airtime-cli runs")
    };
    let trace = dir.join("events.jsonl");
    let out = cli(&[
        "run".as_ref(),
        "--rates".as_ref(),
        "11,1".as_ref(),
        "--secs".as_ref(),
        "2".as_ref(),
        "--events".as_ref(),
        trace.as_os_str(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Corrupt the trace: a truncated record on line 3, garbage on a
    // later line. Inserting (not replacing) keeps the timeline whole, so
    // the audit still conserves.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 100, "trace too short");
    let truncated = &lines[2][..lines[2].len() / 2];
    lines.insert(2, truncated);
    lines.insert(50, "not json");
    let corrupt = dir.join("corrupt.jsonl");
    std::fs::write(&corrupt, lines.join("\n")).expect("write corrupt trace");

    let out = cli(&[
        "inspect".as_ref(),
        corrupt.as_os_str(),
        "--spans".as_ref(),
        "--audit".as_ref(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let first = format!(
        "malformed lines skipped: 2 (first at {}:3: ",
        corrupt.display()
    );
    assert!(stdout.contains(&first), "{stdout}");
    assert!(stdout.contains("frame spans: "), "{stdout}");

    // Nothing parseable: exit 1 at the first bad line, as plain
    // `inspect` does.
    let garbage = dir.join("garbage.jsonl");
    std::fs::write(&garbage, "\ngarbage\nmore garbage\n").expect("write garbage");
    for flag in ["--spans", "--audit"] {
        let out = cli(&["inspect".as_ref(), garbage.as_os_str(), flag.as_ref()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("garbage.jsonl:2: "), "{flag}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
