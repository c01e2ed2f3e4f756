//! Runs one benchmark workload and prints its record and result lines.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload join|serve|update --seed N --seconds S --trace 0|1
//! ```
//!
//! Standard output ends with one JSON line holding `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it describe the inputs and,
//! for a traced run, each span name's self time. Traced runs also write
//! their spans as JSON lines under `$CARGO_TARGET_DIR/perfbench/` (default
//! `target/perfbench/`). The exit code is 1 when any answer was wrong.

use gpv_perfbench::{run, trace, RunConfig, Size, Workload};
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        work_dir: base.join("perfbench"),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload join|serve|update --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    let out = run(&cfg);
    println!(
        "{}",
        serde_json::to_string(&out.record).expect("record serializes")
    );
    if cfg.trace {
        let path = cfg
            .work_dir
            .join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        if let Err(e) = out.spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        let self_times = trace::self_times(out.spans.spans())
            .into_iter()
            .map(|(name, (n, total, own))| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("spans".into(), Value::Int(n.into())),
                        ("total_ms".into(), Value::Float(total)),
                        ("self_ms".into(), Value::Float(own)),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("spans_file".into(), Value::Str(path.display().to_string())),
            ("self_time".into(), Value::Object(self_times)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("self times serialize")
        );
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed or answered wrongly",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}
