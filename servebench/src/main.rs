//! `servebench` — closed-loop replay of seeded request streams through
//! the release `mmt serve`, with every reply checked, and an in-process
//! replay of the same streams that yields per-layer times and counts.
//!
//! ```text
//! servebench --mmt <path/to/mmt> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a few `# …` context lines and, as its last line, one JSON
//! object `{"correct","attempted","failed","metrics"}`. `servebench
//! replay …` is the in-process replay the driver starts as a child
//! process; see `replay.rs` for why it needs a process of its own.
//! `servebench/README.md` describes the workloads and metrics.

mod driver;
mod json;
mod replay;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("replay") {
        parse(&args[1..]).and_then(|o| driver::run_replay_child(&o))
    } else {
        parse(&args).and_then(|o| driver::run(&o))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Command-line options of both modes.
pub struct Options {
    /// The `mmt` binary to serve with.
    pub mmt: Option<PathBuf>,
    /// The workload.
    pub workload: &'static workload::Workload,
    /// The stream seed.
    pub seed: u64,
    /// Sizes the stream; never read as a clock limit.
    pub seconds: u64,
    /// `--trace 1`: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Replay child: the run directory.
    pub dir: Option<PathBuf>,
    /// Replay child: record spans.
    pub spans: bool,
    /// Replay child: the one round to replay, as a reference; absent,
    /// the full replay (see `replay::replay`).
    pub round: Option<usize>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        mmt: None,
        workload: &workload::WORKLOADS[0],
        seed: 0,
        seconds: 10,
        trace: false,
        dir: None,
        spans: false,
        round: None,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--mmt" => o.mmt = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                o.workload = workload::workload_named(name).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?;
                named = true;
            }
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)?.max(1),
            "--trace" => o.trace = number(value()?)? == 1,
            "--dir" => o.dir = Some(PathBuf::from(value()?)),
            "--spans" => o.spans = number(value()?)? == 1,
            "--round" => o.round = Some(number(value()?)? as usize),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(o)
}
