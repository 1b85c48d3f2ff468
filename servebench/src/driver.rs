//! The benchmark driver: renders the stream, gets the reference
//! answers from the in-process replay, replays the stream through `mmt
//! serve`, checks every reply, and prints the metrics.

use crate::json::{read_reply, Reply};
use crate::replay::{replay, Expect};
use crate::serve::Serve;
use crate::stats::{grouped_quantile, median, quantile, trimmed_mean};
use crate::workload::{build_stream, Request, Stream, Verb, LINT_LINE, SESSION};
use crate::Options;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Every run ends within this budget: the watchdog kills `serve` at
/// the deadline and the remaining requests count as failed.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// Separates rounds in the run directory's request file.
const ROUND_MARK: &str = "# round";

/// The replay child: replays the run directory's request file (one
/// round, or all) and writes what it found next to it.
pub fn run_replay_child(o: &Options) -> Result<(), String> {
    let dir = o.dir.as_ref().ok_or("replay needs --dir")?;
    let text = std::fs::read_to_string(dir.join("requests.txt"))
        .map_err(|e| format!("requests.txt: {e}"))?;
    let mut rounds: Vec<Vec<String>> = Vec::new();
    for line in text.lines() {
        if line == ROUND_MARK {
            rounds.push(Vec::new());
        } else {
            rounds
                .last_mut()
                .ok_or("requests.txt must start with a round mark")?
                .push(line.to_string());
        }
    }
    let full = o.round.is_none();
    if let Some(r) = o.round {
        rounds = vec![rounds.get(r).ok_or("no such round")?.clone()];
    } else {
        // The per-layer numbers are per-call statistics: the first
        // quarter of the rounds gives them enough calls, and keeps a
        // traced run (two full replays and the end-to-end run) well
        // inside its time limit.
        rounds.truncate(rounds.len().div_ceil(4));
    }
    let r = replay(o.workload, dir, &rounds, o.spans, full)?;
    let tag = child_tag(o.spans, o.round);
    let mut expect = String::with_capacity(r.expects.len() * 32);
    for e in &r.expects {
        expect.push_str(&e.render());
        expect.push('\n');
    }
    write(&dir.join(format!("expect-{tag}.txt")), &expect)?;
    let mut out = String::new();
    for (fp, journal, violations, script) in &r.rounds {
        let _ = writeln!(out, "round {fp} {journal} {violations} {script}");
    }
    let _ = writeln!(out, "wall_ns {}", r.wall_ns);
    for f in &r.failures {
        let _ = writeln!(out, "failure {f}");
    }
    for (name, value, unit) in &r.layers {
        let _ = writeln!(out, "layer {name} {value} {unit}");
    }
    write(&dir.join(format!("replay-{tag}.txt")), &out)?;
    if o.spans {
        let path = dir.join("spans.jsonl");
        let f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(f);
        r.tracer
            .write_jsonl(&mut w)
            .and_then(|()| std::io::Write::flush(&mut w))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn child_tag(spans: bool, round: Option<usize>) -> String {
    let kind = if spans { "traced" } else { "ref" };
    round.map_or_else(|| kind.to_string(), |r| format!("{kind}-{r}"))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one replay child reported.
struct ReplayOut {
    expects: Vec<Expect>,
    /// Per round: seed fingerprint, journal length, violation count,
    /// journal script hash.
    rounds: Vec<(u64, u64, u64, u64)>,
    wall_ns: f64,
    failures: Vec<String>,
    layers: Vec<(String, f64, String)>,
}

/// Starts a replay child and reads back its findings: one round as a
/// reference, or (without `round`) the full replay, traced or its
/// untraced twin.
fn replay_child(
    o: &Options,
    dir: &Path,
    spans: bool,
    round: Option<usize>,
    deadline: Instant,
) -> Result<ReplayOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["replay", "--workload", o.workload.name, "--spans"])
        .arg(if spans { "1" } else { "0" })
        .arg("--dir")
        .arg(dir);
    if let Some(r) = round {
        cmd.args(["--round", &r.to_string()]);
    }
    let mut child = cmd.spawn().map_err(|e| format!("replay child: {e}"))?;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("replay child: {e}"))? {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("replay child ran past the run's deadline".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    if !status.success() {
        return Err(format!("replay child failed: {status}"));
    }
    let tag = child_tag(spans, round);
    let read =
        |name: String| std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"));
    let expects = read(format!("expect-{tag}.txt"))?
        .lines()
        .map(|l| Expect::parse(l).ok_or_else(|| format!("bad expectation `{l}`")))
        .collect::<Result<_, _>>()?;
    let mut out = ReplayOut {
        expects,
        rounds: Vec::new(),
        wall_ns: 0.0,
        failures: Vec::new(),
        layers: Vec::new(),
    };
    for line in read(format!("replay-{tag}.txt"))?.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let bad = || format!("bad replay line `{line}`");
        let nums: Vec<u64> = rest.split(' ').filter_map(|x| x.parse().ok()).collect();
        match key {
            "round" if nums.len() == 4 => out.rounds.push((nums[0], nums[1], nums[2], nums[3])),
            "wall_ns" if nums.len() == 1 => out.wall_ns = nums[0] as f64,
            "failure" => out.failures.push(rest.to_string()),
            "layer" => {
                let mut w = rest.split(' ');
                let (Some(n), Some(v), Some(u)) = (w.next(), w.next(), w.next()) else {
                    return Err(bad());
                };
                out.layers
                    .push((n.to_string(), v.parse().map_err(|_| bad())?, u.to_string()));
            }
            _ => return Err(bad()),
        }
    }
    Ok(out)
}

/// The driver's tally of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

/// Checks one reply against the reference answer for its request.
/// Returns why it does not match.
pub fn check_reply(verb: Verb, reply: &Reply, expect: Expect) -> Result<(), String> {
    if reply.ok != Some(true) {
        return Err(format!("{verb:?}: error reply"));
    }
    let mismatch = |what: &str, got: Option<u64>, want: u64| {
        if got == Some(want) {
            Ok(())
        } else {
            Err(format!("{verb:?}: {what} {got:?}, expected {want}"))
        }
    };
    match (verb, expect) {
        (Verb::Open | Verb::Edit | Verb::Status, Expect::State(fp, v, j)) => {
            mismatch("fingerprint", reply.fingerprint, fp)?;
            mismatch("violations", reply.violations, v)?;
            mismatch("journal", reply.journal, j)
        }
        (Verb::Close, Expect::Closed) => Ok(()),
        (Verb::Rollback, Expect::Undone(n)) => mismatch("undone", reply.undone, n),
        (Verb::Repair, Expect::Repaired(c)) => {
            if reply.repaired != Some(true) {
                return Err(format!("{verb:?}: not repaired"));
            }
            mismatch("cost", reply.cost, c)
        }
        (v, e) => Err(format!("{v:?}: reference answer {e:?} is for another verb")),
    }
}

/// Checks a `journal` reply against the expected entry count and
/// journal script hash.
fn check_journal(reply: &Reply, id: u64, entries: u64, script: u64) -> Result<(), String> {
    if reply.ok == Some(true)
        && reply.id == Some(id)
        && reply.entries == Some(entries)
        && reply.script == Some(script)
    {
        Ok(())
    } else {
        Err(format!(
            "journal reply {reply:?}, expected {entries} entries with script hash {script}"
        ))
    }
}

/// One serve request's outcome as the timed loop records it.
#[derive(Clone, Copy)]
struct Sample {
    verb: Verb,
    /// The round trip; 0 when the request was not answered.
    ns: u64,
    bytes: u32,
    reply: Option<Reply>,
}

/// Sends `lines` (the rendered `reqs`) back to back; each round trip is
/// timed alone and its reply is parsed once its timing has stopped.
/// Returns a sample per request and the error that cut the phase short.
fn timed_phase(
    serve: &mut Serve,
    reqs: &[Request],
    lines: &[Vec<u8>],
    buf: &mut Vec<u8>,
) -> (Vec<Sample>, Option<String>) {
    let mut samples: Vec<Sample> = reqs
        .iter()
        .map(|r| Sample {
            verb: r.verb,
            ns: 0,
            bytes: 0,
            reply: None,
        })
        .collect();
    for (line, sample) in lines.iter().zip(samples.iter_mut()) {
        match serve.request(line, buf) {
            Ok(rtt) => {
                sample.ns = rtt.as_nanos() as u64;
                sample.bytes = buf.len() as u32;
                sample.reply = read_reply(buf).ok();
            }
            Err(e) => return (samples, Some(e)),
        }
    }
    (samples, None)
}

fn rendered(reqs: &[Request]) -> Vec<Vec<u8>> {
    reqs.iter()
        .map(|r| {
            let mut l = Vec::with_capacity(r.line.len() + 1);
            l.extend_from_slice(r.line.as_bytes());
            l.push(b'\n');
            l
        })
        .collect()
}

/// The filesystem type holding `path`, from the mount table.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// What the timed rounds measure.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    recover_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    /// Per round, in stream order: a sample per request.
    samples: Vec<Vec<Sample>>,
    /// Per round: the request phase's requests per second of their
    /// summed round trips.
    rates: Vec<f64>,
}

/// The timed rounds' fixed inputs and what they collect.
struct Rounds<'a> {
    o: &'a Options,
    dir: &'a Path,
    mmt: &'a Path,
    /// `serve`'s arguments after `serve`.
    args: Vec<String>,
    deadline: Instant,
    tally: Tally,
    got: Measured,
    buf: Vec<u8>,
    next_id: u64,
    /// Reference answers by the first round that sent them.
    refs: HashMap<usize, ReplayOut>,
}

impl Rounds<'_> {
    /// Operations one round attempts: set-up (`lint`), its requests,
    /// the peak-RSS read, and the restart's two requests.
    fn owed(reqs: &[Request]) -> u64 {
        reqs.len() as u64 + 4
    }

    /// Runs one round: a fresh `serve`, the round's requests, and a
    /// restart. A reply that does not check is a failed operation; an
    /// `Err` cuts the round short, and the caller counts what it did not
    /// attempt as failed.
    ///
    /// `block` is the first round that sends the same requests (see
    /// `Shape::blocks`); its reference answers serve this round too.
    fn round(&mut self, round: usize, block: usize, reqs: &[Request]) -> Result<(), String> {
        let w = self.o.workload;
        let store_dir = self.dir.join("store");
        // The round's reference answers, from a replay in a fresh
        // process (as the round's `serve` is one). Taking them just
        // before the round spreads the timed rounds over the whole run.
        if !self.refs.contains_key(&block) {
            let want = replay_child(self.o, self.dir, false, Some(block), self.deadline)?;
            self.refs.insert(block, want);
        }
        let want = &self.refs[&block];
        if want.expects.len() != reqs.len() || want.rounds.len() != 1 {
            return Err("reference does not cover the round".into());
        }
        for f in &want.failures {
            self.tally.fail(format!("round {round}: in-process: {f}"));
        }
        // Set-up: spawn → reply to the first (`lint`) request, from an
        // empty store directory under `--store`.
        if store_dir.exists() {
            std::fs::remove_dir_all(&store_dir).map_err(|e| e.to_string())?;
        }
        let lint_line = format!("{LINT_LINE}\n").into_bytes();
        let t0 = Instant::now();
        let mut serve = Serve::spawn(self.mmt, &self.args, self.dir, self.deadline)?;
        self.tally.attempted += 1;
        serve
            .request(&lint_line, &mut self.buf)
            .map_err(|e| format!("serve did not start: {e}"))?;
        self.got.setup_s.push(t0.elapsed().as_secs_f64());
        match read_reply(&self.buf) {
            Ok(r) if r.ok == Some(true) => {}
            _ => self.tally.fail(format!("round {round}: lint: bad reply")),
        }

        // Cold opens and the working session's open, then the request
        // phase: the cycles and the tail.
        let lines = rendered(reqs);
        let split = reqs
            .iter()
            .position(|r| r.verb != Verb::Open && r.verb != Verb::Close)
            .unwrap_or(reqs.len());
        let (mut got, mut err) =
            timed_phase(&mut serve, &reqs[..split], &lines[..split], &mut self.buf);
        let (main, main_err) = if err.is_none() {
            timed_phase(&mut serve, &reqs[split..], &lines[split..], &mut self.buf)
        } else {
            (Vec::new(), None)
        };
        if main_err.is_none() && err.is_none() && !main.is_empty() {
            let ns: u64 = main.iter().map(|s| s.ns).sum();
            self.got.rates.push(main.len() as f64 / (ns as f64 / 1e9));
        }
        err = err.or(main_err);
        got.extend(main);
        got.extend(reqs[got.len()..].iter().map(|r| Sample {
            verb: r.verb,
            ns: 0,
            bytes: 0,
            reply: None,
        }));
        let unanswered = err.as_deref().unwrap_or("no reply");
        self.tally.attempted += 1;
        match serve.peak_rss_kb() {
            Ok(kb) => self.got.peak_rss_mb.push(kb as f64 / 1024.0),
            Err(e) => self.tally.fail(format!("round {round}: peak RSS: {e}")),
        }
        for ((req, sample), expect) in reqs.iter().zip(&got).zip(&want.expects) {
            self.tally.attempted += 1;
            let outcome = match sample.reply {
                None if sample.ns == 0 => {
                    Err(format!("{:?}: not answered: {unanswered}", req.verb))
                }
                None => Err(format!("{:?}: malformed reply", req.verb)),
                Some(r) if r.id != Some(req.id) => Err(format!(
                    "{:?}: reply id {:?} for request {}",
                    req.verb, r.id, req.id
                )),
                Some(r) => check_reply(req.verb, &r, *expect),
            };
            if let Err(e) = outcome {
                self.tally.fail(format!("round {round}: {e}"));
            }
        }
        self.got.samples.push(got);

        // Restart: stop `serve`, start it again, and time until the
        // working session answers — recovered from the store under
        // `--store`, opened afresh otherwise.
        let (seed_fp, journal, violations, script) = want.rounds[0];
        let verb = if w.store { "status" } else { "open" };
        let id = self.next_id;
        self.next_id += 2;
        let first = format!("{{\"id\":{id},\"cmd\":\"{verb}\",\"session\":\"{SESSION}\"}}\n");
        let entries = format!(
            "{{\"id\":{},\"cmd\":\"journal\",\"session\":\"{SESSION}\"}}\n",
            id + 1
        );
        let status = serve.finish()?;
        if !status.success() {
            self.tally
                .fail(format!("round {round}: serve exited with {status}"));
        }
        let t0 = Instant::now();
        let mut serve = Serve::spawn(self.mmt, &self.args, self.dir, self.deadline)?;
        self.tally.attempted += 2;
        let rtt = serve.request(first.as_bytes(), &mut self.buf);
        self.got.recover_s.push(t0.elapsed().as_secs_f64());
        let checked = rtt.and_then(|_| read_reply(&self.buf)).and_then(|r| {
            // The fingerprint hashes intern indices, which a recovering
            // process assigns in its own order; only the in-memory
            // restart, which interns exactly as the round did, must
            // reproduce it.
            let fp_ok = w.store || r.fingerprint == Some(seed_fp);
            if r.ok == Some(true)
                && r.id == Some(id)
                && fp_ok
                && r.journal == Some(journal)
                && r.violations == Some(violations)
            {
                Ok(())
            } else {
                Err(format!("restart: state {r:?} is not the expected one"))
            }
        });
        if let Err(e) = checked {
            self.tally.fail(format!("round {round}: {e}"));
        }
        // The journal must be the expected one edit for edit: under
        // `--store`, the round's, as recovered.
        let checked = serve
            .request(entries.as_bytes(), &mut self.buf)
            .and_then(|_| read_reply(&self.buf))
            .and_then(|r| check_journal(&r, id + 1, journal, script));
        if let Err(e) = checked {
            self.tally.fail(format!("round {round}: restart: {e}"));
        }
        let status = serve.finish()?;
        if !status.success() {
            self.tally.fail(format!(
                "round {round}: restarted serve exited with {status}"
            ));
        }
        Ok(())
    }
}

/// The benchmark run.
pub fn run(o: &Options) -> Result<(), String> {
    let w = o.workload;
    let deadline = Instant::now() + RUN_BUDGET;
    let mmt = o
        .mmt
        .as_ref()
        .ok_or("--mmt <path to the mmt binary> is required")?;
    // `serve` starts in the run directory: resolve the binary first.
    let mmt = mmt
        .canonicalize()
        .map_err(|e| format!("{}: {e}", mmt.display()))?;
    let dir = PathBuf::from(".bench_run").join(w.name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Render the whole stream before any clock starts.
    let stream: Stream = build_stream(w.family, o.seed, o.seconds);
    for (name, text) in &stream.files {
        write(&dir.join(name), text)?;
    }
    let mut request_file = String::new();
    for round in &stream.rounds {
        request_file.push_str(ROUND_MARK);
        request_file.push('\n');
        for r in round {
            request_file.push_str(&r.line);
            request_file.push('\n');
        }
    }
    write(&dir.join("requests.txt"), &request_file)?;
    println!(
        "# workload={} seed={} seconds={} stream_hash={:016x} rounds={} requests={}",
        w.name,
        o.seed,
        o.seconds,
        stream.hash(),
        stream.rounds.len(),
        stream.rounds.iter().map(Vec::len).sum::<usize>()
    );
    let cpus = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    println!(
        "# env nproc={} cpus={cpus} serve_jobs=1 engine={} store={} store_fs={} driver_profile={} mmt={}",
        std::fs::read_to_string("/proc/cpuinfo")
            .map_or(0, |s| s.lines().filter(|l| l.starts_with("processor")).count()),
        w.engine,
        if w.store { "on" } else { "off" },
        fs_type(&dir),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        mmt.display()
    );

    let (spec, mms, models) = stream.file_names();
    let mut args: Vec<String> = vec!["-t".into(), spec.into(), "-M".into()];
    args.extend(mms.iter().map(|s| s.to_string()));
    args.push("-m".into());
    args.extend(models.iter().map(|s| s.to_string()));
    args.extend(["--engine".into(), w.engine.into()]);
    if w.store {
        args.extend(["--store".into(), "store".into()]);
    }
    let mut r = Rounds {
        o,
        dir: &dir,
        mmt: &mmt,
        args,
        deadline,
        tally: Tally::default(),
        got: Measured::default(),
        buf: Vec::with_capacity(1 << 20),
        next_id: 1_000_000,
        refs: HashMap::new(),
    };

    // With `--trace 1`: every round in one process, with spans and
    // without, for the per-layer metrics and the tracing overhead.
    let traced = if o.trace {
        r.tally.attempted += 1;
        let both = replay_child(o, &dir, false, None, deadline).and_then(|untraced| {
            Ok((
                replay_child(o, &dir, true, None, deadline)?,
                untraced.wall_ns,
            ))
        });
        both.map_err(|e| r.tally.fail(format!("in-process replay: {e}")))
            .ok()
    } else {
        None
    };

    for (round, reqs) in stream.rounds.iter().enumerate() {
        let owed = Rounds::owed(reqs);
        let before = r.tally.attempted;
        let cut = if Instant::now() >= deadline {
            Err("out of time".to_string())
        } else {
            r.round(round, round % w.family.shape().blocks, reqs)
        };
        if let Err(e) = cut {
            // What the round did not get to attempt counts as failed.
            let left = owed.saturating_sub(r.tally.attempted - before);
            r.tally.attempted += left;
            r.tally.fail(format!("round {round}: {e}"));
            r.tally.failed += left.saturating_sub(1);
        }
        // A round cut short before its requests still has its (empty)
        // place, so the rounds group as the shape says.
        r.got.samples.resize_with(round + 1, Vec::new);
    }
    let (mut tally, got) = (r.tally, r.got);

    // Metrics, over the answered requests. A latency percentile is
    // taken per group of consecutive rounds (the rounds split as evenly
    // as they go), and the trimmed mean over the groups reported.
    let groups = w.family.shape().groups_for(o.seconds);
    let n = got.samples.len();
    let ns_of = |verb: Verb| -> Vec<Vec<f64>> {
        (0..groups)
            .map(|g| {
                got.samples[g * n / groups..(g + 1) * n / groups]
                    .iter()
                    .flatten()
                    .filter(|s| s.verb == verb && s.ns > 0)
                    .map(|s| s.ns as f64)
                    .collect()
            })
            .collect()
    };
    let opens: Vec<f64> = ns_of(Verb::Open)
        .concat()
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let (edits, statuses, repairs, rollbacks) = (
        ns_of(Verb::Edit),
        ns_of(Verb::Status),
        ns_of(Verb::Repair),
        ns_of(Verb::Rollback),
    );
    let edit_us_p50 = grouped_quantile(&edits, 0.5).map(|ns| ns / 1e3);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    let mut m = |name: &str, value: Result<f64, String>, unit: &str| match value {
        Ok(v) => metrics.push((name.into(), v, unit.into())),
        Err(e) => missing.push(format!("{name}: {e}")),
    };
    if !o.trace {
        m("setup_s", median(&got.setup_s), "s");
        m("open_ms_p50", median(&opens), "ms");
        m("edit_us_p50", edit_us_p50, "us");
        m(
            "edit_us_p90",
            grouped_quantile(&edits, 0.9).map(|ns| ns / 1e3),
            "us",
        );
        m(
            "status_us_p50",
            grouped_quantile(&statuses, 0.5).map(|ns| ns / 1e3),
            "us",
        );
        m(
            "repair_ms_p50",
            grouped_quantile(&repairs, 0.5).map(|ns| ns / 1e6),
            "ms",
        );
        m(
            "repair_ms_p90",
            grouped_quantile(&repairs, 0.9).map(|ns| ns / 1e6),
            "ms",
        );
        m(
            "rollback_us_p50",
            grouped_quantile(&rollbacks, 0.5).map(|ns| ns / 1e3),
            "us",
        );
        m("requests_per_s", trimmed_mean(&got.rates), "1/s");
        m("peak_rss_mb", trimmed_mean(&got.peak_rss_mb), "MB");
        m("recover_s", trimmed_mean(&got.recover_s), "s");
    } else if let Some((t, untraced_ns)) = &traced {
        let layer = |name: &str| {
            t.layers
                .iter()
                .find(|(n, ..)| n == name)
                .map_or(0.0, |(_, v, _)| *v)
        };
        for (name, value, unit) in &t.layers {
            m(name, Ok(*value), unit);
        }
        let reply_bytes: Vec<f64> = got
            .samples
            .iter()
            .flatten()
            .filter(|s| s.verb != Verb::Open && s.verb != Verb::Close && s.ns > 0)
            .map(|s| f64::from(s.bytes))
            .collect();
        m("cli.reply_bytes_p50", quantile(&reply_bytes, 0.5), "bytes");
        m(
            "cli.residual_us_p50",
            edit_us_p50.map(|e| {
                // Only `serve --store` pays the commit.
                let commit = if w.store {
                    layer("store.commit_us_p50")
                } else {
                    0.0
                };
                e - layer("check.apply_us_p50") - layer("check.report_us_p50") - commit
            }),
            "us",
        );
        m("trace.overhead_share", Ok(t.wall_ns / untraced_ns), "ratio");
    }
    if let Some((t, _)) = &traced {
        for f in &t.failures {
            tally.fail(format!("in-process (traced): {f}"));
        }
    }
    if !missing.is_empty() {
        // A metric the samples cannot give is the benchmark's own
        // defect, unless operations failed and took the samples away.
        if tally.failed == 0 {
            return Err(format!("metrics not computed: {}", missing.join("; ")));
        }
        println!("# metrics not computed: {}", missing.join("; "));
    }
    if let Some(why) = &tally.first_failure {
        println!("# first failure: {why}");
    }
    println!(
        "# samples edits={} statuses={} repairs={} rollbacks={} opens={} setups={} restarts={} rates={}",
        edits.iter().map(Vec::len).sum::<usize>(),
        statuses.iter().map(Vec::len).sum::<usize>(),
        repairs.iter().map(Vec::len).sum::<usize>(),
        rollbacks.iter().map(Vec::len).sum::<usize>(),
        opens.len(),
        got.setup_s.len(),
        got.recover_s.len(),
        got.rates.len()
    );
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(fp: u64) -> Reply {
        Reply {
            ok: Some(true),
            fingerprint: Some(fp),
            violations: Some(1),
            journal: Some(2),
            ..Reply::default()
        }
    }

    #[test]
    fn checker_accepts_matching_replies() {
        assert!(check_reply(Verb::Edit, &state(7), Expect::State(7, 1, 2)).is_ok());
        let repaired = Reply {
            ok: Some(true),
            repaired: Some(true),
            cost: Some(3),
            ..Reply::default()
        };
        assert!(check_reply(Verb::Repair, &repaired, Expect::Repaired(3)).is_ok());
    }

    #[test]
    fn checker_rejects_a_tampered_fingerprint_or_cost() {
        assert!(check_reply(Verb::Edit, &state(8), Expect::State(7, 1, 2)).is_err());
        assert!(check_reply(Verb::Status, &state(7), Expect::State(7, 0, 2)).is_err());
        let repaired = Reply {
            ok: Some(true),
            repaired: Some(true),
            cost: Some(4),
            ..Reply::default()
        };
        assert!(check_reply(Verb::Repair, &repaired, Expect::Repaired(3)).is_err());
        let unrepaired = Reply {
            repaired: Some(false),
            ..repaired
        };
        assert!(check_reply(Verb::Repair, &unrepaired, Expect::Repaired(4)).is_err());
        let error = Reply {
            ok: Some(false),
            ..state(7)
        };
        assert!(check_reply(Verb::Edit, &error, Expect::State(7, 1, 2)).is_err());
        let undone = Reply {
            ok: Some(true),
            undone: Some(2),
            ..Reply::default()
        };
        assert!(check_reply(Verb::Rollback, &undone, Expect::Undone(3)).is_err());
    }

    #[test]
    fn restart_check_rejects_a_journal_with_other_edits() {
        let journal = Reply {
            id: Some(9),
            ok: Some(true),
            entries: Some(2),
            script: Some(41),
            ..Reply::default()
        };
        assert!(check_journal(&journal, 9, 2, 41).is_ok());
        // Same entry count, other edits.
        assert!(check_journal(&journal, 9, 2, 42).is_err());
        assert!(check_journal(&journal, 9, 3, 41).is_err());
        assert!(check_journal(&journal, 8, 2, 41).is_err());
    }
}
