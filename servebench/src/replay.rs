//! The in-process replay: the same request stream, driven through the
//! crates' public functions instead of `mmt serve`.
//!
//! It runs in a child process of its own, started fresh, and loads the
//! input files with the same calls in the same order as `mmt serve`.
//! String values are interned symbols and the session fingerprint
//! hashes their intern indices, so only a process with the same intern
//! history as `serve` computes the fingerprints `serve` reports.
//!
//! The replay is the reference every reply is checked against, and
//! (with spans on) the source of the per-layer metrics.

use crate::json::{fnv1a, request_field, FNV_BASIS};
use crate::stats::quantile;
use crate::trace::{durations, self_time_by_name, Tracer};
use crate::workload::{Family, Workload};
use mmt_core::{EngineKind, SessionOptions, Shape, SyncHub, SyncSession, Transformation};
use mmt_deps::DomIdx;
use mmt_dist::EditOp;
use mmt_enforce::{RepairEngine, RepairOptions, SearchEngine};
use mmt_ground::{GroundOptions, GroundProblem, Scope};
use mmt_model::text::{parse_metamodel, parse_model};
use mmt_model::{AttrType, Metamodel, Model, ObjId, Sym, Value};
use mmt_store::{write_hub_manifest, HubStore, PersistentSession};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What the replay expects `serve` to answer to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A session state: fingerprint, violation count, journal length.
    State(u64, u64, u64),
    /// `close` of a session.
    Closed,
    /// `rollback all`: entries undone.
    Undone(u64),
    /// `repair`: the least cost.
    Repaired(u64),
}

impl Expect {
    /// One line of the expectations file.
    pub fn render(self) -> String {
        match self {
            Expect::State(fp, v, j) => format!("state {fp} {v} {j}"),
            Expect::Closed => "closed".into(),
            Expect::Undone(n) => format!("undone {n}"),
            Expect::Repaired(c) => format!("repaired {c}"),
        }
    }

    /// Parses one line of [`Expect::render`] output.
    pub fn parse(line: &str) -> Option<Expect> {
        let mut words = line.split(' ');
        let tag = words.next()?;
        let mut num = || words.next()?.parse::<u64>().ok();
        match tag {
            "state" => Some(Expect::State(num()?, num()?, num()?)),
            "closed" => Some(Expect::Closed),
            "undone" => Some(Expect::Undone(num()?)),
            "repaired" => Some(Expect::Repaired(num()?)),
            _ => None,
        }
    }
}

/// The repair options `mmt serve` runs with by default.
pub fn serve_repair_options() -> RepairOptions {
    RepairOptions {
        max_cost: 16,
        jobs: 1,
        ..RepairOptions::default()
    }
}

/// The replay's findings.
pub struct Replay {
    /// One expectation per request, over all replayed rounds in order.
    pub expects: Vec<Expect>,
    /// Per round: the seed tuple's fingerprint, and the journal length,
    /// violation count and journal script hash (see [`script_hash`]) a
    /// restart must show: the round's last state under `--store`, which
    /// the restart recovers, and the seed state otherwise.
    pub rounds: Vec<(u64, u64, u64, u64)>,
    /// In-process checks that failed: a cycle that did not return to
    /// the seed fingerprint, a rollback that undid a different number of
    /// entries than the cycle journaled, an engine disagreement on cost,
    /// or a recovery that differs from the live session.
    pub failures: Vec<String>,
    /// Whole-replay wall time, ns.
    pub wall_ns: u64,
    /// Per-layer metrics (spans on only): name, value, unit.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// The spans, for the JSON-lines trace.
    pub tracer: Tracer,
}

/// Replays `rounds` (request lines per round) over the input files in
/// `dir`. Each round starts from scratch, like the fresh `mmt serve`
/// it mirrors: files loaded, spec registered, empty store.
///
/// On the repair family every repair's least cost is also computed a
/// second way (see [`repair`]). `full` makes this the full replay the
/// per-layer metrics come from (traced, and untraced for the overhead):
/// the grounding probe then runs on both repair workloads, and both
/// drift-family workloads commit to an in-process store (so `drift`'s
/// trace measures the store layer too, though its `serve` runs without
/// one). Without `full` it is a reference replay: the answers are the
/// same either way.
pub fn replay(
    w: &Workload,
    dir: &Path,
    rounds: &[Vec<String>],
    spans: bool,
    full: bool,
) -> Result<Replay, String> {
    let started = Instant::now();
    let mut tr = Tracer::new(spans);
    let mut st = State {
        full,
        expects: Vec::new(),
        failures: Vec::new(),
        seed: None,
        delta: [0; 3],
        edits: 0,
        costs: Vec::new(),
        delta_ops: Vec::new(),
        ground: Vec::new(),
        wal_growth: Vec::new(),
    };
    let mut out_rounds = Vec::with_capacity(rounds.len());
    for requests in rounds {
        st.seed = None;
        let (journal, violations, script) = replay_round(w, dir, requests, &mut tr, &mut st)?;
        out_rounds.push((st.seed.map_or(0, |s| s.0), journal, violations, script));
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let layers = if spans {
        layer_metrics(&tr, &st, wall_ns)?
    } else {
        Vec::new()
    };
    Ok(Replay {
        expects: st.expects,
        rounds: out_rounds,
        failures: st.failures,
        wall_ns,
        layers,
        tracer: tr,
    })
}

/// One round; returns the journal length, violation count and journal
/// script hash a restart must show (see [`Replay::rounds`]).
fn replay_round(
    w: &Workload,
    dir: &Path,
    requests: &[String],
    tr: &mut Tracer,
    st: &mut State,
) -> Result<(u64, u64, u64), String> {
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    // Load exactly as `mmt serve` does: spec and metamodel files read,
    // metamodels parsed in order, spec resolved, then each model file.
    let spec_src = read("F.qvtr")?;
    let mm_srcs = [read("CF.mm")?, read("FM.mm")?];
    let metamodels: Vec<Arc<Metamodel>> = mm_srcs
        .iter()
        .map(|s| parse_metamodel(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let hir = tr
        .span("qvtr.parse_resolve", || {
            mmt_qvtr::parse_and_resolve(&spec_src, &metamodels)
        })
        .map_err(|e| e.to_string())?;
    let t = Transformation::from_hir(hir);
    let mut models = Vec::new();
    for param in &t.hir().models {
        let name = format!("{}.model", param.name.resolve());
        let src = read(&name)?;
        let m = tr
            .span("model.parse", || parse_model(&src, &param.meta))
            .map_err(|e| format!("{name}: {e}"))?;
        models.push(m);
    }
    let engine = match w.engine {
        "sat" => EngineKind::Sat,
        _ => EngineKind::Search,
    };
    let opts = SessionOptions {
        engine,
        repair: serve_repair_options(),
    };
    let hub = SyncHub::new();
    let t = tr
        .span("lint.register", || hub.register("default", t))
        .map_err(|e| e.to_string())?;
    let _ = hub.lint_report("default");
    let store = st.full && w.family == Family::Drift;
    let store_dir = dir.join("store-replay");
    if store {
        if store_dir.exists() {
            std::fs::remove_dir_all(&store_dir).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string())?;
    }
    let mut stores: Vec<(String, PersistentSession)> = Vec::new();

    for line in requests {
        let cmd = request_field(line, "cmd").ok_or("request without cmd")?;
        let name = request_field(line, "session").ok_or("request without session")?;
        let req = tr.enter("request");
        let expect = match cmd.as_ref() {
            "open" => {
                let handle = tr
                    .span("check.cold_build", || {
                        hub.open_with(&name, "default", &models, opts.clone())
                    })
                    .map_err(|e| e.to_string())?;
                if store {
                    let ps = tr
                        .span("store.create", || {
                            handle.with(|s| {
                                PersistentSession::create(
                                    &store_dir.join("sessions").join(name.as_ref()),
                                    s,
                                )
                            })
                        })
                        .map_err(|e| e.to_string())?;
                    stores.push((name.to_string(), ps));
                    sync_manifest(&hub, &store_dir)?;
                }
                let (e, script) = handle.with(|s| {
                    tr.span("check.report", || s.report());
                    (state_of(s), script_hash(journal_text(s).as_bytes()))
                });
                if let Expect::State(fp, v, _) = e {
                    if st.seed.get_or_insert((fp, v, script)).0 != fp {
                        st.failures
                            .push(format!("open of {name} is not the seed state"));
                    }
                }
                e
            }
            "close" => {
                hub.close(&name).map_err(|e| e.to_string())?;
                if store {
                    stores.retain(|(n, _)| n != name.as_ref());
                    let d = store_dir.join("sessions").join(name.as_ref());
                    std::fs::remove_dir_all(&d).map_err(|e| e.to_string())?;
                    sync_manifest(&hub, &store_dir)?;
                }
                Expect::Closed
            }
            "edit" => {
                let edit = request_field(line, "edit").ok_or("edit without edit")?;
                let handle = hub.get(&name).map_err(|e| e.to_string())?;
                let e = handle.with(|s| {
                    let (model, op) = parse_edit(&t, s, &edit)?;
                    let before = s.checker().delta_stats();
                    tr.span("check.apply", || s.apply(model, op))
                        .map_err(|e| e.to_string())?;
                    let after = s.checker().delta_stats();
                    st.delta[0] += after.partial_updates - before.partial_updates;
                    st.delta[1] += after.full_reevals - before.full_reevals;
                    st.delta[2] += after.checks_skipped - before.checks_skipped;
                    st.edits += 1;
                    tr.span("check.report", || s.report());
                    Ok::<_, String>(state_of(s))
                })?;
                commit(tr, &mut stores, &name, &handle, &mut st.wal_growth)?;
                e
            }
            "status" => {
                let handle = hub.get(&name).map_err(|e| e.to_string())?;
                handle.with(|s| {
                    tr.span("check.report", || s.report());
                    state_of(s)
                })
            }
            "repair" => {
                let targets = request_field(line, "targets").ok_or("repair without targets")?;
                let idx: Vec<usize> = targets
                    .split(',')
                    .map(|n| t.hir().model_named(n.trim()).map(|d| d.index()))
                    .collect::<Option<_>>()
                    .ok_or("unknown repair target")?;
                let shape = Shape::of(&idx);
                let handle = hub.get(&name).map_err(|e| e.to_string())?;
                let cost = handle.with(|s| repair(tr, w, s, shape, st))?;
                commit(tr, &mut stores, &name, &handle, &mut st.wal_growth)?;
                Expect::Repaired(cost)
            }
            "rollback" => {
                let handle = hub.get(&name).map_err(|e| e.to_string())?;
                let undone = handle.with(|s| {
                    let journaled = s.journal().len();
                    let n = tr
                        .span("core.rollback", || s.rollback(usize::MAX))
                        .map_err(|e| e.to_string())?;
                    if n != journaled {
                        st.failures
                            .push(format!("rollback undid {n} of {journaled} entries"));
                    }
                    if Some(s.fingerprint()) != st.seed.map(|s| s.0) {
                        st.failures
                            .push("rollback all did not return to the seed".to_string());
                    }
                    Ok::<_, String>(n as u64)
                })?;
                commit(tr, &mut stores, &name, &handle, &mut st.wal_growth)?;
                Expect::Undone(undone)
            }
            other => return Err(format!("the replay does not handle `{other}`")),
        };
        tr.exit(req);
        st.expects.push(expect);
    }

    let main = hub
        .get(crate::workload::SESSION)
        .map_err(|e| e.to_string())?;
    let (tail_journal, tail_violations, live_script) = main.with(|s| {
        (
            s.journal().len() as u64,
            s.status().violations as u64,
            journal_text(s),
        )
    });
    if store {
        // Recovery ≡ replay: a fresh hub restored from the store holds
        // exactly the live session's journal.
        drop(stores);
        let fresh = SyncHub::new();
        fresh
            .register("default", Arc::clone(&t))
            .map_err(|e| e.to_string())?;
        let restored = tr
            .span("store.recover", || fresh.restore_from(&store_dir, &opts))
            .map_err(|e| e.to_string())?;
        let got = restored
            .iter()
            .find(|(h, _)| h.name() == crate::workload::SESSION)
            .map(|(h, _)| h.with(|s| journal_text(s)));
        if got.as_deref() != Some(live_script.as_str()) {
            st.failures
                .push("recovered journal differs from the live session".to_string());
        }
    }
    if w.store {
        Ok((
            tail_journal,
            tail_violations,
            script_hash(live_script.as_bytes()),
        ))
    } else {
        let (_, violations, script) = st.seed.ok_or("the round opens no session")?;
        Ok((0, violations, script))
    }
}

/// Replay-wide accumulators.
struct State {
    /// The full replay: every probe, and the store under `--store`.
    full: bool,
    expects: Vec<Expect>,
    failures: Vec<String>,
    /// The seed state, as the round's first `open` reports it:
    /// fingerprint, violation count, journal script hash.
    seed: Option<(u64, u64, u64)>,
    /// Summed `DeltaStats` differences over edits: partial updates,
    /// full re-evaluations, checks skipped.
    delta: [u64; 3],
    edits: u64,
    /// Per repair: the session's cost and its repair's op count.
    costs: Vec<u64>,
    delta_ops: Vec<u64>,
    /// Per grounding probe: variables, clauses, instantiations.
    ground: Vec<[u64; 3]>,
    /// Per WAL commit: bytes the WAL grew by.
    wal_growth: Vec<u64>,
}

/// The state an `open`/`edit`/`status` reply reports.
fn state_of(s: &SyncSession) -> Expect {
    Expect::State(
        s.fingerprint(),
        s.status().violations as u64,
        s.journal().len() as u64,
    )
}

/// The journal as replayable script text: interner-independent, so it
/// compares across processes.
fn journal_text(s: &SyncSession) -> String {
    let mut out = String::new();
    for d in s.journal_script() {
        let _ = writeln!(out, "{d}");
    }
    out
}

/// The hash a `journal` reply's `script` reads as (see
/// [`crate::json::Reply::script`]), of [`journal_text`] output.
pub fn script_hash(journal_text: &[u8]) -> u64 {
    fnv1a(FNV_BASIS, journal_text)
}

/// Repairs the session with its own engine. On the repair family the
/// least cost is also computed by the other engine, on the same
/// pre-repair tuple: on `repair_search` by grounding and solving (the
/// SAT path, step by step), on `repair_sat` by the warm search. Every
/// cost must agree.
fn repair(
    tr: &mut Tracer,
    w: &Workload,
    s: &mut SyncSession,
    shape: Shape,
    st: &mut State,
) -> Result<u64, String> {
    let mut independent = Vec::new();
    if w.family == Family::Repair && !s.status().consistent {
        let ground = w.engine == "search" || st.full;
        let opts = serve_repair_options();
        let targets = shape.targets();
        let hir = Arc::clone(s.transformation().hir_arc());
        let gopts = GroundOptions {
            scope: Scope {
                slack_objs: opts.slack_objs,
                fresh_strings: opts.fresh_strings,
            },
            cost: opts.cost,
            tuple: opts
                .tuple
                .resolved(hir.arity())
                .map_err(|e| e.to_string())?,
            max_cost: opts.max_cost,
            ..GroundOptions::default()
        };
        if ground {
            let mut problem = tr
                .span("ground.build", || {
                    GroundProblem::build(&hir, s.models(), targets, gopts)
                })
                .map_err(|e| format!("{e:?}"))?;
            let g = problem.stats();
            st.ground
                .push([g.vars as u64, g.clauses, g.universal_instantiations]);
            let solved = tr.span("sat.solve", || problem.solve_min_cost());
            independent.push(("sat", solved.map(|(c, _)| c)));
        }
        if w.engine == "sat" {
            let out = tr
                .span("enforce.repair", || {
                    SearchEngine::new(opts).repair_warm(s.checker(), targets)
                })
                .map_err(|e| e.to_string())?;
            independent.push(("search", out.map(|o| o.cost)));
        }
    }
    let span = if w.engine == "sat" {
        "sat.repair"
    } else {
        "enforce.repair"
    };
    let out = tr
        .span(span, || s.repair(shape))
        .map_err(|e| e.to_string())?
        .ok_or("no repair within the cost bound")?;
    for (engine, cost) in independent {
        if cost != Some(out.cost) {
            st.failures.push(format!(
                "{engine} cost {cost:?} differs from the session's {}",
                out.cost
            ));
        }
    }
    st.costs.push(out.cost);
    st.delta_ops
        .push(out.deltas.iter().map(|d| d.len() as u64).sum());
    Ok(out.cost)
}

/// Commits the session's journal to its store (the durable workload's
/// per-request commit point), recording how much the WAL grew.
fn commit(
    tr: &mut Tracer,
    stores: &mut [(String, PersistentSession)],
    name: &str,
    handle: &mmt_core::SessionHandle,
    growth: &mut Vec<u64>,
) -> Result<(), String> {
    if let Some((_, ps)) = stores.iter_mut().find(|(n, _)| n == name) {
        let wal = ps.dir().join("wal");
        let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        let before = len(&wal);
        tr.span("store.commit", || handle.with(|s| ps.commit(s)))
            .map_err(|e| e.to_string())?;
        growth.push(len(&wal).saturating_sub(before));
    }
    Ok(())
}

fn sync_manifest(hub: &SyncHub, dir: &Path) -> Result<(), String> {
    let entries: Vec<(String, String)> = hub
        .sessions()
        .iter()
        .map(|h| (h.name().to_string(), h.transformation_id().to_string()))
        .collect();
    write_hub_manifest(dir, &entries).map_err(|e| e.to_string())
}

/// Parses an `edit` payload (`<param> add|del|set …`) into the op `mmt
/// serve` applies for it, following the `mmt sync` edit-line grammar.
/// Values are interned at the same point as in `serve`: when the line
/// is parsed.
fn parse_edit(t: &Transformation, s: &SyncSession, spec: &str) -> Result<(DomIdx, EditOp), String> {
    let mut words = spec.split_whitespace();
    let param = words.next().ok_or("edit needs a model parameter")?;
    let model = t
        .hir()
        .model_named(param)
        .ok_or_else(|| format!("unknown model parameter `{param}`"))?;
    let meta = &t.hir().models[model.index()].meta;
    let live: &Model = &s.models()[model.index()];
    let obj = |tok: Option<&str>| -> Result<ObjId, String> {
        tok.and_then(|t| t.strip_prefix('@'))
            .and_then(|d| d.parse::<u32>().ok())
            .map(ObjId)
            .ok_or_else(|| format!("bad object in `{spec}`"))
    };
    let op = match words.next() {
        Some("add") => {
            let class_name = words.next().ok_or("add needs a class")?;
            let class = meta
                .class_named(class_name)
                .ok_or_else(|| format!("unknown class `{class_name}`"))?;
            EditOp::AddObj {
                id: obj(words.next())?,
                class,
            }
        }
        Some("del") => {
            let id = obj(words.next())?;
            let class = live.class_of(id).map_err(|e| e.to_string())?;
            EditOp::DelObj { id, class }
        }
        Some("set") => {
            let (lhs, rhs) = spec
                .split_once(" set ")
                .and_then(|(_, rest)| rest.split_once('='))
                .ok_or("set needs `@id.<attr> = <value>`")?;
            let (id_tok, attr_name) = lhs.trim().split_once('.').ok_or("set needs `@id.<attr>`")?;
            let id = obj(Some(id_tok))?;
            let class = live.class_of(id).map_err(|e| e.to_string())?;
            let attr = meta
                .attr_of(class, Sym::new(attr_name.trim()))
                .ok_or_else(|| format!("unknown attribute `{attr_name}`"))?;
            let raw = rhs.trim();
            let value = match meta.attr(attr).ty {
                AttrType::Str => {
                    let inner = raw
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                        .ok_or("string value must be quoted")?;
                    Value::str(&inner.replace("\\\"", "\"").replace("\\\\", "\\"))
                }
                AttrType::Bool => Value::Bool(raw == "true"),
                AttrType::Int => Value::Int(raw.parse().map_err(|_| "bad int")?),
            };
            let old = live.attr(id, attr).unwrap_or(value);
            EditOp::SetAttr {
                id,
                attr,
                value,
                old,
            }
        }
        other => return Err(format!("the replay does not handle edit action {other:?}")),
    };
    Ok((model, op))
}

/// The per-layer metrics of one traced replay. A layer the workload
/// never calls reports 0.
fn layer_metrics(
    tr: &Tracer,
    st: &State,
    wall_ns: u64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let spans = tr.spans();
    // Load-time layers run once per round: report their time per load.
    let loads = durations(spans, "qvtr.parse_resolve").len().max(1) as f64;
    let per_load = |name: &str| durations(spans, name).iter().sum::<f64>() / loads;
    // A percentile of a layer's call durations, scaled; 0 when the
    // workload never calls the layer.
    let pct = |name: &str, q: f64, scale: f64| -> Result<f64, String> {
        let d = durations(spans, name);
        if d.is_empty() {
            return Ok(0.0);
        }
        quantile(&d, q)
            .map(|v| v / scale)
            .map_err(|e| format!("{name}: {e}"))
    };
    let median_of = |name: &str, scale: f64| -> f64 {
        crate::stats::median(&durations(spans, name)).map_or(0.0, |v| v / scale)
    };
    let mean = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        }
    };
    let per_edit = |n: u64| {
        if st.edits == 0 {
            0.0
        } else {
            n as f64 / st.edits as f64
        }
    };
    let ground_mean = |i: usize| mean(&st.ground.iter().map(|g| g[i]).collect::<Vec<_>>());
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let self_by = self_time_by_name(spans);
    let covered: u64 = self_by
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, t)| *t)
        .sum();
    Ok(vec![
        (
            "qvtr.parse_resolve_ms",
            per_load("qvtr.parse_resolve") / MS,
            "ms",
        ),
        ("lint.register_ms", per_load("lint.register") / MS, "ms"),
        ("model.parse_ms", per_load("model.parse") / MS, "ms"),
        (
            "check.cold_build_ms",
            median_of("check.cold_build", MS),
            "ms",
        ),
        ("check.apply_us_p50", pct("check.apply", 0.5, US)?, "us"),
        ("check.apply_us_p90", pct("check.apply", 0.9, US)?, "us"),
        ("check.report_us_p50", pct("check.report", 0.5, US)?, "us"),
        (
            "check.partial_updates_per_edit",
            per_edit(st.delta[0]),
            "count",
        ),
        (
            "check.full_reevals_per_edit",
            per_edit(st.delta[1]),
            "count",
        ),
        (
            "check.checks_skipped_per_edit",
            per_edit(st.delta[2]),
            "count",
        ),
        ("core.rollback_us_p50", pct("core.rollback", 0.5, US)?, "us"),
        (
            "enforce.repair_ms_p50",
            pct("enforce.repair", 0.5, MS)?,
            "ms",
        ),
        (
            "enforce.repair_ms_p90",
            pct("enforce.repair", 0.9, MS)?,
            "ms",
        ),
        ("enforce.cost_mean", mean(&st.costs), "count"),
        ("enforce.delta_ops_mean", mean(&st.delta_ops), "count"),
        ("ground.build_ms_p50", pct("ground.build", 0.5, MS)?, "ms"),
        ("ground.vars_mean", ground_mean(0), "count"),
        ("ground.clauses_mean", ground_mean(1), "count"),
        ("ground.instantiations_mean", ground_mean(2), "count"),
        ("sat.solve_ms_p50", pct("sat.solve", 0.5, MS)?, "ms"),
        ("sat.repair_ms_p50", pct("sat.repair", 0.5, MS)?, "ms"),
        ("store.create_ms", median_of("store.create", MS), "ms"),
        ("store.commit_us_p50", pct("store.commit", 0.5, US)?, "us"),
        ("store.recover_ms", median_of("store.recover", MS), "ms"),
        ("store.wal_bytes_per_commit", mean(&st.wal_growth), "bytes"),
        (
            "layers.covered_share",
            covered as f64 / wall_ns as f64,
            "ratio",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_stream, workload_named};

    #[test]
    fn every_cycle_returns_to_the_seed_and_the_engines_agree() {
        let dir = std::env::temp_dir().join(format!("servebench-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["repair_search", "repair_sat"] {
            let w = workload_named(name).unwrap();
            let stream = build_stream(w.family, 11, 1);
            for (file, text) in &stream.files {
                std::fs::write(dir.join(file), text).unwrap();
            }
            let rounds: Vec<Vec<String>> = stream
                .rounds
                .iter()
                .map(|r| r.iter().map(|q| q.line.clone()).collect())
                .collect();
            let r = replay(w, &dir, &rounds[..3], false, true).unwrap();
            // Rollbacks that miss the seed and cost disagreements
            // between the engines land here.
            assert!(r.failures.is_empty(), "{name}: {:?}", r.failures);
            assert_eq!(
                r.expects.len(),
                rounds[..3].iter().map(Vec::len).sum::<usize>()
            );
            let undone = r
                .expects
                .iter()
                .filter(|e| matches!(e, Expect::Undone(n) if *n > 0))
                .count();
            assert!(undone > 0, "{name}: cycles journal their edits");
            for (fp, ..) in &r.rounds {
                assert_eq!(*fp, r.rounds[0].0, "every round opens the same seed");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expectations_round_trip_through_their_text_form() {
        for e in [
            Expect::State(u64::MAX, 2, 3),
            Expect::Closed,
            Expect::Undone(4),
            Expect::Repaired(1),
        ] {
            assert_eq!(Expect::parse(&e.render()), Some(e));
        }
        assert_eq!(Expect::parse("state 1 2"), None);
        assert_eq!(Expect::parse("bogus"), None);
    }
}
