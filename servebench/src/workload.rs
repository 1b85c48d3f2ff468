//! The four workloads and the request streams they replay.
//!
//! A stream is rendered in full from the seed before any clock starts.
//! It never depends on what an engine answers: edits are drawn against
//! a generator-side copy of the tuple that is reset at every
//! `rollback all`, so the same seed always gives the same bytes.

use crate::json::{fnv1a, push_str_lit, FNV_BASIS};
use mmt_deps::DomIdx;
use mmt_dist::EditOp;
use mmt_gen::scenario::{Fm2Cfs, Scenario};
use mmt_gen::{render_step, FeatureSpec, SessionScriptGen, SessionStep};
use mmt_model::text::{parse_metamodel, parse_model, print_model};
use mmt_model::{AttrType, ClassId, Model, ObjId, Value};
use mmt_qvtr::{parse_and_resolve, Hir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Which stream a workload replays. Workloads of one family send the
/// same bytes; they differ only in how `mmt serve` is started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// A ~10⁵-object tuple: cycles of a repair request on the
    /// consistent seed state, `m` edits, a `status`, and `rollback all`.
    Drift,
    /// A small tuple: cycles of `k` edits, a `status`, a repair towards
    /// the configurations, and `rollback all`.
    Repair,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// The stream family.
    pub family: Family,
    /// Whether `serve` runs with `--store`.
    pub store: bool,
    /// The repair engine `serve` runs with.
    pub engine: &'static str,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "drift",
        family: Family::Drift,
        store: false,
        engine: "search",
    },
    Workload {
        name: "durable",
        family: Family::Drift,
        store: true,
        engine: "search",
    },
    Workload {
        name: "repair_search",
        family: Family::Repair,
        store: false,
        engine: "search",
    },
    Workload {
        name: "repair_sat",
        family: Family::Repair,
        store: false,
        engine: "sat",
    },
];

/// Looks a workload up by name.
pub fn workload_named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fixed shape of one family's stream. Everything but the cycle
/// count is a constant; the cycle count grows with `--seconds` only,
/// never with how fast a run goes.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Features in the feature model (the tuple has about 2.3× as many
    /// objects across its three models).
    pub n_features: usize,
    /// Edits per cycle.
    pub edits: usize,
    /// Cycles per second of `--seconds`, spread evenly over the rounds.
    pub cycles_per_second: usize,
    /// Rounds per run. Each round starts `serve` afresh, runs its share
    /// of the stream, and restarts `serve` once: every cold-path sample
    /// (set-up, open, restart) is taken once per round, so the samples
    /// spread over the whole run instead of bunching at its start.
    pub rounds: usize,
    /// Cold `open`/`close` pairs of throwaway sessions per round.
    pub opens: usize,
    /// Distinct round contents: round `r` sends the same requests as
    /// round `r % blocks`, and rounds with the same requests share one
    /// reference replay. With fewer blocks than rounds, `rounds` must
    /// divide `cycles_per_second`.
    pub blocks: usize,
    /// Groups of consecutive rounds a latency percentile is taken over
    /// in a run of ten seconds or more; a run reports the trimmed mean of its
    /// groups' percentiles (see `stats::grouped_quantile`). Divides
    /// `rounds`.
    pub groups: usize,
}

impl Shape {
    /// The groups of a run of `seconds`: proportionally fewer below ten
    /// seconds, so that each still holds enough requests for a p90.
    pub fn groups_for(self, seconds: u64) -> usize {
        (self.groups * seconds as usize / 10).clamp(1, self.groups)
    }
}

impl Family {
    /// The family's stream shape.
    pub fn shape(self) -> Shape {
        match self {
            Family::Drift => Shape {
                n_features: 44_000,
                edits: 16,
                cycles_per_second: 400,
                rounds: 25,
                opens: 2,
                // A reference replay of a round costs about as much as
                // the round itself at this size: one block leaves the
                // run's time to the timed rounds.
                blocks: 1,
                groups: 25,
            },
            Family::Repair => Shape {
                n_features: 8,
                edits: 1,
                cycles_per_second: 900,
                rounds: 120,
                opens: 5,
                blocks: 120,
                groups: 24,
            },
        }
    }
}

/// What a request asks for; the checks and the metrics key on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `open` a session.
    Open,
    /// `close` a session.
    Close,
    /// One `edit`.
    Edit,
    /// `status`: the read path.
    Status,
    /// `repair` towards the configurations.
    Repair,
    /// `rollback all`.
    Rollback,
}

/// One pre-rendered request line (no trailing newline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// What the line asks for.
    pub verb: Verb,
    /// The request id, which the reply must echo.
    pub id: u64,
    /// The JSON request line.
    pub line: String,
}

/// A rendered stream: the input files `serve` loads and the requests it
/// is sent.
#[derive(Debug, PartialEq, Eq)]
pub struct Stream {
    /// `(file name, contents)`: the spec, the metamodels, then one
    /// model file per transformation parameter, in parameter order.
    pub files: Vec<(String, String)>,
    /// The requests, one list per round. A round opens and closes
    /// throwaway sessions (cold opens), opens the working session, runs
    /// its cycles, and ends with a tail of edits left in the journal
    /// for a restart to recover.
    pub rounds: Vec<Vec<Request>>,
}

/// The scenario seed of every stream's tuple.
pub const TUPLE_SEED: u64 = 0;

/// The session name of the working session.
pub const SESSION: &str = "s";

/// The one request that needs no session: the set-up probe.
pub const LINT_LINE: &str = "{\"id\":0,\"cmd\":\"lint\"}";

impl Stream {
    /// FNV-1a over every input file and request line: equal for two
    /// workloads exactly when they load and send the same bytes.
    pub fn hash(&self) -> u64 {
        let mut h = FNV_BASIS;
        let mut eat = |bytes: &[u8]| h = fnv1a(fnv1a(h, bytes), b"\n");
        for (name, text) in &self.files {
            eat(name.as_bytes());
            eat(text.as_bytes());
        }
        for r in self.rounds.iter().flatten() {
            eat(r.line.as_bytes());
        }
        h
    }

    /// Spec, metamodel and model file names, in `mmt serve` argument
    /// order.
    pub fn file_names(&self) -> (&str, Vec<&str>, Vec<&str>) {
        let names: Vec<&str> = self.files.iter().map(|(n, _)| n.as_str()).collect();
        (names[0], names[1..3].to_vec(), names[3..].to_vec())
    }
}

/// Renders request lines with sequential ids.
struct Renderer {
    next_id: u64,
}

impl Renderer {
    fn request(&mut self, verb: Verb, fields: &[(&str, &str)]) -> Request {
        self.next_id += 1;
        let mut line = format!("{{\"id\":{},\"cmd\":", self.next_id);
        let cmd = match verb {
            Verb::Open => "open",
            Verb::Close => "close",
            Verb::Edit => "edit",
            Verb::Status => "status",
            Verb::Repair => "repair",
            Verb::Rollback => "rollback",
        };
        push_str_lit(&mut line, cmd);
        for (k, v) in fields {
            line.push(',');
            push_str_lit(&mut line, k);
            line.push(':');
            push_str_lit(&mut line, v);
        }
        line.push('}');
        Request {
            verb,
            id: self.next_id,
            line,
        }
    }

    fn session(&mut self, verb: Verb, session: &str) -> Request {
        self.request(verb, &[("session", session)])
    }

    fn edit(&mut self, hir: &Hir, step: &SessionStep) -> Request {
        let text = render_step(hir, step);
        let edit = text
            .strip_prefix("edit ")
            .expect("an edit step renders as `edit …`");
        self.request(Verb::Edit, &[("session", SESSION), ("edit", edit)])
    }
}

/// Builds the stream of `family` for `seed`, sized for `seconds`.
pub fn build_stream(family: Family, seed: u64, seconds: u64) -> Stream {
    let shape = family.shape();
    let scenario = Fm2Cfs {
        spec: FeatureSpec {
            n_features: shape.n_features,
            ..Fm2Cfs::default().spec
        },
    };
    // The tuple is fixed; the seed drives the edit stream. A small
    // tuple's few features would otherwise decide every repair's cost,
    // and the seed-to-seed spread with them.
    let seed_models = scenario.workload(TUPLE_SEED).models;
    let spec = scenario.spec_source();
    let metamodel_srcs = scenario.metamodel_sources();
    let mut files = vec![
        ("F.qvtr".to_string(), spec.clone()),
        ("CF.mm".to_string(), metamodel_srcs[0].to_string()),
        ("FM.mm".to_string(), metamodel_srcs[1].to_string()),
    ];
    for m in &seed_models {
        files.push((format!("{}.model", m.name), print_model(m)));
    }
    // Draw edits against the tuple exactly as `serve` will parse it, so
    // object ids agree by construction.
    let metamodels: Vec<_> = metamodel_srcs
        .iter()
        .map(|s| parse_metamodel(s).expect("static scenario metamodel"))
        .collect();
    let hir = parse_and_resolve(&spec, &metamodels).expect("static scenario spec");
    let tuple: Vec<Model> = files[3..]
        .iter()
        .zip(&hir.models)
        .map(|((_, text), param)| parse_model(text, &param.meta).expect("printed model parses"))
        .collect();
    let targets = render_step(
        &hir,
        &SessionStep::Repair {
            targets: scenario.repair_targets(),
        },
    )
    .strip_prefix("repair ")
    .expect("a repair step renders as `repair …`")
    .to_string();

    let mut r = Renderer { next_id: 0 };
    let cycles = shape.cycles_per_second * seconds.max(1) as usize;
    let repair = |r: &mut Renderer| {
        r.request(
            Verb::Repair,
            &[("session", SESSION), ("targets", targets.as_str())],
        )
    };
    let rollback =
        |r: &mut Renderer| r.request(Verb::Rollback, &[("session", SESSION), ("n", "all")]);
    // The edit generator's own stream: separate from the tuple's seed.
    let edit_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
    let mut drift = DriftGen::new(tuple.clone(), edit_seed);
    let mut script = SessionScriptGen::new(scenario.repair_targets(), 0, edit_seed);
    let mut copy = tuple.clone();
    // Draws the repair family's next edit against the copy; with
    // `breaking`, redraws until the edit leaves the tuple inconsistent,
    // so the repair that follows has work to do.
    let mut repair_edit = |r: &mut Renderer, copy: &mut Vec<Model>, breaking: bool| loop {
        let step = script.next_step(copy);
        let SessionStep::Edit { model, op } = &step else {
            unreachable!("repair_every = 0 yields edits only");
        };
        let mut trial = copy.clone();
        apply_op(&mut trial[model.index()], op);
        if breaking && consistent(&hir, &trial) {
            continue;
        }
        *copy = trial;
        return r.edit(&hir, &step);
    };
    let mut rounds: Vec<Vec<Request>> = Vec::with_capacity(shape.rounds);
    for round in 0..shape.rounds {
        if round >= shape.blocks {
            rounds.push(rounds[round % shape.blocks].clone());
            continue;
        }
        let mut reqs = Vec::new();
        for i in 0..shape.opens {
            let name = format!("cold{i}");
            reqs.push(r.session(Verb::Open, &name));
            reqs.push(r.session(Verb::Close, &name));
        }
        reqs.push(r.session(Verb::Open, SESSION));
        let share = cycles / shape.rounds + usize::from(round < cycles % shape.rounds);
        for _ in 0..share {
            match family {
                Family::Drift => {
                    reqs.push(repair(&mut r));
                    for _ in 0..shape.edits {
                        reqs.push(r.edit(&hir, &drift.next_step()));
                    }
                    reqs.push(r.session(Verb::Status, SESSION));
                    reqs.push(rollback(&mut r));
                    drift.reset();
                }
                Family::Repair => {
                    for i in 0..shape.edits {
                        reqs.push(repair_edit(&mut r, &mut copy, i + 1 == shape.edits));
                    }
                    reqs.push(r.session(Verb::Status, SESSION));
                    reqs.push(repair(&mut r));
                    reqs.push(rollback(&mut r));
                    copy.clone_from(&tuple);
                }
            }
        }
        for _ in 0..shape.edits {
            reqs.push(match family {
                Family::Drift => r.edit(&hir, &drift.next_step()),
                Family::Repair => repair_edit(&mut r, &mut copy, false),
            });
        }
        // The next round's `serve` starts from the seed tuple again.
        drift.reset();
        copy.clone_from(&tuple);
        rounds.push(reqs);
    }
    Stream { files, rounds }
}

/// Whether `models` satisfies the transformation (a from-scratch check).
fn consistent(hir: &Hir, models: &[Model]) -> bool {
    mmt_check::Checker::new(hir, models)
        .expect("generated tuples fit the spec")
        .check()
        .expect("generated tuples check")
        .consistent()
}

/// Applies one generated edit to the generator-side copy.
fn apply_op(m: &mut Model, op: &EditOp) {
    match *op {
        EditOp::AddObj { id, class } => m.add_at(id, class).expect("generated add is valid"),
        EditOp::DelObj { id, .. } => m.delete(id).expect("generated delete is valid"),
        EditOp::SetAttr {
            id, attr, value, ..
        } => m.set_attr(id, attr, value).expect("generated set is valid"),
        EditOp::AddLink { src, r, dst } => {
            m.add_link(src, r, dst).expect("generated link is valid");
        }
        EditOp::DelLink { src, r, dst } => {
            m.remove_link(src, r, dst)
                .expect("generated unlink is valid");
        }
    }
}

/// Single-edit drift over a large tuple, drawn from the same mix as
/// [`mmt_gen::random_edits`] (15% creations, 12% deletions, the rest
/// attribute overwrites from the model's own strings plus three fresh
/// ones), but in O(1) per edit. `SessionScriptGen` rebuilds its value
/// pool from the whole model on every step, which costs about half a
/// second per edit at 10⁵ objects.
///
/// The pools are the seed tuple's: a cycle's own edits never widen
/// them. The copy is undone edit by edit at [`DriftGen::reset`].
struct DriftGen {
    rng: StdRng,
    models: Vec<Model>,
    /// Per model: the concrete classes and the string value pool.
    pools: Vec<(Vec<ClassId>, Vec<Value>)>,
    /// Inverses of this cycle's edits, newest last: the model, the op
    /// that undoes it, and (for a deletion) the attributes to restore.
    undo: Vec<(usize, EditOp, Vec<Value>)>,
}

impl DriftGen {
    fn new(models: Vec<Model>, seed: u64) -> DriftGen {
        let pools = models
            .iter()
            .map(|m| {
                let meta = m.metamodel();
                let classes: Vec<ClassId> = (0..meta.class_count() as u32)
                    .map(ClassId)
                    .filter(|&c| !meta.class(c).is_abstract)
                    .collect();
                let mut seen = HashSet::new();
                let mut strings = Vec::new();
                for (_, obj) in m.objects() {
                    for (slot, &attr) in meta.class(obj.class).all_attrs.iter().enumerate() {
                        if meta.attr(attr).ty == AttrType::Str && seen.insert(obj.attrs[slot]) {
                            strings.push(obj.attrs[slot]);
                        }
                    }
                }
                for i in 0..3 {
                    let v = Value::str(&format!("$edit{i}"));
                    if seen.insert(v) {
                        strings.push(v);
                    }
                }
                (classes, strings)
            })
            .collect();
        DriftGen {
            rng: StdRng::seed_from_u64(seed),
            models,
            pools,
            undo: Vec::new(),
        }
    }

    /// A live object of model `i`, by rejection over the id space.
    fn live_obj(&mut self, i: usize) -> ObjId {
        let m = &self.models[i];
        assert!(!m.is_empty(), "drift needs non-empty models");
        loop {
            let id = ObjId(self.rng.gen_range(0..m.id_bound()) as u32);
            if m.contains(id) {
                return id;
            }
        }
    }

    fn next_step(&mut self) -> SessionStep {
        loop {
            let i = self.rng.gen_range(0..self.models.len());
            let roll = self.rng.gen_range(0..100usize);
            let op = if roll < 15 {
                let classes = &self.pools[i].0;
                let class = classes[self.rng.gen_range(0..classes.len())];
                let id = ObjId(self.models[i].id_bound() as u32);
                self.models[i].add_at(id, class).expect("fresh id");
                self.undo
                    .push((i, EditOp::DelObj { id, class }, Vec::new()));
                EditOp::AddObj { id, class }
            } else if roll < 27 {
                let id = self.live_obj(i);
                let m = &mut self.models[i];
                let obj = m.get(id).expect("live");
                let (class, attrs) = (obj.class, obj.attrs.to_vec());
                m.delete(id).expect("live");
                self.undo.push((i, EditOp::AddObj { id, class }, attrs));
                EditOp::DelObj { id, class }
            } else {
                let id = self.live_obj(i);
                let m = &mut self.models[i];
                let meta = Arc::clone(m.metamodel());
                let class = m.class_of(id).expect("live");
                let attrs = &meta.class(class).all_attrs;
                if attrs.is_empty() {
                    continue;
                }
                let attr = attrs[self.rng.gen_range(0..attrs.len())];
                let value = match meta.attr(attr).ty {
                    AttrType::Str => {
                        let pool = &self.pools[i].1;
                        pool[self.rng.gen_range(0..pool.len())]
                    }
                    AttrType::Int => Value::Int(self.rng.gen_range(0..6) as i64),
                    AttrType::Bool => Value::Bool(self.rng.gen_bool(0.5)),
                };
                let old = m.attr(id, attr).expect("declared attr");
                m.set_attr(id, attr, value).expect("typed value");
                self.undo.push((
                    i,
                    EditOp::SetAttr {
                        id,
                        attr,
                        value: old,
                        old: value,
                    },
                    Vec::new(),
                ));
                EditOp::SetAttr {
                    id,
                    attr,
                    value,
                    old,
                }
            };
            return SessionStep::Edit {
                model: DomIdx(i as u8),
                op,
            };
        }
    }

    /// Undoes this cycle's edits: the copy is the seed tuple again.
    fn reset(&mut self) {
        while let Some((i, op, attrs)) = self.undo.pop() {
            let m = &mut self.models[i];
            apply_op(m, &op);
            if let EditOp::AddObj { id, class } = op {
                let meta = Arc::clone(m.metamodel());
                for (slot, &attr) in meta.class(class).all_attrs.iter().enumerate() {
                    m.set_attr(id, attr, attrs[slot]).expect("restored attr");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for family in [Family::Repair, Family::Drift] {
            let a = build_stream(family, 7, 1);
            let b = build_stream(family, 7, 1);
            assert_eq!(a, b, "{family:?}");
            assert_eq!(a.hash(), b.hash());
            let c = build_stream(family, 8, 1);
            assert_eq!(a.files, c.files, "the tuple is fixed");
            assert_ne!(a.rounds, c.rounds, "{family:?}");
            assert_ne!(a.hash(), c.hash());
        }
    }

    #[test]
    fn workloads_of_one_family_get_identical_streams() {
        let search = workload_named("repair_search").unwrap();
        let sat = workload_named("repair_sat").unwrap();
        assert_eq!(search.family, sat.family);
        assert_ne!(search.engine, sat.engine);
        let drift = workload_named("drift").unwrap();
        let durable = workload_named("durable").unwrap();
        assert_eq!(drift.family, durable.family);
        assert!(durable.store && !drift.store);
        // The stream is a function of the family, the seed and the
        // length only.
        let a = build_stream(search.family, 5, 1);
        let b = build_stream(sat.family, 5, 1);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn rounds_are_cycles_that_end_in_rollback_all() {
        for family in [Family::Repair, Family::Drift] {
            let shape = family.shape();
            let s = build_stream(family, 3, 1);
            assert_eq!(s.rounds.len(), shape.rounds);
            let mut cycles = 0;
            for (r, round) in s.rounds.iter().enumerate() {
                // Rounds of one block share their reference answers.
                assert_eq!(round, &s.rounds[r % shape.blocks]);
                let opens = 2 * shape.opens;
                assert!(round[..opens]
                    .iter()
                    .step_by(2)
                    .all(|r| r.verb == Verb::Open));
                assert_eq!(round[opens].verb, Verb::Open);
                let body = &round[opens + 1..round.len() - shape.edits];
                assert_eq!(body.len() % (shape.edits + 3), 0);
                for cycle in body.chunks(shape.edits + 3) {
                    let edits = cycle.iter().filter(|r| r.verb == Verb::Edit).count();
                    assert_eq!(edits, shape.edits);
                    assert_eq!(cycle.last().unwrap().verb, Verb::Rollback);
                    assert!(cycle.iter().any(|r| r.verb == Verb::Repair));
                    assert!(cycle.iter().any(|r| r.verb == Verb::Status));
                    cycles += 1;
                }
                assert!(round[round.len() - shape.edits..]
                    .iter()
                    .all(|r| r.verb == Verb::Edit));
            }
            assert_eq!(cycles, shape.cycles_per_second);
        }
    }

    #[test]
    fn every_group_holds_enough_repairs_for_a_p90() {
        for family in [Family::Repair, Family::Drift] {
            let shape = family.shape();
            assert_eq!(shape.rounds % shape.groups, 0);
            for seconds in [1, 2, 3, 5, 7, 10, 30] {
                let cycles = shape.cycles_per_second * seconds;
                // The rounds split evenly over the groups, and a round
                // holds at least `cycles / rounds` cycles, each with one
                // repair.
                let rounds = shape.rounds / shape.groups_for(seconds as u64);
                let repairs = rounds * (cycles / shape.rounds);
                assert!(repairs >= 100, "{family:?} at {seconds} s: {repairs}");
            }
        }
    }

    #[test]
    fn drift_reset_restores_the_seed_tuple() {
        let shape = Family::Drift.shape();
        let w = Fm2Cfs {
            spec: FeatureSpec {
                n_features: 50,
                ..Fm2Cfs::default().spec
            },
        }
        .workload(1);
        let mut gen = DriftGen::new(w.models.clone(), 9);
        for _ in 0..4 {
            for _ in 0..shape.edits * 4 {
                gen.next_step();
            }
            gen.reset();
            for (a, b) in gen.models.iter().zip(&w.models) {
                assert!(a.graph_eq(b));
            }
        }
    }
}
